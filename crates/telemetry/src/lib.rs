//! Determinism-safe instrumentation for the WebWave engine stack.
//!
//! Every engine layer (`ww-core`, `ww-pdes`, `ww-dist`) records into the
//! primitives here; the scenario `Runner` collects the results into an
//! [`Snapshot`] per run and (optionally) streams per-round records to a
//! JSONL trace via [`TraceWriter`]. Three rules keep the instrumentation
//! out of the simulation's way — the *determinism contract*
//! (`docs/observability.md`):
//!
//! 1. **Observation only.** Nothing here is ever read back by engine
//!    code. Counters are plain integers, timers use the monotonic
//!    [`std::time::Instant`] clock, and no recorded value may influence
//!    an event order, a floating-point accumulation, or an RNG draw.
//! 2. **Lock-free by ownership.** Each worker (PDES shard, coordinator
//!    thread) owns its own dense [`Counters`] slab over a static key
//!    table and merges at barriers — the same epoch-fold shape the
//!    engines already use for their ledgers. No atomics on the hot path.
//! 3. **Cheap when off.** Every recording call starts with one branch on
//!    a bool captured at construction ([`Level::Off`] clears it).
//!
//! Every key is declared once, in its crate's [`keys!`] declaration:
//! slabs record by the declared constant's slot, and a snapshot takes
//! only a declared [`Key`].
//!
//! ```
//! use ww_telemetry::Level;
//!
//! ww_telemetry::keys! {
//!     /// Every key of the demo.
//!     pub static DEMO_TELEMETRY = [];
//!     /// The demo's counter slab.
//!     static DEMO_KEYS = [
//!         EVENTS: Sum Run "demo.events",
//!         DEPTH: HighWater Partition "demo.depth",
//!     ];
//! }
//!
//! let mut a = ww_telemetry::Counters::new(DEMO_KEYS, Level::Counters);
//! let mut b = ww_telemetry::Counters::new(DEMO_KEYS, Level::Counters);
//! a.add(EVENTS, 3);
//! b.add(EVENTS, 4);
//! b.record_max(DEPTH, 17);
//! a.merge_from(&b); // barrier merge: sums sum-keys, maxes high-water keys
//! let mut snap = ww_telemetry::Snapshot::new();
//! a.snapshot_into(&mut snap);
//! assert_eq!(snap.counter("demo.events"), Some(7));
//! assert_eq!(snap.counter("demo.depth"), Some(17));
//! assert_eq!(DEMO_TELEMETRY.len(), 2);
//! ```

#![forbid(unsafe_code)]

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::time::Instant;

use serde_json::{Map, Value};

/// How much instrumentation a run records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Level {
    /// Record nothing; every recording call is a single cold branch.
    #[default]
    Off,
    /// Counters, gauges, and latency histograms only — the ≤3%-overhead
    /// tier safe to leave on for benchmarks.
    Counters,
    /// Everything in `Counters` plus span-style phase timers.
    Full,
}

impl Level {
    /// True when counters (and histograms) record at this level.
    #[inline]
    pub fn counters_on(self) -> bool {
        self != Level::Off
    }

    /// True when phase timers record at this level.
    #[inline]
    pub fn spans_on(self) -> bool {
        self == Level::Full
    }

    /// The spec/CLI spelling of this level.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Counters => "counters",
            Level::Full => "full",
        }
    }

    /// Parses a spec/CLI spelling (`"off"`, `"counters"`, `"full"`).
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "off" => Some(Level::Off),
            "counters" => Some(Level::Counters),
            "full" => Some(Level::Full),
            _ => None,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a key records, and how a slab of counters merges it at
/// barriers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A counter merged by addition (event counts, bytes, parks).
    Sum,
    /// A counter merged by maximum (occupancy high-waters, queue-depth
    /// peaks).
    HighWater,
    /// A phase timer: total nanoseconds and span count.
    Phase,
    /// A latency histogram: sample count, sum and maximum.
    Histogram,
}

/// What a key's value is a function of: the projection of a snapshot
/// that two runs can be diffed on. `crates/scenario/tests/telemetry.rs`
/// checks every declared class against what the packet engines report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// The spec alone: the same on every backend that emits it.
    Run,
    /// The spec and the partition: the same across repeated runs at one
    /// worker count.
    Partition,
    /// Timing: may differ from run to run.
    Wall,
}

/// One declared telemetry key: a constant a crate's [`keys!`]
/// declaration emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key {
    /// Dotted-path name (`docs/observability.md`). A `{i}`, `{shard}`,
    /// `{src}` or `{dst}` placeholder stands for an index a snapshot
    /// fills in: the key exists once per shard or per link.
    pub name: &'static str,
    /// What it records.
    pub kind: Kind,
    /// What its value is a function of.
    pub class: Class,
    /// Its position in the table that declares it: the slot a slab over
    /// that table records it in.
    pub slot: usize,
}

/// The one place a crate states the telemetry keys it emits.
///
/// Each line declares one key constant, `NAME: Kind Class "dotted.name"`
/// ([`Kind`], [`Class`]): a [`Key`] whose slot is the line's position in
/// its table, visible as its table is. The first table lists the keys a
/// snapshot pushes one by one, then every key of the tables after it: it
/// is the union of what the crate emits. Each later table is a
/// `&'static [Key]` that a [`Counters`] or [`Phases`] slab, or a helper
/// pushing a fixed group, runs over in line order.
#[macro_export]
macro_rules! keys {
    (
        $(#[$all_meta:meta])*
        $all_vis:vis static $all:ident = [$($hid:ident: $hkind:ident $hclass:ident $hname:literal),* $(,)?];
        $(
            $(#[$meta:meta])*
            $vis:vis static $table:ident = [$($id:ident: $kind:ident $class:ident $name:literal),* $(,)?];
        )*
    ) => {
        $crate::keys!(@consts [$all_vis] $all $($hid $hkind $hclass $hname)*);
        $(
            $crate::keys!(@consts [$vis] $table $($id $kind $class $name)*);
            $(#[$meta])*
            $vis static $table: &[$crate::Key] = &[$($id),*];
        )*
        $(#[$all_meta])*
        $all_vis static $all: &[$crate::Key] = &[$($hid,)* $($($id),*),*];
    };
    (@consts [$vis:vis] $table:ident $($id:ident $kind:ident $class:ident $name:literal)*) => {
        // Numbers the table's lines: a variant's discriminant is its slot.
        #[allow(non_camel_case_types, clippy::upper_case_acronyms, dead_code)]
        enum $table { $($id),* }
        $(
            #[doc = concat!("`", $name, "`: ", stringify!($kind), ", ", stringify!($class), ".")]
            $vis const $id: $crate::Key = $crate::Key {
                name: $name,
                kind: $crate::Kind::$kind,
                class: $crate::Class::$class,
                slot: $table::$id as usize,
            };
        )*
    };
}

/// A dense counter slab over a static key table. One owner, no locks:
/// each worker keeps its own `Counters` and the barrier (or the final
/// report) merges them with [`Counters::merge_from`].
#[derive(Debug, Clone)]
pub struct Counters {
    keys: &'static [Key],
    slots: Vec<u64>,
    on: bool,
}

impl Counters {
    /// A slab for `keys`, recording iff `level` enables counters.
    pub fn new(keys: &'static [Key], level: Level) -> Counters {
        Counters {
            keys,
            slots: vec![0; keys.len()],
            on: level.counters_on(),
        }
    }

    /// A recording slab holding `slots`, one value per key in table
    /// order — a slab recorded elsewhere (another process) and shipped
    /// as its values, ready to [`merge_from`](Counters::merge_from).
    /// `None` when `slots` is not one value per key.
    pub fn from_slots(keys: &'static [Key], slots: Vec<u64>) -> Option<Counters> {
        (slots.len() == keys.len()).then_some(Counters {
            keys,
            slots,
            on: true,
        })
    }

    /// True when this slab records.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Adds `n` to sum key `key` of this slab's table.
    #[inline]
    pub fn add(&mut self, key: Key, n: u64) {
        if self.on {
            debug_assert_eq!(self.keys[key.slot], key, "a key of another table");
            self.slots[key.slot] += n;
        }
    }

    /// Raises high-water key `key` to `v` if `v` is larger.
    #[inline]
    pub fn record_max(&mut self, key: Key, v: u64) {
        if self.on && v > self.slots[key.slot] {
            debug_assert_eq!(self.keys[key.slot], key, "a key of another table");
            self.slots[key.slot] = v;
        }
    }

    /// Barrier merge: sums [`Kind::Sum`] slots, maxes
    /// [`Kind::HighWater`] slots. Both slabs must share a key table.
    pub fn merge_from(&mut self, other: &Counters) {
        if !(self.on && other.on) {
            return;
        }
        assert_eq!(
            self.keys.as_ptr(),
            other.keys.as_ptr(),
            "merging counter slabs with different key tables"
        );
        for (id, key) in self.keys.iter().enumerate() {
            match key.kind {
                Kind::HighWater => self.slots[id] = self.slots[id].max(other.slots[id]),
                _ => self.slots[id] += other.slots[id],
            }
        }
    }

    /// The current value of `key` (0 when disabled).
    pub fn get(&self, key: Key) -> u64 {
        self.slots[key.slot]
    }

    /// Appends every slot, in key-table order, to `snap`.
    pub fn snapshot_into(&self, snap: &mut Snapshot) {
        if !self.on {
            return;
        }
        for (&key, &value) in self.keys.iter().zip(&self.slots) {
            snap.push_counter(key, &[], value);
        }
    }
}

/// A span-style phase timer set over a static phase-key table. Active
/// only at [`Level::Full`]; the clock is observation-only — elapsed
/// times are accumulated for reporting and never read back.
#[derive(Debug, Clone)]
pub struct Phases {
    keys: &'static [Key],
    stats: Vec<PhaseStat>,
    on: bool,
}

/// An opaque start token from [`Phases::begin`]; give it back to
/// [`Phases::end`]. Carries no time when spans are off.
#[derive(Debug, Clone, Copy)]
pub struct SpanStart(Option<Instant>);

impl Phases {
    /// A timer set for `keys`, recording iff `level` enables spans.
    pub fn new(keys: &'static [Key], level: Level) -> Phases {
        Phases {
            keys,
            stats: vec![PhaseStat::default(); keys.len()],
            on: level.spans_on(),
        }
    }

    /// Starts a span (reads the monotonic clock only when recording).
    #[inline]
    pub fn begin(&self) -> SpanStart {
        SpanStart(if self.on { Some(Instant::now()) } else { None })
    }

    /// Ends a span started with [`Phases::begin`], crediting phase
    /// `key` of this set's table.
    #[inline]
    pub fn end(&mut self, key: Key, start: SpanStart) {
        if let Some(t0) = start.0 {
            debug_assert_eq!(self.keys[key.slot], key, "a key of another table");
            self.stats[key.slot].ns += t0.elapsed().as_nanos() as u64;
            self.stats[key.slot].count += 1;
        }
    }

    /// Barrier merge: sums elapsed time and span counts per phase.
    pub fn merge_from(&mut self, other: &Phases) {
        if !(self.on && other.on) {
            return;
        }
        assert_eq!(
            self.keys.as_ptr(),
            other.keys.as_ptr(),
            "merging phase sets with different key tables"
        );
        for (stat, other) in self.stats.iter_mut().zip(&other.stats) {
            stat.ns += other.ns;
            stat.count += other.count;
        }
    }

    /// Appends every phase, in key-table order, to `snap`.
    pub fn snapshot_into(&self, snap: &mut Snapshot) {
        if !self.on {
            return;
        }
        for (&key, &stat) in self.keys.iter().zip(&self.stats) {
            snap.push_phase(key, stat);
        }
    }
}

/// A latency summary: how many samples, their sum and the largest, in
/// nanoseconds. Cheap enough for per-epoch round-trip timing at
/// [`Level::Counters`].
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    count: u64,
    sum_ns: u64,
    max_ns: u64,
    on: bool,
}

impl Histogram {
    /// A histogram recording iff `level` enables counters.
    pub fn new(level: Level) -> Histogram {
        let on = level.counters_on();
        Histogram {
            on,
            ..Histogram::default()
        }
    }

    /// True when this histogram records.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Records one sample of `ns` nanoseconds.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        if !self.on {
            return;
        }
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Records the elapsed time since `t0`.
    #[inline]
    pub fn record_since(&mut self, t0: Instant) {
        if self.on {
            self.record_ns(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Appends this histogram's summary to `snap` under `key`.
    pub fn snapshot_into(&self, key: Key, snap: &mut Snapshot) {
        if !self.on {
            return;
        }
        snap.push_hist(
            key,
            HistStat {
                count: self.count,
                sum_ns: self.sum_ns,
                max_ns: self.max_ns,
            },
        );
    }
}

/// Accumulated time in one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseStat {
    /// Total nanoseconds spent in the phase.
    pub ns: u64,
    /// Number of spans recorded.
    pub count: u64,
}

/// Summary of one latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistStat {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples, nanoseconds.
    pub sum_ns: u64,
    /// Largest sample, nanoseconds.
    pub max_ns: u64,
}

/// A merged, ordered view of everything one run recorded. Entry order
/// is deterministic — key-table order within a layer, layers in the
/// order the engine appends them — so two identical runs produce
/// identical snapshots (and identical JSONL bytes).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(dotted-path name, value)` counter entries.
    pub counters: Vec<(String, u64)>,
    /// `(dotted-path name, stat)` phase-timer entries.
    pub phases: Vec<(String, PhaseStat)>,
    /// `(dotted-path name, stat)` histogram entries.
    pub hists: Vec<(String, HistStat)>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.phases.is_empty() && self.hists.is_empty()
    }

    /// Appends a counter entry under sum or high-water key `key`, its
    /// placeholders filled by `args` in order (a per-shard or per-link
    /// key is formatted here, at snapshot time, never on the hot path).
    ///
    /// # Panics
    ///
    /// Panics if `key` is not a counter or `args` is not one index per
    /// placeholder.
    pub fn push_counter(&mut self, key: Key, args: &[usize], value: u64) {
        let name = name_of(key, &[Kind::Sum, Kind::HighWater], args);
        self.counters.push((name, value));
    }

    /// Appends a phase entry under phase key `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not a phase or has a placeholder.
    pub fn push_phase(&mut self, key: Key, stat: PhaseStat) {
        self.phases.push((name_of(key, &[Kind::Phase], &[]), stat));
    }

    /// Appends a histogram entry under histogram key `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not a histogram or has a placeholder.
    pub fn push_hist(&mut self, key: Key, stat: HistStat) {
        self.hists
            .push((name_of(key, &[Kind::Histogram], &[]), stat));
    }

    /// Concatenates another layer's snapshot after this one's entries.
    pub fn extend(&mut self, other: Snapshot) {
        self.counters.extend(other.counters);
        self.phases.extend(other.phases);
        self.hists.extend(other.hists);
    }

    /// Looks up a counter by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a phase by exact name.
    pub fn phase(&self, name: &str) -> Option<PhaseStat> {
        self.phases.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Renders the snapshot as a JSON object:
    /// `{"counters": {..}, "phases": {"<name>": {"ns": n, "count": c}},
    /// "histograms": {"<name>": {"count": c, "sum_ns": s, "max_ns": m}}}`.
    /// Sections are omitted when empty; entry order is preserved.
    pub fn to_json(&self) -> Value {
        let mut root = Map::new();
        if !self.counters.is_empty() {
            let mut counters = Map::new();
            for (name, value) in &self.counters {
                counters.insert(name.clone(), Value::Number(*value as f64));
            }
            root.insert("counters".to_string(), Value::Object(counters));
        }
        if !self.phases.is_empty() {
            let mut phases = Map::new();
            for (name, stat) in &self.phases {
                let mut obj = Map::new();
                obj.insert("ns".to_string(), Value::Number(stat.ns as f64));
                obj.insert("count".to_string(), Value::Number(stat.count as f64));
                phases.insert(name.clone(), Value::Object(obj));
            }
            root.insert("phases".to_string(), Value::Object(phases));
        }
        if !self.hists.is_empty() {
            let mut hists = Map::new();
            for (name, stat) in &self.hists {
                let mut obj = Map::new();
                obj.insert("count".to_string(), Value::Number(stat.count as f64));
                obj.insert("sum_ns".to_string(), Value::Number(stat.sum_ns as f64));
                obj.insert("max_ns".to_string(), Value::Number(stat.max_ns as f64));
                hists.insert(name.clone(), Value::Object(obj));
            }
            root.insert("histograms".to_string(), Value::Object(hists));
        }
        Value::Object(root)
    }

    /// A multi-line text rendering for run summaries (two-space indent,
    /// one `name = value` per line, stable order). Empty string when
    /// nothing was recorded.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("  {name} = {value}\n"));
        }
        for (name, stat) in &self.hists {
            let mean = stat.sum_ns.checked_div(stat.count).unwrap_or(0);
            out.push_str(&format!(
                "  {name} = count {} / mean {} ns / max {} ns\n",
                stat.count, mean, stat.max_ns
            ));
        }
        for (name, stat) in &self.phases {
            out.push_str(&format!(
                "  {name} = {} ns over {} spans\n",
                stat.ns, stat.count
            ));
        }
        out
    }
}

/// `key`'s name with each `{..}` placeholder replaced by the next of
/// `args`, for a snapshot section that holds `kinds`.
fn name_of(key: Key, kinds: &[Kind], args: &[usize]) -> String {
    assert!(
        kinds.contains(&key.kind),
        "{} is a {:?} key",
        key.name,
        key.kind
    );
    let parts: Vec<&str> = key.name.split(['{', '}']).collect();
    assert_eq!(parts.len(), 2 * args.len() + 1, "{}: {args:?}", key.name);
    let mut name = parts[0].to_string();
    for (arg, text) in args.iter().zip(parts.iter().skip(2).step_by(2)) {
        name += &format!("{arg}{text}");
    }
    name
}

/// Validates a metric name against the repo-wide dotted-path scheme
/// (`docs/observability.md`): one or more non-empty segments of
/// lowercase ASCII letters, digits, `_` or `-`, joined by single dots.
/// `event.3.leaf_join.round` and `scheme.dns-rr.max_load` pass;
/// `Served/Requests`, `pdes..popped`, and `event.` do not.
pub fn valid_metric_key(name: &str) -> bool {
    !name.is_empty()
        && name.split('.').all(|segment| {
            !segment.is_empty()
                && segment
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-')
        })
}

/// A line-per-record JSONL trace sink (compact objects, one per line).
/// The schema is documented in `docs/observability.md`.
#[derive(Debug)]
pub struct TraceWriter {
    out: BufWriter<File>,
}

impl TraceWriter {
    /// Creates (truncating) the trace file at `path`.
    pub fn create(path: &str) -> io::Result<TraceWriter> {
        Ok(TraceWriter {
            out: BufWriter::new(File::create(path)?),
        })
    }

    /// Writes one record as a compact single-line JSON object.
    pub fn record(&mut self, value: &Value) -> io::Result<()> {
        let line = serde_json::to_string(value);
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")
    }

    /// Flushes buffered records to disk.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    keys! {
        static ALL = [
            LINK_BYTES: Sum Partition "t.link.{src}-{dst}.bytes",
            RTT: Histogram Wall "t.rtt",
        ];
        static KEYS = [
            EVENTS: Sum Run "t.events",
            DEPTH: HighWater Partition "t.depth",
            BYTES: Sum Run "t.bytes",
        ];
        static PHASES = [
            PHASE_A: Phase Wall "t.phase.a",
        ];
    }

    #[test]
    fn a_declaration_numbers_each_table_and_lists_the_union() {
        assert_eq!(
            (EVENTS.slot, DEPTH.slot, BYTES.slot, PHASE_A.slot),
            (0, 1, 2, 0)
        );
        assert_eq!(KEYS, &[EVENTS, DEPTH, BYTES]);
        let names: Vec<&str> = ALL.iter().map(|key| key.name).collect();
        assert_eq!(
            names,
            [
                "t.link.{src}-{dst}.bytes",
                "t.rtt",
                "t.events",
                "t.depth",
                "t.bytes",
                "t.phase.a"
            ]
        );
        assert_eq!(
            (DEPTH.kind, DEPTH.class),
            (Kind::HighWater, Class::Partition)
        );
    }

    #[test]
    fn merge_respects_kinds() {
        let mut a = Counters::new(KEYS, Level::Counters);
        let mut b = Counters::new(KEYS, Level::Counters);
        a.add(EVENTS, 5);
        a.record_max(DEPTH, 10);
        b.add(EVENTS, 7);
        b.record_max(DEPTH, 4);
        b.add(BYTES, 100);
        a.merge_from(&b);
        assert_eq!(a.get(EVENTS), 12);
        assert_eq!(a.get(DEPTH), 10);
        assert_eq!(a.get(BYTES), 100);
    }

    #[test]
    fn a_shipped_slab_merges_like_the_one_it_was_read_from() {
        let mut sent = Counters::new(KEYS, Level::Counters);
        sent.add(EVENTS, 7);
        sent.record_max(DEPTH, 4);
        let values: Vec<u64> = KEYS.iter().map(|&key| sent.get(key)).collect();
        let received = Counters::from_slots(KEYS, values).expect("one value per key");
        let mut a = Counters::new(KEYS, Level::Counters);
        a.add(EVENTS, 5);
        a.record_max(DEPTH, 10);
        a.merge_from(&received);
        assert_eq!((a.get(EVENTS), a.get(DEPTH), a.get(BYTES)), (12, 10, 0));
        assert!(Counters::from_slots(KEYS, vec![1, 2]).is_none());
        assert!(Counters::from_slots(KEYS, vec![1, 2, 3, 4]).is_none());
    }

    #[test]
    fn off_level_records_nothing() {
        let mut c = Counters::new(KEYS, Level::Off);
        c.add(EVENTS, 5);
        c.record_max(DEPTH, 9);
        assert_eq!(c.get(EVENTS), 0);
        let mut snap = Snapshot::new();
        c.snapshot_into(&mut snap);
        assert!(snap.is_empty());
    }

    #[test]
    fn phases_record_only_at_full() {
        let mut p = Phases::new(PHASES, Level::Counters);
        let t = p.begin();
        p.end(PHASE_A, t);
        let mut snap = Snapshot::new();
        p.snapshot_into(&mut snap);
        assert!(snap.phases.is_empty());

        let mut p = Phases::new(PHASES, Level::Full);
        let t = p.begin();
        p.end(PHASE_A, t);
        let mut snap = Snapshot::new();
        p.snapshot_into(&mut snap);
        assert_eq!(snap.phase("t.phase.a").unwrap().count, 1);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new(Level::Counters);
        h.record_ns(0);
        h.record_ns(1);
        h.record_ns(1024);
        h.record_ns(u64::MAX);
        let mut snap = Snapshot::new();
        h.snapshot_into(RTT, &mut snap);
        let stat = snap.hists[0].1;
        assert_eq!(stat.count, 4);
        assert_eq!(stat.max_ns, u64::MAX);
    }

    #[test]
    fn a_templated_key_takes_one_index_per_placeholder() {
        let mut snap = Snapshot::new();
        snap.push_counter(LINK_BYTES, &[0, 3], 9);
        assert_eq!(snap.counter("t.link.0-3.bytes"), Some(9));
        let short = std::panic::catch_unwind(|| Snapshot::new().push_counter(LINK_BYTES, &[0], 9));
        assert!(short.is_err());
        let long = std::panic::catch_unwind(|| Snapshot::new().push_counter(EVENTS, &[0], 9));
        assert!(long.is_err());
        let phase = std::panic::catch_unwind(|| Snapshot::new().push_counter(PHASE_A, &[], 9));
        assert!(phase.is_err());
    }

    #[test]
    fn snapshot_json_shape() {
        let mut snap = Snapshot::new();
        snap.push_counter(EVENTS, &[], 3);
        snap.push_phase(PHASE_A, PhaseStat { ns: 10, count: 2 });
        let json = snap.to_json();
        let text = serde_json::to_string(&json);
        assert!(text.contains("\"t.events\""));
        assert!(text.contains("\"phases\""));
        let reparsed = serde_json::from_str(&text).unwrap();
        assert_eq!(serde_json::to_string(&reparsed), text);
    }

    #[test]
    fn metric_key_scheme() {
        for good in [
            "alpha",
            "distance_to_tlb",
            "event.3.leaf_join.round",
            "scheme.dns-rr.max_load",
            "demo.events.popped",
        ] {
            assert!(valid_metric_key(good), "{good} should be valid");
        }
        for bad in ["", ".", "a..b", "a.", "A.b", "served/requests", "a b"] {
            assert!(!valid_metric_key(bad), "{bad} should be invalid");
        }
    }

    #[test]
    fn level_parse_round_trip() {
        for level in [Level::Off, Level::Counters, Level::Full] {
            assert_eq!(Level::parse(level.as_str()), Some(level));
        }
        assert_eq!(Level::parse("verbose"), None);
    }
}
