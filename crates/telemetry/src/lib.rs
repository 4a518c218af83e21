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
//!    a bool captured at construction ([`Level::Off`] clears it), and the
//!    whole recording path compiles out when the crate is built without
//!    its default `runtime` feature.
//!
//! ```
//! use ww_telemetry::{Counters, Key, Level};
//!
//! static KEYS: &[Key] = &[Key::sum("demo.events"), Key::high_water("demo.depth")];
//! const EVENTS: usize = 0;
//! const DEPTH: usize = 1;
//!
//! let mut a = Counters::new(KEYS, Level::Counters);
//! let mut b = Counters::new(KEYS, Level::Counters);
//! a.add(EVENTS, 3);
//! b.add(EVENTS, 4);
//! b.record_max(DEPTH, 17);
//! a.merge_from(&b); // barrier merge: sums sum-keys, maxes high-water keys
//! let snap = a.snapshot();
//! assert_eq!(snap.counter("demo.events"), Some(7));
//! assert_eq!(snap.counter("demo.depth"), Some(17));
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
        runtime_enabled() && self != Level::Off
    }

    /// True when phase timers record at this level.
    #[inline]
    pub fn spans_on(self) -> bool {
        runtime_enabled() && self == Level::Full
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

/// True when the crate was built with its `runtime` feature (the
/// default). Without it the recording paths compile to nothing.
#[inline]
pub const fn runtime_enabled() -> bool {
    cfg!(feature = "runtime")
}

/// How a counter slot merges at barriers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Merged by addition (event counts, bytes, parks).
    Sum,
    /// Merged by maximum (occupancy high-waters, queue-depth peaks).
    HighWater,
}

/// One entry in a static counter key table: a dotted-path name (see
/// `docs/observability.md` for the naming scheme) plus its merge kind.
#[derive(Debug, Clone, Copy)]
pub struct Key {
    /// Dotted-path metric name, e.g. `"pdes.events.popped"`.
    pub name: &'static str,
    /// Merge behavior at barriers.
    pub kind: Kind,
}

impl Key {
    /// A sum-merged counter key.
    pub const fn sum(name: &'static str) -> Key {
        Key {
            name,
            kind: Kind::Sum,
        }
    }

    /// A max-merged high-water key.
    pub const fn high_water(name: &'static str) -> Key {
        Key {
            name,
            kind: Kind::HighWater,
        }
    }
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
        let on = level.counters_on();
        Counters {
            keys,
            slots: if on { vec![0; keys.len()] } else { Vec::new() },
            on,
        }
    }

    /// A disabled slab (identical to `new(keys, Level::Off)`).
    pub fn off(keys: &'static [Key]) -> Counters {
        Counters::new(keys, Level::Off)
    }

    /// A recording slab holding `slots`, one value per key in table
    /// order — a slab recorded elsewhere (another process) and shipped
    /// as its values, ready to [`merge_from`](Counters::merge_from).
    /// `None` when `slots` is not one value per key.
    pub fn from_slots(keys: &'static [Key], slots: Vec<u64>) -> Option<Counters> {
        (slots.len() == keys.len()).then(|| Counters {
            keys,
            slots,
            on: runtime_enabled(),
        })
    }

    /// True when this slab records.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Adds `n` to slot `id` (a sum key's index in the key table).
    #[inline]
    pub fn add(&mut self, id: usize, n: u64) {
        if self.on {
            self.slots[id] += n;
        }
    }

    /// Raises high-water slot `id` to `v` if `v` is larger.
    #[inline]
    pub fn record_max(&mut self, id: usize, v: u64) {
        if self.on && v > self.slots[id] {
            self.slots[id] = v;
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
                Kind::Sum => self.slots[id] += other.slots[id],
                Kind::HighWater => self.slots[id] = self.slots[id].max(other.slots[id]),
            }
        }
    }

    /// The current value of slot `id` (0 when disabled).
    pub fn get(&self, id: usize) -> u64 {
        if self.on {
            self.slots[id]
        } else {
            0
        }
    }

    /// Exports every slot, in key-table order, into a fresh snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        self.snapshot_into(&mut snap);
        snap
    }

    /// Appends every slot, in key-table order, to `snap`.
    pub fn snapshot_into(&self, snap: &mut Snapshot) {
        if !self.on {
            return;
        }
        for (id, key) in self.keys.iter().enumerate() {
            snap.push_counter(key.name, self.slots[id]);
        }
    }
}

/// A span-style phase timer set over a static phase-name table. Active
/// only at [`Level::Full`]; the clock is observation-only — elapsed
/// times are accumulated for reporting and never read back.
#[derive(Debug, Clone)]
pub struct Phases {
    names: &'static [&'static str],
    ns: Vec<u64>,
    count: Vec<u64>,
    on: bool,
}

/// An opaque start token from [`Phases::begin`]; give it back to
/// [`Phases::end`]. Carries no time when spans are off.
#[derive(Debug, Clone, Copy)]
pub struct SpanStart(Option<Instant>);

impl Phases {
    /// A timer set for `names`, recording iff `level` enables spans.
    pub fn new(names: &'static [&'static str], level: Level) -> Phases {
        let on = level.spans_on();
        Phases {
            names,
            ns: if on { vec![0; names.len()] } else { Vec::new() },
            count: if on { vec![0; names.len()] } else { Vec::new() },
            on,
        }
    }

    /// True when this timer set records.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts a span (reads the monotonic clock only when recording).
    #[inline]
    pub fn begin(&self) -> SpanStart {
        SpanStart(if self.on { Some(Instant::now()) } else { None })
    }

    /// Ends a span started with [`Phases::begin`], crediting phase `id`.
    #[inline]
    pub fn end(&mut self, id: usize, start: SpanStart) {
        if let Some(t0) = start.0 {
            self.ns[id] += t0.elapsed().as_nanos() as u64;
            self.count[id] += 1;
        }
    }

    /// Barrier merge: sums elapsed time and span counts per phase.
    pub fn merge_from(&mut self, other: &Phases) {
        if !(self.on && other.on) {
            return;
        }
        assert_eq!(
            self.names.as_ptr(),
            other.names.as_ptr(),
            "merging phase sets with different name tables"
        );
        for id in 0..self.names.len() {
            self.ns[id] += other.ns[id];
            self.count[id] += other.count[id];
        }
    }

    /// Appends every phase, in name-table order, to `snap`.
    pub fn snapshot_into(&self, snap: &mut Snapshot) {
        if !self.on {
            return;
        }
        for (id, name) in self.names.iter().enumerate() {
            snap.push_phase(
                name,
                PhaseStat {
                    ns: self.ns[id],
                    count: self.count[id],
                },
            );
        }
    }
}

/// A latency histogram with power-of-two nanosecond buckets: bucket `i`
/// holds samples in `[2^i, 2^(i+1))` ns (bucket 0 holds 0–1 ns). Cheap
/// enough for per-epoch round-trip timing at [`Level::Counters`].
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; 48],
    count: u64,
    sum_ns: u64,
    max_ns: u64,
    on: bool,
}

impl Histogram {
    /// A histogram recording iff `level` enables counters.
    pub fn new(level: Level) -> Histogram {
        Histogram {
            buckets: [0; 48],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
            on: level.counters_on(),
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
        let bucket = (64 - ns.leading_zeros() as usize).min(47);
        self.buckets[bucket] += 1;
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

    /// Appends this histogram's summary to `snap` under `name`.
    pub fn snapshot_into(&self, name: &str, snap: &mut Snapshot) {
        if !self.on {
            return;
        }
        snap.push_hist(
            name,
            HistStat {
                count: self.count,
                sum_ns: self.sum_ns,
                max_ns: self.max_ns,
            },
        );
    }
}

/// Accumulated time in one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

    /// Appends a counter entry (dynamic keys — per-link, per-worker —
    /// enter here at snapshot time, never on the hot path).
    pub fn push_counter(&mut self, name: &str, value: u64) {
        self.counters.push((name.to_string(), value));
    }

    /// Appends a phase entry.
    pub fn push_phase(&mut self, name: &str, stat: PhaseStat) {
        self.phases.push((name.to_string(), stat));
    }

    /// Appends a histogram entry.
    pub fn push_hist(&mut self, name: &str, stat: HistStat) {
        self.hists.push((name.to_string(), stat));
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

    static KEYS: &[Key] = &[
        Key::sum("t.events"),
        Key::high_water("t.depth"),
        Key::sum("t.bytes"),
    ];

    #[test]
    fn merge_respects_kinds() {
        let mut a = Counters::new(KEYS, Level::Counters);
        let mut b = Counters::new(KEYS, Level::Counters);
        a.add(0, 5);
        a.record_max(1, 10);
        b.add(0, 7);
        b.record_max(1, 4);
        b.add(2, 100);
        a.merge_from(&b);
        if runtime_enabled() {
            assert_eq!(a.get(0), 12);
            assert_eq!(a.get(1), 10);
            assert_eq!(a.get(2), 100);
        } else {
            assert_eq!(a.get(0), 0);
        }
    }

    #[test]
    fn a_shipped_slab_merges_like_the_one_it_was_read_from() {
        let mut sent = Counters::new(KEYS, Level::Counters);
        sent.add(0, 7);
        sent.record_max(1, 4);
        let values: Vec<u64> = (0..KEYS.len()).map(|id| sent.get(id)).collect();
        let received = Counters::from_slots(KEYS, values).expect("one value per key");
        let mut a = Counters::new(KEYS, Level::Counters);
        a.add(0, 5);
        a.record_max(1, 10);
        a.merge_from(&received);
        if runtime_enabled() {
            assert_eq!((a.get(0), a.get(1), a.get(2)), (12, 10, 0));
        }
        assert!(Counters::from_slots(KEYS, vec![1, 2]).is_none());
        assert!(Counters::from_slots(KEYS, vec![1, 2, 3, 4]).is_none());
    }

    #[test]
    fn off_level_records_nothing() {
        let mut c = Counters::new(KEYS, Level::Off);
        c.add(0, 5);
        c.record_max(1, 9);
        assert_eq!(c.get(0), 0);
        assert!(c.snapshot().is_empty());
    }

    #[test]
    fn phases_record_only_at_full() {
        let mut p = Phases::new(&["t.phase.a"], Level::Counters);
        let t = p.begin();
        p.end(0, t);
        let mut snap = Snapshot::new();
        p.snapshot_into(&mut snap);
        assert!(snap.phases.is_empty());

        let mut p = Phases::new(&["t.phase.a"], Level::Full);
        let t = p.begin();
        p.end(0, t);
        let mut snap = Snapshot::new();
        p.snapshot_into(&mut snap);
        if runtime_enabled() {
            assert_eq!(snap.phase("t.phase.a").unwrap().count, 1);
        }
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new(Level::Counters);
        h.record_ns(0);
        h.record_ns(1);
        h.record_ns(1024);
        h.record_ns(u64::MAX);
        let mut snap = Snapshot::new();
        h.snapshot_into("t.rtt", &mut snap);
        if runtime_enabled() {
            let stat = snap.hists[0].1;
            assert_eq!(stat.count, 4);
            assert_eq!(stat.max_ns, u64::MAX);
        }
    }

    #[test]
    fn snapshot_json_shape() {
        let mut snap = Snapshot::new();
        snap.push_counter("a.b", 3);
        snap.push_phase("p.q", PhaseStat { ns: 10, count: 2 });
        let json = snap.to_json();
        let text = serde_json::to_string(&json);
        assert!(text.contains("\"a.b\""));
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
            "pdes.events.popped",
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
