//! JSON (de)serialization of [`ScenarioSpec`].
//!
//! The grammar is stated **once**, in one `spec_layout!` declaration per
//! spec type: a struct's keys in order, each with its type, its default
//! and its check; a `kind`-tagged enum's tag → variant → fields; a
//! string-valued enum's tag → variant. Parsing, printing, the unknown-key
//! lists and the dotted error paths (`engine.alpha: expected a number`)
//! all walk that declaration through the private `Field` and `Object`
//! traits, so the reader and the writer cannot drift apart. The reader is
//! strict: an unknown key is an error listing the keys the object takes.
//! The writer emits every key, defaults included, so `parse(print(spec))
//! == spec` exactly. `tests/shipped_specs.rs` pins the printed bytes and
//! `tests/roundtrip.rs` the exact refusals.
//!
//! The mapping is written against the vendored `serde_json::Value`.

use crate::error::SpecError;
use crate::events::{Event, EventKindSpec, EventSpec, EventsSpec, DEFAULT_RECOVERY_THRESHOLD};
use crate::spec::{
    BaselineScheme, DocMixSpec, EngineSpec, PacketKnobs, PaperFigure, RatesSpec, ScenarioSpec,
    Sweep, SweepParam, TelemetrySpec, Termination, TopologySpec, WorkloadSpec, DEFAULT_SEED,
};
use serde_json::{Map, Value};
use std::fmt;
use ww_pdes::RebalanceConfig;
use ww_telemetry::Level;

impl ScenarioSpec {
    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] whose `path` names the offending field for
    /// any syntax error, missing/unknown field, or out-of-range value.
    pub fn from_json(text: &str) -> Result<ScenarioSpec, SpecError> {
        let value = serde_json::from_str(text)?;
        Self::from_value(&value)
    }

    /// Parses a spec from an already-parsed JSON value.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] with a dotted field path, as
    /// [`ScenarioSpec::from_json`].
    pub fn from_value(value: &Value) -> Result<ScenarioSpec, SpecError> {
        Self::read(value, &Path::Root, Self::WHAT)
    }

    /// Renders the spec as pretty-printed JSON. Every field is emitted
    /// explicitly (including defaults), so rendering then parsing yields
    /// an identical spec.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value())
    }

    /// Renders the spec as a JSON value tree.
    pub fn to_value(&self) -> Value {
        self.write()
    }
}

// ---------------------------------------------------------------------
// The declarations: the one statement of the spec grammar.

spec_layout!(struct ScenarioSpec where rebalance_on_a_sharded_engine {
    name: String,
    topology: TopologySpec,
    workload: WorkloadSpec,
    engine: EngineSpec,
    termination: Termination,
    seed: u64 = DEFAULT_SEED,
    #[omit_none] sweep: Option<Sweep>,
    #[omit_none] events: Option<EventsSpec>,
    #[null_is_default] telemetry: TelemetrySpec = TelemetrySpec::default(),
    #[omit_none] rebalance: Option<RebalanceConfig>,
});
spec_layout!(enum TopologySpec "topology" {
    "paper" => Paper { figure: PaperFigure },
    "path" => Path { nodes: usize },
    "star" => Star { nodes: usize },
    "k_ary" => KAry { arity: usize, depth: usize },
    "two_level" => TwoLevel { regions: usize, leaves: usize },
    "caterpillar" => Caterpillar { spine: usize, legs: usize },
    "broom" => Broom { handle: usize, bristles: usize },
    "random_depth" => RandomDepth { nodes: usize, depth: usize },
    "explicit" => Explicit {
        parents: Vec<Option<usize>> as "an array of parent ids (null for the root)",
    },
});
spec_layout!(tags PaperFigure "figure" {
    "fig2a" => Fig2a,
    "fig2b" => Fig2b,
    "fig4" => Fig4,
    "fig6" => Fig6,
    "fig7" => Fig7,
});
// rustfmt would take this declaration (and `EventSpec`'s) for Rust and
// put each attribute on a line of its own.
#[rustfmt::skip]
spec_layout!(struct WorkloadSpec {
    rates: RatesSpec,
    #[omit_none] doc_mix: Option<DocMixSpec>,
});
spec_layout!(enum RatesSpec "rates" {
    "paper" => Paper,
    "uniform" => Uniform { rate: f64 },
    "leaf_only" => LeafOnly { rate: f64 },
    "random_uniform" => RandomUniform { lo: f64, hi: f64 },
    "zipf_nodes" => ZipfNodes { total: f64, theta: f64 },
    "explicit" => Explicit { rates: Vec<f64> as "an array of numbers" },
});
spec_layout!(enum DocMixSpec "doc mix" {
    "paper" => Paper,
    "shared_zipf" => SharedZipf { docs: usize, theta: f64 },
});
spec_layout!(enum EngineSpec "engine" where sharded_engine_knobs {
    "rate_wave" => RateWave { alpha: Option<f64> where unit_alpha, staleness: usize = 0 },
    "doc_sim" => DocSim {
        alpha: Option<f64> where unit_alpha,
        tunneling: bool = true,
        barrier_patience: usize = 2,
    },
    "packet_sim" => PacketSim { #[flatten] knobs: PacketKnobs },
    "packet_sim_par" => PacketSimPar { #[flatten] knobs: PacketKnobs, workers: usize = 4 },
    "packet_sim_dist" => PacketSimDist { #[flatten] knobs: PacketKnobs, workers: usize = 2 },
    "forest_wave" => ForestWave {
        alpha: Option<f64> where unit_alpha,
        coupled: bool = true,
        roots: Vec<usize> as "an array of node ids",
    },
    "baselines" => Baselines {
        schemes: Vec<BaselineScheme> as "an array of scheme names" = BaselineScheme::all(),
        replicas: usize = 0,
        lookup_msgs: f64 = 2.0,
        gle_iterations: usize = 2000,
        webwave_rounds: usize = 4000,
        gossip_per_second: f64 = 2.0,
    },
});
spec_layout!(struct PacketKnobs {
    alpha: Option<f64> where unit_alpha,
    tunneling: bool = true,
    barrier_patience: usize = 2,
    link_delay: f64 = 0.005,
    gossip_period: f64 = 0.5,
    diffusion_period: f64 = 1.0,
    measure_window: f64 = 1.0,
    gossip_loss: f64 = 0.0,
    hysteresis: f64 = 0.05,
    noise_sigmas: f64 = 3.0,
});
spec_layout!(tags BaselineScheme "scheme" {
    .."all" => BaselineScheme::all(),
    "no-cache" => NoCache,
    "directory" => Directory,
    "dns-rr" => DnsRoundRobin,
    "gle-migration" => GleMigration,
    "webwave" => WebWave,
    "webfold-oracle" => WebFoldOracle,
});
spec_layout!(enum Termination "termination" {
    "rounds" => Rounds { max: usize },
    "converged" => Converged { threshold: f64, max_rounds: usize = 100_000 },
    "wall_clock" => WallClock { seconds: f64, max_rounds: usize = usize::MAX },
});
spec_layout!(struct Sweep {
    param: SweepParam,
    values: Vec<f64> as "an array of numbers" where some_values,
});
spec_layout!(tags SweepParam "sweep parameter" {
    "staleness" => Staleness,
    "alpha" => Alpha,
    "tunneling" => Tunneling,
    "gossip_loss" => GossipLoss,
    "workers" => Workers,
    "doc_theta" => DocTheta,
    "seed" => Seed,
});
spec_layout!(struct TelemetrySpec {
    #[null_is_default] level: Level = Level::Off,
    trace_out: Option<String> as "a file path string",
});
spec_layout!(struct RebalanceConfig {
    trigger_imbalance: f64 where imbalance_ratio,
    min_epoch_gap: u64 where some_epochs = 1,
});
spec_layout!(struct EventsSpec where sorted_by_round {
    schedule: Vec<EventSpec> as "an array of events",
    recovery_threshold: f64 where non_negative = DEFAULT_RECOVERY_THRESHOLD,
    batched_barriers: bool = false,
});
#[rustfmt::skip]
spec_layout!(struct EventSpec {
    round: usize,
    #[flatten] kind: EventKindSpec,
});
spec_layout!(enum EventKindSpec "event" also Event where shift_changes_something {
    "node_join" => NodeJoin { parent: usize, rate: f64 where event_rate },
    "node_leave" => NodeLeave { node: usize },
    "link_fail" => LinkFail { node: usize },
    "link_heal" => LinkHeal { node: usize },
    "doc_publish" => DocPublish { doc: u64, origin: usize, rate: f64 where event_rate },
    "doc_update" => DocUpdate { doc: u64 },
    "workload_shift" => WorkloadShift {
        #[omit_none] rates: Option<RatesSpec>,
        #[omit_none] doc_mix: Option<DocMixSpec>,
        #[omit_none] seed: Option<u64>,
    },
});

/// Every knob at its declared default.
impl Default for PacketKnobs {
    fn default() -> Self {
        Self::read_in(&Map::new(), &Path::Root).expect("every knob has a default")
    }
}

impl PacketKnobs {
    /// The refusal of the knob [`PacketSimConfig::check`] names
    /// (`"gossip period"`; `"diffusion alpha"` is `alpha`), at its
    /// `engine.<key>` path and with its value.
    ///
    /// [`PacketSimConfig::check`]: ww_core::packet::PacketSimConfig::check
    pub(crate) fn refusal(&self, what: &str) -> SpecError {
        let mut map = Map::new();
        self.write_in(&mut map);
        let knob = map
            .iter()
            .find(|(key, _)| what.ends_with(&key.replace('_', " ")));
        match knob {
            Some((key, value)) => SpecError::at(
                format!("engine.{key}"),
                format!("{what} out of range, got {}", serde_json::to_string(value)),
            ),
            None => SpecError::at("engine", format!("{what} out of range")),
        }
    }
}

// ---------------------------------------------------------------------
// The checks a declaration names. `key: T where check` runs
// `check(&value)` once the key is read, and a refusal is an error at the
// key's path. `struct T where rule` runs `rule(&value, path)` once the
// whole value is read: the four cross-field rules, which name their own
// paths.

/// `alpha`, when given, lies in `(0, 1)`.
pub(crate) fn unit_alpha(alpha: &Option<f64>) -> Result<(), String> {
    match *alpha {
        Some(x) if x <= 0.0 || x >= 1.0 => Err(format!("alpha must lie in (0, 1), got {x}")),
        _ => Ok(()),
    }
}

fn event_rate(rate: &f64) -> Result<(), String> {
    if rate.is_finite() && *rate >= 0.0 {
        Ok(())
    } else {
        Err(format!("rate must be finite and non-negative, got {rate}"))
    }
}

fn non_negative(x: &f64) -> Result<(), String> {
    if *x < 0.0 {
        return Err(format!("must be non-negative, got {x}"));
    }
    Ok(())
}

fn imbalance_ratio(x: &f64) -> Result<(), String> {
    if !x.is_finite() || *x < 1.0 {
        return Err(format!(
            "expected a finite max-over-mean ratio of at least 1, got {x}"
        ));
    }
    Ok(())
}

fn some_epochs(gap: &u64) -> Result<(), String> {
    if *gap == 0 {
        return Err("the observation window must span at least 1 epoch".into());
    }
    Ok(())
}

fn some_values(values: &[f64]) -> Result<(), String> {
    if values.is_empty() {
        return Err("sweep needs at least one value".into());
    }
    Ok(())
}

fn sorted_by_round(events: &EventsSpec, path: &Path) -> Result<(), SpecError> {
    for (i, pair) in events.schedule.windows(2).enumerate() {
        let (prev, round) = (pair[0].round, pair[1].round);
        if round < prev {
            return Err(SpecError::at(
                format!("{}[{}].round", Path::Key(path, "schedule"), i + 1),
                format!("schedule must be sorted by round ({round} follows {prev})"),
            ));
        }
    }
    Ok(())
}

fn shift_changes_something(kind: &EventKindSpec, path: &Path) -> Result<(), SpecError> {
    if let EventKindSpec::WorkloadShift {
        rates: None,
        doc_mix: None,
        ..
    } = kind
    {
        return Err(SpecError::at(
            path,
            "workload_shift needs rates, doc_mix, or both",
        ));
    }
    Ok(())
}

fn sharded_engine_knobs(engine: &EngineSpec, _path: &Path) -> Result<(), SpecError> {
    match engine {
        EngineSpec::PacketSimPar { knobs, workers } => knobs.check_sharded("parallel", *workers),
        EngineSpec::PacketSimDist { knobs, workers } => {
            knobs.check_sharded("distributed", *workers)
        }
        _ => Ok(()),
    }
}

/// Only the sharded engines have shards to re-balance. `packet_sim_dist`
/// parses fine and is refused at launch with a typed
/// `DistError::Unsupported` instead, so the refusal names the actual
/// limitation.
fn rebalance_on_a_sharded_engine(spec: &ScenarioSpec, _path: &Path) -> Result<(), SpecError> {
    let sharded = matches!(
        spec.engine,
        EngineSpec::PacketSimPar { .. } | EngineSpec::PacketSimDist { .. }
    );
    if spec.rebalance.is_some() && !sharded {
        return Err(SpecError::at(
            "rebalance",
            format!(
                "adaptive rebalancing applies only to the packet_sim_par / \
                 packet_sim_dist engines, not {}",
                spec.engine.kind()
            ),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The walk: how each kind of value reads and prints.

/// A type whose variants have spec spellings (tags), stated in its
/// `spec_layout!` declaration.
pub(crate) trait Tagged {
    /// The spec spelling of this variant.
    fn tag(&self) -> &'static str;
}

/// One spec value: how it reads from JSON (strictly, naming the dotted
/// path of whatever is wrong) and how it prints.
trait Field: Sized {
    /// What a value of the wrong JSON type should have been ("a
    /// number"); a key's declaration may say it more precisely.
    const WHAT: &'static str;

    /// The value of a key left out: `None` when the key is required.
    fn absent() -> Option<Self> {
        None
    }

    fn read(v: &Value, path: &Path, what: &str) -> Result<Self, SpecError>;

    fn write(&self) -> Value;

    /// Reads one item of a list into `out`; an alias may stand for
    /// several.
    fn read_item(v: &Value, path: &Path, out: &mut Vec<Self>) -> Result<(), SpecError> {
        out.push(Self::read(v, path, Self::WHAT)?);
        Ok(())
    }
}

/// A type whose keys live in a JSON object: a struct's keys, or a tagged
/// enum's `kind` and its variant's keys. Nested, it is an object of its
/// own; `#[flatten]`ed, its keys join the enclosing object's.
trait Object: Sized {
    /// The keys `map` may hold for this type (an enum reads its tag to
    /// tell).
    fn keys(map: &Map, path: &Path, out: &mut Vec<&'static str>) -> Result<(), SpecError>;

    /// Reads this type's keys out of `map`; unknown keys were refused
    /// already.
    fn read_in(map: &Map, path: &Path) -> Result<Self, SpecError>;

    fn write_in(&self, map: &mut Map);
}

impl<T: Object> Field for T {
    const WHAT: &'static str = "an object";

    fn read(v: &Value, path: &Path, what: &str) -> Result<Self, SpecError> {
        let map = v.as_object().ok_or_else(|| wrong_type(path, what, v))?;
        let mut keys = Vec::new();
        T::keys(map, path, &mut keys)?;
        if let Some(key) = map.keys().find(|key| !keys.contains(key)) {
            return Err(SpecError::at(
                &Path::Key(path, key),
                format!("unknown field (expected one of: {})", keys.join(", ")),
            ));
        }
        T::read_in(map, path)
    }

    fn write(&self) -> Value {
        let mut map = Map::new();
        self.write_in(&mut map);
        Value::Object(map)
    }
}

impl Field for f64 {
    const WHAT: &'static str = "a number";

    fn read(v: &Value, path: &Path, what: &str) -> Result<Self, SpecError> {
        v.as_f64().ok_or_else(|| wrong_type(path, what, v))
    }

    fn write(&self) -> Value {
        Value::Number(*self)
    }
}

/// Counts and node ids. A JSON number above `u64::MAX` is refused and one
/// at it saturates, so `usize::MAX` (printed as 2^64) reads back equal.
impl Field for usize {
    const WHAT: &'static str = "a number";

    fn read(v: &Value, path: &Path, what: &str) -> Result<Self, SpecError> {
        Ok(whole(v, path, what)? as usize)
    }

    fn write(&self) -> Value {
        Value::Number(*self as f64)
    }
}

/// Seeds and document ids: JSON numbers are `f64`, so only integers up to
/// 2^53 survive a round trip exactly, and one that silently changes is
/// worse than an error.
impl Field for u64 {
    const WHAT: &'static str = "a number";

    fn read(v: &Value, path: &Path, what: &str) -> Result<Self, SpecError> {
        let x = whole(v, path, what)?;
        if x > 1 << 53 {
            return Err(SpecError::at(
                path,
                format!("{x} exceeds 2^53 and cannot round-trip through JSON"),
            ));
        }
        Ok(x)
    }

    fn write(&self) -> Value {
        Value::Number(*self as f64)
    }
}

impl Field for bool {
    const WHAT: &'static str = "a boolean";

    fn read(v: &Value, path: &Path, what: &str) -> Result<Self, SpecError> {
        v.as_bool().ok_or_else(|| wrong_type(path, what, v))
    }

    fn write(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Field for String {
    const WHAT: &'static str = "a string";

    fn read(v: &Value, path: &Path, what: &str) -> Result<Self, SpecError> {
        str_of(v, path, what).map(str::to_string)
    }

    fn write(&self) -> Value {
        Value::from(self.as_str())
    }
}

/// Absent and `null` both read as `None`. `None` prints `null`, unless
/// its key is `#[omit_none]`.
impl<T: Field> Field for Option<T> {
    const WHAT: &'static str = T::WHAT;

    fn absent() -> Option<Self> {
        Some(None)
    }

    fn read(v: &Value, path: &Path, what: &str) -> Result<Self, SpecError> {
        if v.is_null() {
            return Ok(None);
        }
        T::read(v, path, what).map(Some)
    }

    fn write(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::write)
    }
}

impl<T: Field> Field for Vec<T> {
    const WHAT: &'static str = "an array";

    fn read(v: &Value, path: &Path, what: &str) -> Result<Self, SpecError> {
        let items = v
            .as_array()
            .ok_or_else(|| SpecError::at(path, format!("expected {what}")))?;
        let mut out = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            T::read_item(item, &Path::Item(path, i), &mut out)?;
        }
        Ok(out)
    }

    fn write(&self) -> Value {
        Value::Array(self.iter().map(T::write).collect())
    }
}

/// A telemetry level, in `ww-telemetry`'s own spellings.
impl Field for Level {
    const WHAT: &'static str = "a string";

    fn read(v: &Value, path: &Path, what: &str) -> Result<Self, SpecError> {
        let name = str_of(v, path, what)?;
        Level::parse(name).ok_or_else(|| {
            let levels = [Level::Off, Level::Counters, Level::Full].map(Level::as_str);
            unknown(path, "level", name, &levels)
        })
    }

    fn write(&self) -> Value {
        Value::from(self.as_str())
    }
}

/// A non-negative integer. `x as u64` saturates at `u64::MAX`.
fn whole(v: &Value, path: &Path, what: &str) -> Result<u64, SpecError> {
    let x = f64::read(v, path, what)?;
    if x < 0.0 || x.fract() != 0.0 || x > u64::MAX as f64 {
        return Err(SpecError::at(
            path,
            format!("expected a non-negative integer, got {x}"),
        ));
    }
    Ok(x as u64)
}

/// The key naming a tagged enum's variant.
const TAG: &str = "kind";

fn tag_of<'a>(map: &'a Map, path: &Path) -> Result<&'a str, SpecError> {
    let path = Path::Key(path, TAG);
    let v = map
        .get(TAG)
        .ok_or_else(|| SpecError::at(&path, "missing required field"))?;
    str_of(v, &path, String::WHAT)
}

fn str_of<'a>(v: &'a Value, path: &Path, what: &str) -> Result<&'a str, SpecError> {
    v.as_str().ok_or_else(|| wrong_type(path, what, v))
}

/// A declared key's value: read where present (a `null` is the default
/// where the key says so); else its default; else the type's own absent
/// value (`None`); else it was required.
fn read_key<T: Field>(
    map: &Map,
    path: &Path,
    key: &str,
    what: &str,
    default: Option<T>,
    null_is_default: bool,
) -> Result<T, SpecError> {
    let path = Path::Key(path, key);
    match map.get(key) {
        Some(v) if !(null_is_default && v.is_null()) => T::read(v, &path, what),
        _ => default
            .or_else(T::absent)
            .ok_or_else(|| SpecError::at(&path, "missing required field")),
    }
}

/// Where a value sits in the document (`events.schedule[2].rate`),
/// rendered only when an error names it.
enum Path<'a> {
    Root,
    Key(&'a Path<'a>, &'a str),
    Item(&'a Path<'a>, usize),
}

impl fmt::Display for Path<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Path::Root => Ok(()),
            Path::Key(Path::Root, key) => f.write_str(key),
            Path::Key(parent, key) => write!(f, "{parent}.{key}"),
            Path::Item(parent, i) => write!(f, "{parent}[{i}]"),
        }
    }
}

impl From<&Path<'_>> for String {
    fn from(path: &Path<'_>) -> String {
        path.to_string()
    }
}

fn wrong_type(path: &Path, what: &str, v: &Value) -> SpecError {
    SpecError::at(path, format!("expected {what}, got {}", v.type_name()))
}

/// `unknown figure "fig9" (expected fig2a, fig2b, fig4, fig6, or fig7)`.
fn unknown(path: &Path, thing: &str, other: &str, tags: &[&str]) -> SpecError {
    let (last, init) = tags.split_last().expect("a tagged type has tags");
    let comma = if init.len() > 1 { "," } else { "" };
    SpecError::at(
        path,
        format!(
            "unknown {thing} \"{other}\" (expected {}{comma} or {last})",
            init.join(", ")
        ),
    )
}

/// The first of its arguments: a declaration's optional part, else the
/// fallback after it.
macro_rules! first {
    ($e:expr $(, $rest:expr)*) => {
        $e
    };
}

/// One declared key's part of a walk over its object: its `keys`, its
/// `read` or its `write`. A `#[flatten]` key hands the walk to its own
/// type's keys.
macro_rules! spec_field {
    (keys $out:ident $map:ident $path:ident [flatten] $f:ident $t:ty) => {
        <$t as Object>::keys($map, $path, $out)?
    };
    (keys $out:ident $map:ident $path:ident [$($a:ident)?] $f:ident $t:ty) => {
        $out.push(stringify!($f))
    };
    (read $map:ident $path:ident [flatten] $f:ident $t:ty, $what:expr, $default:expr) => {
        <$t as Object>::read_in($map, $path)?
    };
    (read $map:ident $path:ident [null_is_default] $f:ident $t:ty, $what:expr, $default:expr) => {
        read_key::<$t>($map, $path, stringify!($f), $what, $default, true)?
    };
    (read $map:ident $path:ident [$($a:ident)?] $f:ident $t:ty, $what:expr, $default:expr) => {
        read_key::<$t>($map, $path, stringify!($f), $what, $default, false)?
    };
    (write $map:ident [flatten] $f:ident) => {
        $f.write_in($map)
    };
    (write $map:ident [omit_none] $f:ident) => {
        if let Some(v) = $f {
            $map.insert(stringify!($f), v.write())
        }
    };
    (write $map:ident [$($a:ident)?] $f:ident) => {
        $map.insert(stringify!($f), $f.write())
    };
}

/// The one place a spec type's JSON grammar is stated.
///
/// - `struct T { key: Type, .. }` lists the keys in order. A key may add
///   `as "a description"` (what a wrong JSON type should have been),
///   `where check` and `= default`. Without a default it is required,
///   unless its type is an `Option`. `#[omit_none]` leaves a `None` out
///   of the print instead of printing `null`; `#[null_is_default]` reads
///   a `null` as the default; `#[flatten]` puts the type's own keys in
///   this object.
/// - `enum T "thing" { "tag" => Variant { key: Type, .. }, .. }` maps each
///   `kind` tag to a variant and its keys; `also U` gives an enum with
///   the same variant names the same tags.
/// - `tags T "thing" { "tag" => Variant, .. }` is an enum spelled as a
///   string; `.."alias" => expr` reads one list item as many.
///
/// `where rule` after a struct's or an enum's name runs once the whole
/// value is read.
macro_rules! spec_layout {
    (struct $ty:ident $(where $rule:path)? {
        $($(#[$a:ident])? $f:ident: $t:ty $(as $what:literal)? $(where $check:path)?
            $(= $default:expr)?),* $(,)?
    }) => {
        impl Object for $ty {
            // `map` and `path` serve only a `#[flatten]`ed enum's tag.
            #[allow(unused_variables)]
            fn keys(map: &Map, path: &Path, out: &mut Vec<&'static str>) -> Result<(), SpecError> {
                $(spec_field!(keys out map path [$($a)?] $f $t);)*
                Ok(())
            }

            fn read_in(map: &Map, path: &Path) -> Result<Self, SpecError> {
                $(
                    let $f = spec_field!(read map path [$($a)?] $f $t,
                        first!($($what,)? <$t as Field>::WHAT), first!($(Some($default),)? None));
                    $($check(&$f).map_err(|e| SpecError::at(&Path::Key(path, stringify!($f)), e))?;)?
                )*
                let value = Self { $($f),* };
                $($rule(&value, path)?;)?
                Ok(value)
            }

            fn write_in(&self, map: &mut Map) {
                let Self { $($f),* } = self;
                $(spec_field!(write map [$($a)?] $f);)*
            }
        }
    };
    (enum $ty:ident $thing:literal $(also $mirror:ident)? $(where $rule:path)? {
        $($tag:literal => $var:ident $({
            $($(#[$a:ident])? $f:ident: $t:ty $(as $what:literal)? $(where $check:path)?
                $(= $default:expr)?),* $(,)?
        })?),* $(,)?
    }) => {
        spec_layout!(@tagged [$ty] $($tag => $var),*);
        spec_layout!(@tagged [$($mirror)?] $($tag => $var),*);

        impl Object for $ty {
            fn keys(map: &Map, path: &Path, out: &mut Vec<&'static str>) -> Result<(), SpecError> {
                out.push(TAG);
                match tag_of(map, path)? {
                    $($tag => { $($(spec_field!(keys out map path [$($a)?] $f $t);)*)? })*
                    other => return Err(unknown(&Path::Key(path, TAG), $thing, other, &[$($tag),*])),
                }
                Ok(())
            }

            fn read_in(map: &Map, path: &Path) -> Result<Self, SpecError> {
                let value = match tag_of(map, path)? {
                    $($tag => {
                        $($(
                            let $f = spec_field!(read map path [$($a)?] $f $t,
                                first!($($what,)? <$t as Field>::WHAT),
                                first!($(Some($default),)? None));
                            $($check(&$f).map_err(|e| SpecError::at(&Path::Key(path, stringify!($f)), e))?;)?
                        )*)?
                        Self::$var $({ $($f),* })?
                    })*
                    other => return Err(unknown(&Path::Key(path, TAG), $thing, other, &[$($tag),*])),
                };
                $($rule(&value, path)?;)?
                Ok(value)
            }

            fn write_in(&self, map: &mut Map) {
                map.insert(TAG, Value::from(self.tag()));
                match self {
                    $(Self::$var $({ $($f),* })? => { $($(spec_field!(write map [$($a)?] $f);)*)? })*
                }
            }
        }
    };
    (tags $ty:ident $thing:literal {
        $(.. $alias:literal => $expand:expr,)?
        $($tag:literal => $var:ident),* $(,)?
    }) => {
        spec_layout!(@tagged [$ty] $($tag => $var),*);

        impl Field for $ty {
            const WHAT: &'static str = "a string";

            fn read(v: &Value, path: &Path, what: &str) -> Result<Self, SpecError> {
                match str_of(v, path, what)? {
                    $($tag => Ok(Self::$var),)*
                    other => Err(unknown(path, $thing, other, &[$($alias,)? $($tag),*])),
                }
            }

            fn write(&self) -> Value {
                Value::from(self.tag())
            }

            $(
                fn read_item(v: &Value, path: &Path, out: &mut Vec<Self>) -> Result<(), SpecError> {
                    if v.as_str() == Some($alias) {
                        out.extend($expand);
                    } else {
                        out.push(Self::read(v, path, Self::WHAT)?);
                    }
                    Ok(())
                }
            )?
        }
    };
    (@tagged [] $($tag:literal => $var:ident),*) => {};
    (@tagged [$ty:ident] $($tag:literal => $var:ident),*) => {
        impl Tagged for $ty {
            fn tag(&self) -> &'static str {
                match self {
                    $(Self::$var { .. } => $tag,)*
                }
            }
        }
    };
}
use {first, spec_field, spec_layout};
