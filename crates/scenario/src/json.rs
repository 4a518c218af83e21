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
    BaselineParams, BaselineScheme, DocMixSpec, EngineSpec, PaperFigure, RatesSpec, ScenarioSpec,
    Sweep, SweepParam, TelemetrySpec, Termination, TopologySpec, WorkloadSpec, DEFAULT_SEED,
};
use serde_json::{Map, Value};
use std::fmt;
use ww_core::docsim::DocSimConfig;
use ww_core::packet::PacketSimConfig;
use ww_core::wave::WaveConfig;
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

impl Sweep {
    /// Produces the spec for one sweep value: the swept key is set in the
    /// spec's JSON form and read back through its declaration, so a value
    /// past a declared check is refused at `sweep.values` with the
    /// check's own message. A parameter whose key the spec does not have
    /// is refused at `sweep.param`.
    pub fn apply(&self, base: &ScenarioSpec, value: f64) -> Result<ScenarioSpec, SpecError> {
        let mut spec = base.clone();
        spec.sweep = None;
        let to = match self.param {
            SweepParam::Tunneling => Value::Bool(value != 0.0),
            _ => Value::Number(value),
        };
        // Every other parameter is spelled as its engine key.
        let set = match self.param {
            SweepParam::Seed => set_key(&mut spec, "seed", to),
            SweepParam::DocTheta => match &mut spec.workload.doc_mix {
                Some(mix) => set_key(mix, "theta", to),
                None => None,
            },
            param => set_key(&mut spec.engine, param.as_str(), to),
        };
        let applies = match self.param {
            SweepParam::Staleness => "applies only to the rate_wave engine",
            SweepParam::Alpha => "does not apply to the baselines engine",
            SweepParam::Tunneling => "applies only to the doc_sim / packet_sim family of engines",
            SweepParam::GossipLoss => "applies only to the packet_sim family of engines",
            SweepParam::Workers => "applies only to the packet_sim_par / packet_sim_dist engines",
            SweepParam::DocTheta => "requires a shared_zipf doc mix",
            SweepParam::Seed => "applies to every spec",
        };
        match set {
            None => Err(SpecError::at(
                "sweep.param",
                format!("\"{}\" {applies}", self.param.as_str()),
            )),
            Some(Err(refusal)) => Err(SpecError::at("sweep.values", refusal.message)),
            Some(Ok(())) => Ok(spec),
        }
    }
}

/// Sets `key` in `object`'s JSON form to `to` and reads the object back
/// through its declaration; `None` when the form has no such key.
fn set_key<T: Object>(object: &mut T, key: &str, to: Value) -> Option<Result<(), SpecError>> {
    let mut map = Map::new();
    object.write_in(&mut map);
    if !map.contains_key(key) {
        return None;
    }
    map.insert(key, to);
    Some(T::read_in(&map, &Path::Root).map(|read| *object = read))
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
spec_layout!(enum TopologySpec "topology" where depth_fits {
    "paper" => Paper { figure: PaperFigure },
    "path" => Path { nodes: usize where at_least_one },
    "star" => Star { nodes: usize where at_least_one },
    "k_ary" => KAry { arity: usize where at_least_one, depth: usize },
    "two_level" => TwoLevel { regions: usize where at_least_one, leaves: usize where at_least_one },
    "caterpillar" => Caterpillar { spine: usize where at_least_one, legs: usize },
    "broom" => Broom { handle: usize where at_least_one, bristles: usize },
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
// rustfmt would take this declaration (and `BaselineParams`' and
// `EventSpec`'s) for Rust and reshape it.
#[rustfmt::skip]
spec_layout!(struct WorkloadSpec {
    rates: RatesSpec,
    #[omit_none] doc_mix: Option<DocMixSpec>,
});
spec_layout!(enum RatesSpec "rates" where ordered_finite_bounds {
    "paper" => Paper,
    "uniform" => Uniform { rate: f64 },
    "leaf_only" => LeafOnly { rate: f64 },
    "random_uniform" => RandomUniform { lo: f64, hi: f64 },
    "zipf_nodes" => ZipfNodes { total: f64, theta: f64 where zipf_theta },
    "explicit" => Explicit { rates: Vec<f64> as "an array of numbers" },
});
spec_layout!(enum DocMixSpec "doc mix" {
    "paper" => Paper,
    "shared_zipf" => SharedZipf { docs: usize where at_least_one, theta: f64 where zipf_theta },
});
spec_layout!(enum EngineSpec "engine" where sharded_lookahead {
    "rate_wave" => RateWave { #[flatten] config: WaveConfig },
    "doc_sim" => DocSim { #[flatten] config: DocSimConfig },
    "packet_sim" => PacketSim { #[flatten] config: PacketSimConfig },
    "packet_sim_par" => PacketSimPar {
        #[flatten] config: PacketSimConfig,
        workers: usize where at_least_one = 4,
    },
    "packet_sim_dist" => PacketSimDist {
        #[flatten] config: PacketSimConfig,
        workers: usize where at_least_one = 2,
    },
    "forest_wave" => ForestWave {
        alpha: Option<f64> where unit_alpha,
        coupled: bool = true,
        roots: Vec<usize> as "an array of node ids" where some_roots,
    },
    "baselines" => Baselines {
        schemes: Vec<BaselineScheme> as "an array of scheme names" where some_schemes
            = BaselineScheme::all(),
        #[flatten] params: BaselineParams,
    },
});
// The engines' own configs: every key defaults to the engine's
// `Default`, so a knob's default is stated once, in `ww-core`.
spec_layout!(struct WaveConfig: Default {
    alpha: Option<f64> where unit_alpha,
    staleness: usize,
});
spec_layout!(struct DocSimConfig: Default {
    alpha: Option<f64> where unit_alpha,
    tunneling: bool,
    barrier_patience: usize,
});
spec_layout!(struct PacketSimConfig: Default where packet_ranges {
    #[skip] seed: u64,
    alpha: Option<f64> where unit_alpha,
    tunneling: bool,
    barrier_patience: usize,
    link_delay: f64,
    gossip_period: f64,
    diffusion_period: f64,
    measure_window: f64,
    gossip_loss: f64,
    hysteresis: f64,
    noise_sigmas: f64,
});
#[rustfmt::skip]
spec_layout!(struct BaselineParams {
    replicas: usize = 0,
    lookup_msgs: f64 = 2.0,
    gle_iterations: usize = 2000,
    webwave_rounds: usize = 4000,
    gossip_per_second: f64 = 2.0,
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

/// Every parameter at its declared default.
impl Default for BaselineParams {
    fn default() -> Self {
        Self::read_in(&Map::new(), &Path::Root).expect("every parameter has a default")
    }
}

// ---------------------------------------------------------------------
// The checks a declaration names: every check of a spec value that needs
// no built tree. `key: T where check` runs `check(&value)` once the key
// is read, and a refusal is an error at the key's path. `struct T where
// rule` runs `rule(&value, path)` once the whole value is read: the
// cross-field rules, which name their own paths. What needs the world
// (explicit-rates length, roots in range, `paper` availability, node
// references, generated rates) is refused at resolution.

/// `alpha`, when given, lies in `(0, 1)`.
fn unit_alpha(alpha: &Option<f64>) -> Result<(), String> {
    match *alpha {
        Some(x) if !(x > 0.0 && x < 1.0) => Err(format!("alpha must lie in (0, 1), got {x}")),
        _ => Ok(()),
    }
}

fn at_least_one(x: &usize) -> Result<(), String> {
    if *x == 0 {
        return Err("must be at least 1".into());
    }
    Ok(())
}

/// A Zipf exponent the generators can take.
fn zipf_theta(theta: &f64) -> Result<(), String> {
    if theta.is_finite() && *theta >= 0.0 {
        return Ok(());
    }
    Err(format!("must be finite and non-negative, got {theta}"))
}

fn some_roots(roots: &[usize]) -> Result<(), String> {
    if roots.is_empty() {
        return Err("needs at least one root".into());
    }
    Ok(())
}

fn some_schemes(schemes: &[BaselineScheme]) -> Result<(), String> {
    if schemes.is_empty() {
        return Err("needs at least one scheme".into());
    }
    Ok(())
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

/// A random tree of depth `depth` has at least `depth + 1` nodes.
fn depth_fits(topology: &TopologySpec, path: &Path) -> Result<(), SpecError> {
    match *topology {
        TopologySpec::RandomDepth { nodes, depth } if nodes <= depth => Err(SpecError::at(
            &Path::Key(path, "nodes"),
            format!(
                "a depth-{depth} tree needs at least {} nodes",
                depth as u128 + 1
            ),
        )),
        _ => Ok(()),
    }
}

/// `random_uniform` draws from `[lo, hi)`: ordered, finite bounds.
fn ordered_finite_bounds(rates: &RatesSpec, path: &Path) -> Result<(), SpecError> {
    let RatesSpec::RandomUniform { lo, hi } = *rates else {
        return Ok(());
    };
    if hi < lo {
        return Err(SpecError::at(
            &Path::Key(path, "hi"),
            format!("upper bound {hi} is below lower bound {lo}"),
        ));
    }
    if !(lo.is_finite() && hi.is_finite()) {
        return Err(SpecError::at(
            path,
            format!("bounds must be finite, got {lo} and {hi}"),
        ));
    }
    Ok(())
}

/// The ranges the packet world accepts ([`PacketSimConfig::check`]),
/// refused at the path of the knob the check names (`"gossip period"`;
/// `"diffusion alpha"` is `alpha`), with its value.
fn packet_ranges(config: &PacketSimConfig, path: &Path) -> Result<(), SpecError> {
    let Err(what) = config.check() else {
        return Ok(());
    };
    let mut map = Map::new();
    config.write_in(&mut map);
    let knob = map
        .iter()
        .find(|(key, _)| what.ends_with(&key.replace('_', " ")));
    Err(match knob {
        Some((key, value)) => SpecError::at(
            &Path::Key(path, key),
            format!("{what} out of range, got {}", serde_json::to_string(value)),
        ),
        None => SpecError::at(path, format!("{what} out of range")),
    })
}

/// A sharded packet engine synchronizes its shards on the cut-edge
/// latency, so its link delay must be positive.
fn sharded_lookahead(engine: &EngineSpec, path: &Path) -> Result<(), SpecError> {
    let (flavor, config) = match engine {
        EngineSpec::PacketSimPar { config, .. } => ("parallel", config),
        EngineSpec::PacketSimDist { config, .. } => ("distributed", config),
        _ => return Ok(()),
    };
    if config.link_delay > 0.0 {
        return Ok(());
    }
    Err(SpecError::at(
        &Path::Key(path, "link_delay"),
        format!(
            "the {flavor} engine needs a positive link delay (its conservative \
             lookahead), got {}",
            config.link_delay
        ),
    ))
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

/// A `#[skip]` field's value: its declared default.
fn skipped<T>(default: Option<T>) -> T {
    default.expect("a #[skip] field declares its default")
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

/// A struct key's default: its own `= default`, else — in a `T: Default`
/// declaration — the field of `T::default()`, else none.
macro_rules! key_default {
    ([] $f:ident) => {
        None
    };
    ([Default] $f:ident) => {
        Some(<Self as Default>::default().$f)
    };
    ([$($from:ident)?] $f:ident $default:expr) => {
        Some($default)
    };
}

/// One declared key's part of a walk over its object: its `keys`, its
/// `read` or its `write`. A `#[flatten]` key hands the walk to its own
/// type's keys.
macro_rules! spec_field {
    (keys $out:ident $map:ident $path:ident [flatten] $f:ident $t:ty) => {
        <$t as Object>::keys($map, $path, $out)?
    };
    (keys $out:ident $map:ident $path:ident [skip] $f:ident $t:ty) => {};
    (keys $out:ident $map:ident $path:ident [$($a:ident)?] $f:ident $t:ty) => {
        $out.push(stringify!($f))
    };
    (read $map:ident $path:ident [flatten] $f:ident $t:ty, $what:expr, $default:expr) => {
        <$t as Object>::read_in($map, $path)?
    };
    (read $map:ident $path:ident [skip] $f:ident $t:ty, $what:expr, $default:expr) => {
        skipped::<$t>($default)
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
    (write $map:ident [skip] $f:ident) => {
        let _ = $f;
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
///   this object; `#[skip]` makes a field no key at all: it reads as its
///   default and prints nothing. `struct T: Default { .. }` takes every
///   key's default from `T::default()` unless the key declares its own.
/// - `enum T "thing" { "tag" => Variant { key: Type, .. }, .. }` maps each
///   `kind` tag to a variant and its keys; `also U` gives an enum with
///   the same variant names the same tags.
/// - `tags T "thing" { "tag" => Variant, .. }` is an enum spelled as a
///   string; `.."alias" => expr` reads one list item as many.
///
/// `where rule` after a struct's or an enum's name runs once the whole
/// value is read.
macro_rules! spec_layout {
    (struct $ty:ident $(where $rule:path)? { $($body:tt)* }) => {
        spec_layout!(@struct $ty [] $(where $rule)? { $($body)* });
    };
    (struct $ty:ident: Default $(where $rule:path)? { $($body:tt)* }) => {
        spec_layout!(@struct $ty [Default] $(where $rule)? { $($body)* });
    };
    (@struct $ty:ident $from:tt $(where $rule:path)? {
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
                        first!($($what,)? <$t as Field>::WHAT), key_default!($from $f $($default)?));
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
use {first, key_default, spec_field, spec_layout};
