//! Resolving a [`ScenarioSpec`] into a boxed [`Engine`] and driving it
//! to termination.
//!
//! The [`Runner`] owns the only termination loop in the workspace:
//! round budgets, convergence thresholds (distance-to-TLB, or load
//! stability for engines without an oracle), and wall-clock budgets all
//! live here, for every engine — the per-example `while round < n`
//! loops this replaces are gone.
//!
//! The same loop fires a spec's [`EventsSpec`] dynamics schedule: each
//! scheduled event at its round (resolving node/doc references and
//! workload generators against the *current*, possibly churned
//! topology), with an [`EventMarker`] per event carrying recovery
//! metrics (rounds back under the recovery threshold, peak distance,
//! peak load), folded into the run's metric stream and text report. A
//! spec without a schedule runs the same loop with nothing to fire.

use crate::adapters::{BaselineEngine, PacketAdapter};
use crate::engine::{Engine, EngineReport, NullObserver, Observer, StepOutcome};
use crate::error::SpecError;
use crate::events::{
    Event, EventError, EventKindSpec, EventMarker, EventSpec, EventsSpec, World,
    DEFAULT_RECOVERY_THRESHOLD,
};
use crate::spec::{
    DocMixSpec, EngineSpec, PaperFigure, RatesSpec, ScenarioSpec, Termination, TopologySpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::{Map, Value};
use std::fmt::Write as _;
use std::time::Instant;
use ww_core::docsim::DocSim;
use ww_core::forest::{Coupling, Forest, ForestWave, ForestWaveConfig};
use ww_core::packetsim::{PacketSim, PacketSimConfig};
use ww_core::wave::RateWave;
use ww_dist::{DistError, DistOptions, DistPacketSim};
use ww_model::{NodeId, RateVector, Tree};
use ww_pdes::ParPacketSim;
use ww_telemetry::TraceWriter;
use ww_topology::{paper, Graph};
use ww_workload::DocMix;

/// Outcome of driving one engine to termination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriveResult {
    /// Rounds executed by the drive loop.
    pub rounds: usize,
    /// Whether the termination rule was *satisfied* (for `converged`,
    /// the threshold was reached before the round cap; budget rules are
    /// always satisfied).
    pub converged: bool,
}

/// One run of a (possibly swept) scenario.
#[derive(Debug, Clone)]
pub struct RunRow {
    /// Sweep label (`"staleness=3"`), empty for unswept runs.
    pub label: String,
    /// Whether the termination rule was satisfied.
    pub converged: bool,
    /// Per-event markers (empty for static specs): what fired when, what
    /// was rejected, and how fast the system recovered.
    pub events: Vec<EventMarker>,
    /// The engine's uniform report.
    pub outcome: EngineReport,
}

/// The uniform result of [`Runner::run`]: one row per (sweep) run plus
/// a rendered text report.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name from the spec.
    pub name: String,
    /// Engine kind from the spec.
    pub engine: String,
    /// One row per run (one for unswept specs).
    pub rows: Vec<RunRow>,
    /// Rendered text report.
    pub report: String,
}

impl ScenarioReport {
    /// The bit-identity surface of a whole run: the spec's name, then per
    /// row its label, whether it converged and the row's
    /// [`EngineReport::canonical`]. `webwave-dist run` prints these
    /// bytes, so a shell `diff` of a distributed and a sequential run is
    /// the determinism check.
    pub fn canonical(&self) -> String {
        let mut out = format!("spec={}\n", self.name);
        for row in &self.rows {
            let _ = writeln!(out, "row label={:?} converged={}", row.label, row.converged);
            out.push_str(&row.outcome.canonical());
        }
        out
    }
}

/// Resolves specs into engines and drives them.
#[derive(Debug, Clone, Default)]
pub struct Runner {
    smoke: bool,
    dist: DistOptions,
}

impl Runner {
    /// A runner with default options.
    pub fn new() -> Self {
        Runner::default()
    }

    /// Enables smoke mode: every spec is shrunk with
    /// [`ScenarioSpec::smoke`] before resolution (CI-sized runs).
    pub fn smoke(mut self, on: bool) -> Self {
        self.smoke = on;
        self
    }

    /// Overrides the transport options used when a spec resolves to the
    /// distributed packet engine (`packet_sim_dist`): worker spawning
    /// mode, control listen address, and timeouts. Specs on other
    /// engines ignore this. The default is [`DistOptions::default`]
    /// (worker threads on an ephemeral loopback port).
    pub fn dist_options(mut self, options: DistOptions) -> Self {
        self.dist = options;
        self
    }

    /// Resolves a spec into a boxed engine (no sweep expansion: the
    /// spec's own engine/workload values are used as-is).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending field when a value
    /// fails its declared check (the refusal
    /// [`ScenarioSpec::from_json`] gives the spec's printed form) or the
    /// spec does not fit its world (e.g. a document engine without a doc
    /// mix, explicit rates of the wrong length, a generator yielding a
    /// negative rate, forest roots out of range).
    pub fn resolve(&self, spec: &ScenarioSpec) -> Result<Box<dyn Engine>, SpecError> {
        Ok(resolve_engine(&self.prepare(spec)?, &self.dist)?.0)
    }

    /// Runs a spec (expanding its sweep) with no observer.
    ///
    /// # Errors
    ///
    /// As [`Runner::resolve`].
    pub fn run(&self, spec: &ScenarioSpec) -> Result<ScenarioReport, SpecError> {
        self.run_with(spec, &mut NullObserver)
    }

    /// Runs a spec (expanding its sweep), streaming every round to
    /// `observer`.
    ///
    /// # Errors
    ///
    /// As [`Runner::resolve`].
    pub fn run_with(
        &self,
        spec: &ScenarioSpec,
        observer: &mut dyn Observer,
    ) -> Result<ScenarioReport, SpecError> {
        let spec = self.prepare(spec)?;
        let runs: Vec<(String, ScenarioSpec)> = match &spec.sweep {
            None => vec![(String::new(), spec.clone())],
            Some(sweep) => {
                let mut runs = Vec::with_capacity(sweep.values.len());
                for &value in &sweep.values {
                    runs.push((sweep.label(value), sweep.apply(&spec, value)?));
                }
                runs
            }
        };
        // One JSONL trace file for the whole (possibly swept) scenario:
        // each run writes a `run_start`/`run_end` pair around its rounds.
        let mut tracer = match &spec.telemetry.trace_out {
            Some(path) => Some(TraceWriter::create(path).map_err(|e| {
                SpecError::at(
                    "telemetry.trace_out",
                    format!("cannot create trace file \"{path}\": {e}"),
                )
            })?),
            None => None,
        };
        let mut rows = Vec::with_capacity(runs.len());
        for (label, run_spec) in runs {
            let (mut engine, world) = resolve_engine(&run_spec, &self.dist)?;
            if let Some(w) = tracer.as_mut() {
                let _ = w.record(&run_start_record(&run_spec, &label));
            }
            let (result, markers) = {
                let mut traced;
                let obs: &mut dyn Observer = match tracer.as_mut() {
                    Some(writer) => {
                        traced = TraceObserver {
                            inner: &mut *observer,
                            writer,
                        };
                        &mut traced
                    }
                    None => &mut *observer,
                };
                drive(engine.as_mut(), &run_spec, world, obs)?
            };
            let mut outcome = engine.report();
            outcome.engine = run_spec.engine.kind().to_string();
            outcome.rounds = result.rounds;
            // Per-event markers ride in the metric stream, so every
            // consumer of the uniform report sees the dynamics timeline.
            for m in &markers {
                let prefix = format!("event.{}.{}", m.index, m.kind);
                outcome
                    .metrics
                    .push((format!("{prefix}.round"), m.round as f64));
                outcome.metrics.push((
                    format!("{prefix}.accepted"),
                    f64::from(u8::from(m.accepted())),
                ));
                if let Some(r) = m.recovery_rounds {
                    outcome
                        .metrics
                        .push((format!("{prefix}.recovery_rounds"), r as f64));
                }
                if let Some(p) = m.peak_distance {
                    outcome.metrics.push((format!("{prefix}.peak_distance"), p));
                }
                if let Some(p) = m.peak_load {
                    outcome.metrics.push((format!("{prefix}.peak_load"), p));
                }
            }
            observer.on_done(&outcome);
            if let Some(w) = tracer.as_mut() {
                let _ = w.record(&run_end_record(&result, &outcome));
            }
            rows.push(RunRow {
                label,
                converged: result.converged,
                events: markers,
                outcome,
            });
        }
        if let Some(w) = tracer.as_mut() {
            w.flush().map_err(|e| {
                SpecError::at("telemetry.trace_out", format!("trace write failed: {e}"))
            })?;
        }
        let report = render(&spec, &rows);
        Ok(ScenarioReport {
            name: spec.name.clone(),
            engine: spec.engine.kind().to_string(),
            rows,
            report,
        })
    }

    /// The spec this runner runs for `spec` — itself, or its smoke
    /// shrink — checked through the declarations. A sweep row is read
    /// back through them by [`Sweep::apply`](crate::Sweep::apply).
    fn prepare(&self, spec: &ScenarioSpec) -> Result<ScenarioSpec, SpecError> {
        let spec = if self.smoke {
            spec.smoke()
        } else {
            spec.clone()
        };
        // However the spec was made (built in Rust, shrunk, edited from
        // the command line), it gets the refusal its printed form gets.
        ScenarioSpec::from_value(&spec.to_value())?;
        Ok(spec)
    }
}

// ---------------------------------------------------------------------
// JSONL run tracing
// ---------------------------------------------------------------------

/// Builds one JSONL trace record (`{"record": "<kind>", ...}`).
fn trace_record(kind: &str, pairs: Vec<(&str, Value)>) -> Value {
    let mut map = Map::new();
    map.insert("record", Value::from(kind));
    for (k, v) in pairs {
        map.insert(k, v);
    }
    Value::Object(map)
}

fn run_start_record(spec: &ScenarioSpec, label: &str) -> Value {
    trace_record(
        "run_start",
        vec![
            ("scenario", Value::from(spec.name.as_str())),
            ("engine", Value::from(spec.engine.kind())),
            ("label", Value::from(label)),
            ("seed", Value::Number(spec.seed as f64)),
            ("level", Value::from(spec.telemetry.level.as_str())),
        ],
    )
}

fn run_end_record(result: &DriveResult, outcome: &EngineReport) -> Value {
    let mut pairs = vec![
        ("rounds", Value::Number(result.rounds as f64)),
        ("converged", Value::Bool(result.converged)),
    ];
    if let Some(snap) = &outcome.telemetry {
        pairs.push(("telemetry", snap.to_json()));
    }
    trace_record("run_end", pairs)
}

/// Wraps the caller's observer to mirror every round and dynamics event
/// into the JSONL trace. Observation-only: it reads what the drive loop
/// already hands every observer and never touches the engine.
struct TraceObserver<'a> {
    inner: &'a mut dyn Observer,
    writer: &'a mut TraceWriter,
}

impl Observer for TraceObserver<'_> {
    fn wants_convergence(&self) -> bool {
        // Convergence is a pure accessor; sampling it for the trace
        // cannot perturb the run even when the inner observer declines.
        true
    }

    fn on_round(&mut self, round: usize, convergence: Option<f64>) {
        let _ = self.writer.record(&trace_record(
            "round",
            vec![
                ("round", Value::Number(round as f64)),
                (
                    "convergence",
                    match convergence {
                        Some(c) => Value::Number(c),
                        None => Value::Null,
                    },
                ),
            ],
        ));
        self.inner.on_round(round, convergence);
    }

    fn on_event(&mut self, index: usize, round: usize, event: &Event, error: Option<&EventError>) {
        let _ = self.writer.record(&trace_record(
            "event",
            vec![
                ("index", Value::Number(index as f64)),
                ("round", Value::Number(round as f64)),
                ("kind", Value::from(event.kind())),
                ("accepted", Value::Bool(error.is_none())),
                (
                    "error",
                    match error {
                        Some(e) => Value::from(e.to_string().as_str()),
                        None => Value::Null,
                    },
                ),
            ],
        ));
        self.inner.on_event(index, round, event, error);
    }

    fn on_done(&mut self, report: &EngineReport) {
        self.inner.on_done(report);
    }
}

// ---------------------------------------------------------------------
// The drive loop
// ---------------------------------------------------------------------

/// Resolves one scheduled event against the current [`World`]: validates
/// node references, expands workload generators (seeded by the event's
/// own seed, defaulting to `spec seed + event index + 1`), and produces
/// the concrete [`Event`] engines consume.
///
/// Structural errors — out-of-range nodes, non-leaf departures, a
/// generator refusing its input — abort the run with a
/// [`SpecError`] naming the schedule entry; engine-side rejections are
/// *not* errors and surface as markers instead.
fn resolve_event(
    spec: &EventSpec,
    index: usize,
    master_seed: u64,
    world: &World,
) -> Result<Event, SpecError> {
    let n = world.tree.len();
    let at = |field: &str| format!("events.schedule[{index}].{field}");
    let check_node = |node: usize, field: &str| {
        if node >= n {
            Err(SpecError::at(
                at(field),
                format!("node {node} is outside the current {n}-node topology"),
            ))
        } else {
            Ok(NodeId::new(node))
        }
    };
    let check_link = |node: usize, field: &str| {
        let id = check_node(node, field)?;
        match world.tree.uplink(id) {
            Ok(_) => Ok(id),
            Err(e) => Err(SpecError::at(at(field), e.to_string())),
        }
    };
    Ok(match &spec.kind {
        EventKindSpec::NodeJoin { parent, rate } => Event::NodeJoin {
            parent: check_node(*parent, "parent")?,
            rate: *rate,
        },
        EventKindSpec::NodeLeave { node } => {
            let id = check_link(*node, "node")?;
            if !world.tree.is_leaf(id) {
                return Err(SpecError::at(
                    at("node"),
                    format!(
                        "node {node} has {} children and cannot leave (only leaves depart)",
                        world.tree.children(id).len()
                    ),
                ));
            }
            Event::NodeLeave { node: id }
        }
        EventKindSpec::LinkFail { node } => Event::LinkFail {
            node: check_link(*node, "node")?,
        },
        EventKindSpec::LinkHeal { node } => Event::LinkHeal {
            node: check_link(*node, "node")?,
        },
        EventKindSpec::DocPublish { doc, origin, rate } => Event::DocPublish {
            doc: ww_model::DocId::new(*doc),
            origin: check_node(*origin, "origin")?,
            rate: *rate,
        },
        EventKindSpec::DocUpdate { doc } => Event::DocUpdate {
            doc: ww_model::DocId::new(*doc),
        },
        EventKindSpec::WorkloadShift {
            rates,
            doc_mix,
            seed,
        } => {
            let mut rng =
                StdRng::seed_from_u64(seed.unwrap_or(master_seed.wrapping_add(index as u64 + 1)));
            let rates = rates
                .as_ref()
                .map(|spec| {
                    let paper = Err("\"paper\" rates cannot be re-resolved mid-run");
                    resolve_rates(spec, &world.tree, paper, &mut rng, &at("rates"))
                })
                .transpose()?;
            let doc_mix = doc_mix
                .as_ref()
                .map(|spec| {
                    let base = rates.as_ref().unwrap_or(&world.rates);
                    let paper = Err("\"paper\" doc mixes cannot be re-resolved mid-run");
                    resolve_mix(spec, &world.tree, base, paper, &at("doc_mix"))
                })
                .transpose()?;
            Event::WorkloadShift { rates, doc_mix }
        }
    })
}

/// Tracks one accepted event's recovery: when did the convergence metric
/// first dip back under the threshold, and how bad did things get.
struct RecoveryTracker {
    marker: usize,
    fire_round: usize,
    recovered: bool,
}

/// Folds one `(convergence, max load)` sample into every live tracker's
/// peaks, and — when `latch_recovery` — latches `recovery_rounds` the
/// first time the metric is back under the threshold. Fire-time samples
/// pass `latch_recovery: false`: engines that only refresh their metric
/// while stepping (the packet engine) would otherwise "recover" in zero
/// rounds on a stale pre-event value.
fn update_trackers(
    conv: Option<f64>,
    load_max: Option<f64>,
    markers: &mut [EventMarker],
    trackers: &mut [RecoveryTracker],
    rounds: usize,
    recovery_threshold: f64,
    latch_recovery: bool,
) {
    for t in trackers.iter_mut() {
        let m = &mut markers[t.marker];
        if let Some(c) = conv {
            m.peak_distance = Some(m.peak_distance.map_or(c, |p| p.max(c)));
            if latch_recovery && !t.recovered && c <= recovery_threshold {
                t.recovered = true;
                m.recovery_rounds = Some(rounds - t.fire_round);
            }
        }
        if let Some(lm) = load_max {
            m.peak_load = Some(m.peak_load.map_or(lm, |p| p.max(lm)));
        }
    }
}

/// Drives `engine` until the spec's termination rule is satisfied,
/// reporting every round to `observer` and firing the spec's dynamics
/// schedule, if any, between rounds. This is the *only* termination
/// loop — engines never self-terminate (the one-shot baselines engine
/// signals [`StepOutcome::Done`]):
///
/// * every scheduled event fires once the engine has executed its
///   `round` (`round: 0` fires before any stepping);
/// * a `converged` termination only stops the run once the whole
///   schedule has fired — injecting a fault into an already-converged
///   system is the entire point of a dynamics spec (round and wall-clock
///   caps still apply unconditionally);
/// * events scheduled past the run's final round never fire and produce
///   no markers (the one-shot engine ends after a single step).
///
/// `world` is the mirror [`resolve_engine`] handed over; a spec without a
/// schedule resolves no event and has none.
fn drive(
    engine: &mut dyn Engine,
    spec: &ScenarioSpec,
    mut world: Option<World>,
    observer: &mut dyn Observer,
) -> Result<(DriveResult, Vec<EventMarker>), SpecError> {
    let no_events = EventsSpec {
        schedule: Vec::new(),
        recovery_threshold: DEFAULT_RECOVERY_THRESHOLD,
    };
    let events = spec.events.as_ref().unwrap_or(&no_events);
    let schedule = &events.schedule;
    let mut markers: Vec<EventMarker> = Vec::new();
    let mut trackers: Vec<RecoveryTracker> = Vec::new();
    let mut next_event = 0usize;
    let mut rounds = 0usize;
    let mut converged = true;
    let wants = observer.wants_convergence();
    let needs_metric = matches!(spec.termination, Termination::Converged { .. });
    let start = Instant::now();
    // The convergence metric can be an O(n) pass, so each iteration
    // computes it at most once and shares the sample between the
    // termination check, the observer, and the recovery trackers.
    let mut metric = if needs_metric {
        engine.convergence()
    } else {
        None
    };
    loop {
        // Fire everything due at this round count. Two or more events
        // due together are one barrier, so engines defer their shared
        // refresh work to the commit; every engine applies a lone event
        // as a barrier of its own.
        let mut fired = false;
        let due = schedule[next_event..]
            .iter()
            .take_while(|e| e.round <= rounds)
            .count();
        if due > 1 {
            engine.barrier_begin();
        }
        for _ in 0..due {
            let world = world.as_mut().expect("a schedule has a world mirror");
            let event = resolve_event(&schedule[next_event], next_event, spec.seed, world)?;
            let result = engine.apply(&event);
            observer.on_event(next_event, rounds, &event, result.as_ref().err());
            let accepted = result.is_ok();
            markers.push(EventMarker {
                index: next_event,
                kind: event.kind().to_string(),
                round: rounds,
                rejected: result.err().map(|e| e.to_string()),
                recovery_rounds: None,
                peak_distance: None,
                peak_load: None,
            });
            if accepted {
                world.apply(&event).expect("validated at resolve");
                trackers.push(RecoveryTracker {
                    marker: markers.len() - 1,
                    fire_round: rounds,
                    recovered: false,
                });
                fired = true;
            }
            next_event += 1;
        }
        if due > 1 {
            engine.barrier_commit();
        }
        if fired {
            // Capture the immediate post-event shock in the peaks (no
            // recovery latching: a lazily-measuring engine still reports
            // its pre-event metric here).
            metric = engine.convergence();
            update_trackers(
                metric,
                engine.max_load(),
                &mut markers,
                &mut trackers,
                rounds,
                events.recovery_threshold,
                false,
            );
        }
        // Termination.
        match spec.termination {
            Termination::Rounds { max } => {
                if rounds >= max {
                    break;
                }
            }
            Termination::Converged {
                threshold,
                max_rounds,
            } => {
                if next_event >= schedule.len() && metric.is_some_and(|c| c <= threshold) {
                    break;
                }
                if rounds >= max_rounds {
                    converged = false;
                    break;
                }
            }
            Termination::WallClock {
                seconds,
                max_rounds,
            } => {
                if rounds >= max_rounds || start.elapsed().as_secs_f64() >= seconds {
                    break;
                }
            }
        }
        let outcome = engine.step();
        rounds += 1;
        metric = if needs_metric || wants || !trackers.is_empty() {
            engine.convergence()
        } else {
            None
        };
        observer.on_round(rounds, if wants { metric } else { None });
        if !trackers.is_empty() {
            update_trackers(
                metric,
                engine.max_load(),
                &mut markers,
                &mut trackers,
                rounds,
                events.recovery_threshold,
                true,
            );
        }
        if outcome == StepOutcome::Done {
            if let Termination::Converged { threshold, .. } = spec.termination {
                converged = metric.is_some_and(|c| c <= threshold);
            }
            break;
        }
    }
    Ok((DriveResult { rounds, converged }, markers))
}

/// The tree, plus a paper topology's demand: its rates, and fig7's doc
/// mix.
fn resolve_topology(
    spec: &ScenarioSpec,
    rng: &mut StdRng,
) -> Result<(Tree, Option<RateVector>, Option<DocMix>), SpecError> {
    let tree = match &spec.topology {
        TopologySpec::Paper {
            figure: PaperFigure::Fig7,
        } => {
            let b = paper::fig7();
            let mut mix = DocMix::new(b.tree.len());
            for d in &b.demands {
                mix.set(d.origin, d.doc, d.rate);
            }
            return Ok((b.tree, Some(mix.spontaneous()), Some(mix)));
        }
        TopologySpec::Paper { figure } => {
            let s = match figure {
                PaperFigure::Fig2a => paper::fig2a(),
                PaperFigure::Fig2b => paper::fig2b(),
                PaperFigure::Fig4 => paper::fig4(),
                PaperFigure::Fig6 => paper::fig6(),
                PaperFigure::Fig7 => unreachable!("handled above"),
            };
            return Ok((s.tree, Some(s.spontaneous), None));
        }
        TopologySpec::Path { nodes } => ww_topology::path(*nodes),
        TopologySpec::Star { nodes } => ww_topology::star(*nodes),
        TopologySpec::KAry { arity, depth } => ww_topology::k_ary(*arity, *depth),
        TopologySpec::TwoLevel { regions, leaves } => ww_topology::two_level(*regions, *leaves),
        TopologySpec::Caterpillar { spine, legs } => ww_topology::caterpillar(*spine, *legs),
        TopologySpec::Broom { handle, bristles } => ww_topology::broom(*handle, *bristles),
        TopologySpec::RandomDepth { nodes, depth } => {
            ww_topology::random_tree_of_depth(rng, *nodes, *depth)
        }
        TopologySpec::Explicit { parents } => Tree::from_parents(parents)
            .map_err(|e| SpecError::at("topology.parents", format!("invalid tree: {e}")))?,
    };
    Ok((tree, None, None))
}

/// Expands a rates generator on `tree`, at construction and when a
/// `workload_shift` fires. `paper` is the paper topology's demand, or the
/// refusal `"paper"` meets here; `path` names the generator in the spec.
/// A generated rate that is negative or not finite is refused.
fn resolve_rates(
    spec: &RatesSpec,
    tree: &Tree,
    paper: Result<RateVector, &str>,
    rng: &mut StdRng,
    path: &str,
) -> Result<RateVector, SpecError> {
    let rates = match spec {
        RatesSpec::Paper => paper.map_err(|refusal| SpecError::at(path, refusal))?,
        RatesSpec::Uniform { rate } => ww_workload::uniform(tree, *rate),
        RatesSpec::LeafOnly { rate } => ww_workload::leaf_only(tree, *rate),
        RatesSpec::RandomUniform { lo, hi } => ww_workload::random_uniform(rng, tree, *lo, *hi),
        RatesSpec::ZipfNodes { total, theta } => ww_workload::zipf_nodes(rng, tree, *total, *theta),
        RatesSpec::Explicit { rates } => {
            if rates.len() != tree.len() {
                return Err(SpecError::at(
                    format!("{path}.rates"),
                    format!(
                        "expected {} rates (one per node), got {}",
                        tree.len(),
                        rates.len()
                    ),
                ));
            }
            RateVector::from(rates.clone())
        }
    };
    rates
        .validate_for(tree)
        .map_err(|e| SpecError::at(path, e.to_string()))?;
    Ok(rates)
}

/// Expands a doc-mix generator on `tree`, splitting `rates`, at
/// construction and when a `workload_shift` fires; `paper` and `path` as
/// in [`resolve_rates`].
fn resolve_mix(
    spec: &DocMixSpec,
    tree: &Tree,
    rates: &RateVector,
    paper: Result<DocMix, &str>,
    path: &str,
) -> Result<DocMix, SpecError> {
    match spec {
        DocMixSpec::Paper => paper.map_err(|refusal| SpecError::at(path, refusal)),
        DocMixSpec::SharedZipf { docs, theta } => {
            Ok(ww_workload::shared_zipf_mix(tree, rates, *docs, *theta))
        }
    }
}

/// A packet engine's config, seeded by the spec's `seed`.
fn seeded(config: &PacketSimConfig, spec: &ScenarioSpec) -> PacketSimConfig {
    PacketSimConfig {
        seed: spec.seed,
        ..*config
    }
}

fn require_mix(mix: Option<DocMix>, engine: &str) -> Result<DocMix, SpecError> {
    mix.ok_or_else(|| {
        SpecError::at(
            "workload.doc_mix",
            format!("the {engine} engine needs a document mix (shared_zipf, or paper on fig7)"),
        )
    })
}

/// Spec → engine, with the spec's seed driving topology, workload, and
/// engine randomness (in that order, from one generator — so a seed
/// pins the whole run), at the spec's telemetry level. A spec with a
/// dynamics schedule also gets the engine's starting [`World`], to
/// mirror the events on.
fn resolve_engine(
    spec: &ScenarioSpec,
    dist: &DistOptions,
) -> Result<(Box<dyn Engine>, Option<World>), SpecError> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let (tree, paper_rates, paper_mix) = resolve_topology(spec, &mut rng)?;
    let paper = paper_rates.ok_or("\"paper\" rates require a paper topology");
    let rates = resolve_rates(
        &spec.workload.rates,
        &tree,
        paper,
        &mut rng,
        "workload.rates",
    )?;
    let mix = match &spec.workload.doc_mix {
        None => None,
        Some(mix) => {
            let paper = paper_mix.ok_or("\"paper\" doc mix requires the fig7 paper topology");
            Some(resolve_mix(mix, &tree, &rates, paper, "workload.doc_mix")?)
        }
    };
    let kind = spec.engine.kind();
    let world = World { tree, rates };

    let engine: Box<dyn Engine> = match &spec.engine {
        EngineSpec::RateWave { config } => {
            Box::new(RateWave::new(&world.tree, &world.rates, *config))
        }
        EngineSpec::DocSim { config } => {
            let mix = require_mix(mix, kind)?;
            Box::new(DocSim::new(&world.tree, &mix, *config))
        }
        EngineSpec::PacketSim { config } => {
            let mix = require_mix(mix, kind)?;
            let config = seeded(config, spec);
            let mut sim = PacketSim::new(&world.tree, &mix, config);
            sim.set_telemetry(spec.telemetry.level);
            Box::new(PacketAdapter::new(kind, sim, config.diffusion_period))
        }
        EngineSpec::PacketSimPar { config, workers } => {
            let mix = require_mix(mix, kind)?;
            let config = seeded(config, spec);
            let mut sim = ParPacketSim::new(&world.tree, &mix, config, *workers);
            sim.set_rebalance(spec.rebalance);
            sim.set_telemetry(spec.telemetry.level);
            Box::new(PacketAdapter::new(kind, sim, config.diffusion_period))
        }
        EngineSpec::PacketSimDist { config, workers } => {
            let mix = require_mix(mix, kind)?;
            let config = seeded(config, spec);
            // Adaptive rebalancing would migrate node state between
            // single-shard worker processes, which the wire protocol does
            // not carry: rejected up front rather than silently dropped.
            let launched = if spec.rebalance.is_some() {
                Err(DistError::Unsupported {
                    detail: "adaptive shard rebalancing (drop the `rebalance` block, or run \
                             in-process with `packet_sim_par`)"
                        .into(),
                })
            } else {
                // The level rides in the launch options: it decides
                // whether the worker handshake is timed.
                let options = DistOptions {
                    telemetry: spec.telemetry.level,
                    ..dist.clone()
                };
                DistPacketSim::launch(&world.tree, &mix, config, *workers, options)
            };
            let sim = launched
                .map_err(|e| SpecError::at("engine", format!("distributed launch failed: {e}")))?;
            Box::new(PacketAdapter::new(kind, sim, config.diffusion_period))
        }
        EngineSpec::ForestWave {
            alpha,
            coupled,
            roots,
        } => {
            for (i, &r) in roots.iter().enumerate() {
                if r >= world.tree.len() {
                    return Err(SpecError::at(
                        format!("engine.roots[{i}]"),
                        format!("node {r} is outside the {}-node topology", world.tree.len()),
                    ));
                }
            }
            let graph = Graph::from(&world.tree);
            let root_ids: Vec<NodeId> = roots.iter().map(|&r| NodeId::new(r)).collect();
            let forest = Forest::from_graph(&graph, &root_ids)
                .map_err(|e| SpecError::at("engine.roots", format!("invalid forest: {e}")))?;
            let demands = vec![world.rates.clone(); roots.len()];
            Box::new(ForestWave::new(
                &forest,
                &demands,
                ForestWaveConfig {
                    alpha: *alpha,
                    coupling: if *coupled {
                        Coupling::Coupled
                    } else {
                        Coupling::Uncoupled
                    },
                },
            ))
        }
        EngineSpec::Baselines { schemes, params } => {
            Box::new(BaselineEngine::new(world.clone(), schemes.clone(), *params))
        }
    };
    let scheduled = spec.events.as_ref().is_some_and(|e| !e.schedule.is_empty());
    Ok((engine, scheduled.then_some(world)))
}

fn render(spec: &ScenarioSpec, rows: &[RunRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "scenario {} — engine {} (seed {})",
        spec.name,
        spec.engine.kind(),
        spec.seed
    );
    for row in rows {
        let label = if row.label.is_empty() {
            "run".to_string()
        } else {
            format!("run [{}]", row.label)
        };
        let mut line = format!("  {label}: rounds {}", row.outcome.rounds);
        if let (Some(initial), Some(last)) =
            (row.outcome.initial_distance(), row.outcome.final_distance())
        {
            let _ = write!(line, ", convergence {initial:.3} -> {last:.3e}");
        }
        if let Some(load) = &row.outcome.load {
            let _ = write!(line, ", max load {:.3}", load.max());
        }
        let _ = write!(
            line,
            ", {}",
            if row.converged {
                "converged"
            } else {
                "not converged"
            }
        );
        out.push_str(&line);
        out.push('\n');
        if !row.outcome.schemes.is_empty() {
            let _ = writeln!(
                out,
                "    {:<16} {:>10} {:>12} {:>14} {:>14} {:>10}",
                "scheme", "max load", "dist to GLE", "ctrl msgs/req", "data hops/req", "needs dir"
            );
            for s in &row.outcome.schemes {
                let _ = writeln!(
                    out,
                    "    {:<16} {:>10.3} {:>12.3} {:>14.3} {:>14.3} {:>10}",
                    s.name,
                    s.max_load,
                    s.distance_to_gle,
                    s.control_msgs_per_request,
                    s.data_hops_per_request,
                    if s.violates_nss { "yes" } else { "no" }
                );
            }
        } else if !row.outcome.metrics.is_empty() {
            let rendered: Vec<String> = row
                .outcome
                .metrics
                .iter()
                .filter(|(name, _)| !name.starts_with("event."))
                .map(|(name, value)| format!("{name}={value:.4}"))
                .collect();
            let _ = writeln!(out, "    metrics: {}", rendered.join("  "));
        }
        if let Some(snap) = &row.outcome.telemetry {
            let _ = writeln!(out, "    telemetry:");
            for line in snap.render_text().lines() {
                let _ = writeln!(out, "    {line}");
            }
        }
        for m in &row.events {
            let mut line = format!("    event[{}] {} @ round {}", m.index, m.kind, m.round);
            match &m.rejected {
                Some(err) => {
                    let _ = write!(line, ": rejected ({err})");
                }
                None => {
                    match m.recovery_rounds {
                        Some(r) => {
                            let _ = write!(line, ": re-converged in {r} rounds");
                        }
                        None => {
                            let _ = write!(line, ": not re-converged");
                        }
                    }
                    if let Some(p) = m.peak_distance {
                        let _ = write!(line, ", peak distance {p:.3}");
                    }
                    if let Some(p) = m.peak_load {
                        let _ = write!(line, ", peak load {p:.3}");
                    }
                }
            }
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}
