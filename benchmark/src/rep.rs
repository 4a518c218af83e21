//! One repetition: build the world, construct a fresh engine, drive it to
//! the horizon, report, digest, shut down — timing each call from the
//! outside and, in a traced run, recording a span around each.

use crate::alloc;
use crate::digest::report_digest;
use crate::host::{self, Chase};
use crate::spans::Tracer;
use crate::worlds::{build_demand, build_tree, Demand, Scale, Workload};
use std::fmt::Display;
use std::time::Instant;
use ww_core::packet::BarrierOp;
use ww_core::packetsim::{PacketSim, PacketSimReport};
use ww_dist::{DistMode, DistOptions, DistPacketSim};
use ww_model::{NodeId, Tree};
use ww_pdes::{ParPacketSim, PdesTuning, RebalanceConfig};
use ww_telemetry::{Level, Snapshot};

/// Which engine a repetition constructs. `Native` is the workload's own;
/// the other two exist for `par_skew_w2`'s attribution and its digest
/// reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    Native,
    /// `ParPacketSim` with rebalancing off.
    ParStatic,
    /// The sequential `PacketSim` on the same world.
    SeqTwin,
}

/// `par_skew_w2`'s controller setting (the `shard_rebalance` bench's).
const REBALANCE: RebalanceConfig = RebalanceConfig {
    trigger_imbalance: 1.2,
    min_epoch_gap: 1,
};

/// Operations attempted and failed: constructors, every `run`, every
/// `BarrierOp`, `report`, `shutdown`, and every digest comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one operation that could fail; a failure is logged and
    /// returned as `None`.
    pub fn check<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("ww-sysbench: {what} failed: {e}");
                None
            }
        }
    }

    /// Counts one operation that failed outright.
    pub fn fail(&mut self, what: &str) {
        self.check::<(), _>(what, Err("failed"));
    }

    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

enum Engine {
    Seq(Box<PacketSim>),
    Par(Box<ParPacketSim>),
    Dist(Box<DistPacketSim>),
}

impl Engine {
    fn build(
        workload: Workload,
        choice: EngineChoice,
        tree: &Tree,
        demand: &Demand,
        level: Level,
    ) -> Result<Engine, String> {
        let par = |rebalance| {
            let mut sim = ParPacketSim::with_tuning(
                tree,
                &demand.mix,
                demand.config,
                workload.workers(),
                PdesTuning::default(),
            );
            sim.set_rebalance(rebalance);
            sim.set_telemetry(level);
            Engine::Par(Box::new(sim))
        };
        let seq = || {
            let mut sim = PacketSim::new(tree, &demand.mix, demand.config);
            sim.set_telemetry(level);
            Engine::Seq(Box::new(sim))
        };
        Ok(match (workload, choice) {
            (_, EngineChoice::SeqTwin) => seq(),
            (_, EngineChoice::ParStatic) => par(None),
            (Workload::SeqCdn | Workload::ChurnCdn, EngineChoice::Native) => seq(),
            (Workload::ParSkewW2, EngineChoice::Native) => par(Some(REBALANCE)),
            (Workload::DistCdnW2, EngineChoice::Native) => {
                let options = DistOptions {
                    mode: DistMode::Threads,
                    telemetry: level,
                    ..DistOptions::default()
                };
                let sim = DistPacketSim::launch(
                    tree,
                    &demand.mix,
                    demand.config,
                    workload.workers(),
                    options,
                )
                .map_err(|e| e.to_string())?;
                Engine::Dist(Box::new(sim))
            }
        })
    }

    fn run(&mut self, until: f64) -> Result<PacketSimReport, String> {
        match self {
            Engine::Seq(sim) => Ok(sim.run(until)),
            Engine::Par(sim) => Ok(sim.run(until)),
            Engine::Dist(sim) => sim.run(until).map_err(|e| e.to_string()),
        }
    }

    /// One result per op; a batch that cannot open or close fails all of
    /// them.
    fn apply_all(&mut self, ops: &[BarrierOp]) -> Vec<Result<(), String>> {
        fn unit<T, E: Display>(results: Vec<Result<T, E>>) -> Vec<Result<(), String>> {
            results
                .into_iter()
                .map(|r| r.map(drop).map_err(|e| e.to_string()))
                .collect()
        }
        match self {
            Engine::Seq(sim) => unit(sim.apply_all(ops)),
            Engine::Par(sim) => unit(sim.apply_all(ops)),
            Engine::Dist(sim) => match sim.apply_all(ops) {
                Ok(results) => unit(results),
                Err(e) => ops.iter().map(|_| Err(e.to_string())).collect(),
            },
        }
    }

    fn report(&mut self) -> Result<PacketSimReport, String> {
        match self {
            Engine::Seq(sim) => Ok(sim.report()),
            Engine::Par(sim) => Ok(sim.report()),
            Engine::Dist(sim) => sim.report().map_err(|e| e.to_string()),
        }
    }

    fn snapshot(&self) -> Snapshot {
        match self {
            Engine::Seq(sim) => sim.telemetry_snapshot(),
            Engine::Par(sim) => sim.telemetry_snapshot(),
            Engine::Dist(sim) => sim.telemetry_snapshot(),
        }
    }

    /// Ends the run; for the distributed engine this tells the workers
    /// to exit. Dropping does the rest.
    fn shutdown(mut self) {
        if let Engine::Dist(sim) = &mut self {
            sim.shutdown();
        }
    }
}

/// What to run and how to observe it.
#[derive(Debug, Clone, Copy)]
pub struct RepSpec {
    pub workload: Workload,
    pub scale: Scale,
    pub seed: u64,
    pub choice: EngineChoice,
    /// Traced: telemetry at `Level::Full` and allocation counting on.
    /// Either way the engine is driven one `run(..)` call per epoch.
    pub traced: bool,
}

/// Everything one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct RepResult {
    pub ops: Ops,
    /// Topology, workload generation, engine constructor.
    pub setup_parts_s: [f64; 3],
    /// Host seconds inside each `run(..)` call.
    pub run_calls_s: Vec<f64>,
    /// Host seconds inside each `apply_all(..)` call.
    pub apply_calls_s: Vec<f64>,
    /// Memory-latency readings: one before each epoch and one after the
    /// last (empty without a [`Chase`]).
    pub chase_ns: Vec<f64>,
    pub barrier_ops: u64,
    pub shutdown_s: f64,
    pub events: u64,
    pub digest: u64,
    pub tlb_distance: f64,
    pub imbalance: f64,
    pub overflow_parks: u64,
    /// Allocations and bytes requested while driving (traced only).
    pub allocs: (u64, u64),
    pub snapshot: Snapshot,
}

impl RepResult {
    pub fn setup_s(&self) -> f64 {
        self.setup_parts_s.iter().sum()
    }

    /// Host seconds inside `run(..)` and `apply_all(..)`.
    pub fn drive_s(&self) -> f64 {
        self.run_calls_s.iter().sum::<f64>() + self.apply_calls_s.iter().sum::<f64>()
    }

    /// Events per host second, as timed.
    pub fn raw_events_per_s(&self) -> f64 {
        self.events as f64 / self.drive_s()
    }

    /// Events per host second with each epoch's time scaled to the
    /// reference memory latency ([`host::to_reference`]) by the two chase
    /// readings around it; the raw figure when the repetition took no
    /// readings.
    pub fn events_per_s(&self) -> f64 {
        if self.chase_ns.is_empty() {
            return self.raw_events_per_s();
        }
        let scaled: f64 = self
            .run_calls_s
            .iter()
            .enumerate()
            .map(|(k, run_s)| {
                let epoch_s = run_s + self.apply_calls_s.get(k).copied().unwrap_or(0.0);
                let around = (self.chase_ns[k] + self.chase_ns[k + 1]) / 2.0;
                epoch_s * host::to_reference(around)
            })
            .sum();
        self.events as f64 / scaled
    }
}

/// Times `f` and records it as a child span of `parent`.
fn timed<T>(
    tracer: &mut Tracer,
    name: &'static str,
    parent: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    tracer.record(name, parent, start, end);
    (out, (end - start).as_secs_f64())
}

/// Runs one repetition. Engine errors are counted in `ops` and end the
/// repetition early; panics propagate to the caller's `catch_unwind`.
pub fn repetition(spec: RepSpec, tracer: &mut Tracer, mut chase: Option<&mut Chase>) -> RepResult {
    let mut out = RepResult::default();
    let level = if spec.traced { Level::Full } else { Level::Off };
    let rep_span = tracer.open("repetition", 0);

    let setup_span = tracer.open("setup", rep_span);
    let (tree, topology_s) = timed(tracer, "setup.topology", setup_span, || {
        build_tree(spec.workload, spec.scale)
    });
    let (demand, workload_s) = timed(tracer, "setup.workload", setup_span, || {
        build_demand(spec.workload, spec.scale, spec.seed, &tree)
    });
    let (engine, engine_new_s) = timed(tracer, "setup.engine_new", setup_span, || {
        Engine::build(spec.workload, spec.choice, &tree, &demand, level)
    });
    tracer.close(setup_span);
    out.setup_parts_s = [topology_s, workload_s, engine_new_s];
    let Some(mut engine) = out.ops.check("engine constructor", engine) else {
        tracer.close(rep_span);
        return out;
    };

    let epoch_secs = spec.workload.epoch_secs();
    let stops: Vec<f64> = (1..=spec.workload.epochs())
        .map(|k| k as f64 * epoch_secs)
        .collect();
    let mut read_chase = |out: &mut RepResult, tracer: &mut Tracer| {
        if let Some(chase) = chase.as_deref_mut() {
            let (ns, _) = timed(tracer, "host.chase", rep_span, || chase.sample_ns());
            out.chase_ns.push(ns);
        }
    };

    let allocs_before = alloc::counts();
    alloc::set_counting(spec.traced);
    let mut alive = true;
    for (k, &until) in stops.iter().enumerate() {
        read_chase(&mut out, tracer);
        let epoch_span = tracer.open("epoch", rep_span);
        let (report, secs) = timed(tracer, "run", epoch_span, || engine.run(until));
        out.run_calls_s.push(secs);
        alive = out.ops.check("run", report).is_some();
        if let (true, Some(storm)) = (alive, demand.storms.get(k)) {
            let (results, secs) =
                timed(tracer, "apply_all", epoch_span, || engine.apply_all(storm));
            out.apply_calls_s.push(secs);
            out.barrier_ops += storm.len() as u64;
            for (op, result) in storm.iter().zip(results) {
                alive &= out.ops.check(op_name(op), result).is_some();
            }
        }
        tracer.close(epoch_span);
        if !alive {
            break;
        }
    }
    read_chase(&mut out, tracer);
    alloc::set_counting(false);
    let allocs_after = alloc::counts();
    out.allocs = (
        allocs_after.0 - allocs_before.0,
        allocs_after.1 - allocs_before.1,
    );

    if alive {
        let (report, _) = timed(tracer, "report", rep_span, || engine.report());
        if let Some(report) = out.ops.check("report", report) {
            let (digest, _) = timed(tracer, "digest", rep_span, || report_digest(&report));
            out.digest = digest;
            out.events = report.processed_events;
            out.tlb_distance = report.final_distance;
            out.imbalance = report.imbalance;
            out.overflow_parks = report.overflow_parks;
        }
        if spec.traced && matches!(engine, Engine::Dist(_)) {
            // The output is already digested; a fail/heal pair on one
            // region gives the coordinator's apply round trip a sample.
            let pair = [
                BarrierOp::FailLink {
                    node: NodeId::new(1),
                },
                BarrierOp::HealLink {
                    node: NodeId::new(1),
                },
            ];
            let (results, _) = timed(tracer, "apply_all", rep_span, || engine.apply_all(&pair));
            for (op, result) in pair.iter().zip(results) {
                out.ops.check(op_name(op), result);
            }
        }
    }
    out.snapshot = engine.snapshot();
    let ((), shutdown_s) = timed(tracer, "shutdown", rep_span, || engine.shutdown());
    out.ops.ok();
    out.shutdown_s = shutdown_s;
    tracer.close(rep_span);
    out
}

fn op_name(op: &BarrierOp) -> &'static str {
    match op {
        BarrierOp::AddLeaf { .. } => "AddLeaf",
        BarrierOp::RemoveLeaf { .. } => "RemoveLeaf",
        BarrierOp::PublishDoc { .. } => "PublishDoc",
        BarrierOp::SetMix { .. } => "SetMix",
        BarrierOp::FailLink { .. } => "FailLink",
        BarrierOp::HealLink { .. } => "HealLink",
        BarrierOp::Invalidate { .. } => "Invalidate",
    }
}
