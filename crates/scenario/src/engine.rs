//! The unified engine abstraction: every simulator and the baseline
//! schemes drive through one trait.
//!
//! An [`Engine`] advances in discrete rounds ([`Engine::step`]), takes
//! dynamics events between them, and states what it has in one
//! [`Engine::report`]: the uniform [`EngineReport`] every consumer (the
//! runner, `webwave-exp`, the examples, the golden tests) reads. An
//! [`Observer`] watches a run round by round — the streaming replacement
//! for the per-engine trace plumbing the constructors used to expose.

use crate::events::{Event, EventError};
use std::fmt::Write as _;
use ww_core::baselines::SchemeReport;
use ww_model::RateVector;
use ww_telemetry::Snapshot;

/// What a single [`Engine::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The engine can keep stepping.
    Running,
    /// The engine finished its work; further steps are no-ops.
    Done,
}

/// A streaming observer of a driven run.
///
/// The runner calls [`Observer::on_round`] after every engine step with
/// the engine's current convergence metric, and [`Observer::on_done`]
/// once with the final report. All methods default to no-ops.
pub trait Observer {
    /// Whether this observer wants the convergence metric on every
    /// round. Computing it can cost an extra O(n) pass per round, so
    /// the runner skips it (passing `None`) when nothing listens and
    /// the termination rule does not need it.
    fn wants_convergence(&self) -> bool {
        true
    }

    /// Called after each step.
    fn on_round(&mut self, round: usize, convergence: Option<f64>) {
        let _ = (round, convergence);
    }

    /// Called when the runner fires a scheduled dynamics event (after the
    /// engine accepted or rejected it — `error` carries a rejection).
    fn on_event(&mut self, index: usize, round: usize, event: &Event, error: Option<&EventError>) {
        let _ = (index, round, event, error);
    }

    /// Called once when the run terminates.
    fn on_done(&mut self, report: &EngineReport) {
        let _ = report;
    }
}

/// The do-nothing observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn wants_convergence(&self) -> bool {
        false
    }
}

/// The uniform outcome of one engine run. An engine names the fields it
/// has; the rest keep their `Default`.
#[derive(Debug, Clone, Default)]
pub struct EngineReport {
    /// Engine kind (`"rate_wave"`, `"doc_sim"`, ...), from the spec.
    pub engine: String,
    /// Rounds the runner's drive loop executed.
    pub rounds: usize,
    /// Final per-node served rates, when the engine has them.
    pub load: Option<RateVector>,
    /// The TLB oracle, when the engine computes one.
    pub oracle: Option<RateVector>,
    /// Per-round convergence trace, when recorded.
    pub trace: Option<Vec<f64>>,
    /// Every named metric the engine reported, in emission order.
    pub metrics: Vec<(String, f64)>,
    /// Per-scheme reports (baselines engine only; empty otherwise).
    pub schemes: Vec<SchemeReport>,
    /// Observation-only telemetry snapshot, when the engine was run with
    /// telemetry enabled. Deliberately separate from `metrics`: nothing
    /// here may feed back into canonical output or golden comparisons.
    pub telemetry: Option<Snapshot>,
}

impl EngineReport {
    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find_map(|(n, v)| (n == name).then_some(*v))
    }

    /// The first recorded convergence value (usually the cold-start
    /// distance to the oracle).
    pub fn initial_distance(&self) -> Option<f64> {
        self.trace.as_ref().and_then(|t| t.first().copied())
    }

    /// The last recorded convergence value.
    pub fn final_distance(&self) -> Option<f64> {
        self.trace.as_ref().and_then(|t| t.last().copied())
    }

    /// The report's bit-identity surface: the round count, then one
    /// `name=<16 hex digits>` line per trace sample, per node's load and
    /// per metric in emission order, every float as its raw IEEE-754
    /// bits. Telemetry is left out: it is observation only, and a run
    /// renders the same string at every telemetry level.
    pub fn canonical(&self) -> String {
        let mut out = format!("rounds={}\n", self.rounds);
        for x in self.trace.iter().flatten() {
            let _ = writeln!(out, "trace={:016x}", x.to_bits());
        }
        for (node, x) in self.load.iter().flat_map(RateVector::iter) {
            let _ = writeln!(out, "load[{node}]={:016x}", x.to_bits());
        }
        for (name, value) in &self.metrics {
            let _ = writeln!(out, "{name}={:016x}", value.to_bits());
        }
        out
    }
}

/// One engine behind the unified API: what the [`Runner`]'s drive loop
/// calls, and nothing else.
///
/// Implemented by [`ww_core::wave::RateWave`],
/// [`ww_core::docsim::DocSim`], [`ww_core::forest::ForestWave`], and the
/// crate's packet and baseline adapters, which the [`Runner`]
/// builds from a spec.
///
/// [`Runner`]: crate::Runner
pub trait Engine {
    /// Advances one round (protocol round, diffusion epoch, or — for
    /// the one-shot baselines engine — the whole run).
    fn step(&mut self) -> StepOutcome;

    /// The engine's convergence metric: Euclidean distance to the TLB
    /// oracle where one exists, otherwise a load-stability measure
    /// (`None` until the engine has anything to report).
    fn convergence(&self) -> Option<f64>;

    /// Current maximum per-node load, when meaningful: the drive loop
    /// samples it for each event's peak-load metric.
    fn max_load(&self) -> Option<f64>;

    /// Applies a dynamics event — churn, link failure, document
    /// lifecycle, or workload shift — between rounds. Engines reject,
    /// never panic on, the events they cannot apply (see the support
    /// matrix in `docs/dynamics.md`).
    ///
    /// # Errors
    ///
    /// [`EventError::Unsupported`] for event kinds outside the engine's
    /// semantics, [`EventError::Invalid`] for supported kinds that cannot
    /// apply to the current state.
    fn apply(&mut self, event: &Event) -> Result<(), EventError>;

    /// Opens a barrier: the events of one round applied until
    /// [`Engine::barrier_commit`] belong to it, and the engine may defer
    /// shared refresh work (oracle refold, flow recomputation,
    /// event-queue surgery) to the commit. The default is a no-op, so
    /// engines without batch support apply every event eagerly — the
    /// hooks never change which events succeed.
    fn barrier_begin(&mut self) {}

    /// Closes the barrier, paying any deferred refresh work exactly
    /// once. No-op by default.
    fn barrier_commit(&mut self) {}

    /// The engine's part of the uniform report: every field it has. The
    /// runner fills [`EngineReport::engine`] and [`EngineReport::rounds`].
    fn report(&self) -> EngineReport;
}
