//! The unified engine abstraction: every simulator and the baseline
//! schemes drive through one trait.
//!
//! An [`Engine`] advances in discrete rounds ([`Engine::step`]) and
//! streams its summary numbers into a [`MetricSink`] instead of
//! returning a bespoke report struct; [`Engine::report`] assembles the
//! uniform [`EngineReport`] every consumer (the runner, `webwave-exp`,
//! the examples, the golden tests) reads. An [`Observer`] watches a run
//! round by round — the streaming replacement for the per-engine trace
//! plumbing the constructors used to expose.

use crate::events::{Event, EventError};
use std::fmt::Write as _;
use ww_core::baselines::SchemeReport;
use ww_model::RateVector;
use ww_telemetry::{Level, Snapshot};

/// What a single [`Engine::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The engine can keep stepping.
    Running,
    /// The engine finished its work; further steps are no-ops.
    Done,
}

/// A consumer of named scalar metrics.
///
/// Engines push every summary number they know into the sink; sinks
/// decide what to keep. `Vec<(String, f64)>` collects everything.
pub trait MetricSink {
    /// Receives one named metric.
    fn metric(&mut self, name: &str, value: f64);
}

impl MetricSink for Vec<(String, f64)> {
    fn metric(&mut self, name: &str, value: f64) {
        self.push((name.to_string(), value));
    }
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

/// The uniform outcome of one engine run.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Engine kind (`"rate_wave"`, `"doc_sim"`, ...).
    pub engine: String,
    /// Rounds executed.
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

/// One engine behind the unified API.
///
/// Implemented by [`ww_core::wave::RateWave`],
/// [`ww_core::docsim::DocSim`], [`ww_core::forest::ForestWave`], and the
/// crate's packet and baseline adapters, which the [`Runner`]
/// builds from a spec.
///
/// [`Runner`]: crate::Runner
pub trait Engine {
    /// The engine kind, matching the spec spelling.
    fn kind(&self) -> &'static str;

    /// Advances one round (protocol round, diffusion epoch, or — for
    /// the one-shot baselines engine — the whole run).
    fn step(&mut self) -> StepOutcome;

    /// Rounds executed so far.
    fn round(&self) -> usize;

    /// The engine's convergence metric: Euclidean distance to the TLB
    /// oracle where one exists, otherwise a load-stability measure
    /// (`None` until the engine has anything to report).
    fn convergence(&self) -> Option<f64>;

    /// Current per-node served rates, when meaningful.
    fn load(&self) -> Option<RateVector>;

    /// Current maximum per-node load, when meaningful. The dynamic drive
    /// loop samples this every round for the per-event peak-load metric;
    /// the default goes through [`Engine::load`] (cloning the vector),
    /// so engines with cheap access override it.
    fn max_load(&self) -> Option<f64> {
        self.load().map(|l| l.max())
    }

    /// The TLB oracle, when the engine computes one.
    fn oracle(&self) -> Option<RateVector>;

    /// The per-round convergence trace recorded so far.
    fn trace(&self) -> Option<Vec<f64>>;

    /// Streams every summary metric into `sink`.
    fn metrics(&self, sink: &mut dyn MetricSink);

    /// Applies a dynamics event — churn, link failure, document
    /// lifecycle, or workload shift — between rounds. The default
    /// implementation rejects everything with a typed
    /// [`EventError::Unsupported`]; engines override it for the event
    /// kinds they can honor (see the support matrix in
    /// `docs/dynamics.md`). Implementations must reject, not panic, on
    /// events they cannot apply.
    ///
    /// # Errors
    ///
    /// [`EventError::Unsupported`] for event kinds outside the engine's
    /// semantics, [`EventError::Invalid`] for supported kinds that cannot
    /// apply to the current state.
    fn apply(&mut self, event: &Event) -> Result<(), EventError> {
        Err(EventError::Unsupported {
            engine: self.kind(),
            event: event.kind(),
            supported: &[],
        })
    }

    /// Opens a batched barrier window: events applied until
    /// [`Engine::barrier_commit`] belong to one barrier, and the engine
    /// may defer shared refresh work (oracle refold, flow recomputation,
    /// event-queue surgery) to the commit. The default is a no-op, so
    /// engines without batch support simply apply every event eagerly —
    /// the hooks never change which events succeed.
    fn barrier_begin(&mut self) {}

    /// Closes a batched barrier window, paying any deferred refresh work
    /// exactly once. No-op by default.
    fn barrier_commit(&mut self) {}

    /// Per-scheme baseline reports (baselines engine only).
    fn scheme_reports(&self) -> Vec<SchemeReport> {
        Vec::new()
    }

    /// Sets the run's telemetry level. Telemetry is observation-only —
    /// enabling it must not change a single simulated bit. The default
    /// ignores the level; the packet-engine adapters forward it into
    /// their per-shard counter slabs and phase timers.
    fn set_telemetry(&mut self, level: Level) {
        let _ = level;
    }

    /// The merged telemetry snapshot for the run so far, when telemetry
    /// is enabled (`None` otherwise, and for engines without
    /// instrumentation).
    fn telemetry(&self) -> Option<Snapshot> {
        None
    }

    /// Assembles the uniform report from the accessors above.
    fn report(&self) -> EngineReport {
        let mut metrics = Vec::new();
        self.metrics(&mut metrics);
        EngineReport {
            engine: self.kind().to_string(),
            rounds: self.round(),
            load: self.load(),
            oracle: self.oracle(),
            trace: self.trace(),
            metrics,
            schemes: self.scheme_reports(),
            telemetry: self.telemetry(),
        }
    }
}
