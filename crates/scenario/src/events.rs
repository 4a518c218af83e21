//! The event-driven dynamics layer: churn, failures, and document
//! lifecycle events scheduled against a running scenario.
//!
//! A [`ScenarioSpec`](crate::ScenarioSpec) may carry an [`EventsSpec`] —
//! a round-stamped schedule of world changes the [`Runner`](crate::Runner)
//! interleaves with engine rounds:
//!
//! * **Churn** — [`NodeJoin`](EventKindSpec::NodeJoin) /
//!   [`NodeLeave`](EventKindSpec::NodeLeave): cache servers enter and
//!   leave the routing tree (ids compact by swap-remove, exactly as
//!   [`ww_model::Tree::remove_leaf`] documents);
//! * **Failures** — [`LinkFail`](EventKindSpec::LinkFail) /
//!   [`LinkHeal`](EventKindSpec::LinkHeal): the *control* link between a
//!   node and its parent dies (no gossip, diffusion, copy pushes, or
//!   tunneling across it) while the data path — requests flowing up the
//!   tree — stays alive;
//! * **Document lifecycle** — [`DocPublish`](EventKindSpec::DocPublish)
//!   adds demand for a (possibly brand-new) document at an origin node;
//!   [`DocUpdate`](EventKindSpec::DocUpdate) re-publishes one, revoking
//!   every cached copy outside the home server so the new version must
//!   re-diffuse;
//! * **Workload shifts** —
//!   [`WorkloadShift`](EventKindSpec::WorkloadShift): hot-set rotation /
//!   Zipf re-skew via a fresh rates and/or doc-mix generator resolved
//!   against the *current* (possibly churned) topology.
//!
//! Spec-level events carry raw indices and generator specs; the runner
//! resolves them at fire time into a concrete [`Event`] and hands it to
//! [`Engine::apply`](crate::Engine::apply). Engines that cannot honor an
//! event reject it with a typed [`EventError`] — never a panic — and the
//! runner records the rejection in the run's [`EventMarker`]s.

use crate::json::Tagged;
use crate::spec::{DocMixSpec, RatesSpec};
use std::fmt;
use ww_model::{DocId, ModelError, NodeId, RateVector, Tree};
use ww_workload::DocMix;

/// Default [`EventsSpec::recovery_threshold`] when the spec omits it.
pub const DEFAULT_RECOVERY_THRESHOLD: f64 = 1e-3;

/// The dynamics block of a scenario: a schedule plus reporting knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct EventsSpec {
    /// The events, in non-decreasing `round` order (the JSON parser
    /// rejects unsorted schedules).
    pub schedule: Vec<EventSpec>,
    /// Convergence-metric value at or below which a post-event system
    /// counts as re-converged; drives each marker's
    /// [`recovery_rounds`](EventMarker::recovery_rounds).
    pub recovery_threshold: f64,
}

/// One scheduled event: fires after the engine has executed `round`
/// rounds (`round: 0` fires before any stepping).
#[derive(Debug, Clone, PartialEq)]
pub struct EventSpec {
    /// The engine-round count at which the event fires.
    pub round: usize,
    /// What happens.
    pub kind: EventKindSpec,
}

/// Spec-level event payloads. Node and document references are plain
/// indices validated at fire time against the *current* (churned)
/// topology — authors must account for the swap-remove renumbering
/// earlier `node_leave` events apply (see `docs/dynamics.md`).
#[derive(Debug, Clone, PartialEq)]
pub enum EventKindSpec {
    /// A cache server joins as a new leaf under `parent` with `rate`
    /// req/s of spontaneous demand. The newcomer takes the next id.
    NodeJoin {
        /// Parent node of the new leaf.
        parent: usize,
        /// Spontaneous demand the newcomer brings.
        rate: f64,
    },
    /// A leaf departs; its demand re-homes to its parent and the highest
    /// id is renumbered into the vacated slot (swap-remove compaction).
    NodeLeave {
        /// The departing leaf.
        node: usize,
    },
    /// The control link between `node` and its parent fails.
    LinkFail {
        /// Child endpoint of the failed uplink.
        node: usize,
    },
    /// The control link between `node` and its parent heals.
    LinkHeal {
        /// Child endpoint of the healed uplink.
        node: usize,
    },
    /// Demand of `rate` req/s for document `doc` appears at `origin`
    /// (publishing a new document, or a flash of new demand for an old
    /// one). The home server holds the only copy initially.
    DocPublish {
        /// Raw document id.
        doc: u64,
        /// Node whose clients request it.
        origin: usize,
        /// Added request rate.
        rate: f64,
    },
    /// Document `doc` is re-published: every cached copy outside the
    /// home server is invalidated and the new version re-diffuses.
    DocUpdate {
        /// Raw document id.
        doc: u64,
    },
    /// The workload shifts: new per-node rates and/or a new document
    /// mix, resolved against the current topology. Omitted parts keep
    /// their current values.
    WorkloadShift {
        /// Replacement rates generator, if any.
        rates: Option<RatesSpec>,
        /// Replacement doc-mix generator, if any.
        doc_mix: Option<DocMixSpec>,
        /// Seed for the generators' randomness; defaults to
        /// `spec.seed + event index + 1` so every shift draws a distinct,
        /// reproducible stream.
        seed: Option<u64>,
    },
}

impl EventKindSpec {
    /// The spec spelling of this event kind (`"node_join"`, ...).
    pub fn kind(&self) -> &'static str {
        self.tag()
    }
}

/// A resolved, concrete event — what [`Engine::apply`](crate::Engine::apply)
/// consumes. Produced by the runner from an [`EventKindSpec`] at fire
/// time, with node/doc references validated and workload generators
/// already expanded.
#[derive(Debug, Clone)]
pub enum Event {
    /// A new leaf joins under `parent` with `rate` req/s of demand.
    NodeJoin {
        /// Parent of the new leaf.
        parent: NodeId,
        /// Spontaneous demand the newcomer brings.
        rate: f64,
    },
    /// The leaf `node` departs (swap-remove id compaction).
    NodeLeave {
        /// The departing leaf.
        node: NodeId,
    },
    /// The control link from `node` to its parent fails.
    LinkFail {
        /// Child endpoint of the failed uplink.
        node: NodeId,
    },
    /// The control link from `node` to its parent heals.
    LinkHeal {
        /// Child endpoint of the healed uplink.
        node: NodeId,
    },
    /// Demand for `doc` appears at `origin`.
    DocPublish {
        /// The document.
        doc: DocId,
        /// Node whose clients request it.
        origin: NodeId,
        /// Added request rate.
        rate: f64,
    },
    /// `doc` is re-published; all non-home copies are invalidated.
    DocUpdate {
        /// The document.
        doc: DocId,
    },
    /// The workload becomes `rates` and/or `doc_mix` (resolved values).
    WorkloadShift {
        /// New per-node rates, when the shift changes them.
        rates: Option<RateVector>,
        /// New document mix, when the shift changes it.
        doc_mix: Option<DocMix>,
    },
}

impl Event {
    /// The spec spelling of this event kind (`"node_join"`, ...).
    pub fn kind(&self) -> &'static str {
        self.tag()
    }
}

/// The tree and per-node rates the accepted events have left: the
/// runner's mirror of an engine's world, which later events resolve
/// against, and the whole world of the one-shot baselines engine.
#[derive(Debug, Clone)]
pub(crate) struct World {
    pub(crate) tree: Tree,
    pub(crate) rates: RateVector,
}

impl World {
    /// Applies `event`: a join adds a leaf with its rate, a leave
    /// re-homes the leaver's rate to its parent, a publish adds its rate
    /// at the origin and a shift with rates replaces them. Link, update
    /// and mix-only events leave the world as it is.
    pub(crate) fn apply(&mut self, event: &Event) -> Result<(), ModelError> {
        match event {
            Event::NodeJoin { parent, rate } => {
                self.tree.add_leaf(*parent)?;
                let mut v = self.rates.clone().into_inner();
                v.push(*rate);
                self.rates = RateVector::from(v);
            }
            Event::NodeLeave { node } => {
                let removal = self.tree.remove_leaf(*node)?;
                let mut v = self.rates.clone().into_inner();
                removal.rehome(&mut v);
                self.rates = RateVector::from(v);
            }
            Event::DocPublish { origin, rate, .. } => self.rates[*origin] += rate,
            Event::WorkloadShift {
                rates: Some(rates), ..
            } => self.rates = rates.clone(),
            Event::LinkFail { .. }
            | Event::LinkHeal { .. }
            | Event::DocUpdate { .. }
            | Event::WorkloadShift { rates: None, .. } => {}
        }
        Ok(())
    }
}

/// Typed rejection of an [`Event`] by an engine. Rejection is part of the
/// contract — the baselines cannot re-balance mid-run, the packet engine
/// cannot re-thread its arrival streams — so unsupported events surface
/// here (and in the run's [`EventMarker`]s), never as panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventError {
    /// This engine has no meaningful semantics for the event kind.
    Unsupported {
        /// The rejecting engine (`"baselines"`, ...).
        engine: &'static str,
        /// The rejected event kind (`"doc_update"`, ...).
        event: &'static str,
        /// The event kinds this engine *does* honor, so a rejection
        /// teaches the spec author what would have worked.
        supported: &'static [&'static str],
    },
    /// The event kind is supported but this particular event is not
    /// applicable (unknown document, one-shot engine already ran, ...).
    Invalid {
        /// The event kind.
        event: &'static str,
        /// Why it cannot apply.
        reason: String,
    },
}

impl fmt::Display for EventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventError::Unsupported {
                engine,
                event,
                supported,
            } => {
                write!(f, "the {engine} engine does not support {event} events")?;
                if supported.is_empty() {
                    write!(f, " (it supports no dynamics events)")
                } else {
                    write!(f, " (it supports: {})", supported.join(", "))
                }
            }
            EventError::Invalid { event, reason } => {
                write!(f, "{event} event cannot apply: {reason}")
            }
        }
    }
}

impl std::error::Error for EventError {}

/// What happened around one fired event: recorded by the runner, folded
/// into the run's metric stream, and rendered in the text report.
#[derive(Debug, Clone, PartialEq)]
pub struct EventMarker {
    /// Index of the event in the spec's schedule.
    pub index: usize,
    /// Event kind (`"node_leave"`, ...).
    pub kind: String,
    /// Engine-round count when the event fired.
    pub round: usize,
    /// The engine's typed rejection, when it refused the event.
    pub rejected: Option<String>,
    /// Rounds from the event until the convergence metric first dropped
    /// to the schedule's recovery threshold; `None` while rejected, or
    /// when the run ended first.
    pub recovery_rounds: Option<usize>,
    /// Worst convergence-metric value observed after the event.
    pub peak_distance: Option<f64>,
    /// Worst per-node load observed after the event.
    pub peak_load: Option<f64>,
}

impl EventMarker {
    /// `true` when the engine accepted (applied) the event.
    pub fn accepted(&self) -> bool {
        self.rejected.is_none()
    }
}
