//! # ww-scenario — one declarative spec and one `Engine` trait for every
//! WebWave simulator and baseline
//!
//! The workspace has six ways to run the WebWave protocol — rate-level
//! ([`ww_core::wave::RateWave`]), document-level
//! ([`ww_core::docsim::DocSim`]), packet-level
//! ([`ww_core::packetsim::PacketSim`]), sharded parallel packet-level
//! ([`ww_pdes::ParPacketSim`]), packet-level on worker processes
//! ([`ww_dist::DistPacketSim`]) and multi-tree
//! ([`ww_core::forest::ForestWave`]) — plus the baseline schemes of
//! [`ww_core::baselines`]. This crate puts them all behind one surface:
//!
//! * [`ScenarioSpec`] — a declarative description (topology generator,
//!   workload, engine choice, protocol knobs, seed, termination rule,
//!   optional parameter sweep) that round-trips through JSON, so new
//!   workloads are data (`scenarios/*.json`), not new `main` functions;
//! * [`Engine`] — the common stepping/metrics/reporting trait, with a
//!   streaming [`Observer`]/[`MetricSink`] API replacing the per-engine
//!   report plumbing;
//! * [`Runner`] — resolves a spec into a boxed engine and drives it to
//!   termination (round budget, convergence threshold, or wall-clock),
//!   emitting a uniform [`ScenarioReport`].
//!
//! Specs may also carry an **events schedule** ([`events`]): churn
//! (`node_join` / `node_leave`), control-link failures (`link_fail` /
//! `link_heal`), document lifecycle (`doc_publish` / `doc_update`), and
//! workload shifts, interleaved with the rounds and reported with
//! per-event recovery metrics.
//!
//! # Example
//!
//! ```
//! use ww_scenario::{Runner, ScenarioSpec};
//!
//! let spec = ScenarioSpec::from_json(r#"{
//!     "name": "fig2b",
//!     "topology": {"kind": "paper", "figure": "fig2b"},
//!     "workload": {"rates": {"kind": "paper"}},
//!     "engine": {"kind": "rate_wave"},
//!     "termination": {"kind": "converged", "threshold": 1e-6, "max_rounds": 5000}
//! }"#).unwrap();
//! let report = Runner::new().run(&spec).unwrap();
//! assert!(report.rows[0].converged);
//! let load = report.rows[0].outcome.load.as_ref().unwrap();
//! assert_eq!(load.len(), 5);
//! ```
//!
//! # Example: a dynamic world
//!
//! ```
//! use ww_scenario::{Runner, ScenarioSpec};
//!
//! // A converged system suffers a flash crowd at a new edge cache, which
//! // later departs again; the report carries per-event recovery metrics.
//! let spec = ScenarioSpec::from_json(r#"{
//!     "name": "join-then-leave",
//!     "topology": {"kind": "paper", "figure": "fig2b"},
//!     "workload": {"rates": {"kind": "paper"}},
//!     "engine": {"kind": "rate_wave"},
//!     "termination": {"kind": "converged", "threshold": 1e-6, "max_rounds": 20000},
//!     "events": {
//!         "recovery_threshold": 0.5,
//!         "schedule": [
//!             {"round": 40, "kind": "node_join", "parent": 2, "rate": 30.0},
//!             {"round": 80, "kind": "node_leave", "node": 5}
//!         ]
//!     }
//! }"#).unwrap();
//! let report = Runner::new().run(&spec).unwrap();
//! let row = &report.rows[0];
//! assert!(row.converged);
//! assert_eq!(row.events.len(), 2);
//! assert!(row.events.iter().all(|m| m.accepted()));
//! // Both shocks re-converged under the 0.5 recovery threshold.
//! assert!(row.events.iter().all(|m| m.recovery_rounds.is_some()));
//! // Back to the original 5 nodes after the join and the leave.
//! assert_eq!(row.outcome.load.as_ref().unwrap().len(), 5);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod engine;
pub mod error;
pub mod events;
pub mod json;
pub mod runner;
pub mod spec;

mod adapters;

pub use engine::{Engine, EngineReport, MetricSink, NullObserver, Observer, StepOutcome};
pub use error::SpecError;
pub use events::{
    Event, EventError, EventKindSpec, EventMarker, EventSpec, EventsSpec,
    DEFAULT_RECOVERY_THRESHOLD,
};
pub use runner::{DriveResult, RunRow, Runner, ScenarioReport};
pub use spec::{
    BaselineScheme, DocMixSpec, EngineSpec, PacketKnobs, PaperFigure, RatesSpec, ScenarioSpec,
    Sweep, SweepParam, TelemetrySpec, Termination, TopologySpec, WorkloadSpec, DEFAULT_SEED,
};
pub use ww_pdes::RebalanceConfig;
