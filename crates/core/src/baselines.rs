//! The schemes WebWave is argued against.
//!
//! Section 1 of the paper motivates WebWave by the weaknesses of the
//! alternatives: cache-directory services become scalability bottlenecks,
//! probe protocols (ICP) add per-request round trips, DNS rotation cannot
//! track where demand actually is, and classical load migration ignores
//! the constraint that requests must *find* their server without lookups.
//! This module implements those alternatives so the claims become
//! measurable (experiment A1, `webwave::experiments::baseline_study`):
//!
//! * [`no_caching`] — home server only,
//! * [`directory_cache`] — Harvest/ICP-style cooperative cache with a
//!   global directory (perfect GLE, per-request control cost, off-route
//!   data paths),
//! * [`dns_round_robin`] — NCSA-style replica rotation,
//! * [`gle_migration`] — unconstrained diffusion (violates NSS),
//! * [`webwave`] / [`webfold_oracle`] — the paper's system, for the same
//!   table.
//!
//! # Example
//!
//! ```
//! use ww_topology::paper;
//! use ww_core::baselines::{no_caching, webwave};
//!
//! let s = paper::fig6();
//! let nocache = no_caching(&s.tree, &s.spontaneous);
//! let webwave = webwave(&s.tree, &s.spontaneous, 4000, 2.0);
//! assert!(webwave.max_load < nocache.max_load);
//! ```

pub mod metrics;
pub mod schemes;

pub use metrics::{mean_service_hops, mean_tree_distance};
pub use schemes::{
    directory_cache, dns_round_robin, gle_migration, no_caching, webfold_oracle, webwave,
    SchemeReport,
};
