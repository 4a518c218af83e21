//! # webwave — globally load balanced, fully distributed caching of hot published documents
//!
//! A production-quality Rust reproduction of *WebWave* (Heddaya & Mirdad,
//! Boston University TR BU-CS-96-024 / ICDCS 1997): a caching system for
//! immutable published documents that
//!
//! 1. **maximizes global throughput** by driving the per-server load
//!    distribution to the provably optimal *Tree Load Balance* (TLB),
//! 2. **finds cache copies without any directory or discovery protocol** —
//!    requests simply stumble on copies placed along their routing path,
//! 3. **is completely distributed**: every decision uses only a node's own
//!    measurements and its tree neighbors' gossip.
//!
//! This crate re-exports the whole workspace under one roof:
//!
//! * [`model`] — routing trees, rate vectors, flow constraints,
//! * [`topology`] / [`workload`] — tree generators and synthetic demand,
//! * [`diffusion`] — the classic GLE diffusion substrate (Cybenko et al.),
//! * [`fold`] — WebFold, the off-line TLB oracle,
//! * [`wave`], [`docsim`], [`packetsim`] — the WebWave protocol at rate,
//!   document and packet granularity (barriers + tunneling included),
//! * [`pdes`] — the sharded parallel packet engine (`ParPacketSim`),
//!   bit-identical to [`packetsim`] at every worker count,
//! * [`baselines`] — directory caches, DNS round-robin, no-cache,
//! * [`scenario`] — the unified API: one declarative [`scenario::ScenarioSpec`]
//!   plus an [`scenario::Engine`]/[`scenario::Runner`] pair driving every
//!   simulator and the baselines (`scenarios/*.json`),
//! * [`stats`] — the `a * gamma^t` convergence regression,
//! * [`sim`] / [`net`] / [`cache`] — event kernel, packets + packet
//!   filters + traffic ledger, flow meters + push/shed planning,
//! * [`experiments`] — one runner per paper figure/table.
//!
//! # Quickstart
//!
//! The high-level path: describe the whole run — topology, workload,
//! engine, termination — as data, and let the [`scenario::Runner`] drive
//! it. The same JSON works from the command line:
//! `webwave-exp run scenarios/fig2b.json`.
//!
//! ```
//! use webwave::scenario::{Runner, ScenarioSpec};
//!
//! let spec = ScenarioSpec::from_json(r#"{
//!     "name": "fig2b",
//!     "topology": {"kind": "paper", "figure": "fig2b"},
//!     "workload": {"rates": {"kind": "paper"}},
//!     "engine": {"kind": "rate_wave"},
//!     "termination": {"kind": "converged", "threshold": 1e-6, "max_rounds": 5000}
//! }"#).unwrap();
//! let report = Runner::new().run(&spec).unwrap();
//! let row = &report.rows[0];
//! assert!(row.converged);
//! // The distributed protocol reached the WebFold (TLB) optimum.
//! assert_eq!(row.outcome.oracle.as_ref().unwrap().as_slice(),
//!            &[30.0, 30.0, 5.0, 30.0, 5.0]);
//! ```
//!
//! The low-level path drives the same engines directly:
//!
//! ```
//! use webwave::topology::paper;
//! use webwave::fold::webfold;
//! use webwave::wave::{RateWave, WaveConfig};
//!
//! // The optimal off-line assignment...
//! let s = paper::fig2b();
//! let tlb = webfold(&s.tree, &s.spontaneous);
//! assert_eq!(tlb.load().as_slice(), &[30.0, 30.0, 5.0, 30.0, 5.0]);
//!
//! // ...and the distributed protocol converging to it.
//! let mut wave = RateWave::new(&s.tree, &s.spontaneous, WaveConfig::default());
//! wave.run(2000);
//! assert!(wave.distance_to_tlb() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

pub use ww_cache as cache;
pub use ww_core::baselines;
pub use ww_core::diffusion;
pub use ww_core::docsim;
pub use ww_core::fold;
pub use ww_core::forest;
pub use ww_core::packet;
pub use ww_core::packetsim;
pub use ww_core::stats;
pub use ww_core::throughput;
pub use ww_core::tlb;
pub use ww_core::tracking;
pub use ww_core::wave;
pub use ww_model as model;
pub use ww_net as net;
pub use ww_pdes as pdes;
pub use ww_scenario as scenario;
pub use ww_sim as sim;
pub use ww_topology as topology;
pub use ww_workload as workload;

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The scaling benches build their instances from a seed (a random
    /// tree of bounded depth plus uniform demand); equal seeds must give
    /// equal instances, or bench runs are not comparable.
    #[test]
    fn scaling_scenario_is_deterministic() {
        let build = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let tree = crate::topology::random_tree_of_depth(&mut rng, 200, 8);
            let rates = crate::workload::random_uniform(&mut rng, &tree, 0.0, 100.0);
            (tree, rates)
        };
        let (t1, r1) = build(42);
        let (t2, r2) = build(42);
        assert_eq!(t1.len(), 200);
        assert_eq!(t1, t2);
        assert_eq!(r1.as_slice(), r2.as_slice());
    }
}
