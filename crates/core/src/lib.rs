//! # ww-core — WebWave: tree load balance, WebFold, and the WebWave protocol
//!
//! This crate is the paper's primary contribution, in code:
//!
//! * [`tlb`] — formal definitions of **Tree Load Balance** (Definitions
//!   1-2), Constraints 1 (root forwards nothing) and 2 (*no sibling
//!   sharing*), plus checkers for every lemma,
//! * [`fold`] — **WebFold**, the provably optimal off-line algorithm that
//!   computes the TLB assignment by folding the routing tree (Figure 3),
//! * [`wave`] — **WebWave**, the fully distributed diffusion protocol at
//!   the paper's rate level (Figure 5), converging to TLB,
//! * [`docsim`] — the document-level engine with cache copies, *potential
//!   barriers* and **tunneling** (Section 5.2, Figure 7),
//! * [`packetsim`] — the packet-level event-driven system: Poisson request
//!   streams, routers with injected filters, gossip and diffusion timers,
//! * [`world`] — the one document world (tree, universe, demand mix, link
//!   state, oracle) that [`docsim`] and the packet engines both mutate.
//!
//! Around it sit the paper's rate-level background and comparisons:
//!
//! * [`diffusion`] — the classic GLE diffusion substrate of Section 2
//!   (Cybenko), with the `safe_alpha` every rate engine defaults to,
//! * [`baselines`] — the schemes WebWave is argued against (no cache,
//!   directory cache, DNS round-robin, GLE migration),
//! * [`forest`] — WebWave over a forest of overlapping routing trees, the
//!   paper's future work (Section 7),
//! * [`stats`] — convergence traces, the `a * gamma^t` regression of
//!   Section 5.1 and the exact sum the sharded engines fold samples with.
//!
//! # Quickstart
//!
//! ```
//! use ww_topology::paper;
//! use ww_core::fold::webfold;
//! use ww_core::wave::{RateWave, WaveConfig};
//!
//! // Off-line optimum.
//! let s = paper::fig2b();
//! let tlb = webfold(&s.tree, &s.spontaneous);
//! assert_eq!(tlb.load().as_slice(), &[30.0, 30.0, 5.0, 30.0, 5.0]);
//!
//! // The distributed protocol converges to it using local information only.
//! let mut wave = RateWave::new(&s.tree, &s.spontaneous, WaveConfig::default());
//! wave.run(2000);
//! assert!(wave.distance_to_tlb() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod diffusion;
pub mod docsim;
pub mod fold;
pub mod forest;
pub mod packet;
pub mod packetsim;
pub mod reference;
pub mod stats;
pub mod throughput;
pub mod tlb;
pub mod tracking;
pub mod wave;
pub mod world;

pub use docsim::{DocSim, DocSimConfig, DocSimStats};
pub use fold::{webfold, webfold_with_order, FoldEvent, FoldOrder, FoldedTree};
pub use packetsim::{PacketBackend, PacketSim, PacketSimConfig, PacketSimReport};
pub use throughput::{saturation_capacity, throughput_at_capacity, ThroughputReport};
pub use tlb::{
    check_feasibility, check_monotone_non_increasing, check_zero_interfold_flow, gle_feasible,
    is_tlb, potential_barrier_nodes, random_feasible_assignment, Feasibility,
};
pub use tracking::{track, TrackingConfig, TrackingResult};
pub use wave::{RateWave, WaveConfig};
