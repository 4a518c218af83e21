//! # ww-pdes — sharded parallel discrete-event runtime for packet-level
//! WebWave
//!
//! The sequential [`PacketSim`](ww_core::packetsim::PacketSim) simulates
//! every router in one event loop; this crate runs the **same protocol**
//! (the node-local handlers of [`ww_core::packet`]) across worker
//! threads:
//!
//! * [`partition`] packs the routing tree onto shards of roughly equal
//!   size, each a set of subtree pieces — cut edges are tree edges,
//!   whose link latency is the conservative lookahead between shards;
//! * [`ParPacketSim`] runs one event loop per shard, synchronizing via
//!   timestamped wire messages with null-message promises
//!   (Chandy–Misra–Bryant), quiescing at every diffusion-epoch boundary
//!   to sample the convergence trace. The shard-to-shard hot path rides
//!   lock-free SPSC rings with per-lookahead-window batching and a
//!   merge stage per wire that holds everything the wire has delivered;
//! * [`rebalance`] makes the partition *adaptive*: at epoch barriers a
//!   pure function of the deterministic per-node event counters can
//!   re-pack the tree by observed load (the same packer, event
//!   weights) and migrate subtree ownership — without changing a
//!   single bit of the simulated trace.
//!
//! The result is **bit-identical** to the sequential simulator at every
//! worker count: all randomness is content-keyed per node, all
//! cross-node effects are timestamped messages, and all observation
//! happens at barrier instants — so sharding cannot perturb any number
//! the simulation reports. `docs/parallel.md` walks through the design
//! and its determinism rules.
//!
//! # Example
//!
//! ```
//! use ww_core::packetsim::PacketSimConfig;
//! use ww_model::{DocId, NodeId, Tree};
//! use ww_pdes::ParPacketSim;
//! use ww_workload::DocMix;
//!
//! let tree = Tree::from_parents(&[None, Some(0), Some(0), Some(1)]).unwrap();
//! let mut mix = DocMix::new(4);
//! mix.set(NodeId::new(3), DocId::new(1), 200.0);
//! let mut sim = ParPacketSim::new(&tree, &mix, PacketSimConfig::default(), 4);
//! let report = sim.run(20.0);
//! assert!(report.served_requests > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod engine;
pub mod host;
#[cfg(test)]
mod migration_props;
mod ops;
#[cfg(test)]
mod packer_props;
pub mod partition;
pub mod rebalance;
pub mod transport;

pub use engine::{ParPacketSim, PdesTuning, PDES_KEYS, PDES_PHASES};
pub use host::{ShardHost, DEFAULT_STALL_TIMEOUT};
pub use partition::{partition_forest, partition_subtrees, Partition, PartitionShape};
pub use rebalance::{rebalance_plan, LoadSummary, Migration, RebalanceConfig, RebalancePlan};
pub use transport::{LinkError, StageError, Wire, WireReceiver, WireSender};
