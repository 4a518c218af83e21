//! [`ShardHost`]: one participant of a partitioned packet run — the
//! replicated `SimCore` plus the shards it holds, **all, one or none**,
//! each with its links.
//!
//! Every packet engine but the sequential one is a participant of this
//! one type:
//!
//! * the in-process [`ParPacketSim`](crate::ParPacketSim) is a host that
//!   holds every shard, wired by SPSC rings, plus the rebalance
//!   controller;
//! * a `ww-dist` worker process holds one shard, wired by sockets;
//! * the `ww-dist` coordinator keeps a replica that holds none — the
//!   shared bookkeeping (world, partition, horizon, trace) it needs to
//!   mirror barrier mutations and assemble reports.
//!
//! A host dials one wire per directed cut of the partition that touches
//! a shard it holds — the one `cut_pairs` loop, over rings or sockets —
//! runs each epoch over them ([`ShardHost::run_epoch`]), and applies
//! every [`BarrierOp`] through the one barrier path of
//! `ww_core::packet::driver` — so every engine is bit-identical to the
//! sequential one by construction.
//!
//! Every participant derives the partition from the same
//! `(tree, shard_hint)` pair via [`partition_forest`], which is a pure
//! function of the parent array — no partition data ever crosses the
//! network, only a digest of it, so that two builds which disagree fail
//! at the handshake instead of diverging silently.

use crate::engine::{run_shard, InLink, OutLink, ShardLinks, PDES_KEYS};
use crate::ops;
use crate::partition::{partition_forest, Partition, PartitionShape};
use crate::rebalance::RebalancePlan;
use crate::transport::{open_ring, LinkError, WireReceiver, WireSender};
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Duration;
use ww_core::packet::driver::{ShardCore, SimCore};
use ww_core::packet::{BarrierOp, BarrierOutcome, PacketCounters, PacketSimConfig, PacketWorld};
use ww_core::stats::ExactSum;
use ww_model::{ModelError, NodeId, Tree};
use ww_net::TrafficLedger;
use ww_sim::{SimQueue, SimTime};
use ww_telemetry::{Counters, Level};
use ww_workload::DocMix;

/// The default stall timeout a distributed participant runs its epochs
/// with: after this long without any progress the epoch returns
/// [`LinkError::Stalled`] instead of spinning forever. In-process runs
/// use `None` — there, the only way a peer goes quiet is a panic, which
/// propagates on its own.
pub const DEFAULT_STALL_TIMEOUT: Duration = Duration::from_secs(10);

/// The ends of the directed wire `src → dst` a dialer hands a host: the
/// sender when the host holds `src`, the receiver when it holds `dst`.
type WireEnds = (Option<Box<dyn WireSender>>, Option<Box<dyn WireReceiver>>);

/// Both ends of a fresh SPSC ring: the wires of a host that holds both
/// sides of every cut.
fn ring(_src: usize, _dst: usize) -> WireEnds {
    let (tx, rx) = open_ring();
    (Some(tx), Some(rx))
}

/// One participant of a partitioned packet-level run: the replicated
/// shared state plus the shards it holds. See the module docs.
#[derive(Debug)]
pub struct ShardHost {
    pub(crate) core: SimCore,
    /// The shards this participant holds, in shard-id order: every one
    /// in process, one on a worker, none on the coordinator's replica.
    pub(crate) held: Vec<ShardCore>,
    /// Each held shard's links, parallel to `held` (and dropped after
    /// the shards).
    pub(crate) links: Vec<ShardLinks>,
    /// What the packer made of the tree, at derivation or at the last
    /// applied rebalance plan (observation only).
    pub(crate) shape: PartitionShape,
    /// Per-directed-cut outbound message counters, persisted across
    /// wire re-dials: inbound merge keys embed this counter, so a
    /// re-dialed wire must continue — never restart — its stream to
    /// keep keys unique against events spilled before the rebalance.
    wire_counters: BTreeMap<(usize, usize), u64>,
    /// `(parks, peak parked)` of the wires re-dials tore down
    /// (observability carries across re-dials).
    retired_parks: (u64, u64),
}

impl ShardHost {
    /// A host holding **no** shard: the coordinator's replica, over the
    /// partition the coordinator derived with [`partition_forest`] (it
    /// needs it before the replica exists, for the assignments it sends
    /// while the replica's world builds). It mirrors barrier mutations
    /// and serves world/partition metadata; [`ShardHost::run_epoch`]
    /// only advances its horizon.
    ///
    /// # Panics
    ///
    /// As [`PacketWorld::new`] on invalid inputs.
    pub fn replica(
        tree: &Tree,
        mix: &DocMix,
        config: PacketSimConfig,
        derived: (Partition, PartitionShape),
    ) -> Self {
        let world = PacketWorld::new(tree, mix, config);
        Self::holding(world, derived, 0..0, None, |_, _| {
            unreachable!("a replica dials no wire")
        })
    }

    /// A host holding every shard of the partition derived from
    /// `(tree, workers)`, wired by SPSC rings — the participant
    /// [`ParPacketSim`](crate::ParPacketSim) runs.
    pub(crate) fn in_process(
        tree: &Tree,
        mix: &DocMix,
        config: PacketSimConfig,
        workers: usize,
    ) -> Self {
        let world = PacketWorld::new(tree, mix, config);
        let derived = partition_forest(tree, workers);
        let all = 0..derived.0.shards();
        Self::holding(world, derived, all, None, ring)
    }

    /// A host holding shard `id` of `derived`, the partition the caller
    /// derived from `(tree, shard_hint)` with [`partition_forest`] — a
    /// distributed worker, which needs it before the host exists (for
    /// the handshake digest and for the data mesh's adjacency). The
    /// world is built from `tree` and `mix`, moved in: a worker decoded
    /// them for this and keeps no other copy. Wire endpoints for the
    /// shard's cut edges are pulled from the two callbacks:
    /// `wire_out(dst)` must yield the sender of the directed wire
    /// `id → dst`, `wire_in(src)` the receiver of `src → id`, for every
    /// adjacent shard. Epochs run with `stall_timeout` (see
    /// [`DEFAULT_STALL_TIMEOUT`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a shard of `derived`, if the partition is
    /// non-trivial and `config.link_delay` is not positive (no
    /// lookahead), or on any input [`PacketWorld::new`] rejects.
    #[allow(clippy::too_many_arguments)]
    pub fn worker_on(
        tree: Tree,
        mix: DocMix,
        config: PacketSimConfig,
        derived: (Partition, PartitionShape),
        id: usize,
        stall_timeout: Option<Duration>,
        mut wire_out: impl FnMut(usize) -> Box<dyn WireSender>,
        mut wire_in: impl FnMut(usize) -> Box<dyn WireReceiver>,
    ) -> Self {
        let world = PacketWorld::from_parts(tree, mix, config);
        Self::holding(world, derived, id..id + 1, stall_timeout, |src, dst| {
            if src == id {
                (Some(wire_out(dst)), None)
            } else {
                (None, Some(wire_in(src)))
            }
        })
    }

    /// A host over `world` split by `derived` that holds the shards
    /// `ids` — all, one or none — and dials their wires through `wire`.
    /// Epochs run with `stall_timeout`.
    fn holding(
        world: PacketWorld,
        (partition, shape): (Partition, PartitionShape),
        ids: Range<usize>,
        stall_timeout: Option<Duration>,
        wire: impl FnMut(usize, usize) -> WireEnds,
    ) -> Self {
        assert!(
            ids.end <= partition.shards(),
            "shard {} out of range: the partition has {} shards",
            ids.end - 1,
            partition.shards()
        );
        assert!(
            ids.is_empty() || world.config.has_lookahead(partition.shards()),
            "the parallel packet engine needs a positive link delay: \
             cut-edge latency is its conservative lookahead"
        );
        let held: Vec<ShardCore> = ids
            .map(|id| ShardCore::new(&world, &partition, id))
            .collect();
        let links = held
            .iter()
            .map(|_| ShardLinks::new(&world, stall_timeout))
            .collect();
        let mut host = ShardHost {
            core: SimCore::new(world, partition),
            held,
            links,
            shape,
            wire_counters: BTreeMap::new(),
            retired_parks: (0, 0),
        };
        host.dial(SimTime::ZERO, wire);
        host
    }

    /// Dials one wire per directed cut `src → dst` of the partition
    /// that touches a held shard, replacing the held shards' wires: the
    /// sender joins `src`'s links and continues the cut's persisted
    /// message counter, the receiver joins `dst`'s and starts from
    /// `promise`.
    fn dial(&mut self, promise: SimTime, mut wire: impl FnMut(usize, usize) -> WireEnds) {
        let slot = |s: usize| self.held.iter().position(|shard| shard.id == s);
        let mut ends: Vec<(Vec<OutLink>, Vec<InLink>)> =
            self.held.iter().map(|_| Default::default()).collect();
        for (src, dst) in self.core.partition.cut_pairs(&self.core.world.tree) {
            let (out, inbound) = (slot(src), slot(dst));
            if out.is_none() && inbound.is_none() {
                continue;
            }
            let (tx, rx) = wire(src, dst);
            if let (Some(i), Some(tx)) = (out, tx) {
                let mut link = OutLink::new(dst, tx);
                link.counter = self.wire_counters.get(&(src, dst)).copied().unwrap_or(0);
                ends[i].0.push(link);
            }
            if let (Some(i), Some(rx)) = (inbound, rx) {
                let mut link = InLink::new(src, rx);
                link.promise = promise;
                ends[i].1.push(link);
            }
        }
        let shards = self.core.partition.shards();
        for (links, (outs, ins)) in self.links.iter_mut().zip(ends) {
            links.dial(shards, outs, ins);
        }
    }

    /// Applies a rebalance plan at the current barrier: the migration
    /// of [`ops::apply_rebalance`] over the held shards — a host that
    /// holds every shard — then a re-dial of the new partition's cut
    /// pairs over fresh rings. Returns the pending items re-homed.
    ///
    /// The re-dial is safe exactly at a barrier: the `EpochEnd`
    /// handshake drained every wire, overflow queue and merge stage, so
    /// the old wires hold nothing. It is deterministic: the cut pairs
    /// are a pure function of the partition, per-cut message counters
    /// persist across re-dials (inbound merge keys embed them), and
    /// fresh promises start at the truthful `horizon + lookahead` every
    /// sender already guarantees.
    pub(crate) fn apply_rebalance(&mut self, plan: RebalancePlan) -> u64 {
        let moved = ops::apply_rebalance(&mut self.core, &mut self.held, &plan);
        self.shape = plan.shape;
        self.retired_parks = self.wire_stats();
        for (shard, links) in self.held.iter().zip(&self.links) {
            for link in &links.out_links {
                debug_assert!(link.overflow.is_empty(), "overflow drained at the barrier");
                self.wire_counters
                    .insert((shard.id, link.peer), link.counter);
            }
        }
        let lookahead = SimTime::from_secs(self.core.world.config.link_delay);
        self.dial(self.core.horizon + lookahead, ring);
        moved
    }

    /// The replicated core: world, partition, horizon and the trace of
    /// the samples recorded so far.
    pub fn core(&self) -> &SimCore {
        &self.core
    }

    /// What the packer made of the tree when the partition was derived
    /// (observability: `pdes.partition.{pieces,cut_edges,phase_imbalance}`).
    pub fn partition_shape(&self) -> PartitionShape {
        self.shape
    }

    /// Records the sample at the boundary the last epoch reached — see
    /// [`SimCore::record_sample`]; `sum` must fold every shard's partial.
    pub fn record_sample(&mut self, sum: &ExactSum) {
        self.core.record_sample(sum);
    }

    /// The only epoch advance: runs every held shard's event loop up to
    /// the epoch boundary `t_end`, conservatively synchronized over its
    /// wires — a lone shard on the caller's thread, several on one
    /// scoped thread each — then moves the horizon there. With no shard
    /// held it only moves the horizon. With `sample` set, returns the
    /// held shards' exact partials of the convergence-trace sample,
    /// each folded at the quiesced boundary and merged in shard order.
    ///
    /// # Errors
    ///
    /// [`LinkError`] when a wire died or nothing made progress within
    /// the stall timeout (the first such shard's, in shard order). The
    /// epoch is then torn mid-flight and the simulation cannot
    /// continue; distributed drivers surface this as a run failure.
    pub fn run_epoch(
        &mut self,
        t_end: SimTime,
        sample: bool,
    ) -> Result<Option<ExactSum>, LinkError> {
        if t_end <= self.core.horizon {
            return Ok(None);
        }
        let sim = &self.core;
        let shards = self.held.iter_mut().zip(&mut self.links);
        let partials: Vec<_> = if shards.len() < 2 {
            shards
                .map(|(shard, links)| run_shard(shard, links, sim, t_end, sample))
                .collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .map(|(shard, links)| {
                        scope.spawn(move || run_shard(shard, links, sim, t_end, sample))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            })
        };
        // Exactness makes the merge order irrelevant; shard order is
        // used for definiteness.
        let mut merged = sample.then(ExactSum::new);
        for partial in partials {
            if let (Some(sum), Some(p)) = (&mut merged, partial?) {
                sum.merge(&p);
            }
        }
        self.core.horizon = t_end;
        Ok(merged)
    }

    /// Serve rates of the held shards' member nodes at `now` (seconds),
    /// shard by shard in member order — a worker's slice of the final
    /// report. Empty for a replica.
    pub fn member_rates(&mut self, now: f64) -> Vec<f64> {
        let mut rates = Vec::new();
        for shard in &mut self.held {
            rates.extend((0..shard.nodes.len()).map(|li| shard.nodes.measured_load(li, now)));
        }
        rates
    }

    /// The held shards' traffic ledgers, merged (empty for a replica).
    pub fn ledger(&self) -> TrafficLedger {
        let mut ledger = TrafficLedger::new();
        for shard in &self.held {
            ledger.merge(&shard.ledger);
        }
        ledger
    }

    /// The held shards' protocol counters, merged (zero for a replica).
    pub fn counters(&self) -> PacketCounters {
        let mut counters = PacketCounters::default();
        for shard in &self.held {
            counters.merge(&shard.counters);
        }
        counters
    }

    /// Events the held shards have processed so far.
    pub fn processed_events(&self) -> u64 {
        self.held.iter().map(|shard| shard.queue.processed()).sum()
    }

    /// Back-pressure observability of every outbound wire the held
    /// shards ever had: `(total messages ever parked, peak depth of any
    /// overflow queue)`.
    pub fn wire_stats(&self) -> (u64, u64) {
        self.links
            .iter()
            .map(ShardLinks::wire_stats)
            .fold(self.retired_parks, |(parks, peak), (p, k)| {
                (parks + p, peak.max(k))
            })
    }

    /// `(messages, bytes)` the held shards have written to their
    /// outbound data wires (zero for a replica, or over in-process
    /// wires).
    pub fn wire_traffic(&self) -> (u64, u64) {
        self.links
            .iter()
            .map(ShardLinks::traffic)
            .fold((0, 0), |(msgs, bytes), (m, b)| (msgs + m, bytes + b))
    }

    /// Selects the observation level of the barrier path and of the
    /// held shards' hot-path counters over [`PDES_KEYS`] (phase timers
    /// too at [`Level::Full`]), zeroing prior observations. Observation
    /// only, as on
    /// [`ParPacketSim::set_telemetry`](crate::ParPacketSim::set_telemetry).
    pub fn set_telemetry(&mut self, level: Level) {
        self.core.set_telemetry(level);
        for links in &mut self.links {
            links.set_telemetry(level);
        }
    }

    /// The held shards' hot-path counters, merged kind-aware, one value
    /// per [`PDES_KEYS`] entry in table order — zeros while unarmed, and
    /// for a replica. What a distributed worker ships home for the
    /// coordinator to merge.
    pub fn pdes_counters(&self) -> Vec<u64> {
        let mut merged = Counters::new(PDES_KEYS, Level::Counters);
        for links in &self.links {
            merged.merge_from(&links.tel);
        }
        PDES_KEYS.iter().map(|&key| merged.get(key)).collect()
    }

    /// Whether the control link from `node` to its parent is failed.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn link_failed(&self, node: NodeId) -> bool {
        self.core.world.link_failed(node)
    }

    /// Opens a barrier batch. Every participant of a distributed run
    /// opens and commits the same batch so their replicated state stays
    /// bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if a batch is already open.
    pub fn begin_batch(&mut self) {
        self.core.begin_batch();
    }

    /// Closes the batch: one deferred oracle refresh, one composed
    /// queue-surgery sweep over every held shard, one arrival
    /// re-resolution.
    ///
    /// # Panics
    ///
    /// Panics if no batch is open.
    pub fn commit_batch(&mut self) {
        self.core.commit_batch(&mut self.held);
    }

    /// Applies one [`BarrierOp`] at the current barrier. Must be applied
    /// on **every** participant at the same barrier, in the same order;
    /// with no batch open it runs as a batch of one locally.
    ///
    /// # Errors
    ///
    /// The model's rejection of the op — the same on every participant,
    /// since the check reads only replicated state. A rejected op
    /// mutates nothing.
    pub fn apply_op(&mut self, op: &BarrierOp) -> Result<BarrierOutcome, ModelError> {
        self.core.apply_op(&mut self.held, op)
    }
}
