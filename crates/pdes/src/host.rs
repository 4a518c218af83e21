//! [`ShardHost`]: one participant of a partitioned packet run that
//! holds **at most one shard**.
//!
//! The in-process [`ParPacketSim`](crate::ParPacketSim) owns every
//! shard and drives them on threads. A *distributed* run spreads the
//! same shards over OS processes: each worker process hosts exactly one
//! shard, and the coordinator hosts none — it keeps a replica of the
//! shared bookkeeping (world, partition, horizon) to mirror barrier
//! mutations and assemble reports. `ShardHost` is the harness both
//! sides use. It owns the shard driver's `SimCore` plus the shards it
//! holds (one `ShardCore` with its links, or none), runs epochs over
//! externally supplied wires (sockets, in the `ww-dist` crate), and
//! applies every [`BarrierOp`] through the one barrier path of
//! `ww_core::packet::driver` — so a distributed run is bit-identical to
//! the threaded and sequential ones by construction.
//!
//! Every participant derives the partition from the same
//! `(tree, shard_hint)` pair via [`partition_forest`], which is a pure
//! function of the parent array — no partition data ever crosses the
//! network, only a digest of it, so that two builds which disagree fail
//! at the handshake instead of diverging silently.

use crate::engine::{run_shard, InLink, OutLink, ShardLinks, PDES_KEYS};
use crate::partition::{partition_forest, Partition, PartitionShape};
use crate::transport::{LinkError, WireReceiver, WireSender};
use std::time::Duration;
use ww_core::packet::driver::{ShardCore, SimCore};
use ww_core::packet::{BarrierOp, BarrierOutcome, PacketCounters, PacketSimConfig, PacketWorld};
use ww_model::{ModelError, NodeId, Tree};
use ww_net::TrafficLedger;
use ww_sim::{SimQueue, SimTime};
use ww_stats::ExactSum;
use ww_telemetry::Level;
use ww_workload::DocMix;

/// The default stall timeout a distributed participant runs its epochs
/// with: after this long without any progress the epoch returns
/// [`LinkError::Stalled`] instead of spinning forever. In-process runs
/// use `None` — there, the only way a peer goes quiet is a panic, which
/// propagates on its own.
pub const DEFAULT_STALL_TIMEOUT: Duration = Duration::from_secs(10);

/// One participant of a partitioned packet-level run: the replicated
/// shared state plus at most one locally held shard. See the module
/// docs.
#[derive(Debug)]
pub struct ShardHost {
    core: SimCore,
    /// The shards this participant holds: one (with its links) on a
    /// worker, none on the coordinator's replica.
    held: Vec<ShardCore>,
    links: Option<ShardLinks>,
    /// What the packer made of the tree (observation only).
    shape: PartitionShape,
}

impl ShardHost {
    /// A host holding **no** shard: the coordinator's replica. It
    /// mirrors barrier mutations and serves world/partition metadata;
    /// [`ShardHost::run_epoch`] only advances its horizon.
    ///
    /// # Panics
    ///
    /// As [`PacketWorld::new`] on invalid inputs.
    pub fn replica(tree: &Tree, mix: &DocMix, config: PacketSimConfig, shard_hint: usize) -> Self {
        assert!(shard_hint > 0, "need at least one shard");
        Self::replica_on(tree, mix, config, partition_forest(tree, shard_hint))
    }

    /// [`ShardHost::replica`] over a partition the caller derived.
    fn replica_on(
        tree: &Tree,
        mix: &DocMix,
        config: PacketSimConfig,
        (partition, shape): (Partition, PartitionShape),
    ) -> Self {
        ShardHost {
            core: SimCore::new(PacketWorld::new(tree, mix, config), partition),
            held: Vec::new(),
            links: None,
            shape,
        }
    }

    /// A host holding shard `id` of the partition derived from
    /// `(tree, shard_hint)` — a distributed worker. Wire endpoints for
    /// the shard's cut edges are pulled from the two callbacks:
    /// `wire_out(dst)` must yield the sender of the directed wire
    /// `id → dst`, `wire_in(src)` the receiver of `src → id`, for every
    /// adjacent shard. Epochs run with `stall_timeout` (see
    /// [`DEFAULT_STALL_TIMEOUT`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a shard of the derived partition, if the
    /// partition is non-trivial and `config.link_delay` is not positive
    /// (no lookahead), or on any input [`PacketWorld::new`] rejects.
    #[allow(clippy::too_many_arguments)]
    pub fn worker(
        tree: &Tree,
        mix: &DocMix,
        config: PacketSimConfig,
        shard_hint: usize,
        id: usize,
        stall_timeout: Option<Duration>,
        wire_out: impl FnMut(usize) -> Box<dyn WireSender>,
        wire_in: impl FnMut(usize) -> Box<dyn WireReceiver>,
    ) -> Self {
        Self::worker_on(
            tree,
            mix,
            config,
            partition_forest(tree, shard_hint),
            id,
            stall_timeout,
            wire_out,
            wire_in,
        )
    }

    /// [`ShardHost::worker`] over a partition the caller has already
    /// derived with [`partition_forest`] — a `ww-dist` worker needs it
    /// before the host exists (for the handshake digest and for the
    /// data mesh's adjacency) and should not pack the tree twice.
    ///
    /// # Panics
    ///
    /// As [`ShardHost::worker`].
    #[allow(clippy::too_many_arguments)]
    pub fn worker_on(
        tree: &Tree,
        mix: &DocMix,
        config: PacketSimConfig,
        derived: (Partition, PartitionShape),
        id: usize,
        stall_timeout: Option<Duration>,
        mut wire_out: impl FnMut(usize) -> Box<dyn WireSender>,
        mut wire_in: impl FnMut(usize) -> Box<dyn WireReceiver>,
    ) -> Self {
        let mut host = Self::replica_on(tree, mix, config, derived);
        let SimCore {
            world, partition, ..
        } = &host.core;
        assert!(
            id < partition.shards(),
            "shard {id} out of range: the partition has {} shards",
            partition.shards()
        );
        assert!(
            partition.shards() == 1 || config.link_delay > 0.0,
            "the parallel packet engine needs a positive link delay: \
             cut-edge latency is its conservative lookahead"
        );
        let mut outs = Vec::new();
        let mut ins = Vec::new();
        for (src, dst) in partition.cut_pairs(tree) {
            if src == id {
                outs.push(OutLink::new(dst, wire_out(dst)));
            }
            if dst == id {
                ins.push(InLink::new(src, wire_in(src)));
            }
        }
        host.links = Some(ShardLinks::new(
            world,
            partition.shards(),
            outs,
            ins,
            stall_timeout,
        ));
        host.held.push(ShardCore::new(world, partition, id));
        host
    }

    /// The shard this host holds, if any.
    pub fn owned_shard(&self) -> Option<usize> {
        self.held.first().map(|shard| shard.id)
    }

    /// Number of shards in the (derived) partition — the worker count
    /// of the distributed run.
    pub fn shards(&self) -> usize {
        self.core.partition.shards()
    }

    /// The node→shard partition every participant derived.
    pub fn partition(&self) -> &Partition {
        &self.core.partition
    }

    /// What the packer made of the tree when the partition was derived
    /// (observability: `pdes.partition.{pieces,cut_edges,phase_imbalance}`).
    pub fn partition_shape(&self) -> PartitionShape {
        self.shape
    }

    /// The shared world (topology, mix, oracle, configuration) as this
    /// participant currently sees it.
    pub fn world(&self) -> &PacketWorld {
        &self.core.world
    }

    /// Simulated time the run has reached (last barrier).
    pub fn horizon(&self) -> SimTime {
        self.core.horizon
    }

    /// Enables or disables span timing of the replicated world's oracle
    /// refreshes (see [`PacketWorld::set_telemetry_timing`]).
    /// Observation only.
    pub fn set_telemetry_timing(&mut self, timed: bool) {
        self.core.world.set_telemetry_timing(timed);
    }

    /// Runs the held shard's event loop up to the epoch boundary
    /// `t_end` (conservatively synchronized over its wires), then moves
    /// the horizon there. With `sample` set, returns the shard's exact
    /// partial of the convergence-trace sample, folded at the quiesced
    /// boundary. A host with no shard only advances its horizon.
    ///
    /// # Errors
    ///
    /// [`LinkError`] when a wire died or nothing made progress within
    /// the stall timeout. The epoch is then torn mid-flight and the
    /// simulation cannot continue; distributed drivers surface this as
    /// a run failure.
    pub fn run_epoch(
        &mut self,
        t_end: SimTime,
        sample: bool,
    ) -> Result<Option<ExactSum>, LinkError> {
        if t_end <= self.core.horizon {
            return Ok(None);
        }
        let partial = match (self.held.first_mut(), &mut self.links) {
            (Some(shard), Some(links)) => run_shard(shard, links, &self.core, t_end, sample)?,
            _ => None,
        };
        self.core.horizon = t_end;
        Ok(partial)
    }

    /// Serve rates of the held shard's member nodes at `now` (seconds),
    /// in member order — the worker's slice of the final report. Empty
    /// for a replica.
    pub fn member_rates(&mut self, now: f64) -> Vec<f64> {
        self.held.first_mut().map_or_else(Vec::new, |shard| {
            (0..shard.nodes.len())
                .map(|li| shard.nodes.measured_load(li, now))
                .collect()
        })
    }

    /// Global node ids of the held shard's members, in the same order
    /// as [`ShardHost::member_rates`].
    pub fn members(&self) -> &[NodeId] {
        match self.held.first() {
            Some(shard) => &self.core.partition.members[shard.id],
            None => &[],
        }
    }

    /// The held shard's traffic ledger (empty for a replica).
    pub fn ledger(&self) -> TrafficLedger {
        self.held
            .first()
            .map_or_else(TrafficLedger::new, |shard| shard.ledger.clone())
    }

    /// The held shard's protocol counters (zero for a replica).
    pub fn counters(&self) -> PacketCounters {
        self.held
            .first()
            .map_or_else(PacketCounters::default, |shard| shard.counters)
    }

    /// Events the held shard has processed so far.
    pub fn processed_events(&self) -> u64 {
        self.held.first().map_or(0, |shard| shard.queue.processed())
    }

    /// Back-pressure observability of the held shard's outbound wires:
    /// `(total messages ever parked, peak depth of any overflow queue)`.
    pub fn wire_stats(&self) -> (u64, u64) {
        self.links.as_ref().map_or((0, 0), ShardLinks::wire_stats)
    }

    /// `(messages, bytes)` the held shard has written to its outbound
    /// data wires (zero for a replica, or over in-process wires).
    pub fn wire_traffic(&self) -> (u64, u64) {
        self.links.as_ref().map_or((0, 0), ShardLinks::traffic)
    }

    /// Arms the held shard's hot-path counters over [`PDES_KEYS`] at
    /// `level` (phase timers too at [`Level::Full`]), zeroing prior
    /// observations. Observation only, as on
    /// [`ParPacketSim::set_telemetry`](crate::ParPacketSim::set_telemetry).
    pub fn set_telemetry(&mut self, level: Level) {
        if let Some(links) = &mut self.links {
            links.set_telemetry(level);
        }
    }

    /// The held shard's hot-path counters, one value per [`PDES_KEYS`]
    /// entry in table order — zeros while unarmed, and for a replica.
    /// What a distributed worker ships home for the coordinator to
    /// merge.
    pub fn pdes_counters(&self) -> Vec<u64> {
        let tel = self.links.as_ref().map(ShardLinks::counters);
        (0..PDES_KEYS.len())
            .map(|id| tel.map_or(0, |tel| tel.get(id)))
            .collect()
    }

    /// Whether the control link from `node` to its parent is failed.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn link_failed(&self, node: NodeId) -> bool {
        self.core.failed_up[node.index()]
    }

    /// Opens a barrier batch — the barrier-replicated twin of
    /// [`ParPacketSim`](crate::ParPacketSim)'s
    /// [`begin_batch`](ww_core::packetsim::PacketBackend::begin_batch).
    /// Every participant of a distributed run opens and commits the same
    /// batch so their replicated state stays bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if a batch is already open.
    pub fn begin_batch(&mut self) {
        self.core.begin_batch();
    }

    /// Closes the batch: one deferred oracle refresh, one composed
    /// queue-surgery sweep over the held shard (if any), one arrival
    /// re-resolution.
    ///
    /// # Panics
    ///
    /// Panics if no batch is open.
    pub fn commit_batch(&mut self) {
        self.core.commit_batch(&mut self.held);
    }

    /// Applies one [`BarrierOp`] at the current barrier — the
    /// barrier-replicated twin of [`ParPacketSim`](crate::ParPacketSim)'s
    /// [`apply_op`](ww_core::packetsim::PacketBackend::apply_op). Must be
    /// applied on **every** participant at the same barrier, in the same
    /// order; with no batch open it runs as a batch of one locally.
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
