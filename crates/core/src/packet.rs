//! Shared node logic of the packet-level WebWave protocol.
//!
//! Every packet-level engine — the sequential [`PacketSim`], the sharded
//! parallel engine in the `ww-pdes` crate, a `ww-dist` worker — runs the
//! one shard driver of [`driver`], which executes exactly this module's
//! handlers. Everything here is **node-local by construction**:
//! a handler may read the static [`PacketWorld`], mutate the one row of
//! its driver's [`NodeSlab`] the event targets (handed to it as a
//! borrowed [`NodeMut`] view), append follow-up events to the
//! [`NodeCtx`] outbox, and bump shard-mergeable counters — and nothing
//! else. No handler reads another node's row, so the global event
//! interleaving across nodes cannot influence any node's evolution, which
//! is what lets a sharded run replay the sequential run bit for bit.
//!
//! Three design rules keep it that way:
//!
//! 1. **Content-keyed randomness.** Every random draw comes from a
//!    per-node stream forked purely from `(master seed, node, purpose)`
//!    and consumed in node-local event order — never from global
//!    sequence counters (which would depend on the cross-node
//!    interleaving and therefore on the sharding).
//! 2. **Message-passing only.** A handler touches the one row the event
//!    targets; cross-node effects travel as timestamped events along
//!    tree edges, each paying at least one
//!    [`PacketSimConfig::link_delay`]. Tunneling, which used to inspect
//!    ancestor caches synchronously, is a [`PacketEvent::TunnelProbe`]
//!    climbing hop by hop and a [`PacketEvent::TunnelGrant`] descending
//!    back — the link latency is the parallel engine's lookahead.
//! 3. **Barrier-time observation.** The convergence trace is sampled at
//!    diffusion-epoch boundaries (`k * diffusion_period`) by the driver,
//!    not inside per-node handlers. That turns the old `O(n²)` per-period
//!    observer into `O(n)` and gives the parallel engine a globally
//!    consistent instant at which to aggregate.
//!
//! [`PacketSim`]: crate::packetsim::PacketSim

pub mod driver;
mod slab;

pub use slab::{ChildState, NodeHead, NodeMut, NodeRef, NodeSlab, Set, StreamCell, TokenBucket};

use crate::world::{DocWorld, UniverseGrowth, WorldConfig};
use ww_cache::{plan_push_dense, plan_shed_dense, DenseRateSlice};
use ww_model::{DocId, LeafRemoval, NodeId, Tree};
use ww_net::{DocRequest, DocResponse, RequestId, TrafficClass, TrafficLedger};
use ww_sim::{exp_delay, SimQueue, SimRng, SimTime, StreamRng};
use ww_workload::DocMix;

ww_telemetry::keys! {
    /// Every telemetry key `ww-core` emits (`docs/observability.md`):
    /// the world's oracle maintenance ([`crate::world::WorldTel`]), then
    /// the tables below.
    pub static CORE_TELEMETRY = [
        ORACLE_REFOLDS: Sum Run "core.oracle.refolds",
        ORACLE_FULL_SWEEPS: Sum Run "core.oracle.full_sweeps",
        ORACLE_REFRESH: Phase Wall "core.phase.oracle_refresh",
        STRUCTURAL: Phase Wall "core.phase.structural",
    ];
    /// Counter slab of the barrier path. The per-packet hot loop
    /// records nothing.
    pub(crate) static CORE_KEYS = [
        BARRIER_OPS: Sum Run "core.barrier.ops",
        SURGERY_SWEEPS: Sum Partition "core.surgery.sweeps",
        SURGERY_REMOVED: Sum Run "core.surgery.removed",
    ];
    /// Phase timers of the barrier path.
    pub(crate) static CORE_PHASES = [
        ARRIVAL_REBUILD: Phase Wall "core.phase.arrival_rebuild",
        QUEUE_SURGERY: Phase Wall "core.phase.queue_surgery",
        UNIVERSE_GROWTH: Phase Wall "core.phase.universe_growth",
    ];
    /// The sequential driver's queue and node state
    /// ([`driver::ShardCore::telemetry`]).
    pub(crate) static CORE_SHARD = [
        QUEUE_LANE_ADMITTED: Sum Run "core.queue.lane_admitted",
        QUEUE_LANE_FALLBACK: Sum Run "core.queue.lane_fallback",
        QUEUE_LANE_HW: HighWater Run "core.queue.lane_hw",
        QUEUE_RADIX_HW: HighWater Run "core.queue.radix_hw",
        QUEUE_LANE_LEN: Sum Run "core.queue.lane_len",
        STATE_BYTES: Sum Run "core.state.bytes",
        STATE_NODES: Sum Run "core.state.nodes",
    ];
}

/// Stream tag of per-node arrival randomness.
const STREAM_ARRIVAL: u64 = 0xA221_0000;
/// Stream tag of per-node gossip-loss randomness.
const STREAM_GOSSIP: u64 = 0xB0B0_0000;
/// Stream tag folded in (with the world generation) when the arrival
/// stage is re-resolved at a barrier, so rebuilt streams are fresh yet
/// remain pure functions of `(seed, node, doc, generation)`.
const STREAM_REBUILD: u64 = 0x4EB1_0000;

/// Configuration of a packet-level run (shared by the sequential and the
/// sharded parallel driver).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketSimConfig {
    /// Master random seed.
    pub seed: u64,
    /// One-way per-hop link latency, seconds.
    pub link_delay: f64,
    /// How often each node gossips its measured load to tree neighbors.
    pub gossip_period: f64,
    /// How often each node runs its diffusion step.
    pub diffusion_period: f64,
    /// Rate-measurement window, seconds.
    pub measure_window: f64,
    /// Diffusion parameter; `None` selects `1/(max_degree + 1)`.
    pub alpha: Option<f64>,
    /// Enable tunneling across potential barriers.
    pub tunneling: bool,
    /// Underloaded-with-no-action periods tolerated before tunneling.
    pub barrier_patience: usize,
    /// Probability that a gossip message is lost (failure injection).
    pub gossip_loss: f64,
    /// Relative hysteresis: a load difference must exceed this fraction of
    /// the larger load before the protocol acts. Guards against reacting
    /// to measurement noise.
    pub hysteresis: f64,
    /// Additional absolute deadband in units of the Poisson standard
    /// deviation `sqrt(load)`; with rate-measured loads, differences below
    /// `noise_sigmas * sqrt(L)` are statistically indistinguishable from
    /// sampling noise.
    pub noise_sigmas: f64,
}

impl Default for PacketSimConfig {
    fn default() -> Self {
        PacketSimConfig {
            seed: 1997,
            link_delay: 0.005,
            gossip_period: 0.5,
            diffusion_period: 1.0,
            measure_window: 1.0,
            alpha: None,
            tunneling: true,
            barrier_patience: 2,
            gossip_loss: 0.0,
            hysteresis: 0.05,
            noise_sigmas: 3.0,
        }
    }
}

impl PacketSimConfig {
    /// The one statement of which values a world, its timers and its
    /// meters accept: `Err` names the first field out of range. A delay
    /// is finite and non-negative, a period or window finite and
    /// positive, a configured `alpha` inside `(0, 1)` and the gossip loss
    /// a probability. [`PacketWorld::new`] asserts it; a decoder can
    /// refuse a configuration with it before building anything.
    pub fn check(&self) -> Result<(), &'static str> {
        let positive = |secs: f64| secs.is_finite() && secs > 0.0;
        if !(self.link_delay.is_finite() && self.link_delay >= 0.0) {
            Err("link delay")
        } else if !positive(self.gossip_period) {
            Err("gossip period")
        } else if !positive(self.diffusion_period) {
            Err("diffusion period")
        } else if !positive(self.measure_window) {
            Err("measure window")
        } else if self.alpha.is_some_and(|a| !(a > 0.0 && a < 1.0)) {
            Err("diffusion alpha")
        } else if !(0.0..=1.0).contains(&self.gossip_loss) {
            Err("gossip loss")
        } else {
            Ok(())
        }
    }

    /// Whether a run cut into `shards` shards has the lookahead the
    /// conservative engines synchronise on: cut-edge latency, so a
    /// positive link delay as soon as there is a cut.
    pub fn has_lookahead(&self, shards: usize) -> bool {
        shards <= 1 || self.link_delay > 0.0
    }
}

impl WorldConfig for PacketSimConfig {
    fn alpha(&self) -> Option<f64> {
        self.alpha
    }
}

/// The world of a packet-level run: the one [`DocWorld`] under the
/// packet configuration. Shards read it concurrently while their event
/// loops run; the drivers mutate it only at epoch barriers.
pub type PacketWorld = DocWorld<PacketSimConfig>;

impl PacketWorld {
    /// Builds the world for `tree` under the per-node document demand
    /// `mix`, from copies of both.
    ///
    /// # Panics
    ///
    /// As [`PacketWorld::assert_inputs`].
    pub fn new(tree: &Tree, mix: &DocMix, config: PacketSimConfig) -> Self {
        Self::from_parts(tree.clone(), mix.clone(), config)
    }

    /// [`PacketWorld::new`] over a tree and a mix the world takes over —
    /// a distributed worker's, decoded from its assignment, has no other
    /// use for them.
    ///
    /// # Panics
    ///
    /// As [`PacketWorld::assert_inputs`].
    pub fn from_parts(tree: Tree, mix: DocMix, config: PacketSimConfig) -> Self {
        Self::assert_inputs(&tree, &mix, &config);
        DocWorld::build(tree, mix, config)
    }

    /// Refuses inputs no world can be built from — the checks both
    /// constructors run first, for a caller that must refuse them before
    /// it builds the world.
    ///
    /// # Panics
    ///
    /// Panics if `mix` does not cover `tree` or a config value is out of
    /// range ([`PacketSimConfig::check`]).
    pub fn assert_inputs(tree: &Tree, mix: &DocMix, config: &PacketSimConfig) {
        assert_eq!(mix.len(), tree.len(), "doc mix must cover the tree");
        if let Err(what) = config.check() {
            panic!("config {what} out of range: {config:?}");
        }
    }

    /// First gossip fire of node `i`: phases are staggered across nodes
    /// to avoid artificial synchrony.
    pub fn gossip_phase(&self, i: usize) -> SimTime {
        let phase = timer_phase(i, self.len());
        SimTime::from_secs(self.config.gossip_period * phase)
    }

    /// First diffusion fire of node `i` (offset half a period past the
    /// gossip phase so estimates exist before the first decision).
    pub fn diffusion_phase(&self, i: usize) -> SimTime {
        let phase = timer_phase(i, self.len());
        SimTime::from_secs(self.config.diffusion_period * (0.5 + 0.5 * phase))
    }
}

/// Where in its period node `i` of an `n`-node world fires its periodic
/// timers, in `(0, 1)`: `(i + 1) / (n + 1)`, staggered by id.
/// [`PacketWorld::gossip_phase`] and [`PacketWorld::diffusion_phase`]
/// scale it to their periods, and the `ww-pdes` packer bands nodes by
/// it, so a change to the stagger moves the packer's phase balance with
/// it.
pub fn timer_phase(i: usize, n: usize) -> f64 {
    (i as f64 + 1.0) / (n as f64 + 1.0)
}

/// One barrier-time mutation, in the uniform shape every packet driver
/// (sequential, sharded parallel, distributed) accepts through its
/// `apply_all` batch API.
#[derive(Debug, Clone, PartialEq)]
pub enum BarrierOp {
    /// A cache server joins as a new leaf under `parent` with `rate`
    /// req/s of demand.
    AddLeaf {
        /// Parent of the newcomer.
        parent: NodeId,
        /// Offered demand the newcomer brings, req/s.
        rate: f64,
    },
    /// A leaf cache server departs.
    RemoveLeaf {
        /// The departing leaf.
        node: NodeId,
    },
    /// `origin`'s clients start requesting `doc` at `rate` req/s.
    PublishDoc {
        /// The published document.
        doc: DocId,
        /// Home server of the new demand.
        origin: NodeId,
        /// Added demand, req/s.
        rate: f64,
    },
    /// The whole demand mix is replaced.
    SetMix {
        /// The new mix; must cover the tree as of this op.
        mix: DocMix,
    },
    /// The control link between `node` and its parent fails.
    FailLink {
        /// The node whose uplink fails (not the root).
        node: NodeId,
    },
    /// The control link between `node` and its parent recovers.
    HealLink {
        /// The node whose uplink heals (not the root).
        node: NodeId,
    },
    /// Every cached copy of `doc` outside its home server is revoked.
    Invalidate {
        /// The invalidated document.
        doc: DocId,
    },
}

/// What one accepted [`BarrierOp`] did.
#[derive(Debug, Clone, PartialEq)]
pub enum BarrierOutcome {
    /// A leaf joined with this id.
    Added(NodeId),
    /// A leaf departed.
    Removed(LeafRemoval),
    /// A link toggled; `false` when it was already in that state.
    Toggled(bool),
    /// The op completed with nothing further to report.
    Done,
}

/// One deferred queue-surgery pass, recorded while a barrier batch is
/// open. At commit the accumulated steps compose into a **single**
/// `filter_map_events` sweep: applying them to an event in order is
/// exactly the function composition of the per-op sweeps — every step
/// drops the rows' arrival heads, so the one fresh arrival
/// re-resolution at the end of the batch sees the same survivors the
/// sequential K-pass path produces.
#[derive(Debug, Clone)]
pub enum SurgeryStep {
    /// The sweep of a demand re-resolution (join/publish/shift): drop
    /// arrival heads, as every row's streams are re-resolved and
    /// re-headed. Every other event keeps its `(time, seq)` key and its
    /// dense document index: a growing universe only appends columns.
    Rebuild,
    /// The sweep of a leave: drop arrival heads and the departed node's
    /// events, renumber the compacted former-last id.
    Leave {
        /// Id the departed leaf held.
        removed: NodeId,
        /// Former last id, now living at `removed` (when renumbered).
        moved: Option<NodeId>,
    },
}

/// Applies a batch's surgery steps to one queued event, in batch order.
/// `None` drops the event.
pub fn apply_surgery(ev: PacketEvent, steps: &[SurgeryStep]) -> Option<PacketEvent> {
    let mut ev = ev;
    for step in steps {
        ev = match step {
            SurgeryStep::Rebuild => match ev {
                PacketEvent::Arrival { .. } => return None,
                ev => ev,
            },
            SurgeryStep::Leave { removed, moved } => renumber_for_leave(ev, *removed, *moved)?,
        };
    }
    Some(ev)
}

/// The RNG of one arrival stream: a pure function of
/// `(master seed, node, doc)` at generation zero, with the world's
/// arrival generation folded in once the stage has been rebuilt — so
/// streams never depend on shard layout or global construction order,
/// before or after a barrier rebuild.
pub fn arrival_stream_rng(world: &PacketWorld, node: usize, doc: DocId) -> SimRng {
    stream_rng(&node_arrival_rng(world, node), world.generation, doc)
}

/// The per-node prefix of [`arrival_stream_rng`], shared by all of the
/// node's streams.
fn node_arrival_rng(world: &PacketWorld, node: usize) -> SimRng {
    SimRng::seed(world.config.seed).fork(STREAM_ARRIVAL ^ (node as u64))
}

/// The per-stream suffix of [`arrival_stream_rng`].
fn stream_rng(node_rng: &SimRng, generation: u64, doc: DocId) -> SimRng {
    let base = node_rng.fork(doc.value());
    if generation == 0 {
        base
    } else {
        base.fork(STREAM_REBUILD ^ generation)
    }
}

/// The gossip-loss RNG of one node, as the generator alone (it never
/// forks again). Nodes that join mid-run fold the
/// generation they joined at into the fork, so a joiner reusing a
/// previously compacted id never resumes a departed node's stream.
pub fn gossip_stream_rng(world: &PacketWorld, node: usize) -> StreamRng {
    let base = SimRng::seed(world.config.seed).fork(STREAM_GOSSIP ^ (node as u64));
    if world.generation == 0 {
        base
    } else {
        base.fork(STREAM_REBUILD ^ world.generation)
    }
    .into_stream()
}

/// Queue surgery for a barrier-time leave: stale arrival heads vanish, every
/// event that still involves the departed node — as target, source,
/// requester, or tunnel origin/target — is dropped (its state is gone,
/// its clients re-homed), and all references to the renumbered
/// former-last id move to the vacated one, so no surviving event
/// mentions the departed id in any field. Both drivers run this same
/// pure function over their queues, so the surviving event set — and
/// each survivor's `(time, seq)` key — cannot depend on the sharding.
pub fn renumber_for_leave(
    ev: PacketEvent,
    removed: NodeId,
    moved: Option<NodeId>,
) -> Option<PacketEvent> {
    let map = |x: NodeId| {
        if Some(x) == moved {
            removed
        } else {
            x
        }
    };
    match ev {
        PacketEvent::Arrival { .. } => None,
        PacketEvent::Packet {
            node,
            from,
            mut request,
            index,
        } => {
            // `from == Some(removed)` implies `origin == removed` (a
            // departing leaf only ever forwards its own clients'
            // requests), so dropping by origin covers both.
            if node == removed || from == Some(removed) || request.origin == removed {
                return None;
            }
            request.origin = map(request.origin);
            Some(PacketEvent::Packet {
                node: map(node),
                from: from.map(map),
                request,
                index,
            })
        }
        PacketEvent::GossipDeliver { to, from, load } => {
            if to == removed || from == removed {
                return None;
            }
            Some(PacketEvent::GossipDeliver {
                to: map(to),
                from: map(from),
                load,
            })
        }
        PacketEvent::CopyInstall { node, index, rate } => {
            if node == removed {
                return None;
            }
            Some(PacketEvent::CopyInstall {
                node: map(node),
                index,
                rate,
            })
        }
        PacketEvent::TunnelProbe {
            node,
            origin,
            index,
            rate,
            hops,
        } => {
            if node == removed || origin == removed {
                return None;
            }
            Some(PacketEvent::TunnelProbe {
                node: map(node),
                origin: map(origin),
                index,
                rate,
                hops,
            })
        }
        PacketEvent::TunnelGrant {
            node,
            target,
            index,
            rate,
        } => {
            if node == removed || target == removed {
                return None;
            }
            Some(PacketEvent::TunnelGrant {
                node: map(node),
                target: map(target),
                index,
                rate,
            })
        }
    }
}

/// The (at most two) parents whose child lists a leave renumbered: the
/// departed leaf's parent, and — when the compaction moved a node — the
/// moved node's parent (one of its children changed id, so its sort
/// position among the siblings may have). Shared by both drivers so
/// their leave surgery cannot diverge.
pub fn parents_to_remap(tree: &Tree, removal: &LeafRemoval) -> impl Iterator<Item = NodeId> {
    let moved_parent = removal
        .moved
        .and_then(|_| tree.parent(removal.removed))
        .filter(|&p| p != removal.parent);
    std::iter::once(removal.parent).chain(moved_parent)
}

/// The per-child slot mapping of `parent` after a leave renumbered the
/// tree: for each child in the *new* child list, the slot it occupied
/// before the leave.
///
/// Read off the new tree alone. The old list held the same children in
/// the same relative order, except that (a) the departed leaf `removed`
/// sat at its sorted position if `parent` was its parent, and (b) the
/// moved node, which then held the highest id in the tree, sat last if
/// it is `parent`'s child — today it sorts in as `removed`.
pub fn child_slot_map(tree: &Tree, parent: NodeId, removal: &LeafRemoval) -> Vec<Option<usize>> {
    let removed = removal.removed;
    let children = tree.children(parent);
    let lost_child = parent == removal.parent;
    let holds_moved = removal.moved.is_some() && tree.parent(removed) == Some(parent);
    let old_len = children.len() + usize::from(lost_child);
    children
        .iter()
        .enumerate()
        .map(|(slot, &c)| {
            Some(if holds_moved && c == removed {
                old_len - 1
            } else {
                // Among children that sort after the vacated id: one
                // slot back for the moved node now ahead of them, one
                // slot on for the departed leaf then ahead of them.
                let after = usize::from(c > removed);
                slot - after * usize::from(holds_moved) + after * usize::from(lost_child)
            })
        })
        .collect()
}

/// Irregular events of the packet-level protocol. The two periodic timer
/// streams are not events at all — they live in
/// [`TimerRing`](ww_sim::TimerRing)s owned by the driver.
#[derive(Debug, Clone, PartialEq)]
pub enum PacketEvent {
    /// A client at `node` issues a request on the node's arrival stream
    /// `stream` — entry `stream` of its mix row, whose [`StreamCell`]
    /// holds the generator. In a calendar this is the **head** of the
    /// node's row of pending arrivals — the row's earliest stream under that
    /// stream's own key, at most one per node; in a handler's outbox it
    /// is the fired stream's next arrival, which the driver stores in
    /// the row. It never crosses a wire.
    Arrival {
        /// Requesting node.
        node: NodeId,
        /// Index of the arrival stream within the node's demand list.
        stream: u32,
    },
    /// A request packet arrives at `node`'s router, possibly from a child.
    Packet {
        /// Receiving node.
        node: NodeId,
        /// Child the packet came from (`None`: the node's own client).
        from: Option<NodeId>,
        /// The request.
        request: DocRequest,
        /// Dense index of the requested document.
        index: u32,
    },
    /// A gossip message from `from` reporting its measured load.
    GossipDeliver {
        /// Receiving node.
        to: NodeId,
        /// Reporting neighbor.
        from: NodeId,
        /// Its measured load.
        load: f64,
    },
    /// A pushed copy of the document at `index` arrives at `node` with a
    /// serve allocation in req/s.
    CopyInstall {
        /// Receiving node.
        node: NodeId,
        /// Dense index of the document.
        index: u32,
        /// Serve allocation carried by the copy.
        rate: f64,
    },
    /// A tunneling probe climbing toward the nearest upstream holder of
    /// the document at `index`, one hop per link delay.
    TunnelProbe {
        /// Node the probe is arriving at.
        node: NodeId,
        /// The starved node that started the probe.
        origin: NodeId,
        /// Dense index of the wanted document.
        index: u32,
        /// Serve allocation the grant will carry.
        rate: f64,
        /// Hops climbed so far (≥ 1 on arrival).
        hops: u32,
    },
    /// A granted tunnel copy descending back to `target`, one hop per
    /// link delay.
    TunnelGrant {
        /// Node the grant is arriving at.
        node: NodeId,
        /// The requester it descends toward.
        target: NodeId,
        /// Dense index of the document.
        index: u32,
        /// Serve allocation carried.
        rate: f64,
    },
}

impl PacketEvent {
    /// The node this event targets (whose state its handler mutates).
    pub fn node(&self) -> NodeId {
        match *self {
            PacketEvent::Arrival { node, .. }
            | PacketEvent::Packet { node, .. }
            | PacketEvent::CopyInstall { node, .. }
            | PacketEvent::TunnelProbe { node, .. }
            | PacketEvent::TunnelGrant { node, .. } => node,
            PacketEvent::GossipDeliver { to, .. } => to,
        }
    }
}

/// Shard-mergeable counters of a packet-level run. Every field is a sum,
/// so per-shard instances merge associatively into the sequential totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PacketCounters {
    /// Copies pushed parent-to-child.
    pub copy_pushes: u64,
    /// Tunneling fetches initiated.
    pub tunnel_fetches: u64,
    /// Total upward hops over all served requests.
    pub hops_sum: u64,
    /// Total requests served.
    pub served_requests: u64,
}

impl PacketCounters {
    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: &PacketCounters) {
        self.copy_pushes += other.copy_pushes;
        self.tunnel_fetches += other.tunnel_fetches;
        self.hops_sum += other.hops_sum;
        self.served_requests += other.served_requests;
    }
}

/// Reusable planning buffers (candidate lists, sort scratch, planned
/// slices) — one set per driver shard.
#[derive(Debug, Default)]
pub struct Scratch {
    cand: Vec<(u32, f64)>,
    sort: Vec<(u32, f64)>,
    plan: Vec<DenseRateSlice>,
}

/// Everything a handler may touch besides the target node's state: the
/// static world (failed links included), the shard's
/// ledger/counters/scratch, and the outbox of follow-up events.
///
/// Outbox entries are `(fire time, event)`; the driver routes each to
/// the shard hosting [`PacketEvent::node`] — a next
/// [`PacketEvent::Arrival`] into the node's own row — and must preserve
/// push order when assigning tie-breaking sequence numbers.
#[derive(Debug)]
pub struct NodeCtx<'a> {
    /// The static world.
    pub world: &'a PacketWorld,
    /// Traffic ledger (per shard; merged at barriers).
    pub ledger: &'a mut TrafficLedger,
    /// Protocol counters (per shard; merged at barriers).
    pub counters: &'a mut PacketCounters,
    /// Follow-up events produced by the handler.
    pub out: &'a mut Vec<(SimTime, PacketEvent)>,
    /// Reusable planning buffers.
    pub scratch: &'a mut Scratch,
}

impl NodeCtx<'_> {
    fn delay(&self) -> SimTime {
        SimTime::from_secs(self.world.config.link_delay)
    }

    /// Is `hi - lo` a statistically meaningful imbalance, or measurement
    /// noise? Rate estimates of a Poisson stream at rate `L` carry a
    /// standard deviation of about `sqrt(L)` per window, so the protocol
    /// only acts beyond a relative hysteresis plus a few sigmas.
    fn significant_imbalance(&self, hi: f64, lo: f64) -> bool {
        let c = &self.world.config;
        hi - lo > c.hysteresis * hi + c.noise_sigmas * hi.max(1.0).sqrt()
    }

    /// `true` when the control link between two tree neighbors is down.
    fn link_severed(&self, a: NodeId, b: NodeId) -> bool {
        if self.world.tree.parent(a) == Some(b) {
            self.world.link_failed(a)
        } else {
            self.world.link_failed(b)
        }
    }
}

/// Hands one message from a handler's outbox to the driver's queue —
/// the single routing point of the one outbox drain
/// ([`driver::ShardCore`]'s), so the engines cannot disagree on which
/// events ride the queue's in-order lanes. Handlers schedule every
/// message at `now + link_delay` or at `now`, so every event that
/// reaches this function is emitted in key order and says so (the next
/// Poisson arrival, the one event that lands at a random distance, goes
/// into its node's row instead). Migration replay is not an outbox
/// drain and keeps plain [`SimQueue::schedule`].
pub fn enqueue<Q: SimQueue<PacketEvent>>(queue: &mut Q, at: SimTime, event: PacketEvent) {
    queue.schedule_in_order(at, event);
}

/// The child of `cur` on the tree path down to `target`.
///
/// # Panics
///
/// Panics if `target` is not a strict descendant of `cur`.
pub fn next_toward(tree: &Tree, cur: NodeId, target: NodeId) -> NodeId {
    let mut u = target;
    while let Some(p) = tree.parent(u) {
        if p == cur {
            return u;
        }
        u = p;
    }
    panic!("{target} is not a descendant of {cur}");
}

/// Dispatches one irregular event to its handler.
pub fn handle(ctx: &mut NodeCtx<'_>, state: &mut NodeMut<'_>, t: SimTime, event: PacketEvent) {
    match event {
        PacketEvent::Arrival { node, stream } => on_arrival(ctx, state, t, node, stream),
        PacketEvent::Packet {
            node,
            from,
            request,
            index,
        } => on_packet(ctx, state, t, node, from, request, index),
        PacketEvent::GossipDeliver { to, from, load } => {
            if ctx.world.tree.parent(to) == Some(from) {
                state.head.parent_est = Some(load);
            } else {
                let slot = ctx.world.child_slot[from.index()];
                state.kids().set_est(slot, load);
            }
        }
        PacketEvent::CopyInstall { node, index, rate } => {
            let _ = node;
            on_copy_install(state, t, index, rate);
        }
        PacketEvent::TunnelProbe {
            node,
            origin,
            index,
            rate,
            hops,
        } => on_tunnel_probe(ctx, state, t, node, origin, index, rate, hops),
        PacketEvent::TunnelGrant {
            node,
            target,
            index,
            rate,
        } => {
            if node == target {
                on_copy_install(state, t, index, rate);
            } else {
                let next = next_toward(&ctx.world.tree, node, target);
                ctx.out.push((
                    t + ctx.delay(),
                    PacketEvent::TunnelGrant {
                        node: next,
                        target,
                        index,
                        rate,
                    },
                ));
            }
        }
    }
}

fn on_arrival(
    ctx: &mut NodeCtx<'_>,
    state: &mut NodeMut<'_>,
    t: SimTime,
    node: NodeId,
    stream: u32,
) {
    // The stream's next arrival, from its own RNG — a pure function of
    // (seed, node, doc) and the stream's draw count.
    let (index, rate) = ctx.world.stream_of(node, stream);
    let gap = exp_delay(&mut state.stream_mut(stream).rng, 1.0 / rate);
    // Issue the request packet at this node; ids are (node, counter).
    let id = RequestId::new(((node.index() as u64) << 32) | state.head.next_request);
    state.head.next_request += 1;
    let request = DocRequest::new(id, node);
    ctx.ledger
        .record(TrafficClass::Request, request.wire_bytes(), 0);
    ctx.out.push((
        t,
        PacketEvent::Packet {
            node,
            from: None,
            request,
            index,
        },
    ));
    // The driver's outbox drain keys the next arrival and stores it in
    // the node's row.
    ctx.out.push((
        t + SimTime::from_secs(gap),
        PacketEvent::Arrival { node, stream },
    ));
}

fn on_packet(
    ctx: &mut NodeCtx<'_>,
    state: &mut NodeMut<'_>,
    t: SimTime,
    node: NodeId,
    from: Option<NodeId>,
    request: DocRequest,
    index: u32,
) {
    let now = t.as_secs();
    if let Some(child) = from {
        let slot = ctx.world.child_slot[child.index()];
        state.record_flow(slot, index, now);
    }
    state.record_seen(index, now);

    let is_root = ctx.world.tree.parent(node).is_none();
    let should_serve = if is_root {
        true
    } else if state.has(Set::Filter, index) {
        // Intercepted: serve if the token bucket grants it; otherwise
        // put the packet back on its path (a filter false-positive in
        // rate terms).
        state.bucket(index).is_some_and(|b| b.try_take(now))
    } else {
        false
    };

    if should_serve {
        let response = DocResponse::serve(&request, node);
        state.record_served(index, now);
        state.head.served_total += 1;
        ctx.counters.hops_sum += u64::from(response.up_hops);
        ctx.counters.served_requests += 1;
        ctx.ledger
            .record(TrafficClass::Response, 1024, response.round_trip_hops);
    } else {
        let parent = ctx.world.tree.parent(node).expect("non-root forwards");
        ctx.ledger
            .record(TrafficClass::Request, request.wire_bytes(), 1);
        ctx.out.push((
            t + ctx.delay(),
            PacketEvent::Packet {
                node: parent,
                from: Some(node),
                request: request.hop(),
                index,
            },
        ));
    }
}

/// The gossip timer of `node` fires: report the measured load to the
/// parent first, then the children (the historical neighbor order). The
/// driver re-arms the timer after draining the outbox.
pub fn on_gossip_timer(ctx: &mut NodeCtx<'_>, state: &mut NodeMut<'_>, t: SimTime, node: NodeId) {
    let now = t.as_secs();
    let load = state.measured_load(now);
    if let Some(p) = ctx.world.tree.parent(node) {
        gossip_to(ctx, state, t, node, p, load);
    }
    for slot in 0..ctx.world.tree.children(node).len() {
        let c = ctx.world.tree.children(node)[slot];
        gossip_to(ctx, state, t, node, c, load);
    }
}

/// Emits one gossip message from `node` to `nbr`, subject to the
/// failure-injection loss probability. A severed control link emits
/// nothing — the sender knows the link is down.
// Forced inline, like `TimerRing::pop` / `rearm` (see there):
// `on_gossip_timer` calls it twice and LLVM keeps a plain `#[inline]` a
// call.
#[inline(always)]
fn gossip_to(
    ctx: &mut NodeCtx<'_>,
    state: &mut NodeMut<'_>,
    t: SimTime,
    node: NodeId,
    nbr: NodeId,
    load: f64,
) {
    if ctx.link_severed(node, nbr) {
        return;
    }
    ctx.ledger.record(TrafficClass::Gossip, 32, 1);
    let loss = ctx.world.config.gossip_loss;
    let lost = loss > 0.0 && rand::Rng::gen::<f64>(&mut state.head.gossip_rng) < loss;
    if !lost {
        ctx.out.push((
            t + ctx.delay(),
            PacketEvent::GossipDeliver {
                to: nbr,
                from: node,
                load,
            },
        ));
    }
}

/// The diffusion timer of `node` fires: push load down to lighter
/// children, take over or shed load against the parent, and eventually
/// tunnel. The driver re-arms the timer after draining the outbox.
pub fn on_diffusion(ctx: &mut NodeCtx<'_>, state: &mut NodeMut<'_>, t: SimTime, node: NodeId) {
    let now = t.as_secs();
    let m = ctx.world.mix.table().len();
    if let Some(kids) = state.kids_opt() {
        kids.roll_flows(now);
    }
    state.roll_seen(now);
    let my_load = state.measured_load(now);

    // Push load down to any child that gossiped a lower load.
    let is_root = ctx.world.tree.parent(node).is_none();
    for slot in 0..ctx.world.tree.children(node).len() {
        let c = ctx.world.tree.children(node)[slot];
        if ctx.world.link_failed(c) {
            // Control link down: no copies move to this child.
            continue;
        }
        let Some(child_load) = state.kids().est(slot) else {
            continue;
        };
        if !ctx.significant_imbalance(my_load, child_load) {
            continue;
        }
        let a_c = state.kids().flow_total(slot);
        let target = (ctx.world.alpha * (my_load - child_load)).min(a_c);
        if target <= 0.0 {
            continue;
        }
        // Docs this node serves that the child forwards.
        if is_root {
            // The root serves everything that reaches it; it can push
            // any doc the child forwards.
            state.kids().flow_doc_rates(slot, &mut ctx.scratch.cand);
        } else {
            state.served_rates(&mut ctx.scratch.cand);
            let kids = state.kids();
            ctx.scratch.cand.retain_mut(|(k, cap)| {
                *cap = cap.min(kids.flow_rate(slot, *k));
                *cap > 0.0
            });
        }
        plan_push_dense(
            &ctx.scratch.cand,
            target,
            &mut ctx.scratch.sort,
            &mut ctx.scratch.plan,
        );
        for pi in 0..ctx.scratch.plan.len() {
            let slice = ctx.scratch.plan[pi];
            ctx.counters.copy_pushes += 1;
            ctx.ledger.record(TrafficClass::CopyPush, 16 * 1024, 1);
            ctx.out.push((
                t + ctx.delay(),
                PacketEvent::CopyInstall {
                    node: c,
                    index: slice.index,
                    rate: slice.rate,
                },
            ));
            if !is_root {
                // Give up the corresponding share of our own allocation.
                if let Some(b) = state.bucket(slice.index) {
                    b.rate = (b.rate - slice.rate).max(0.0);
                }
            }
        }
    }

    // Compare against the parent: take over passing load, shed, or
    // eventually tunnel. A failed uplink suspends all of it (tunneling
    // included — the fetch path runs through the dead control link).
    if ctx.world.tree.parent(node).is_some() && !ctx.world.link_failed(node) {
        if let Some(pl) = state.head.parent_est {
            if ctx.significant_imbalance(pl, my_load) {
                let want = ctx.world.alpha * (pl - my_load);
                // Take over flow for documents we already hold.
                ctx.scratch.cand.clear();
                for k in 0..m as u32 {
                    let seen_rate = state.seen_rate(k);
                    if seen_rate <= 0.0 || !state.has(Set::Copies, k) {
                        continue;
                    }
                    let served = state.served_rate(k);
                    let headroom = (seen_rate - served).max(0.0);
                    if headroom > 0.0 {
                        ctx.scratch.cand.push((k, headroom));
                    }
                }
                plan_push_dense(
                    &ctx.scratch.cand,
                    want,
                    &mut ctx.scratch.sort,
                    &mut ctx.scratch.plan,
                );
                let mut taken = 0.0;
                for pi in 0..ctx.scratch.plan.len() {
                    let slice = ctx.scratch.plan[pi];
                    state.allocate(slice.index, slice.rate, now);
                    taken += slice.rate;
                }
                if taken <= 1e-9 {
                    state.head.underload_streak += 1;
                    if ctx.world.config.tunneling
                        && state.head.underload_streak > ctx.world.config.barrier_patience
                    {
                        start_tunnel(ctx, state, t, node, want);
                        state.head.underload_streak = 0;
                    }
                } else {
                    state.head.underload_streak = 0;
                }
            } else if ctx.significant_imbalance(my_load, pl) {
                // Shed upward: reduce allocations, coldest docs first.
                let shed_target = ctx.world.alpha * (my_load - pl);
                state.served_doc_rates(&mut ctx.scratch.cand);
                plan_shed_dense(
                    &ctx.scratch.cand,
                    shed_target,
                    &mut ctx.scratch.sort,
                    &mut ctx.scratch.plan,
                );
                for pi in 0..ctx.scratch.plan.len() {
                    let slice = ctx.scratch.plan[pi];
                    if let Some(b) = state.bucket(slice.index) {
                        b.rate = (b.rate - slice.rate).max(0.0);
                    }
                }
                state.head.underload_streak = 0;
            }
        }
    }
}

/// Tunneling: probe upstream for the hottest forwarded-but-not-held
/// document. The probe climbs one hop per link delay
/// ([`PacketEvent::TunnelProbe`]); the nearest holder answers with a
/// [`PacketEvent::TunnelGrant`] descending the same path, so the copy
/// lands after the full round trip.
fn start_tunnel(
    ctx: &mut NodeCtx<'_>,
    state: &mut NodeMut<'_>,
    t: SimTime,
    node: NodeId,
    want: f64,
) {
    let m = ctx.world.mix.table().len();
    // Hottest seen-but-not-held document; ties break toward the
    // smaller index (= the earlier born), matching the sparse sort
    // order on a universe born in id order.
    let mut best: Option<(u32, f64)> = None;
    for k in 0..m as u32 {
        let r = state.seen_rate(k);
        if r <= 0.0 || state.has(Set::Copies, k) {
            continue;
        }
        if best.is_none_or(|(_, br)| r > br) {
            best = Some((k, r));
        }
    }
    let Some((index, rate)) = best else {
        return;
    };
    let Some(parent) = ctx.world.tree.parent(node) else {
        return;
    };
    ctx.counters.tunnel_fetches += 1;
    ctx.out.push((
        t + ctx.delay(),
        PacketEvent::TunnelProbe {
            node: parent,
            origin: node,
            index,
            rate: rate.min(want).max(1.0),
            hops: 1,
        },
    ));
}

#[allow(clippy::too_many_arguments)]
fn on_tunnel_probe(
    ctx: &mut NodeCtx<'_>,
    state: &mut NodeMut<'_>,
    t: SimTime,
    node: NodeId,
    origin: NodeId,
    index: u32,
    rate: f64,
    hops: u32,
) {
    let is_root = ctx.world.tree.parent(node).is_none();
    if state.has(Set::Copies, index) || is_root {
        // Found the nearest upstream holder: charge the round trip and
        // send the copy back down the path.
        ctx.ledger.record(TrafficClass::Tunnel, 16 * 1024, hops * 2);
        let next = next_toward(&ctx.world.tree, node, origin);
        ctx.out.push((
            t + ctx.delay(),
            PacketEvent::TunnelGrant {
                node: next,
                target: origin,
                index,
                rate,
            },
        ));
    } else {
        let parent = ctx.world.tree.parent(node).expect("non-root climbs");
        ctx.out.push((
            t + ctx.delay(),
            PacketEvent::TunnelProbe {
                node: parent,
                origin,
                index,
                rate,
                hops: hops + 1,
            },
        ));
    }
}

fn on_copy_install(state: &mut NodeMut<'_>, t: SimTime, index: u32, rate: f64) {
    let now = t.as_secs();
    if state.insert(Set::Copies, index) {
        state.insert(Set::Filter, index);
    }
    state.allocate(index, rate, now);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_toward_walks_the_path() {
        // 0 -> 1 -> 2 -> 3 and 1 -> 4.
        let tree = Tree::from_parents(&[None, Some(0), Some(1), Some(2), Some(1)]).unwrap();
        assert_eq!(
            next_toward(&tree, NodeId::new(0), NodeId::new(3)).index(),
            1
        );
        assert_eq!(
            next_toward(&tree, NodeId::new(1), NodeId::new(3)).index(),
            2
        );
        assert_eq!(
            next_toward(&tree, NodeId::new(1), NodeId::new(4)).index(),
            4
        );
    }

    #[test]
    #[should_panic(expected = "not a descendant")]
    fn next_toward_rejects_non_descendants() {
        let tree = Tree::from_parents(&[None, Some(0), Some(0)]).unwrap();
        let _ = next_toward(&tree, NodeId::new(1), NodeId::new(2));
    }

    #[test]
    fn arrival_rng_is_shard_independent() {
        // Re-initializing a node's state yields identical streams: the
        // randomness is a pure function of (seed, node, doc), not of any
        // global construction order.
        let tree = Tree::from_parents(&[None, Some(0), Some(0)]).unwrap();
        let mut mix = DocMix::new(3);
        mix.set(NodeId::new(1), DocId::new(7), 10.0);
        mix.set(NodeId::new(2), DocId::new(7), 20.0);
        let world = PacketWorld::new(&tree, &mix, PacketSimConfig::default());
        // The whole tree on one slab, and node 2 alone on a shard's.
        let all: Vec<NodeId> = tree.nodes().collect();
        let mut a = NodeSlab::new(&world, &all);
        let mut b = NodeSlab::new(&world, &all[2..]);
        // Sequence numbers are the calendar's: keep them out of the
        // comparison.
        let fronts_a: Vec<_> = all
            .iter()
            .enumerate()
            .map(|(row, &node)| a.resolve_node_arrivals(&world, row, node, SimTime::ZERO, || 0))
            .collect();
        let front_b = b.resolve_node_arrivals(&world, 0, all[2], SimTime::ZERO, || 0);
        assert_eq!(fronts_a[0], None, "the root has no demand");
        assert!(fronts_a[1].is_some());
        assert_eq!(fronts_a[2], front_b);
        assert_eq!(a.node(2), b.node(0));
    }
}
