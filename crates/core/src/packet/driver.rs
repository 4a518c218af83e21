//! The one shard driver of the packet-level protocol.
//!
//! Every packet engine is this module plus transport. A [`ShardCore`]
//! owns the rows of the nodes it hosts (one [`NodeSlab`]), their pending
//! events ([`RadixQueue`] plus the two [`TimerRing`]s) and the
//! shard-mergeable ledger and counters, and executes events in
//! `(time, seq)` order through the handlers of [`crate::packet`].
//!
//! Pending **arrivals** are not queue entries. Every stream's next
//! Poisson arrival is a 16-byte `(time, seq)` key in its node's row of
//! the slab, and the queue holds one [`PacketEvent::Arrival`] per row:
//! the **head**, the row's earliest stream under that stream's own key
//! (`schedule_keyed`), so the merge with lanes, rings and inbound wires
//! sees exactly the key the stream's own queue entry used to carry. When
//! a head fires, its handler pushes the stream's next arrival onto the
//! outbox like any other follow-up; the outbox drain — the one place
//! sequence numbers are drawn — keys it with `alloc_seq`, stores it in
//! the row and schedules the row's new minimum. The queue is therefore
//! `O(nodes + messages in flight)`, never `O(streams)`, and the
//! invariant ([`ShardCore::check_fronts`]) is: one head per row that has
//! a finite key, carrying the row's minimum and naming its stream.
//!
//! The heads are also the one place the loop can see its future. A row
//! fires about once per simulated second, so the lines an arrival and
//! its leaf packet touch — key row, stream cell, head, `seen` row — are
//! cold, and the two events took a third of the loop's cycles for a
//! sixth of its events. Between barriers the radix side of the queue holds
//! only heads, so after popping an arrival the loop peeks the next one
//! ([`RadixQueue::peek_radix`]) and prefetches its lines
//! ([`NodeSlab::prefetch_arrival`]); the misses then run under the ~11
//! events in between. A prefetch is a hint, so nothing simulated
//! depends on it.
//!
//! A [`SimCore`] is the bookkeeping every participant of a run replicates
//! — the world (failed links included), the node → (shard, row) map, the
//! barrier horizon and the schedule of sample barriers that advances it,
//! the convergence trace, the open batch — and applies [`BarrierOp`]s
//! over *the shards this participant holds*:
//!
//! * the sequential [`PacketSim`](crate::packetsim::PacketSim) holds the
//!   single shard of [`Partition::single`] and has no wires;
//! * every other participant is a `ww-pdes` `ShardHost`, which gives
//!   each shard it holds links (wires, promises, the merge stage): the
//!   in-process parallel engine's host holds every shard, one thread
//!   each, over rings; a `ww-dist` worker's holds one, over sockets; and
//!   the coordinator's replica holds none.
//!
//! Every per-node step of every barrier operation touches only that
//! node's own shard, so skipping the nodes of shards a participant does
//! not hold cannot perturb the shards it does — which is why one
//! implementation serves all of them, and why the engines are
//! bit-identical for one shard by construction and for many by the
//! node-locality of the handlers.

use super::{
    apply_surgery, child_slot_map, enqueue, handle, on_diffusion, on_gossip_timer,
    parents_to_remap, BarrierOp, BarrierOutcome, NodeCtx, NodeMut, NodeSlab, PacketCounters,
    PacketEvent, PacketWorld, Scratch, SurgeryStep, ARRIVAL_REBUILD, BARRIER_OPS, CORE_KEYS,
    CORE_PHASES, QUEUE_SURGERY, SURGERY_REMOVED, SURGERY_SWEEPS, UNIVERSE_GROWTH,
};
use crate::packetsim::PacketSimReport;
use crate::stats::{ConvergenceTrace, ExactSum};
use crate::world::UniverseGrowth;
use ww_model::{DocId, LeafRemoval, ModelError, NodeId, Tree};
use ww_net::{TrafficClass, TrafficLedger};
use ww_sim::{key_of, time_of, RadixQueue, SimQueue, SimTime, TimerRing, NO_KEY};
use ww_telemetry::{Counters, Key, Level, Phases, Snapshot};

/// One node changing shards, `from` → `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// The node that moves.
    pub node: NodeId,
    /// Its current shard.
    pub from: usize,
    /// Its new shard.
    pub to: usize,
}

/// The node → (shard, row) map of a run: a partition of the tree's
/// nodes into shards, each hosted by one [`ShardCore`].
#[derive(Debug, Clone)]
pub struct Partition {
    /// Shard of every node.
    pub shard_of: Vec<usize>,
    /// Index of every node within its shard's `members` list — its row
    /// in the shard's slab, rings and `window_events`.
    pub local_index: Vec<u32>,
    /// Nodes of each shard. Fresh partitions list members in ascending
    /// node-id order; churn compacts by swap-remove, migration by a
    /// stable retain, and both append at the back, so the order is
    /// merely *deterministic*, not sorted — no consumer may rely on
    /// sortedness.
    pub members: Vec<Vec<NodeId>>,
}

impl Partition {
    /// The one-shard partition of `n` nodes: every node on shard 0, row
    /// = node id.
    pub fn single(n: usize) -> Partition {
        Partition {
            shard_of: vec![0; n],
            local_index: (0..n as u32).collect(),
            members: vec![(0..n).map(NodeId::new).collect()],
        }
    }

    /// Number of shards (≥ 1).
    pub fn shards(&self) -> usize {
        self.members.len()
    }

    /// `(shard, row)` of `node`. A one-shard partition is the identity
    /// — its tables say `(0, node)` for every node, through churn too:
    /// joins append, and a leave swap-removes the same position from
    /// the id space and from the member list — so the event loop's
    /// per-event lookups answer it without touching them (on a
    /// 32,581-node tree the three tables are 650 KB of random reads,
    /// 6 % of a one-shard run's events/s when measured).
    #[inline]
    pub fn home(&self, node: usize) -> (usize, usize) {
        if self.members.len() == 1 {
            debug_assert_eq!(self.local_index[node] as usize, node);
            (0, node)
        } else {
            (self.shard_of[node], self.local_index[node] as usize)
        }
    }

    /// The node at `row` of `shard` (see [`Partition::home`]).
    #[inline]
    pub fn node_at(&self, shard: usize, row: usize) -> NodeId {
        if self.members.len() == 1 {
            NodeId::new(row)
        } else {
            self.members[shard][row]
        }
    }

    /// Registers a node joining the simulated world: the newcomer takes
    /// the next global id and the last row of `shard` (its parent's
    /// shard, so subtree connectivity is preserved). Returns the row.
    pub fn add_node(&mut self, shard: usize) -> usize {
        let id = self.shard_of.len();
        let li = self.members[shard].len();
        self.shard_of.push(shard);
        self.local_index.push(li as u32);
        self.members[shard].push(NodeId::new(id));
        li
    }

    /// Registers a node leaving: global ids compact by swap-remove (the
    /// former last id renumbers into `node`, staying on its own shard —
    /// no state crosses a shard boundary), and the hosting shard's
    /// member list compacts the same way. Returns the departed node's
    /// `(shard, row)`; the caller applies the identical swap-remove to
    /// that shard's rows.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn swap_remove_node(&mut self, node: usize) -> (usize, usize) {
        let s = self.shard_of[node];
        let li = self.local_index[node] as usize;
        self.members[s].swap_remove(li);
        if let Some(&w) = self.members[s].get(li) {
            self.local_index[w.index()] = li as u32;
        }
        self.shard_of.swap_remove(node);
        self.local_index.swap_remove(node);
        if node < self.shard_of.len() {
            // The renumbered former-last id: rewrite its member entry.
            let ms = self.shard_of[node];
            let mli = self.local_index[node] as usize;
            self.members[ms][mli] = NodeId::new(node);
        }
        (s, li)
    }

    /// Applies a whole migration plan in one pass per touched shard:
    /// every donor's member list drops its migrants with one `retain`
    /// — survivors keep their relative order and take rows
    /// `0..survivors` — and every migrant is then appended to its
    /// recipient in `moves` order. The caller must apply the identical
    /// stable compaction and appends to the shards' rows
    /// (`TimerRing::remove_members` compacts the same way).
    /// Connectivity of the resulting shards is the *caller's*
    /// obligation — rebalancing only ever moves whole subtree regions.
    ///
    /// # Panics
    ///
    /// Panics if `moves` is not in strictly ascending node order, names
    /// a node or shard out of range, a node that does not live on its
    /// `from` shard (a stale plan), or a no-op move (`from == to`: a
    /// planner bug).
    pub fn move_nodes(&mut self, moves: &[Migration]) {
        assert!(
            moves
                .windows(2)
                .all(|w| w[0].node.index() < w[1].node.index()),
            "plan moves must be in ascending node order"
        );
        let mut donor = vec![false; self.members.len()];
        for m in moves {
            let node = m.node.index();
            assert!(node < self.shard_of.len(), "node out of range");
            assert!(m.to < self.members.len(), "shard out of range");
            assert_eq!(self.shard_of[node], m.from, "stale plan for node {node}");
            assert_ne!(m.from, m.to, "no-op migration for node {node}");
            self.shard_of[node] = m.to;
            donor[m.from] = true;
        }
        let Partition {
            shard_of,
            local_index,
            members,
        } = self;
        for (s, list) in members.iter_mut().enumerate() {
            if donor[s] {
                list.retain(|u| shard_of[u.index()] == s);
                for (li, u) in list.iter().enumerate() {
                    local_index[u.index()] = li as u32;
                }
            }
        }
        for m in moves {
            local_index[m.node.index()] = members[m.to].len() as u32;
            members[m.to].push(m.node);
        }
    }

    /// The ordered list of shard pairs connected by at least one tree
    /// edge, as `(child_side_shard, parent_side_shard)` — each listed
    /// once per unordered pair per direction of the underlying edges.
    pub fn cut_pairs(&self, tree: &Tree) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for u in tree.nodes() {
            if let Some(p) = tree.parent(u) {
                let (a, b) = (self.shard_of[u.index()], self.shard_of[p.index()]);
                if a != b {
                    // Traffic crosses every cut edge in both directions
                    // (requests climb, gossip and copies descend), so both
                    // directed pairs carry a channel.
                    if !pairs.contains(&(a, b)) {
                        pairs.push((a, b));
                    }
                    if !pairs.contains(&(b, a)) {
                        pairs.push((b, a));
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }
}

/// Which local event source holds the earliest pending `(time, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverSource {
    /// The irregular-event queue.
    Heap,
    /// The gossip timer ring.
    Gossip,
    /// The diffusion timer ring.
    Diffusion,
}

/// One shard of a packet-level run: the rows of the nodes it hosts, its
/// pending events, and the event loop over them. Row `r` of `nodes`,
/// member `r` of both rings and `window_events[r]` all belong to node
/// `partition.members[id][r]`.
#[derive(Debug)]
pub struct ShardCore {
    /// This shard's id in the run's [`Partition`].
    pub id: usize,
    /// Pending irregular events: FIFO lanes for in-order messages beside
    /// a radix heap — one arrival head per row, inbound messages spilled
    /// at a barrier — that is O(1) amortized on the near-monotone
    /// schedule.
    pub queue: RadixQueue<PacketEvent>,
    /// The strictly periodic gossip timers.
    pub gossip_ring: TimerRing,
    /// The strictly periodic diffusion timers.
    pub diffusion_ring: TimerRing,
    /// Protocol state of the hosted nodes; row = local index. Declared
    /// after the queue and the rings because fields drop in declaration
    /// order and the slabs are the largest buffers by far: freeing them
    /// first left glibc's heap in a shape that cost `churn_cdn`, which
    /// builds and drops an engine per repetition and doubles every slab
    /// at a publish, 5 % more page faults and 5–9 % of its events/s
    /// (CHANGES.md, PR 21).
    pub nodes: NodeSlab,
    /// Message/byte ledger of the events this shard executed.
    pub ledger: TrafficLedger,
    /// Protocol counters of the events this shard executed.
    pub counters: PacketCounters,
    scratch: Scratch,
    outbox: Vec<(SimTime, PacketEvent)>,
    /// Follow-up events for nodes another shard hosts, in emission
    /// order, for the owner to put on its wires. Always empty on a
    /// one-shard run.
    pub remote: Vec<(SimTime, PacketEvent)>,
    /// `true` while a rebalance controller needs per-node event
    /// attribution. Off (the default), the hot path pays one branch.
    pub track_loads: bool,
    /// Events executed per row since the attribution window opened.
    /// Deterministic: every event is attributed to the node whose
    /// handler ran it, and which events run is partition-invariant.
    pub window_events: Vec<u64>,
}

impl ShardCore {
    /// This shard's queue and node-state counters over `keys`, a table of
    /// seven (`CORE_SHARD` on the sequential driver, `ww-pdes`'s table
    /// merged over shards by its kinds): the queue lanes' admitted and
    /// fallen-back events, the lanes' and the radix heap's high-waters
    /// and the lanes' length, then the capacity bytes of the slab and of
    /// its interior nodes' child state ([`NodeSlab::state_bytes`]) and
    /// its rows. `lane_admitted / (lane_admitted + lane_fallback)` is the
    /// share of outbox traffic that really was in key order — the input
    /// property the lanes' speed depends on. Read at snapshot time;
    /// nothing on the event path.
    pub fn telemetry(&self, keys: &'static [Key]) -> Counters {
        let lanes = self.queue.lane_stats();
        let slots = vec![
            lanes.admitted,
            lanes.fell_back,
            lanes.lane_high_water,
            lanes.radix_high_water,
            lanes.lane_len,
            self.nodes.state_bytes() as u64,
            self.nodes.len() as u64,
        ];
        Counters::from_slots(keys, slots).expect("a table of seven keys")
    }

    /// Builds shard `id` of `partition` over `world` and primes it:
    /// each member's first arrivals (keys into its row, the row's head
    /// into the queue), then its two staggered timers, in member order —
    /// so a node's events draw sequence numbers in the same relative
    /// order on every partition.
    pub fn new(world: &PacketWorld, partition: &Partition, id: usize) -> Self {
        let members = &partition.members[id];
        let period = |secs| SimTime::from_secs(secs);
        let mut shard = ShardCore {
            id,
            nodes: NodeSlab::new(world, members),
            queue: RadixQueue::default(),
            gossip_ring: TimerRing::new(period(world.config.gossip_period), members.len()),
            diffusion_ring: TimerRing::new(period(world.config.diffusion_period), members.len()),
            ledger: TrafficLedger::new(),
            counters: PacketCounters::default(),
            scratch: Scratch::default(),
            outbox: Vec::new(),
            remote: Vec::new(),
            track_loads: false,
            window_events: vec![0; members.len()],
        };
        for (row, &node) in members.iter().enumerate() {
            shard.resolve_arrivals(world, row, node, SimTime::ZERO);
            shard.arm_timers(world, row, node, SimTime::ZERO);
        }
        shard
    }

    /// Writes the fresh first arrival of each of `node`'s streams into
    /// its row — one sequence number per positive-rate stream, in
    /// stream order — and schedules the row's head.
    fn resolve_arrivals(&mut self, world: &PacketWorld, row: usize, node: NodeId, at: SimTime) {
        let queue = &mut self.queue;
        let front = self
            .nodes
            .resolve_node_arrivals(world, row, node, at, || queue.alloc_seq());
        schedule_head(queue, node, front);
    }

    /// Arms `node`'s gossip and diffusion timers, phase-staggered past
    /// `at`.
    fn arm_timers(&mut self, world: &PacketWorld, row: usize, node: NodeId, at: SimTime) {
        let gossip_seq = self.queue.alloc_seq();
        self.gossip_ring
            .insert(row, at + world.gossip_phase(node.index()), gossip_seq);
        let diffusion_seq = self.queue.alloc_seq();
        self.diffusion_ring
            .insert(row, at + world.diffusion_phase(node.index()), diffusion_seq);
    }

    /// The earliest pending `(time, seq, source)` across the queue and
    /// the two timer rings — the same total order one combined heap
    /// would produce. Ring fires carry sequence numbers from the queue's
    /// counter, so ties break the same way on every engine.
    #[inline]
    pub fn next_source(&self) -> Option<(SimTime, u64, DriverSource)> {
        let mut best = self
            .queue
            .peek_entry()
            .map(|(t, s)| (t, s, DriverSource::Heap));
        for (ring, source) in [
            (&self.gossip_ring, DriverSource::Gossip),
            (&self.diffusion_ring, DriverSource::Diffusion),
        ] {
            if let Some((t, s, _)) = ring.peek() {
                if best.is_none_or(|(bt, bs, _)| (t, s) < (bt, bs)) {
                    best = Some((t, s, source));
                }
            }
        }
        best
    }

    /// Runs `handler` against row `row` with a freshly assembled
    /// [`NodeCtx`], then drains the produced outbox in push order: the
    /// fired stream's next arrival into the row under a fresh sequence
    /// number (and the row's new head into the queue), messages for
    /// hosted nodes into the queue (through [`enqueue`], so they ride
    /// the lanes), the rest onto `remote`.
    ///
    /// This, [`ShardCore::deliver`] and [`ShardCore::step`] are forced
    /// inline into [`ShardCore::run_until`]: left to the inliner they
    /// stay calls, and a one-shard `seq_cdn` run reads 5 % fewer
    /// events/s (20 interleaved rounds, medians).
    #[inline(always)]
    fn with_node(
        &mut self,
        sim: &SimCore,
        row: usize,
        handler: impl FnOnce(&mut NodeCtx<'_>, &mut NodeMut<'_>),
    ) {
        if self.track_loads {
            self.window_events[row] += 1;
        }
        let mut ctx = NodeCtx {
            world: &sim.world,
            ledger: &mut self.ledger,
            counters: &mut self.counters,
            out: &mut self.outbox,
            scratch: &mut self.scratch,
        };
        handler(&mut ctx, &mut self.nodes.node_mut(row));
        for (at, ev) in self.outbox.drain(..) {
            if let PacketEvent::Arrival { node, stream } = ev {
                let key = key_of(at, self.queue.alloc_seq());
                self.nodes.set_arrival_key(row, stream, key);
                schedule_head(&mut self.queue, node, self.nodes.front(row));
            } else if sim.partition.home(ev.node().index()).0 == self.id {
                enqueue(&mut self.queue, at, ev);
            } else {
                self.remote.push((at, ev));
            }
        }
    }

    /// Executes one irregular event against its target's row: an event
    /// popped from the queue, or one a wire delivered (the caller has
    /// advanced the clock to `t`).
    #[inline(always)]
    pub fn deliver(&mut self, sim: &SimCore, t: SimTime, event: PacketEvent) {
        let (_, row) = sim.partition.home(event.node().index());
        self.with_node(sim, row, |ctx, state| handle(ctx, state, t, event));
    }

    /// Executes the head of `source` — the one event-execution step of
    /// every engine. A timer fire advances the clock, runs, and re-arms
    /// one period on with a fresh sequence number.
    #[inline(always)]
    fn step(&mut self, sim: &SimCore, source: DriverSource) {
        match source {
            DriverSource::Heap => {
                let (t, event) = self.queue.pop().expect("peeked event exists");
                if matches!(event, PacketEvent::Arrival { .. }) {
                    // The radix side's new minimum is the next arrival
                    // (module docs): start its cold lines' misses now.
                    if let Some((_, &PacketEvent::Arrival { node, stream })) =
                        self.queue.peek_radix()
                    {
                        let (shard, row) = sim.partition.home(node.index());
                        debug_assert_eq!(shard, self.id, "arrival heads are local");
                        self.nodes.prefetch_arrival(row, stream);
                    }
                }
                self.deliver(sim, t, event);
            }
            DriverSource::Gossip => {
                let (t, row) = self.gossip_ring.pop().expect("peeked fire exists");
                self.queue.advance_to(t);
                let node = sim.partition.node_at(self.id, row);
                self.with_node(sim, row, |ctx, state| on_gossip_timer(ctx, state, t, node));
                let seq = self.queue.alloc_seq();
                self.gossip_ring.rearm(row, seq);
            }
            DriverSource::Diffusion => {
                let (t, row) = self.diffusion_ring.pop().expect("peeked fire exists");
                self.queue.advance_to(t);
                let node = sim.partition.node_at(self.id, row);
                self.with_node(sim, row, |ctx, state| on_diffusion(ctx, state, t, node));
                let seq = self.queue.alloc_seq();
                self.diffusion_ring.rearm(row, seq);
            }
        }
    }

    /// Executes every pending local event with `time <= bound`, in
    /// `(time, seq)` order. The caller guarantees nothing can still
    /// arrive from another shard at or before `bound`.
    pub fn run_until(&mut self, sim: &SimCore, bound: SimTime) {
        while let Some((t, _, source)) = self.next_source() {
            if t > bound {
                break;
            }
            self.step(sim, source);
        }
    }

    /// Checks the front invariant at a barrier (`sim.horizon`): every
    /// positive-rate stream of every row holds a key at or past the
    /// horizon and every zero-rate stream [`NO_KEY`]; the queue holds
    /// exactly one [`PacketEvent::Arrival`] for each row with a finite
    /// key — under the row's minimum key, naming that stream — and none
    /// for the others. What the property tests assert after every
    /// barrier operation and migration.
    ///
    /// # Errors
    ///
    /// The first violation found, in words.
    pub fn check_fronts(&self, sim: &SimCore) -> Result<(), String> {
        let mut heads: Vec<Option<(u128, u32)>> = vec![None; self.nodes.len()];
        for (key, event) in self.queue.entries() {
            if let PacketEvent::Arrival { node, stream } = *event {
                let (shard, row) = sim.partition.home(node.index());
                if shard != self.id {
                    return Err(format!(
                        "shard {}: a head for {node} of shard {shard}",
                        self.id
                    ));
                }
                if heads[row].replace((key, stream)).is_some() {
                    return Err(format!("{node}: two heads in the queue"));
                }
            }
        }
        for (row, head) in heads.into_iter().enumerate() {
            let node = sim.partition.node_at(self.id, row);
            let view = self.nodes.node(row);
            for (stream, (cell, &key)) in view.streams.iter().zip(view.next).enumerate() {
                let armed = key != NO_KEY && time_of(key) >= sim.horizon;
                if (cell.rate > 0.0 && !armed) || (cell.rate <= 0.0 && key != NO_KEY) {
                    return Err(format!(
                        "{node} stream {stream}: rate {} with key {key:#x}",
                        cell.rate
                    ));
                }
            }
            let front = self.nodes.front(row);
            if head != front {
                return Err(format!("{node}: head {head:?}, row front {front:?}"));
            }
        }
        Ok(())
    }

    /// This shard's partial of the convergence-trace sample: rolls each
    /// hosted node's serve meter to `now` and folds the squared distance
    /// to the oracle into an [`ExactSum`]. Because the accumulator is
    /// exact, per-shard partials merged in any order reproduce — bit for
    /// bit — one pass over all nodes in node order.
    pub fn trace_partial(&mut self, sim: &SimCore, now: f64) -> ExactSum {
        let mut sum = ExactSum::new();
        for (row, &j) in sim.partition.members[self.id].iter().enumerate() {
            let r = self.nodes.measured_load(row, now);
            sum.add_square(r - sim.world.oracle[j]);
        }
        sum
    }
}

/// Puts `front` — the `(key, stream)` of a row's earliest pending
/// arrival ([`NodeSlab::front`]) — into `queue` as `node`'s head, under
/// that stream's own key.
#[inline]
pub fn schedule_head(
    queue: &mut RadixQueue<PacketEvent>,
    node: NodeId,
    front: Option<(u128, u32)>,
) {
    if let Some((key, stream)) = front {
        let head = PacketEvent::Arrival { node, stream };
        queue.schedule_keyed(time_of(key), key as u64, head);
    }
}

/// The shard with id `s` among the shards a participant holds (all of
/// them, one, or none).
pub fn held_mut(held: &mut [ShardCore], s: usize) -> Option<&mut ShardCore> {
    held.iter_mut().find(|shard| shard.id == s)
}

/// The replicated, shard-independent half of a run: the shared world,
/// the node → (shard, row) map, the barrier horizon, the convergence trace and the open batch. Identical on
/// every participant, and mutated identically — every [`BarrierOp`] is
/// a pure function of its arguments and this state.
#[derive(Debug)]
pub struct SimCore {
    /// Topology, demand, link state, oracle and configuration.
    pub world: PacketWorld,
    /// Where every node lives.
    pub partition: Partition,
    /// Simulated time the run has reached: the last barrier, and the
    /// one clock every barrier operation reads.
    pub horizon: SimTime,
    /// Distance to the oracle at every diffusion-epoch boundary passed
    /// so far; its length is the number of samples taken (the next is
    /// due at `(len + 1) × diffusion_period`). Recorded only by a
    /// participant that sees every shard's partial.
    trace: ConvergenceTrace,
    /// Queue-surgery steps the open batch has accumulated. Whether a
    /// batch *is* open is the world's to say
    /// ([`DocWorld::batch_open`](crate::world::DocWorld::batch_open)).
    batch: Vec<SurgeryStep>,
    tel_level: Level,
    /// Barrier-path counters over [`CORE_KEYS`], summed over held shards.
    tel: Counters,
    /// Phase timers over [`CORE_PHASES`] (active at full spans only).
    tel_phases: Phases,
}

impl SimCore {
    /// The core of a fresh run over `world` split by `partition`.
    pub fn new(world: PacketWorld, partition: Partition) -> Self {
        SimCore {
            world,
            partition,
            horizon: SimTime::ZERO,
            trace: ConvergenceTrace::new(),
            batch: Vec::new(),
            tel_level: Level::Off,
            tel: Counters::new(CORE_KEYS, Level::Off),
            tel_phases: Phases::new(CORE_PHASES, Level::Off),
        }
    }

    /// The schedule every packet engine runs to `deadline`: the next
    /// barrier on the way there and whether the trace is sampled at it.
    /// That is each diffusion-epoch boundary still unsampled at or
    /// before `deadline` (sampled), then `deadline` itself (not), then
    /// `None` once the horizon is there. The caller advances every
    /// shard to the barrier — every event at or before it executes
    /// first, the boundary's own included — and, at a sample boundary,
    /// hands the shards' folded distance to [`SimCore::record_sample`].
    /// A later call with a larger deadline resumes the schedule, so
    /// `run(k)` for `k = 1..n` is `run(n)`.
    pub fn next_barrier(&self, deadline: SimTime) -> Option<(SimTime, bool)> {
        let period = self.world.config.diffusion_period;
        let boundary = SimTime::from_secs((self.trace.len() + 1) as f64 * period);
        if boundary <= deadline {
            Some((boundary, true))
        } else {
            (deadline > self.horizon).then_some((deadline, false))
        }
    }

    /// Records the sample at the boundary [`SimCore::next_barrier`]
    /// named: the distance to the oracle whose square `sum` folds over
    /// every node.
    pub fn record_sample(&mut self, sum: &ExactSum) {
        self.trace.push(sum.value().sqrt());
    }

    /// The samples recorded so far.
    pub fn trace(&self) -> &ConvergenceTrace {
        &self.trace
    }

    /// Sets the observation level of the barrier path and of the
    /// world's oracle maintenance. Safe at any barrier: counters and
    /// phase timers restart from zero, the simulation state is
    /// untouched.
    pub fn set_telemetry(&mut self, level: Level) {
        self.tel_level = level;
        self.tel = Counters::new(CORE_KEYS, level);
        self.tel_phases = Phases::new(CORE_PHASES, level);
        self.world.set_telemetry_timing(level.spans_on());
    }

    /// The level last given to [`SimCore::set_telemetry`].
    pub fn telemetry_level(&self) -> Level {
        self.tel_level
    }

    /// Appends what this core recorded since [`SimCore::set_telemetry`]:
    /// the world's oracle maintenance, the barrier-path counters and —
    /// at full spans — the barrier phases.
    pub fn push_telemetry(&self, snap: &mut Snapshot) {
        self.world
            .oracle_telemetry()
            .snapshot_into(snap, self.tel_level.spans_on());
        self.tel.snapshot_into(snap);
        self.tel_phases.snapshot_into(snap);
    }

    /// The held shard hosting node `j` and the node's row there.
    fn row_of<'a>(
        &self,
        held: &'a mut [ShardCore],
        j: usize,
    ) -> Option<(&'a mut ShardCore, usize)> {
        let (s, row) = self.partition.home(j);
        held_mut(held, s).map(|shard| (shard, row))
    }

    /// The report at the horizon, for a participant that holds every
    /// shard. `overflow` is the wires' `(parks, peak parked)`.
    pub fn report(&self, held: &mut [ShardCore], overflow: (u64, u64)) -> PacketSimReport {
        let now = self.horizon.as_secs().max(1e-9);
        let rates = (0..self.world.len())
            .map(|j| {
                let (shard, row) = self.row_of(held, j).expect("every shard is held");
                shard.nodes.measured_load(row, now)
            })
            .collect();
        let mut ledger = TrafficLedger::new();
        let mut counters = PacketCounters::default();
        for shard in held.iter() {
            ledger.merge(&shard.ledger);
            counters.merge(&shard.counters);
        }
        // Every event is processed by exactly one shard (local pops,
        // timer fires, inbound clock advances), so the counts sum to the
        // one-shard total bit for bit.
        let shard_events = held.iter().map(|s| s.queue.processed()).collect();
        PacketSimReport::assemble(
            &self.world.oracle,
            &self.trace,
            rates,
            ledger,
            counters,
            shard_events,
            overflow,
        )
    }

    /// Opens a barrier batch: until [`SimCore::commit_batch`], every
    /// [`SimCore::apply_op`] applies its primary mutation eagerly and
    /// defers the oracle refresh, queue surgery and arrival
    /// re-resolution to one shared pass at commit.
    ///
    /// # Panics
    ///
    /// Panics if a batch is already open.
    pub fn begin_batch(&mut self) {
        self.world.begin_batch();
    }

    /// Applies one [`BarrierOp`] on this participant — into the open
    /// batch, or as a batch of one. Every participant of a run applies
    /// the same ops in the same order; a rejected op mutates nothing
    /// anywhere.
    ///
    /// # Errors
    ///
    /// The model's rejection of the op.
    pub fn apply_op(
        &mut self,
        held: &mut [ShardCore],
        op: &BarrierOp,
    ) -> Result<BarrierOutcome, ModelError> {
        let lone = !self.world.batch_open();
        if lone {
            self.begin_batch();
        }
        self.tel.add(BARRIER_OPS, 1);
        let result = match op {
            BarrierOp::AddLeaf { parent, rate } => self
                .add_leaf(held, *parent, *rate)
                .map(BarrierOutcome::Added),
            BarrierOp::RemoveLeaf { node } => {
                self.remove_leaf(held, *node).map(BarrierOutcome::Removed)
            }
            BarrierOp::PublishDoc { doc, origin, rate } => {
                self.world.publish(*doc, *origin, *rate).map(|growth| {
                    self.apply_growth(held, growth);
                    BarrierOutcome::Done
                })
            }
            BarrierOp::SetMix { mix } => self.world.set_mix(mix).map(|growth| {
                self.apply_growth(held, growth);
                BarrierOutcome::Done
            }),
            BarrierOp::FailLink { node } => self
                .world
                .set_link(*node, true)
                .map(BarrierOutcome::Toggled),
            BarrierOp::HealLink { node } => self
                .world
                .set_link(*node, false)
                .map(BarrierOutcome::Toggled),
            BarrierOp::Invalidate { doc } => {
                self.invalidate(held, *doc).map(|()| BarrierOutcome::Done)
            }
        };
        if lone {
            self.commit_batch(held);
        }
        result
    }

    /// Closes the batch: one deferred oracle refresh, one composed
    /// `filter_map_events` sweep over every held shard's queue (the
    /// rows' stale heads drop, surviving events are renumbered and
    /// remapped), then every row refilled in place with its streams'
    /// fresh first arrivals and re-headed, in **global node order** —
    /// so each node's events keep the relative order they get in a
    /// one-shard queue.
    ///
    /// # Panics
    ///
    /// Panics if no batch is open.
    pub fn commit_batch(&mut self, held: &mut [ShardCore]) {
        self.world.end_batch();
        if self.batch.is_empty() {
            return;
        }
        let steps = std::mem::take(&mut self.batch);
        let span = self.tel_phases.begin();
        for shard in held.iter_mut() {
            let before = shard.queue.len();
            shard
                .queue
                .filter_map_events(|ev| apply_surgery(ev, &steps));
            self.tel.add(SURGERY_SWEEPS, 1);
            self.tel
                .add(SURGERY_REMOVED, (before - shard.queue.len()) as u64);
        }
        self.tel_phases.end(QUEUE_SURGERY, span);

        let span = self.tel_phases.begin();
        for shard in held.iter_mut() {
            shard.nodes.clear_arrivals();
        }
        for j in 0..self.world.len() {
            if let Some((shard, row)) = self.row_of(held, j) {
                shard.resolve_arrivals(&self.world, row, NodeId::new(j), self.horizon);
            }
        }
        self.tel_phases.end(ARRIVAL_REBUILD, span);
    }

    /// Re-publish (update) a document: every cached copy outside the
    /// home server is invalidated — copies, filters and serve
    /// allocations for `doc` vanish, and the stale serve-rate estimates
    /// for it are reset. One invalidation message per revoked copy is
    /// charged to the ledger (control traffic from the root, paying the
    /// node's depth in hops). Demand is unchanged; requests fall back to
    /// the home server until diffusion re-spreads the new version.
    fn invalidate(&mut self, held: &mut [ShardCore], doc: DocId) -> Result<(), ModelError> {
        let Some(k) = self.world.table.index_of(doc) else {
            return Err(ModelError::UnknownDocument { doc: doc.value() });
        };
        let root = self.world.tree.root();
        for j in 0..self.world.len() {
            let node = NodeId::new(j);
            if node == root {
                continue;
            }
            let Some((shard, row)) = self.row_of(held, j) else {
                continue;
            };
            if shard.nodes.invalidate_row(row, k) {
                shard
                    .ledger
                    .record(TrafficClass::Gossip, 64, self.world.tree.depth(node) as u32);
            }
        }
        Ok(())
    }

    /// A cache server joins as a new leaf under `parent`, bringing
    /// `rate` req/s of demand split across the universe proportionally
    /// to current document popularity. The newcomer takes the next id
    /// and the last row of its parent's shard, starts cold (no copies),
    /// and — its row pushed — has its gossip/diffusion timers armed
    /// phase-staggered after the barrier.
    fn add_leaf(
        &mut self,
        held: &mut [ShardCore],
        parent: NodeId,
        rate: f64,
    ) -> Result<NodeId, ModelError> {
        let at = self.horizon;
        let id = self.world.join(parent, rate)?;
        let (ps, parent_row) = self.partition.home(parent.index());
        let row = self.partition.add_node(ps);
        self.batch.push(SurgeryStep::Rebuild(None));
        if let Some(shard) = held_mut(held, ps) {
            debug_assert_eq!(row, shard.nodes.len());
            shard.nodes.push_child(parent_row, at.as_secs());
            shard.nodes.push_node(&self.world, id, at.as_secs());
            shard.window_events.push(0);
            assert_eq!(shard.gossip_ring.add_member(), row);
            assert_eq!(shard.diffusion_ring.add_member(), row);
            shard.arm_timers(&self.world, row, id, at);
        }
        Ok(id)
    }

    /// A leaf cache server departs: its demand re-homes to its parent,
    /// ids compact by swap-remove (the returned [`LeafRemoval`] names
    /// the renumbering; the renumbered former-last node stays on its own
    /// shard, so no node state crosses a shard boundary), and the commit
    /// sweep drops in-flight events involving the departed node.
    fn remove_leaf(
        &mut self,
        held: &mut [ShardCore],
        node: NodeId,
    ) -> Result<LeafRemoval, ModelError> {
        let at = self.horizon.as_secs();
        let removal = self.world.leave(node)?;
        let r = removal.removed.index();
        let (s, row) = self.partition.swap_remove_node(r);
        if let Some(shard) = held_mut(held, s) {
            shard.nodes.swap_remove_node(row);
            shard.gossip_ring.swap_remove_member(row);
            shard.diffusion_ring.swap_remove_member(row);
            shard.window_events.swap_remove(row);
        }
        self.batch.push(SurgeryStep::Leave {
            removed: removal.removed,
            moved: removal.moved,
        });
        for p in parents_to_remap(&self.world.tree, &removal) {
            let map = child_slot_map(&self.world.tree, p, &removal);
            if let Some((shard, row)) = self.row_of(held, p.index()) {
                shard.nodes.remap_children(row, &map, at);
            }
        }
        Ok(removal)
    }

    /// Applies a universe growth to every held node's per-document state
    /// (the home server also receives the only copy of each new
    /// document) — the shared tail of every demand-changing barrier
    /// operation (publish, mix replacement).
    fn apply_growth(&mut self, held: &mut [ShardCore], growth: Option<UniverseGrowth>) {
        if let Some(g) = &growth {
            let span = self.tel_phases.begin();
            let root = self.world.tree.root().index();
            let (home_shard, home) = self.partition.home(root);
            for shard in held.iter_mut() {
                let home = (shard.id == home_shard).then_some(home);
                shard.nodes.grow(g, self.horizon.as_secs(), home);
            }
            self.tel_phases.end(UNIVERSE_GROWTH, span);
        }
        self.batch.push(SurgeryStep::Rebuild(growth));
    }
}
