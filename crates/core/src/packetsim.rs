//! Packet-level, event-driven WebWave — the sequential driver.
//!
//! The other engines exchange *rates*; this one exchanges *packets*. Each
//! node runs a router with a packet-filter membership set, a cache of
//! copies with token-bucket serve allocations, per-child per-document flow
//! meters, and two timers — the **gossip period** and the **diffusion
//! period** the paper says a realistic WebWave server would have
//! (Section 5). Client requests are Poisson streams; gossip messages
//! travel with link delay and can be lost (failure injection); copies are
//! pushed as messages; tunneling probes climb to the nearest upstream
//! holder and the granted copy descends back, paying the round trip hop
//! by hop.
//!
//! The node-level protocol itself lives in [`crate::packet`], shared with
//! the sharded parallel driver in the `ww-pdes` crate: every handler is
//! node-local, every random draw is content-keyed, and every cross-node
//! effect is a timestamped message. This sequential driver is simply one
//! event loop over the whole tree; the parallel driver runs one loop per
//! subtree shard and produces bit-identical results.
//!
//! # Performance
//!
//! The hot path avoids hashing and sorting:
//!
//! * All per-document state is addressed through the simulation's
//!   [`DocTable`](ww_model::DocTable): token buckets live in flat
//!   per-node slabs, copy/filter membership in
//!   [`DocSet`](ww_model::DocSet) bitsets, and the three flow meters are
//!   [`DenseFlowTable`](ww_cache::DenseFlowTable) grids — no hashing on
//!   the per-packet path.
//! * Pending events sit in the cheapest structure that keeps their
//!   class sorted, merged by `(time, seq)`: the two strictly periodic
//!   timer streams in [`TimerRing`]s; every message a handler emits at
//!   `now + link_delay` or at `now` — already in key order — in the
//!   queue's FIFO lanes (routed by [`packet::enqueue`]); only the next
//!   Poisson arrival of each stream in the radix heap. Ring fires carry
//!   sequence numbers from the queue's global counter, so the merged
//!   order is exactly what one combined heap would produce.
//!
//! The convergence trace is sampled once per diffusion epoch (at
//! `k * diffusion_period`), an `O(n)` pass per period — the previous
//! per-fire observer cost `O(n²)` per period, which dominated large
//! topologies.

use crate::packet::{
    self, BarrierOp, BarrierOutcome, DriverSource, NodeCtx, NodeState, PacketCounters, PacketEvent,
    PacketWorld, Scratch, SurgeryStep, UniverseGrowth,
};
use ww_model::{DocId, LeafRemoval, ModelError, NodeId, RateVector, Tree};
use ww_net::{TrafficClass, TrafficLedger};
use ww_sim::{EventQueue, RadixQueue, SimQueue, SimTime, TimerRing};
use ww_stats::ConvergenceTrace;
use ww_telemetry::{Counters, Key, Level, PhaseStat, Phases, Snapshot};
use ww_workload::DocMix;

pub use crate::packet::PacketSimConfig;

/// Counter key table of the sequential core driver (dense slots; see
/// `docs/observability.md` for the naming scheme). Everything here is
/// barrier-path bookkeeping — the per-packet hot loop records nothing.
pub static CORE_KEYS: &[Key] = &[
    Key::sum("core.barrier.ops"),
    Key::sum("core.surgery.sweeps"),
    Key::sum("core.surgery.removed"),
];
const K_BARRIER_OPS: usize = 0;
const K_SURGERY_SWEEPS: usize = 1;
const K_SURGERY_REMOVED: usize = 2;

/// Phase-name table of the sequential core driver.
pub static CORE_PHASES: &[&str] = &[
    "core.phase.arrival_rebuild",
    "core.phase.queue_surgery",
    "core.phase.universe_growth",
];
const P_ARRIVAL_REBUILD: usize = 0;
const P_QUEUE_SURGERY: usize = 1;
const P_UNIVERSE_GROWTH: usize = 2;

/// Outcome of a finished packet-level run.
#[derive(Debug, Clone)]
pub struct PacketSimReport {
    /// Measured served rate per node over the final measurement window.
    pub served_rates: RateVector,
    /// The WebFold oracle for the offered demand.
    pub oracle: RateVector,
    /// Euclidean distance of the final measured rates to the oracle.
    pub final_distance: f64,
    /// Distance to the oracle sampled at every diffusion epoch boundary.
    pub trace: ConvergenceTrace,
    /// Message/byte ledger.
    pub ledger: TrafficLedger,
    /// Mean upward hops per served request.
    pub mean_hops: f64,
    /// Copies pushed parent-to-child.
    pub copy_pushes: u64,
    /// Tunneling fetches performed.
    pub tunnel_fetches: u64,
    /// Total requests served.
    pub served_requests: u64,
    /// Total simulation events processed (arrivals, packets, timer
    /// fires). The parallel driver reports the same count — events are
    /// partitioned across shards, never duplicated — which the golden
    /// tests pin; dividing by wall-clock time gives the engines'
    /// events/sec throughput metric.
    pub processed_events: u64,
    /// Cross-shard wire messages that found their bounded ring (or
    /// socket buffer) full and parked in the sender's unbounded overflow
    /// queue. Back-pressure bookkeeping, not a simulation quantity:
    /// always `0` for the sequential driver, and excluded from the
    /// bit-identity the golden tests pin (it depends on transport and
    /// thread timing, the numbers the simulation reports do not).
    pub overflow_parks: u64,
    /// Peak depth any single overflow queue reached — how far behind the
    /// slowest wire fell. `0` when no message ever parked.
    pub overflow_peak_parked: u64,
    /// Events processed per shard, indexed by shard id (one entry — the
    /// whole run — for the sequential driver). Deterministic for a given
    /// worker count, but *partition-dependent*: the vector's length and
    /// split vary with the worker count and with adaptive rebalancing,
    /// so the cross-worker golden comparisons exclude it (its **sum** is
    /// `processed_events`, which they do pin).
    pub shard_event_counts: Vec<u64>,
    /// Max/mean ratio of `shard_event_counts` — the whole-run load
    /// imbalance across shards, `1.0` meaning perfectly balanced (and
    /// trivially `1.0` for the sequential driver). Partition-dependent
    /// like `shard_event_counts`, and likewise excluded from the
    /// cross-worker bit-identity the golden tests pin.
    pub imbalance: f64,
}

/// The sequential packet-level simulator, generic over its pending-event
/// structure `Q`.
///
/// Use the [`PacketSim`] alias (radix-bucketed queue, the fast default)
/// or [`HeapPacketSim`] (`BinaryHeap` reference backend). The two
/// backends deliver events in exactly the same `(time, seq)` order —
/// `ww-sim`'s parity property tests pin that — so every reported number
/// is bit-identical between them.
///
/// # Example
///
/// ```
/// use ww_model::{DocId, NodeId, Tree};
/// use ww_workload::DocMix;
/// use ww_core::packetsim::{PacketSim, PacketSimConfig};
///
/// // A chain with one hot document requested at the leaf.
/// let tree = Tree::from_parents(&[None, Some(0), Some(1)]).unwrap();
/// let mut mix = DocMix::new(3);
/// mix.set(NodeId::new(2), DocId::new(1), 300.0);
/// let mut sim = PacketSim::new(&tree, &mix, PacketSimConfig::default());
/// let report = sim.run(30.0);
/// // The protocol spreads the 300 req/s across all three nodes (TLB = 100 each).
/// assert!(report.final_distance < report.trace.initial().unwrap());
/// ```
#[derive(Debug)]
pub struct GenericPacketSim<Q> {
    world: PacketWorld,
    queue: Q,
    gossip_ring: TimerRing,
    diffusion_ring: TimerRing,
    nodes: Vec<NodeState>,
    /// Per node: `true` when the control link to its parent is failed.
    /// Gossip, copy pushes, and diffusion decisions stop crossing the
    /// edge; request packets (the data plane) keep flowing.
    failed_up: Vec<bool>,
    ledger: TrafficLedger,
    counters: PacketCounters,
    scratch: Scratch,
    outbox: Vec<(SimTime, PacketEvent)>,
    trace: ConvergenceTrace,
    /// Diffusion-epoch samples taken so far (next at `(k+1) * period`).
    epochs_sampled: u64,
    /// Open barrier batch: the queue-surgery steps accumulated so far
    /// (`None` when applying unbatched). See
    /// [`GenericPacketSim::begin_batch`].
    batch: Option<Vec<SurgeryStep>>,
    /// Telemetry level requested via [`GenericPacketSim::set_telemetry`].
    tel_level: Level,
    /// Barrier-path counter slab over [`CORE_KEYS`].
    tel: Counters,
    /// Phase timers over [`CORE_PHASES`] (active at full spans only).
    tel_phases: Phases,
}

/// The standard sequential packet simulator: event storage is
/// [`RadixQueue`] — FIFO lanes for in-order messages beside a radix
/// heap that is O(1) amortized on the simulation's near-monotone
/// schedule.
pub type PacketSim = GenericPacketSim<RadixQueue<PacketEvent>>;

/// The reference backend: the comparison-based `BinaryHeap`
/// [`EventQueue`]. Bit-identical to [`PacketSim`] (kept for the
/// old-vs-new hot-path benchmarks and as the parity anchor).
pub type HeapPacketSim = GenericPacketSim<EventQueue<PacketEvent>>;

impl<Q: SimQueue<PacketEvent> + Default> GenericPacketSim<Q> {
    /// Builds a simulator for `tree` under the per-node document demand
    /// `mix`.
    ///
    /// # Panics
    ///
    /// Panics if `mix` does not cover `tree` or config values are out of
    /// range.
    pub fn new(tree: &Tree, mix: &DocMix, config: PacketSimConfig) -> Self {
        let world = PacketWorld::new(tree, mix, config);
        let n = world.len();
        let mut nodes: Vec<NodeState> = tree
            .nodes()
            .map(|u| packet::init_state(&world, u))
            .collect();

        let mut queue = Q::default();
        let mut gossip_ring = TimerRing::new(SimTime::from_secs(config.gossip_period), n);
        let mut diffusion_ring = TimerRing::new(SimTime::from_secs(config.diffusion_period), n);

        // Prime: first arrivals, then the two staggered timers, in node
        // order (the same relative seq order the parallel driver
        // reproduces per shard).
        let mut outbox = Vec::new();
        for (i, state) in nodes.iter_mut().enumerate() {
            let node = NodeId::new(i);
            packet::initial_arrivals(&world, state, node, &mut outbox);
            for (at, ev) in outbox.drain(..) {
                queue.schedule(at, ev);
            }
            let gossip_seq = queue.alloc_seq();
            gossip_ring.insert(i, world.gossip_phase(i), gossip_seq);
            let diffusion_seq = queue.alloc_seq();
            diffusion_ring.insert(i, world.diffusion_phase(i), diffusion_seq);
        }

        GenericPacketSim {
            world,
            queue,
            gossip_ring,
            diffusion_ring,
            nodes,
            failed_up: vec![false; n],
            ledger: TrafficLedger::new(),
            counters: PacketCounters::default(),
            scratch: Scratch::default(),
            outbox,
            trace: ConvergenceTrace::new(),
            epochs_sampled: 0,
            batch: None,
            tel_level: Level::Off,
            tel: Counters::off(CORE_KEYS),
            tel_phases: Phases::new(CORE_PHASES, Level::Off),
        }
    }

    /// Sets the instrumentation level. Safe to call at any barrier:
    /// counters and phase timers restart from zero; the simulation state
    /// is untouched (telemetry is observation-only, pinned by the golden
    /// on-vs-off tests).
    pub fn set_telemetry(&mut self, level: Level) {
        self.tel_level = level;
        self.tel = Counters::new(CORE_KEYS, level);
        self.tel_phases = Phases::new(CORE_PHASES, level);
        self.world.tel.timed = level.spans_on();
    }

    /// Everything this driver recorded since
    /// [`Self::set_telemetry`]: barrier-path counters, oracle
    /// refold/sweep counts, and (at full spans) phase timings. Empty at
    /// [`Level::Off`].
    pub fn telemetry_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        if !self.tel_level.counters_on() {
            return snap;
        }
        snap.push_counter("core.oracle.refolds", self.world.tel.refolds);
        snap.push_counter("core.oracle.full_sweeps", self.world.tel.full_sweeps);
        self.tel.snapshot_into(&mut snap);
        packet::push_queue_counters(&mut snap, "core", self.queue.lane_stats());
        if self.tel_level.spans_on() {
            snap.push_phase(
                "core.phase.oracle_refresh",
                PhaseStat {
                    ns: self.world.tel.refresh_ns,
                    count: self.world.tel.refresh_count,
                },
            );
            snap.push_phase(
                "core.phase.structural",
                PhaseStat {
                    ns: self.world.tel.structural_ns,
                    count: self.world.tel.structural_count,
                },
            );
            self.tel_phases.snapshot_into(&mut snap);
        }
        snap
    }

    /// The earliest pending `(time, seq, source)` across the heap and the
    /// two timer rings (see [`packet::next_source`]).
    fn next_source(&self) -> Option<(SimTime, u64, DriverSource)> {
        packet::next_source(&self.queue, &self.gossip_ring, &self.diffusion_ring)
    }

    /// The next pending epoch-boundary sample time.
    fn next_sample(&self) -> SimTime {
        SimTime::from_secs((self.epochs_sampled + 1) as f64 * self.world.config.diffusion_period)
    }

    /// Samples the global distance to the oracle at time `at` and pushes
    /// it onto the trace. Rolls every node's serve meter to `at` and
    /// accumulates through the exact [`ww_stats::ExactSum`] — the same
    /// fold the parallel driver's workers compute per shard and merge at
    /// the barrier; exactness is what makes the two bit-identical.
    fn sample_epoch(&mut self, at: SimTime) {
        let now = at.as_secs();
        let sum = packet::trace_partial(&self.world.oracle, self.nodes.iter_mut().enumerate(), now);
        self.trace.push(sum.value().sqrt());
        self.epochs_sampled += 1;
    }

    /// Runs `handler` for node `i` with a freshly assembled [`NodeCtx`],
    /// then drains the produced outbox into the queue in push order —
    /// the one event-execution shape shared by all three sources.
    fn with_node(&mut self, i: usize, handler: impl FnOnce(&mut NodeCtx<'_>, &mut NodeState)) {
        let mut ctx = NodeCtx {
            world: &self.world,
            failed_up: &self.failed_up,
            ledger: &mut self.ledger,
            counters: &mut self.counters,
            out: &mut self.outbox,
            scratch: &mut self.scratch,
        };
        handler(&mut ctx, &mut self.nodes[i]);
        for (at, ev) in self.outbox.drain(..) {
            packet::enqueue(&mut self.queue, at, ev);
        }
    }

    /// Runs the simulation up to `duration` simulated seconds and
    /// reports. May be called repeatedly with increasing horizons; each
    /// call processes the events in `(previous, duration]`.
    pub fn run(&mut self, duration: f64) -> PacketSimReport {
        let deadline = SimTime::from_secs(duration);
        loop {
            let next = self.next_source();
            // Epoch samples fire between events: all events at or before
            // the boundary are processed first, then the boundary is
            // observed.
            let due = next.map(|(t, _, _)| t);
            while self.next_sample() <= deadline && due.is_none_or(|t| t > self.next_sample()) {
                let at = self.next_sample();
                self.sample_epoch(at);
            }
            let Some((at, _, source)) = next else {
                break;
            };
            if at > deadline {
                break;
            }
            match source {
                DriverSource::Heap => {
                    let (t, event) = self.queue.pop().expect("peeked event exists");
                    let i = event.node().index();
                    self.with_node(i, |ctx, state| packet::handle(ctx, state, t, event));
                }
                DriverSource::Gossip => {
                    let (t, member) = self.gossip_ring.pop().expect("peeked fire exists");
                    self.queue.advance_to(t);
                    let node = NodeId::new(member);
                    self.with_node(member, |ctx, state| {
                        packet::on_gossip_timer(ctx, state, t, node);
                    });
                    let seq = self.queue.alloc_seq();
                    self.gossip_ring.rearm(member, seq);
                }
                DriverSource::Diffusion => {
                    let (t, member) = self.diffusion_ring.pop().expect("peeked fire exists");
                    self.queue.advance_to(t);
                    let node = NodeId::new(member);
                    self.with_node(member, |ctx, state| {
                        packet::on_diffusion(ctx, state, t, node);
                    });
                    let seq = self.queue.alloc_seq();
                    self.diffusion_ring.rearm(member, seq);
                }
            }
        }
        // The horizon itself is the observation instant: the clock coasts
        // to it so the report is taken at `duration` exactly, matching
        // the parallel driver's barrier.
        self.queue.fast_forward(deadline);
        self.report()
    }

    /// Produces the final report (also usable mid-run).
    pub fn report(&mut self) -> PacketSimReport {
        let now = self.queue.now().as_secs();
        let rates: Vec<f64> = (0..self.world.len())
            .map(|j| packet::sample_served_rate(&mut self.nodes[j], now.max(1e-9)))
            .collect();
        let served_rates = RateVector::from(rates);
        let final_distance = served_rates.euclidean_distance(&self.world.oracle);
        PacketSimReport {
            final_distance,
            served_rates,
            oracle: self.world.oracle.clone(),
            trace: self.trace.clone(),
            ledger: self.ledger.clone(),
            mean_hops: if self.counters.served_requests == 0 {
                0.0
            } else {
                self.counters.hops_sum as f64 / self.counters.served_requests as f64
            },
            copy_pushes: self.counters.copy_pushes,
            tunnel_fetches: self.counters.tunnel_fetches,
            served_requests: self.counters.served_requests,
            processed_events: self.queue.processed(),
            overflow_parks: 0,
            overflow_peak_parked: 0,
            shard_event_counts: vec![self.queue.processed()],
            imbalance: 1.0,
        }
    }

    /// The TLB oracle for the offered demand.
    pub fn oracle(&self) -> &RateVector {
        &self.world.oracle
    }

    /// The dense document table of this simulation's universe.
    pub fn doc_table(&self) -> &ww_model::DocTable {
        &self.world.table
    }

    /// Lifetime served-request count of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn served_total(&self, node: NodeId) -> u64 {
        self.nodes[node.index()].served_total
    }

    /// The routing tree this simulation runs on.
    pub fn tree(&self) -> &Tree {
        &self.world.tree
    }

    /// Whether the control link from `node` to its parent is failed.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn link_failed(&self, node: NodeId) -> bool {
        self.failed_up[node.index()]
    }

    /// Fails the control link between `node` and its parent: gossip stops
    /// crossing it (estimates on both sides go stale), no copies are
    /// pushed or tunneled across, and the node's diffusion step ignores
    /// its parent until [`PacketSim::heal_link`]. Request packets — the
    /// data plane — keep flowing. Returns `false` when already failed.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or is the root.
    pub fn fail_link(&mut self, node: NodeId) -> bool {
        assert!(
            self.world.tree.parent(node).is_some(),
            "the root has no uplink to fail"
        );
        !std::mem::replace(&mut self.failed_up[node.index()], true)
    }

    /// Restores the control link between `node` and its parent. Returns
    /// `false` when the link was not failed.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or is the root.
    pub fn heal_link(&mut self, node: NodeId) -> bool {
        assert!(
            self.world.tree.parent(node).is_some(),
            "the root has no uplink to heal"
        );
        std::mem::replace(&mut self.failed_up[node.index()], false)
    }

    /// Re-publish (update) a document: every cached copy outside the home
    /// server is invalidated — copies, filters, and serve allocations for
    /// `doc` vanish, and the stale serve-rate estimates for it are reset.
    /// One invalidation message per revoked copy is charged to the ledger
    /// (control traffic from the root, paying the node's depth in hops).
    /// Demand is unchanged; requests fall back to the home server until
    /// diffusion re-spreads the new version.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownDocument`] when `doc` is outside the
    /// simulated universe.
    pub fn invalidate(&mut self, doc: DocId) -> Result<(), ModelError> {
        let Some(k) = self.world.table.index_of(doc) else {
            return Err(ModelError::UnknownDocument { doc: doc.value() });
        };
        let root = self.world.tree.root();
        for j in 0..self.world.len() {
            let node = NodeId::new(j);
            if node == root {
                continue;
            }
            if packet::invalidate_node(&mut self.nodes[j], k) {
                self.ledger
                    .record(TrafficClass::Gossip, 64, self.world.tree.depth(node) as u32);
            }
        }
        Ok(())
    }

    /// Re-resolves the arrival stage after a barrier mutation: drops
    /// stale arrival events (remapping surviving document indices when
    /// the universe grew) and schedules each node's fresh first arrival,
    /// in node order — the canonical recipe the parallel driver repeats
    /// per shard.
    fn rebuild_arrivals(&mut self, growth: Option<&UniverseGrowth>) {
        self.queue_surgery(|ev| packet::remap_for_rebuild(ev, growth));
        self.reschedule_arrivals();
    }

    /// One queue-surgery sweep: filters every pending event through
    /// `f`, timing the sweep and crediting what it removed.
    fn queue_surgery(&mut self, f: impl FnMut(PacketEvent) -> Option<PacketEvent>) {
        let span = self.tel_phases.begin();
        let before = self.queue.len();
        self.queue.filter_map_events(f);
        self.tel.add(K_SURGERY_SWEEPS, 1);
        self.tel
            .add(K_SURGERY_REMOVED, (before - self.queue.len()) as u64);
        self.tel_phases.end(P_QUEUE_SURGERY, span);
    }

    /// The scheduling half of [`PacketSim::rebuild_arrivals`], for
    /// callers whose own queue surgery already dropped the stale
    /// arrivals (a leave's [`packet::renumber_for_leave`] pass).
    fn reschedule_arrivals(&mut self) {
        let span = self.tel_phases.begin();
        let at = self.queue.now();
        for i in 0..self.world.len() {
            packet::rebuild_node_arrivals(
                &self.world,
                &mut self.nodes[i],
                NodeId::new(i),
                at,
                &mut self.outbox,
            );
            for (t, ev) in self.outbox.drain(..) {
                self.queue.schedule(t, ev);
            }
        }
        self.tel_phases.end(P_ARRIVAL_REBUILD, span);
    }

    /// A cache server joins as a new leaf under `parent` at the current
    /// barrier, bringing `rate` req/s of demand split across the
    /// universe proportionally to current document popularity. The
    /// newcomer takes the next id, starts cold (no copies), and its
    /// gossip/diffusion timers arm phase-staggered after the barrier;
    /// every arrival stream is re-resolved.
    ///
    /// # Errors
    ///
    /// As [`PacketWorld::join`]: unknown parent or invalid rate.
    pub fn add_leaf(&mut self, parent: NodeId, rate: f64) -> Result<NodeId, ModelError> {
        let at = self.queue.now();
        let id = self.world.join(parent, rate)?;
        let i = id.index();
        let map = packet::join_slot_map(self.world.tree.children(parent).len() - 1);
        packet::remap_children(&mut self.nodes[parent.index()], &map, at.as_secs());
        self.nodes
            .push(packet::init_state_at(&self.world, id, at.as_secs()));
        self.failed_up.push(false);
        if let Some(steps) = &mut self.batch {
            steps.push(SurgeryStep::Rebuild(None));
        } else {
            self.rebuild_arrivals(None);
        }
        // Arm the newcomer's timers (after the arrival pass, mirroring
        // the construction-time per-node order).
        assert_eq!(self.gossip_ring.add_member(), i);
        assert_eq!(self.diffusion_ring.add_member(), i);
        let gossip_seq = self.queue.alloc_seq();
        self.gossip_ring
            .insert(i, at + self.world.gossip_phase(i), gossip_seq);
        let diffusion_seq = self.queue.alloc_seq();
        self.diffusion_ring
            .insert(i, at + self.world.diffusion_phase(i), diffusion_seq);
        Ok(id)
    }

    /// A leaf cache server departs at the current barrier: its demand
    /// re-homes to its parent, ids compact by swap-remove (the returned
    /// [`LeafRemoval`] names the renumbering), in-flight events
    /// involving the departed node are dropped, and every arrival
    /// stream is re-resolved.
    ///
    /// # Errors
    ///
    /// As [`PacketWorld::leave`]: unknown id, the root, or an interior
    /// node.
    pub fn remove_leaf(&mut self, node: NodeId) -> Result<LeafRemoval, ModelError> {
        let at = self.queue.now();
        let removal = self.world.leave(node)?;
        let i = removal.removed.index();
        self.nodes.swap_remove(i);
        self.failed_up.swap_remove(i);
        self.gossip_ring.swap_remove_member(i);
        self.diffusion_ring.swap_remove_member(i);
        if let Some(steps) = &mut self.batch {
            steps.push(SurgeryStep::Leave {
                removed: removal.removed,
                moved: removal.moved,
            });
        } else {
            self.queue_surgery(|ev| packet::renumber_for_leave(ev, removal.removed, removal.moved));
        }
        for p in packet::parents_to_remap(&self.world.tree, &removal) {
            let map = packet::child_slot_map(&self.world.tree, p, &removal);
            packet::remap_children(&mut self.nodes[p.index()], &map, at.as_secs());
        }
        // The renumbering pass above already dropped the stale arrivals;
        // only the rescheduling half remains (deferred while batched).
        if self.batch.is_none() {
            self.reschedule_arrivals();
        }
        Ok(removal)
    }

    /// Applies a universe growth to every node's per-document state (the
    /// home server also receives the only copy of each new document),
    /// then re-resolves the arrival stage — the shared tail of every
    /// demand-changing barrier operation.
    fn apply_growth(&mut self, growth: Option<UniverseGrowth>) {
        let at = self.queue.now().as_secs();
        if let Some(g) = &growth {
            let span = self.tel_phases.begin();
            let root = self.world.tree.root();
            for j in 0..self.world.len() {
                packet::grow_node_state(&mut self.nodes[j], g, at, NodeId::new(j) == root);
            }
            self.tel_phases.end(P_UNIVERSE_GROWTH, span);
        }
        if let Some(steps) = &mut self.batch {
            steps.push(SurgeryStep::Rebuild(growth));
        } else {
            self.rebuild_arrivals(growth.as_ref());
        }
    }

    /// Publishes a document at the current barrier: demand for `doc`
    /// appears at `origin`, a first-time id grows the dense universe
    /// (every node's per-document state shifts columns; the home server
    /// receives the only copy), and every arrival stream is re-resolved.
    ///
    /// # Errors
    ///
    /// As [`PacketWorld::publish`]: unknown origin or invalid rate.
    pub fn publish_doc(&mut self, doc: DocId, origin: NodeId, rate: f64) -> Result<(), ModelError> {
        let growth = self.world.publish(doc, origin, rate)?;
        self.apply_growth(growth);
        Ok(())
    }

    /// Replaces the whole demand mix at the current barrier (hot-set
    /// rotation, Zipf re-skew). Copies and serve allocations survive;
    /// first-time document ids grow the universe; every arrival stream
    /// is re-resolved against the new mix.
    ///
    /// # Errors
    ///
    /// As [`PacketWorld::set_mix`]: a mix not covering the current tree.
    pub fn set_mix(&mut self, mix: &DocMix) -> Result<(), ModelError> {
        let growth = self.world.set_mix(mix)?;
        self.apply_growth(growth);
        Ok(())
    }

    /// Opens a barrier batch: subsequent barrier mutations apply their
    /// primary state changes eagerly but defer the oracle refresh, the
    /// queue-surgery sweep, and the arrival re-resolution to one shared
    /// pass in [`GenericPacketSim::commit_batch`]. A K-event batch ends
    /// bit-identical to K unbatched applications at a fraction of the
    /// cost (one refold, one sweep, one re-resolution instead of K).
    ///
    /// # Panics
    ///
    /// Panics if a batch is already open.
    pub fn begin_batch(&mut self) {
        assert!(self.batch.is_none(), "a barrier batch is already open");
        self.world.begin_batch();
        self.batch = Some(Vec::new());
    }

    /// Closes the batch: performs the single deferred oracle refresh,
    /// applies the accumulated queue-surgery steps in one
    /// `filter_map_events` sweep, and re-resolves the arrival stage
    /// once, in node order.
    ///
    /// # Panics
    ///
    /// Panics if no batch is open.
    pub fn commit_batch(&mut self) {
        let steps = self.batch.take().expect("no open barrier batch");
        self.world.end_batch();
        if !steps.is_empty() {
            self.queue_surgery(|ev| packet::apply_surgery(ev, &steps));
            self.reschedule_arrivals();
        }
    }

    /// Applies one uniform [`BarrierOp`] through the matching typed
    /// method (honoring an open batch).
    ///
    /// # Errors
    ///
    /// As the matching typed method; a failed op mutates nothing.
    ///
    /// # Panics
    ///
    /// As the matching typed method — [`BarrierOp::FailLink`] /
    /// [`BarrierOp::HealLink`] on the root or out of range.
    pub fn apply_op(&mut self, op: &BarrierOp) -> Result<BarrierOutcome, ModelError> {
        self.tel.add(K_BARRIER_OPS, 1);
        match op {
            BarrierOp::AddLeaf { parent, rate } => {
                self.add_leaf(*parent, *rate).map(BarrierOutcome::Added)
            }
            BarrierOp::RemoveLeaf { node } => self.remove_leaf(*node).map(BarrierOutcome::Removed),
            BarrierOp::PublishDoc { doc, origin, rate } => self
                .publish_doc(*doc, *origin, *rate)
                .map(|()| BarrierOutcome::Done),
            BarrierOp::SetMix { mix } => self.set_mix(mix).map(|()| BarrierOutcome::Done),
            BarrierOp::FailLink { node } => Ok(BarrierOutcome::Toggled(self.fail_link(*node))),
            BarrierOp::HealLink { node } => Ok(BarrierOutcome::Toggled(self.heal_link(*node))),
            BarrierOp::Invalidate { doc } => self.invalidate(*doc).map(|()| BarrierOutcome::Done),
        }
    }

    /// Applies every op of a same-barrier storm as one batch: per-op
    /// results mirror sequential application (a rejected op mutates
    /// nothing and the batch continues), but the oracle refresh, queue
    /// surgery, and arrival re-resolution run once at the end.
    ///
    /// # Panics
    ///
    /// As [`GenericPacketSim::apply_op`], and if a batch is already
    /// open.
    pub fn apply_all(&mut self, ops: &[BarrierOp]) -> Vec<Result<BarrierOutcome, ModelError>> {
        self.begin_batch();
        let results = ops.iter().map(|op| self.apply_op(op)).collect();
        self.commit_batch();
        results
    }

    /// The shared world (topology, mix, oracle, configuration) as the
    /// simulation currently sees it.
    pub fn world(&self) -> &PacketWorld {
        &self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ww_model::DocId;
    use ww_topology::paper;

    fn fig7_mix() -> (Tree, DocMix) {
        let b = paper::fig7();
        let mut mix = DocMix::new(b.tree.len());
        for d in &b.demands {
            mix.set(d.origin, d.doc, d.rate);
        }
        (b.tree, mix)
    }

    #[test]
    fn all_requests_served_and_accounted() {
        let (tree, mix) = fig7_mix();
        let mut sim = PacketSim::new(&tree, &mix, PacketSimConfig::default());
        let report = sim.run(10.0);
        // 360 req/s for 10 s: expect on the order of 3600 served requests.
        assert!(
            report.served_requests > 2500 && report.served_requests < 4700,
            "served {}",
            report.served_requests
        );
        assert_eq!(
            report.ledger.count(TrafficClass::Response),
            report.served_requests
        );
    }

    #[test]
    fn convergence_toward_tlb_with_tunneling() {
        let (tree, mix) = fig7_mix();
        let mut sim = PacketSim::new(&tree, &mix, PacketSimConfig::default());
        let report = sim.run(60.0);
        let initial = report.trace.initial().unwrap_or(f64::INFINITY);
        assert!(
            report.final_distance < initial * 0.35,
            "distance {} of initial {}",
            report.final_distance,
            initial
        );
        assert!(report.tunnel_fetches >= 1, "tunneling should fire");
        // Every node ends up serving a nontrivial share.
        for (node, rate) in report.served_rates.iter() {
            assert!(rate > 30.0, "node {node} serves only {rate}");
        }
    }

    #[test]
    fn tunneling_accelerates_the_starved_node() {
        // Unlike the deterministic document-level engine (where the
        // Figure 7 barrier stalls *permanently* — see `docsim`), the
        // packet engine's measurement noise eventually leaks the blocked
        // document past the barrier. The realistic claim is therefore
        // about speed: with tunneling, the starved node ramps up sooner.
        let (tree, mix) = fig7_mix();
        let n2_at = |tunneling: bool, horizon: f64| {
            let cfg = PacketSimConfig {
                tunneling,
                ..PacketSimConfig::default()
            };
            let mut sim = PacketSim::new(&tree, &mix, cfg);
            let r = sim.run(horizon);
            (r.served_rates[NodeId::new(2)], r.tunnel_fetches)
        };
        let (with_tunnel, fetches) = n2_at(true, 8.0);
        let (without_tunnel, no_fetches) = n2_at(false, 8.0);
        assert!(fetches >= 1, "tunneling should fire");
        assert_eq!(no_fetches, 0);
        assert!(
            with_tunnel > without_tunnel * 1.2,
            "tunneling ramp {with_tunnel} should beat {without_tunnel}"
        );
    }

    #[test]
    fn mean_hops_decrease_as_copies_spread() {
        let (tree, mix) = fig7_mix();
        // Short run: most requests go all the way to the root.
        let mut early = PacketSim::new(&tree, &mix, PacketSimConfig::default());
        let early_report = early.run(3.0);
        // Long run: caches absorb most requests close to the clients.
        let mut late = PacketSim::new(&tree, &mix, PacketSimConfig::default());
        let late_report = late.run(60.0);
        assert!(
            late_report.mean_hops < early_report.mean_hops,
            "late {} vs early {}",
            late_report.mean_hops,
            early_report.mean_hops
        );
    }

    #[test]
    fn gossip_overhead_is_periodic_not_per_request() {
        let (tree, mix) = fig7_mix();
        let mut sim = PacketSim::new(&tree, &mix, PacketSimConfig::default());
        let report = sim.run(20.0);
        let gossip = report.ledger.count(TrafficClass::Gossip);
        // 4 nodes x (neighbors) x (20 s / 0.5 s) is on the order of 500,
        // far below the ~7200 requests.
        assert!(gossip > 100, "gossip {gossip}");
        assert!(
            (gossip as f64) < report.served_requests as f64 * 0.5,
            "gossip {} vs served {}",
            gossip,
            report.served_requests
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (tree, mix) = fig7_mix();
        let run = |seed: u64| {
            let cfg = PacketSimConfig {
                seed,
                ..PacketSimConfig::default()
            };
            let mut sim = PacketSim::new(&tree, &mix, cfg);
            let r = sim.run(5.0);
            (r.served_requests, r.copy_pushes)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn gossip_loss_tolerated() {
        let (tree, mix) = fig7_mix();
        let cfg = PacketSimConfig {
            gossip_loss: 0.3,
            ..PacketSimConfig::default()
        };
        let mut sim = PacketSim::new(&tree, &mix, cfg);
        let report = sim.run(60.0);
        let initial = report.trace.initial().unwrap_or(f64::INFINITY);
        assert!(
            report.final_distance < initial * 0.5,
            "distance {} of initial {}",
            report.final_distance,
            initial
        );
    }

    #[test]
    fn trace_is_reproducible_across_runs() {
        // The timer rings must merge with the heap in a deterministic
        // order: two identically seeded runs produce identical traces.
        let (tree, mix) = fig7_mix();
        let trace = |_| {
            let mut sim = PacketSim::new(&tree, &mix, PacketSimConfig::default());
            sim.run(15.0).trace.distances().to_vec()
        };
        assert_eq!(trace(0), trace(1));
    }

    #[test]
    fn trace_samples_once_per_epoch() {
        // The convergence trace is observed at epoch boundaries: a run of
        // `d` seconds with a 1 s diffusion period yields exactly `d`
        // samples, independent of the node count.
        let (tree, mix) = fig7_mix();
        let mut sim = PacketSim::new(&tree, &mix, PacketSimConfig::default());
        let report = sim.run(12.0);
        assert_eq!(report.trace.len(), 12);
    }

    #[test]
    fn incremental_runs_match_one_shot() {
        // Driving the horizon epoch by epoch (the scenario adapter's
        // stepping pattern) replays the one-shot run bit for bit.
        let (tree, mix) = fig7_mix();
        let mut stepped = PacketSim::new(&tree, &mix, PacketSimConfig::default());
        for k in 1..=10 {
            stepped.run(k as f64);
        }
        let a = stepped.report();
        let mut oneshot = PacketSim::new(&tree, &mix, PacketSimConfig::default());
        let b = oneshot.run(10.0);
        assert_eq!(a.served_requests, b.served_requests);
        assert_eq!(a.trace.distances(), b.trace.distances());
        assert_eq!(a.served_rates.as_slice(), b.served_rates.as_slice());
    }

    #[test]
    fn invalidation_revokes_copies() {
        let (tree, mix) = fig7_mix();
        let mut sim = PacketSim::new(&tree, &mix, PacketSimConfig::default());
        sim.run(30.0);
        // The hot documents have spread; revoke one and check the error
        // path for unknown ids.
        assert!(sim.invalidate(DocId::new(1)).is_ok());
        assert!(sim.invalidate(DocId::new(999)).is_err());
    }
}
