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
//!   [`DocTable`](ww_model::DocTable) on one
//!   [`NodeSlab`] for the whole tree: meter
//!   cells, token buckets and copy/filter bits sit at
//!   `node x stride + doc` of a handful of slabs — no hashing and no
//!   per-node header on the per-packet path.
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
    self, BarrierOp, BarrierOutcome, DriverSource, NodeCtx, NodeMut, NodeSlab, PacketCounters,
    PacketEvent, PacketWorld, Scratch, SurgeryStep, UniverseGrowth,
};
use ww_model::{DocId, LeafRemoval, ModelError, NodeId, RateVector, Tree};
use ww_net::{TrafficClass, TrafficLedger};
use ww_sim::{RadixQueue, SimQueue, SimTime, TimerRing};
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

/// The sequential packet-level simulator: one event loop over the whole
/// tree. Event storage is [`RadixQueue`] — FIFO lanes for in-order
/// messages beside a radix heap that is O(1) amortized on the
/// simulation's near-monotone schedule.
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
pub struct PacketSim {
    world: PacketWorld,
    queue: RadixQueue<PacketEvent>,
    gossip_ring: TimerRing,
    diffusion_ring: TimerRing,
    /// Every node's protocol state; row = node id.
    nodes: NodeSlab,
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
    /// Whether a barrier batch is open (see [`PacketBackend::begin_batch`]).
    batch_open: bool,
    /// Queue-surgery steps the open batch has accumulated.
    batch: Vec<SurgeryStep>,
    /// Telemetry level requested via [`PacketSim::set_telemetry`].
    tel_level: Level,
    /// Barrier-path counter slab over [`CORE_KEYS`].
    tel: Counters,
    /// Phase timers over [`CORE_PHASES`] (active at full spans only).
    tel_phases: Phases,
}

impl PacketSim {
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
        let ids: Vec<NodeId> = tree.nodes().collect();
        let mut nodes = NodeSlab::new(&world, &ids);

        let mut queue = RadixQueue::default();
        let mut gossip_ring = TimerRing::new(SimTime::from_secs(config.gossip_period), n);
        let mut diffusion_ring = TimerRing::new(SimTime::from_secs(config.diffusion_period), n);

        // Prime: first arrivals, then the two staggered timers, in node
        // order (the same relative seq order the parallel driver
        // reproduces per shard).
        let mut outbox = Vec::new();
        for (i, &node) in ids.iter().enumerate() {
            nodes.resolve_node_arrivals(&world, i, node, SimTime::ZERO, &mut outbox);
            for (at, ev) in outbox.drain(..) {
                queue.schedule(at, ev);
            }
            let gossip_seq = queue.alloc_seq();
            gossip_ring.insert(i, world.gossip_phase(i), gossip_seq);
            let diffusion_seq = queue.alloc_seq();
            diffusion_ring.insert(i, world.diffusion_phase(i), diffusion_seq);
        }

        PacketSim {
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
            batch_open: false,
            batch: Vec::new(),
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
        packet::push_state_counters(&mut snap, "core", std::iter::once(&self.nodes));
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
        let sum = packet::trace_partial(
            &self.world.oracle,
            &mut self.nodes,
            self.world.tree.nodes(),
            now,
        );
        self.trace.push(sum.value().sqrt());
        self.epochs_sampled += 1;
    }

    /// Runs `handler` for node `i` with a freshly assembled [`NodeCtx`],
    /// then drains the produced outbox into the queue in push order —
    /// the one event-execution shape shared by all three sources.
    fn with_node(&mut self, i: usize, handler: impl FnOnce(&mut NodeCtx<'_>, &mut NodeMut<'_>)) {
        let mut ctx = NodeCtx {
            world: &self.world,
            failed_up: &self.failed_up,
            ledger: &mut self.ledger,
            counters: &mut self.counters,
            out: &mut self.outbox,
            scratch: &mut self.scratch,
        };
        handler(&mut ctx, &mut self.nodes.node_mut(i));
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
            .map(|j| self.nodes.measured_load(j, now.max(1e-9)))
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

    /// The routing tree this simulation runs on.
    pub fn tree(&self) -> &Tree {
        &self.world.tree
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
        self.nodes.served_total(node.index())
    }

    /// Whether the control link from `node` to its parent is failed.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn link_failed(&self, node: NodeId) -> bool {
        self.failed_up[node.index()]
    }

    /// Re-publish (update) a document: every cached copy outside the home
    /// server is invalidated — copies, filters, and serve allocations for
    /// `doc` vanish, and the stale serve-rate estimates for it are reset.
    /// One invalidation message per revoked copy is charged to the ledger
    /// (control traffic from the root, paying the node's depth in hops).
    /// Demand is unchanged; requests fall back to the home server until
    /// diffusion re-spreads the new version.
    fn invalidate(&mut self, doc: DocId) -> Result<(), ModelError> {
        let Some(k) = self.world.table.index_of(doc) else {
            return Err(ModelError::UnknownDocument { doc: doc.value() });
        };
        let root = self.world.tree.root();
        for j in 0..self.world.len() {
            let node = NodeId::new(j);
            if node == root {
                continue;
            }
            if self.nodes.invalidate_row(j, k) {
                self.ledger
                    .record(TrafficClass::Gossip, 64, self.world.tree.depth(node) as u32);
            }
        }
        Ok(())
    }

    /// A cache server joins as a new leaf under `parent`, bringing
    /// `rate` req/s of demand split across the universe proportionally
    /// to current document popularity. The newcomer takes the next id,
    /// starts cold (no copies), and its gossip/diffusion timers arm
    /// phase-staggered after the barrier.
    fn add_leaf(&mut self, parent: NodeId, rate: f64) -> Result<NodeId, ModelError> {
        let at = self.queue.now();
        let id = self.world.join(parent, rate)?;
        let i = id.index();
        self.nodes.push_child(parent.index(), at.as_secs());
        self.nodes.push_node(&self.world, id, at.as_secs());
        self.failed_up.push(false);
        self.batch.push(SurgeryStep::Rebuild(None));
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

    /// A leaf cache server departs: its demand re-homes to its parent,
    /// ids compact by swap-remove (the returned [`LeafRemoval`] names
    /// the renumbering), and the commit sweep drops in-flight events
    /// involving the departed node.
    fn remove_leaf(&mut self, node: NodeId) -> Result<LeafRemoval, ModelError> {
        let at = self.queue.now();
        let removal = self.world.leave(node)?;
        let i = removal.removed.index();
        self.nodes.swap_remove_node(i);
        self.failed_up.swap_remove(i);
        self.gossip_ring.swap_remove_member(i);
        self.diffusion_ring.swap_remove_member(i);
        self.batch.push(SurgeryStep::Leave {
            removed: removal.removed,
            moved: removal.moved,
        });
        for p in packet::parents_to_remap(&self.world.tree, &removal) {
            let map = packet::child_slot_map(&self.world.tree, p, &removal);
            self.nodes.remap_children(p.index(), &map, at.as_secs());
        }
        Ok(removal)
    }

    /// Applies a universe growth to every node's per-document state (the
    /// home server also receives the only copy of each new document) —
    /// the shared tail of every demand-changing barrier operation
    /// (publish, mix replacement).
    fn apply_growth(&mut self, growth: Option<UniverseGrowth>) {
        let at = self.queue.now().as_secs();
        if let Some(g) = &growth {
            let span = self.tel_phases.begin();
            self.nodes.grow(g, at, Some(self.world.tree.root().index()));
            self.tel_phases.end(P_UNIVERSE_GROWTH, span);
        }
        self.batch.push(SurgeryStep::Rebuild(growth));
    }

    /// [`PacketBackend::apply_all`], for callers without the trait in
    /// scope: an in-process batch always opens and closes, so only the
    /// per-op results remain.
    ///
    /// # Panics
    ///
    /// Panics if a batch is already open.
    pub fn apply_all(&mut self, ops: &[BarrierOp]) -> Vec<Result<BarrierOutcome, ModelError>> {
        PacketBackend::apply_all(self, ops).expect("an in-process batch opens and closes")
    }

    /// The shared world (topology, mix, oracle, configuration) as the
    /// simulation currently sees it.
    pub fn world(&self) -> &PacketWorld {
        &self.world
    }

    /// Every node's protocol state; row = node id.
    pub fn nodes(&self) -> &NodeSlab {
        &self.nodes
    }
}

/// The one surface every packet-level engine — this sequential driver,
/// the sharded `ww-pdes` driver, the multi-process `ww-dist` driver —
/// offers its callers: advance simulated time, report, and mutate the
/// world at a barrier through [`BarrierOp`]s. The engines are pinned
/// bit-identical to each other, so code written against this trait (the
/// scenario adapter, the cross-backend tests) runs unchanged on all
/// three.
///
/// Every call can fail with [`PacketBackend::Error`] because the
/// distributed engine's workers can die; the in-process engines only
/// ever return the model's rejection of a [`BarrierOp`].
pub trait PacketBackend {
    /// What a call can fail with: at least the model's rejection of an
    /// op, plus whatever the engine's transport can produce.
    type Error: From<ModelError> + std::fmt::Display;

    /// Runs up to `duration` simulated seconds and reports. May be
    /// called repeatedly with increasing horizons.
    fn run(&mut self, duration: f64) -> Result<PacketSimReport, Self::Error>;

    /// The report at the current horizon.
    fn report(&mut self) -> Result<PacketSimReport, Self::Error>;

    /// The TLB oracle for the offered demand.
    fn oracle(&self) -> &RateVector;

    /// The routing tree as the run currently sees it.
    fn tree(&self) -> &Tree;

    /// Opens a barrier batch: ops applied until
    /// [`PacketBackend::commit_batch`] share one oracle refresh, one
    /// queue-surgery sweep and one arrival re-resolution.
    fn begin_batch(&mut self) -> Result<(), Self::Error>;

    /// Applies one op at the current barrier — into the open batch, or
    /// as a batch of one. A rejected op mutates nothing.
    fn apply_op(&mut self, op: &BarrierOp) -> Result<BarrierOutcome, Self::Error>;

    /// Closes the open batch.
    fn commit_batch(&mut self) -> Result<(), Self::Error>;

    /// Applies a same-barrier storm as one batch. The outer error is a
    /// batch that could not open or close; per-op rejections land in
    /// the vector and do not stop the batch.
    #[allow(clippy::type_complexity)]
    fn apply_all(
        &mut self,
        ops: &[BarrierOp],
    ) -> Result<Vec<Result<BarrierOutcome, Self::Error>>, Self::Error> {
        self.begin_batch()?;
        let results = ops.iter().map(|op| self.apply_op(op)).collect();
        self.commit_batch()?;
        Ok(results)
    }

    /// Sets the observation level (observation only: no level changes a
    /// simulated bit).
    fn set_telemetry(&mut self, level: Level);

    /// Everything recorded since [`PacketBackend::set_telemetry`].
    fn telemetry_snapshot(&self) -> Snapshot;
}

impl PacketBackend for PacketSim {
    type Error = ModelError;

    fn run(&mut self, duration: f64) -> Result<PacketSimReport, ModelError> {
        Ok(PacketSim::run(self, duration))
    }

    fn report(&mut self) -> Result<PacketSimReport, ModelError> {
        Ok(PacketSim::report(self))
    }

    fn oracle(&self) -> &RateVector {
        PacketSim::oracle(self)
    }

    fn tree(&self) -> &Tree {
        PacketSim::tree(self)
    }

    /// # Panics
    ///
    /// Panics if a batch is already open.
    fn begin_batch(&mut self) -> Result<(), ModelError> {
        assert!(!self.batch_open, "a barrier batch is already open");
        self.world.begin_batch();
        self.batch_open = true;
        Ok(())
    }

    fn apply_op(&mut self, op: &BarrierOp) -> Result<BarrierOutcome, ModelError> {
        let lone = !self.batch_open;
        if lone {
            self.begin_batch()?;
        }
        self.tel.add(K_BARRIER_OPS, 1);
        let result = match op {
            BarrierOp::AddLeaf { parent, rate } => {
                self.add_leaf(*parent, *rate).map(BarrierOutcome::Added)
            }
            BarrierOp::RemoveLeaf { node } => self.remove_leaf(*node).map(BarrierOutcome::Removed),
            BarrierOp::PublishDoc { doc, origin, rate } => {
                self.world.publish(*doc, *origin, *rate).map(|growth| {
                    self.apply_growth(growth);
                    BarrierOutcome::Done
                })
            }
            BarrierOp::SetMix { mix } => self.world.set_mix(mix).map(|growth| {
                self.apply_growth(growth);
                BarrierOutcome::Done
            }),
            BarrierOp::FailLink { node } => {
                packet::set_link(&self.world.tree, &mut self.failed_up, *node, true)
                    .map(BarrierOutcome::Toggled)
            }
            BarrierOp::HealLink { node } => {
                packet::set_link(&self.world.tree, &mut self.failed_up, *node, false)
                    .map(BarrierOutcome::Toggled)
            }
            BarrierOp::Invalidate { doc } => self.invalidate(*doc).map(|()| BarrierOutcome::Done),
        };
        if lone {
            self.commit_batch()?;
        }
        result
    }

    /// One `filter_map_events` sweep applies the accumulated surgery
    /// steps (stale arrivals drop, surviving events are renumbered and
    /// remapped), then each node's fresh first arrival is scheduled, in
    /// node order — the canonical recipe the parallel driver repeats
    /// per shard.
    ///
    /// # Panics
    ///
    /// Panics if no batch is open.
    fn commit_batch(&mut self) -> Result<(), ModelError> {
        assert!(self.batch_open, "no open barrier batch");
        self.batch_open = false;
        self.world.end_batch();
        if self.batch.is_empty() {
            return Ok(());
        }
        let steps = std::mem::take(&mut self.batch);
        let span = self.tel_phases.begin();
        let before = self.queue.len();
        self.queue
            .filter_map_events(|ev| packet::apply_surgery(ev, &steps));
        self.tel.add(K_SURGERY_SWEEPS, 1);
        self.tel
            .add(K_SURGERY_REMOVED, (before - self.queue.len()) as u64);
        self.tel_phases.end(P_QUEUE_SURGERY, span);

        let span = self.tel_phases.begin();
        let at = self.queue.now();
        self.nodes.clear_arrivals();
        for i in 0..self.world.len() {
            self.nodes
                .resolve_node_arrivals(&self.world, i, NodeId::new(i), at, &mut self.outbox);
            for (t, ev) in self.outbox.drain(..) {
                self.queue.schedule(t, ev);
            }
        }
        self.tel_phases.end(P_ARRIVAL_REBUILD, span);
        Ok(())
    }

    fn set_telemetry(&mut self, level: Level) {
        PacketSim::set_telemetry(self, level);
    }

    fn telemetry_snapshot(&self) -> Snapshot {
        PacketSim::telemetry_snapshot(self)
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
        let revoke = |doc| BarrierOp::Invalidate {
            doc: DocId::new(doc),
        };
        assert!(sim.apply_op(&revoke(1)).is_ok());
        assert!(sim.apply_op(&revoke(999)).is_err());
    }
}
