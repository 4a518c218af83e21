//! Packet-level, event-driven WebWave — the sequential engine.
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
//! The node-level protocol lives in [`crate::packet`] and the event loop,
//! the barrier operations and the report fold in
//! [`crate::packet::driver`], shared with the sharded parallel engine in
//! the `ww-pdes` crate and the multi-process one in `ww-dist`: every
//! handler is node-local, every random draw is content-keyed, and every
//! cross-node effect is a timestamped message. [`PacketSim`] is the
//! one-shard, zero-wire case of that driver — a [`SimCore`] over
//! [`Partition::single`] and the one [`ShardCore`] it names. The
//! parallel engine runs one such shard per subtree and produces
//! bit-identical results.
//!
//! # Performance
//!
//! The hot path avoids hashing and sorting:
//!
//! * All per-document state is addressed through the simulation's
//!   [`DocTable`] on one [`NodeSlab`] for the whole tree: `seen` meter
//!   cells and copy/filter bits sit at `node x docs + doc` of a
//!   handful of slabs, and a serving node's token bucket and served
//!   meter in a serve slot found by one popcount — no hashing, no scan
//!   and no per-node header on the per-packet path.
//! * Pending events sit in the cheapest structure that keeps their
//!   class sorted, merged by `(time, seq)`: the two strictly periodic
//!   timer streams in [`TimerRing`](ww_sim::TimerRing)s; every message a
//!   handler emits at `now + link_delay` or at `now` — already in key
//!   order — in the queue's FIFO lanes (routed by
//!   [`crate::packet::enqueue`]); the next Poisson arrival of each stream as a
//!   16-byte key in its node's slab row, with only each row's earliest
//!   in the radix heap. Ring fires carry
//!   sequence numbers from the queue's global counter, so the merged
//!   order is exactly what one combined heap would produce.
//!
//! The convergence trace is sampled once per diffusion epoch (at
//! `k * diffusion_period`), an `O(n)` pass per period — the previous
//! per-fire observer cost `O(n²)` per period, which dominated large
//! topologies.

use crate::packet::driver::{Partition, ShardCore, SimCore};
use crate::packet::{BarrierOp, BarrierOutcome, NodeSlab, PacketCounters, PacketWorld, CORE_SHARD};
use crate::stats::ConvergenceTrace;
use std::fmt::Write as _;
use ww_model::{DocTable, ModelError, NodeId, RateVector, Tree};
use ww_net::{TrafficLedger, ALL_TRAFFIC_CLASSES};
use ww_sim::SimTime;
use ww_telemetry::{Level, Snapshot};
use ww_workload::DocMix;

pub use crate::packet::PacketSimConfig;

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
    /// always `0` for the sequential driver, and left out of
    /// [`PacketSimReport::canonical`] (it depends on transport and
    /// thread timing, the numbers the simulation reports do not).
    pub overflow_parks: u64,
    /// Peak depth any single overflow queue reached — how far behind the
    /// slowest wire fell. `0` when no message ever parked. Left out of
    /// [`PacketSimReport::canonical`] like `overflow_parks`.
    pub overflow_peak_parked: u64,
    /// Events processed per shard, indexed by shard id (one entry — the
    /// whole run — for the sequential driver). Deterministic for a given
    /// worker count, but *partition-dependent*: the vector's length and
    /// split vary with the worker count and with adaptive rebalancing,
    /// so [`PacketSimReport::canonical`] leaves it out (its **sum** is
    /// `processed_events`, which it keeps).
    pub shard_event_counts: Vec<u64>,
    /// Max/mean ratio of `shard_event_counts` — the whole-run load
    /// imbalance across shards, `1.0` meaning perfectly balanced (and
    /// trivially `1.0` for the sequential driver). Partition-dependent
    /// like `shard_event_counts`, and likewise left out of
    /// [`PacketSimReport::canonical`].
    pub imbalance: f64,
}

/// The max/mean ratio of per-shard event counts: `1.0` is perfectly
/// balanced. An event-free (or shard-free) run reports `1.0` — nothing
/// to balance.
pub fn imbalance(shard_events: &[u64]) -> f64 {
    let total: u64 = shard_events.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / shard_events.len() as f64;
    let max = shard_events.iter().copied().max().unwrap_or(0);
    max as f64 / mean
}

impl PacketSimReport {
    /// Assembles the report every engine hands back, from the pieces it
    /// gathered its own way — out of slab rows in process, out of
    /// worker frames over sockets: `rates` is the measured served rate
    /// per node in node order, `ledger` and `counters` the merge over
    /// shards, `shard_events` each shard's processed-event count and
    /// `overflow` the wires' `(parks, peak parked)`.
    pub fn assemble(
        oracle: &RateVector,
        trace: &ConvergenceTrace,
        rates: Vec<f64>,
        ledger: TrafficLedger,
        counters: PacketCounters,
        shard_events: Vec<u64>,
        overflow: (u64, u64),
    ) -> Self {
        let served_rates = RateVector::from(rates);
        PacketSimReport {
            final_distance: served_rates.euclidean_distance(oracle),
            served_rates,
            oracle: oracle.clone(),
            trace: trace.clone(),
            ledger,
            mean_hops: if counters.served_requests == 0 {
                0.0
            } else {
                counters.hops_sum as f64 / counters.served_requests as f64
            },
            copy_pushes: counters.copy_pushes,
            tunnel_fetches: counters.tunnel_fetches,
            served_requests: counters.served_requests,
            processed_events: shard_events.iter().sum(),
            overflow_parks: overflow.0,
            overflow_peak_parked: overflow.1,
            imbalance: imbalance(&shard_events),
            shard_event_counts: shard_events,
        }
    }

    /// The report's bit-identity surface: one `name=<16 hex digits>`
    /// line per partition-independent quantity, every float as its raw
    /// IEEE-754 bits — the trace sample by sample, the served rates and
    /// the oracle node by node, the final distance, the counters, the
    /// mean hop count, and each traffic class's messages and bytes with
    /// the ledger's link transmissions. Two runs of one world are the
    /// same run exactly when these strings are equal: the sequential,
    /// sharded and distributed engines at every worker count, and a
    /// stepped run against a one-shot one. The four partition-dependent
    /// fields (`overflow_parks`, `overflow_peak_parked`,
    /// `shard_event_counts`, `imbalance`) are left out.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        let mut line = |name: &str, bits: u64| {
            let _ = writeln!(out, "{name}={bits:016x}");
        };
        for x in self.trace.distances() {
            line("trace", x.to_bits());
        }
        for (node, x) in self.served_rates.iter() {
            line(&format!("served_rates[{node}]"), x.to_bits());
        }
        for (node, x) in self.oracle.iter() {
            line(&format!("oracle[{node}]"), x.to_bits());
        }
        line("final_distance", self.final_distance.to_bits());
        line("served_requests", self.served_requests);
        line("processed_events", self.processed_events);
        line("copy_pushes", self.copy_pushes);
        line("tunnel_fetches", self.tunnel_fetches);
        line("mean_hops", self.mean_hops.to_bits());
        for class in ALL_TRAFFIC_CLASSES {
            line(&format!("count[{class:?}]"), self.ledger.count(class));
            line(&format!("bytes[{class:?}]"), self.ledger.bytes(class));
        }
        line("link_transmissions", self.ledger.link_transmissions());
        out
    }
}

/// The sequential packet-level simulator: the shard driver of
/// [`crate::packet::driver`] over the whole tree — one shard, no wires.
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
    core: SimCore,
    /// The whole tree; row = node id.
    shard: ShardCore,
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
        let partition = Partition::single(world.len());
        let shard = ShardCore::new(&world, &partition, 0);
        PacketSim {
            core: SimCore::new(world, partition),
            shard,
        }
    }

    /// Sets the instrumentation level. Safe to call at any barrier:
    /// counters and phase timers restart from zero; the simulation state
    /// is untouched (telemetry is observation-only, pinned by the golden
    /// on-vs-off tests).
    pub fn set_telemetry(&mut self, level: Level) {
        self.core.set_telemetry(level);
    }

    /// Everything this driver recorded since
    /// [`Self::set_telemetry`]: barrier-path counters, oracle
    /// refold/sweep counts, and (at full spans) phase timings. Empty at
    /// [`Level::Off`].
    pub fn telemetry_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        if self.core.telemetry_level().counters_on() {
            self.core.push_telemetry(&mut snap);
            self.shard.telemetry(CORE_SHARD).snapshot_into(&mut snap);
        }
        snap
    }

    /// Runs the simulation up to `duration` simulated seconds through
    /// the schedule of every engine ([`SimCore::next_barrier`]) and
    /// reports: at each diffusion-epoch boundary the global distance to
    /// the oracle is sampled after every event at or before it. With no
    /// other shard, nothing can arrive from outside, so a barrier is the
    /// shard's bound. May be called repeatedly with increasing horizons;
    /// each call processes the events in `(previous, duration]`.
    pub fn run(&mut self, duration: f64) -> PacketSimReport {
        let deadline = SimTime::from_secs(duration);
        while let Some((at, sample)) = self.core.next_barrier(deadline) {
            self.shard.run_until(&self.core, at);
            debug_assert!(self.shard.remote.is_empty(), "one shard hosts every node");
            self.core.horizon = at;
            if sample {
                let sum = self.shard.trace_partial(&self.core, at.as_secs());
                self.core.record_sample(&sum);
            }
        }
        self.report()
    }

    /// Produces the report at the current horizon (also usable mid-run).
    pub fn report(&mut self) -> PacketSimReport {
        self.core
            .report(std::slice::from_mut(&mut self.shard), (0, 0))
    }

    /// Lifetime served-request count of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn served_total(&self, node: NodeId) -> u64 {
        self.shard.nodes.served_total(node.index())
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

    /// Every node's protocol state; row = node id.
    pub fn nodes(&self) -> &NodeSlab {
        &self.shard.nodes
    }

    /// The one shard this engine runs, with the core it runs under —
    /// for checks that read the calendar beside the rows
    /// ([`ShardCore::check_fronts`]).
    pub fn parts(&self) -> (&SimCore, &ShardCore) {
        (&self.core, &self.shard)
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

    /// The shared world (topology, mix, oracle, configuration) as the
    /// run currently sees it.
    fn world(&self) -> &PacketWorld;

    /// The TLB oracle for the offered demand.
    fn oracle(&self) -> &RateVector {
        &self.world().oracle
    }

    /// The routing tree as the run currently sees it.
    fn tree(&self) -> &Tree {
        &self.world().tree
    }

    /// The dense document table of the run's universe.
    fn doc_table(&self) -> &DocTable {
        self.world().mix.table()
    }

    /// Whether the control link from `node` to its parent is failed.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    fn link_failed(&self, node: NodeId) -> bool {
        self.world().link_failed(node)
    }

    /// Opens a barrier batch: ops applied until
    /// [`PacketBackend::commit_batch`] share one oracle refresh, one
    /// queue-surgery sweep and one arrival re-resolution.
    ///
    /// # Panics
    ///
    /// Panics if a batch is already open.
    fn begin_batch(&mut self) -> Result<(), Self::Error>;

    /// Applies one op at the current barrier — into the open batch, or
    /// as a batch of one. A rejected op mutates nothing.
    fn apply_op(&mut self, op: &BarrierOp) -> Result<BarrierOutcome, Self::Error>;

    /// Closes the open batch.
    ///
    /// # Panics
    ///
    /// Panics if no batch is open.
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

    fn world(&self) -> &PacketWorld {
        &self.core.world
    }

    fn begin_batch(&mut self) -> Result<(), ModelError> {
        self.core.begin_batch();
        Ok(())
    }

    fn apply_op(&mut self, op: &BarrierOp) -> Result<BarrierOutcome, ModelError> {
        self.core
            .apply_op(std::slice::from_mut(&mut self.shard), op)
    }

    fn commit_batch(&mut self) -> Result<(), ModelError> {
        self.core
            .commit_batch(std::slice::from_mut(&mut self.shard));
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
    use ww_net::TrafficClass;
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
        assert_eq!(a.canonical(), b.canonical(), "stepped vs one-shot");
    }

    #[test]
    fn events_at_the_deadline_run_before_the_report() {
        // `run(d)` processes `(previous, d]`, boundary included — which
        // is also why a trace sample sees its boundary's own events. On
        // a demand-free three-node chain the only events are timer fires
        // and gossip deliveries, and node 1's gossip timer (0.25 + 0.5 k)
        // and diffusion timer (0.75 + k) both fire at exactly 0.75.
        let tree = Tree::from_parents(&[None, Some(0), Some(1)]).unwrap();
        let sim = || PacketSim::new(&tree, &DocMix::new(3), PacketSimConfig::default());
        let (mut at, mut short) = (sim(), sim());
        let on_the_dot = at.run(0.75).processed_events;
        assert_eq!(on_the_dot, short.run(0.7499).processed_events + 2);
        assert_eq!(
            at.run(1.0).processed_events,
            short.run(1.0).processed_events
        );
    }

    #[test]
    fn requests_are_served_only_on_their_path_to_the_root() {
        // 0 -> {1, 2}, 1 -> 3, 2 -> 4; all demand at leaf 3, whose route
        // is 3, 1, 0. Lossy gossip, then a failed control link on that
        // route: neither may move service off the route, and every hop
        // a request climbs is one tree level.
        let tree = Tree::from_parents(&[None, Some(0), Some(0), Some(1), Some(2)]).unwrap();
        let leaf = NodeId::new(3);
        let mut mix = DocMix::new(tree.len());
        mix.set(leaf, DocId::new(1), 240.0);
        mix.set(leaf, DocId::new(2), 60.0);
        let lossy = PacketSimConfig {
            gossip_loss: 0.3,
            ..PacketSimConfig::default()
        };
        let mut lossy = PacketSim::new(&tree, &mix, lossy);
        let mut cut = PacketSim::new(&tree, &mix, PacketSimConfig::default());
        cut.run(2.0);
        cut.apply_op(&BarrierOp::FailLink { node: leaf }).unwrap();
        for (label, sim) in [("lossy gossip", &mut lossy), ("failed uplink", &mut cut)] {
            let report = sim.run(30.0);
            let mut served = 0;
            let mut hops = 0;
            for u in tree.nodes() {
                let total = sim.served_total(u);
                if tree.is_ancestor(u, leaf) {
                    hops += total * (tree.depth(leaf) - tree.depth(u)) as u64;
                } else {
                    assert_eq!(total, 0, "{label}: {u} is off the route");
                }
                served += total;
            }
            assert_eq!(served, report.served_requests, "{label}");
            assert_eq!(
                report.mean_hops.to_bits(),
                (hops as f64 / served as f64).to_bits(),
                "{label}: hops"
            );
            assert!(report.mean_hops <= tree.depth(leaf) as f64, "{label}");
            assert!(
                sim.served_total(NodeId::new(1)) > 0,
                "{label}: copies reach the route"
            );
        }
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
