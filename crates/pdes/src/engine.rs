//! The sharded, conservatively synchronized parallel packet simulator.
//!
//! [`ParPacketSim`] runs the shard driver of
//! [`ww_core::packet::driver`] — the very event loop, barrier operations
//! and report fold the sequential
//! [`PacketSim`](ww_core::packetsim::PacketSim) is the one-shard case
//! of — but splits the tree into shards, each a set of subtree pieces
//! (see [`crate::partition`]). It is a [`ShardHost`] that holds every
//! shard — the participant type a `ww-dist` worker (one shard) and the
//! coordinator's replica (none) are too, which dials the wires and runs
//! the epochs — plus the rebalance controller. What this module adds to
//! the shard driver is only what a single shard has no use for: the
//! links between shards (`ShardLinks`: wires, promises, each wire's
//! merge stage) and the epoch loop that synchronizes over them.
//!
//! # Synchronization
//!
//! Shards exchange timestamped messages over wires, one directed wire
//! per adjacent shard pair — however many tree edges cross between the
//! two. Every cross-shard effect travels a cut tree edge and therefore
//! arrives at least one
//! [`link_delay`](ww_core::packet::PacketSimConfig::link_delay) after it
//! was sent — that latency is the **lookahead**. A shard may safely
//! process local events up to the minimum *promise* across its inbound
//! wires, where a promise `P` guarantees "no message with timestamp
//! `< P` will ever arrive here". Promises ride on every event message
//! (its own timestamp) and on explicit null messages
//! (`min(next local event, inbound safe time) + lookahead`), the
//! classic Chandy–Misra–Bryant recipe; positive lookahead makes the
//! null-message ratchet terminate. A shard with work sends its null
//! message every quarter lookahead of simulated time rather than once
//! per safe window, so a neighbor's answer is normally in hand before
//! the window runs out, and a shard seldom idles on a promise's round
//! trip — a wait whose frequency the host's scheduler decided.
//!
//! Once per diffusion period every shard quiesces at the epoch boundary
//! (`EpochEnd` handshake), and the driver samples the global distance to
//! the oracle — the same `O(n)` barrier pass the sequential driver
//! performs at the same instants.
//!
//! # Transport
//!
//! The event loop sees its wires only through the
//! [`WireSender`]/[`WireReceiver`] traits of [`crate::transport`].
//! In-process, each directed wire is a bounded lock-free single-producer
//! single-consumer ring ([`spsc`]): the hot path publishes a promise
//! quantum's worth of events (a quarter lookahead) with a single atomic
//! release store, and a shard never blocks on a full ring — excess
//! messages park in an unbounded per-wire overflow queue, drained ahead
//! of new traffic so per-wire FIFO is preserved (the park count and
//! peak depth surface in the report). A shard consumes inbound events
//! through a *merge stage* per wire — a FIFO of everything the wire has
//! delivered and the shard has not yet executed: only the front of each
//! stage competes in the shard's `(time, key)` event merge, so
//! cross-shard arrivals never churn the main queue at all. A pass of the
//! epoch loop reads every wire to its end (one socket `read` that comes
//! back dry, on a `ww-dist` wire), so the `Promise` or `EpochEnd` behind
//! a burst of events raises the wire's promise in the same pass as the
//! burst — a stage that held one event stopped reading there, and a
//! shard on the receiving end of a dense one-way stream advanced one
//! inbound event per pass. Reading ahead cannot admit an event out of
//! order: a message not yet read follows, on its wire, every message
//! already read, so its timestamp is at or past every promise in hand
//! and reading it can only raise the safe bound. By the same argument a
//! pass whose promises in hand already cover its next local event skips
//! the read, and a pass publishes once, its promise staged behind its
//! events. The `ww-dist` crate supplies socket-backed wires so shards
//! can live in different OS processes.
//!
//! # Determinism
//!
//! Within a shard, events execute in `(time, seq)` order where local
//! events draw `seq` from the shard's counter and inbound messages carry
//! a key derived from `(sending shard, per-channel counter)` — a pure
//! function of message content, never of wall-clock wire timing. Each
//! wire carries monotone `(time, counter)` streams, so its stage's front
//! is always that wire's minimum and the merge over queue, timer rings
//! and stage fronts reproduces exactly the order a single queue holding
//! every pending event would — however much of a wire was read when.
//! The packet protocol's handlers are node-local and all its randomness
//! is content-keyed per node, so the full run is a pure function of
//! `(world, seed)`: independent of thread scheduling, of the worker
//! count and of the transport, and bit-identical to the sequential
//! `PacketSim` (traces, served rates, ledger, counters, processed-event
//! counts). The golden tests in this crate and in `ww-scenario` pin
//! exactly that.

use crate::host::ShardHost;
use crate::rebalance::{rebalance_plan, LoadSummary, RebalanceConfig};
use crate::transport::{LinkError, StageError, Wire, WireReceiver, WireSender};
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use ww_core::packet::driver::{ShardCore, SimCore};
use ww_core::packet::{BarrierOp, BarrierOutcome, PacketEvent, PacketSimConfig, PacketWorld};
use ww_core::packetsim::{PacketBackend, PacketSimReport};
use ww_core::stats::ExactSum;
use ww_model::{ModelError, NodeId, RateVector, Tree};
use ww_sim::{SimQueue, SimTime};
use ww_telemetry::{Counters, Level, Phases, Snapshot};
use ww_workload::DocMix;

/// Tie-break bit marking inbound (cross-shard) events: at equal
/// timestamps they order after all locally scheduled events, then by
/// `(sending shard, channel counter)`.
pub(crate) const INBOUND: u64 = 1 << 63;
/// Bits reserved for the per-channel message counter.
pub(crate) const COUNTER_BITS: u32 = 40;

/// Null messages per lookahead of simulated time on a shard that has
/// work. A shard that promised only when it had exhausted its safe
/// window had exactly one window of compute to hide the promise's round
/// trip behind; whenever the window was shorter than the trip (a few
/// hundred microseconds over sockets) the shard sat idle, and how often
/// that happened was decided by the host's scheduler, not by the run —
/// 1 to 29 % of the loaded shard's epoch on `dist_cdn_w2`. Promising
/// every quarter lookahead keeps the peer's answer about two lookaheads
/// ahead of the clock, for three more null messages per window.
const PROMISE_QUANTA: f64 = 4.0;

ww_telemetry::keys! {
    /// Every telemetry key `ww-pdes` emits (`docs/observability.md`):
    /// what [`ParPacketSim::telemetry_snapshot`] pushes one by one, then
    /// the tables below.
    pub static PDES_TELEMETRY = [
        OVERFLOW_PARKS: Sum Wall "pdes.overflow.parks",
        OVERFLOW_PEAK_PARKED: HighWater Wall "pdes.overflow.peak_parked",
        PARTITION_PIECES: Sum Partition "pdes.partition.pieces",
        PARTITION_CUT_EDGES: Sum Partition "pdes.partition.cut_edges",
        PARTITION_PHASE_IMBALANCE: HighWater Partition "pdes.partition.phase_imbalance",
        SHARD_EVENTS: Sum Partition "pdes.shard.{i}.events",
        IMBALANCE: HighWater Partition "pdes.imbalance.max_over_mean",
        REBALANCE_EVALUATIONS: Sum Partition "pdes.rebalance.evaluations",
        REBALANCE_APPLIED: Sum Partition "pdes.rebalance.applied",
        REBALANCE_NODES_MIGRATED: Sum Partition "pdes.rebalance.nodes_migrated",
        REBALANCE_EVENTS_MOVED: Sum Partition "pdes.rebalance.events_moved",
        LINK_PARKS: Sum Wall "pdes.link.{src}-{dst}.parks",
        LINK_PEAK_PARKED: HighWater Wall "pdes.link.{src}-{dst}.peak_parked",
    ];
    /// Counter slab of the PDES hot path. Each shard owns one (lock-free
    /// by ownership); the driver merges them kind-aware at snapshot time
    /// — sums add, high-water marks take the max. A `ww-dist` worker
    /// ships its slab home in this order, so the table is the layout of
    /// `WorkerReport`'s counter frame.
    pub static PDES_KEYS = [
        EVENTS_POPPED: Sum Run "pdes.events.popped",
        PROMISES_SENT: Sum Wall "pdes.promises.sent",
        MERGE_STALLS: Sum Wall "pdes.merge.stalls",
        RING_HIGH_WATER: HighWater Wall "pdes.ring.occupancy.high_water",
        QUEUE_DEPTH: HighWater Partition "pdes.queue.depth.high_water",
        PASSES: Sum Wall "pdes.passes",
        STAGE_DEPTH: HighWater Wall "pdes.stage.depth.high_water",
    ];
    /// Phase timers of the PDES epoch loop (recorded only at
    /// [`Level::Full`]): time spent computing events versus waiting at
    /// the epoch-end handshake.
    pub(crate) static PDES_PHASES = [
        EPOCH_COMPUTE: Phase Wall "pdes.phase.epoch_compute",
        BARRIER_WAIT: Phase Wall "pdes.phase.barrier_wait",
    ];
    /// Driver-side phase timers of the rebalance controller (recorded
    /// only at [`Level::Full`], reported only while a controller is
    /// armed): computing a plan, and applying one — the migration itself
    /// plus the wire re-dial.
    static REBALANCE_PHASES = [
        REBALANCE_PLAN: Phase Wall "pdes.phase.rebalance_plan",
        REBALANCE_APPLY: Phase Wall "pdes.phase.rebalance_apply",
    ];
    /// The shards' queues and node state, merged by kind
    /// ([`ShardCore::telemetry`]).
    static PDES_SHARD = [
        QUEUE_LANE_ADMITTED: Sum Partition "pdes.queue.lane_admitted",
        QUEUE_LANE_FALLBACK: Sum Run "pdes.queue.lane_fallback",
        QUEUE_LANE_HW: HighWater Partition "pdes.queue.lane_hw",
        QUEUE_RADIX_HW: HighWater Partition "pdes.queue.radix_hw",
        QUEUE_LANE_LEN: Sum Partition "pdes.queue.lane_len",
        STATE_BYTES: Sum Partition "pdes.state.bytes",
        STATE_NODES: Sum Run "pdes.state.nodes",
    ];
}

/// Placeholder argument of [`ParPacketSim::with_tuning`]: the hot path
/// has one configuration (SPSC rings, one release store per promise
/// quantum), so there is nothing left to tune. Remove with the next
/// `benchmark` PR — only caller `benchmark/src/rep.rs:90`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PdesTuning;

/// Sending side of one directed cut.
#[derive(Debug)]
pub(crate) struct OutLink {
    pub(crate) peer: usize,
    pub(crate) tx: Box<dyn WireSender>,
    /// Messages that found the transport full. Drained ahead of new
    /// traffic, so per-wire FIFO — and with it the promise protocol —
    /// survives back-pressure. Sends therefore never block, which is
    /// what makes the bounded rings deadlock-free by construction.
    pub(crate) overflow: VecDeque<Wire>,
    pub(crate) counter: u64,
    pub(crate) last_promise: SimTime,
    /// How many messages ever parked in `overflow` (back-pressure
    /// events), and the deepest the queue ever got. Observability only.
    pub(crate) parks: u64,
    pub(crate) peak_parked: u64,
}

impl OutLink {
    pub(crate) fn new(peer: usize, tx: Box<dyn WireSender>) -> Self {
        OutLink {
            peer,
            tx,
            overflow: VecDeque::new(),
            counter: 0,
            last_promise: SimTime::ZERO,
            parks: 0,
            peak_parked: 0,
        }
    }

    /// Parks a message behind the full transport, counting it.
    fn park(&mut self, msg: Wire) {
        self.overflow.push_back(msg);
        self.parks += 1;
        self.peak_parked = self.peak_parked.max(self.overflow.len() as u64);
    }

    /// Enqueues a message: straight into the transport while the
    /// overflow is empty, behind it otherwise.
    fn push(&mut self, msg: Wire) -> Result<(), LinkError> {
        if self.overflow.is_empty() {
            match self.tx.stage(msg) {
                Ok(()) => {}
                Err(StageError::Full(back)) => {
                    // Publish what is staged so the consumer can make
                    // room, then park the message.
                    self.tx.commit()?;
                    self.park(back);
                }
                Err(StageError::Link(e)) => return Err(e),
            }
        } else {
            self.park(msg);
        }
        Ok(())
    }

    /// Moves parked messages into the transport while there is room.
    /// Returns whether any moved.
    fn try_flush(&mut self) -> Result<bool, LinkError> {
        let mut any = false;
        while let Some(msg) = self.overflow.pop_front() {
            match self.tx.stage(msg) {
                Ok(()) => any = true,
                Err(StageError::Full(back)) => {
                    self.overflow.push_front(back);
                    break;
                }
                Err(StageError::Link(e)) => return Err(e),
            }
        }
        Ok(any)
    }

    /// Flushes the overflow and publishes what is staged.
    fn publish(&mut self) -> Result<bool, LinkError> {
        let any = self.try_flush()?;
        self.tx.commit()?;
        Ok(any)
    }

    /// Whether everything pushed has left this end: nothing parked
    /// behind a full ring, nothing a socket has yet to take.
    fn is_drained(&self) -> bool {
        self.overflow.is_empty() && self.tx.backlog() == 0
    }
}

/// An inbound event parked in a wire's merge stage.
#[derive(Debug)]
struct StagedEvent {
    at: SimTime,
    key: u64,
    ev: PacketEvent,
}

/// Receiving side of one directed cut.
#[derive(Debug)]
pub(crate) struct InLink {
    pub(crate) peer: usize,
    pub(crate) rx: Box<dyn WireReceiver>,
    /// Every event the wire has delivered and the shard has not yet
    /// executed, in wire order. Per-wire `(time, counter)` streams are
    /// monotone, so the front is the wire's minimum and only it competes
    /// in the shard's event merge.
    staged: VecDeque<StagedEvent>,
    pub(crate) promise: SimTime,
    epoch_ended: bool,
}

impl InLink {
    pub(crate) fn new(peer: usize, rx: Box<dyn WireReceiver>) -> Self {
        InLink {
            peer,
            rx,
            staged: VecDeque::new(),
            promise: SimTime::ZERO,
            epoch_ended: false,
        }
    }
}

/// What a shard needs beyond its [`ShardCore`] once it has neighbors:
/// the links to adjacent shards and the state of the conservative
/// synchronization over them. A one-shard run has an empty set.
#[derive(Debug)]
pub(crate) struct ShardLinks {
    pub(crate) out_links: Vec<OutLink>,
    pub(crate) in_links: Vec<InLink>,
    /// Shard id -> index into `out_links` (`usize::MAX`: not adjacent).
    out_for: Vec<usize>,
    /// The cut-edge latency, constant for the simulation's lifetime.
    lookahead: SimTime,
    /// The current epoch boundary (set at each epoch entry).
    t_end: SimTime,
    /// Abort with [`LinkError::Stalled`] after this long without any
    /// progress (`None`: spin forever — correct in-process, where the
    /// only way a peer goes quiet is a panic that propagates anyway).
    stall_timeout: Option<Duration>,
    /// Observation-only hot-path counters over [`PDES_KEYS`]. Owned by
    /// the shard, so recording is a plain indexed add — no atomics, no
    /// sharing; the driver merges slabs at snapshot time.
    pub(crate) tel: Counters,
    /// Observation-only phase timers over [`PDES_PHASES`].
    pub(crate) tel_phases: Phases,
}

impl ShardLinks {
    /// The links of one shard of a run over `world`, before any wire is
    /// dialed.
    pub(crate) fn new(world: &PacketWorld, stall_timeout: Option<Duration>) -> Self {
        ShardLinks {
            out_links: Vec::new(),
            in_links: Vec::new(),
            out_for: Vec::new(),
            lookahead: SimTime::from_secs(world.config.link_delay),
            t_end: SimTime::ZERO,
            stall_timeout,
            tel: Counters::new(PDES_KEYS, Level::Off),
            tel_phases: Phases::new(PDES_PHASES, Level::Off),
        }
    }

    /// Replaces the wires of a shard of a `shards`-way partition
    /// (construction, and the re-dial after a rebalance).
    pub(crate) fn dial(&mut self, shards: usize, outs: Vec<OutLink>, ins: Vec<InLink>) {
        self.out_for = vec![usize::MAX; shards];
        for (li, link) in outs.iter().enumerate() {
            self.out_for[link.peer] = li;
        }
        self.out_links = outs;
        self.in_links = ins;
    }

    /// (Re)arms the telemetry slabs at `level`, zeroing any prior
    /// observations. Observation only — never read back by the event
    /// loop.
    pub(crate) fn set_telemetry(&mut self, level: Level) {
        self.tel = Counters::new(PDES_KEYS, level);
        self.tel_phases = Phases::new(PDES_PHASES, level);
    }

    /// `(total messages ever parked, peak depth of any overflow queue)`
    /// over the outbound wires.
    pub(crate) fn wire_stats(&self) -> (u64, u64) {
        self.out_links.iter().fold((0, 0), |(parks, peak), link| {
            (parks + link.parks, peak.max(link.peak_parked))
        })
    }

    /// `(messages, bytes)` the outbound wires have put on out-of-process
    /// transports (zero in process).
    pub(crate) fn traffic(&self) -> (u64, u64) {
        self.out_links.iter().fold((0, 0), |(msgs, bytes), link| {
            let (m, b) = link.tx.traffic();
            (msgs + m, bytes + b)
        })
    }

    /// The wire whose staged head is the earliest inbound `(time, key)`.
    fn next_staged(&self) -> Option<(SimTime, u64, usize)> {
        self.in_links
            .iter()
            .enumerate()
            .filter_map(|(li, link)| link.staged.front().map(|s| (s.at, s.key, li)))
            .min()
    }

    /// The smallest promise across the inbound wires (`None`: no
    /// neighbors).
    fn safe_time(&self) -> Option<SimTime> {
        self.in_links.iter().map(|l| l.promise).min()
    }

    /// Time of the earliest pending event, staged fronts included.
    fn next_time(&self, core: &ShardCore) -> Option<SimTime> {
        let local = core.next_source().map(|(t, _, _)| t);
        let staged = self.next_staged().map(|(t, _, _)| t);
        match (local, staged) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Puts what the core left for other shards on their wires, each
    /// message under the next per-channel counter. Emission order is the
    /// core's push order, so the counters are the ones a per-event
    /// drain would have drawn.
    fn route_remote(&mut self, core: &mut ShardCore, sim: &SimCore) -> Result<(), LinkError> {
        for (at, ev) in core.remote.drain(..) {
            let li = self.out_for[sim.partition.shard_of[ev.node().index()]];
            debug_assert_ne!(li, usize::MAX, "send to non-adjacent shard");
            let link = &mut self.out_links[li];
            link.counter += 1;
            debug_assert!(link.counter < (1 << COUNTER_BITS));
            link.push(Wire::Event {
                at,
                counter: link.counter,
                ev,
            })?;
        }
        Ok(())
    }

    /// Processes every pending event with `time <= bound`, in
    /// `(time, key)` order across the core's local sources and the
    /// staged wire fronts: the core runs alone up to the earliest staged
    /// front (an inbound key orders after every local key of its
    /// instant, so "up to" includes it), that event is delivered, and so
    /// on — the order a single queue holding every pending event would
    /// produce. Nothing is read here: whatever the wires still hold
    /// follows, on its wire, a promise already in hand, so `bound` (at
    /// most the smallest such promise) leaves it for the next pass.
    /// Returns whether anything was processed.
    fn process_until(
        &mut self,
        core: &mut ShardCore,
        sim: &SimCore,
        bound: SimTime,
    ) -> Result<bool, LinkError> {
        let before = core.queue.processed();
        loop {
            let staged = self.next_staged().filter(|&(at, _, _)| at <= bound);
            core.run_until(sim, staged.map_or(bound, |(at, _, _)| at));
            let Some((_, _, li)) = staged else { break };
            let front = self.in_links[li].staged.pop_front();
            let front = front.expect("the merge picked a staged front");
            // The clock advance counts the inbound event as processed,
            // mirroring the pop a one-shard run performs for it.
            core.queue.advance_to(front.at);
            core.deliver(sim, front.at, front.ev);
        }
        self.route_remote(core, sim)?;
        let popped = core.queue.processed() - before;
        if popped > 0 {
            self.tel.add(EVENTS_POPPED, popped);
        }
        Ok(popped > 0)
    }

    /// Reads wire `li` until it is dry, staging its events behind the
    /// ones already staged and ratcheting its promise along the way.
    /// Returns whether anything arrived.
    fn poll_link(&mut self, li: usize) -> Result<bool, LinkError> {
        let t_end = self.t_end;
        let lookahead = self.lookahead;
        let link = &mut self.in_links[li];
        let mut any = false;
        while let Some(msg) = link.rx.try_recv()? {
            any = true;
            let promise = match msg {
                Wire::Event { at, counter, ev } => {
                    let key = INBOUND | ((link.peer as u64) << COUNTER_BITS) | counter;
                    link.staged.push_back(StagedEvent { at, key, ev });
                    // Per-channel send times are monotone, so an event
                    // at `at` also promises nothing earlier follows.
                    at
                }
                Wire::Promise { until } => until,
                Wire::EpochEnd => {
                    link.epoch_ended = true;
                    t_end + lookahead
                }
            };
            if promise > link.promise {
                link.promise = promise;
            }
        }
        if any {
            self.tel.record_max(STAGE_DEPTH, link.staged.len() as u64);
        }
        Ok(any)
    }

    /// Reads every inbound wire to its end. Returns whether anything
    /// arrived.
    fn poll_inbound(&mut self) -> Result<bool, LinkError> {
        let mut any = false;
        for li in 0..self.in_links.len() {
            any |= self.poll_link(li)?;
        }
        Ok(any)
    }

    /// Empties every inbound wire and merge stage into the shard queue
    /// (events keep their content-derived keys). Used at the epoch-end
    /// handshake, where every in-flight event targets a time past the
    /// boundary: afterwards the queue holds the complete pending set,
    /// so barrier-time event surgery sees everything.
    fn spill_inbound(&mut self, core: &mut ShardCore) -> Result<bool, LinkError> {
        let mut any = self.poll_inbound()?;
        for link in &mut self.in_links {
            for staged in link.staged.drain(..) {
                core.queue.schedule_keyed(staged.at, staged.key, staged.ev);
                any = true;
            }
        }
        Ok(any)
    }

    /// Drains every outbound overflow into its transport as far as it
    /// goes and publishes all staged messages — the once-per-window
    /// release store of the batched hot path. Returns whether any parked
    /// message moved.
    fn flush_out(&mut self) -> Result<bool, LinkError> {
        let mut any = false;
        let observe = self.tel.is_on();
        let mut high = 0usize;
        for link in &mut self.out_links {
            any |= link.publish()?;
            if observe {
                if let Some(occ) = link.tx.occupancy_hint() {
                    high = high.max(occ);
                }
            }
        }
        if observe {
            self.tel.record_max(RING_HIGH_WATER, high as u64);
        }
        Ok(any)
    }
}

/// Best-effort peer release when a worker panics mid-epoch: without it,
/// the surviving neighbors would wait forever for promises and an
/// `EpochEnd` that never come (the wires stay alive inside the engine,
/// so no disconnect fires). Survivors sit in drain loops, so the flush
/// normally clears immediately; the retry bound only guards against a
/// *second* dead peer, in which case the original panic still wins.
/// Link errors are swallowed — the release is advisory.
fn release_peers(links: &mut ShardLinks, t_end: SimTime) {
    let until = t_end + links.lookahead;
    for link in &mut links.out_links {
        let _ = link.push(Wire::Promise { until });
        let _ = link.push(Wire::EpochEnd);
    }
    for _ in 0..1_000_000 {
        let mut parked = false;
        for link in &mut links.out_links {
            let _ = link.publish();
            parked |= !link.is_drained();
        }
        if !parked {
            return;
        }
        std::thread::yield_now();
    }
}

/// Runs one shard's event loop up to the epoch boundary `t_end`,
/// conservatively bounded by inbound promises, then performs the
/// `EpochEnd` handshake with its neighbors. On panic, releases the
/// neighbors (final promise + `EpochEnd`) before resuming the unwind so
/// the scope joins and the panic propagates to the caller. On a wire
/// error (dead or stalled peer — socket transports only) the error
/// propagates as a value after the same release, so a distributed run
/// fails cleanly instead of hanging.
///
/// When `sample` is set, the shard computes its partial of the
/// convergence-trace sample at the quiesced boundary — rolling its own
/// nodes' serve meters and folding the squared oracle distances into an
/// exact accumulator — and ships it back alongside the epoch-end
/// handshake (the return value). The participant's per-epoch work thus
/// shrinks from an `O(n)` pass over every node to an `O(shards)` merge,
/// and because the fold is exact, the merged value is bit-identical to
/// one pass in node order.
pub(crate) fn run_shard(
    core: &mut ShardCore,
    links: &mut ShardLinks,
    sim: &SimCore,
    t_end: SimTime,
    sample: bool,
) -> Result<Option<ExactSum>, LinkError> {
    links.t_end = t_end;
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        epoch_loop(core, links, sim, t_end, sample)
    }));
    match caught {
        Ok(Ok(partial)) => Ok(partial),
        Ok(Err(link_error)) => {
            release_peers(links, t_end);
            Err(link_error)
        }
        Err(payload) => {
            release_peers(links, t_end);
            std::panic::resume_unwind(payload);
        }
    }
}

/// The epoch body of [`run_shard`], the shard loop (split out so the
/// panic/error release can wrap it).
fn epoch_loop(
    core: &mut ShardCore,
    links: &mut ShardLinks,
    sim: &SimCore,
    t_end: SimTime,
    sample: bool,
) -> Result<Option<ExactSum>, LinkError> {
    let lookahead = links.lookahead;
    let promise_quantum = SimTime::from_secs(lookahead.as_secs() / PROMISE_QUANTA);
    let stall_timeout = links.stall_timeout;
    let mut idle = Backoff::default();
    links.tel.record_max(QUEUE_DEPTH, core.queue.len() as u64);
    let compute_span = links.tel_phases.begin();
    loop {
        links.tel.add(PASSES, 1);
        // Read the wires only when the promises in hand do not already
        // cover the next local event: whatever a wire still holds
        // follows those promises, so it can wait for a pass that needs
        // a higher bound — one socket `read` fewer per such pass.
        let covered = matches!(
            (links.safe_time(), links.next_time(core)),
            (Some(safe), Some(next)) if next <= safe.min(t_end)
        );
        let mut progressed = if covered {
            false
        } else {
            links.poll_inbound()?
        };

        let safe = links.safe_time();
        let mut bound = match safe {
            Some(s) => s.min(t_end),
            None => t_end,
        };
        // A shard with neighbors works through its safe window a promise
        // quantum at a time, so the null message below goes out several
        // times per lookahead and the peer's answer to one is in hand
        // before the window it opens is needed.
        if safe.is_some() {
            if let Some(next) = links.next_time(core) {
                bound = bound.min(next + promise_quantum);
            }
        }
        progressed |= links.process_until(core, sim, bound)?;

        // Null message: the earliest we could possibly send anything new
        // is one lookahead past the earliest thing we might yet process.
        let next_local = links.next_time(core);
        let mut basis = match (next_local, safe) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => t_end,
        };
        if basis > t_end {
            basis = t_end;
        }
        let promise = basis + lookahead;
        let mut promises = 0u64;
        for link in &mut links.out_links {
            if promise > link.last_promise {
                link.last_promise = promise;
                link.push(Wire::Promise { until: promise })?;
                progressed = true;
                promises += 1;
            }
        }
        if promises > 0 {
            links.tel.add(PROMISES_SENT, promises);
        }
        // One publish per pass, the promise staged behind the window's
        // events: a visible promise must never have unpublished events
        // behind it.
        progressed |= links.flush_out()?;

        let local_done = next_local.is_none_or(|t| t > t_end);
        let inbound_done = links.in_links.iter().all(|l| l.promise > t_end);
        if local_done && inbound_done {
            links.tel_phases.end(EPOCH_COMPUTE, compute_span);
            let wait_span = links.tel_phases.begin();
            // Every event at or before the boundary has executed, so the
            // shard's nodes are exactly at the barrier instant: fold the
            // trace partial now, shipping it with the epoch end.
            let partial = sample.then(|| core.trace_partial(sim, t_end.as_secs()));
            for link in &mut links.out_links {
                link.push(Wire::EpochEnd)?;
                link.publish()?;
            }
            // Late messages of this epoch all target times past t_end;
            // spill them into the queue until every neighbor has closed
            // the epoch too and everything we owe them has left this end
            // (our own `EpochEnd` may be parked behind a full ring, or
            // in a socket's backlog). Neighbors in the same loop drain
            // constantly, so back-pressure clears; back off when nothing
            // moves, and on a socket transport give up after the stall
            // timeout.
            let mut wait = Backoff::default();
            loop {
                let mut moved = links.spill_inbound(core)?;
                moved |= links.flush_out()?;
                let peers_done = links.in_links.iter().all(|l| l.epoch_ended);
                let sent_all = links.out_links.iter().all(OutLink::is_drained);
                if peers_done && sent_all {
                    break;
                }
                if moved {
                    wait.reset();
                } else {
                    wait.wait(stall_timeout)?;
                }
            }
            for link in &mut links.in_links {
                link.epoch_ended = false;
                debug_assert!(link.staged.is_empty(), "merge stage empty at the barrier");
            }
            links.tel_phases.end(BARRIER_WAIT, wait_span);
            return Ok(partial);
        }

        if progressed {
            idle.reset();
        } else {
            links.tel.add(MERGE_STALLS, 1);
            idle.wait(stall_timeout)?;
        }
    }
}

/// How a shard waits when a pass of its epoch loop moved nothing: it
/// yields 64 times, then sleeps 50 µs a pass, and with a stall timeout
/// set gives up with [`LinkError::Stalled`] once nothing has moved for
/// that long.
#[derive(Default)]
struct Backoff {
    /// Passes without progress since the last reset.
    spins: u32,
    /// When the sleeping started (read only with a stall timeout).
    since: Option<Instant>,
}

impl Backoff {
    /// Something moved: the next wait starts over.
    fn reset(&mut self) {
        self.spins = 0;
        self.since = None;
    }

    /// Waits out one pass that moved nothing.
    fn wait(&mut self, stall_timeout: Option<Duration>) -> Result<(), LinkError> {
        self.spins += 1;
        if self.spins <= 64 {
            std::thread::yield_now();
            return Ok(());
        }
        if let Some(limit) = stall_timeout {
            let since = *self.since.get_or_insert_with(Instant::now);
            if since.elapsed() > limit {
                return Err(LinkError::Stalled {
                    waited: since.elapsed(),
                });
            }
        }
        std::thread::sleep(Duration::from_micros(50));
        Ok(())
    }
}

/// The sharded parallel packet-level simulator: radix event queues,
/// SPSC ring wires, one release store per promise quantum.
///
/// Drop-in equivalent of [`ww_core::packetsim::PacketSim`]: same
/// constructor inputs plus a worker count, same [`PacketSimReport`], and
/// — by construction — the same bits in every reported number.
///
/// # Example
///
/// ```
/// use ww_model::{DocId, NodeId, Tree};
/// use ww_workload::DocMix;
/// use ww_core::packetsim::{PacketSim, PacketSimConfig};
/// use ww_pdes::ParPacketSim;
///
/// let tree = Tree::from_parents(&[None, Some(0), Some(1), Some(1)]).unwrap();
/// let mut mix = DocMix::new(4);
/// mix.set(NodeId::new(2), DocId::new(1), 120.0);
/// mix.set(NodeId::new(3), DocId::new(2), 60.0);
/// let config = PacketSimConfig::default();
/// let seq = PacketSim::new(&tree, &mix, config).run(10.0);
/// let par = ParPacketSim::new(&tree, &mix, config, 2).run(10.0);
/// assert_eq!(seq.canonical(), par.canonical());
/// ```
#[derive(Debug)]
pub struct ParPacketSim {
    /// Every shard of the partition with its links: the participant
    /// that runs them, one worker thread per shard at each epoch.
    host: ShardHost,
    /// Adaptive rebalancing knobs (`None`: static partition).
    rebalance: Option<RebalanceConfig>,
    /// Per-shard `queue.processed()` baseline at the start of the
    /// current observation window.
    window_base: Vec<u64>,
    /// Samples taken when the current observation window opened.
    window_start_epoch: u64,
    /// Per-shard `queue.processed()` at the previous epoch boundary
    /// (for the per-epoch imbalance high-water; observation only).
    epoch_base: Vec<u64>,
    /// High-water of the per-epoch max/mean shard imbalance.
    imbalance_hw: f64,
    /// How many windows the controller evaluated, how many produced a
    /// non-empty plan, and how many nodes migrated in total.
    rebalance_evals: u64,
    rebalance_applied: u64,
    nodes_migrated: u64,
    /// Queue events migrations re-homed (observation only).
    events_moved: u64,
    /// Observation-only timers over [`REBALANCE_PHASES`].
    rebalance_phases: Phases,
}

impl ParPacketSim {
    /// Builds a parallel simulator over `workers` shards (capped
    /// by what the topology yields).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero, if the partition is non-trivial and
    /// `config.link_delay` is not positive (no lookahead — conservative
    /// synchronization could not advance), or on any input
    /// [`PacketWorld::new`] rejects.
    pub fn new(tree: &Tree, mix: &DocMix, config: PacketSimConfig, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        let host = ShardHost::in_process(tree, mix, config, workers);
        let shards = host.held.len();
        ParPacketSim {
            host,
            rebalance: None,
            window_base: vec![0; shards],
            window_start_epoch: 0,
            epoch_base: vec![0; shards],
            imbalance_hw: 1.0,
            rebalance_evals: 0,
            rebalance_applied: 0,
            nodes_migrated: 0,
            events_moved: 0,
            rebalance_phases: Phases::new(REBALANCE_PHASES, Level::Off),
        }
    }

    /// [`ParPacketSim::new`]; the tuning argument carries nothing.
    /// Remove with the next `benchmark` PR — only caller
    /// `benchmark/src/rep.rs:90`.
    pub fn with_tuning(
        tree: &Tree,
        mix: &DocMix,
        config: PacketSimConfig,
        workers: usize,
        _tuning: PdesTuning,
    ) -> Self {
        Self::new(tree, mix, config, workers)
    }

    /// Enables (`Some`) or disables (`None`) adaptive shard
    /// rebalancing. With a config set, the controller evaluates the
    /// partition every [`RebalanceConfig::min_epoch_gap`] sampled epoch
    /// barriers: when the window's max/mean per-shard event imbalance
    /// reaches [`RebalanceConfig::trigger_imbalance`], it computes a
    /// [`rebalance_plan`] from the
    /// deterministic per-node event counts and migrates subtree
    /// ownership at the barrier. Purely a wall-clock optimization: the
    /// simulated trace and every reported simulation quantity are
    /// bit-identical with rebalancing on, off, or at any threshold —
    /// the golden tests pin exactly that.
    ///
    /// # Panics
    ///
    /// Panics if `trigger_imbalance` is below 1 or not finite, or
    /// `min_epoch_gap` is zero.
    pub fn set_rebalance(&mut self, config: Option<RebalanceConfig>) {
        if let Some(cfg) = &config {
            assert!(
                cfg.trigger_imbalance.is_finite() && cfg.trigger_imbalance >= 1.0,
                "trigger_imbalance must be a finite ratio >= 1"
            );
            assert!(cfg.min_epoch_gap >= 1, "min_epoch_gap must be >= 1");
        }
        self.rebalance = config;
        let on = self.rebalance.is_some();
        for shard in &mut self.host.held {
            shard.track_loads = on;
            shard.window_events.iter_mut().for_each(|w| *w = 0);
        }
        self.window_base = self.processed();
        self.window_start_epoch = self.samples();
    }

    /// Selects the observation level: [`Level::Off`] (the default,
    /// zero-cost paths), [`Level::Counters`] (hot-path counters), or
    /// [`Level::Full`] (counters plus phase timers). Re-arming zeroes
    /// prior observations. Telemetry is observation-only — every
    /// reported simulation number is bit-identical at every level; the
    /// golden tests in `ww-scenario` pin exactly that.
    pub fn set_telemetry(&mut self, level: Level) {
        self.host.set_telemetry(level);
        self.rebalance_phases = Phases::new(REBALANCE_PHASES, level);
    }

    /// A merged, deterministic snapshot of everything the run recorded:
    /// the barrier path's counters (the shard driver's, summed over
    /// shards), the shards' hot-path counters (kind-aware merge: sums
    /// add, high-water marks max), per-link overflow parks, the world's
    /// oracle-maintenance counters, and — at [`Level::Full`] — the
    /// barrier and epoch phase timers. Empty when telemetry is off.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        let host = &self.host;
        let level = host.core.telemetry_level();
        if !level.counters_on() {
            return snap;
        }
        host.core.push_telemetry(&mut snap);
        let mut merged = Counters::new(PDES_KEYS, level);
        let mut phases = Phases::new(PDES_PHASES, level);
        let mut shards = Counters::new(PDES_SHARD, level);
        for (shard, links) in host.held.iter().zip(&host.links) {
            merged.merge_from(&links.tel);
            phases.merge_from(&links.tel_phases);
            shards.merge_from(&shard.telemetry(PDES_SHARD));
        }
        merged.snapshot_into(&mut snap);
        shards.snapshot_into(&mut snap);
        let (parks, peak) = host.wire_stats();
        snap.push_counter(OVERFLOW_PARKS, &[], parks);
        snap.push_counter(OVERFLOW_PEAK_PARKED, &[], peak);
        host.shape.snapshot_into(&mut snap);
        for shard in &host.held {
            snap.push_counter(SHARD_EVENTS, &[shard.id], shard.queue.processed());
        }
        // Fixed-point (x1000): the snapshot carries u64 counters only.
        let imbalance = (self.imbalance_hw * 1000.0).round() as u64;
        snap.push_counter(IMBALANCE, &[], imbalance);
        if self.rebalance.is_some() {
            snap.push_counter(REBALANCE_EVALUATIONS, &[], self.rebalance_evals);
            snap.push_counter(REBALANCE_APPLIED, &[], self.rebalance_applied);
            snap.push_counter(REBALANCE_NODES_MIGRATED, &[], self.nodes_migrated);
            snap.push_counter(REBALANCE_EVENTS_MOVED, &[], self.events_moved);
        }
        for (shard, links) in host.held.iter().zip(&host.links) {
            for link in links.out_links.iter().filter(|link| link.parks > 0) {
                let wire = [shard.id, link.peer];
                snap.push_counter(LINK_PARKS, &wire, link.parks);
                snap.push_counter(LINK_PEAK_PARKED, &wire, link.peak_parked);
            }
        }
        phases.snapshot_into(&mut snap);
        if self.rebalance.is_some() {
            self.rebalance_phases.snapshot_into(&mut snap);
        }
        snap
    }

    /// Number of shards (= worker threads) this run uses.
    pub fn shard_count(&self) -> usize {
        self.host.held.len()
    }

    /// The shard that currently hosts `node` — it changes only when the
    /// rebalance controller applies a plan.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.host.core.partition.shard_of[node.index()]
    }

    /// Samples taken so far.
    fn samples(&self) -> u64 {
        self.host.core.trace().len() as u64
    }

    /// Every shard's `queue.processed()`, in shard order.
    fn processed(&self) -> Vec<u64> {
        self.host.held.iter().map(|s| s.queue.processed()).collect()
    }

    /// Observation only: folds this epoch's per-shard event-count
    /// deltas into the max/mean imbalance high-water mark.
    fn observe_epoch(&mut self) {
        if self.host.held.len() < 2 {
            return;
        }
        let now = self.processed();
        let deltas = now.iter().zip(&self.epoch_base).map(|(n, b)| n - b);
        let imbalance = LoadSummary {
            shard_events: deltas.collect(),
        }
        .imbalance();
        self.epoch_base = now;
        if imbalance > self.imbalance_hw {
            self.imbalance_hw = imbalance;
        }
    }

    /// The rebalance controller, run at every sampled epoch barrier.
    /// Quiet epochs cost an `O(shards)` comparison — the per-node
    /// attribution keeps accumulating untouched; only an over-threshold
    /// window pays the `O(n)` gather-and-reset plus the weighted
    /// re-cut. Attribution therefore covers everything since the last
    /// evaluation (or arming), which only makes the weights a longer
    /// observation of the same deterministic signal.
    fn maybe_rebalance(&mut self) {
        let Some(cfg) = self.rebalance else { return };
        if self.host.held.len() < 2 || self.samples() - self.window_start_epoch < cfg.min_epoch_gap
        {
            return;
        }
        // Close the observation window: per-shard processed deltas are
        // the trigger signal (`queue.processed()` is deterministic).
        let deltas = self
            .processed()
            .into_iter()
            .zip(&self.window_base)
            .map(|(n, b)| n - b);
        let window = LoadSummary {
            shard_events: deltas.collect(),
        };
        if window.imbalance() >= cfg.trigger_imbalance {
            self.rebalance_evals += 1;
            // Gather the deterministic per-node attribution and plan.
            let core = &self.host.core;
            let node_events: Vec<u64> = (0..core.world.len())
                .map(|j| {
                    let s = core.partition.shard_of[j];
                    let li = core.partition.local_index[j] as usize;
                    self.host.held[s].window_events[li]
                })
                .collect();
            let span = self.rebalance_phases.begin();
            let plan = rebalance_plan(&core.world.tree, &core.partition, &node_events);
            self.rebalance_phases.end(REBALANCE_PLAN, span);
            if !plan.is_empty() {
                self.rebalance_applied += 1;
                self.nodes_migrated += plan.moves.len() as u64;
                let span = self.rebalance_phases.begin();
                self.events_moved += self.host.apply_rebalance(plan);
                self.rebalance_phases.end(REBALANCE_APPLY, span);
            }
            // Per-node attribution restarts only after an evaluation
            // actually spent it — zeroing is O(n), and paying it on
            // quiet windows would betray the O(shards) idle cost.
            for shard in &mut self.host.held {
                shard.window_events.iter_mut().for_each(|w| *w = 0);
            }
        }
        // Open the next trigger window (whether or not anything moved).
        self.window_base = self.processed();
        self.window_start_epoch = self.samples();
    }

    /// Runs the simulation up to `duration` simulated seconds and
    /// reports, exactly as [`PacketSim::run`](ww_core::packetsim::PacketSim::run):
    /// the same schedule of barriers, each an epoch of every shard on
    /// its own thread, and at each sample boundary the merged trace
    /// sample, the imbalance observation and the rebalance controller.
    /// May be called repeatedly with increasing horizons.
    pub fn run(&mut self, duration: f64) -> PacketSimReport {
        let deadline = SimTime::from_secs(duration);
        while let Some((at, sample)) = self.host.core.next_barrier(deadline) {
            let partial = self.host.run_epoch(at, sample);
            let partial = partial.unwrap_or_else(|e| panic!("in-process wire failed: {e}"));
            if let Some(sum) = partial {
                self.host.core.record_sample(&sum);
                self.observe_epoch();
                self.maybe_rebalance();
            }
        }
        self.report()
    }

    /// Produces the report at the current horizon (also usable mid-run).
    pub fn report(&mut self) -> PacketSimReport {
        let overflow = self.host.wire_stats();
        self.host.core.report(&mut self.host.held, overflow)
    }

    /// The TLB oracle for the offered demand.
    pub fn oracle(&self) -> &RateVector {
        &self.host.core.world.oracle
    }

    /// The routing tree this simulation runs on.
    pub fn tree(&self) -> &Tree {
        &self.host.core.world.tree
    }

    /// The dense document table of this simulation's universe.
    pub fn doc_table(&self) -> &ww_model::DocTable {
        &self.host.core.world.table
    }

    /// Lifetime served-request count of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn served_total(&self, node: NodeId) -> u64 {
        let (s, li) = self.host.core.partition.home(node.index());
        self.host.held[s].nodes.served_total(li)
    }

    /// Whether the control link from `node` to its parent is failed.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn link_failed(&self, node: NodeId) -> bool {
        self.host.link_failed(node)
    }

    /// [`PacketBackend::apply_all`], for callers without the trait in
    /// scope — mirrors
    /// [`PacketSim::apply_all`](ww_core::packetsim::PacketSim::apply_all)
    /// bit for bit at any worker count.
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
        &self.host.core.world
    }

    /// The replicated core and the shards, for in-crate tests that
    /// drive [`ops`](crate::ops) directly.
    #[cfg(test)]
    pub(crate) fn parts_mut(&mut self) -> (&mut SimCore, &mut Vec<ShardCore>) {
        (&mut self.host.core, &mut self.host.held)
    }
}

impl PacketBackend for ParPacketSim {
    type Error = ModelError;

    fn run(&mut self, duration: f64) -> Result<PacketSimReport, ModelError> {
        Ok(ParPacketSim::run(self, duration))
    }

    fn report(&mut self) -> Result<PacketSimReport, ModelError> {
        Ok(ParPacketSim::report(self))
    }

    fn oracle(&self) -> &RateVector {
        ParPacketSim::oracle(self)
    }

    fn tree(&self) -> &Tree {
        ParPacketSim::tree(self)
    }

    fn begin_batch(&mut self) -> Result<(), ModelError> {
        self.host.begin_batch();
        Ok(())
    }

    /// A joining leaf is hosted by its parent's shard (no new cut
    /// edge, so no new wire); a leave compacts ids by swap-remove with
    /// the renumbered former-last node staying on its own shard — no
    /// node state crosses a shard boundary.
    fn apply_op(&mut self, op: &BarrierOp) -> Result<BarrierOutcome, ModelError> {
        self.host.apply_op(op)
    }

    /// Every shard applies the same composed event surgery to its queue
    /// and the arrival stage rebuilds once.
    fn commit_batch(&mut self) -> Result<(), ModelError> {
        self.host.commit_batch();
        Ok(())
    }

    fn set_telemetry(&mut self, level: Level) {
        ParPacketSim::set_telemetry(self, level);
    }

    fn telemetry_snapshot(&self) -> Snapshot {
        ParPacketSim::telemetry_snapshot(self)
    }
}

#[cfg(test)]
mod tests {
    //! The merge stage's mechanism, on one shard driven by hand: what a
    //! poll reads, what `process_until` delivers and in which order, and
    //! that neither depends on how the wire's bytes were chunked.

    use super::*;
    use crate::partition::Partition;
    use crate::transport::open_ring;
    use ww_model::DocId;
    use ww_net::{DocRequest, RequestId};

    /// A wire end that replays a script: `None` entries are the
    /// momentarily dry reads a socket whose `read` hit `EAGAIN` in the
    /// middle of a burst returns.
    #[derive(Debug)]
    struct Scripted(VecDeque<Option<Wire>>);

    impl WireReceiver for Scripted {
        fn try_recv(&mut self) -> Result<Option<Wire>, LinkError> {
            Ok(self.0.pop_front().flatten())
        }
    }

    /// Shard 1 of the path `0 ← 1 ← 2` cut on both edges (shard 0
    /// holds the root and the leaf): its wire in from shard 0 reads
    /// `rx`, and shard 0's end of its wire out is returned beside it.
    /// Node 1 caches nothing, so every request it executes is forwarded
    /// to the root — onto that wire, in execution order.
    fn shard_one(
        rx: Box<dyn WireReceiver>,
    ) -> (SimCore, ShardCore, ShardLinks, Box<dyn WireReceiver>) {
        let tree = Tree::from_parents(&[None, Some(0), Some(1)]).unwrap();
        let mut mix = DocMix::new(3);
        mix.set(NodeId::new(2), DocId::new(1), 1.0);
        let world = PacketWorld::new(&tree, &mix, PacketSimConfig::default());
        let partition = Partition {
            shard_of: vec![0, 1, 0],
            local_index: vec![0, 0, 1],
            members: vec![vec![NodeId::new(0), NodeId::new(2)], vec![NodeId::new(1)]],
        };
        let core = ShardCore::new(&world, &partition, 1);
        let (tx, to_root) = open_ring();
        let mut links = ShardLinks::new(&world, None);
        links.dial(2, vec![OutLink::new(0, tx)], vec![InLink::new(0, rx)]);
        links.set_telemetry(Level::Counters);
        (SimCore::new(world, partition), core, links, to_root)
    }

    /// A request for the one document, at node 1.
    fn request(id: u64, from: Option<usize>) -> PacketEvent {
        let origin = NodeId::new(from.unwrap_or(1));
        PacketEvent::Packet {
            node: NodeId::new(1),
            from: from.map(NodeId::new),
            request: DocRequest::new(RequestId::new(id), origin),
            index: 0,
        }
    }

    /// The burst: three requests from the leaf, 1 ms apart from t = 1,
    /// then a promise that nothing before t = 1.5 follows.
    fn burst() -> Vec<Wire> {
        let mut wires: Vec<Wire> = (0..3)
            .map(|k| Wire::Event {
                at: SimTime::from_secs(1.0 + k as f64 * 1e-3),
                counter: k + 1,
                ev: request(100 + k, Some(2)),
            })
            .collect();
        wires.push(Wire::Promise {
            until: SimTime::from_secs(1.5),
        });
        wires
    }

    /// Two local requests: one at the first inbound event's instant,
    /// one between the second and the third.
    fn schedule_locals(core: &mut ShardCore) {
        core.queue
            .schedule(SimTime::from_secs(1.0), request(900, None));
        core.queue
            .schedule(SimTime::from_secs(1.0015), request(901, None));
    }

    /// The requests node 1 forwarded to the root, in execution order.
    fn forwarded(to_root: &mut Box<dyn WireReceiver>) -> Vec<u64> {
        std::iter::from_fn(|| to_root.try_recv().unwrap())
            .filter_map(|wire| match wire {
                Wire::Event {
                    ev: PacketEvent::Packet { request, .. },
                    ..
                } => Some(request.id.value()),
                _ => None,
            })
            .collect()
    }

    /// The single queue's order: local before inbound at t = 1, then by
    /// time.
    const ONE_QUEUE_ORDER: [u64; 5] = [900, 100, 101, 901, 102];

    #[test]
    fn one_poll_stages_the_whole_burst_and_the_promise_behind_it() {
        let (mut tx, rx) = open_ring();
        let (_sim, _core, mut links, _to_root) = shard_one(rx);
        for wire in burst() {
            tx.stage(wire).unwrap();
        }
        tx.commit().unwrap();
        assert!(links.poll_link(0).unwrap());
        let link = &links.in_links[0];
        let staged: Vec<f64> = link.staged.iter().map(|s| s.at.as_secs()).collect();
        assert_eq!(staged, [1.0, 1.001, 1.002]);
        assert_eq!(link.promise, SimTime::from_secs(1.5));
        assert_eq!(links.tel.get(STAGE_DEPTH), 3);
        assert!(!links.poll_link(0).unwrap(), "the wire is dry");
    }

    #[test]
    fn one_process_until_delivers_the_stage_in_key_order_after_local_ties() {
        let (mut tx, rx) = open_ring();
        let (sim, mut core, mut links, mut to_root) = shard_one(rx);
        for wire in burst() {
            tx.stage(wire).unwrap();
        }
        tx.commit().unwrap();
        schedule_locals(&mut core);
        links.poll_inbound().unwrap();
        let bound = links.in_links[0].promise;
        assert!(links.process_until(&mut core, &sim, bound).unwrap());
        assert!(links.in_links[0].staged.is_empty());
        links.flush_out().unwrap();
        assert_eq!(forwarded(&mut to_root), ONE_QUEUE_ORDER);
    }

    /// What one poll left staged, as `(time, key)`, and the wire's
    /// promise after it.
    type Poll = (Vec<(SimTime, u64)>, SimTime);

    /// Passes as the epoch loop runs them: read every wire to its end,
    /// then process up to the promise in hand — until the script is
    /// spent. Returns each pass's poll and the forwarding order.
    fn passes(script: Vec<Option<Wire>>) -> (Vec<Poll>, Vec<u64>) {
        let (sim, mut core, mut links, mut to_root) = shard_one(Box::new(Scripted(script.into())));
        schedule_locals(&mut core);
        let mut polls = Vec::new();
        while links.poll_inbound().unwrap() {
            let link = &links.in_links[0];
            let staged = link.staged.iter().map(|s| (s.at, s.key)).collect();
            polls.push((staged, link.promise));
            links.process_until(&mut core, &sim, link.promise).unwrap();
        }
        links.flush_out().unwrap();
        (polls, forwarded(&mut to_root))
    }

    #[test]
    fn a_burst_read_in_two_parts_is_the_burst_read_in_one() {
        let whole: Vec<Option<Wire>> = burst().into_iter().map(Some).collect();
        let mut split = whole.clone();
        split.insert(2, None);
        let (one, one_order) = passes(whole);
        let (two, two_order) = passes(split);
        assert_eq!(one_order, ONE_QUEUE_ORDER);
        assert_eq!(two_order, one_order);
        // One pass for the whole burst; two for the split one, the first
        // stopping at the second event's timestamp.
        assert_eq!(one.len(), 1);
        assert_eq!(two.len(), 2);
        assert_eq!(two[0].1, SimTime::from_secs(1.001));
        assert_eq!(two[1].1, one[0].1);
        // What the second pass finds staged is what the single read
        // staged past the first pass's bound.
        let (staged, _) = &one[0];
        assert_eq!(two[0].0, staged[..2]);
        assert_eq!(two[1].0, staged[2..]);
    }
}
