//! The coordinator side of a distributed run: [`DistPacketSim`], a
//! drop-in sibling of the in-process
//! [`ParPacketSim`](ww_pdes::ParPacketSim) whose shards live in other
//! OS processes (or threads) and talk over TCP.
//!
//! The coordinator holds **no shard**. It keeps a
//! [`ShardHost`]-replica of the shared bookkeeping (world, partition,
//! horizon, trace), walks the replica's barrier schedule, drives each
//! epoch by broadcasting `RunEpoch` and merging the returned exact trace
//! partials, mirrors every [`BarrierOp`] onto the replica and
//! broadcasts it to the workers, and assembles the final
//! [`PacketSimReport`] from per-worker slices. Determinism: the sample
//! instants, the barrier schedule, and all mutation arguments are
//! coordinator-chosen and identical to the sequential driver's; the
//! shards compute exactly what the in-process engine's shards compute;
//! and the exact accumulator makes the merge order irrelevant — so the
//! distributed run is bit-identical to the sequential and threaded
//! ones, which the golden tests pin at several worker counts.

use crate::codec::{
    encode_apply, encode_msg, partition_digest, AssignFrame, AssignRef, Msg, WorkerReport,
};
use crate::error::DistError;
use crate::framed::FramedStream;
use crate::spawn::{find_worker_bin, DistMode};
use crate::worker::run_worker;
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ww_core::packet::{BarrierOp, BarrierOutcome, PacketCounters, PacketSimConfig, PacketWorld};
use ww_core::packetsim::{PacketBackend, PacketSimReport};
use ww_core::stats::ExactSum;
use ww_model::Tree;
use ww_net::TrafficLedger;
use ww_pdes::engine::{OVERFLOW_PARKS, OVERFLOW_PEAK_PARKED};
use ww_pdes::{partition_forest, ShardHost, DEFAULT_STALL_TIMEOUT, PDES_KEYS};
use ww_sim::SimTime;
use ww_telemetry::{Counters, Histogram, Level, Snapshot};
use ww_workload::DocMix;

ww_telemetry::keys! {
    /// Every telemetry key `ww-dist` emits (`docs/observability.md`),
    /// all pushed by [`DistPacketSim::telemetry_snapshot`].
    pub static DIST_TELEMETRY = [
        HANDSHAKE_NS: Sum Wall "dist.handshake_ns",
        BYTES_SENT: Sum Partition "dist.bytes.sent",
        BYTES_RECEIVED: Sum Partition "dist.bytes.received",
        LINK_BYTES_SENT: Sum Partition "dist.link.{shard}.bytes_sent",
        LINK_BYTES_RECEIVED: Sum Partition "dist.link.{shard}.bytes_received",
        DATA_MSGS: Sum Wall "dist.data.msgs",
        DATA_BYTES: Sum Wall "dist.data.bytes",
        LINK_DATA_BYTES: Sum Wall "dist.link.{shard}.data_bytes",
        EPOCH_RTT: Histogram Wall "dist.epoch_rtt",
        APPLY_RTT: Histogram Wall "dist.apply_rtt",
    ];
}

/// Tuning of a distributed launch.
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// How workers come up (spawned processes, spawned threads, or
    /// externally launched).
    pub mode: DistMode,
    /// Address the coordinator listens on for worker control
    /// connections. Port 0 picks an ephemeral port (the `serve` CLI
    /// binds with an explicit port and prints it, so externally
    /// launched workers know where to connect).
    pub listen: String,
    /// Stall timeout assigned to every worker's epochs: silence on a
    /// data wire past this long becomes a typed error instead of a
    /// hang. `None` disables stall detection.
    pub stall_timeout: Option<Duration>,
    /// How long the coordinator waits for any single expected reply on
    /// a control connection before declaring the worker unresponsive.
    /// Worker *death* is detected immediately via EOF regardless of
    /// this timeout.
    pub reply_timeout: Duration,
    /// Observation level of the coordinator's control plane (handshake
    /// and round-trip latencies, framed bytes per link). Observation
    /// only: the reported simulation numbers are bit-identical at every
    /// level.
    pub telemetry: Level,
}

impl Default for DistOptions {
    fn default() -> Self {
        DistOptions {
            mode: DistMode::default(),
            listen: "127.0.0.1:0".to_string(),
            stall_timeout: Some(DEFAULT_STALL_TIMEOUT),
            reply_timeout: Duration::from_secs(120),
            telemetry: Level::Off,
        }
    }
}

/// Control-plane handle of one assigned worker: the write half of its
/// connection plus the inbox its reader thread feeds.
#[derive(Debug)]
struct WorkerCtl {
    writer: FramedStream,
    inbox: Receiver<Result<Msg, DistError>>,
    /// Bytes the reader thread has pulled off this control connection
    /// (published after each message; observation only).
    rx_bytes: Arc<AtomicU64>,
}

/// The distributed packet-level simulator. See the module docs; for
/// construction see [`DistPacketSim::launch`].
#[derive(Debug)]
pub struct DistPacketSim {
    replica: ShardHost,
    workers: Vec<WorkerCtl>,
    children: Vec<Child>,
    options: DistOptions,
    shut_down: bool,
    /// Wall-clock of the launch handshake (listener bind through the
    /// last worker's `Ready`); 0 when telemetry is off.
    handshake_ns: u64,
    /// Round-trip latency of each epoch broadcast (first `RunEpoch`
    /// sent through last `EpochDone` merged).
    epoch_rtt: Histogram,
    /// Round-trip latency of each barrier-mutation broadcast.
    apply_rtt: Histogram,
    /// Worker overflow back-pressure totals `(parks, peak depth)` from
    /// the most recent report assembly.
    last_worker_parks: (u64, u64),
    /// Each worker's data-wire `(messages, bytes)` written, from the
    /// most recent report assembly.
    last_worker_data: Vec<(u64, u64)>,
    /// Each worker's hot-path counter slab over [`PDES_KEYS`], from the
    /// most recent report assembly.
    last_worker_pdes: Vec<Counters>,
}

impl DistPacketSim {
    /// Launches a distributed run: binds the control listener, brings
    /// up `workers` workers per `options.mode`, hands each its shard
    /// assignment, builds the replica while they build their worlds, and
    /// waits until the full data mesh is up. The partition is derived
    /// from `(tree, workers)` exactly as the in-process engine derives
    /// it; on small trees fewer shards than workers may result, and
    /// surplus workers are dismissed. The world is encoded once for all
    /// workers and never copied on the way.
    ///
    /// # Errors
    ///
    /// [`DistError`] when spawning fails, a worker dies or misbehaves
    /// during the handshake, or nothing connects within the reply
    /// timeout.
    ///
    /// # Panics
    ///
    /// As [`ParPacketSim::new`](ww_pdes::ParPacketSim::new):
    /// zero workers, a non-trivial partition without positive link
    /// delay, or invalid world inputs.
    pub fn launch(
        tree: &Tree,
        mix: &DocMix,
        config: PacketSimConfig,
        workers: usize,
        options: DistOptions,
    ) -> Result<Self, DistError> {
        // Bad input is refused here, before any worker is contacted:
        // the replica's world is built only once the assignments are out.
        assert!(workers > 0, "need at least one worker");
        PacketWorld::assert_inputs(tree, mix, &config);
        let t_handshake = options.telemetry.counters_on().then(Instant::now);
        let derived = partition_forest(tree, workers);
        let shards = derived.0.shards();

        let listener = TcpListener::bind(options.listen.as_str())?;
        let ctrl_addr = listener.local_addr()?.to_string();

        let mut children = Vec::new();
        match options.mode {
            DistMode::Processes => {
                let bin = find_worker_bin().ok_or_else(|| DistError::SpawnUnavailable {
                    detail: "WW_DIST_WORKER_BIN unset and no webwave-dist next to the \
                             current executable"
                        .to_string(),
                })?;
                for _ in 0..workers {
                    children.push(
                        Command::new(&bin)
                            .arg("worker")
                            .arg("--connect")
                            .arg(&ctrl_addr)
                            .stdin(Stdio::null())
                            .spawn()?,
                    );
                }
            }
            DistMode::Threads => {
                for i in 0..workers {
                    let addr = ctrl_addr.clone();
                    std::thread::Builder::new()
                        .name(format!("ww-dist-worker-{i}"))
                        .spawn(move || {
                            // Failures surface on the coordinator side
                            // (EOF / Fatal); the thread's own result is
                            // redundant.
                            let _ = run_worker(&addr);
                        })?;
                }
            }
            DistMode::External => {}
        }

        // Collect one Hello per worker (they connect in arbitrary order).
        listener.set_nonblocking(true)?;
        let deadline = Instant::now() + options.reply_timeout;
        let mut conns: Vec<(FramedStream, String)> = Vec::new();
        while conns.len() < workers {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    let mut framed = FramedStream::new(stream)?;
                    match framed.read_msg()? {
                        Msg::Hello { data_addr } => conns.push((framed, data_addr)),
                        other => {
                            return Err(DistError::Protocol {
                                detail: format!("expected Hello, got {other:?}"),
                            })
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() > deadline {
                        return Err(DistError::Timeout {
                            worker: conns.len(),
                            waited: options.reply_timeout,
                        });
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(DistError::Io(e)),
            }
        }

        // Assign the first `shards` connections, one shard each, and
        // excuse the rest.
        let peers: Vec<(usize, String)> = conns
            .iter()
            .take(shards)
            .enumerate()
            .map(|(shard, (_, addr))| (shard, addr.clone()))
            .collect();
        let mut assignment = AssignFrame::new(&AssignRef {
            shard_id: 0,
            shard_hint: workers,
            partition_digest: partition_digest(&derived.0.shard_of),
            stall_ms: options.stall_timeout.map(|d| d.as_millis() as u64),
            parents: &tree.to_parents(),
            mix,
            config,
            peers: &peers,
        });
        let mut assigned = Vec::new();
        for (shard, (mut framed, _)) in conns.into_iter().enumerate() {
            if shard >= shards {
                framed.write_msg(&Msg::Surplus)?;
                continue;
            }
            framed.write_frame(assignment.for_shard(shard))?;
            assigned.push(framed);
        }
        drop(assignment);

        // The workers decode and build their worlds while the replica
        // builds its own.
        let mut replica = ShardHost::replica(tree, mix, config, derived);
        replica.set_telemetry(options.telemetry);

        // Split each control connection: a reader thread owns the
        // inbound half (so worker death surfaces as an inbox error the
        // moment the socket closes), the writer half stays here.
        let mut ctls = Vec::new();
        for (shard, writer) in assigned.into_iter().enumerate() {
            let mut reader = writer.try_clone()?;
            let (tx, inbox): (Sender<Result<Msg, DistError>>, _) = channel();
            let rx_bytes = Arc::new(AtomicU64::new(0));
            let rx_bytes_thread = Arc::clone(&rx_bytes);
            std::thread::Builder::new()
                .name(format!("ww-dist-ctrl-{shard}"))
                .spawn(move || loop {
                    match reader.read_msg() {
                        Ok(msg) => {
                            rx_bytes_thread.store(reader.bytes_received(), Ordering::Relaxed);
                            if tx.send(Ok(msg)).is_err() {
                                return;
                            }
                        }
                        Err(e) => {
                            let _ = tx.send(Err(e));
                            return;
                        }
                    }
                })?;
            ctls.push(WorkerCtl {
                writer,
                inbox,
                rx_bytes,
            });
        }

        let level = options.telemetry;
        let mut sim = DistPacketSim {
            replica,
            workers: ctls,
            children,
            options,
            shut_down: false,
            handshake_ns: 0,
            epoch_rtt: Histogram::new(level),
            apply_rtt: Histogram::new(level),
            last_worker_parks: (0, 0),
            last_worker_data: Vec::new(),
            last_worker_pdes: Vec::new(),
        };

        // Wait for every worker's data mesh to come up. A worker that
        // answers `Fatal` here has refused its assignment (its own
        // partition digests differently, or a peer would not connect).
        for shard in 0..sim.workers.len() {
            let reply = sim.wait(shard).map_err(|e| match e {
                DistError::WorkerFailed { worker, detail } => DistError::Protocol {
                    detail: format!("worker {worker} refused its assignment: {detail}"),
                },
                other => other,
            })?;
            match reply {
                Msg::Ready => {}
                other => {
                    return Err(DistError::Protocol {
                        detail: format!("expected Ready from worker {shard}, got {other:?}"),
                    })
                }
            }
        }
        if let Some(t0) = t_handshake {
            sim.handshake_ns = t0.elapsed().as_nanos() as u64;
        }
        Ok(sim)
    }

    /// Number of shards the partition holds (≤ the requested worker
    /// count on small trees), before and after [`shutdown`](Self::shutdown).
    pub fn shard_count(&self) -> usize {
        self.replica.core().partition.shards()
    }

    /// One expected reply from worker `shard`, with full failure
    /// typing: EOF → [`DistError::WorkerDied`], a `Fatal` message →
    /// [`DistError::WorkerFailed`], silence past the reply timeout →
    /// [`DistError::Timeout`].
    fn wait(&mut self, shard: usize) -> Result<Msg, DistError> {
        match self.workers[shard]
            .inbox
            .recv_timeout(self.options.reply_timeout)
        {
            Ok(Ok(Msg::Fatal { msg })) => Err(DistError::WorkerFailed {
                worker: shard,
                detail: msg,
            }),
            Ok(Ok(msg)) => Ok(msg),
            Ok(Err(e)) => Err(match e {
                DistError::Io(io) => DistError::WorkerDied {
                    worker: shard,
                    detail: io.to_string(),
                },
                other => other,
            }),
            Err(RecvTimeoutError::Timeout) => Err(DistError::Timeout {
                worker: shard,
                waited: self.options.reply_timeout,
            }),
            Err(RecvTimeoutError::Disconnected) => Err(DistError::WorkerDied {
                worker: shard,
                detail: "control reader exited".to_string(),
            }),
        }
    }

    /// Writes one frame — encoded once — to every worker.
    fn send_all(&mut self, frame: &[u8]) -> Result<(), DistError> {
        for (shard, ctl) in self.workers.iter_mut().enumerate() {
            ctl.writer.write_frame(frame).map_err(|e| match e {
                DistError::Io(io) => DistError::WorkerDied {
                    worker: shard,
                    detail: io.to_string(),
                },
                other => other,
            })?;
        }
        Ok(())
    }

    /// Advances every shard to `t_end` — one broadcast `RunEpoch` —
    /// and moves the replica's horizon there; with `sample`, merges and
    /// returns the workers' exact trace partials.
    fn advance_all(&mut self, t_end: SimTime, sample: bool) -> Result<Option<ExactSum>, DistError> {
        let t0 = self.epoch_rtt.is_on().then(Instant::now);
        self.send_all(&encoded(&Msg::RunEpoch { t_end, sample }))?;
        self.replica
            .run_epoch(t_end, sample)
            .expect("a replica has no wires to fail");
        let mut merged = sample.then(ExactSum::new);
        for shard in 0..self.workers.len() {
            match self.wait(shard)? {
                Msg::EpochDone { partial } => {
                    if let Some(limbs) = partial {
                        let p = ExactSum::from_limbs(&limbs).ok_or(DistError::Protocol {
                            detail: format!(
                                "worker {shard} returned a partial with {} limbs",
                                limbs.len()
                            ),
                        })?;
                        merged
                            .as_mut()
                            .ok_or(DistError::Protocol {
                                detail: format!(
                                    "worker {shard} returned a partial for an unsampled epoch"
                                ),
                            })?
                            .merge(&p);
                    }
                }
                other => {
                    return Err(DistError::Protocol {
                        detail: format!("expected EpochDone from worker {shard}, got {other:?}"),
                    })
                }
            }
        }
        if let Some(t0) = t0 {
            self.epoch_rtt.record_since(t0);
        }
        Ok(merged)
    }

    /// Runs the simulation up to `duration` simulated seconds and
    /// reports — the replica's schedule
    /// ([`SimCore::next_barrier`](ww_core::packet::driver::SimCore::next_barrier)),
    /// the one every engine runs. May be called repeatedly with
    /// increasing horizons.
    ///
    /// # Errors
    ///
    /// [`DistError`] when a worker dies, stalls, or misbehaves — within
    /// the configured timeouts, never as a hang.
    pub fn run(&mut self, duration: f64) -> Result<PacketSimReport, DistError> {
        let deadline = SimTime::from_secs(duration);
        while let Some((at, sample)) = self.replica.core().next_barrier(deadline) {
            if let Some(sum) = self.advance_all(at, sample)? {
                self.replica.record_sample(&sum);
            }
        }
        self.report()
    }

    /// Assembles the report at the current horizon from per-worker
    /// slices.
    ///
    /// # Errors
    ///
    /// [`DistError`] when a worker dies or misbehaves.
    pub fn report(&mut self) -> Result<PacketSimReport, DistError> {
        let now = self.replica.core().horizon.as_secs().max(1e-9);
        self.send_all(&encoded(&Msg::ReportRequest { now }))?;
        let mut slices: Vec<WorkerReport> = Vec::with_capacity(self.workers.len());
        for shard in 0..self.workers.len() {
            match self.wait(shard)? {
                Msg::Report(rep) => slices.push(rep),
                other => {
                    return Err(DistError::Protocol {
                        detail: format!("expected Report from worker {shard}, got {other:?}"),
                    })
                }
            }
        }

        let n = self.replica.core().world.len();
        let mut rates = vec![0.0f64; n];
        let mut ledger = TrafficLedger::new();
        let mut counters = PacketCounters::default();
        let mut overflow = (0u64, 0u64);
        let mut shard_events = Vec::with_capacity(slices.len());
        for (shard, rep) in slices.iter().enumerate() {
            let members = &self.replica.core().partition.members[shard];
            if rep.rates.len() != members.len() {
                return Err(DistError::Protocol {
                    detail: format!(
                        "worker {shard} reported {} rates for {} members",
                        rep.rates.len(),
                        members.len()
                    ),
                });
            }
            for (k, &node) in members.iter().enumerate() {
                rates[node.index()] = rep.rates[k];
            }
            let (counts, bytes, hops) = rep.ledger;
            ledger.merge(&TrafficLedger::from_raw(counts, bytes, hops));
            let (copy_pushes, tunnel_fetches, hops_sum, served_requests) = rep.counters;
            counters.merge(&PacketCounters {
                copy_pushes,
                tunnel_fetches,
                hops_sum,
                served_requests,
            });
            shard_events.push(rep.processed);
            overflow = (overflow.0 + rep.parks, overflow.1.max(rep.peak_parked));
        }
        self.last_worker_parks = overflow;
        self.last_worker_data = slices
            .iter()
            .map(|rep| (rep.data_msgs, rep.data_bytes))
            .collect();
        self.last_worker_pdes = slices
            .iter()
            .map(|rep| {
                Counters::from_slots(PDES_KEYS, rep.pdes.clone())
                    .expect("the codec admits one value per key")
            })
            .collect();
        Ok(PacketSimReport::assemble(
            &self.replica.core().world.oracle,
            self.replica.core().trace(),
            rates,
            ledger,
            counters,
            shard_events,
            overflow,
        ))
    }

    /// Broadcasts one barrier frame and requires every worker to apply
    /// it cleanly (the replica already has — same arguments, same
    /// state, same pure logic — so a worker-side rejection is a
    /// protocol desync, not a user error).
    fn broadcast(&mut self, frame: &[u8]) -> Result<(), DistError> {
        let t0 = self.apply_rtt.is_on().then(Instant::now);
        self.send_all(frame)?;
        for shard in 0..self.workers.len() {
            match self.wait(shard)? {
                Msg::Applied { err: None } => {}
                Msg::Applied { err: Some(e) } => {
                    return Err(DistError::WorkerFailed {
                        worker: shard,
                        detail: format!("barrier mutation diverged: {e}"),
                    })
                }
                other => {
                    return Err(DistError::Protocol {
                        detail: format!("expected Applied from worker {shard}, got {other:?}"),
                    })
                }
            }
        }
        if let Some(t0) = t0 {
            self.apply_rtt.record_since(t0);
        }
        Ok(())
    }

    /// [`PacketBackend::apply_all`], for callers without the trait in
    /// scope.
    ///
    /// # Errors
    ///
    /// [`DistError`] when opening or closing the batch fails (a worker
    /// is gone); per-op model rejections land in the returned vector.
    pub fn apply_all(
        &mut self,
        ops: &[BarrierOp],
    ) -> Result<Vec<Result<BarrierOutcome, DistError>>, DistError> {
        PacketBackend::apply_all(self, ops)
    }

    /// A deterministic snapshot of the coordinator-side observations:
    /// the replica's oracle-maintenance counters, the partition's shape,
    /// the workers' hot-path counters over [`PDES_KEYS`] (merged
    /// kind-aware), worker back-pressure and data-wire totals from the
    /// last report, the launch-handshake wall-clock, framed
    /// control-plane bytes per worker link, and the epoch/apply
    /// round-trip histograms. Empty
    /// when [`DistOptions::telemetry`] is [`Level::Off`]. Observation
    /// only — never fed back into the run.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        if !self.options.telemetry.counters_on() {
            return snap;
        }
        let world = &self.replica.core().world;
        let spans = self.options.telemetry.spans_on();
        world.oracle_telemetry().snapshot_into(&mut snap, spans);
        // The workers' hot-path slabs, merged as `ParPacketSim` merges
        // its shards': sums add, high-water marks take the max.
        let mut merged = Counters::new(PDES_KEYS, self.options.telemetry);
        for slab in &self.last_worker_pdes {
            merged.merge_from(slab);
        }
        merged.snapshot_into(&mut snap);
        snap.push_counter(OVERFLOW_PARKS, &[], self.last_worker_parks.0);
        snap.push_counter(OVERFLOW_PEAK_PARKED, &[], self.last_worker_parks.1);
        self.replica.partition_shape().snapshot_into(&mut snap);
        snap.push_counter(HANDSHAKE_NS, &[], self.handshake_ns);
        let sent: u64 = self.workers.iter().map(|ctl| ctl.writer.bytes_sent()).sum();
        let received = |ctl: &WorkerCtl| ctl.rx_bytes.load(Ordering::Relaxed);
        snap.push_counter(BYTES_SENT, &[], sent);
        snap.push_counter(BYTES_RECEIVED, &[], self.workers.iter().map(received).sum());
        for (shard, ctl) in self.workers.iter().enumerate() {
            snap.push_counter(LINK_BYTES_SENT, &[shard], ctl.writer.bytes_sent());
            snap.push_counter(LINK_BYTES_RECEIVED, &[shard], received(ctl));
        }
        // The data plane, as of the last report: what the workers wrote
        // to their shard-to-shard wires (`dist.bytes.*` above count the
        // control connections only).
        let (msgs, bytes) = (self.last_worker_data.iter())
            .fold((0, 0), |(m, b), &(msgs, bytes)| (m + msgs, b + bytes));
        snap.push_counter(DATA_MSGS, &[], msgs);
        snap.push_counter(DATA_BYTES, &[], bytes);
        for (shard, &(_, bytes)) in self.last_worker_data.iter().enumerate() {
            snap.push_counter(LINK_DATA_BYTES, &[shard], bytes);
        }
        self.epoch_rtt.snapshot_into(EPOCH_RTT, &mut snap);
        self.apply_rtt.snapshot_into(APPLY_RTT, &mut snap);
        snap
    }

    /// Test hook: SIGKILLs the `i`-th spawned worker **process** (no
    /// shutdown handshake), so tests can pin that a dead worker
    /// surfaces as a typed error within the read timeout. Returns
    /// `false` when there is no such child (thread or external mode).
    pub fn kill_worker_process(&mut self, i: usize) -> bool {
        match self.children.get_mut(i) {
            Some(child) => child.kill().is_ok(),
            None => false,
        }
    }

    /// Ends the run: tells every worker to exit and reaps spawned
    /// processes. Idempotent; also performed on drop. Errors are
    /// swallowed — shutdown is best-effort by design (the peer may
    /// already be gone, which is fine).
    pub fn shutdown(&mut self) {
        if self.shut_down {
            return;
        }
        self.shut_down = true;
        let frame = encoded(&Msg::Shutdown);
        for ctl in &mut self.workers {
            let _ = ctl.writer.write_frame(&frame);
        }
        // Dropping the writers closes the control sockets, so even a
        // worker that missed the Shutdown sees EOF and exits.
        self.workers.clear();
        let grace = Instant::now() + Duration::from_secs(5);
        for child in &mut self.children {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() > grace => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                    Err(_) => break,
                }
            }
        }
    }
}

/// `msg` as one frame, for [`DistPacketSim::send_all`].
fn encoded(msg: &Msg) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_msg(msg, &mut frame);
    frame
}

impl Drop for DistPacketSim {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl PacketBackend for DistPacketSim {
    type Error = DistError;

    fn run(&mut self, duration: f64) -> Result<PacketSimReport, DistError> {
        DistPacketSim::run(self, duration)
    }

    fn report(&mut self) -> Result<PacketSimReport, DistError> {
        DistPacketSim::report(self)
    }

    fn world(&self) -> &PacketWorld {
        &self.replica.core().world
    }

    /// Opens the batch on the replica, then on every worker.
    ///
    /// # Panics
    ///
    /// Panics if a batch is already open.
    fn begin_batch(&mut self) -> Result<(), DistError> {
        self.replica.begin_batch();
        self.broadcast(&encoded(&Msg::BatchBegin))
    }

    /// First on the replica, then — only if the replica accepted it —
    /// broadcast as one frame, encoded once from the borrowed op. With
    /// no batch open every participant runs it as a batch of one
    /// locally, so a lone op costs one round trip. A
    /// [`DistError::Model`] rejection was never broadcast: all
    /// participants still agree.
    fn apply_op(&mut self, op: &BarrierOp) -> Result<BarrierOutcome, DistError> {
        let outcome = self.replica.apply_op(op)?;
        let mut frame = Vec::new();
        encode_apply(op, &mut frame);
        self.broadcast(&frame)?;
        Ok(outcome)
    }

    /// Closes the batch on the replica, then on every worker.
    ///
    /// # Panics
    ///
    /// Panics if no batch is open.
    fn commit_batch(&mut self) -> Result<(), DistError> {
        self.replica.commit_batch();
        self.broadcast(&encoded(&Msg::BatchCommit))
    }

    /// A no-op: the level is fixed at launch through
    /// [`DistOptions::telemetry`], because it decides whether the worker
    /// handshake is timed.
    fn set_telemetry(&mut self, _level: Level) {}

    fn telemetry_snapshot(&self) -> Snapshot {
        DistPacketSim::telemetry_snapshot(self)
    }
}
