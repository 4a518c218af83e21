//! The worker side of a distributed run: one process (or thread), one
//! shard.
//!
//! Lifecycle: connect to the coordinator → `Hello` (carrying the
//! address of our data-plane listener) → receive `Assign` (or
//! `Surplus`, and exit) → rebuild the world from the assignment,
//! derive the partition locally and check its digest against the
//! coordinator's (a mismatch — two builds apart — is answered with
//! `Fatal`, never run; so is an assignment that does not decode, whose
//! mix does not cover its tree, or that the engine could not run) →
//! establish the shard-to-shard data
//! mesh (the lower shard id dials, the higher accepts; the first frame
//! on every data connection is a `DataHello` identifying the dialer) →
//! `Ready` → serve `RunEpoch` / `BatchBegin` / `Apply` / `BatchCommit`
//! / `ReportRequest` until `Shutdown`. All of it on the calling thread:
//! the data wires ([`crate::link`]) are nonblocking endpoints the epoch
//! loop drives itself.

use crate::codec::{partition_digest, Assign, Msg, WorkerReport};
use crate::error::DistError;
use crate::framed::FramedStream;
use crate::link::{split_wires, SocketReceiver, SocketSender};
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;
use ww_model::Tree;
use ww_pdes::{partition_forest, ShardHost};
use ww_telemetry::Level;

fn protocol(detail: String) -> DistError {
    DistError::Protocol { detail }
}

/// Runs one worker against the coordinator at `connect` until the run
/// shuts down cleanly (or this worker is excused as surplus).
///
/// # Errors
///
/// [`DistError`] when the coordinator or a peer worker dies, a wire
/// stalls past the assigned timeout, or the protocol is violated. The
/// worker never hangs on a dead peer.
pub fn run_worker(connect: &str) -> Result<(), DistError> {
    let stream = TcpStream::connect(connect)?;
    let mut ctrl = FramedStream::new(stream)?;
    // Bind the data listener before saying hello, so every address the
    // coordinator hands out is live before any peer dials it.
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let data_addr = listener.local_addr()?.to_string();
    ctrl.write_msg(&Msg::Hello { data_addr })?;
    let assign = match ctrl.read_msg() {
        Ok(Msg::Assign(a)) => a,
        Ok(Msg::Surplus) => return Ok(()),
        Ok(other) => {
            return Err(protocol(format!(
                "expected Assign or Surplus, got {other:?}"
            )))
        }
        Err(e @ DistError::Codec(_)) => {
            // An assignment that does not decode (a config value out of
            // range): say why before leaving, as `build_host` does.
            let _ = ctrl.write_msg(&Msg::Fatal { msg: e.to_string() });
            return Err(e);
        }
        Err(e) => return Err(e),
    };
    let me = assign.shard_id;
    let mut host = match build_host(assign, &listener) {
        Ok(host) => host,
        Err(e) => {
            // Best effort: tell the coordinator why before leaving.
            let _ = ctrl.write_msg(&Msg::Fatal { msg: e.to_string() });
            return Err(e);
        }
    };
    // The shard's hot-path counters always record — a few indexed adds
    // per pass of the epoch loop — and travel home in every report; the
    // coordinator's level decides whether anyone reads them.
    host.set_telemetry(Level::Counters);
    ctrl.write_msg(&Msg::Ready)?;
    serve(&mut ctrl, &mut host, me)
}

/// Rebuilds the world from the assignment, derives the partition once
/// (the same pure function the coordinator ran), wires up the data mesh
/// from it, and hands it to the shard host. The decoded tree and mix
/// move into the host's world; nothing else of the assignment outlives
/// this call.
fn build_host(assign: Assign, listener: &TcpListener) -> Result<ShardHost, DistError> {
    let me = assign.shard_id;
    let tree = Tree::from_parents(&assign.parents)?;
    drop(assign.parents);
    // What the codec cannot see in one field: the mix must cover the
    // tree, and a partition must be asked for at least one shard.
    if assign.mix.len() != tree.len() {
        return Err(protocol(format!(
            "the assignment's demand mix covers {} nodes, its tree {}",
            assign.mix.len(),
            tree.len()
        )));
    }
    if assign.shard_hint == 0 {
        return Err(protocol("the assignment asks for zero shards".to_string()));
    }
    let (partition, shape) = partition_forest(&tree, assign.shard_hint);
    let digest = partition_digest(&partition.shard_of);
    if digest != assign.partition_digest {
        return Err(protocol(format!(
            "partition mismatch: the coordinator's node-to-shard map digests to {:#018x}, \
             this worker derives {digest:#018x} from the same tree at {} shards — \
             are both ends the same build?",
            assign.partition_digest, assign.shard_hint
        )));
    }
    if me >= partition.shards() {
        return Err(protocol(format!(
            "assigned shard {me} but the derived partition has {} shards",
            partition.shards()
        )));
    }
    if !assign.config.has_lookahead(partition.shards()) {
        return Err(protocol(
            "a sharded run needs a positive link delay: it is the lookahead".to_string(),
        ));
    }

    let adjacent: BTreeSet<usize> = partition
        .cut_pairs(&tree)
        .into_iter()
        .filter_map(|(src, dst)| {
            if src == me {
                Some(dst)
            } else if dst == me {
                Some(src)
            } else {
                None
            }
        })
        .collect();

    let peer_addr: BTreeMap<usize, &str> = assign
        .peers
        .iter()
        .map(|(shard, addr)| (*shard, addr.as_str()))
        .collect();

    let mut senders: BTreeMap<usize, SocketSender> = BTreeMap::new();
    let mut receivers: BTreeMap<usize, SocketReceiver> = BTreeMap::new();

    // Dial every adjacent higher shard (the lower id dials so each pair
    // establishes exactly one connection), identifying ourselves with
    // the connection's first frame.
    for &peer in adjacent.iter().filter(|&&p| p > me) {
        let addr = peer_addr
            .get(&peer)
            .ok_or_else(|| protocol(format!("no data address for adjacent shard {peer}")))?;
        let stream = dial(addr)?;
        let mut framed = FramedStream::new(stream)?;
        framed.write_msg(&Msg::DataHello { from_shard: me })?;
        let (tx, rx) = split_wires(framed.into_inner(), &peer.to_string())?;
        senders.insert(peer, tx);
        receivers.insert(peer, rx);
    }

    // Accept one connection from every adjacent lower shard.
    let expected: BTreeSet<usize> = adjacent.iter().copied().filter(|&p| p < me).collect();
    let mut pending = expected.clone();
    while !pending.is_empty() {
        let (stream, _) = listener.accept()?;
        let mut framed = FramedStream::new(stream)?;
        let peer = match framed.read_msg()? {
            Msg::DataHello { from_shard } => from_shard,
            other => return Err(protocol(format!("expected DataHello, got {other:?}"))),
        };
        if framed.pending() > 0 {
            return Err(protocol(format!(
                "shard {peer} sent data before the mesh was up"
            )));
        }
        if !pending.remove(&peer) {
            return Err(protocol(format!(
                "unexpected data connection from shard {peer}"
            )));
        }
        let (tx, rx) = split_wires(framed.into_inner(), &peer.to_string())?;
        senders.insert(peer, tx);
        receivers.insert(peer, rx);
    }

    Ok(ShardHost::worker_on(
        tree,
        assign.mix,
        assign.config,
        (partition, shape),
        me,
        assign.stall_ms.map(Duration::from_millis),
        |dst| Box::new(senders.remove(&dst).expect("sender for adjacent shard")),
        |src| Box::new(receivers.remove(&src).expect("receiver for adjacent shard")),
    ))
}

/// Connects to a peer's data listener, riding out the short window
/// where its accept queue is saturated.
fn dial(addr: &str) -> Result<TcpStream, DistError> {
    let mut last = None;
    for _ in 0..50 {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    Err(DistError::Io(last.expect("at least one attempt")))
}

/// The steady-state control loop: epochs, barrier mutations, the final
/// report, shutdown.
fn serve(ctrl: &mut FramedStream, host: &mut ShardHost, me: usize) -> Result<(), DistError> {
    loop {
        match ctrl.read_msg()? {
            Msg::RunEpoch { t_end, sample } => match host.run_epoch(t_end, sample) {
                Ok(partial) => ctrl.write_msg(&Msg::EpochDone {
                    partial: partial.map(|p| p.limbs().to_vec()),
                })?,
                Err(e) => {
                    // Best effort: tell the coordinator why before dying.
                    let _ = ctrl.write_msg(&Msg::Fatal { msg: e.to_string() });
                    return Err(DistError::WorkerFailed {
                        worker: me,
                        detail: e.to_string(),
                    });
                }
            },
            Msg::BatchBegin => {
                host.begin_batch();
                ctrl.write_msg(&Msg::Applied { err: None })?;
            }
            Msg::Apply(op) => {
                let err = host.apply_op(&op).err().map(|e| e.to_string());
                ctrl.write_msg(&Msg::Applied { err })?;
            }
            Msg::BatchCommit => {
                host.commit_batch();
                ctrl.write_msg(&Msg::Applied { err: None })?;
            }
            Msg::ReportRequest { now } => {
                let rates = host.member_rates(now);
                let (counts, bytes, hops) = host.ledger().to_raw();
                let c = host.counters();
                let (parks, peak_parked) = host.wire_stats();
                let (data_msgs, data_bytes) = host.wire_traffic();
                ctrl.write_msg(&Msg::Report(WorkerReport {
                    rates,
                    ledger: (counts, bytes, hops),
                    counters: (
                        c.copy_pushes,
                        c.tunnel_fetches,
                        c.hops_sum,
                        c.served_requests,
                    ),
                    processed: host.processed_events(),
                    parks,
                    peak_parked,
                    data_msgs,
                    data_bytes,
                    pdes: host.pdes_counters(),
                }))?;
            }
            Msg::Shutdown => return Ok(()),
            other => return Err(protocol(format!("unexpected control message {other:?}"))),
        }
    }
}
