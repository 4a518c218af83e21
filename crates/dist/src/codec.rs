//! Length-prefixed binary framing for the distributed wire protocol.
//!
//! Every message — data-plane [`Wire`] traffic between shards and
//! control-plane coordination — travels as one **frame**: a `u32`
//! little-endian byte length followed by a one-byte message tag and the
//! body. Frames are self-delimiting, so a TCP stream of them can be cut
//! at any byte boundary and reassembled by [`FrameBuffer`]; the codec
//! round-trip property tests pin exactly that.
//!
//! All scalars are little-endian. `f64` values travel as raw IEEE-754
//! bits ([`f64::to_bits`]), never through text — the distributed run
//! must be **bit-identical** to the sequential simulator, so no value
//! may pass through a lossy or normalizing representation. Simulated
//! times are validated on decode (finite, non-negative) so a malformed
//! frame yields a typed [`CodecError`] instead of a panic downstream.
//!
//! The codec has no versioning or negotiation: both ends of every
//! socket are the same build of the same binary (the coordinator spawns
//! its workers, or CI launches matching processes). A tag this build
//! does not know is a [`CodecError::BadTag`], not a skippable extension.

use std::fmt;
use ww_core::packet::{BarrierOp, PacketEvent, PacketSimConfig};
use ww_model::{DocId, NodeId};
use ww_net::{DocRequest, RequestId};
use ww_pdes::{Wire, PDES_KEYS};
use ww_sim::SimTime;
use ww_workload::DocMix;

/// Hard cap on one frame's payload, bytes. A length prefix above this is
/// treated as stream corruption ([`CodecError::Oversize`]) rather than
/// an allocation request — the largest legitimate frame (an [`Msg::Assign`]
/// carrying a scenario world) stays far below it.
pub const MAX_FRAME: usize = 64 << 20;

/// Why a frame failed to decode. Malformed input is always a typed
/// error, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The body ended before the message did (or carried trailing
    /// bytes the message does not account for).
    Truncated,
    /// A length prefix exceeded [`MAX_FRAME`].
    Oversize {
        /// The claimed payload length.
        len: u64,
    },
    /// An unknown message or variant tag.
    BadTag {
        /// The offending tag byte.
        tag: u8,
    },
    /// A field held a value outside its domain (a non-finite or
    /// negative simulated time, an index wider than `usize`, …).
    BadValue {
        /// Which field was rejected.
        what: &'static str,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::Oversize { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME}-byte cap")
            }
            CodecError::BadTag { tag } => write!(f, "unknown message tag {tag:#04x}"),
            CodecError::BadValue { what } => write!(f, "field out of domain: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// The full shard assignment a worker receives once the coordinator has
/// collected every [`Msg::Hello`]: which shard to run, the scenario
/// world to build (every participant derives the partition from the
/// same `(tree, shard_hint)` pair — no partition data crosses the
/// wire, only its digest), and where to dial the peer shards.
#[derive(Debug, Clone, PartialEq)]
pub struct Assign {
    /// The shard this worker runs.
    pub shard_id: usize,
    /// The shard-count *hint* the partition is derived from. The actual
    /// shard count can be lower on small trees; surplus workers receive
    /// [`Msg::Surplus`] instead of an assignment.
    pub shard_hint: usize,
    /// [`partition_digest`] of the coordinator's node → shard map. A
    /// worker whose own derivation digests differently — a binary one
    /// build apart — refuses the assignment instead of running a
    /// permuted partition.
    pub partition_digest: u64,
    /// Stall timeout for the worker's epochs, milliseconds; `None`
    /// disables stall detection.
    pub stall_ms: Option<u64>,
    /// The routing tree as a parent vector (`None` = root).
    pub parents: Vec<Option<usize>>,
    /// Node count of the demand mix (= tree size).
    pub mix_nodes: usize,
    /// The demand mix as `(node, doc, rate)` triples, in the canonical
    /// node-major order.
    pub demands: Vec<(usize, u64, f64)>,
    /// The shared run configuration (seed, periods, protocol knobs).
    pub config: PacketSimConfig,
    /// Data-plane listener of every shard, as `(shard, address)` —
    /// the worker dials the peers it is adjacent to.
    pub peers: Vec<(usize, String)>,
}

/// A worker's slice of the final report, returned for
/// [`Msg::ReportRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerReport {
    /// Serve rates of the worker's member nodes, in member order (raw
    /// `f64` bits — the coordinator scatters them into the global
    /// vector unchanged).
    pub rates: Vec<f64>,
    /// The shard's traffic ledger, raw (`counts`, `bytes`,
    /// `hop_messages`).
    pub ledger: ([u64; 6], [u64; 6], u64),
    /// The shard's protocol counters:
    /// `(copy_pushes, tunnel_fetches, hops_sum, served_requests)`.
    pub counters: (u64, u64, u64, u64),
    /// Events this shard processed.
    pub processed: u64,
    /// Messages ever parked in outbound overflow queues.
    pub parks: u64,
    /// Peak depth of any outbound overflow queue.
    pub peak_parked: u64,
    /// Messages this shard staged on its outbound data wires.
    pub data_msgs: u64,
    /// Bytes this shard wrote to its outbound data wires.
    pub data_bytes: u64,
    /// The shard's hot-path counters, one value per [`PDES_KEYS`] entry
    /// in table order; a frame carrying any other count is a
    /// [`CodecError::BadValue`].
    pub pdes: Vec<u64>,
}

/// A 64-bit FNV-1a digest of a node → shard map (length, then every
/// entry as a little-endian `u64`): what [`Assign::partition_digest`]
/// carries, so that a coordinator and a worker which derive different
/// partitions from the same `(tree, shard_hint)` find out at the
/// handshake.
pub fn partition_digest(shard_of: &[usize]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in std::iter::once(shard_of.len()).chain(shard_of.iter().copied()) {
        for byte in (word as u64).to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Every message of the distributed protocol — data plane and control
/// plane share one frame format.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Data plane: one [`Wire`] message between adjacent shards.
    Wire(Wire),
    /// Data plane: the first frame on a freshly dialed shard-to-shard
    /// connection, identifying the dialer.
    DataHello {
        /// Shard id of the dialing worker.
        from_shard: usize,
    },
    /// Worker → coordinator: first message on the control connection.
    Hello {
        /// Address of the worker's data-plane listener, for peers to
        /// dial.
        data_addr: String,
    },
    /// Coordinator → worker: the shard assignment.
    Assign(Assign),
    /// Coordinator → worker: the partition yielded fewer shards than
    /// workers; this worker is excused and exits cleanly.
    Surplus,
    /// Worker → coordinator: assignment accepted, data links up, ready
    /// to run epochs.
    Ready,
    /// Coordinator → worker: advance to the epoch boundary.
    RunEpoch {
        /// The boundary to advance to.
        t_end: SimTime,
        /// Whether to fold and return the convergence-trace partial at
        /// the quiesced boundary.
        sample: bool,
    },
    /// Worker → coordinator: the epoch completed.
    EpochDone {
        /// The shard's exact trace partial (the
        /// [`ExactSum`](ww_stats::ExactSum) limbs), when sampling.
        partial: Option<Vec<u64>>,
    },
    /// Coordinator → worker: open a barrier batch — ops until
    /// [`Msg::BatchCommit`] defer their oracle refresh, queue surgery,
    /// and arrival re-resolution to one shared pass at commit.
    BatchBegin,
    /// Coordinator → worker: apply one barrier op to the worker's
    /// [`ShardHost`](ww_pdes::ShardHost) — into the open batch, or as a
    /// batch of one.
    Apply(BarrierOp),
    /// Coordinator → worker: close the open barrier batch.
    BatchCommit,
    /// Worker → coordinator: the batch message or barrier op was applied
    /// (or the op rejected by the model with the given message).
    Applied {
        /// `None` on success; the model's error text otherwise.
        err: Option<String>,
    },
    /// Coordinator → worker: produce the final report slice.
    ReportRequest {
        /// The instant (seconds) to roll serve meters at.
        now: f64,
    },
    /// Worker → coordinator: the report slice.
    Report(WorkerReport),
    /// Coordinator → worker: the run is over; exit cleanly.
    Shutdown,
    /// Worker → coordinator: the worker cannot continue (dead or
    /// stalled data wire, poisoned state).
    Fatal {
        /// The worker's error message.
        msg: String,
    },
}

// ---------------------------------------------------------------------
// Primitive writers.

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    put_u8(out, u8::from(v));
}

fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

fn put_time(out: &mut Vec<u8>, t: SimTime) {
    put_f64(out, t.as_secs());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => put_u8(out, 0),
        Some(x) => {
            put_u8(out, 1);
            put_u64(out, x);
        }
    }
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        None => put_u8(out, 0),
        Some(x) => {
            put_u8(out, 1);
            put_f64(out, x);
        }
    }
}

// ---------------------------------------------------------------------
// Primitive reader.

struct Rd<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Rd<'a> {
    fn new(b: &'a [u8]) -> Self {
        Rd { b, i: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.i.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.b.len() {
            return Err(CodecError::Truncated);
        }
        let s = &self.b[self.i..end];
        self.i = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::BadValue { what: "bool flag" }),
        }
    }

    fn usize(&mut self) -> Result<usize, CodecError> {
        self.u64()?.try_into().map_err(|_| CodecError::BadValue {
            what: "index width",
        })
    }

    fn time(&mut self) -> Result<SimTime, CodecError> {
        let secs = self.f64()?;
        if !secs.is_finite() || secs < 0.0 {
            return Err(CodecError::BadValue { what: "sim time" });
        }
        Ok(SimTime::from_secs(secs))
    }

    fn str_(&mut self) -> Result<String, CodecError> {
        let n = self.u32()? as usize;
        let raw = self.bytes(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| CodecError::BadValue {
            what: "utf-8 string",
        })
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(CodecError::BadValue {
                what: "option flag",
            }),
        }
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            _ => Err(CodecError::BadValue {
                what: "option flag",
            }),
        }
    }

    /// A collection length. Bounded by what the body could possibly
    /// hold, so hostile lengths fail before any allocation.
    fn len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes) > self.b.len() {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }

    fn finish(self) -> Result<(), CodecError> {
        if self.i == self.b.len() {
            Ok(())
        } else {
            Err(CodecError::Truncated)
        }
    }
}

// ---------------------------------------------------------------------
// Message tags. Data plane in the low range, control plane from 16.

const TAG_EVENT: u8 = 1;
const TAG_PROMISE: u8 = 2;
const TAG_EPOCH_END: u8 = 3;
const TAG_DATA_HELLO: u8 = 4;
const TAG_HELLO: u8 = 16;
const TAG_ASSIGN: u8 = 17;
const TAG_SURPLUS: u8 = 18;
const TAG_READY: u8 = 19;
const TAG_RUN_EPOCH: u8 = 20;
const TAG_EPOCH_DONE: u8 = 21;
const TAG_APPLY: u8 = 22;
const TAG_APPLIED: u8 = 23;
const TAG_REPORT_REQUEST: u8 = 24;
const TAG_REPORT: u8 = 25;
const TAG_SHUTDOWN: u8 = 26;
const TAG_FATAL: u8 = 27;
const TAG_BATCH_BEGIN: u8 = 28;
const TAG_BATCH_COMMIT: u8 = 29;

// PacketEvent variant subtags, in declaration order.
const EV_ARRIVAL: u8 = 0;
const EV_PACKET: u8 = 1;
const EV_GOSSIP: u8 = 2;
const EV_COPY: u8 = 3;
const EV_PROBE: u8 = 4;
const EV_GRANT: u8 = 5;

// BarrierOp variant subtags.
const OP_FAIL: u8 = 0;
const OP_HEAL: u8 = 1;
const OP_INVALIDATE: u8 = 2;
const OP_ADD_LEAF: u8 = 3;
const OP_REMOVE_LEAF: u8 = 4;
const OP_PUBLISH: u8 = 5;
const OP_SET_MIX: u8 = 6;

fn put_event(out: &mut Vec<u8>, ev: &PacketEvent) {
    match ev {
        // Never on a wire (an arrival targets its own node); encoded
        // for completeness of the event codec.
        PacketEvent::Arrival { node, stream } => {
            put_u8(out, EV_ARRIVAL);
            put_usize(out, node.index());
            put_u32(out, *stream);
        }
        PacketEvent::Packet {
            node,
            from,
            request,
            index,
        } => {
            put_u8(out, EV_PACKET);
            put_usize(out, node.index());
            put_opt_u64(out, from.map(|n| n.index() as u64));
            put_u64(out, request.id.value());
            put_u64(out, request.doc.value());
            put_usize(out, request.origin.index());
            put_u32(out, request.hops);
            put_u32(out, *index);
        }
        PacketEvent::GossipDeliver { to, from, load } => {
            put_u8(out, EV_GOSSIP);
            put_usize(out, to.index());
            put_usize(out, from.index());
            put_f64(out, *load);
        }
        PacketEvent::CopyInstall { node, index, rate } => {
            put_u8(out, EV_COPY);
            put_usize(out, node.index());
            put_u32(out, *index);
            put_f64(out, *rate);
        }
        PacketEvent::TunnelProbe {
            node,
            origin,
            index,
            rate,
            hops,
        } => {
            put_u8(out, EV_PROBE);
            put_usize(out, node.index());
            put_usize(out, origin.index());
            put_u32(out, *index);
            put_f64(out, *rate);
            put_u32(out, *hops);
        }
        PacketEvent::TunnelGrant {
            node,
            target,
            index,
            rate,
        } => {
            put_u8(out, EV_GRANT);
            put_usize(out, node.index());
            put_usize(out, target.index());
            put_u32(out, *index);
            put_f64(out, *rate);
        }
    }
}

fn read_node(r: &mut Rd<'_>) -> Result<NodeId, CodecError> {
    Ok(NodeId::new(r.usize()?))
}

fn read_event(r: &mut Rd<'_>) -> Result<PacketEvent, CodecError> {
    let tag = r.u8()?;
    Ok(match tag {
        EV_ARRIVAL => PacketEvent::Arrival {
            node: read_node(r)?,
            stream: r.u32()?,
        },
        EV_PACKET => {
            let node = read_node(r)?;
            let from = match r.opt_u64()? {
                None => None,
                Some(raw) => Some(NodeId::new(raw.try_into().map_err(|_| {
                    CodecError::BadValue {
                        what: "index width",
                    }
                })?)),
            };
            let request = DocRequest {
                id: RequestId::new(r.u64()?),
                doc: DocId::new(r.u64()?),
                origin: read_node(r)?,
                hops: r.u32()?,
            };
            PacketEvent::Packet {
                node,
                from,
                request,
                index: r.u32()?,
            }
        }
        EV_GOSSIP => PacketEvent::GossipDeliver {
            to: read_node(r)?,
            from: read_node(r)?,
            load: r.f64()?,
        },
        EV_COPY => PacketEvent::CopyInstall {
            node: read_node(r)?,
            index: r.u32()?,
            rate: r.f64()?,
        },
        EV_PROBE => PacketEvent::TunnelProbe {
            node: read_node(r)?,
            origin: read_node(r)?,
            index: r.u32()?,
            rate: r.f64()?,
            hops: r.u32()?,
        },
        EV_GRANT => PacketEvent::TunnelGrant {
            node: read_node(r)?,
            target: read_node(r)?,
            index: r.u32()?,
            rate: r.f64()?,
        },
        tag => return Err(CodecError::BadTag { tag }),
    })
}

fn put_config(out: &mut Vec<u8>, c: &PacketSimConfig) {
    put_u64(out, c.seed);
    put_f64(out, c.link_delay);
    put_f64(out, c.gossip_period);
    put_f64(out, c.diffusion_period);
    put_f64(out, c.measure_window);
    put_opt_f64(out, c.alpha);
    put_bool(out, c.tunneling);
    put_usize(out, c.barrier_patience);
    put_f64(out, c.gossip_loss);
    put_f64(out, c.hysteresis);
    put_f64(out, c.noise_sigmas);
}

fn read_config(r: &mut Rd<'_>) -> Result<PacketSimConfig, CodecError> {
    Ok(PacketSimConfig {
        seed: r.u64()?,
        link_delay: r.f64()?,
        gossip_period: r.f64()?,
        diffusion_period: r.f64()?,
        measure_window: r.f64()?,
        alpha: r.opt_f64()?,
        tunneling: r.bool()?,
        barrier_patience: r.usize()?,
        gossip_loss: r.f64()?,
        hysteresis: r.f64()?,
        noise_sigmas: r.f64()?,
    })
}

fn put_demands(out: &mut Vec<u8>, demands: &[(usize, u64, f64)]) {
    put_u32(out, demands.len() as u32);
    for &(node, doc, rate) in demands {
        put_usize(out, node);
        put_u64(out, doc);
        put_f64(out, rate);
    }
}

fn read_demands(r: &mut Rd<'_>) -> Result<Vec<(usize, u64, f64)>, CodecError> {
    let n = r.len(24)?;
    let mut demands = Vec::with_capacity(n);
    for _ in 0..n {
        demands.push((r.usize()?, r.u64()?, r.f64()?));
    }
    Ok(demands)
}

fn put_op(out: &mut Vec<u8>, op: &BarrierOp) {
    match op {
        BarrierOp::FailLink { node } => {
            put_u8(out, OP_FAIL);
            put_usize(out, node.index());
        }
        BarrierOp::HealLink { node } => {
            put_u8(out, OP_HEAL);
            put_usize(out, node.index());
        }
        BarrierOp::Invalidate { doc } => {
            put_u8(out, OP_INVALIDATE);
            put_u64(out, doc.value());
        }
        BarrierOp::AddLeaf { parent, rate } => {
            put_u8(out, OP_ADD_LEAF);
            put_usize(out, parent.index());
            put_f64(out, *rate);
        }
        BarrierOp::RemoveLeaf { node } => {
            put_u8(out, OP_REMOVE_LEAF);
            put_usize(out, node.index());
        }
        BarrierOp::PublishDoc { doc, origin, rate } => {
            put_u8(out, OP_PUBLISH);
            put_u64(out, doc.value());
            put_usize(out, origin.index());
            put_f64(out, *rate);
        }
        BarrierOp::SetMix { mix } => {
            put_u8(out, OP_SET_MIX);
            put_usize(out, mix.len());
            put_demands(out, &mix_demands(mix));
        }
    }
}

fn read_op(r: &mut Rd<'_>) -> Result<BarrierOp, CodecError> {
    Ok(match r.u8()? {
        OP_FAIL => BarrierOp::FailLink {
            node: read_node(r)?,
        },
        OP_HEAL => BarrierOp::HealLink {
            node: read_node(r)?,
        },
        OP_INVALIDATE => BarrierOp::Invalidate {
            doc: DocId::new(r.u64()?),
        },
        OP_ADD_LEAF => BarrierOp::AddLeaf {
            parent: read_node(r)?,
            rate: r.f64()?,
        },
        OP_REMOVE_LEAF => BarrierOp::RemoveLeaf {
            node: read_node(r)?,
        },
        OP_PUBLISH => BarrierOp::PublishDoc {
            doc: DocId::new(r.u64()?),
            origin: read_node(r)?,
            rate: r.f64()?,
        },
        OP_SET_MIX => {
            // One row is allocated per node before any demand is read;
            // a tree the protocol could assign has far fewer nodes (its
            // `Assign` frame spends 9 bytes on every parent pointer).
            let nodes = r.usize()?;
            if nodes > MAX_FRAME / 8 {
                return Err(CodecError::BadValue { what: "mix nodes" });
            }
            let mut mix = DocMix::new(nodes);
            for (node, doc, rate) in read_demands(r)? {
                if node >= nodes || !rate.is_finite() || rate < 0.0 {
                    return Err(CodecError::BadValue { what: "mix demand" });
                }
                mix.set(NodeId::new(node), DocId::new(doc), rate);
            }
            BarrierOp::SetMix { mix }
        }
        tag => return Err(CodecError::BadTag { tag }),
    })
}

/// The demand mix as canonical `(node, doc, rate)` triples, node-major.
pub(crate) fn mix_demands(mix: &DocMix) -> Vec<(usize, u64, f64)> {
    let mut demands = Vec::new();
    for j in 0..mix.len() {
        for &(doc, rate) in mix.demands_of(NodeId::new(j)) {
            demands.push((j, doc.value(), rate));
        }
    }
    demands
}

fn put_body(out: &mut Vec<u8>, msg: &Msg) {
    match msg {
        Msg::Wire(Wire::Event { at, counter, ev }) => {
            put_u8(out, TAG_EVENT);
            put_time(out, *at);
            put_u64(out, *counter);
            put_event(out, ev);
        }
        Msg::Wire(Wire::Promise { until }) => {
            put_u8(out, TAG_PROMISE);
            put_time(out, *until);
        }
        Msg::Wire(Wire::EpochEnd) => put_u8(out, TAG_EPOCH_END),
        Msg::DataHello { from_shard } => {
            put_u8(out, TAG_DATA_HELLO);
            put_usize(out, *from_shard);
        }
        Msg::Hello { data_addr } => {
            put_u8(out, TAG_HELLO);
            put_str(out, data_addr);
        }
        Msg::Assign(a) => {
            put_u8(out, TAG_ASSIGN);
            put_usize(out, a.shard_id);
            put_usize(out, a.shard_hint);
            put_u64(out, a.partition_digest);
            put_opt_u64(out, a.stall_ms);
            put_u32(out, a.parents.len() as u32);
            for p in &a.parents {
                put_opt_u64(out, p.map(|x| x as u64));
            }
            put_usize(out, a.mix_nodes);
            put_demands(out, &a.demands);
            put_config(out, &a.config);
            put_u32(out, a.peers.len() as u32);
            for (shard, addr) in &a.peers {
                put_usize(out, *shard);
                put_str(out, addr);
            }
        }
        Msg::Surplus => put_u8(out, TAG_SURPLUS),
        Msg::Ready => put_u8(out, TAG_READY),
        Msg::RunEpoch { t_end, sample } => {
            put_u8(out, TAG_RUN_EPOCH);
            put_time(out, *t_end);
            put_bool(out, *sample);
        }
        Msg::EpochDone { partial } => {
            put_u8(out, TAG_EPOCH_DONE);
            match partial {
                None => put_u8(out, 0),
                Some(limbs) => {
                    put_u8(out, 1);
                    put_u32(out, limbs.len() as u32);
                    for &l in limbs {
                        put_u64(out, l);
                    }
                }
            }
        }
        Msg::BatchBegin => put_u8(out, TAG_BATCH_BEGIN),
        Msg::Apply(op) => {
            put_u8(out, TAG_APPLY);
            put_op(out, op);
        }
        Msg::BatchCommit => put_u8(out, TAG_BATCH_COMMIT),
        Msg::Applied { err } => {
            put_u8(out, TAG_APPLIED);
            match err {
                None => put_u8(out, 0),
                Some(e) => {
                    put_u8(out, 1);
                    put_str(out, e);
                }
            }
        }
        Msg::ReportRequest { now } => {
            put_u8(out, TAG_REPORT_REQUEST);
            put_f64(out, *now);
        }
        Msg::Report(rep) => {
            put_u8(out, TAG_REPORT);
            put_u32(out, rep.rates.len() as u32);
            for &r in &rep.rates {
                put_f64(out, r);
            }
            let (counts, bytes, hops) = rep.ledger;
            for c in counts {
                put_u64(out, c);
            }
            for b in bytes {
                put_u64(out, b);
            }
            put_u64(out, hops);
            let (cp, tf, hs, sr) = rep.counters;
            put_u64(out, cp);
            put_u64(out, tf);
            put_u64(out, hs);
            put_u64(out, sr);
            put_u64(out, rep.processed);
            put_u64(out, rep.parks);
            put_u64(out, rep.peak_parked);
            put_u64(out, rep.data_msgs);
            put_u64(out, rep.data_bytes);
            put_u32(out, rep.pdes.len() as u32);
            for &v in &rep.pdes {
                put_u64(out, v);
            }
        }
        Msg::Shutdown => put_u8(out, TAG_SHUTDOWN),
        Msg::Fatal { msg } => {
            put_u8(out, TAG_FATAL);
            put_str(out, msg);
        }
    }
}

/// Appends `msg` to `out` as one length-prefixed frame.
///
/// # Panics
///
/// Panics if the encoded body exceeds [`MAX_FRAME`] — only reachable by
/// constructing a pathological message (a multi-gigabyte string field),
/// never by the protocol's own traffic.
pub fn encode_msg(msg: &Msg, out: &mut Vec<u8>) {
    let at = out.len();
    put_u32(out, 0);
    put_body(out, msg);
    let len = out.len() - at - 4;
    assert!(len <= MAX_FRAME, "oversize frame: {len} bytes");
    out[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Decodes one frame **body** (the bytes after the length prefix).
///
/// # Errors
///
/// [`CodecError`] on any malformed input: unknown tags, truncated or
/// oversized bodies, out-of-domain field values, trailing bytes.
pub fn decode_msg(body: &[u8]) -> Result<Msg, CodecError> {
    let mut r = Rd::new(body);
    let tag = r.u8()?;
    let msg = match tag {
        TAG_EVENT => {
            let at = r.time()?;
            let counter = r.u64()?;
            let ev = read_event(&mut r)?;
            Msg::Wire(Wire::Event { at, counter, ev })
        }
        TAG_PROMISE => Msg::Wire(Wire::Promise { until: r.time()? }),
        TAG_EPOCH_END => Msg::Wire(Wire::EpochEnd),
        TAG_DATA_HELLO => Msg::DataHello {
            from_shard: r.usize()?,
        },
        TAG_HELLO => Msg::Hello {
            data_addr: r.str_()?,
        },
        TAG_ASSIGN => {
            let shard_id = r.usize()?;
            let shard_hint = r.usize()?;
            let partition_digest = r.u64()?;
            let stall_ms = r.opt_u64()?;
            let n = r.len(1)?;
            let mut parents = Vec::with_capacity(n);
            for _ in 0..n {
                parents.push(match r.opt_u64()? {
                    None => None,
                    Some(raw) => Some(raw.try_into().map_err(|_| CodecError::BadValue {
                        what: "index width",
                    })?),
                });
            }
            let mix_nodes = r.usize()?;
            let demands = read_demands(&mut r)?;
            let config = read_config(&mut r)?;
            let np = r.len(12)?;
            let mut peers = Vec::with_capacity(np);
            for _ in 0..np {
                peers.push((r.usize()?, r.str_()?));
            }
            Msg::Assign(Assign {
                shard_id,
                shard_hint,
                partition_digest,
                stall_ms,
                parents,
                mix_nodes,
                demands,
                config,
                peers,
            })
        }
        TAG_SURPLUS => Msg::Surplus,
        TAG_READY => Msg::Ready,
        TAG_RUN_EPOCH => Msg::RunEpoch {
            t_end: r.time()?,
            sample: r.bool()?,
        },
        TAG_EPOCH_DONE => {
            let partial = match r.u8()? {
                0 => None,
                1 => {
                    let n = r.len(8)?;
                    let mut limbs = Vec::with_capacity(n);
                    for _ in 0..n {
                        limbs.push(r.u64()?);
                    }
                    Some(limbs)
                }
                _ => {
                    return Err(CodecError::BadValue {
                        what: "option flag",
                    })
                }
            };
            Msg::EpochDone { partial }
        }
        TAG_BATCH_BEGIN => Msg::BatchBegin,
        TAG_APPLY => Msg::Apply(read_op(&mut r)?),
        TAG_BATCH_COMMIT => Msg::BatchCommit,
        TAG_APPLIED => {
            let err = match r.u8()? {
                0 => None,
                1 => Some(r.str_()?),
                _ => {
                    return Err(CodecError::BadValue {
                        what: "option flag",
                    })
                }
            };
            Msg::Applied { err }
        }
        TAG_REPORT_REQUEST => Msg::ReportRequest { now: r.f64()? },
        TAG_REPORT => {
            let n = r.len(8)?;
            let mut rates = Vec::with_capacity(n);
            for _ in 0..n {
                rates.push(r.f64()?);
            }
            let mut counts = [0u64; 6];
            for c in &mut counts {
                *c = r.u64()?;
            }
            let mut bytes = [0u64; 6];
            for b in &mut bytes {
                *b = r.u64()?;
            }
            let hops = r.u64()?;
            let counters = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
            let (processed, parks, peak_parked) = (r.u64()?, r.u64()?, r.u64()?);
            let (data_msgs, data_bytes) = (r.u64()?, r.u64()?);
            if r.len(8)? != PDES_KEYS.len() {
                return Err(CodecError::BadValue {
                    what: "pdes counter slab",
                });
            }
            let pdes = (0..PDES_KEYS.len())
                .map(|_| r.u64())
                .collect::<Result<_, _>>()?;
            Msg::Report(WorkerReport {
                rates,
                ledger: (counts, bytes, hops),
                counters,
                processed,
                parks,
                peak_parked,
                data_msgs,
                data_bytes,
                pdes,
            })
        }
        TAG_SHUTDOWN => Msg::Shutdown,
        TAG_FATAL => Msg::Fatal { msg: r.str_()? },
        tag => return Err(CodecError::BadTag { tag }),
    };
    r.finish()?;
    Ok(msg)
}

/// Incremental frame reassembly over an arbitrary chunking of the byte
/// stream: [`feed`](FrameBuffer::feed) whatever the socket produced,
/// then drain complete messages with [`next_msg`](FrameBuffer::next_msg).
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Appends raw bytes from the stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact lazily so a long-lived connection doesn't grow without
        // bound.
        if self.start > 0 && (self.start >= self.buf.len() || self.start > 64 * 1024) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered but not yet consumed.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Decodes the next complete frame, if one is buffered. `Ok(None)`
    /// means more bytes are needed.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on a corrupt frame; the stream is then
    /// unrecoverable (framing is lost) and the connection must be torn
    /// down.
    pub fn next_msg(&mut self) -> Result<Option<Msg>, CodecError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap()) as usize;
        if len > MAX_FRAME {
            return Err(CodecError::Oversize { len: len as u64 });
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let msg = decode_msg(&avail[4..4 + len])?;
        self.start += 4 + len;
        Ok(Some(msg))
    }
}
