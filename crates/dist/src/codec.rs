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
//! Node ids travel as eight bytes, like every index, and decode only if
//! they fit a [`NodeId`] ([`NodeId::checked`]: below `u32::MAX`) — an
//! event's nodes and an `Assign`'s parents alike.
//!
//! A [`PacketEvent::Packet`] frame names its document once, as the
//! event's dense `index`: its [`DocRequest`] travels as `id, origin,
//! hops` (20 bytes), with no document id. Both ends of a wire hold the
//! same document table, which is what makes the index enough.
//!
//! Each type's layout is declared **once**, in a `layout!` line: a
//! struct's fields in wire order, an enum's tag → variant → fields. The
//! encoder and the decoder both walk that one declaration (scalars,
//! options, vectors, arrays and tuples have one generic layout each), so
//! the two halves cannot drift apart. Adding a frame means adding a
//! variant to [`Msg`] and one line to its `layout!` with a fresh tag;
//! `the_wire_bytes_are_pinned` in `tests/codec_props.rs` pins the bytes
//! of every frame kind.
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
use ww_workload::{DemandRow, DocMix};

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
    /// The demand mix over the tree's nodes (on the wire: the node
    /// count, then `(node, doc, rate)` triples in canonical node-major
    /// order — a demand outside the mix or a rate [`DocMix::set`] would
    /// refuse fails the decode).
    pub mix: DocMix,
    /// The shared run configuration (seed, periods, protocol knobs). A
    /// value [`PacketSimConfig::check`] refuses fails the decode.
    pub config: PacketSimConfig,
    /// Data-plane listener of every shard, as `(shard, address)` —
    /// the worker dials the peers it is adjacent to.
    pub peers: Vec<(usize, String)>,
}

/// An [`Assign`] whose tree, mix and peer table are borrowed: what the
/// coordinator encodes, in `Assign`'s layout, without copying the world
/// ([`AssignFrame`]).
pub(crate) struct AssignRef<'a> {
    pub(crate) shard_id: usize,
    pub(crate) shard_hint: usize,
    pub(crate) partition_digest: u64,
    pub(crate) stall_ms: Option<u64>,
    pub(crate) parents: &'a Vec<Option<usize>>,
    pub(crate) mix: &'a DocMix,
    pub(crate) config: PacketSimConfig,
    pub(crate) peers: &'a Vec<(usize, String)>,
}

/// One encoded `Msg::Assign` frame for every worker. The workers'
/// assignments differ in `shard_id` only, the first field of `Assign`'s
/// layout, so the world is encoded once and each worker's copy is the
/// same bytes re-addressed.
pub(crate) struct AssignFrame(Vec<u8>);

impl AssignFrame {
    /// Where `shard_id` sits: after the length prefix and the tag.
    const SHARD_ID: std::ops::Range<usize> = 5..13;

    /// Encodes `assign` as the frame [`encode_msg`] would write for the
    /// owned [`Assign`] it borrows from.
    pub(crate) fn new(assign: &AssignRef<'_>) -> Self {
        let mut out = Vec::new();
        frame(&mut out, |out| {
            out.push(ASSIGN);
            assign.put(out);
        });
        AssignFrame(out)
    }

    /// The frame addressed to shard `shard_id`.
    pub(crate) fn for_shard(&mut self, shard_id: usize) -> &[u8] {
        self.0[Self::SHARD_ID].copy_from_slice(&(shard_id as u64).to_le_bytes());
        &self.0
    }
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
        /// [`ExactSum`](ww_core::stats::ExactSum) limbs), when sampling.
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
// One layout per type: `put` and `get` are two walks of it. Every
// layout a data-plane frame walks is `#[inline(always)]`, so a `Wire`
// encodes and decodes in one function: a call per nested layout cost
// decode a few percent.

/// A type with one wire layout, which [`encode_msg`] and [`decode_msg`]
/// both walk.
trait Codec: Sized {
    /// The fewest bytes one value takes on the wire: a collection's
    /// claimed length is checked against it before anything is
    /// allocated.
    const MIN: usize = 1;

    fn put(&self, out: &mut Vec<u8>);

    fn get(r: &mut Rd<'_>) -> Result<Self, CodecError>;
}

/// An enum whose tag byte has been read: the variant it names, decoded.
trait Tagged: Sized {
    fn variant(tag: u8, r: &mut Rd<'_>) -> Result<Self, CodecError>;
}

/// A cursor over one frame body.
struct Rd<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Rd<'a> {
    #[inline(always)]
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.i.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.b.len() {
            return Err(CodecError::Truncated);
        }
        let s = &self.b[self.i..end];
        self.i = end;
        Ok(s)
    }

    #[inline(always)]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.bytes(N)?.try_into().expect("N bytes"))
    }

    /// A collection length. Bounded by what the body could possibly
    /// hold, so hostile lengths fail before any allocation.
    #[inline(always)]
    fn len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = u32::get(self)? as usize;
        if n.saturating_mul(min_elem_bytes) > self.b.len() {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }
}

fn bad(what: &'static str) -> CodecError {
    CodecError::BadValue { what }
}

macro_rules! little_endian {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            const MIN: usize = std::mem::size_of::<$t>();

            #[inline(always)]
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            #[inline(always)]
            fn get(r: &mut Rd<'_>) -> Result<Self, CodecError> {
                Ok(Self::from_le_bytes(r.array()?))
            }
        }
    )*};
}

// `f64` as its raw IEEE-754 bits.
little_endian!(u8, u32, u64, f64);

/// Types that travel as another type's layout: `$to` converts on the
/// way out, `$from` converts — and checks — on the way back.
macro_rules! travels_as {
    ($($t:ty as $raw:ty: |$v:ident| $to:expr, |$w:ident| $from:expr;)*) => {$(
        impl Codec for $t {
            const MIN: usize = <$raw as Codec>::MIN;

            #[inline(always)]
            fn put(&self, out: &mut Vec<u8>) {
                let $v = *self;
                Codec::put(&$to, out);
            }

            #[inline(always)]
            fn get(r: &mut Rd<'_>) -> Result<Self, CodecError> {
                let $w = <$raw as Codec>::get(r)?;
                $from
            }
        }
    )*};
}

travels_as! {
    bool as u8: |v| u8::from(v), |raw| match raw {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(bad("bool flag")),
    };
    usize as u64: |v| v as u64, |raw| raw.try_into().map_err(|_| bad("index width"));
    SimTime as f64: |v| v.as_secs(), |secs| if secs.is_finite() && secs >= 0.0 {
        Ok(SimTime::from_secs(secs))
    } else {
        Err(bad("sim time"))
    };
    NodeId as usize: |v| v.index(), |raw| NodeId::checked(raw).ok_or(bad("node id"));
    DocId as u64: |v| v.value(), |raw| Ok(DocId::new(raw));
    RequestId as u64: |v| v.value(), |raw| Ok(RequestId::new(raw));
}

impl Codec for String {
    const MIN: usize = 4;

    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn get(r: &mut Rd<'_>) -> Result<Self, CodecError> {
        let n = u32::get(r)? as usize;
        String::from_utf8(r.bytes(n)?.to_vec()).map_err(|_| bad("utf-8 string"))
    }
}

impl<T: Codec> Codec for Option<T> {
    #[inline(always)]
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }

    #[inline(always)]
    fn get(r: &mut Rd<'_>) -> Result<Self, CodecError> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => T::get(r).map(Some),
            _ => Err(bad("option flag")),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    const MIN: usize = 4;

    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for v in self {
            v.put(out);
        }
    }

    fn get(r: &mut Rd<'_>) -> Result<Self, CodecError> {
        let n = r.len(T::MIN)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::get(r)?);
        }
        Ok(v)
    }
}

impl<T: Codec + Copy + Default, const N: usize> Codec for [T; N] {
    const MIN: usize = N * T::MIN;

    fn put(&self, out: &mut Vec<u8>) {
        for v in self {
            v.put(out);
        }
    }

    fn get(r: &mut Rd<'_>) -> Result<Self, CodecError> {
        let mut a = [T::default(); N];
        for v in &mut a {
            *v = T::get(r)?;
        }
        Ok(a)
    }
}

macro_rules! tuple {
    ($($t:ident . $i:tt),*) => {
        impl<$($t: Codec),*> Codec for ($($t,)*) {
            const MIN: usize = 0 $(+ $t::MIN)*;

            fn put(&self, out: &mut Vec<u8>) {
                $(self.$i.put(out);)*
            }

            fn get(r: &mut Rd<'_>) -> Result<Self, CodecError> {
                Ok(($($t::get(r)?,)*))
            }
        }
    };
}

tuple!(A.0, B.1);
tuple!(A.0, B.1, C.2);
tuple!(A.0, B.1, C.2, D.3);

/// A `layout!` struct field's decode: its own [`Codec`], or the checked
/// reader the layout names for it.
macro_rules! read_field {
    ($r:ident) => {
        Codec::get($r)?
    };
    ($r:ident, $read:ident) => {
        $read($r)?
    };
}

/// A tag no `layout!` arm names: an error, or the tag of the enum the
/// `_ =>` arm hands it to.
macro_rules! other_tag {
    ($tag:ident, $r:ident) => {
        return Err(CodecError::BadTag { tag: $tag })
    };
    ($tag:ident, $r:ident, $other:ident) => {
        Self::$other(Tagged::variant($tag, $r)?)
    };
}

/// The one place a type's wire layout is stated. A struct lists its
/// fields in wire order (`field: reader` for one whose decode a checked
/// reader does); `also View` encodes a twin struct whose fields of the
/// same names borrow what the owned type holds. An enum maps each tag
/// byte to a variant and that variant's fields in wire order (`tag as
/// NAME` also declares the tag as a constant); an `_ => Variant(inner)`
/// arm hands every other tag to the inner enum, whose own tag it is.
macro_rules! layout {
    (struct $ty:ident { $($f:ident $(: $read:ident)?),* $(,)? }) => {
        impl Codec for $ty {
            #[inline(always)]
            fn put(&self, out: &mut Vec<u8>) {
                $(Codec::put(&self.$f, out);)*
            }

            #[inline(always)]
            fn get(r: &mut Rd<'_>) -> Result<Self, CodecError> {
                Ok(Self { $($f: read_field!(r $(, $read)?),)* })
            }
        }
    };
    (struct $ty:ident also $view:ident { $($f:ident $(: $read:ident)?),* $(,)? }) => {
        layout!(struct $ty { $($f $(: $read)?),* });

        impl $view<'_> {
            /// Encodes the borrowed fields in the owned type's layout.
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$f.put(out);)*
            }
        }
    };
    (enum $ty:ident {
        $($tag:literal $(as $name:ident)? => $var:ident $({ $($f:ident),* })? $(($x:ident))?,)*
        $(_ => $other:ident($y:ident),)?
    }) => {
        $($(const $name: u8 = $tag;)?)*

        impl Codec for $ty {
            #[inline(always)]
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $(Self::$var $({ $($f),* })? $(($x))? => {
                        out.push($tag);
                        $($(Codec::put($f, out);)*)?
                        $(Codec::put($x, out);)?
                    })*
                    $(Self::$other($y) => Codec::put($y, out),)?
                }
            }

            #[inline(always)]
            fn get(r: &mut Rd<'_>) -> Result<Self, CodecError> {
                let tag = u8::get(r)?;
                Self::variant(tag, r)
            }
        }

        impl Tagged for $ty {
            #[inline(always)]
            fn variant(tag: u8, r: &mut Rd<'_>) -> Result<Self, CodecError> {
                Ok(match tag {
                    $($tag => {
                        $($(let $f = Codec::get(r)?;)*)?
                        $(let $x = Codec::get(r)?;)?
                        Self::$var $({ $($f),* })? $(($x))?
                    })*
                    tag => other_tag!(tag, r $(, $other)?),
                })
            }
        }
    };
}

// Data plane in the low tags, control plane from 16. `Wire`'s tags are
// `Msg`'s: a data-plane frame is the `Wire` itself. The two frames the
// coordinator encodes from borrowed parts name their tags (`as`).
layout!(enum Msg {
    4 => DataHello { from_shard },
    16 => Hello { data_addr },
    17 as ASSIGN => Assign(assign),
    18 => Surplus,
    19 => Ready,
    20 => RunEpoch { t_end, sample },
    21 => EpochDone { partial },
    22 as APPLY => Apply(op),
    23 => Applied { err },
    24 => ReportRequest { now },
    25 => Report(report),
    26 => Shutdown,
    27 => Fatal { msg },
    28 => BatchBegin,
    29 => BatchCommit,
    _ => Wire(wire),
});
layout!(enum Wire {
    1 => Event { at, counter, ev },
    2 => Promise { until },
    3 => EpochEnd,
});
// `Arrival` never crosses a wire (it targets its own node); it has a
// tag so that every event has a layout.
layout!(enum PacketEvent {
    0 => Arrival { node, stream },
    1 => Packet { node, from, request, index },
    2 => GossipDeliver { to, from, load },
    3 => CopyInstall { node, index, rate },
    4 => TunnelProbe { node, origin, index, rate, hops },
    5 => TunnelGrant { node, target, index, rate },
});
layout!(enum BarrierOp {
    0 => FailLink { node },
    1 => HealLink { node },
    2 => Invalidate { doc },
    3 => AddLeaf { parent, rate },
    4 => RemoveLeaf { node },
    5 => PublishDoc { doc, origin, rate },
    6 => SetMix { mix },
});
layout!(struct DocRequest { id, origin, hops });
layout!(struct Assign also AssignRef {
    shard_id, shard_hint, partition_digest, stall_ms,
    parents: node_parents,
    mix,
    config: checked_config,
    peers,
});
layout!(struct WorkerReport {
    rates, ledger, counters, processed, parks, peak_parked, data_msgs, data_bytes,
    pdes: pdes_slab,
});
layout!(struct PacketSimConfig {
    seed, link_delay, gossip_period, diffusion_period, measure_window, alpha, tunneling,
    barrier_patience, gossip_loss, hysteresis, noise_sigmas,
});

/// An assignment's configuration decodes only if the world it builds
/// would accept it ([`PacketSimConfig::check`]): a value out of range
/// fails the decode, naming the field, instead of panicking the worker.
fn checked_config(r: &mut Rd<'_>) -> Result<PacketSimConfig, CodecError> {
    let config = PacketSimConfig::get(r)?;
    config.check().map_err(bad)?;
    Ok(config)
}

/// A parent vector decodes only if every parent names a node id
/// ([`NodeId::checked`]), as every other node field of a frame does.
fn node_parents(r: &mut Rd<'_>) -> Result<Vec<Option<usize>>, CodecError> {
    let parents = Vec::<Option<usize>>::get(r)?;
    if parents
        .iter()
        .flatten()
        .any(|&p| NodeId::checked(p).is_none())
    {
        return Err(bad("node id"));
    }
    Ok(parents)
}

/// A demand mix travels as its node count and its `(node, doc, rate)`
/// triples in canonical node-major order — the layout of
/// `(usize, Vec<(usize, u64, f64)>)`, streamed from and into the rows
/// without that vector — and decodes only into a mix [`DocMix::set`]
/// accepts.
impl Codec for DocMix {
    fn put(&self, out: &mut Vec<u8>) {
        let rows = || (0..self.len()).map(|j| self.demands_of(NodeId::new(j)));
        let demands: usize = rows().map(DemandRow::len).sum();
        self.len().put(out);
        (demands as u32).put(out);
        out.reserve(demands * <(usize, u64, f64)>::MIN);
        for (j, row) in rows().enumerate() {
            for (doc, rate) in row.iter() {
                (j, doc.value(), rate).put(out);
            }
        }
    }

    fn get(r: &mut Rd<'_>) -> Result<Self, CodecError> {
        // One row is allocated per node before any demand is read; a
        // tree the protocol could assign has far fewer nodes (its
        // `Assign` frame spends 9 bytes on every parent pointer).
        let nodes = usize::get(r)?;
        if nodes > MAX_FRAME / 8 {
            return Err(bad("mix nodes"));
        }
        let mut mix = DocMix::new(nodes);
        // The list's bytes are taken whole before any triple is
        // checked, as the vector's decode took them: a truncated list
        // is `Truncated` whatever it holds.
        const TRIPLE: usize = <(usize, u64, f64)>::MIN;
        let demands = r.len(TRIPLE)?;
        let mut triples = Rd {
            b: r.bytes(demands * TRIPLE)?,
            i: 0,
        };
        for _ in 0..demands {
            let (node, doc, rate) = <(usize, u64, f64)>::get(&mut triples)?;
            if node >= nodes || !rate.is_finite() || rate < 0.0 {
                return Err(bad("mix demand"));
            }
            mix.set(NodeId::new(node), DocId::new(doc), rate);
        }
        Ok(mix)
    }
}

/// A worker's counter slab: one value per [`PDES_KEYS`] entry, the
/// count checked before any value is read.
fn pdes_slab(r: &mut Rd<'_>) -> Result<Vec<u64>, CodecError> {
    if r.len(8)? != PDES_KEYS.len() {
        return Err(bad("pdes counter slab"));
    }
    (0..PDES_KEYS.len()).map(|_| u64::get(r)).collect()
}

/// Appends `msg` to `out` as one length-prefixed frame.
///
/// # Panics
///
/// Panics if the encoded body exceeds [`MAX_FRAME`] — only reachable by
/// constructing a pathological message (a multi-gigabyte string field),
/// never by the protocol's own traffic.
pub fn encode_msg(msg: &Msg, out: &mut Vec<u8>) {
    frame(out, |out| msg.put(out));
}

/// Appends `Msg::Apply(op)` to `out` as [`encode_msg`] frames it,
/// without cloning `op` into a message.
pub(crate) fn encode_apply(op: &BarrierOp, out: &mut Vec<u8>) {
    frame(out, |out| {
        out.push(APPLY);
        op.put(out);
    });
}

/// Appends the body `body` writes to `out` behind its length prefix.
fn frame(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    0u32.put(out);
    body(out);
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
    let mut r = Rd { b: body, i: 0 };
    let msg = Msg::get(&mut r)?;
    if r.i == body.len() {
        Ok(msg)
    } else {
        Err(CodecError::Truncated)
    }
}

/// The buffer capacity a [`FrameBuffer`] keeps between frames: a larger
/// frame's reservation is given back once the frame is consumed.
const KEEP: usize = 64 * 1024;

/// Incremental frame reassembly over an arbitrary chunking of the byte
/// stream: [`feed`](FrameBuffer::feed) whatever the socket produced,
/// then drain complete messages with [`next_msg`](FrameBuffer::next_msg).
/// A frame larger than 64 KiB is reserved once, at its announced
/// length, and its memory returned once it is consumed.
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
        if self.start > 0 && (self.start >= self.buf.len() || self.start > KEEP) {
            self.compact();
        }
        self.buf.extend_from_slice(bytes);
    }

    fn compact(&mut self) {
        self.buf.drain(..self.start);
        self.start = 0;
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
    // Inline: a data wire's `try_recv` calls it on every pass of the
    // shard loop, most of them finding nothing; the large-frame paths
    // are cold calls so this stays small enough to inline.
    #[inline]
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
            if 4 + len > KEEP {
                self.reserve(4 + len);
            }
            return Ok(None);
        }
        let msg = decode_msg(&avail[4..4 + len])?;
        self.start += 4 + len;
        if 4 + len > KEEP {
            self.release();
        }
        Ok(Some(msg))
    }

    /// Room for the rest of a large frame of `whole` bytes, reserved
    /// once rather than grown chunk by chunk.
    #[cold]
    fn reserve(&mut self, whole: usize) {
        self.compact();
        self.buf.reserve_exact(whole - self.buf.len());
    }

    /// Gives a consumed large frame's room back; a stream of small
    /// frames keeps its buffer.
    #[cold]
    fn release(&mut self) {
        self.compact();
        self.buf.shrink_to(KEEP);
    }

    /// The bytes the buffer holds room for.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_of(msg: &Msg) -> Vec<u8> {
        let mut out = Vec::new();
        encode_msg(msg, &mut out);
        out
    }

    fn mix() -> DocMix {
        let mut mix = DocMix::new(3);
        mix.set(NodeId::new(1), DocId::new(70), 2.0);
        mix.set(NodeId::new(2), DocId::new(0), 0.0);
        mix
    }

    #[test]
    fn borrowed_frames_are_the_owned_messages_frames() {
        let (parents, mix) = (vec![None, Some(0), Some(0)], mix());
        let peers = vec![(0, "a:1".to_string()), (1, "b:2".to_string())];
        let config = PacketSimConfig::default();
        let mut frame = AssignFrame::new(&AssignRef {
            shard_id: 0,
            shard_hint: 2,
            partition_digest: 9,
            stall_ms: Some(5),
            parents: &parents,
            mix: &mix,
            config,
            peers: &peers,
        });
        for shard_id in [1, 0, 300] {
            let owned = Msg::Assign(Assign {
                shard_id,
                shard_hint: 2,
                partition_digest: 9,
                stall_ms: Some(5),
                parents: parents.clone(),
                mix: mix.clone(),
                config,
                peers: peers.clone(),
            });
            assert_eq!(
                frame.for_shard(shard_id),
                frame_of(&owned),
                "shard {shard_id}"
            );
        }
        let ops = [
            BarrierOp::SetMix { mix: mix.clone() },
            BarrierOp::FailLink {
                node: NodeId::new(2),
            },
        ];
        for op in ops {
            let mut out = vec![0xAA];
            encode_apply(&op, &mut out);
            assert_eq!(out[1..], frame_of(&Msg::Apply(op.clone())), "{op:?}");
        }
    }

    #[test]
    fn an_oversize_length_is_refused_before_anything_is_reserved() {
        let mut frames = FrameBuffer::new();
        frames.feed(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert_eq!(
            frames.next_msg(),
            Err(CodecError::Oversize {
                len: MAX_FRAME as u64 + 1
            })
        );
        assert!(frames.capacity() < 64, "{} bytes held", frames.capacity());
    }

    #[test]
    fn a_frame_fed_one_byte_at_a_time_reassembles() {
        // A frame past `KEEP` between two small ones: the large one is
        // reserved once, at its announced length, and given back.
        let msgs = [
            Msg::Ready,
            Msg::Fatal {
                msg: "x".repeat(3 * KEEP),
            },
            Msg::Apply(BarrierOp::SetMix { mix: mix() }),
        ];
        let stream: Vec<u8> = msgs.iter().flat_map(frame_of).collect();
        let mut frames = FrameBuffer::new();
        let mut got = Vec::new();
        let mut reservations = Vec::new();
        for &byte in &stream {
            frames.feed(&[byte]);
            while let Some(msg) = frames.next_msg().unwrap() {
                got.push(msg);
            }
            if got.len() == 1 && frames.pending() >= 4 {
                reservations.push(frames.capacity());
            }
        }
        assert_eq!(got, msgs);
        reservations.dedup();
        assert_eq!(reservations, [4 + 1 + 4 + 3 * KEEP], "one reservation");
        assert!(
            frames.capacity() <= KEEP,
            "{} bytes held",
            frames.capacity()
        );
    }
}
