//! ww-dist — the PDES wire protocol over TCP sockets: packet-level
//! WebWave runs distributed across OS processes.
//!
//! The conservative engine in [`ww_pdes`] already speaks a minimal wire
//! protocol ([`Wire`](ww_pdes::Wire): events, lookahead promises, epoch
//! barriers) through the [`WireSender`](ww_pdes::WireSender) /
//! [`WireReceiver`](ww_pdes::WireReceiver) pair. This crate carries
//! that protocol over real sockets:
//!
//! - [`codec`] — a length-prefixed little-endian binary framing for
//!   every message (data plane and control plane). Floats travel as raw
//!   IEEE-754 bits, so nothing is lost to text formatting and runs stay
//!   bit-identical across the wire.
//! - [`link`] — data-plane endpoints: one nonblocking TCP connection
//!   per adjacent shard pair, driven by the shard's own thread (a
//!   window's messages leave in one `write`), with peer death turned
//!   into typed [`LinkError`](ww_pdes::LinkError)s.
//! - [`coordinator`] / [`worker`] — the control plane:
//!   [`DistPacketSim`] drives `W` workers (spawned processes, threads,
//!   or externally launched peers) through the handshake, the epoch
//!   schedule, barrier mutations, and the final report.
//!
//! Determinism is the point: the distributed run produces **the same
//! trace, the same counters, and the same processed-event count** as
//! the sequential `PacketSim` and the in-process parallel engine —
//! bit for bit, at any worker count. TCP gives per-connection FIFO,
//! the engine's merge keys are content-derived, and the convergence
//! trace folds through an order-independent exact accumulator; golden
//! tests pin the equality at 1, 2, and 4 workers.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod codec;
pub mod coordinator;
pub mod error;
pub mod framed;
pub mod link;
pub mod spawn;
pub mod worker;

pub use codec::{
    decode_msg, encode_msg, Assign, CodecError, FrameBuffer, Msg, WorkerReport, MAX_FRAME,
};
pub use coordinator::{DistOptions, DistPacketSim, DIST_TELEMETRY};
pub use error::DistError;
pub use framed::FramedStream;
pub use link::{split_wires, SocketReceiver, SocketSender};
pub use spawn::{find_worker_bin, DistMode};
pub use worker::run_worker;
