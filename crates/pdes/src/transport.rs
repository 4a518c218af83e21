//! The wire protocol between shards and the transports that carry it.
//!
//! A conservative PDES shard talks to each adjacent shard over one
//! **directed wire** per cut edge. Everything that crosses a wire is a
//! [`Wire`] message: a timestamped protocol event, a null-message
//! promise, or the epoch-end handshake. The event loop in
//! [`crate::engine`] is generic over *how* those messages travel — it
//! only sees the [`WireSender`] / [`WireReceiver`] traits — so the same
//! loop runs over lock-free in-process rings or (via the `ww-dist`
//! crate) framed TCP sockets between OS processes.
//!
//! The determinism contract a transport must honor is exactly one
//! property: **per-wire FIFO**. Messages staged on one wire arrive in
//! the order they were staged. Every ordering decision the engine makes
//! is derived from message *content* (`(time, sending shard, per-wire
//! counter)`), never from arrival timing, so any FIFO transport — ring
//! or TCP stream — produces bit-identical simulations.
//!
//! In-process transports are infallible; socket transports surface peer
//! death and stalls as [`LinkError`]s, which the event loop propagates
//! instead of hanging. No transport owns a thread: a wire end is driven
//! entirely by the shard that holds it.

use std::fmt;
use std::time::Duration;
use ww_core::packet::PacketEvent;
use ww_sim::SimTime;

/// Slots per in-process SPSC ring. Windows larger than this spill to
/// the wire's overflow queue — a capacity, not a correctness bound.
pub(crate) const RING_CAPACITY: usize = 4096;

/// Messages on a cross-shard wire.
///
/// Public so out-of-process transports (the `ww-dist` codec) can
/// serialize them; the engine's own use stays internal.
#[derive(Debug, Clone, PartialEq)]
pub enum Wire {
    /// A protocol event for a node of the receiving shard.
    Event {
        /// Timestamp the event executes at.
        at: SimTime,
        /// Per-wire message counter (monotone; part of the content-derived
        /// merge key, so ordering never depends on arrival timing).
        counter: u64,
        /// The protocol event itself.
        ev: PacketEvent,
    },
    /// Null message: no event with timestamp `< until` will follow.
    Promise {
        /// The promised lower bound on all future timestamps.
        until: SimTime,
    },
    /// The sender finished the current epoch (implies a promise of
    /// `epoch end + lookahead`). Always the epoch's last message.
    EpochEnd,
}

/// A wire failed in a way the protocol cannot recover from: the peer is
/// gone or nothing is moving. In-process transports never produce these;
/// socket transports turn peer death and silence into them so a
/// distributed run errors out instead of hanging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// The other end of the wire is gone — socket closed, peer process
    /// died, or channel disconnected.
    Closed {
        /// Human-readable description of what closed and why.
        detail: String,
    },
    /// No inbound message and no local progress within the configured
    /// stall timeout — the conservative loop would otherwise spin (or
    /// sleep) forever waiting for a promise that will never come.
    Stalled {
        /// How long the loop waited without any progress.
        waited: Duration,
    },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::Closed { detail } => write!(f, "wire closed: {detail}"),
            LinkError::Stalled { waited } => {
                write!(f, "wire stalled: no progress for {:?}", waited)
            }
        }
    }
}

impl std::error::Error for LinkError {}

/// Why a [`WireSender::stage`] call did not accept the message.
#[derive(Debug)]
pub enum StageError {
    /// The transport's bounded buffer is full; the message is handed
    /// back so the caller can park it (back-pressure, not failure).
    Full(Wire),
    /// The wire is dead. Terminal.
    Link(LinkError),
}

/// Producer half of one directed wire.
///
/// `stage` makes a message *pending*; `commit` publishes what is
/// pending to the consumer with whatever batching the transport
/// supports: the SPSC ring publishes a window's worth with one release
/// store, the `ww-dist` socket endpoint encodes into a user-space
/// buffer in `stage` and hands it to the nonblocking socket in
/// `commit`. A `commit` may fall short (a socket that takes only part
/// of the buffer); the remainder is the sender's [`backlog`], and the
/// engine — which commits on every pass of its epoch loop — does not
/// leave an epoch while any is left. Staged messages must reach the
/// consumer in stage order (per-wire FIFO).
///
/// [`backlog`]: WireSender::backlog
pub trait WireSender: Send + fmt::Debug {
    /// Stages a message. [`StageError::Full`] hands it back on
    /// back-pressure; [`StageError::Link`] means the wire is dead.
    fn stage(&mut self, msg: Wire) -> Result<(), StageError>;

    /// Publishes what is staged, as far as the transport takes it now.
    fn commit(&mut self) -> Result<(), LinkError>;

    /// Bytes accepted by `stage` that `commit` has not yet been able to
    /// publish. Always 0 (the default) for a transport whose `commit`
    /// publishes everything.
    fn backlog(&self) -> usize {
        0
    }

    /// `(messages, bytes)` this sender has put on an out-of-process
    /// wire, for data-plane telemetry; `(0, 0)` (the default) in
    /// process.
    fn traffic(&self) -> (u64, u64) {
        (0, 0)
    }

    /// A cheap, conservative estimate of how many messages currently sit
    /// in the transport's bounded buffer, for ring-occupancy high-water
    /// telemetry. `None` (the default) when the transport is unbounded
    /// or cannot tell without synchronizing.
    fn occupancy_hint(&self) -> Option<usize> {
        None
    }
}

/// Consumer half of one directed wire.
pub trait WireReceiver: Send + fmt::Debug {
    /// Takes the next message if one is available. `Ok(None)` means the
    /// wire is momentarily dry; `Err` means it is dead.
    fn try_recv(&mut self) -> Result<Option<Wire>, LinkError>;
}

impl WireSender for spsc::Producer<Wire> {
    fn stage(&mut self, msg: Wire) -> Result<(), StageError> {
        spsc::Producer::stage(self, msg).map_err(|spsc::Full(m)| StageError::Full(m))
    }

    fn commit(&mut self) -> Result<(), LinkError> {
        spsc::Producer::commit(self);
        Ok(())
    }

    fn occupancy_hint(&self) -> Option<usize> {
        Some(spsc::Producer::occupancy_hint(self))
    }
}

impl WireReceiver for spsc::Consumer<Wire> {
    fn try_recv(&mut self) -> Result<Option<Wire>, LinkError> {
        Ok(self.pop())
    }
}

/// Opens one in-process directed wire: a bounded lock-free SPSC ring
/// (the engine keeps an unbounded overflow queue behind it). The
/// `ww-dist` crate supplies socket-backed endpoints per cut edge
/// directly — each end of a cut lives in a different process.
pub(crate) fn open_ring() -> (Box<dyn WireSender>, Box<dyn WireReceiver>) {
    let (p, c) = spsc::ring(RING_CAPACITY);
    (Box::new(p), Box::new(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn promise(at: f64) -> Wire {
        Wire::Promise {
            until: SimTime::from_secs(at),
        }
    }

    #[test]
    fn ring_endpoints_preserve_fifo_and_batching() {
        let (mut tx, mut rx) = open_ring();
        tx.stage(promise(1.0)).unwrap();
        tx.stage(promise(2.0)).unwrap();
        // Staged but uncommitted: invisible.
        assert_eq!(rx.try_recv().unwrap(), None);
        tx.commit().unwrap();
        assert_eq!(rx.try_recv().unwrap(), Some(promise(1.0)));
        assert_eq!(rx.try_recv().unwrap(), Some(promise(2.0)));
        assert_eq!(rx.try_recv().unwrap(), None);
    }

    #[test]
    fn ring_full_hands_message_back() {
        let (mut tx, _rx) = open_ring();
        for _ in 0..RING_CAPACITY {
            tx.stage(Wire::EpochEnd).unwrap();
        }
        match tx.stage(promise(9.0)) {
            Err(StageError::Full(m)) => assert_eq!(m, promise(9.0)),
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn a_ring_slot_is_six_words() {
        // `docs/parallel.md` quotes the slot: a 32-byte event, its time
        // and its per-wire counter; `Promise` and `EpochEnd` fit in the
        // event's tag niche.
        assert_eq!(std::mem::size_of::<Wire>(), 48);
    }
}
