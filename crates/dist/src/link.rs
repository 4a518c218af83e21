//! Socket-backed wire endpoints: [`WireSender`]/[`WireReceiver`] over a
//! nonblocking TCP stream, owned and driven by the shard's own thread.
//!
//! One TCP connection carries **both** directed wires of an adjacent
//! shard pair (TCP is full duplex). Neither end owns a thread or a
//! queue: [`SocketSender::stage`] encodes the frame into a user-space
//! buffer, [`commit`](WireSender::commit) writes what the socket takes
//! and keeps the rest for the next `commit` — the epoch loop commits on
//! every pass, its idle branch and its epoch-end wait included, so a
//! short write is retried without anyone waiting on it — and
//! [`SocketReceiver::try_recv`] decodes from its [`FrameBuffer`],
//! refilling it with one nonblocking `read` when it runs dry. A
//! lookahead window's worth of messages costs one `write`, mirroring
//! the SPSC ring's batched publication; a worker runs on exactly one
//! thread, so on a two-core host nothing preempts two workers that both
//! have work.
//!
//! `stage` never blocks and never reports back-pressure — a peer that
//! is not reading only makes the user-space buffer grow — so the
//! engine's deadlock-freedom argument (sends never block) is unchanged.
//! TCP preserves byte order and the framing preserves message
//! boundaries, so the per-wire FIFO contract of [`ww_pdes::transport`]
//! is literally TCP's, which is all the engine needs for bit-identical
//! runs (every merge decision is content-derived, never
//! timing-derived).
//!
//! Peer death is detected, never waited out: a write error, or an EOF,
//! read error or corrupt frame *after* every buffered frame has been
//! delivered, latches a human-readable detail, and every subsequent
//! call on that endpoint returns [`LinkError::Closed`]. Silence (a peer
//! that is alive but wedged) is the shard's own stall timeout's job.
//! Dropping a sender flushes what it still can, for a bounded time, and
//! half-closes, so the peer sees a FIN rather than a hang.

use crate::codec::{encode_msg, FrameBuffer, Msg};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};
use ww_pdes::{LinkError, StageError, Wire, WireReceiver, WireSender};

/// Pending bytes past which [`SocketSender::stage`] writes early
/// instead of waiting for the window's `commit`.
const EARLY_FLUSH: usize = 32 * 1024;

/// Bytes asked of the socket per refill of a dry receiver.
const READ_CHUNK: usize = 64 * 1024;

/// How long a dropped sender keeps trying to hand its last bytes to a
/// peer that is not reading.
const DROP_FLUSH: Duration = Duration::from_millis(500);

/// The sending half of one directed socket wire.
#[derive(Debug)]
pub struct SocketSender {
    stream: TcpStream,
    peer: String,
    /// Encoded frames; `buf[written..]` has not reached the socket yet.
    buf: Vec<u8>,
    written: usize,
    /// What every call returns once the wire is dead.
    dead: Option<LinkError>,
    /// Messages staged and bytes handed to the socket (observability).
    msgs: u64,
    bytes: u64,
}

impl SocketSender {
    /// Writes as much of the pending bytes as the socket takes now.
    fn write_pending(&mut self) -> Result<(), LinkError> {
        if let Some(error) = &self.dead {
            return Err(error.clone());
        }
        while self.written < self.buf.len() {
            match self.stream.write(&self.buf[self.written..]) {
                Ok(0) => return Err(self.die("wrote zero bytes".to_string())),
                Ok(n) => {
                    self.written += n;
                    self.bytes += n as u64;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(self.die(e.to_string())),
            }
        }
        if self.written == self.buf.len() {
            self.buf.clear();
            self.written = 0;
        } else if self.written >= self.buf.len() - self.written {
            // Compact once the written prefix outweighs the backlog:
            // each byte moves at most once per byte written.
            self.buf.drain(..self.written);
            self.written = 0;
        }
        Ok(())
    }

    fn die(&mut self, why: String) -> LinkError {
        let detail = format!("write to shard {} failed: {why}", self.peer);
        self.dead.insert(LinkError::Closed { detail }).clone()
    }
}

impl WireSender for SocketSender {
    fn stage(&mut self, msg: Wire) -> Result<(), StageError> {
        if let Some(error) = &self.dead {
            return Err(StageError::Link(error.clone()));
        }
        encode_msg(&Msg::Wire(msg), &mut self.buf);
        self.msgs += 1;
        if self.buf.len() - self.written >= EARLY_FLUSH {
            self.write_pending().map_err(StageError::Link)?;
        }
        Ok(())
    }

    fn commit(&mut self) -> Result<(), LinkError> {
        self.write_pending()
    }

    fn backlog(&self) -> usize {
        self.buf.len() - self.written
    }

    fn traffic(&self) -> (u64, u64) {
        (self.msgs, self.bytes)
    }
}

impl Drop for SocketSender {
    fn drop(&mut self) {
        // The run is over on our side. Hand over what the peer will
        // still take, then half-close so it sees EOF, not silence.
        let deadline = Instant::now() + DROP_FLUSH;
        while self.write_pending().is_ok() && self.backlog() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
        }
        let _ = self.stream.shutdown(Shutdown::Write);
    }
}

/// The receiving half of one directed socket wire.
#[derive(Debug)]
pub struct SocketReceiver {
    stream: TcpStream,
    peer: String,
    frames: FrameBuffer,
    chunk: Box<[u8]>,
    /// The peer's FIN has been read; what `frames` still holds is all
    /// there will ever be.
    eof: bool,
    /// What every call returns once the wire is dead.
    dead: Option<LinkError>,
}

impl SocketReceiver {
    fn die(&mut self, detail: String) -> LinkError {
        self.dead.insert(LinkError::Closed { detail }).clone()
    }
}

impl WireReceiver for SocketReceiver {
    fn try_recv(&mut self) -> Result<Option<Wire>, LinkError> {
        if let Some(error) = &self.dead {
            return Err(error.clone());
        }
        loop {
            // Buffered frames drain before a refill — and before death
            // surfaces, so nothing the peer managed to send is lost.
            match self.frames.next_msg() {
                Ok(Some(Msg::Wire(w))) => return Ok(Some(w)),
                Ok(Some(other)) => {
                    let detail = format!(
                        "shard {} sent a control message on a data wire: {other:?}",
                        self.peer
                    );
                    return Err(self.die(detail));
                }
                Ok(None) => {}
                Err(e) => {
                    let detail = format!("frame from shard {} corrupt: {e}", self.peer);
                    return Err(self.die(detail));
                }
            }
            if self.eof {
                let detail = format!("shard {} closed the connection", self.peer);
                return Err(self.die(detail));
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => self.frames.feed(&self.chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    let detail = format!("read from shard {} failed: {e}", self.peer);
                    return Err(self.die(detail));
                }
            }
        }
    }
}

/// Splits one established shard-to-shard connection into its two wire
/// endpoints: our outbound sender and our inbound receiver (the peer
/// holds the mirror pair on its end). The socket is switched to
/// nonblocking mode — a property of the open file description, so both
/// halves share it.
///
/// # Errors
///
/// An I/O error from configuring or cloning the stream.
pub fn split_wires(
    stream: TcpStream,
    peer: &str,
) -> std::io::Result<(SocketSender, SocketReceiver)> {
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    let write_half = stream.try_clone()?;
    Ok((
        SocketSender {
            stream: write_half,
            peer: peer.to_string(),
            buf: Vec::with_capacity(2 * EARLY_FLUSH),
            written: 0,
            dead: None,
            msgs: 0,
            bytes: 0,
        },
        SocketReceiver {
            stream,
            peer: peer.to_string(),
            frames: FrameBuffer::new(),
            chunk: vec![0u8; READ_CHUNK].into_boxed_slice(),
            eof: false,
            dead: None,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use ww_sim::SimTime;

    fn promise(at: f64) -> Wire {
        Wire::Promise {
            until: SimTime::from_secs(at),
        }
    }

    /// A loopback pair of connected streams.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn wires_preserve_fifo_across_the_socket() {
        let (a, b) = pair();
        let (mut tx, _rx_a) = split_wires(a, "1").unwrap();
        let (_tx_b, mut rx) = split_wires(b, "0").unwrap();
        for i in 0..100 {
            tx.stage(promise(i as f64)).unwrap();
        }
        tx.commit().unwrap();
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while got.len() < 100 {
            match rx.try_recv().unwrap() {
                Some(w) => got.push(w),
                None => {
                    assert!(std::time::Instant::now() < deadline, "timed out");
                    std::thread::yield_now();
                }
            }
        }
        for (i, w) in got.iter().enumerate() {
            assert_eq!(*w, promise(i as f64));
        }
    }

    #[test]
    fn peer_death_is_a_typed_error_not_a_hang() {
        let (a, b) = pair();
        let (mut tx, mut rx) = split_wires(a, "1").unwrap();
        drop(b); // Peer dies without a word.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            match rx.try_recv() {
                Err(LinkError::Closed { detail }) => {
                    assert!(detail.contains("shard 1"), "detail: {detail}");
                    break;
                }
                Ok(None) => {
                    assert!(std::time::Instant::now() < deadline, "no typed error");
                    std::thread::yield_now();
                }
                other => panic!("expected Closed, got {other:?}"),
            }
        }
        // The writer learns of the death on its next write attempt (or
        // the one after, while the kernel buffers drain); staging keeps
        // succeeding until then, which is fine — those messages are
        // addressed to a peer that no longer observes anything.
        let mut saw_error = false;
        for i in 0..10_000 {
            match tx.stage(promise(i as f64)) {
                Err(StageError::Link(LinkError::Closed { .. })) => {
                    saw_error = true;
                    break;
                }
                Err(other) => panic!("expected Closed, got {other:?}"),
                Ok(()) => std::thread::sleep(std::time::Duration::from_micros(100)),
            }
        }
        assert!(saw_error, "writer never noticed the dead peer");
    }

    fn gossip(i: u64) -> Wire {
        Wire::Event {
            at: SimTime::from_secs(i as f64 * 1e-3),
            counter: i,
            ev: ww_core::packet::PacketEvent::GossipDeliver {
                to: ww_model::NodeId::new((i % 1000) as usize),
                from: ww_model::NodeId::new((i % 997) as usize),
                load: i as f64,
            },
        }
    }

    fn frame(msg: Wire) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_msg(&Msg::Wire(msg), &mut bytes);
        bytes
    }

    #[test]
    fn back_pressure_grows_the_backlog_and_loses_nothing() {
        let (a, b) = pair();
        let (mut tx, _rx_a) = split_wires(a, "1").unwrap();
        let (_tx_b, mut rx) = split_wires(b, "0").unwrap();
        // Well past what the kernel buffers of a loopback connection
        // hold, with the peer not reading: every `stage` returns (the
        // socket is nonblocking, so it cannot wait), and what the
        // kernel refused is still ours.
        let frame_len = frame(gossip(0)).len() as u64;
        let total = (8u64 << 20).div_ceil(frame_len);
        for i in 0..total {
            tx.stage(gossip(i)).unwrap();
        }
        tx.commit().unwrap();
        assert!(tx.backlog() > 0, "the kernel took all 8 MiB");
        assert_eq!(tx.traffic().0, total);
        assert_eq!(tx.traffic().1 + tx.backlog() as u64, total * frame_len);

        // Drain: the sender only ever gets `commit` calls, as from the
        // epoch loop.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let mut next = 0u64;
        while next < total {
            tx.commit().unwrap();
            while let Some(w) = rx.try_recv().unwrap() {
                assert_eq!(w, gossip(next), "message {next} out of order");
                next += 1;
            }
            assert!(std::time::Instant::now() < deadline, "timed out at {next}");
        }
        assert_eq!(tx.backlog(), 0);
        assert_eq!(tx.traffic().1, total * frame_len);
        assert_eq!(rx.try_recv().unwrap(), None);
    }

    #[test]
    fn frames_buffered_before_eof_all_arrive_before_closed() {
        let (a, b) = pair();
        let (mut tx, rx_a) = split_wires(a, "1").unwrap();
        let (_tx_b, mut rx) = split_wires(b, "0").unwrap();
        for i in 0..500 {
            tx.stage(gossip(i)).unwrap();
        }
        // Never committed: dropping the sender flushes, then sends FIN.
        drop(tx);
        drop(rx_a);
        // Wait until the FIN itself has been read, with frames still
        // undelivered in the buffer behind it.
        assert_eq!(rx.try_recv().unwrap(), Some(gossip(0)));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut chunk = [0u8; 4096];
        while !rx.eof {
            match rx.stream.read(&mut chunk) {
                Ok(0) => rx.eof = true,
                Ok(n) => rx.frames.feed(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) => panic!("read failed: {e}"),
            }
            assert!(std::time::Instant::now() < deadline, "no FIN");
        }
        assert!(
            rx.frames.pending() > 0,
            "frames are buffered behind the EOF"
        );
        for i in 1..500 {
            assert_eq!(rx.try_recv().unwrap(), Some(gossip(i)), "message {i}");
        }
        for _ in 0..2 {
            match rx.try_recv() {
                Err(LinkError::Closed { detail }) => {
                    assert_eq!(detail, "shard 0 closed the connection");
                }
                other => panic!("expected Closed, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_frame_split_at_any_byte_offset_reassembles() {
        let msgs = [promise(1.5), gossip(7), Wire::EpochEnd];
        let frames: Vec<Vec<u8>> = msgs.iter().cloned().map(frame).collect();
        let bytes = frames.concat();
        for split in 1..bytes.len() {
            let (mut raw, b) = pair();
            raw.set_nodelay(true).unwrap();
            let (_tx, mut rx) = split_wires(b, "0").unwrap();
            // Whole frames and the partial one's prefix inside the
            // first `split` bytes.
            let mut whole = 0;
            let mut partial = split;
            while whole < frames.len() && partial >= frames[whole].len() {
                partial -= frames[whole].len();
                whole += 1;
            }
            raw.write_all(&bytes[..split]).unwrap();
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            let mut got = Vec::new();
            // The first part is in when its whole frames are delivered
            // and its tail sits in the reassembly buffer.
            while got.len() < whole || rx.frames.pending() < partial {
                if let Some(w) = rx.try_recv().unwrap() {
                    got.push(w);
                }
                assert!(std::time::Instant::now() < deadline, "split {split}");
            }
            assert_eq!(rx.try_recv().unwrap(), None, "split {split}: half a frame");
            raw.write_all(&bytes[split..]).unwrap();
            while got.len() < msgs.len() {
                if let Some(w) = rx.try_recv().unwrap() {
                    got.push(w);
                }
                assert!(std::time::Instant::now() < deadline, "split {split}");
            }
            assert_eq!(got, msgs, "split {split}");
        }
    }

    #[test]
    fn a_control_message_or_a_corrupt_frame_on_a_data_wire_is_typed() {
        let mut hello = Vec::new();
        encode_msg(&Msg::DataHello { from_shard: 3 }, &mut hello);
        let oversize = ((crate::codec::MAX_FRAME + 1) as u32)
            .to_le_bytes()
            .to_vec();
        for (bytes, expect) in [
            (hello, "shard 0 sent a control message on a data wire"),
            (oversize, "frame from shard 0 corrupt"),
        ] {
            let (mut raw, b) = pair();
            let (_tx, mut rx) = split_wires(b, "0").unwrap();
            raw.write_all(&frame(promise(1.0))).unwrap();
            raw.write_all(&bytes).unwrap();
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            let mut delivered = 0;
            loop {
                match rx.try_recv() {
                    Ok(Some(w)) => {
                        assert_eq!(w, promise(1.0));
                        delivered += 1;
                    }
                    Ok(None) => {
                        assert!(std::time::Instant::now() < deadline, "no typed error");
                        std::thread::yield_now();
                    }
                    Err(LinkError::Closed { detail }) => {
                        assert!(detail.starts_with(expect), "detail: {detail}");
                        break;
                    }
                    Err(other) => panic!("expected Closed, got {other:?}"),
                }
            }
            assert_eq!(delivered, 1, "the frame ahead of the bad one arrives");
        }
    }
}
