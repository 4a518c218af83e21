//! Blocking framed message I/O over one TCP stream — the control-plane
//! counterpart of the nonblocking data-plane endpoints in
//! [`crate::link`].

use crate::codec::{encode_msg, FrameBuffer, Msg};
use crate::error::DistError;
use std::io::{Read, Write};
use std::net::TcpStream;

/// One TCP stream carrying length-prefixed [`Msg`] frames, read and
/// written synchronously.
#[derive(Debug)]
pub struct FramedStream {
    stream: TcpStream,
    frames: FrameBuffer,
    bytes_out: u64,
    bytes_in: u64,
}

impl FramedStream {
    /// Wraps a connected stream (enables `TCP_NODELAY` — control
    /// messages are small and latency-sensitive).
    ///
    /// # Errors
    ///
    /// An I/O error from configuring the socket.
    pub fn new(stream: TcpStream) -> Result<Self, DistError> {
        stream.set_nodelay(true)?;
        Ok(FramedStream {
            stream,
            frames: FrameBuffer::new(),
            bytes_out: 0,
            bytes_in: 0,
        })
    }

    /// A second handle onto the same connection (shares the socket, not
    /// the frame reassembly state) — lets a reader thread own the
    /// inbound half while the writer half stays with the caller.
    ///
    /// # Errors
    ///
    /// An I/O error from duplicating the socket handle.
    pub fn try_clone(&self) -> Result<Self, DistError> {
        Ok(FramedStream {
            stream: self.stream.try_clone()?,
            frames: FrameBuffer::new(),
            bytes_out: 0,
            bytes_in: 0,
        })
    }

    /// Writes one message as a frame and flushes it to the socket.
    ///
    /// # Errors
    ///
    /// An I/O error when the peer is gone.
    pub fn write_msg(&mut self, msg: &Msg) -> Result<(), DistError> {
        // A fresh buffer per message: a control connection sends a
        // handful of frames an epoch, and keeps none of them after.
        let mut frame = Vec::new();
        encode_msg(msg, &mut frame);
        self.write_frame(&frame)
    }

    /// Writes one already-encoded frame — the same bytes to every
    /// worker of a broadcast — and flushes it to the socket.
    ///
    /// # Errors
    ///
    /// An I/O error when the peer is gone.
    pub(crate) fn write_frame(&mut self, frame: &[u8]) -> Result<(), DistError> {
        self.stream.write_all(frame)?;
        self.bytes_out += frame.len() as u64;
        Ok(())
    }

    /// Total framed bytes this handle has written to the socket.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_out
    }

    /// Total bytes this handle has read from the socket (a clone counts
    /// only its own reads — see [`FramedStream::try_clone`]).
    pub fn bytes_received(&self) -> u64 {
        self.bytes_in
    }

    /// Bytes received past the last message returned by
    /// [`FramedStream::read_msg`] — nonzero means the peer pipelined
    /// more traffic behind it.
    pub fn pending(&self) -> usize {
        self.frames.pending()
    }

    /// Unwraps the underlying stream (discarding any reassembly state;
    /// check [`FramedStream::pending`] first when that matters).
    pub fn into_inner(self) -> TcpStream {
        self.stream
    }

    /// Blocks until one complete message arrives.
    ///
    /// # Errors
    ///
    /// [`DistError::Io`] on EOF (peer closed) or socket failure,
    /// [`DistError::Codec`] on a corrupt frame.
    pub fn read_msg(&mut self) -> Result<Msg, DistError> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(msg) = self.frames.next_msg()? {
                return Ok(msg);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(DistError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "peer closed the control connection",
                    )))
                }
                Ok(n) => {
                    self.bytes_in += n as u64;
                    self.frames.feed(&chunk[..n]);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(DistError::Io(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Each end's frame-buffer capacity: what it holds between messages.
    fn held(end: &FramedStream) -> usize {
        end.frames.capacity()
    }

    #[test]
    fn a_large_frame_leaves_no_large_buffer_behind() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        let (mut a, mut b) = (FramedStream::new(a).unwrap(), FramedStream::new(b).unwrap());
        let big = Msg::Fatal {
            msg: "w".repeat(4 << 20),
        };
        for _ in 0..2 {
            // A 4 MiB frame (too large for the socket's buffers, so the
            // writer runs beside the reader) with a small one behind it.
            let writer = std::thread::spawn({
                let big = big.clone();
                move || {
                    a.write_msg(&big).unwrap();
                    a.write_msg(&Msg::Ready).unwrap();
                    a
                }
            });
            assert_eq!(b.read_msg().unwrap(), big);
            assert_eq!(b.read_msg().unwrap(), Msg::Ready);
            a = writer.join().unwrap();
            for end in [&a, &b] {
                assert!(held(end) <= 64 * 1024, "{} bytes held", held(end));
            }
            // And back the other way.
            std::mem::swap(&mut a, &mut b);
        }
    }
}
