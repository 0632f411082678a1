//! Frame transports.
//!
//! VISIT's timeout guarantee lives here: every receive takes an explicit
//! deadline and *will* return by then. Three implementations:
//!
//! * [`TcpLink`] — real TCP with 4-byte length-prefix framing and socket
//!   read timeouts; used by the multi-process examples and the TCP steering
//!   server.
//! * [`MemLink`] — crossbeam channels between threads; the threaded
//!   experiments and tests pair a simulation and a visualization over it.
//! * [`LoopLink`] — one queue a link sends into and receives from; the
//!   bus's in-process VISIT endpoints, whose frames make a hop that
//!   returns to the sender.

// detlint::allow(R3, "MemLink transport: per-link FIFO channels preserve message order; no compute parallelism")
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Transport failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// The deadline elapsed before a frame arrived.
    Timeout,
    /// The peer is gone.
    Closed,
    /// Underlying I/O error (TCP only).
    Io(String),
    /// A frame exceeded the sanity limit.
    TooLarge,
}

/// Upper bound on a single frame (64 MiB — a 256³ f32 field is 64 MiB, the
/// largest sample the paper-scale workloads emit).
pub const MAX_FRAME: usize = 64 << 20;

/// Most capacity an in-process hop's reusable buffer keeps between uses.
/// A steering envelope (a few hundred bytes), a scalar sample and a grid
/// of up to 32³ cells stay below it and are moved without allocating
/// once warm; a buffer a larger delivery grew past it is freed when
/// drained, as a one-off frame's would be, so an endpoint does not pin
/// the largest delivery it ever carried.
pub const RETAIN: usize = 256 << 10;

/// Empty `buf` for reuse, or free it if it grew past [`RETAIN`].
pub fn recycle(buf: &mut Vec<u8>) {
    if buf.capacity() > RETAIN {
        *buf = Vec::new();
    } else {
        buf.clear();
    }
}

/// A reliable, ordered frame pipe with deadline-bounded receives.
pub trait FrameLink: Send {
    /// Send one frame. Must not block indefinitely.
    fn send(&mut self, frame: &[u8]) -> Result<(), LinkError>;
    /// Receive one frame, waiting at most `timeout`.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, LinkError>;

    /// Receive one frame into `buf`, replacing what it held, waiting at
    /// most `timeout`. A link that holds its frames itself overrides this
    /// to copy into the caller's buffer instead of allocating one.
    fn recv_into(&mut self, timeout: Duration, buf: &mut Vec<u8>) -> Result<(), LinkError> {
        *buf = self.recv_timeout(timeout)?;
        Ok(())
    }
}

impl<T: FrameLink + ?Sized> FrameLink for Box<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), LinkError> {
        (**self).send(frame)
    }
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, LinkError> {
        (**self).recv_timeout(timeout)
    }
    fn recv_into(&mut self, timeout: Duration, buf: &mut Vec<u8>) -> Result<(), LinkError> {
        (**self).recv_into(timeout, buf)
    }
}

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

/// TCP transport with length-prefixed frames.
pub struct TcpLink {
    stream: TcpStream,
}

impl TcpLink {
    /// Wrap a connected stream. Disables Nagle — steering messages are
    /// small and latency-critical.
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(TcpLink { stream })
    }

    /// Connect to an address with a connect timeout.
    pub fn connect(addr: &str, timeout: Duration) -> Result<Self, LinkError> {
        let sockaddr = addr
            .parse()
            .map_err(|e| LinkError::Io(format!("bad addr {addr}: {e}")))?;
        let stream = TcpStream::connect_timeout(&sockaddr, timeout)
            .map_err(|e| LinkError::Io(e.to_string()))?;
        TcpLink::new(stream).map_err(|e| LinkError::Io(e.to_string()))
    }
}

impl FrameLink for TcpLink {
    fn send(&mut self, frame: &[u8]) -> Result<(), LinkError> {
        if frame.len() > MAX_FRAME {
            return Err(LinkError::TooLarge);
        }
        let len = (frame.len() as u32).to_le_bytes();
        self.stream
            .write_all(&len)
            .and_then(|_| self.stream.write_all(frame))
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::BrokenPipe | std::io::ErrorKind::ConnectionReset => {
                    LinkError::Closed
                }
                _ => LinkError::Io(e.to_string()),
            })
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, LinkError> {
        // Socket read timeout of 0 means "infinite" in the std API, so clamp.
        let t = if timeout.is_zero() {
            Duration::from_millis(1)
        } else {
            timeout
        };
        self.stream
            .set_read_timeout(Some(t))
            .map_err(|e| LinkError::Io(e.to_string()))?;
        let map_err = |e: std::io::Error| match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => LinkError::Timeout,
            std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::BrokenPipe => LinkError::Closed,
            _ => LinkError::Io(e.to_string()),
        };
        let mut len_buf = [0u8; 4];
        self.stream.read_exact(&mut len_buf).map_err(map_err)?;
        let len = u32::from_le_bytes(len_buf) as usize;
        if len > MAX_FRAME {
            return Err(LinkError::TooLarge);
        }
        let mut frame = vec![0u8; len];
        self.stream.read_exact(&mut frame).map_err(map_err)?;
        Ok(frame)
    }
}

// ---------------------------------------------------------------------------
// In-memory (crossbeam)
// ---------------------------------------------------------------------------

/// In-process transport over crossbeam channels.
pub struct MemLink {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

impl MemLink {
    /// A connected pair of links.
    pub fn pair() -> (MemLink, MemLink) {
        let (tx_a, rx_b) = bounded(1024);
        let (tx_b, rx_a) = bounded(1024);
        (
            MemLink { tx: tx_a, rx: rx_a },
            MemLink { tx: tx_b, rx: rx_b },
        )
    }
}

impl FrameLink for MemLink {
    fn send(&mut self, frame: &[u8]) -> Result<(), LinkError> {
        if frame.len() > MAX_FRAME {
            return Err(LinkError::TooLarge);
        }
        self.tx.send(frame.to_vec()).map_err(|_| LinkError::Closed)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, LinkError> {
        match self.rx.recv_timeout(timeout) {
            Ok(f) => Ok(f),
            Err(RecvTimeoutError::Timeout) => Err(LinkError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(LinkError::Closed),
        }
    }
}

// ---------------------------------------------------------------------------
// Looped (one queue)
// ---------------------------------------------------------------------------

/// A link that receives what it sends, in order: an in-process hop whose
/// bytes are read back exactly as a remote peer would see them. Frames
/// queue length-prefixed, as on a TCP stream, in one buffer that is
/// reused once drained. Only the link itself sends, so a receive never
/// waits: an empty queue is [`LinkError::Timeout`] at once.
#[derive(Debug, Default)]
pub struct LoopLink {
    queued: Vec<u8>,
    /// Offset of the next unread length prefix in `queued`.
    read: usize,
}

impl LoopLink {
    /// The oldest unread frame, consumed.
    fn next(&mut self) -> Option<&[u8]> {
        let at = self.read;
        let len = self.queued.get(at..at + 4)?;
        let len = u32::from_le_bytes(len.try_into().expect("four bytes")) as usize;
        self.read = at + 4 + len;
        Some(&self.queued[at + 4..self.read])
    }

    /// Start the buffer over once everything queued has been read.
    fn compact(&mut self) {
        if self.read == self.queued.len() {
            recycle(&mut self.queued);
            self.read = 0;
        }
    }
}

impl FrameLink for LoopLink {
    fn send(&mut self, frame: &[u8]) -> Result<(), LinkError> {
        if frame.len() > MAX_FRAME {
            return Err(LinkError::TooLarge);
        }
        self.queued
            .extend_from_slice(&(frame.len() as u32).to_le_bytes());
        self.queued.extend_from_slice(frame);
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, LinkError> {
        let mut buf = Vec::new();
        self.recv_into(timeout, &mut buf)?;
        Ok(buf)
    }

    fn recv_into(&mut self, _: Duration, buf: &mut Vec<u8>) -> Result<(), LinkError> {
        let frame = self.next().ok_or(LinkError::Timeout)?;
        buf.clear();
        buf.extend_from_slice(frame);
        self.compact();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    #[test]
    fn memlink_roundtrip() {
        let (mut a, mut b) = MemLink::pair();
        a.send(b"hello").unwrap();
        assert_eq!(b.recv_timeout(Duration::from_millis(10)).unwrap(), b"hello");
    }

    #[test]
    fn a_loop_link_reads_back_what_it_sent() {
        let mut hop = LoopLink::default();
        hop.send(b"one").unwrap();
        hop.send(b"").unwrap();
        assert_eq!(hop.recv_timeout(Duration::ZERO).unwrap(), b"one");
        hop.send(b"three").unwrap();
        let mut buf = b"stale".to_vec();
        hop.recv_into(Duration::ZERO, &mut buf).unwrap();
        assert_eq!(buf, b"");
        hop.recv_into(Duration::ZERO, &mut buf).unwrap();
        assert_eq!(buf, b"three");
        assert_eq!(hop.recv_timeout(Duration::ZERO), Err(LinkError::Timeout));
        // drained, the queue starts over in the buffer it already has —
        // unless a large frame grew it past what a hop keeps
        assert!(hop.queued.is_empty() && hop.queued.capacity() > 0);
        hop.send(&vec![7; RETAIN]).unwrap();
        assert_eq!(hop.recv_timeout(Duration::ZERO).unwrap().len(), RETAIN);
        assert_eq!(hop.queued.capacity(), 0);
        hop.send(&vec![0; MAX_FRAME + 1]).unwrap_err();
        assert_eq!(hop.recv_timeout(Duration::ZERO), Err(LinkError::Timeout));
    }

    #[test]
    fn memlink_timeout() {
        let (_a, mut b) = MemLink::pair();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(5)),
            Err(LinkError::Timeout)
        );
    }

    #[test]
    fn memlink_closed_detected() {
        let (a, mut b) = MemLink::pair();
        drop(a);
        assert_eq!(
            b.recv_timeout(Duration::from_millis(5)),
            Err(LinkError::Closed)
        );
    }

    #[test]
    fn memlink_rejects_oversize() {
        let (mut a, _b) = MemLink::pair();
        let huge = vec![0u8; MAX_FRAME + 1];
        assert_eq!(a.send(&huge), Err(LinkError::TooLarge));
    }

    #[test]
    fn tcplink_roundtrip_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let mut link = TcpLink::new(s).unwrap();
            let f = link.recv_timeout(Duration::from_secs(2)).unwrap();
            link.send(&f).unwrap(); // echo
        });
        let mut c = TcpLink::connect(&addr.to_string(), Duration::from_secs(2)).unwrap();
        c.send(b"steer:miscibility=0.07").unwrap();
        let echo = c.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(echo, b"steer:miscibility=0.07");
        server.join().unwrap();
    }

    #[test]
    fn tcplink_timeout_honoured() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _keep = thread::spawn(move || {
            let (_s, _) = listener.accept().unwrap();
            thread::sleep(Duration::from_millis(300));
        });
        let mut c = TcpLink::connect(&addr.to_string(), Duration::from_secs(2)).unwrap();
        let start = std::time::Instant::now();
        let r = c.recv_timeout(Duration::from_millis(50));
        assert_eq!(r, Err(LinkError::Timeout));
        assert!(start.elapsed() < Duration::from_millis(250));
    }
}
