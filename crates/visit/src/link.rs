//! Frame transports.
//!
//! VISIT's timeout guarantee lives here: every receive takes an explicit
//! deadline and *will* return by then. Three implementations:
//!
//! * [`TcpLink`] — real TCP with 4-byte length-prefix framing and socket
//!   read timeouts; used by the multi-process examples and the TCP steering
//!   server.
//! * [`MemLink`] — crossbeam channels; used by threaded in-process tests.
//! * [`SimLink`] — a [`netsim`] virtual-time channel; timeouts are charged
//!   in *virtual* time, which makes the latency experiments deterministic
//!   and instant.

// detlint::allow(R3, "MemLink transport: per-link FIFO channels preserve message order; no compute parallelism")
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use netsim::channel::{RecvError as SimRecvError, SimEndpoint};
use netsim::{Link, SimChannel, SimTime, VClock};
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

/// A reliable, ordered frame pipe with deadline-bounded receives.
pub trait FrameLink: Send {
    /// Send one frame. Must not block indefinitely.
    fn send(&mut self, frame: &[u8]) -> Result<(), LinkError>;
    /// Receive one frame, waiting at most `timeout`.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, LinkError>;
}

impl<T: FrameLink + ?Sized> FrameLink for Box<T> {
    fn send(&mut self, frame: &[u8]) -> Result<(), LinkError> {
        (**self).send(frame)
    }
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, LinkError> {
        (**self).recv_timeout(timeout)
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
// Virtual-time (netsim)
// ---------------------------------------------------------------------------

/// Virtual-time transport: wall-clock `Duration` timeouts are interpreted
/// as *virtual-time budgets* on this link's [`VClock`]. `elapsed()` exposes
/// the accumulated virtual time — the quantity the latency experiments
/// report.
pub struct SimLink {
    ep: SimEndpoint,
    clock: VClock,
}

impl SimLink {
    /// A connected pair over a symmetric [`Link`].
    pub fn pair(link: Link) -> (SimLink, SimLink) {
        let (a, b) = SimChannel::sym(link);
        (
            SimLink {
                ep: a,
                clock: VClock::new(),
            },
            SimLink {
                ep: b,
                clock: VClock::new(),
            },
        )
    }

    /// Local virtual time elapsed.
    pub fn elapsed(&self) -> SimTime {
        self.clock.now()
    }

    /// Charge local (compute) virtual time — e.g. a simulation step.
    pub fn advance(&mut self, d: SimTime) {
        self.clock.advance(d);
    }

    fn dur_to_sim(d: Duration) -> SimTime {
        SimTime::from_nanos(d.as_nanos().min(u64::MAX as u128) as u64)
    }
}

impl FrameLink for SimLink {
    fn send(&mut self, frame: &[u8]) -> Result<(), LinkError> {
        if frame.len() > MAX_FRAME {
            return Err(LinkError::TooLarge);
        }
        if self.ep.is_closed() {
            return Err(LinkError::Closed);
        }
        self.ep.send(&mut self.clock, frame);
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, LinkError> {
        let deadline = self.clock.now() + Self::dur_to_sim(timeout);
        match self.ep.recv_deadline(&mut self.clock, deadline) {
            Ok(f) => Ok(f),
            Err(SimRecvError::Timeout) => Err(LinkError::Timeout),
            Err(SimRecvError::Closed) => Err(LinkError::Closed),
        }
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

    #[test]
    fn simlink_charges_virtual_latency() {
        let link = Link::builder()
            .latency_ms(20)
            .bandwidth_bps(u64::MAX)
            .build();
        let (mut a, mut b) = SimLink::pair(link);
        a.send(b"x").unwrap();
        let f = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(f, b"x");
        assert_eq!(b.elapsed(), SimTime::from_millis(20));
        // no wall-clock time was spent waiting
    }

    #[test]
    fn simlink_timeout_in_virtual_time() {
        let link = Link::builder().latency_ms(100).build();
        let (mut a, mut b) = SimLink::pair(link);
        a.send(b"slow").unwrap();
        let r = b.recv_timeout(Duration::from_millis(50));
        assert_eq!(r, Err(LinkError::Timeout));
        assert_eq!(b.elapsed(), SimTime::from_millis(50));
        // retry with a larger budget succeeds
        let f = b.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(f, b"slow");
    }

    #[test]
    fn simlink_advance_models_compute() {
        let (mut a, _b) = SimLink::pair(Link::loopback());
        a.advance(SimTime::from_millis(7));
        assert_eq!(a.elapsed(), SimTime::from_millis(7));
    }
}
