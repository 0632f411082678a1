//! Simulation-side steering client.
//!
//! "To keep VISIT portable to 'classic supercomputers' … the simulation
//! side of VISIT in particular does not rely on any external software or
//! special environment and has a lean and easy-to-use interface" (§3.2).
//! The C API this mirrors is essentially `visit_connect`, `visit_send`,
//! `visit_recv`, `visit_disconnect`; every call takes a timeout and is
//! guaranteed to return by it.

use crate::auth::Password;
use crate::link::{FrameLink, LinkError};
use crate::value::{Endianness, VisitValue};
use crate::wire::{Frame, MsgKind};
use std::time::{Duration, Instant};

/// Why a connection attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnectError {
    /// Transport-level failure.
    Link(LinkError),
    /// The server refused the password.
    Rejected,
    /// The server answered with something that is not a handshake reply.
    Protocol,
}

/// Aggregate counters: everything EV1 (the "minimal load on the steered
/// simulation" experiment) needs to quantify steering overhead.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClientStats {
    /// Data frames sent.
    pub sends: u64,
    /// Parameter requests issued.
    pub requests: u64,
    /// Requests that returned new data.
    pub replies: u64,
    /// Operations that ended in a timeout.
    pub timeouts: u64,
    /// Payload bytes shipped.
    pub bytes_sent: u64,
    /// Wall-clock time spent inside VISIT calls.
    pub time_in_calls: Duration,
}

/// The simulation's handle on its visualization/steering server.
pub struct SteeringClient<L: FrameLink> {
    link: L,
    /// Default operation timeout ("user-specified", §3.2).
    pub timeout: Duration,
    order: Endianness,
    stats: ClientStats,
    open: bool,
}

impl<L: FrameLink> SteeringClient<L> {
    /// Open a connection: send Hello with the auth token, await Ack.
    /// Completes or fails within `timeout`.
    pub fn connect(
        mut link: L,
        password: &Password,
        challenge: u64,
        timeout: Duration,
    ) -> Result<Self, ConnectError> {
        let order = Endianness::native();
        let hello = Frame::with_value(
            MsgKind::Hello,
            0,
            order,
            VisitValue::Bytes(password.client_token(challenge)),
        );
        link.send(&hello.encode()).map_err(ConnectError::Link)?;
        let reply = link.recv_timeout(timeout).map_err(ConnectError::Link)?;
        match Frame::decode(&reply).map(|f| f.kind) {
            Some(MsgKind::HelloAck) => Ok(SteeringClient {
                link,
                timeout,
                order,
                stats: ClientStats::default(),
                open: true,
            }),
            Some(MsgKind::HelloReject) => Err(ConnectError::Rejected),
            _ => Err(ConnectError::Protocol),
        }
    }

    /// Ship a tagged data sample to the visualization. Non-blocking enqueue:
    /// the simulation never waits for the visualization to consume data
    /// (the §3.2 design goal).
    pub fn send(&mut self, tag: u32, value: VisitValue) -> Result<(), LinkError> {
        // detlint::allow(R1, "time_in_calls is a real-io overhead stat (the paper's table 1), not digest input")
        let t0 = Instant::now();
        let frame = Frame::with_value(MsgKind::Data, tag, self.order, value);
        let bytes = frame.encode();
        let r = self.link.send(&bytes);
        self.stats.time_in_calls += t0.elapsed();
        match &r {
            Ok(()) => {
                self.stats.sends += 1;
                self.stats.bytes_sent += bytes.len() as u64;
            }
            Err(_) => self.stats.timeouts += 1,
        }
        r
    }

    /// Ask the server whether new data (e.g. a changed steering parameter)
    /// is pending for `tag`. Returns `Ok(None)` if the server has nothing,
    /// `Err(Timeout)` if the server did not answer in time — either way the
    /// call returns by the deadline and the simulation continues.
    pub fn request(&mut self, tag: u32) -> Result<Option<VisitValue>, LinkError> {
        // detlint::allow(R1, "time_in_calls is a real-io overhead stat (the paper's table 1), not digest input")
        let t0 = Instant::now();
        self.stats.requests += 1;
        let r = (|| {
            self.link
                .send(&Frame::bare(MsgKind::Request, tag).encode())?;
            // detlint::allow(R1, "socket deadline: the timeout guarantee of section 3.2 is real-time by definition")
            let deadline = Instant::now() + self.timeout;
            loop {
                // detlint::allow(R1, "remaining real time against the socket deadline above")
                let remaining = deadline.saturating_duration_since(Instant::now());
                let raw = self.link.recv_timeout(remaining)?;
                let frame = Frame::decode(&raw).ok_or(LinkError::Io("bad frame".into()))?;
                match frame.kind {
                    MsgKind::Reply if frame.tag == tag => return Ok(frame.value),
                    MsgKind::NoData if frame.tag == tag => return Ok(None),
                    MsgKind::Bye => return Err(LinkError::Closed),
                    // stale replies for other tags are dropped
                    _ => continue,
                }
            }
        })();
        self.stats.time_in_calls += t0.elapsed();
        match &r {
            Ok(Some(_)) => self.stats.replies += 1,
            Ok(None) => {}
            Err(_) => self.stats.timeouts += 1,
        }
        r
    }

    /// Orderly shutdown (best-effort Bye).
    pub fn close(&mut self) {
        if self.open {
            let _ = self.link.send(&Frame::bare(MsgKind::Bye, 0).encode());
            self.open = false;
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }
}

impl<L: FrameLink> Drop for SteeringClient<L> {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::MemLink;
    use crate::server::VisServer;
    use std::thread;

    fn connect_pair(
        pw_server: Password,
        pw_client: Password,
    ) -> (
        Result<SteeringClient<MemLink>, ConnectError>,
        Option<VisServer<MemLink>>,
    ) {
        let (cl, sl) = MemLink::pair();
        let server = thread::spawn(move || {
            VisServer::accept(sl, &pw_server, 1, Duration::from_secs(1)).ok()
        });
        let client = SteeringClient::connect(cl, &pw_client, 1, Duration::from_secs(1));
        (client, server.join().unwrap())
    }

    #[test]
    fn handshake_succeeds_with_matching_password() {
        let (c, s) = connect_pair(
            Password::ClearText("lbm".into()),
            Password::ClearText("lbm".into()),
        );
        assert!(c.is_ok());
        assert!(s.is_some());
    }

    #[test]
    fn handshake_rejected_with_wrong_password() {
        let (c, s) = connect_pair(
            Password::ClearText("right".into()),
            Password::ClearText("wrong".into()),
        );
        assert_eq!(c.err(), Some(ConnectError::Rejected));
        assert!(s.is_none());
    }

    #[test]
    fn keyed_handshake_works() {
        let (c, _s) = connect_pair(Password::Keyed("k".into()), Password::Keyed("k".into()));
        assert!(c.is_ok());
    }

    #[test]
    fn connect_times_out_against_dead_server() {
        let (cl, _sl) = MemLink::pair(); // nobody serving
        let t0 = Instant::now();
        let r = SteeringClient::connect(cl, &Password::Open, 0, Duration::from_millis(50));
        assert_eq!(r.err(), Some(ConnectError::Link(LinkError::Timeout)));
        assert!(t0.elapsed() < Duration::from_millis(500));
    }

    #[test]
    fn request_times_out_against_stalled_server_but_returns() {
        // server accepts then goes silent — the paper's "slow visualization"
        let (cl, mut sl) = MemLink::pair();
        let server = thread::spawn(move || {
            // manual accept: read hello, ack, then stall
            let _ = sl.recv_timeout(Duration::from_secs(1)).unwrap();
            sl.send(&Frame::bare(MsgKind::HelloAck, 0).encode())
                .unwrap();
            thread::sleep(Duration::from_millis(300));
            drop(sl);
        });
        let mut c =
            SteeringClient::connect(cl, &Password::Open, 0, Duration::from_millis(40)).unwrap();
        let t0 = Instant::now();
        let r = c.request(1);
        assert_eq!(r, Err(LinkError::Timeout));
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "timeout guarantee violated"
        );
        assert_eq!(c.stats().timeouts, 1);
        server.join().unwrap();
    }

    #[test]
    fn stats_count_sends() {
        let (c, s) = connect_pair(Password::Open, Password::Open);
        let mut c = c.unwrap();
        let _s = s.unwrap();
        c.send(7, VisitValue::F64(vec![1.0, 2.0])).unwrap();
        c.send(7, VisitValue::F64(vec![3.0])).unwrap();
        let st = c.stats();
        assert_eq!(st.sends, 2);
        assert!(st.bytes_sent > 24);
    }
}
