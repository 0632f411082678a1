//! Visualization-side server.
//!
//! "This led to the design decision to implement VISIT as a simple
//! client-server application where the visualization acts as a server that
//! dispatches the simulation's requests — unlike many other steering
//! toolkits that work the opposite way" (§3.2). [`VisServer`] holds the
//! latest data per tag (for the visualization to render) and a queue of
//! steering parameters per tag (for the simulation to pick up on its next
//! request).

use crate::auth::Password;
use crate::link::{FrameLink, LinkError};
use crate::value::{Endianness, VisitValue};
use crate::wire::{Frame, MsgKind};
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

/// What one dispatch step did.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeOutcome {
    /// A data sample for `tag` arrived (and is now in `latest`).
    Data(u32),
    /// The simulation asked for `tag`; `true` if a queued parameter was
    /// delivered, `false` if NoData was sent.
    Answered(u32, bool),
    /// The client said goodbye.
    Bye,
    /// Nothing arrived within the poll timeout.
    Idle,
}

/// Per-server counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerStats {
    /// Data frames received.
    pub data_frames: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Requests answered with data.
    pub params_delivered: u64,
    /// Requests answered NoData.
    pub empty_replies: u64,
}

/// The visualization's end of a VISIT connection.
pub struct VisServer<L: FrameLink> {
    link: L,
    /// Most recent sample per tag.
    latest: HashMap<u32, VisitValue>,
    /// Steering parameters waiting for the simulation, per tag.
    pending: HashMap<u32, VecDeque<VisitValue>>,
    stats: ServerStats,
}

impl<L: FrameLink> VisServer<L> {
    /// Accept one client: await Hello, verify the token, reply Ack/Reject.
    pub fn accept(
        mut link: L,
        password: &Password,
        challenge: u64,
        timeout: Duration,
    ) -> Result<Self, LinkError> {
        let raw = link.recv_timeout(timeout)?;
        let frame = Frame::decode(&raw).ok_or(LinkError::Io("bad hello".into()))?;
        let ok = frame.kind == MsgKind::Hello
            && matches!(&frame.value, Some(VisitValue::Bytes(token)) if password.verify(token, challenge));
        if !ok {
            let _ = link.send(&Frame::bare(MsgKind::HelloReject, 0).encode());
            return Err(LinkError::Io("auth rejected".into()));
        }
        link.send(&Frame::bare(MsgKind::HelloAck, 0).encode())?;
        Ok(VisServer {
            link,
            latest: HashMap::new(),
            pending: HashMap::new(),
            stats: ServerStats::default(),
        })
    }

    /// Dispatch at most one incoming frame, waiting up to `poll`.
    pub fn serve_once(&mut self, poll: Duration) -> Result<ServeOutcome, LinkError> {
        let raw = match self.link.recv_timeout(poll) {
            Ok(r) => r,
            Err(LinkError::Timeout) => return Ok(ServeOutcome::Idle),
            Err(e) => return Err(e),
        };
        let frame = Frame::decode(&raw).ok_or(LinkError::Io("bad frame".into()))?;
        match frame.kind {
            MsgKind::Data => {
                let tag = frame.tag;
                if let Some(v) = frame.value {
                    self.stats.data_frames += 1;
                    self.stats.bytes_received += v.byte_len() as u64;
                    self.latest.insert(tag, v);
                }
                Ok(ServeOutcome::Data(tag))
            }
            MsgKind::Request => {
                let tag = frame.tag;
                let queued = self.pending.get_mut(&tag).and_then(|q| q.pop_front());
                let delivered = queued.is_some();
                let reply = match queued {
                    Some(v) => {
                        self.stats.params_delivered += 1;
                        Frame::with_value(MsgKind::Reply, tag, Endianness::native(), v)
                    }
                    None => {
                        self.stats.empty_replies += 1;
                        Frame::bare(MsgKind::NoData, tag)
                    }
                };
                self.link.send(&reply.encode())?;
                Ok(ServeOutcome::Answered(tag, delivered))
            }
            MsgKind::Bye => Ok(ServeOutcome::Bye),
            _ => Ok(ServeOutcome::Idle),
        }
    }

    /// Dispatch frames until `Bye`, link failure, or `max_idle` consecutive
    /// idle polls. Returns the number of frames handled.
    pub fn serve_until_idle(&mut self, poll: Duration, max_idle: usize) -> usize {
        let mut handled = 0;
        let mut idle = 0;
        loop {
            match self.serve_once(poll) {
                Ok(ServeOutcome::Idle) => {
                    idle += 1;
                    if idle >= max_idle {
                        return handled;
                    }
                }
                Ok(ServeOutcome::Bye) | Err(_) => return handled,
                Ok(_) => {
                    handled += 1;
                    idle = 0;
                }
            }
        }
    }

    /// The latest sample the simulation shipped for `tag`.
    pub fn latest(&self, tag: u32) -> Option<&VisitValue> {
        self.latest.get(&tag)
    }

    /// Queue a steering parameter for the simulation's next request on
    /// `tag` — this is "the user alters the miscibility" (§2.2) / "beam or
    /// laser parameters can be altered interactively" (§3.4).
    pub fn queue_param(&mut self, tag: u32, value: VisitValue) {
        self.pending.entry(tag).or_default().push_back(value);
    }

    /// Counters so far.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Access the underlying link.
    pub fn link_mut(&mut self) -> &mut L {
        &mut self.link
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::SteeringClient;
    use crate::link::MemLink;
    use std::thread;

    const TAG_FIELD: u32 = 1;
    const TAG_MISC: u32 = 2;

    fn pair() -> (SteeringClient<MemLink>, VisServer<MemLink>) {
        let (cl, sl) = MemLink::pair();
        let pw = Password::Open;
        let server =
            thread::spawn(move || VisServer::accept(sl, &pw, 0, Duration::from_secs(1)).unwrap());
        let client =
            SteeringClient::connect(cl, &Password::Open, 0, Duration::from_secs(1)).unwrap();
        (client, server.join().unwrap())
    }

    #[test]
    fn data_sample_reaches_server() {
        let (mut c, mut s) = pair();
        c.send(TAG_FIELD, VisitValue::F32(vec![0.5; 64])).unwrap();
        let out = s.serve_once(Duration::from_millis(100)).unwrap();
        assert_eq!(out, ServeOutcome::Data(TAG_FIELD));
        assert_eq!(s.latest(TAG_FIELD), Some(&VisitValue::F32(vec![0.5; 64])));
        assert_eq!(s.stats().data_frames, 1);
    }

    #[test]
    fn steering_roundtrip_delivers_queued_param() {
        let (mut c, mut s) = pair();
        s.queue_param(TAG_MISC, VisitValue::F64(vec![0.08]));
        let server = thread::spawn(move || {
            let mut s = s;
            let out = s.serve_once(Duration::from_secs(1)).unwrap();
            assert_eq!(out, ServeOutcome::Answered(TAG_MISC, true));
            s
        });
        let got = c.request(TAG_MISC).unwrap();
        assert_eq!(got, Some(VisitValue::F64(vec![0.08])));
        let s = server.join().unwrap();
        assert_eq!(s.stats().params_delivered, 1);
        assert!(s.pending[&TAG_MISC].is_empty());
    }

    #[test]
    fn request_with_nothing_queued_gets_none() {
        let (mut c, s) = pair();
        let server = thread::spawn(move || {
            let mut s = s;
            let out = s.serve_once(Duration::from_secs(1)).unwrap();
            assert_eq!(out, ServeOutcome::Answered(TAG_MISC, false));
            s
        });
        assert_eq!(c.request(TAG_MISC).unwrap(), None);
        let s = server.join().unwrap();
        assert_eq!(s.stats().empty_replies, 1);
    }

    #[test]
    fn params_delivered_fifo() {
        let (mut c, mut s) = pair();
        s.queue_param(TAG_MISC, VisitValue::F64(vec![0.1]));
        s.queue_param(TAG_MISC, VisitValue::F64(vec![0.2]));
        let server = thread::spawn(move || {
            let mut s = s;
            for _ in 0..2 {
                s.serve_once(Duration::from_secs(1)).unwrap();
            }
        });
        assert_eq!(
            c.request(TAG_MISC).unwrap(),
            Some(VisitValue::F64(vec![0.1]))
        );
        assert_eq!(
            c.request(TAG_MISC).unwrap(),
            Some(VisitValue::F64(vec![0.2]))
        );
        server.join().unwrap();
    }

    #[test]
    fn serve_until_idle_processes_burst() {
        let (mut c, mut s) = pair();
        for i in 0..5 {
            c.send(i, VisitValue::I32(vec![i as i32])).unwrap();
        }
        let handled = s.serve_until_idle(Duration::from_millis(20), 2);
        assert_eq!(handled, 5);
        for i in 0..5 {
            assert!(s.latest(i).is_some());
        }
    }

    #[test]
    fn bye_terminates_serving() {
        let (mut c, mut s) = pair();
        c.close();
        let out = s.serve_once(Duration::from_millis(100)).unwrap();
        assert_eq!(out, ServeOutcome::Bye);
    }
}
