//! The collaborative multiplexer (`vbroker`).
//!
//! §3.3: "the former task can easily be implemented by a 'multiplexer' that
//! simply sends all VISIT send-requests to all participating
//! visualizations, ensuring that everyone views the same data.
//! Receive-requests are only sent to a 'master' visualization, so that only
//! that master is able to actively steer the application. The master-role
//! can be moved between the \[participants\] allowing for a coordinated
//! cooperative steering. This functionality has been implemented in an
//! application (the vbroker) that is part of the standard VISIT
//! distribution."
//!
//! [`VBroker`] sits between one simulation-side link and N
//! visualization-side links. It is transport-generic, so the same broker
//! runs over [`MemLink`](crate::link::MemLink) threads, real TCP, or
//! virtual-time links (experiment EV2 uses the latter to measure fan-out
//! cost vs. participant count).

use crate::link::{FrameLink, LinkError};
use crate::wire::{Frame, MsgKind};
use std::collections::BTreeMap;
use std::time::Duration;

/// Identifies an attached visualization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ViewerId(pub u32);

/// The master role of §3.3, written once for the vbroker, the UNICORE
/// proxy-server and the core session: who holds the steering token.
/// The derived `Default` (no holder) is why the id types derive `Default`.
#[derive(Default)]
pub struct MasterToken<Id: Copy + Ord>(Option<Id>);

impl<Id: Copy + Ord> MasterToken<Id> {
    /// The participant holding the token, if anyone does.
    pub fn holder(&self) -> Option<Id> {
        self.0
    }

    /// `id` arrived: the first arrival takes the token.
    pub fn arrive(&mut self, id: Id) {
        self.0.get_or_insert(id);
    }

    /// `id` departed. If it held the token, the lowest `remaining` id (the
    /// longest-present one) takes it; returns that heir.
    pub fn depart(&mut self, id: Id, remaining: impl IntoIterator<Item = Id>) -> Option<Id> {
        if self.0 != Some(id) {
            return None;
        }
        self.0 = remaining.into_iter().min();
        self.0
    }

    /// Only the holder may pass the token, and only to another
    /// participant that is `present`.
    pub fn pass(&mut self, from: Id, to: Id, present: bool) -> bool {
        let moved = self.0 == Some(from) && to != from && present;
        if moved {
            self.0 = Some(to);
        }
        moved
    }
}

/// Broker counters (per-direction byte accounting for EV2).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BrokerStats {
    /// Frames received from the simulation.
    pub sim_frames: u64,
    /// Total frames fanned out to viewers (sim_frames × live viewers).
    pub fanout_frames: u64,
    /// Bytes received from the simulation.
    pub bytes_in: u64,
    /// Bytes sent to viewers (the fan-out amplification).
    pub bytes_out: u64,
    /// Requests forwarded to the master.
    pub requests_forwarded: u64,
}

/// The multiplexer between one simulation and N visualizations.
pub struct VBroker<S: FrameLink, V: FrameLink> {
    sim: S,
    viewers: BTreeMap<ViewerId, V>,
    token: MasterToken<ViewerId>,
    next_id: u32,
    stats: BrokerStats,
}

impl<S: FrameLink, V: FrameLink> VBroker<S, V> {
    /// Wrap an (already authenticated) simulation link.
    pub fn new(sim: S) -> Self {
        VBroker {
            sim,
            viewers: BTreeMap::new(),
            token: MasterToken::default(),
            next_id: 0,
            stats: BrokerStats::default(),
        }
    }

    /// Attach a visualization. The first attached viewer becomes master —
    /// every later viewer joins as a passive observer.
    pub fn attach(&mut self, link: V) -> ViewerId {
        let id = ViewerId(self.next_id);
        self.next_id += 1;
        self.viewers.insert(id, link);
        self.token.arrive(id);
        id
    }

    /// Detach a visualization. If it was master, mastership passes to the
    /// lowest remaining id (so the session stays steerable).
    pub fn detach(&mut self, id: ViewerId) {
        self.viewers.remove(&id);
        self.token.depart(id, self.viewers.keys().copied());
    }

    /// Current master.
    pub fn master(&self) -> Option<ViewerId> {
        self.token.holder()
    }

    /// Move the master role from `from` to `to` ([`MasterToken::pass`]).
    pub fn pass_master(&mut self, from: ViewerId, to: ViewerId) -> bool {
        let present = self.viewers.contains_key(&to);
        self.token.pass(from, to, present)
    }

    /// Attached viewer count.
    pub fn viewer_count(&self) -> usize {
        self.viewers.len()
    }

    /// Counters so far.
    pub fn stats(&self) -> BrokerStats {
        self.stats
    }

    /// Process one frame from the simulation, waiting up to `poll`.
    ///
    /// * `Data` frames are broadcast to **all** viewers.
    /// * `Request` frames go to the **master only**; its reply (or NoData)
    ///   is relayed back to the simulation. If the master fails to answer
    ///   within `master_timeout`, the broker answers NoData itself — the
    ///   simulation's timeout guarantee must survive a dead master.
    /// * `Bye` is broadcast and `Ok(false)` is returned.
    ///
    /// Returns `Ok(true)` while the session is live.
    pub fn pump(&mut self, poll: Duration, master_timeout: Duration) -> Result<bool, LinkError> {
        let raw = match self.sim.recv_timeout(poll) {
            Ok(r) => r,
            Err(LinkError::Timeout) => return Ok(true),
            Err(e) => return Err(e),
        };
        let frame = Frame::decode(&raw).ok_or(LinkError::Io("bad frame".into()))?;
        self.stats.sim_frames += 1;
        self.stats.bytes_in += raw.len() as u64;
        match frame.kind {
            MsgKind::Hello => {
                // The broker is the simulation's session endpoint: accept
                // the connection itself (per-user authentication happens at
                // viewer attach time in the UNICORE integration, §3.3).
                self.sim.send(&Frame::bare(MsgKind::HelloAck, 0).encode())?;
                Ok(true)
            }
            MsgKind::Data => {
                // broadcast in viewer-id order (BTreeMap); dead viewers are
                // detached on send failure
                let mut dead = Vec::new();
                for (&id, link) in self.viewers.iter_mut() {
                    match link.send(&raw) {
                        Ok(()) => {
                            self.stats.fanout_frames += 1;
                            self.stats.bytes_out += raw.len() as u64;
                        }
                        Err(_) => dead.push(id),
                    }
                }
                for id in dead {
                    self.detach(id);
                }
                Ok(true)
            }
            MsgKind::Request => {
                self.stats.requests_forwarded += 1;
                let tag = frame.tag;
                let answer = self.ask_master(&raw, master_timeout);
                let reply = answer.unwrap_or_else(|| Frame::bare(MsgKind::NoData, tag).encode());
                self.sim.send(&reply)?;
                self.stats.bytes_out += reply.len() as u64;
                Ok(true)
            }
            MsgKind::Bye => {
                for link in self.viewers.values_mut() {
                    let _ = link.send(&raw);
                }
                Ok(false)
            }
            _ => Ok(true),
        }
    }

    /// Forward a request to the master and collect its answer.
    fn ask_master(&mut self, raw: &[u8], timeout: Duration) -> Option<Vec<u8>> {
        let master = self.token.holder()?;
        let link = self.viewers.get_mut(&master)?;
        if link.send(raw).is_err() {
            self.detach(master);
            return None;
        }
        self.viewers.get_mut(&master)?.recv_timeout(timeout).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::MemLink;
    use crate::value::{Endianness, VisitValue};
    use std::thread;

    const TAG: u32 = 5;

    /// Build a broker with one simulation link and `n` viewer links,
    /// returning (sim-side link, broker, viewer-side links).
    fn rig(n: usize) -> (MemLink, VBroker<MemLink, MemLink>, Vec<(ViewerId, MemLink)>) {
        let (sim_side, broker_sim) = MemLink::pair();
        let mut broker = VBroker::new(broker_sim);
        let mut viewers = Vec::new();
        for _ in 0..n {
            let (viewer_side, broker_viewer) = MemLink::pair();
            let id = broker.attach(broker_viewer);
            viewers.push((id, viewer_side));
        }
        (sim_side, broker, viewers)
    }

    #[test]
    fn broker_acks_simulation_hello() {
        let (mut sim, mut broker, mut viewers) = rig(1);
        let hello = Frame::with_value(
            MsgKind::Hello,
            0,
            Endianness::Little,
            VisitValue::Bytes(vec![]),
        );
        sim.send(&hello.encode()).unwrap();
        broker
            .pump(Duration::from_millis(100), Duration::from_millis(20))
            .unwrap();
        let ack = sim.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(Frame::decode(&ack).unwrap().kind, MsgKind::HelloAck);
        // hello is not fanned out to viewers
        let (_, v) = &mut viewers[0];
        assert_eq!(
            v.recv_timeout(Duration::from_millis(20)),
            Err(LinkError::Timeout)
        );
    }

    #[test]
    fn data_broadcast_to_all_viewers() {
        let (mut sim, mut broker, mut viewers) = rig(3);
        let frame = Frame::with_value(
            MsgKind::Data,
            TAG,
            Endianness::Little,
            VisitValue::F32(vec![1.0, 2.0]),
        );
        sim.send(&frame.encode()).unwrap();
        broker
            .pump(Duration::from_millis(100), Duration::from_millis(50))
            .unwrap();
        for (_, v) in viewers.iter_mut() {
            let got = v.recv_timeout(Duration::from_millis(100)).unwrap();
            assert_eq!(Frame::decode(&got).unwrap().value, frame.value);
        }
        assert_eq!(broker.stats().fanout_frames, 3);
    }

    #[test]
    fn requests_go_to_master_only() {
        let (mut sim, mut broker, mut viewers) = rig(2);
        let master_id = broker.master().unwrap();
        sim.send(&Frame::bare(MsgKind::Request, TAG).encode())
            .unwrap();
        // master thread answers; non-master must see nothing
        let (mid, mut mlink) =
            viewers.remove(viewers.iter().position(|(id, _)| *id == master_id).unwrap());
        assert_eq!(mid, master_id);
        let master = thread::spawn(move || {
            let req = mlink.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(Frame::decode(&req).unwrap().kind, MsgKind::Request);
            let reply = Frame::with_value(
                MsgKind::Reply,
                TAG,
                Endianness::Little,
                VisitValue::F64(vec![0.42]),
            );
            mlink.send(&reply.encode()).unwrap();
        });
        broker
            .pump(Duration::from_millis(500), Duration::from_millis(500))
            .unwrap();
        master.join().unwrap();
        // sim receives the master's steering value
        let reply = sim.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(
            Frame::decode(&reply).unwrap().value,
            Some(VisitValue::F64(vec![0.42]))
        );
        // the passive viewer saw no request
        let (_, passive) = &mut viewers[0];
        assert_eq!(
            passive.recv_timeout(Duration::from_millis(20)),
            Err(LinkError::Timeout)
        );
    }

    #[test]
    fn dead_master_cannot_stall_the_simulation() {
        let (mut sim, mut broker, viewers) = rig(1);
        drop(viewers); // master vanished
        sim.send(&Frame::bare(MsgKind::Request, TAG).encode())
            .unwrap();
        broker
            .pump(Duration::from_millis(100), Duration::from_millis(30))
            .unwrap();
        let reply = sim.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(Frame::decode(&reply).unwrap().kind, MsgKind::NoData);
    }

    #[test]
    fn master_passes_on_detach() {
        let (_sim, mut broker, viewers) = rig(3);
        let first = viewers[0].0;
        let second = viewers[1].0;
        assert_eq!(broker.master(), Some(first));
        broker.detach(first);
        assert_eq!(broker.master(), Some(second));
    }

    #[test]
    fn pass_master_moves_role() {
        let (_sim, mut broker, viewers) = rig(2);
        let (first, second) = (viewers[0].0, viewers[1].0);
        assert!(broker.pass_master(first, second));
        assert_eq!(broker.master(), Some(second));
        assert!(!broker.pass_master(second, ViewerId(99)));
    }

    #[test]
    fn bye_ends_session_and_is_broadcast() {
        let (mut sim, mut broker, mut viewers) = rig(2);
        sim.send(&Frame::bare(MsgKind::Bye, 0).encode()).unwrap();
        let live = broker
            .pump(Duration::from_millis(100), Duration::from_millis(20))
            .unwrap();
        assert!(!live);
        for (_, v) in viewers.iter_mut() {
            let got = v.recv_timeout(Duration::from_millis(100)).unwrap();
            assert_eq!(Frame::decode(&got).unwrap().kind, MsgKind::Bye);
        }
    }

    #[test]
    fn fanout_bytes_scale_with_viewer_count() {
        let (mut sim, mut broker, _viewers) = rig(4);
        let frame = Frame::with_value(
            MsgKind::Data,
            TAG,
            Endianness::Little,
            VisitValue::Bytes(vec![0u8; 1000]),
        );
        sim.send(&frame.encode()).unwrap();
        broker
            .pump(Duration::from_millis(100), Duration::from_millis(20))
            .unwrap();
        let st = broker.stats();
        assert_eq!(st.bytes_out, 4 * st.bytes_in);
    }

    #[test]
    fn dead_viewer_detached_on_broadcast() {
        let (mut sim, mut broker, mut viewers) = rig(3);
        // kill one passive viewer
        let victim = viewers.remove(2);
        drop(victim);
        sim.send(
            &Frame::with_value(
                MsgKind::Data,
                TAG,
                Endianness::Little,
                VisitValue::I32(vec![1]),
            )
            .encode(),
        )
        .unwrap();
        broker
            .pump(Duration::from_millis(100), Duration::from_millis(20))
            .unwrap();
        // MemLink send into a dropped receiver fails → viewer detached
        assert_eq!(broker.viewer_count(), 2);
    }
}
