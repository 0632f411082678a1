//! Clock-merge message channels.
//!
//! A [`SimChannel`] is a bidirectional, reliable, ordered byte-message pipe
//! between two virtual-time actors — the moral equivalent of the TCP
//! connections every system in the paper uses (VISIT data connections,
//! UNICORE client↔gateway, COVISE broker links). Each direction is shaped by
//! its own [`Link`].
//!
//! Ordering: arrivals on one direction are forced monotone (a later-sent
//! message never arrives before an earlier one), mirroring TCP's in-order
//! delivery even when jitter would reorder raw packets. Loss on a reliable
//! channel is modeled as *retransmission delay* (one extra RTT), not drop.

use crate::link::Link;
use crate::time::{SimTime, VClock};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// One queued message: payload plus its arrival time at the receiver.
#[derive(Debug, Clone)]
struct InFlight {
    arrival: SimTime,
    payload: Vec<u8>,
}

#[derive(Debug, Default)]
struct Queue {
    msgs: VecDeque<InFlight>,
    last_arrival: SimTime,
    closed: bool,
}

/// A bidirectional virtual-time channel; construct with [`SimChannel::pair`].
pub struct SimChannel;

impl SimChannel {
    /// Create the two endpoints of a channel. `link_ab` shapes messages
    /// from the first endpoint to the second, `link_ba` the reverse.
    pub fn pair(link_ab: Link, link_ba: Link) -> (SimEndpoint, SimEndpoint) {
        let q_ab = Arc::new(Mutex::new(Queue::default()));
        let q_ba = Arc::new(Mutex::new(Queue::default()));
        let a = SimEndpoint {
            out: q_ab.clone(),
            inc: q_ba.clone(),
            link: Mutex::new(link_ab).into(),
        };
        let b = SimEndpoint {
            out: q_ba,
            inc: q_ab,
            link: Mutex::new(link_ba).into(),
        };
        (a, b)
    }

    /// A symmetric channel using the same link parameters both ways.
    pub fn sym(link: Link) -> (SimEndpoint, SimEndpoint) {
        SimChannel::pair(link.clone(), link)
    }

    /// A loopback channel (zero cost both ways).
    pub fn loopback() -> (SimEndpoint, SimEndpoint) {
        SimChannel::sym(Link::loopback())
    }
}

/// One end of a [`SimChannel`].
pub struct SimEndpoint {
    out: Arc<Mutex<Queue>>,
    inc: Arc<Mutex<Queue>>,
    link: Arc<Mutex<Link>>,
}

/// Error returned by receive operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No message will arrive by the given deadline.
    Timeout,
    /// Peer endpoint has been dropped/closed and the queue is drained.
    Closed,
}

impl SimEndpoint {
    /// Send `payload`, stamping virtual-time costs on the caller's clock
    /// (serialization happens at the sender). Returns the arrival time at
    /// the peer.
    pub fn send(&self, clock: &mut VClock, payload: &[u8]) -> SimTime {
        let mut link = self.link.lock();
        // Reliable channel: a "lost" packet costs one extra nominal RTT
        // (retransmit) instead of disappearing.
        let departure = clock.now();
        let arrival = match link.deliver(departure, payload.len()) {
            Some(t) => t,
            None => {
                let retransmit = link.nominal_arrival(departure, payload.len());
                retransmit + link.latency + link.latency
            }
        };
        let mut q = self.out.lock();
        // enforce in-order delivery
        let arrival = arrival.max(q.last_arrival);
        q.last_arrival = arrival;
        q.msgs.push_back(InFlight {
            arrival,
            payload: payload.to_vec(),
        });
        arrival
    }

    /// Receive the next message, advancing `clock` to its arrival time.
    /// Fails with [`RecvError::Closed`] if the peer is gone and nothing is
    /// queued, or [`RecvError::Timeout`] if nothing has been *sent* yet
    /// (virtual-time channels cannot block for future sends — the caller's
    /// program order must have produced the message already).
    pub fn recv(&self, clock: &mut VClock) -> Result<Vec<u8>, RecvError> {
        let mut q = self.inc.lock();
        match q.msgs.pop_front() {
            Some(m) => {
                clock.merge(m.arrival);
                Ok(m.payload)
            }
            None if q.closed => Err(RecvError::Closed),
            None => Err(RecvError::Timeout),
        }
    }

    /// Receive the next message only if it arrives by `deadline`; otherwise
    /// the clock advances to `deadline` and `Timeout` is returned. This is
    /// the primitive under VISIT's "complete or fail by the user-specified
    /// timeout" guarantee.
    pub fn recv_deadline(
        &self,
        clock: &mut VClock,
        deadline: SimTime,
    ) -> Result<Vec<u8>, RecvError> {
        let mut q = self.inc.lock();
        match q.msgs.front() {
            Some(m) if m.arrival <= deadline => {
                let m = q.msgs.pop_front().unwrap();
                clock.merge(m.arrival);
                Ok(m.payload)
            }
            Some(_) => {
                clock.merge(deadline);
                Err(RecvError::Timeout)
            }
            None if q.closed => Err(RecvError::Closed),
            None => {
                clock.merge(deadline);
                Err(RecvError::Timeout)
            }
        }
    }

    /// Number of queued inbound messages.
    pub fn pending(&self) -> usize {
        self.inc.lock().msgs.len()
    }

    /// Mark the outbound direction closed (peer sees `Closed` once drained).
    pub fn close(&self) {
        self.out.lock().closed = true;
    }

    /// True if the peer closed its outbound direction and the queue is empty.
    pub fn is_closed(&self) -> bool {
        let q = self.inc.lock();
        q.closed && q.msgs.is_empty()
    }
}

impl Drop for SimEndpoint {
    fn drop(&mut self) {
        self.out.lock().closed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Link;

    #[test]
    fn roundtrip_advances_clocks_by_rtt() {
        let link = Link::builder()
            .latency_ms(10)
            .bandwidth_bps(u64::MAX)
            .build();
        let (a, b) = SimChannel::sym(link);
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        a.send(&mut ca, b"ping");
        let got = b.recv(&mut cb).unwrap();
        assert_eq!(got, b"ping");
        assert_eq!(cb.now(), SimTime::from_millis(10));
        b.send(&mut cb, b"pong");
        let got = a.recv(&mut ca).unwrap();
        assert_eq!(got, b"pong");
        assert_eq!(ca.now(), SimTime::from_millis(20));
    }

    #[test]
    fn bandwidth_charges_large_payloads() {
        let link = Link::builder()
            .latency_ms(0)
            .bandwidth_bps(1_000_000)
            .build(); // 1 MB/s
        let (a, b) = SimChannel::sym(link);
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        a.send(&mut ca, &vec![0u8; 500_000]);
        b.recv(&mut cb).unwrap();
        assert_eq!(cb.now(), SimTime::from_millis(500));
    }

    #[test]
    fn ordering_is_fifo_despite_jitter() {
        let link = Link::builder()
            .latency_ms(5)
            .jitter(SimTime::from_millis(50))
            .seed(3)
            .build();
        let (a, b) = SimChannel::sym(link);
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        for i in 0u8..50 {
            a.send(&mut ca, &[i]);
        }
        let mut last = SimTime::ZERO;
        for i in 0u8..50 {
            let m = b.recv(&mut cb).unwrap();
            assert_eq!(m[0], i);
            assert!(cb.now() >= last);
            last = cb.now();
        }
    }

    #[test]
    fn recv_deadline_times_out_and_advances() {
        let link = Link::builder().latency_ms(100).build();
        let (a, b) = SimChannel::sym(link);
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        a.send(&mut ca, b"slow");
        let r = b.recv_deadline(&mut cb, SimTime::from_millis(50));
        assert_eq!(r, Err(RecvError::Timeout));
        assert_eq!(cb.now(), SimTime::from_millis(50));
        // message still arrives later
        let r = b.recv_deadline(&mut cb, SimTime::from_millis(200));
        assert_eq!(r.unwrap(), b"slow");
    }

    #[test]
    fn close_detected_after_drain() {
        let (a, b) = SimChannel::loopback();
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        a.send(&mut ca, b"last");
        drop(a);
        assert_eq!(b.recv(&mut cb).unwrap(), b"last");
        assert_eq!(b.recv(&mut cb), Err(RecvError::Closed));
        assert!(b.is_closed());
    }

    #[test]
    fn empty_queue_is_timeout_not_closed() {
        let (_a, b) = SimChannel::loopback();
        let mut cb = VClock::new();
        assert_eq!(b.recv(&mut cb), Err(RecvError::Timeout));
    }

    #[test]
    fn loss_on_reliable_channel_delays_not_drops() {
        let link = Link::builder()
            .latency_ms(10)
            .loss_ppm(1_000_000) // every packet "lost" → retransmit path
            .build();
        let (a, b) = SimChannel::sym(link);
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        a.send(&mut ca, b"x");
        let _ = b.recv(&mut cb).unwrap();
        // one retransmit = nominal (10ms + 1-byte serialization) + 2*latency
        assert!(cb.now() >= SimTime::from_millis(30));
        assert!(cb.now() < SimTime::from_millis(31));
    }
}
