//! Scriptable fault injection on top of [`Link`].
//!
//! The base [`Link`] models the *steady-state* behaviour of a network path
//! (latency, bandwidth, a fixed jitter/loss profile). Scenario runs need to
//! change that behaviour *mid-run*: a transatlantic segment partitions and
//! heals, congestion raises the loss rate for a while, a routing flap adds
//! jitter. [`FaultyLink`] wraps a `Link` with that mutable fault state and
//! keeps delivery statistics, while staying fully deterministic: the extra
//! loss/jitter decisions come from a SplitMix64 stream over
//! `(fault_seed, sequence number)`, exactly like the base link's own
//! streams, so a faulted run replays identically for a given seed.

use crate::link::{splitmix64, Link};
use crate::time::SimTime;

/// Delivery statistics for one link direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages that arrived.
    pub delivered: u64,
    /// Messages dropped — by partition, injected loss, or the base link's
    /// own loss profile.
    pub dropped: u64,
}

/// A [`Link`] with scriptable mid-run faults and delivery accounting.
#[derive(Debug, Clone)]
pub struct FaultyLink {
    base: Link,
    partitioned: bool,
    extra_loss_ppm: u32,
    extra_jitter: SimTime,
    fault_seed: u64,
    fault_seq: u64,
    stats: LinkStats,
}

impl FaultyLink {
    /// Wrap `base` with no active faults. `fault_seed` drives the injected
    /// loss/jitter streams (independent of the base link's own seed).
    pub fn new(base: Link, fault_seed: u64) -> Self {
        FaultyLink {
            base,
            partitioned: false,
            extra_loss_ppm: 0,
            extra_jitter: SimTime::ZERO,
            fault_seed,
            fault_seq: 0,
            stats: LinkStats::default(),
        }
    }

    /// The wrapped steady-state link.
    pub fn base(&self) -> &Link {
        &self.base
    }

    /// Sever the link: every delivery drops until [`FaultyLink::heal`].
    pub fn partition(&mut self) {
        self.partitioned = true;
    }

    /// Restore a partitioned link.
    pub fn heal(&mut self) {
        self.partitioned = false;
    }

    /// Injected loss on top of the base link's profile, in ppm (clamped to
    /// 100%).
    pub fn set_extra_loss_ppm(&mut self, ppm: u32) {
        self.extra_loss_ppm = ppm.min(1_000_000);
    }

    /// Injected jitter on top of the base link's profile (uniform in
    /// `[0, j]`).
    pub fn set_extra_jitter(&mut self, j: SimTime) {
        self.extra_jitter = j;
    }

    /// Delivery statistics so far.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Deterministic injected-loss decision for the `seq`-th message.
    fn injected_loss(&self, seq: u64) -> bool {
        if self.extra_loss_ppm == 0 {
            return false;
        }
        let h = splitmix64(self.fault_seed.rotate_left(29) ^ seq);
        (h % 1_000_000) < self.extra_loss_ppm as u64
    }

    /// Deterministic injected jitter for the `seq`-th message.
    fn injected_jitter(&self, seq: u64) -> SimTime {
        if self.extra_jitter == SimTime::ZERO {
            return SimTime::ZERO;
        }
        let h = splitmix64(self.fault_seed ^ seq.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        // saturating: a u64::MAX-nanos jitter must not overflow the span
        SimTime::from_nanos(h % self.extra_jitter.as_nanos().saturating_add(1))
    }

    /// Arrival time of a `size_bytes` message departing at `departure`,
    /// after faults. `None` means the message was dropped (partition,
    /// injected loss, or base-link loss); statistics are updated either way.
    pub fn deliver(&mut self, departure: SimTime, size_bytes: usize) -> Option<SimTime> {
        let seq = self.fault_seq;
        self.fault_seq += 1;
        if self.partitioned || self.injected_loss(seq) {
            self.stats.dropped += 1;
            return None;
        }
        match self.base.deliver(departure, size_bytes) {
            Some(arrival) => {
                self.stats.delivered += 1;
                Some(arrival + self.injected_jitter(seq))
            }
            None => {
                self.stats.dropped += 1;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lan() -> Link {
        Link::builder().latency_ms(1).build()
    }

    #[test]
    fn no_faults_behaves_like_base() {
        let mut f = FaultyLink::new(lan(), 1);
        let mut b = lan();
        for i in 0..50 {
            let t = SimTime::from_millis(i);
            assert_eq!(f.deliver(t, 100), b.deliver(t, 100));
        }
        assert_eq!(
            f.stats(),
            LinkStats {
                delivered: 50,
                dropped: 0
            }
        );
    }

    #[test]
    fn partition_drops_everything_and_heal_restores() {
        let mut f = FaultyLink::new(lan(), 2);
        assert!(f.deliver(SimTime::ZERO, 10).is_some());
        f.partition();
        for _ in 0..10 {
            assert!(f.deliver(SimTime::ZERO, 10).is_none());
        }
        f.heal();
        assert!(f.deliver(SimTime::ZERO, 10).is_some());
        let s = f.stats();
        assert_eq!(s.delivered, 2);
        assert_eq!(s.dropped, 10);
    }

    #[test]
    fn injected_loss_approximates_rate() {
        let mut f = FaultyLink::new(lan(), 77);
        f.set_extra_loss_ppm(200_000); // 20%
        let dropped = (0..10_000)
            .filter(|_| f.deliver(SimTime::ZERO, 1).is_none())
            .count();
        assert!((1_600..2_400).contains(&dropped), "dropped={dropped}");
        assert_eq!(f.stats().dropped, dropped as u64);
    }

    #[test]
    fn injected_loss_is_deterministic_per_seed() {
        let run = |seed| {
            let mut f = FaultyLink::new(lan(), seed);
            f.set_extra_loss_ppm(100_000);
            (0..200)
                .map(|_| f.deliver(SimTime::ZERO, 1).is_some())
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn injected_jitter_is_bounded_and_deterministic() {
        let run = || {
            let mut f = FaultyLink::new(
                Link::builder()
                    .latency_ms(1)
                    .bandwidth_bps(u64::MAX)
                    .build(),
                9,
            );
            f.set_extra_jitter(SimTime::from_millis(3));
            (0..500)
                .map(|_| f.deliver(SimTime::ZERO, 0).unwrap())
                .collect::<Vec<SimTime>>()
        };
        let arrivals = run();
        for &a in &arrivals {
            assert!(a >= SimTime::from_millis(1));
            assert!(a <= SimTime::from_millis(4));
        }
        assert_eq!(arrivals, run());
        // the stream actually jitters
        assert!(arrivals.iter().any(|&a| a != arrivals[0]));
    }

    #[test]
    fn extreme_jitter_does_not_panic() {
        let mut f = FaultyLink::new(lan(), 13);
        f.set_extra_jitter(SimTime::from_nanos(u64::MAX));
        for _ in 0..10 {
            let _ = f.deliver(SimTime::ZERO, 1);
        }
        let mut l = Link::builder()
            .latency_ms(1)
            .jitter(SimTime::from_nanos(u64::MAX))
            .build();
        for _ in 0..10 {
            let _ = l.deliver(SimTime::ZERO, 1);
        }
    }

    #[test]
    fn base_link_loss_counts_as_drop() {
        let mut f = FaultyLink::new(Link::builder().loss_ppm(1_000_000).build(), 4);
        assert!(f.deliver(SimTime::ZERO, 1).is_none());
        assert_eq!(f.stats().dropped, 1);
    }

    #[test]
    fn partition_does_not_advance_base_stream() {
        // drops during partition must not perturb the post-heal jitter
        // stream relative to an unfaulted twin that saw only the delivered
        // messages — the base link consumes sequence numbers only for
        // messages that reach it.
        let mk = || {
            Link::builder()
                .latency_ms(1)
                .jitter(SimTime::from_millis(2))
                .seed(11)
                .build()
        };
        let mut f = FaultyLink::new(mk(), 8);
        let mut twin = mk();
        assert_eq!(f.deliver(SimTime::ZERO, 1), twin.deliver(SimTime::ZERO, 1));
        f.partition();
        for _ in 0..5 {
            assert!(f.deliver(SimTime::ZERO, 1).is_none());
        }
        f.heal();
        assert_eq!(f.deliver(SimTime::ZERO, 1), twin.deliver(SimTime::ZERO, 1));
    }
}
