//! Discrete-event scheduler for multi-party scenarios.
//!
//! A per-party [`crate::VClock`] covers request/response chains, but the
//! collaboration-skew experiments (how far apart do N sites' views drift?
//! — §4.2/§4.3 of the paper) need a global ordering of events across many
//! parties. [`EventQueue`] is a minimal deterministic
//! discrete-event core: events are `(time, seq, payload)` triples popped in
//! time order with FIFO tie-breaking.
//!
//! The queue is meant for what is *in flight* — events scheduled while the
//! run unfolds. A caller that also replays a fixed script keeps that script
//! out of the heap: it walks it in `(time, index)` order and merges it
//! with the queue through [`EventQueue::peek_at`], taking the script's
//! next action first on a tie (as if every script entry had been
//! scheduled before any in-flight one).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled event carrying a user payload.
#[derive(Debug, Clone)]
pub struct Event<T> {
    /// Virtual time at which the event fires.
    pub at: SimTime,
    /// Insertion sequence number (tie-breaker; FIFO among equal times).
    pub seq: u64,
    /// User payload.
    pub payload: T,
}

struct HeapEntry<T> {
    at: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic earliest-first event queue.
pub struct EventQueue<T> {
    heap: BinaryHeap<HeapEntry<T>>,
    next_seq: u64,
    now: SimTime,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Schedule `payload` at absolute time `at`. Scheduling before the last
    /// popped event is clamped to its time (events cannot fire before the
    /// present).
    pub fn schedule(&mut self, at: SimTime, payload: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry {
            at: at.max(self.now),
            seq,
            payload,
        });
        seq
    }

    /// Pop the earliest event, advancing `now` to its time.
    pub fn pop(&mut self) -> Option<Event<T>> {
        self.heap.pop().map(|e| {
            self.now = self.now.max(e.at);
            Event {
                at: e.at,
                seq: e.seq,
                payload: e.payload,
            }
        })
    }

    /// Time of the earliest pending event, without popping it.
    pub fn peek_at(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        assert_eq!(q.pop().unwrap().payload, "a");
        assert_eq!(q.pop().unwrap().payload, "b");
        assert_eq!(q.pop().unwrap().payload, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_tiebreak_at_equal_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop().unwrap().payload, i);
        }
    }

    #[test]
    fn past_scheduling_is_clamped() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "first");
        q.pop();
        q.schedule(SimTime::from_millis(1), "late");
        let ev = q.pop().unwrap();
        assert_eq!(ev.at, SimTime::from_millis(10));
    }

    #[test]
    fn peek_at_names_the_next_pop_and_leaves_it_queued() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_at(), None);
        q.schedule(SimTime::from_millis(20), "b");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(10), "a2");
        for (at, payload) in [(10, "a"), (10, "a2"), (20, "b")] {
            assert_eq!(q.peek_at(), Some(SimTime::from_millis(at)));
            assert_eq!(
                q.peek_at(),
                Some(SimTime::from_millis(at)),
                "peeking pops nothing"
            );
            let ev = q.pop().unwrap();
            assert_eq!((ev.at, ev.payload), (SimTime::from_millis(at), payload));
        }
        assert_eq!(q.peek_at(), None);
        // a clamped event peeks at the time it will pop at
        q.schedule(SimTime::from_millis(1), "late");
        assert_eq!(q.peek_at(), Some(SimTime::from_millis(20)));
    }
}
