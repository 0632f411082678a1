//! Discrete-event scheduler for multi-party scenarios.
//!
//! The clock-merge channels in [`crate::channel`] cover request/response
//! chains, but the collaboration-skew experiments (how far apart do N sites'
//! views drift? — §4.2/§4.3 of the paper) need a global ordering of events
//! across many parties. [`EventQueue`] is a minimal deterministic
//! discrete-event core: events are `(time, seq, payload)` triples popped in
//! time order with FIFO tie-breaking.

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

    /// Current simulation time (time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `payload` at absolute time `at`. Scheduling in the past is
    /// clamped to `now` (events cannot fire before the present).
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

    /// Schedule `payload` at `now + delay`.
    pub fn schedule_in(&mut self, delay: SimTime, payload: T) -> u64 {
        self.schedule(self.now + delay, payload)
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

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Run the queue to completion, calling `handler(time, payload, queue)`
    /// for each event. The handler may schedule further events. Stops after
    /// `max_events` as a runaway guard; returns the number processed.
    pub fn run<F>(&mut self, max_events: usize, mut handler: F) -> usize
    where
        F: FnMut(Event<T>, &mut EventQueue<T>),
    {
        let mut n = 0;
        while n < max_events {
            match self.pop() {
                Some(ev) => {
                    handler(ev, self);
                    n += 1;
                }
                None => break,
            }
        }
        n
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
    fn now_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), ());
        q.schedule(SimTime::from_millis(5), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(5));
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(10));
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
    fn run_with_cascading_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), 0u32);
        let n = q.run(100, |ev, q| {
            if ev.payload < 5 {
                q.schedule_in(SimTime::from_millis(1), ev.payload + 1);
            }
        });
        assert_eq!(n, 6);
        assert_eq!(q.now(), SimTime::from_millis(6));
    }

    #[test]
    fn run_respects_max_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 0u32);
        // infinite cascade, bounded by max_events
        let n = q.run(50, |ev, q| {
            q.schedule_in(SimTime::from_millis(1), ev.payload + 1);
        });
        assert_eq!(n, 50);
    }
}
