//! The acceptance gate for the steering write path: a committed command
//! costs what it changes, not what is watching or how long the run has
//! been going.
//!
//! * Fan-out shares. One commit builds one record; every subscriber's
//!   queue holds a reference to it. So a warm tick performs the same
//!   number of allocations with eight subscribers as with one, up to a
//!   constant per subscriber (its queue's buffer) — an owned-notice
//!   fan-out pays two `String`s per notice per subscriber.
//! * Audit state is a window. Live heap after 4 N ticks is within one
//!   window of entries of live heap after N, once N is past the first
//!   eviction — the logs neither grow with the run nor allocate per entry.
//!
//! The witness is a counting global allocator with per-thread counters,
//! so the tests in this file can run in parallel without seeing each
//! other's traffic.

use gridsteer_bus::{
    Change, SteerCommand, SteerEndpoint, SteerHub, Subscription, Transport, AUDIT_WINDOW,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use steer_core::{ParamSpec, SessionEvent, SteeringSession};

thread_local! {
    /// Allocator calls that can return new memory, on this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not yet freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn note(calls: u64, bytes: i64) {
    // a thread being torn down has no cells left to note into
    let _ = CALLS.try_with(|c| c.set(c.get() + calls));
    let _ = LIVE.try_with(|l| l.set(l.get() + bytes));
}

struct CountingAlloc;

// SAFETY: every operation is `System`'s, called with the arguments this
// one was given; the wrapper only counts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const BATCHES: usize = 16;
const CMDS: usize = 4;
const PARAMS: [&str; 4] = ["beam_theta", "damping", "laser_a0", "theta"];

/// One master steering through a loopback endpoint, `subs` subscribers
/// watching — `steer_storm`'s write path without the simulation.
struct Rig {
    hub: SteerHub,
    session: SteeringSession,
    ep: Box<dyn SteerEndpoint>,
    subs: Vec<Subscription>,
    ticks: u64,
}

impl Rig {
    fn new(subs: usize) -> Rig {
        let hub = SteerHub::new(PARAMS.map(|p| ParamSpec::f64(p, 0.0, 1.0, 0.5)).to_vec());
        let mut session = SteeringSession::with_registry(hub.registry());
        session.join("alice");
        let mut ep = Transport::Loopback.attach(&hub, "alice");
        let subs = (0..subs).map(|_| ep.subscribe()).collect();
        Rig {
            hub,
            session,
            ep,
            subs,
            ticks: 0,
        }
    }

    /// Stage 16 batches of 4, commit them through the session, drain
    /// every subscriber. Returns the notices drained.
    fn tick(&mut self) -> usize {
        self.ticks += 1;
        for b in 0..BATCHES {
            let cmds = (0..CMDS)
                .map(|c| {
                    let k = self.ticks * 64 + (b * CMDS + c) as u64;
                    SteerCommand::f64(PARAMS[c], (k % 1000) as f64 / 1000.0)
                })
                .collect();
            self.ep.set_batch(cmds).unwrap();
        }
        let session = &mut self.session;
        let out = self.hub.commit_with(|batch, cmd| {
            let idx = session.index_of(&batch.origin).ok_or("sender left")?;
            session.steer_value(idx, &cmd.param, &cmd.value)
        });
        assert_eq!(out.applied, (BATCHES * CMDS) as u64);
        self.subs.iter().map(|s| s.drain().len()).sum()
    }

    /// Allocator calls one warm tick makes.
    fn calls_per_warm_tick(&mut self) -> u64 {
        for _ in 0..4 {
            self.tick();
        }
        let before = CALLS.get();
        let drained = self.tick();
        let calls = CALLS.get() - before;
        assert_eq!(drained, self.subs.len() * BATCHES * CMDS);
        calls
    }
}

#[test]
fn a_warm_tick_allocates_the_same_for_eight_subscribers_as_for_one() {
    // per subscriber and tick: the buffer its emptied queue regrows
    const PER_SUBSCRIBER: u64 = 1;
    let one = Rig::new(1).calls_per_warm_tick();
    let eight = Rig::new(8).calls_per_warm_tick();
    assert!(
        eight <= one + 7 * PER_SUBSCRIBER,
        "{one} allocator calls with 1 subscriber, {eight} with 8: \
         the fan-out is copying per subscriber"
    );
    // and with nobody watching no record is built at all
    let none = Rig::new(0).calls_per_warm_tick();
    assert!(none < one, "{none} calls unwatched, {one} watched");
}

#[test]
fn two_subscribers_drain_the_same_record() {
    let mut rig = Rig::new(2);
    for b in 0..BATCHES {
        rig.ep
            .set_batch(vec![SteerCommand::f64(PARAMS[b % 4], 0.25); CMDS])
            .unwrap();
    }
    rig.hub.commit();
    let (a, b) = (rig.subs[0].drain(), rig.subs[1].drain());
    assert_eq!((a.len(), b.len()), (BATCHES * CMDS, BATCHES * CMDS));
    assert_eq!(a.records().count(), 1, "one record per commit");
    for (ra, rb) in a.records().zip(b.records()) {
        assert!(Arc::ptr_eq(ra, rb), "subscribers hold one shared record");
    }
    // the notices read straight out of the staged batches
    let first = a.iter().next().unwrap();
    assert_eq!((first.origin, first.param), ("alice", PARAMS[0]));
}

#[test]
fn live_heap_is_flat_once_the_audit_window_has_filled() {
    // 64 entries a tick into both logs: the first eviction is at tick 128
    const N: usize = 2 * AUDIT_WINDOW / (BATCHES * CMDS) + 32;
    let mut rig = Rig::new(8);
    for _ in 0..N {
        rig.tick();
    }
    assert!(
        rig.session.audit_log().evicted() > 0,
        "N is past an eviction"
    );
    let after_n = LIVE.get();
    for _ in N..4 * N {
        rig.tick();
    }
    let after_4n = LIVE.get();
    // both logs hold between one and two windows; nothing else may grow
    let window = AUDIT_WINDOW * (size_of::<SessionEvent>() + size_of::<Change>());
    assert!(
        (after_4n - after_n).unsigned_abs() as usize <= window,
        "live heap {after_n} B after {N} ticks, {after_4n} B after {} \
         (one window of entries is {window} B)",
        4 * N
    );
    let log = rig.session.audit_log();
    assert_eq!(log.total(), 1 + (4 * N * BATCHES * CMDS) as u64);
    assert!(log.retained().len() < 2 * AUDIT_WINDOW);
}
