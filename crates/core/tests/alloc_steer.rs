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
//!   eviction — the log neither grows with the run nor allocates per entry.
//! * Each middleware's hop has a price list. A warm stage + commit of 8
//!   batches of 4 makes at most its pinned number of allocator calls over
//!   every transport, and loopback (no wire) is the floor.
//!
//! The witness is `gridsteer_testkit`'s counting allocator, whose
//! counters are per thread, so the tests in this file can run in parallel
//! without seeing each other's traffic.

use gridsteer_bus::{SteerCommand, SteerEndpoint, SteerHub, Subscription, Transport, AUDIT_WINDOW};
use gridsteer_testkit::{measure, CountingAlloc};
use std::sync::Arc;
use steer_core::{ParamSpec, SessionEvent, SteeringSession};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const BATCHES: usize = 16;
const CMDS: usize = 4;
const PARAMS: [&str; 4] = ["beam_theta", "damping", "laser_a0", "theta"];

/// One master steering through one endpoint, `subs` subscribers
/// watching — `steer_storm`'s write path without the simulation.
struct Rig {
    hub: SteerHub,
    session: SteeringSession,
    ep: Box<dyn SteerEndpoint>,
    subs: Vec<Subscription>,
    batches: usize,
    ticks: u64,
}

impl Rig {
    /// 16 batches a tick over loopback.
    fn new(subs: usize) -> Rig {
        Rig::over(Transport::Loopback, BATCHES, subs)
    }

    /// `batches` batches a tick over `transport`.
    fn over(transport: Transport, batches: usize, subs: usize) -> Rig {
        let hub = SteerHub::new(PARAMS.map(|p| ParamSpec::f64(p, 0.0, 1.0, 0.5)).to_vec());
        let mut session = SteeringSession::with_registry(hub.registry());
        session.join("alice");
        let mut ep = transport.attach(&hub, "alice");
        let subs = (0..subs).map(|_| ep.subscribe()).collect();
        Rig {
            hub,
            session,
            ep,
            subs,
            batches,
            ticks: 0,
        }
    }

    /// Stage the tick's batches of 4, commit them through the session,
    /// drain every subscriber. Returns the notices drained.
    fn tick(&mut self) -> usize {
        self.ticks += 1;
        for b in 0..self.batches {
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
        assert_eq!(out.applied, (self.batches * CMDS) as u64);
        self.subs.iter().map(|s| s.drain().len()).sum()
    }

    /// Allocator calls one warm tick makes.
    fn calls_per_warm_tick(&mut self) -> u64 {
        for _ in 0..4 {
            self.tick();
        }
        let (drained, usage) = measure(|| self.tick());
        assert_eq!(drained, self.subs.len() * self.batches * CMDS);
        usage.calls
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
    // 64 entries a tick into the audit log: the first eviction is at tick 128
    const N: usize = 2 * AUDIT_WINDOW / (BATCHES * CMDS) + 32;
    let mut rig = Rig::new(8);
    for _ in 0..N {
        rig.tick();
    }
    assert!(
        rig.session.audit_log().evicted() > 0,
        "N is past an eviction"
    );
    let ((), usage) = measure(|| {
        for _ in N..4 * N {
            rig.tick();
        }
    });
    // the log holds between one and two windows; nothing else may grow
    let window = AUDIT_WINDOW * size_of::<SessionEvent>();
    assert!(
        usage.live.unsigned_abs() as usize <= window,
        "live heap moved {} B from tick {N} to tick {} \
         (one window of entries is {window} B)",
        usage.live,
        4 * N
    );
    let log = rig.session.audit_log();
    assert_eq!(log.total(), 1 + (4 * N * BATCHES * CMDS) as u64);
    assert!(log.retained().len() < 2 * AUDIT_WINDOW);
}

/// Allocator calls of one warm tick — 8 batches of 4 staged over the
/// transport and committed, the endpoint's own subscription watching, as
/// a `steer_storm` client is — at most. A cut lowers its pin; nothing may
/// raise one. Loopback's 52 are the caller's 8 batches of 4 named
/// commands (40), the hub's 8 origin copies, and the commit's staging
/// buffer, outcome row, shared record and the subscriber's queue. A
/// transport decodes its wire (or, on COVISE, stages) over the batch it
/// was handed, so it adds only what its hop keeps no buffer for: one OGSA
/// result list per `setBatch`, and the UNICORE DAG check's four work
/// lists per job.
const STAGE_CALLS: [(Transport, u64); 5] = [
    (Transport::Loopback, 52),
    (Transport::Visit, 52),
    (Transport::Ogsa, 60),
    (Transport::Covise, 52),
    (Transport::Unicore, 84),
];

#[test]
fn a_warm_stage_and_commit_allocates_at_most_its_pin_on_every_transport() {
    let calls = |t| Rig::over(t, 8, 1).calls_per_warm_tick();
    let floor = calls(Transport::Loopback);
    let got: Vec<_> = STAGE_CALLS.map(|(t, _)| (t, calls(t))).to_vec();
    for ((t, pin), (_, n)) in STAGE_CALLS.iter().zip(&got) {
        assert!(
            n <= pin,
            "{}: {n} allocator calls, pinned at {pin}",
            t.label()
        );
        assert!(
            *n >= floor,
            "{}: {n} calls, under loopback's {floor}",
            t.label()
        );
    }
}
