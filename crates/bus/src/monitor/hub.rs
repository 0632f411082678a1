//! The monitor hub: one producer surface, N capability-filtered viewers.
//!
//! A [`MonitorHub`] is the session-side anchor of the data plane, the
//! mirror image of the steering [`SteerHub`](crate::SteerHub): where the
//! steering hub collects *inbound* batches from many transports and
//! commits them at a step boundary, the monitor hub takes the simulation's
//! *outbound* step-boundary output and fans it out to every attached
//! subscriber — each behind its own middleware adapter, each filtered and
//! decimated against its negotiated [`MonitorCaps`].
//!
//! Determinism contract: subscribers are fanned out in attach order,
//! sequence numbers are assigned in publish order, and decimation counts
//! admissible frames per subscriber — so for a fixed publish stream the
//! full per-subscriber delivery schedule (delivered / decimated /
//! filtered) is a pure function of the scenario, never of wall-clock or
//! thread count. That is what lets scenario digests fold received frames
//! byte-stably.

use crate::monitor::endpoint::{FrameBytesCell, FrameChunk, MonitorCaps, MonitorEndpoint};
use crate::monitor::frame::{MonitorFrame, MonitorPayload};
use gridsteer_ckpt::{CkptError, SectionWriter, Snapshot};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Per-subscriber delivery accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Frames that completed the middleware round trip.
    pub delivered: u64,
    /// Admissible frames skipped by the negotiated decimation rate.
    pub decimated: u64,
    /// Frames whose kind is outside the negotiated capability set.
    pub filtered: u64,
    /// Frames lost to transport errors.
    pub errors: u64,
    /// Oldest due frames dropped by the per-subscriber send budget
    /// (backpressure: a slow child sheds history, never blocks the hub).
    pub shed: u64,
}

struct SubEntry {
    name: String,
    ep: Box<dyn MonitorEndpoint>,
    caps: MonitorCaps,
    /// Admissible frames seen so far (drives decimation).
    admissible: u64,
    /// Per-delivery send budget: at most this many due frames ship per
    /// fan-out call; the *oldest* surplus is dropped (and counted in
    /// [`MonitorStats::shed`]). `None` = unbounded.
    budget: Option<usize>,
    /// Channels this subscriber has been keyframed on. Attach starts
    /// empty, so every frame producer sees a pending request for its own
    /// channel; the whole set leaves with the subscriber on detach —
    /// keyframe state can no longer outlive (or leak across) viewers.
    keyframes_served: BTreeSet<String>,
    stats: MonitorStats,
}

#[derive(Default)]
struct HubState {
    subs: Vec<SubEntry>,
    next_seq: u64,
    published: u64,
}

/// The shared monitor hub. Cheap to clone; all clones are one hub.
#[derive(Clone, Default)]
pub struct MonitorHub {
    state: Arc<Mutex<HubState>>,
}

impl MonitorHub {
    /// An empty hub with no subscribers.
    pub fn new() -> MonitorHub {
        MonitorHub::default()
    }

    /// Attach a subscriber endpoint as `name`, negotiating against the
    /// viewer's offered capabilities. Returns the negotiated set.
    pub fn attach_endpoint(
        &self,
        name: &str,
        ep: Box<dyn MonitorEndpoint>,
        viewer: &MonitorCaps,
    ) -> MonitorCaps {
        self.attach_endpoint_with_budget(name, ep, viewer, None)
    }

    /// [`attach_endpoint`](MonitorHub::attach_endpoint) with a per-delivery
    /// send budget: at most `budget` due frames ship to this subscriber
    /// per fan-out call, dropping the oldest surplus (counted in
    /// [`MonitorStats::shed`]). This is the hub-side backpressure valve
    /// relay tiers lean on.
    pub fn attach_endpoint_with_budget(
        &self,
        name: &str,
        mut ep: Box<dyn MonitorEndpoint>,
        viewer: &MonitorCaps,
        budget: Option<usize>,
    ) -> MonitorCaps {
        let negotiated = ep.negotiate(viewer);
        let mut st = self.state.lock();
        assert!(
            st.subs.iter().all(|s| s.name != name),
            "duplicate monitor subscriber name {name:?} — \
             recv()/stats_of() resolve by name, so names must be unique"
        );
        st.subs.push(SubEntry {
            name: name.to_string(),
            ep,
            caps: negotiated.clone(),
            admissible: 0,
            budget,
            keyframes_served: BTreeSet::new(),
            stats: MonitorStats::default(),
        });
        negotiated
    }

    /// Detach subscriber `name`: the endpoint's transport is closed and
    /// the entry (including its per-channel keyframe state) is dropped.
    /// Returns the final delivery statistics, or `None` if the name is
    /// unknown. Frames published after detach never reach the departed
    /// endpoint — before this existed, a viewer that left kept costing
    /// fan-out work and its keyframe bookkeeping grew without bound.
    pub fn detach(&self, name: &str) -> Option<MonitorStats> {
        let mut st = self.state.lock();
        let idx = st.subs.iter().position(|s| s.name == name)?;
        let mut sub = st.subs.remove(idx);
        sub.ep.close();
        Some(sub.stats)
    }

    /// Number of attached subscribers.
    pub fn subscribers(&self) -> usize {
        self.state.lock().subs.len()
    }

    /// Frames published so far.
    pub fn frames_published(&self) -> u64 {
        self.state.lock().published
    }

    /// True once per `channel` after each new subscriber attach — frame
    /// producers with inter-frame codec state (the viz sink) consume this
    /// to emit a keyframe the late joiner can decode. The request is
    /// tracked per channel *per subscriber* (granting it marks every
    /// current subscriber served on that channel), so several producers
    /// sharing one hub each see it for their own stream, and detaching a
    /// subscriber prunes its share of the state.
    pub fn take_keyframe_request(&self, channel: &str) -> bool {
        let mut st = self.state.lock();
        let mut pending = false;
        for sub in &mut st.subs {
            if sub.keyframes_served.insert(channel.to_string()) {
                pending = true;
            }
        }
        pending
    }

    /// Mark subscriber `name` as already keyframed on `channel` without a
    /// producer round trip — relay tiers use this after serving a cached
    /// keyframe directly, so the request is not re-raised upstream.
    pub fn mark_keyframe_served(&self, name: &str, channel: &str) {
        let mut st = self.state.lock();
        if let Some(sub) = st.subs.iter_mut().find(|s| s.name == name) {
            sub.keyframes_served.insert(channel.to_string());
        }
    }

    /// Publish one payload sampled at simulation `step`: assign the next
    /// sequence number and fan the frame out immediately. Returns the
    /// assigned sequence number. This is the *per-sample* delivery mode —
    /// every subscriber pays its transport's envelope cost per frame.
    pub fn publish(&self, step: u64, payload: MonitorPayload) -> u64 {
        let mut st = self.state.lock();
        st.next_seq += 1;
        let seq = st.next_seq;
        st.published += 1;
        let frame = MonitorFrame { seq, step, payload };
        fan_out(&mut st, std::slice::from_ref(&frame));
        seq
    }

    /// Publish a whole step boundary's payloads as one batch: sequence
    /// numbers are assigned in order, then each subscriber receives its
    /// admissible frames chunked to its negotiated `max_batch` — one
    /// transport envelope per chunk instead of per frame, which is where
    /// batched fan-out wins on every middleware. Returns the number of
    /// frames published.
    pub fn publish_batch(&self, step: u64, payloads: Vec<MonitorPayload>) -> u64 {
        if payloads.is_empty() {
            return 0;
        }
        let mut st = self.state.lock();
        let frames: Vec<MonitorFrame> = payloads
            .into_iter()
            .map(|payload| {
                st.next_seq += 1;
                st.published += 1;
                MonitorFrame {
                    seq: st.next_seq,
                    step,
                    payload,
                }
            })
            .collect();
        fan_out(&mut st, &frames);
        frames.len() as u64
    }

    /// Fan out frames that already carry sequence numbers, *without*
    /// reassigning them. This is the relay-tier path: a [`RelayHub`]
    /// re-publishes upstream frames to its children and the origin's
    /// sequence numbers must survive the whole tree, or per-viewer
    /// digests would depend on which tier served them. Returns the
    /// number of frames forwarded.
    ///
    /// [`RelayHub`]: crate::monitor::relay::RelayHub
    pub fn forward_batch(&self, frames: &[MonitorFrame]) -> u64 {
        if frames.is_empty() {
            return 0;
        }
        let mut st = self.state.lock();
        st.published += frames.len() as u64;
        fan_out(&mut st, frames);
        frames.len() as u64
    }

    /// Deliver frames to *one* subscriber directly, bypassing decimation
    /// and send budgets (kind filtering and batch chunking still apply —
    /// the transport's negotiated envelope is real). Relay tiers use this
    /// to serve cached keyframes to a late joiner without disturbing any
    /// sibling's stream. Returns the number of frames delivered.
    pub fn deliver_to(&self, name: &str, frames: &[MonitorFrame]) -> u64 {
        if frames.is_empty() {
            return 0;
        }
        let mut st = self.state.lock();
        let Some(sub) = st.subs.iter_mut().find(|s| s.name == name) else {
            return 0;
        };
        let due: Vec<usize> = (0..frames.len())
            .filter(|&i| sub.caps.kinds.contains(&frames[i].payload.kind()))
            .collect();
        sub.ship(frames, &fresh_cache(frames.len()), &due)
    }

    /// Drain the frames subscriber `name`'s viewer side has received, in
    /// delivery order. Empty if the name is unknown.
    pub fn recv(&self, name: &str) -> Vec<MonitorFrame<'static>> {
        let mut st = self.state.lock();
        st.subs
            .iter_mut()
            .find(|s| s.name == name)
            .map(|s| s.ep.recv())
            .unwrap_or_default()
    }

    /// Per-subscriber delivery statistics, in attach order.
    pub fn stats(&self) -> Vec<(String, MonitorStats)> {
        self.state
            .lock()
            .subs
            .iter()
            .map(|s| (s.name.clone(), s.stats))
            .collect()
    }

    /// One subscriber's delivery statistics.
    pub fn stats_of(&self, name: &str) -> Option<MonitorStats> {
        self.state
            .lock()
            .subs
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.stats)
    }

    /// Serialize the full hub state — sequence counters and every
    /// subscriber's negotiated caps, decimation phase, send budget,
    /// keyframe bookkeeping and delivery statistics — into snapshot
    /// section `name`. Endpoint objects themselves are
    /// process-local middleware handles and are not serialized; restore
    /// rebuilds them through a resolver.
    pub fn save_sections(&self, snap: &mut Snapshot, name: &str) {
        let mut w = SectionWriter::new();
        let st = self.state.lock();
        w.put_u64(st.next_seq);
        w.put_u64(st.published);
        w.put_u32(st.subs.len() as u32);
        for sub in &st.subs {
            w.put_str(&sub.name);
            crate::ckpt::put_caps(&mut w, &sub.caps);
            w.put_u64(sub.admissible);
            w.put_bool(sub.budget.is_some());
            w.put_u64(sub.budget.unwrap_or(0) as u64);
            w.put_u32(sub.keyframes_served.len() as u32);
            for c in &sub.keyframes_served {
                w.put_str(c);
            }
            let s = &sub.stats;
            for v in [s.delivered, s.decimated, s.filtered, s.errors, s.shed] {
                w.put_u64(v);
            }
        }
        drop(st);
        snap.push(name, 0, w.finish());
    }

    /// Restore hub state from snapshot section `name`. The `resolver`
    /// builds a fresh endpoint per `(subscriber name, saved caps)`; the
    /// endpoint negotiates against the saved caps and the *saved* set
    /// then stands as the subscriber's negotiated result. Restore perturbs
    /// no counters, so a restored hub's delivery schedule (decimation
    /// phase, sequence numbers, per-subscriber stats) continues exactly
    /// where the checkpoint cut it — that is what keeps a
    /// crashed-and-restored scenario digest byte-identical to an
    /// uncrashed one.
    pub fn restore_sections(
        &self,
        snap: &Snapshot,
        name: &str,
        resolver: &mut dyn FnMut(&str, &MonitorCaps) -> Box<dyn MonitorEndpoint>,
    ) -> Result<(), CkptError> {
        let mut r = snap.reader(name)?;
        let next_seq = r.get_u64()?;
        let published = r.get_u64()?;
        let nsubs = r.get_u32()?;
        let mut subs = Vec::new();
        for _ in 0..nsubs {
            let sub_name = r.get_str()?;
            let caps = crate::ckpt::get_caps(&mut r)?;
            let admissible = r.get_u64()?;
            let has_budget = r.get_bool()?;
            let budget_raw = r.get_u64()?;
            let nkf = r.get_u32()?;
            let mut keyframes_served = BTreeSet::new();
            for _ in 0..nkf {
                keyframes_served.insert(r.get_str()?);
            }
            let stats = MonitorStats {
                delivered: r.get_u64()?,
                decimated: r.get_u64()?,
                filtered: r.get_u64()?,
                errors: r.get_u64()?,
                shed: r.get_u64()?,
            };
            let mut ep = resolver(&sub_name, &caps);
            ep.negotiate(&caps);
            subs.push(SubEntry {
                name: sub_name,
                ep,
                caps,
                admissible,
                budget: has_budget.then_some(budget_raw as usize),
                keyframes_served,
                stats,
            });
        }
        r.expect_end()?;
        let mut st = self.state.lock();
        st.subs = subs;
        st.next_seq = next_seq;
        st.published = published;
        Ok(())
    }
}

/// One empty encode-cache slot per frame of a publish.
fn fresh_cache(len: usize) -> Vec<FrameBytesCell> {
    vec![FrameBytesCell::new(); len]
}

impl SubEntry {
    /// Ship the frames at positions `due` to this subscriber, chunked to
    /// its negotiated batch size — the one delivery loop behind
    /// `fan_out` and `deliver_to`. Every chunk is a view into the
    /// caller's `frames` and the publish-wide `cache`: no payload is
    /// copied inside the hub whatever subset is due, and whichever
    /// subscriber encodes a frame first encodes it for all of them.
    /// Returns the number of frames delivered.
    fn ship(&mut self, frames: &[MonitorFrame], cache: &[FrameBytesCell], due: &[usize]) -> u64 {
        let mut delivered = 0;
        for picks in due.chunks(self.caps.max_batch.max(1)) {
            match self.ep.deliver(&FrameChunk::new(frames, cache, picks)) {
                Ok(n) => delivered += n as u64,
                Err(_) => self.stats.errors += picks.len() as u64,
            }
        }
        self.stats.delivered += delivered;
        delivered
    }
}

/// Fan a frame batch out to every subscriber: filter by negotiated kinds,
/// decimate by the negotiated rate, shed the oldest frames beyond the
/// subscriber's send budget, chunk to the negotiated batch size, ship.
/// Deterministic: attach order, publish order, per-subscriber admissible
/// counters.
fn fan_out(st: &mut HubState, frames: &[MonitorFrame]) {
    // One shared encode cache per publish, parallel to `frames`
    // (fan_out runs under the hub mutex, so the OnceCell is race-free).
    let cache = fresh_cache(frames.len());
    for sub in &mut st.subs {
        let mut due: Vec<usize> = Vec::with_capacity(frames.len());
        for (i, frame) in frames.iter().enumerate() {
            if !sub.caps.kinds.contains(&frame.payload.kind()) {
                sub.stats.filtered += 1;
                continue;
            }
            let take = sub.admissible % sub.caps.deliver_every as u64 == 0;
            sub.admissible += 1;
            if take {
                due.push(i);
            } else {
                sub.stats.decimated += 1;
            }
        }
        if let Some(budget) = sub.budget {
            if due.len() > budget {
                // drop-oldest: the newest frames are the ones a live
                // viewer can still use
                let surplus = due.len() - budget;
                sub.stats.shed += surplus as u64;
                due.drain(..surplus);
            }
        }
        sub.ship(frames, &cache, &due);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::LoopbackMonitor;
    use crate::monitor::frame::MonitorKind;

    fn attach(hub: &MonitorHub, name: &str) -> MonitorCaps {
        let ep = Box::new(LoopbackMonitor::new());
        hub.attach_endpoint(name, ep, &MonitorCaps::full("viewer", 64))
    }

    fn hub_with(names: &[&str]) -> MonitorHub {
        let hub = MonitorHub::new();
        for n in names {
            attach(&hub, n);
        }
        hub
    }

    #[test]
    fn publish_assigns_monotone_seqs_and_fans_out() {
        let hub = hub_with(&["a", "b"]);
        let s1 = hub.publish(5, MonitorPayload::scalar("x", 1.0));
        let s2 = hub.publish(5, MonitorPayload::scalar("x", 2.0));
        assert!(s2 > s1);
        assert_eq!(hub.frames_published(), 2);
        for n in ["a", "b"] {
            let got = hub.recv(n);
            assert_eq!(got.len(), 2, "{n}");
            assert_eq!(got[0].seq, s1);
            assert_eq!(got[1].seq, s2);
            assert_eq!(got[0].step, 5);
        }
        assert!(hub.recv("a").is_empty(), "recv drains");
    }

    #[test]
    fn batch_publish_matches_per_sample_content() {
        let payloads = || {
            vec![
                MonitorPayload::scalar("x", 1.0),
                MonitorPayload::vec3("v", [1.0, 2.0, 3.0]),
                MonitorPayload::grid2("g", 2, 1, vec![0.5, -0.5]),
            ]
        };
        let single = hub_with(&["v"]);
        for p in payloads() {
            single.publish(7, p);
        }
        let batched = hub_with(&["v"]);
        assert_eq!(batched.publish_batch(7, payloads()), 3);
        assert_eq!(single.recv("v"), batched.recv("v"));
        assert_eq!(
            single.stats_of("v").unwrap().delivered,
            batched.stats_of("v").unwrap().delivered
        );
    }

    #[test]
    fn kind_filter_and_decimation_are_counted() {
        let hub = MonitorHub::new();
        let mut caps = MonitorCaps::full("viewer", 64).every(2);
        caps.kinds.remove(&MonitorKind::Scalar);
        hub.attach_endpoint("v", Box::new(LoopbackMonitor::new()), &caps);
        for i in 0..6 {
            hub.publish(i, MonitorPayload::scalar("s", i as f64)); // filtered
            hub.publish(i, MonitorPayload::vec3("v", [i as f64; 3])); // admissible
        }
        let st = hub.stats_of("v").unwrap();
        assert_eq!(st.filtered, 6);
        assert_eq!(st.delivered, 3, "every 2nd of 6 admissible");
        assert_eq!(st.decimated, 3);
        let got = hub.recv("v");
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|f| f.payload.kind() == MonitorKind::Vec3));
    }

    #[test]
    fn keyframe_request_raised_on_attach_and_consumed_once_per_channel() {
        let hub = MonitorHub::new();
        assert!(!hub.take_keyframe_request("cam-a"));
        hub.attach_endpoint(
            "v",
            Box::new(LoopbackMonitor::new()),
            &MonitorCaps::full("viewer", 8),
        );
        // two independent producers each see the request for their own
        // channel — one consuming it cannot starve the other
        assert!(hub.take_keyframe_request("cam-a"));
        assert!(hub.take_keyframe_request("cam-b"));
        assert!(!hub.take_keyframe_request("cam-a"), "consumed for cam-a");
        assert!(!hub.take_keyframe_request("cam-b"), "consumed for cam-b");
        hub.attach_endpoint(
            "w",
            Box::new(LoopbackMonitor::new()),
            &MonitorCaps::full("viewer", 8),
        );
        assert!(hub.take_keyframe_request("cam-a"), "new attach re-raises");
    }

    #[test]
    #[should_panic(expected = "duplicate monitor subscriber name")]
    fn duplicate_subscriber_names_are_rejected() {
        let hub = MonitorHub::new();
        let caps = MonitorCaps::full("viewer", 8);
        hub.attach_endpoint("v", Box::new(LoopbackMonitor::new()), &caps);
        hub.attach_endpoint("v", Box::new(LoopbackMonitor::new()), &caps);
    }

    #[test]
    fn attach_returns_the_negotiated_caps() {
        let hub = MonitorHub::new();
        let viewer = MonitorCaps::full("viewer", 8).every(3);
        let caps = hub.attach_endpoint("alice", Box::new(LoopbackMonitor::new()), &viewer);
        assert_eq!(caps.transport, "loopback");
        assert_eq!((caps.max_batch, caps.deliver_every), (8, 3));
        assert_eq!(hub.subscribers(), 1);
    }

    #[test]
    fn attach_detach_cycles_leave_no_trace_in_the_section() {
        let section = |h: &MonitorHub| {
            let mut snap = Snapshot::new(1, 0);
            h.save_sections(&mut snap, "mon");
            snap.section("mon").unwrap().to_vec()
        };
        let churned = MonitorHub::new();
        for i in 0..100 {
            let guest = format!("guest{i}");
            attach(&churned, &guest);
            assert!(churned.detach(&guest).is_some());
        }
        attach(&churned, "alice");
        assert_eq!(section(&churned), section(&hub_with(&["alice"])));
    }

    #[test]
    fn unknown_subscriber_recv_is_empty() {
        let hub = hub_with(&["a"]);
        assert!(hub.recv("ghost").is_empty());
        assert_eq!(hub.stats_of("ghost"), None);
    }

    #[test]
    fn detach_stops_deliveries_and_returns_final_stats() {
        let hub = hub_with(&["a", "b"]);
        hub.publish(1, MonitorPayload::scalar("x", 1.0));
        let final_stats = hub.detach("a").expect("a is attached");
        assert_eq!(final_stats.delivered, 1);
        assert_eq!(hub.subscribers(), 1);
        assert_eq!(hub.stats_of("a"), None, "entry is gone");
        hub.publish(2, MonitorPayload::scalar("x", 2.0));
        assert!(
            hub.recv("a").is_empty(),
            "no frames reach a departed viewer"
        );
        assert_eq!(hub.stats_of("b").unwrap().delivered, 2, "b unaffected");
        assert_eq!(hub.detach("a"), None, "double detach is a miss");
    }

    #[test]
    fn detach_prunes_keyframe_state_and_frees_the_name() {
        let hub = hub_with(&["v"]);
        assert!(hub.take_keyframe_request("cam"));
        assert!(!hub.take_keyframe_request("cam"));
        hub.detach("v");
        assert!(
            !hub.take_keyframe_request("cam"),
            "no subscribers, no pending requests"
        );
        // the name is reusable, and the rejoin starts with a clean
        // keyframe slate — exactly what a late joiner needs
        hub.attach_endpoint(
            "v",
            Box::new(LoopbackMonitor::new()),
            &MonitorCaps::full("viewer", 8),
        );
        assert!(hub.take_keyframe_request("cam"), "rejoin re-raises");
    }

    #[test]
    fn send_budget_sheds_oldest_frames() {
        let hub = MonitorHub::new();
        hub.attach_endpoint_with_budget(
            "slow",
            Box::new(LoopbackMonitor::new()),
            &MonitorCaps::full("viewer", 64),
            Some(2),
        );
        let payloads: Vec<MonitorPayload> = (0..5)
            .map(|i| MonitorPayload::scalar("x", i as f64))
            .collect();
        hub.publish_batch(3, payloads);
        let st = hub.stats_of("slow").unwrap();
        assert_eq!(st.shed, 3, "5 due - budget 2");
        assert_eq!(st.delivered, 2);
        let got = hub.recv("slow");
        assert_eq!(got.len(), 2);
        // the two *newest* frames survive
        assert_eq!(got[0].seq, 4);
        assert_eq!(got[1].seq, 5);
    }

    #[test]
    fn forward_batch_preserves_upstream_seqs() {
        let origin = hub_with(&["direct"]);
        origin.publish_batch(
            9,
            vec![
                MonitorPayload::scalar("x", 1.0),
                MonitorPayload::scalar("x", 2.0),
            ],
        );
        let upstream = origin.recv("direct");
        let relay = hub_with(&["child"]);
        assert_eq!(relay.forward_batch(&upstream), 2);
        let got = relay.recv("child");
        assert_eq!(got, upstream, "seq numbers survive the relay tier");
        assert_eq!(relay.frames_published(), 2);
    }

    #[test]
    fn restored_hub_continues_the_delivery_schedule_exactly() {
        // an uninterrupted hub is the reference
        let reference = MonitorHub::new();
        let caps = MonitorCaps::full("viewer", 64).every(2);
        reference.attach_endpoint("v", Box::new(LoopbackMonitor::new()), &caps);
        let publish_phase = |hub: &MonitorHub, base: u64| {
            for i in 0..5u64 {
                hub.publish(base + i, MonitorPayload::scalar("x", (base + i) as f64));
            }
        };
        publish_phase(&reference, 0);

        // the checkpointed hub publishes the same first phase, snapshots,
        // restores into a *fresh* hub, then publishes the second phase
        let before = MonitorHub::new();
        before.attach_endpoint("v", Box::new(LoopbackMonitor::new()), &caps);
        publish_phase(&before, 0);
        assert!(before.take_keyframe_request("x"), "first request pends");
        let drained_before = before.recv("v");
        let mut snap = Snapshot::new(1, 0);
        before.save_sections(&mut snap, "mon");
        let snap = Snapshot::decode(&snap.encode()).unwrap();
        let restored = MonitorHub::new();
        restored
            .restore_sections(&snap, "mon", &mut |_, _| Box::new(LoopbackMonitor::new()))
            .unwrap();

        publish_phase(&reference, 5);
        publish_phase(&restored, 5);
        assert_eq!(restored.stats_of("v"), reference.stats_of("v"));
        assert_eq!(restored.frames_published(), reference.frames_published());
        // decimation phase survived: drained frames concatenate to the
        // reference's uninterrupted stream
        let mut all = drained_before;
        all.extend(restored.recv("v"));
        assert_eq!(all, reference.recv("v"));
        assert!(
            !restored.take_keyframe_request("x"),
            "restored subscriber keeps its served-keyframe state"
        );
    }

    #[test]
    fn restore_rejects_bad_caps_kind_byte() {
        let hub = hub_with(&["v"]);
        let mut snap = Snapshot::new(1, 0);
        hub.save_sections(&mut snap, "mon");
        // poison every byte in turn; decode must fail typed, never panic
        let body = snap.section("mon").unwrap().to_vec();
        let mut saw_err = false;
        for i in 0..body.len() {
            let mut poisoned = body.clone();
            poisoned[i] = 0xff;
            let mut s = Snapshot::new(1, 0);
            s.push("mon", 0, poisoned);
            let fresh = MonitorHub::new();
            if fresh
                .restore_sections(&s, "mon", &mut |_, _| Box::new(LoopbackMonitor::new()))
                .is_err()
            {
                saw_err = true;
            }
        }
        assert!(saw_err, "no poisoned byte produced a typed error");
    }

    /// `(seq, shared codec bytes)` of every frame a sink was handed.
    type Seen = Arc<Mutex<Vec<(u64, Arc<Vec<u8>>)>>>;

    /// A sink that keeps the shared codec bytes of everything delivered.
    struct CaptureSink {
        caps: MonitorCaps,
        seen: Seen,
    }

    impl MonitorEndpoint for CaptureSink {
        crate::monitor::endpoint::monitor_endpoint_common!();

        fn deliver(
            &mut self,
            chunk: &FrameChunk<'_>,
        ) -> Result<usize, crate::monitor::MonitorError> {
            for (i, f) in chunk.iter().enumerate() {
                self.seen.lock().push((f.seq, chunk.frame_bytes(i)?));
            }
            Ok(chunk.len())
        }

        fn recv(&mut self) -> Vec<MonitorFrame<'static>> {
            Vec::new()
        }
    }

    #[test]
    fn every_subscriber_shares_one_encoding_per_published_frame() {
        let hub = MonitorHub::new();
        let mut grids_only = MonitorCaps::full("viewer", 64);
        grids_only.kinds.retain(|k| *k == MonitorKind::Grid2);
        let subs = [
            ("full", MonitorCaps::full("viewer", 64)),
            ("thin", MonitorCaps::full("viewer", 2).every(2)),
            ("grids", grids_only),
        ];
        let mut seen = Vec::new();
        for (name, caps) in &subs {
            let log = Seen::default();
            let sink = CaptureSink {
                caps: MonitorCaps::full("capture", 64),
                seen: log.clone(),
            };
            hub.attach_endpoint(name, Box::new(sink), caps);
            seen.push(log);
        }
        for step in 0..3 {
            hub.publish_batch(
                step,
                vec![
                    MonitorPayload::scalar("s", step as f64),
                    MonitorPayload::grid2("g", 2, 1, vec![0.5, step as f32]),
                    MonitorPayload::vec3("v", [step as f64; 3]),
                    MonitorPayload::grid2("h", 1, 2, vec![step as f32, -0.5]),
                ],
            );
        }
        hub.publish(3, MonitorPayload::scalar("s", 3.0));

        // the same counts the two-path hub produced for this script
        let stats = |name: &str| {
            let s = hub.stats_of(name).unwrap();
            (s.delivered, s.decimated, s.filtered, s.shed, s.errors)
        };
        assert_eq!(stats("full"), (13, 0, 0, 0, 0));
        assert_eq!(stats("thin"), (7, 6, 0, 0, 0));
        assert_eq!(stats("grids"), (6, 0, 7, 0, 0));

        // encode-once holds for every subscriber, not only full-rate ones:
        // whoever carries frame `seq` carries the *same* buffer
        let full = seen[0].lock().clone();
        assert_eq!(full.len(), 13);
        for other in &seen[1..] {
            let other = other.lock();
            assert!(!other.is_empty());
            for (seq, bytes) in other.iter() {
                let (_, first) = full.iter().find(|(s, _)| s == seq).expect("full saw it");
                assert!(Arc::ptr_eq(first, bytes), "frame {seq} was encoded twice");
            }
        }
    }

    /// A one-subscriber hub section as `save_sections` writes it, with
    /// the subscriber's decimation rate set to `deliver_every`.
    fn section_with_rate(deliver_every: u32) -> Snapshot {
        let mut w = SectionWriter::new();
        w.put_u64(0); // next_seq
        w.put_u64(0); // published
        w.put_u32(1); // subscribers
        w.put_str("v");
        crate::ckpt::put_caps(
            &mut w,
            &MonitorCaps {
                deliver_every,
                ..MonitorCaps::full("loopback", 64)
            },
        );
        w.put_u64(0); // admissible
        w.put_bool(false); // no budget
        w.put_u64(0);
        w.put_u32(0); // keyframes served
        for _ in 0..5 {
            w.put_u64(0); // stats
        }
        let mut snap = Snapshot::new(1, 0);
        snap.push("mon", 0, w.finish());
        Snapshot::decode(&snap.encode()).unwrap()
    }

    #[test]
    fn restore_rejects_a_zero_decimation_rate_instead_of_dividing_by_it() {
        let mut loopback = |_: &str, _: &MonitorCaps| -> Box<dyn MonitorEndpoint> {
            Box::new(LoopbackMonitor::new())
        };
        let hostile = MonitorHub::new();
        assert!(matches!(
            hostile.restore_sections(&section_with_rate(0), "mon", &mut loopback),
            Err(CkptError::Corrupt { .. })
        ));
        assert_eq!(
            hostile.subscribers(),
            0,
            "a refused restore installs nothing"
        );
        hostile.publish(0, MonitorPayload::scalar("x", 1.0)); // and still publishes

        // the same section with a real rate restores and keeps its schedule
        let hub = MonitorHub::new();
        hub.restore_sections(&section_with_rate(2), "mon", &mut loopback)
            .unwrap();
        for i in 0..4 {
            hub.publish(i, MonitorPayload::scalar("x", i as f64));
        }
        let st = hub.stats_of("v").unwrap();
        assert_eq!((st.delivered, st.decimated), (2, 2));
        assert_eq!(hub.recv("v").len(), 2);
    }

    #[test]
    fn deliver_to_targets_one_subscriber_and_respects_kinds() {
        let hub = MonitorHub::new();
        hub.attach_endpoint(
            "a",
            Box::new(LoopbackMonitor::new()),
            &MonitorCaps::full("viewer", 64),
        );
        let mut grids_only = MonitorCaps::full("viewer", 64);
        grids_only.kinds.retain(|k| *k == MonitorKind::Grid2);
        hub.attach_endpoint("b", Box::new(LoopbackMonitor::new()), &grids_only);
        let frames = vec![
            MonitorFrame {
                seq: 7,
                step: 1,
                payload: MonitorPayload::scalar("x", 1.0),
            },
            MonitorFrame {
                seq: 8,
                step: 1,
                payload: MonitorPayload::grid2("g", 1, 1, vec![0.5]),
            },
        ];
        assert_eq!(hub.deliver_to("b", &frames), 1, "scalar filtered for b");
        assert!(hub.recv("a").is_empty(), "a untouched by targeted delivery");
        let got = hub.recv("b");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 8);
        assert_eq!(hub.deliver_to("ghost", &frames), 0);
    }
}
