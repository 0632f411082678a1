//! The hierarchical relay fabric: ROADMAP's answer to "millions of
//! viewers on one origin".
//!
//! A flat [`MonitorHub`] pays one transport envelope per subscriber per
//! publish — linear in viewer count, hopeless past a few hundred. A
//! [`RelayHub`] breaks that linearity: it subscribes to its parent (a
//! hub, or another relay's children) as an *ordinary collector* — a
//! [`LoopbackMonitor`] attached under [`RelayHub::uplink_caps`] — which
//! the tier's owner drains and hands to [`RelayHub::ingest`], carrying
//! the batch over the tier's own link in between if it models one. The
//! ingest re-publishes the stream to the tier's children through an
//! inner [`MonitorHub`]; the parent's publish pays one envelope for the
//! tier and never its downstream fan-out. Relays compose into trees —
//! origin → region relays → edge relays → viewers — so the origin's
//! publish cost is `O(direct children)` no matter how wide the leaf tier
//! grows; that is the §3.3 vbroker fan-out taken hierarchical.
//!
//! Each tier is an independent backpressure domain:
//!
//! * **Decimation** — [`RelayPolicy::deliver_every`] thins the stream
//!   before it fans further down; keyframes are exempt, because
//!   decimating one would strand every delta stream below.
//! * **Per-child send budgets** — [`RelayPolicy::default_child_budget`]
//!   caps what any one child takes per delivery, dropping the *oldest*
//!   surplus (counted in [`MonitorStats::shed`], surfaced through
//!   [`RelayReport`]). A slow edge sheds history; it never stalls a tier.
//! * **Edge keyframe cache** — the relay remembers the latest
//!   self-contained frame per channel. A late joiner is served from that
//!   cache at attach, and the request is *not* re-raised to the origin:
//!   at scale, attach churn must terminate at the edge.
//!
//! Determinism: ingest order is collector drain order, children fan out
//! in attach order via [`MonitorHub::forward_batch`] — which preserves
//! the origin's sequence numbers, so a viewer's frame digest is
//! byte-identical whether it sits on the origin or three tiers down.
//!
//! [`MonitorStats::shed`]: crate::monitor::hub::MonitorStats
//! [`LoopbackMonitor`]: crate::loopback::LoopbackMonitor

use crate::monitor::endpoint::{MonitorCaps, MonitorEndpoint};
use crate::monitor::frame::{MonitorFrame, MonitorPayload};
use crate::monitor::hub::{MonitorHub, MonitorStats};
use gridsteer_ckpt::{CkptError, SectionWriter, Snapshot};
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Per-tier forwarding policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelayPolicy {
    /// Forward every Nth ingested frame to the children (1 = all).
    /// Keyframes are always forwarded regardless of the rate.
    pub deliver_every: u32,
    /// Send budget applied to each child attached without an explicit
    /// one: at most this many due frames per delivery, oldest shed
    /// first. `None` = unbounded.
    pub default_child_budget: Option<usize>,
}

impl Default for RelayPolicy {
    fn default() -> RelayPolicy {
        RelayPolicy {
            deliver_every: 1,
            default_child_budget: None,
        }
    }
}

/// One relay tier's accounting, for scenario reports and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelayReport {
    /// Frames accepted from the parent tier.
    pub ingested: u64,
    /// Frames re-published to the children.
    pub forwarded: u64,
    /// Frames thinned by this tier's decimation rate.
    pub decimated: u64,
    /// Frames shed by per-child send budgets (summed over children).
    pub shed: u64,
    /// Cached keyframes served to late joiners at this tier.
    pub keyframes_served: u64,
}

/// This tier's mutable core.
struct RelayCore {
    policy: RelayPolicy,
    /// Ingested frames counted against the decimation rate.
    admissible: u64,
    /// Latest self-contained frame per channel — the edge keyframe
    /// cache late joiners are served from.
    cache: BTreeMap<String, MonitorFrame<'static>>,
    ingested: u64,
    forwarded: u64,
    decimated: u64,
    keyframes_served: u64,
}

/// A relay node: fed through [`RelayHub::ingest`], fanning out through
/// a child-facing hub.
pub struct RelayHub {
    core: Mutex<RelayCore>,
    children: MonitorHub,
}

impl RelayHub {
    /// A fresh relay with the given forwarding policy and no children.
    pub fn new(policy: RelayPolicy) -> RelayHub {
        RelayHub {
            core: Mutex::new(RelayCore {
                policy,
                admissible: 0,
                cache: BTreeMap::new(),
                ingested: 0,
                forwarded: 0,
                decimated: 0,
                keyframes_served: 0,
            }),
            children: MonitorHub::new(),
        }
    }

    /// The capability set a relay's uplink collector is attached under:
    /// every kind, large batches, no decimation — thinning is this
    /// tier's own policy, not the parent's. Under a parent relay the
    /// collector gets no send budget either (`attach_child_with_budget`
    /// with `None`).
    pub fn uplink_caps() -> MonitorCaps {
        MonitorCaps::full("relay", 1024)
    }

    /// Attach a child subscriber (a viewer endpoint or a deeper relay's
    /// uplink collector) under this tier's default child budget, serving
    /// any cached keyframes immediately — the late joiner decodes from
    /// here, and no request travels upstream.
    pub fn attach_child(
        &self,
        name: &str,
        ep: Box<dyn MonitorEndpoint>,
        viewer: &MonitorCaps,
    ) -> MonitorCaps {
        let budget = self.core.lock().policy.default_child_budget;
        self.attach_child_with_budget(name, ep, viewer, budget)
    }

    /// [`attach_child`](RelayHub::attach_child) with an explicit
    /// per-delivery send budget for this child.
    pub fn attach_child_with_budget(
        &self,
        name: &str,
        ep: Box<dyn MonitorEndpoint>,
        viewer: &MonitorCaps,
        budget: Option<usize>,
    ) -> MonitorCaps {
        let negotiated = self
            .children
            .attach_endpoint_with_budget(name, ep, viewer, budget);
        let cached: Vec<MonitorFrame<'static>> = {
            let core = self.core.lock();
            core.cache.values().cloned().collect()
        };
        if !cached.is_empty() {
            let served = self.children.deliver_to(name, &cached);
            self.core.lock().keyframes_served += served;
        }
        // the cache answered the join: mark the channels served so the
        // child hub never surfaces a request this tier already satisfied
        for f in &cached {
            self.children.mark_keyframe_served(name, f.payload.name());
        }
        negotiated
    }

    /// Detach child `name` (closing its endpoint and pruning its state),
    /// returning its final delivery statistics.
    pub fn detach_child(&self, name: &str) -> Option<MonitorStats> {
        self.children.detach(name)
    }

    /// Ingest a frame batch drained from this tier's uplink collector:
    /// update the keyframe cache, apply this tier's decimation, and fan
    /// the due frames out to the children with upstream sequence numbers
    /// preserved. Returns the number of frames forwarded. Tiers are fed
    /// top-down, so a parent's ingest fills its child tiers' collectors
    /// before they are drained.
    pub fn ingest(&self, frames: &[MonitorFrame]) -> u64 {
        if frames.is_empty() {
            return 0;
        }
        let due = {
            let mut core = self.core.lock();
            core.admit(frames)
        };
        if !due.is_empty() {
            self.children.forward_batch(&due);
        }
        due.len() as u64
    }

    /// Drain what child `name`'s viewer side has received.
    pub fn recv_child(&self, name: &str) -> Vec<MonitorFrame<'static>> {
        self.children.recv(name)
    }

    /// One child's delivery statistics.
    pub fn stats_of_child(&self, name: &str) -> Option<MonitorStats> {
        self.children.stats_of(name)
    }

    /// This tier's accounting snapshot.
    pub fn report(&self) -> RelayReport {
        let core = self.core.lock();
        RelayReport {
            ingested: core.ingested,
            forwarded: core.forwarded,
            decimated: core.decimated,
            shed: self.children.stats().iter().map(|(_, s)| s.shed).sum(),
            keyframes_served: core.keyframes_served,
        }
    }

    /// Serialize this tier's state under `prefix`: `{prefix}/core` holds
    /// the forwarding policy, decimation phase, accounting counters, a
    /// `u32` zero (an older layout's count of queued uplink frames) and
    /// the keyframe cache; `{prefix}/children` holds the child hub
    /// (names, caps, schedules — see [`MonitorHub::save_sections`]).
    /// Frames waiting in the tier's uplink collector are the parent's
    /// state. Scenarios run several relays, so the prefix keeps their
    /// sections distinct.
    pub fn save_sections(&self, snap: &mut Snapshot, prefix: &str) {
        let mut w = SectionWriter::new();
        let core = self.core.lock();
        w.put_u32(core.policy.deliver_every);
        w.put_bool(core.policy.default_child_budget.is_some());
        w.put_u64(core.policy.default_child_budget.unwrap_or(0) as u64);
        w.put_u64(core.admissible);
        w.put_u64(core.ingested);
        w.put_u64(core.forwarded);
        w.put_u64(core.decimated);
        w.put_u64(core.keyframes_served);
        w.put_u32(0);
        w.put_u32(core.cache.len() as u32);
        for f in core.cache.values() {
            crate::ckpt::put_frame(&mut w, f);
        }
        drop(core);
        snap.push(&format!("{prefix}/core"), 0, w.finish());
        self.children
            .save_sections(snap, &format!("{prefix}/children"));
    }

    /// Restore this tier from the `{prefix}/…` sections, rebuilding
    /// child endpoints through `resolver` (see
    /// [`MonitorHub::restore_sections`]). The keyframe cache comes back
    /// intact, so a late joiner attaching *after* a restore is still
    /// served at the edge without a request travelling upstream. A
    /// section that counts queued uplink frames is
    /// [`CkptError::Corrupt`], refused before this tier changes.
    pub fn restore_sections(
        &self,
        snap: &Snapshot,
        prefix: &str,
        resolver: &mut dyn FnMut(&str, &MonitorCaps) -> Box<dyn MonitorEndpoint>,
    ) -> Result<(), CkptError> {
        let section = format!("{prefix}/core");
        let mut r = snap.reader(&section)?;
        let deliver_every = r.get_u32()?;
        let has_budget = r.get_bool()?;
        let budget_raw = r.get_u64()?;
        let policy = RelayPolicy {
            deliver_every,
            default_child_budget: has_budget.then_some(budget_raw as usize),
        };
        let admissible = r.get_u64()?;
        let ingested = r.get_u64()?;
        let forwarded = r.get_u64()?;
        let decimated = r.get_u64()?;
        let keyframes_served = r.get_u64()?;
        if r.get_u32()? != 0 {
            return Err(CkptError::Corrupt {
                context: format!("{section}: queued uplink frames"),
            });
        }
        let ncache = r.get_u32()?;
        let mut cache = BTreeMap::new();
        for _ in 0..ncache {
            let f = crate::ckpt::get_frame(&mut r, "relay cached keyframe")?;
            cache.insert(f.payload.name().to_string(), f);
        }
        r.expect_end()?;
        self.children
            .restore_sections(snap, &format!("{prefix}/children"), resolver)?;
        let mut core = self.core.lock();
        core.policy = policy;
        core.admissible = admissible;
        core.ingested = ingested;
        core.forwarded = forwarded;
        core.decimated = decimated;
        core.keyframes_served = keyframes_served;
        core.cache = cache;
        Ok(())
    }
}

impl RelayCore {
    /// Account a batch: cache self-contained frames, decimate, return
    /// what this tier forwards.
    fn admit(&mut self, frames: &[MonitorFrame]) -> Vec<MonitorFrame<'static>> {
        let every = self.policy.deliver_every.max(1) as u64;
        let mut due = Vec::with_capacity(frames.len());
        for f in frames {
            self.ingested += 1;
            // a frame a joiner can decode with no history: any non-delta
            // payload, or an encoded frame flagged as a keyframe
            let self_contained = !matches!(
                &f.payload,
                MonitorPayload::Frame {
                    keyframe: false,
                    ..
                }
            );
            if self_contained {
                self.cache
                    .insert(f.payload.name().to_string(), f.clone().into_owned());
            }
            let take = self.admissible.is_multiple_of(every);
            self.admissible += 1;
            let keyframe = matches!(&f.payload, MonitorPayload::Frame { keyframe: true, .. });
            if take || keyframe {
                due.push(f.clone().into_owned());
            } else {
                self.decimated += 1;
            }
        }
        self.forwarded += due.len() as u64;
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{fnv1a, FNV_OFFSET};
    use crate::loopback::LoopbackMonitor;

    /// Channels held in the keyframe cache.
    fn cached(relay: &RelayHub) -> Vec<String> {
        relay.core.lock().cache.keys().cloned().collect()
    }

    fn scalar(v: f64) -> MonitorPayload<'static> {
        MonitorPayload::scalar("x", v)
    }

    fn viz_frame(keyframe: bool, tag: u8) -> MonitorPayload<'static> {
        MonitorPayload::frame("viz", keyframe, 64, vec![tag])
    }

    fn viewer_caps() -> MonitorCaps {
        MonitorCaps::full("viewer", 64)
    }

    fn collector() -> Box<dyn MonitorEndpoint> {
        Box::new(LoopbackMonitor::new())
    }

    /// Subscribe a tier's uplink collector on the origin, as both engines do.
    fn attach_uplink(origin: &MonitorHub, name: &str) {
        origin.attach_endpoint(name, collector(), &RelayHub::uplink_caps());
    }

    /// Subscribe a deeper tier's uplink collector under a parent relay.
    fn attach_uplink_under(parent: &RelayHub, name: &str) {
        parent.attach_child_with_budget(name, collector(), &RelayHub::uplink_caps(), None);
    }

    /// A fixed history: an `every(2)` tier with a budget of 8, fed scalars,
    /// a keyframe, a delta and a grid, with one late joiner served.
    fn relay_with_history() -> RelayHub {
        let origin = MonitorHub::new();
        let relay = RelayHub::new(RelayPolicy {
            deliver_every: 2,
            default_child_budget: Some(8),
        });
        attach_uplink(&origin, "r");
        relay.attach_child("leaf", collector(), &viewer_caps());
        for i in 0..5u64 {
            origin.publish(i, scalar(i as f64));
        }
        origin.publish(5, viz_frame(true, 7));
        origin.publish(5, MonitorPayload::grid2("g", 1, 2, vec![0.25, 0.5]));
        origin.publish(6, viz_frame(false, 8));
        relay.ingest(&origin.recv("r"));
        relay.attach_child("late", collector(), &viewer_caps());
        relay
    }

    fn sections(relay: &RelayHub) -> Vec<gridsteer_ckpt::Section> {
        let mut snap = gridsteer_ckpt::Snapshot::new(1, 0);
        relay.save_sections(&mut snap, "relay/r");
        snap.sections
    }

    #[test]
    fn two_tier_stream_matches_direct_attach_byte_for_byte() {
        let origin = MonitorHub::new();
        origin.attach_endpoint("direct", collector(), &viewer_caps());
        let region = RelayHub::new(RelayPolicy::default());
        attach_uplink(&origin, "region-0");
        let edge = RelayHub::new(RelayPolicy::default());
        attach_uplink_under(&region, "edge-0");
        edge.attach_child("leaf", collector(), &viewer_caps());

        for step in 0..4 {
            origin.publish_batch(
                step,
                vec![scalar(step as f64), MonitorPayload::vec3("v", [1.0; 3])],
            );
            region.ingest(&origin.recv("region-0"));
            edge.ingest(&region.recv_child("edge-0"));
        }
        let direct = origin.recv("direct");
        let relayed = edge.recv_child("leaf");
        assert_eq!(direct.len(), 8);
        assert_eq!(
            direct, relayed,
            "sequence numbers and payloads survive two tiers"
        );
        let fold = |frames: &[MonitorFrame]| (frames.iter()).fold(FNV_OFFSET, |h, f| f.fold_fnv(h));
        assert_eq!(fold(&direct), fold(&relayed), "digests byte-identical");
    }

    #[test]
    fn tier_decimation_thins_but_never_drops_keyframes() {
        let origin = MonitorHub::new();
        let relay = RelayHub::new(RelayPolicy {
            deliver_every: 3,
            default_child_budget: None,
        });
        attach_uplink(&origin, "r");
        relay.attach_child("leaf", collector(), &viewer_caps());
        for i in 0..9u64 {
            origin.publish(i, scalar(i as f64));
            // an off-phase keyframe every 3rd publish
            if i % 3 == 1 {
                origin.publish(i, viz_frame(true, i as u8));
            }
            relay.ingest(&origin.recv("r"));
        }
        let rep = relay.report();
        assert_eq!(rep.ingested, 12);
        let got = relay.recv_child("leaf");
        let keyframes = got
            .iter()
            .filter(|f| matches!(f.payload, MonitorPayload::Frame { .. }))
            .count();
        assert_eq!(keyframes, 3, "every keyframe forwarded despite decimation");
        assert_eq!(rep.forwarded as usize, got.len());
        assert!(rep.decimated > 0, "the scalar stream was thinned");
        assert_eq!(rep.ingested, rep.forwarded + rep.decimated);
    }

    #[test]
    fn child_budget_sheds_oldest_and_is_reported() {
        let origin = MonitorHub::new();
        let relay = RelayHub::new(RelayPolicy {
            deliver_every: 1,
            default_child_budget: Some(2),
        });
        attach_uplink(&origin, "r");
        relay.attach_child("slow", collector(), &viewer_caps());
        relay.attach_child_with_budget("fast", collector(), &viewer_caps(), None);
        origin.publish_batch(0, (0..5).map(|i| scalar(i as f64)).collect());
        relay.ingest(&origin.recv("r"));
        assert_eq!(relay.report().shed, 3, "5 due - default budget 2");
        let slow = relay.recv_child("slow");
        assert_eq!(slow.len(), 2);
        assert_eq!(
            relay.recv_child("fast").len(),
            5,
            "explicit unbounded budget overrides the tier default"
        );
        // the *newest* two frames survived
        let fast_tail = relay.stats_of_child("slow").unwrap();
        assert_eq!(fast_tail.shed, 3);
        assert_eq!(slow[0].seq, 4);
        assert_eq!(slow[1].seq, 5);
    }

    #[test]
    fn late_joiner_served_from_edge_cache_without_reaching_origin() {
        let origin = MonitorHub::new();
        let relay = RelayHub::new(RelayPolicy::default());
        attach_uplink(&origin, "r");
        // the relay's own attach raised the origin-side request once;
        // the producer answers it with a keyframe
        assert!(origin.take_keyframe_request("viz"));
        origin.publish(0, viz_frame(true, 1));
        origin.publish(0, MonitorPayload::grid2("g", 1, 1, vec![0.5]));
        origin.publish(1, viz_frame(false, 2)); // delta: not cacheable
        relay.ingest(&origin.recv("r"));
        assert_eq!(cached(&relay), vec!["g", "viz"]);

        // a viewer joins at the edge, long after those frames passed
        relay.attach_child("late", collector(), &viewer_caps());
        let got = relay.recv_child("late");
        assert_eq!(got.len(), 2, "cached keyframe + cached grid");
        assert!(got
            .iter()
            .any(|f| matches!(f.payload, MonitorPayload::Frame { keyframe: true, .. })));
        assert_eq!(relay.report().keyframes_served, 2);
        assert!(
            !origin.take_keyframe_request("viz"),
            "the join terminated at the edge — nothing re-raised upstream"
        );
    }

    #[test]
    fn restored_relay_keeps_cache_schedule_and_counters() {
        let origin = MonitorHub::new();
        let relay = RelayHub::new(RelayPolicy {
            deliver_every: 2,
            default_child_budget: Some(8),
        });
        attach_uplink(&origin, "r");
        relay.attach_child("leaf", collector(), &viewer_caps());
        for i in 0..5u64 {
            origin.publish(i, scalar(i as f64));
        }
        origin.publish(5, viz_frame(true, 7));
        relay.ingest(&origin.recv("r"));
        let _ = relay.recv_child("leaf");

        let mut snap = gridsteer_ckpt::Snapshot::new(1, 0);
        relay.save_sections(&mut snap, "relay/r0");
        let snap = gridsteer_ckpt::Snapshot::decode(&snap.encode()).unwrap();
        let restored = RelayHub::new(RelayPolicy::default());
        restored
            .restore_sections(&snap, "relay/r0", &mut |_, _| collector())
            .unwrap();

        assert_eq!(restored.report(), relay.report());
        assert_eq!(cached(&restored), cached(&relay));
        assert_eq!(restored.children.subscribers(), 1);
        // the decimation phase survives: the next frames thin alike
        origin.publish_batch(6, vec![scalar(6.0), scalar(7.0)]);
        let next = origin.recv("r");
        relay.ingest(&next);
        restored.ingest(&next);
        assert_eq!(restored.recv_child("leaf"), relay.recv_child("leaf"));
        assert_eq!(restored.report(), relay.report());
        // a late joiner is still served from the restored edge cache
        restored.attach_child("late", collector(), &viewer_caps());
        let got = restored.recv_child("late");
        assert_eq!(got.len(), cached(&restored).len());
    }

    #[test]
    fn the_core_section_keeps_its_bytes() {
        let relay = relay_with_history();
        let mut snap = gridsteer_ckpt::Snapshot::new(1, 0);
        relay.save_sections(&mut snap, "relay/r0");
        let core = snap.section("relay/r0/core").unwrap();
        assert_eq!(fnv1a(FNV_OFFSET, core), 0xf6c6_6d3e_a75a_9061);
    }

    #[test]
    fn a_core_section_with_queued_uplink_frames_is_corrupt_and_changes_nothing() {
        let relay = relay_with_history();
        let mut snap = gridsteer_ckpt::Snapshot::new(1, 0);
        relay.save_sections(&mut snap, "relay/r0");
        // the older layout's one unpumped frame, spliced in after the
        // policy (13 bytes) and the five counters
        let core = snap.section("relay/r0/core").unwrap().to_vec();
        let at = 4 + 1 + 8 + 8 * 5;
        assert_eq!(core[at..at + 4], [0; 4], "the queue count is always zero");
        let mut w = SectionWriter::new();
        w.put_u32(1);
        let queued = MonitorFrame {
            seq: 9,
            step: 9,
            payload: scalar(9.0),
        };
        crate::ckpt::put_frame(&mut w, &queued);
        let hostile = [&core[..at], w.as_bytes(), &core[at + 4..]].concat();
        let mut bad = gridsteer_ckpt::Snapshot::new(2, 0);
        bad.push("relay/r0/core", 0, hostile);
        for s in snap.sections.iter().filter(|s| s.name != "relay/r0/core") {
            bad.push(&s.name, s.chunk, s.bytes.clone());
        }

        let target = RelayHub::new(RelayPolicy::default());
        target.attach_child("alice", collector(), &viewer_caps());
        target.ingest(&[MonitorFrame {
            seq: 1,
            step: 0,
            payload: viz_frame(true, 1),
        }]);
        let before = (sections(&target), cached(&target), target.report());
        let err = target
            .restore_sections(&bad, "relay/r0", &mut |_, _| collector())
            .unwrap_err();
        assert!(matches!(err, CkptError::Corrupt { .. }), "{err:?}");
        assert_eq!(
            (sections(&target), cached(&target), target.report()),
            before
        );
    }

    #[test]
    fn detached_child_stops_receiving_and_frees_its_name() {
        let origin = MonitorHub::new();
        let relay = RelayHub::new(RelayPolicy::default());
        attach_uplink(&origin, "r");
        relay.attach_child("v", collector(), &viewer_caps());
        origin.publish(0, scalar(1.0));
        relay.ingest(&origin.recv("r"));
        let stats = relay.detach_child("v").unwrap();
        assert_eq!(stats.delivered, 1);
        origin.publish(1, scalar(2.0));
        relay.ingest(&origin.recv("r"));
        assert!(relay.recv_child("v").is_empty());
        assert_eq!(relay.children.subscribers(), 0);
    }

    #[test]
    fn attach_detach_cycles_leave_no_trace_in_the_section() {
        let attach = |r: &RelayHub, name: &str| {
            let caps = r.attach_child(name, collector(), &viewer_caps());
            assert_eq!(caps.max_batch, 64);
        };
        let (fresh, churned) = (
            RelayHub::new(RelayPolicy::default()),
            RelayHub::new(RelayPolicy::default()),
        );
        attach(&fresh, "alice");
        for i in 0..100 {
            let name = format!("guest{i}");
            attach(&churned, &name);
            assert!(churned.detach_child(&name).is_some());
        }
        attach(&churned, "alice");
        assert_eq!(sections(&churned), sections(&fresh));
    }
}
