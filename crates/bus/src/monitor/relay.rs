//! The hierarchical relay fabric: ROADMAP's answer to "millions of
//! viewers on one origin".
//!
//! A flat [`MonitorHub`] pays one transport envelope per subscriber per
//! publish — linear in viewer count, hopeless past a few hundred. A
//! [`RelayHub`] breaks that linearity: it subscribes to a parent hub as
//! an *ordinary endpoint* (its [`RelayHub::uplink_endpoint`] is just
//! another [`MonitorEndpoint`]), and re-publishes the stream to its own
//! children through an inner [`MonitorHub`]. Relays compose into trees —
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
//! Determinism: ingest order is uplink delivery order, children fan out
//! in attach order via [`MonitorHub::forward_batch`] — which preserves
//! the origin's sequence numbers, so a viewer's frame digest is
//! byte-identical whether it sits on the origin or three tiers down.
//!
//! [`MonitorStats::shed`]: crate::monitor::hub::MonitorStats

use crate::monitor::endpoint::{
    check_delivery, monitor_endpoint_common, FrameChunk, MonitorCaps, MonitorEndpoint, MonitorError,
};
use crate::monitor::frame::{MonitorFrame, MonitorPayload};
use crate::monitor::hub::{MonitorHub, MonitorStats};
use gridsteer_ckpt::{CkptError, SectionWriter, Snapshot};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

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

/// This tier's mutable core, shared with its uplink endpoint handles.
struct RelayCore {
    policy: RelayPolicy,
    /// Frames delivered by the parent but not yet pumped downstream
    /// (the uplink endpoint only enqueues — the parent's publish cost
    /// must not include this tier's fan-out).
    ingress: Vec<MonitorFrame<'static>>,
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

/// A relay node: parent-facing endpoint, child-facing hub. Cheap to
/// clone; all clones are one relay.
#[derive(Clone)]
pub struct RelayHub {
    core: Arc<Mutex<RelayCore>>,
    children: MonitorHub,
}

impl RelayHub {
    /// A fresh relay with the given forwarding policy and no children.
    pub fn new(policy: RelayPolicy) -> RelayHub {
        RelayHub {
            core: Arc::new(Mutex::new(RelayCore {
                policy,
                ingress: Vec::new(),
                admissible: 0,
                cache: BTreeMap::new(),
                ingested: 0,
                forwarded: 0,
                decimated: 0,
                keyframes_served: 0,
            })),
            children: MonitorHub::new(),
        }
    }

    /// The capability set a relay's uplink presents: every kind, large
    /// batches, no decimation — thinning is this tier's own policy, not
    /// the parent's.
    pub fn uplink_caps() -> MonitorCaps {
        MonitorCaps::full("relay", 1024)
    }

    /// A parent-facing endpoint for this relay. Deliveries enqueue into
    /// the relay's ingress buffer and return immediately — the parent
    /// pays an envelope, never this tier's downstream fan-out. Drain
    /// with [`RelayHub::pump`].
    pub fn uplink_endpoint(&self) -> Box<dyn MonitorEndpoint> {
        Box::new(RelayUplink {
            caps: Self::uplink_caps(),
            core: self.core.clone(),
        })
    }

    /// Attach this relay under a parent [`MonitorHub`] as subscriber
    /// `name`. Returns the negotiated capability set.
    pub fn attach_to(&self, parent: &MonitorHub, name: &str) -> MonitorCaps {
        parent.attach_endpoint(name, self.uplink_endpoint(), &Self::uplink_caps())
    }

    /// Attach this relay under a parent *relay* as child `name` — tree
    /// composition. Returns the negotiated capability set.
    pub fn attach_under(&self, parent: &RelayHub, name: &str) -> MonitorCaps {
        parent.attach_child(name, self.uplink_endpoint(), &Self::uplink_caps())
    }

    /// Attach a child subscriber (a viewer endpoint or a deeper relay's
    /// uplink) under this tier's default child budget, serving any
    /// cached keyframes immediately — the late joiner decodes from here,
    /// and no request travels upstream.
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

    /// Ingest a frame batch from the parent tier *now*: update the
    /// keyframe cache, apply this tier's decimation, and fan the due
    /// frames out to the children with upstream sequence numbers
    /// preserved. Returns the number of frames forwarded. (The uplink
    /// endpoint path defers this — see [`RelayHub::pump`].)
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

    /// Drain the ingress buffer (frames the parent delivered through the
    /// uplink endpoint) and ingest it. Tiers are pumped top-down — a
    /// parent's pump fills its children's ingress buffers through their
    /// uplinks, then the children pump. Returns frames forwarded.
    pub fn pump(&self) -> u64 {
        let staged = std::mem::take(&mut self.core.lock().ingress);
        self.ingest(&staged)
    }

    /// Drain what child `name`'s viewer side has received.
    pub fn recv_child(&self, name: &str) -> Vec<MonitorFrame<'static>> {
        self.children.recv(name)
    }

    /// One child's delivery statistics.
    pub fn stats_of_child(&self, name: &str) -> Option<MonitorStats> {
        self.children.stats_of(name)
    }

    /// Number of attached children.
    pub fn children_count(&self) -> usize {
        self.children.subscribers()
    }

    /// Channels currently held in the keyframe cache.
    pub fn cached_channels(&self) -> Vec<String> {
        self.core.lock().cache.keys().cloned().collect()
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
    /// the forwarding policy, decimation phase, keyframe cache, unpumped
    /// ingress frames and accounting counters; `{prefix}/children` holds
    /// the child hub (names, caps, schedules — see
    /// [`MonitorHub::save_sections`]). Scenarios run several relays, so
    /// the prefix keeps their sections distinct.
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
        w.put_u32(core.ingress.len() as u32);
        for f in &core.ingress {
            crate::ckpt::put_frame(&mut w, f);
        }
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
    /// served at the edge without a request travelling upstream.
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
        let ningress = r.get_u32()?;
        let mut ingress = Vec::new();
        for _ in 0..ningress {
            ingress.push(crate::ckpt::get_frame(&mut r, "relay ingress frame")?);
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
        core.ingress = ingress;
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

/// The parent-facing endpoint half of a [`RelayHub`].
struct RelayUplink {
    caps: MonitorCaps,
    core: Arc<Mutex<RelayCore>>,
}

impl MonitorEndpoint for RelayUplink {
    monitor_endpoint_common!();

    fn deliver(&mut self, chunk: &FrameChunk<'_>) -> Result<usize, MonitorError> {
        check_delivery(&self.caps, chunk)?;
        self.core
            .lock()
            .ingress
            .extend(chunk.iter().map(|f| f.clone().into_owned()));
        Ok(chunk.len())
    }

    fn recv(&mut self) -> Vec<MonitorFrame<'static>> {
        // the relay is a pass-through, not a viewer: frames leave
        // through the child hub, never back out of the uplink
        Vec::new()
    }

    fn close(&mut self) {
        // the parent detached this relay: frames it delivered but the
        // relay never pumped are gone with the uplink
        self.core.lock().ingress.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::LoopbackMonitor;

    fn scalar(v: f64) -> MonitorPayload<'static> {
        MonitorPayload::scalar("x", v)
    }

    fn viz_frame(keyframe: bool, tag: u8) -> MonitorPayload<'static> {
        MonitorPayload::frame("viz", keyframe, 64, vec![tag])
    }

    fn viewer_caps() -> MonitorCaps {
        MonitorCaps::full("viewer", 64)
    }

    #[test]
    fn two_tier_stream_matches_direct_attach_byte_for_byte() {
        let origin = MonitorHub::new();
        origin.attach_endpoint("direct", Box::new(LoopbackMonitor::new()), &viewer_caps());
        let region = RelayHub::new(RelayPolicy::default());
        region.attach_to(&origin, "region-0");
        let edge = RelayHub::new(RelayPolicy::default());
        edge.attach_under(&region, "edge-0");
        edge.attach_child("leaf", Box::new(LoopbackMonitor::new()), &viewer_caps());

        for step in 0..4 {
            origin.publish_batch(
                step,
                vec![scalar(step as f64), MonitorPayload::vec3("v", [1.0; 3])],
            );
            region.pump();
            edge.pump();
        }
        let direct = origin.recv("direct");
        let relayed = edge.recv_child("leaf");
        assert_eq!(direct.len(), 8);
        assert_eq!(
            direct, relayed,
            "sequence numbers and payloads survive two tiers"
        );
        let fold = |frames: &[MonitorFrame]| {
            (frames.iter()).fold(crate::log::FNV_OFFSET, |h, f| f.fold_fnv(h))
        };
        assert_eq!(fold(&direct), fold(&relayed), "digests byte-identical");
    }

    #[test]
    fn tier_decimation_thins_but_never_drops_keyframes() {
        let origin = MonitorHub::new();
        let relay = RelayHub::new(RelayPolicy {
            deliver_every: 3,
            default_child_budget: None,
        });
        relay.attach_to(&origin, "r");
        relay.attach_child("leaf", Box::new(LoopbackMonitor::new()), &viewer_caps());
        for i in 0..9u64 {
            origin.publish(i, scalar(i as f64));
            // an off-phase keyframe every 3rd publish
            if i % 3 == 1 {
                origin.publish(i, viz_frame(true, i as u8));
            }
            relay.pump();
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
        relay.attach_to(&origin, "r");
        relay.attach_child("slow", Box::new(LoopbackMonitor::new()), &viewer_caps());
        relay.attach_child_with_budget(
            "fast",
            Box::new(LoopbackMonitor::new()),
            &viewer_caps(),
            None,
        );
        origin.publish_batch(0, (0..5).map(|i| scalar(i as f64)).collect());
        relay.pump();
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
        relay.attach_to(&origin, "r");
        // the relay's own attach raised the origin-side request once;
        // the producer answers it with a keyframe
        assert!(origin.take_keyframe_request("viz"));
        origin.publish(0, viz_frame(true, 1));
        origin.publish(0, MonitorPayload::grid2("g", 1, 1, vec![0.5]));
        origin.publish(1, viz_frame(false, 2)); // delta: not cacheable
        relay.pump();
        assert_eq!(relay.cached_channels(), vec!["g", "viz"]);

        // a viewer joins at the edge, long after those frames passed
        relay.attach_child("late", Box::new(LoopbackMonitor::new()), &viewer_caps());
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
    fn uplink_delivery_only_enqueues_until_pumped() {
        let origin = MonitorHub::new();
        let relay = RelayHub::new(RelayPolicy::default());
        relay.attach_to(&origin, "r");
        relay.attach_child("leaf", Box::new(LoopbackMonitor::new()), &viewer_caps());
        origin.publish(0, scalar(1.0));
        assert!(
            relay.recv_child("leaf").is_empty(),
            "nothing fans out on the parent's publish path"
        );
        assert_eq!(relay.pump(), 1);
        assert_eq!(relay.recv_child("leaf").len(), 1);
        assert_eq!(relay.pump(), 0, "ingress drained");
    }

    #[test]
    fn restored_relay_keeps_cache_schedule_and_counters() {
        let origin = MonitorHub::new();
        let relay = RelayHub::new(RelayPolicy {
            deliver_every: 2,
            default_child_budget: Some(8),
        });
        relay.attach_to(&origin, "r");
        relay.attach_child("leaf", Box::new(LoopbackMonitor::new()), &viewer_caps());
        for i in 0..5u64 {
            origin.publish(i, scalar(i as f64));
        }
        origin.publish(5, viz_frame(true, 7));
        relay.pump();
        let _ = relay.recv_child("leaf");
        // one frame delivered through the uplink but not yet pumped —
        // the checkpoint must carry it or the restored run loses it
        origin.publish(6, scalar(6.0));

        let mut snap = gridsteer_ckpt::Snapshot::new(1, 0);
        relay.save_sections(&mut snap, "relay/r0");
        let snap = gridsteer_ckpt::Snapshot::decode(&snap.encode()).unwrap();
        let restored = RelayHub::new(RelayPolicy::default());
        restored
            .restore_sections(&snap, "relay/r0", &mut |_, _| {
                Box::new(LoopbackMonitor::new())
            })
            .unwrap();

        assert_eq!(restored.report(), relay.report());
        assert_eq!(restored.cached_channels(), relay.cached_channels());
        assert_eq!(restored.children_count(), 1);
        // the unpumped ingress frame survives and fans out after restore
        relay.pump();
        restored.pump();
        assert_eq!(restored.recv_child("leaf"), relay.recv_child("leaf"));
        assert_eq!(restored.report(), relay.report());
        // a late joiner is still served from the restored edge cache
        restored.attach_child("late", Box::new(LoopbackMonitor::new()), &viewer_caps());
        let got = restored.recv_child("late");
        assert_eq!(got.len(), restored.cached_channels().len());
    }

    #[test]
    fn detached_child_stops_receiving_and_frees_its_name() {
        let origin = MonitorHub::new();
        let relay = RelayHub::new(RelayPolicy::default());
        relay.attach_to(&origin, "r");
        relay.attach_child("v", Box::new(LoopbackMonitor::new()), &viewer_caps());
        origin.publish(0, scalar(1.0));
        relay.pump();
        let stats = relay.detach_child("v").unwrap();
        assert_eq!(stats.delivered, 1);
        origin.publish(1, scalar(2.0));
        relay.pump();
        assert!(relay.recv_child("v").is_empty());
        assert_eq!(relay.children_count(), 0);
    }

    #[test]
    fn attach_detach_cycles_leave_no_trace_in_the_section() {
        let sections = |r: &RelayHub| {
            let mut snap = gridsteer_ckpt::Snapshot::new(1, 0);
            r.save_sections(&mut snap, "relay/r");
            snap.sections
        };
        let attach = |r: &RelayHub, name: &str| {
            let caps = r.attach_child(name, Box::new(LoopbackMonitor::new()), &viewer_caps());
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
