//! Structured scenario outcomes with a byte-stable digest.
//!
//! The seed/digest contract: a [`ScenarioReport`] renders to a canonical
//! text form ([`ScenarioReport::render`]) whose bytes are identical for
//! identical `(scenario, seed)` pairs — no wall-clock, no hash-map
//! iteration order, no float formatting drift. [`ScenarioReport::digest`]
//! is an FNV-1a 64 over that rendering; regression tests pin a scenario's
//! behaviour by pinning the digest.

use gridsteer_bus::{fnv1a, FNV_OFFSET};
use netsim::{LinkStats, SimTime};
use std::fmt;

/// One mid-run migration of the computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationRecord {
    /// Source site name.
    pub from: String,
    /// Destination site name.
    pub to: String,
    /// Checkpoint bytes moved.
    pub bytes: usize,
    /// Virtual time the sample stream was paused.
    pub gap: SimTime,
}

/// One relay tier's outcome: what crossed its uplink and what its own
/// decimation/backpressure did to the stream before it fanned further
/// down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelayRecord {
    /// Relay name.
    pub name: String,
    /// Parent relay (`None` = fed directly by the origin hub).
    pub parent: Option<String>,
    /// Frames that survived the uplink and were ingested by this tier.
    pub ingested: u64,
    /// Frames re-published to this tier's children.
    pub forwarded: u64,
    /// Frames thinned by this tier's decimation rate.
    pub decimated: u64,
    /// Frames shed by per-child send budgets at this tier.
    pub shed: u64,
    /// Cached keyframes served to late joiners at this tier.
    pub keyframes_served: u64,
    /// Frames lost on the uplink (drop / partition).
    pub uplink_dropped: u64,
}

/// One monitor-bus viewer's outcome: what it received over its transport
/// and how the deliveries scored against its reaction-time budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewerRecord {
    /// Viewer name.
    pub name: String,
    /// Monitor transport label ("loopback", "visit", …).
    pub transport: &'static str,
    /// The `LoopBudget` the viewer's deliveries are scored against
    /// (its stable name).
    pub budget: &'static str,
    /// Frames that arrived over the viewer's link.
    pub delivered: u64,
    /// Frames lost on the link (drop / partition).
    pub dropped: u64,
    /// Admissible frames the hub skipped per the negotiated decimation.
    pub decimated: u64,
    /// Frames whose kind is outside the negotiated capability set.
    pub filtered: u64,
    /// Deliveries that busted the budget.
    pub budget_violations: u64,
    /// Worst delivery latency.
    pub max_latency: SimTime,
    /// FNV-1a 64 over the received frames' canonical bytes, in arrival
    /// order — the byte-stable fold of everything this viewer saw.
    pub frames_digest: String,
}

/// Everything one deterministic scenario run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// The seed the run was driven by.
    pub seed: u64,
    /// Backend kind ("lbm" / "pepc").
    pub backend: &'static str,
    /// Sample broadcasts executed.
    pub broadcasts: u64,
    /// Sample ticks skipped during migration blackouts.
    pub broadcasts_skipped: u64,
    /// Median per-participant sample delivery latency.
    pub p50: SimTime,
    /// 90th-percentile latency.
    pub p90: SimTime,
    /// 99th-percentile latency.
    pub p99: SimTime,
    /// Worst latency.
    pub max: SimTime,
    /// Worst cross-participant arrival skew within one broadcast.
    pub max_skew: SimTime,
    /// True if every delivery met the §4.3 post-processing budget.
    pub within_budget: bool,
    /// True if every skew met the divergence bound.
    pub within_skew: bool,
    /// Deliveries that busted the §4.3 post-processing budget.
    pub post_budget_violations: u64,
    /// Steers that reached the session and were applied to the backend.
    pub steers_applied: u64,
    /// Steers lost in transit (drop/partition) or to a vanished sender.
    pub steers_lost: u64,
    /// Monitor frames published on the bus over the whole run.
    pub monitor_frames: u64,
    /// Per-viewer monitor outcomes, in declaration order.
    pub viewers: Vec<ViewerRecord>,
    /// Per-relay-tier outcomes, in declaration order (parents first).
    pub relays: Vec<RelayRecord>,
    /// Mid-run migrations, in order.
    pub migrations: Vec<MigrationRecord>,
    /// Per-participant link statistics, in join order.
    pub links: Vec<(String, LinkStats)>,
    /// The session's ordered audit log, rendered.
    pub session_events: Vec<String>,
    /// Engine-level events (faults, losses, migrations), timestamped.
    pub engine_events: Vec<String>,
    /// Backend progress (simulation steps) at the end of the run.
    pub final_progress: u64,
    /// Invariant-oracle probe violations observed during the run
    /// (master-token uniqueness, monitor seq monotonicity, stale-seq
    /// commits). Deliberately NOT part of [`ScenarioReport::render`]:
    /// probes must never move a digest. Empty on every healthy run.
    pub probe_violations: Vec<String>,
}

impl ScenarioReport {
    /// Total messages dropped across all participant links.
    pub fn total_drops(&self) -> u64 {
        self.links.iter().map(|(_, s)| s.dropped).sum()
    }

    /// Total messages delivered across all participant links.
    pub fn total_deliveries(&self) -> u64 {
        self.links.iter().map(|(_, s)| s.delivered).sum()
    }

    /// True if every migration gap stayed inside the §4.4 simulation-loop
    /// tolerance (vacuously true with no migrations).
    pub fn migrations_within_budget(&self) -> bool {
        self.migrations
            .iter()
            .all(|m| m.gap < SimTime::from_secs(60))
    }

    /// True if every viewer met its reaction-time budget on every
    /// delivery (vacuously true with no viewers).
    pub fn viewers_within_budget(&self) -> bool {
        self.viewers.iter().all(|v| v.budget_violations == 0)
    }

    /// One viewer's record by name.
    pub fn viewer(&self, name: &str) -> Option<&ViewerRecord> {
        self.viewers.iter().find(|v| v.name == name)
    }

    /// One relay tier's record by name.
    pub fn relay(&self, name: &str) -> Option<&RelayRecord> {
        self.relays.iter().find(|r| r.name == name)
    }

    /// Canonical text rendering — the digest's input. Byte-stable for a
    /// given `(scenario, seed)`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        use fmt::Write;
        let _ = writeln!(
            out,
            "scenario={} seed={} backend={}",
            self.name, self.seed, self.backend
        );
        let _ = writeln!(
            out,
            "broadcasts={} skipped={} deliveries={} drops={}",
            self.broadcasts,
            self.broadcasts_skipped,
            self.total_deliveries(),
            self.total_drops()
        );
        let _ = writeln!(
            out,
            "latency p50={} p90={} p99={} max={} skew={} budget={} skew_ok={} violations={}",
            self.p50,
            self.p90,
            self.p99,
            self.max,
            self.max_skew,
            self.within_budget,
            self.within_skew,
            self.post_budget_violations
        );
        let _ = writeln!(
            out,
            "steers applied={} lost={}",
            self.steers_applied, self.steers_lost
        );
        let _ = writeln!(out, "monitor frames={}", self.monitor_frames);
        for v in &self.viewers {
            let _ = writeln!(
                out,
                "viewer {} transport={} budget={} delivered={} dropped={} decimated={} \
                 filtered={} violations={} max={} digest={}",
                v.name,
                v.transport,
                v.budget,
                v.delivered,
                v.dropped,
                v.decimated,
                v.filtered,
                v.budget_violations,
                v.max_latency,
                v.frames_digest
            );
        }
        for r in &self.relays {
            let _ = writeln!(
                out,
                "relay {} parent={} ingested={} forwarded={} decimated={} shed={} \
                 keyframes={} uplink_dropped={}",
                r.name,
                r.parent.as_deref().unwrap_or("origin"),
                r.ingested,
                r.forwarded,
                r.decimated,
                r.shed,
                r.keyframes_served,
                r.uplink_dropped
            );
        }
        for m in &self.migrations {
            let _ = writeln!(
                out,
                "migration from={} to={} bytes={} gap={}",
                m.from, m.to, m.bytes, m.gap
            );
        }
        for (name, s) in &self.links {
            let _ = writeln!(
                out,
                "link {} delivered={} dropped={}",
                name, s.delivered, s.dropped
            );
        }
        for e in &self.session_events {
            let _ = writeln!(out, "session {e}");
        }
        for e in &self.engine_events {
            let _ = writeln!(out, "engine {e}");
        }
        let _ = writeln!(out, "progress={}", self.final_progress);
        out
    }

    /// FNV-1a 64 digest of [`ScenarioReport::render`], as 16 hex digits.
    pub fn digest(&self) -> String {
        let h = fnv1a(FNV_OFFSET, self.render().as_bytes());
        format!("{h:016x}")
    }
}

impl fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ScenarioReport {
        ScenarioReport {
            name: "t".into(),
            seed: 1,
            backend: "lbm",
            broadcasts: 10,
            broadcasts_skipped: 1,
            p50: SimTime::from_millis(5),
            p90: SimTime::from_millis(7),
            p99: SimTime::from_millis(9),
            max: SimTime::from_millis(9),
            max_skew: SimTime::from_millis(2),
            within_budget: true,
            within_skew: true,
            post_budget_violations: 0,
            steers_applied: 2,
            steers_lost: 1,
            monitor_frames: 12,
            viewers: vec![ViewerRecord {
                name: "desk".into(),
                transport: "visit",
                budget: "desktop-render",
                delivered: 11,
                dropped: 1,
                decimated: 0,
                filtered: 2,
                budget_violations: 0,
                max_latency: SimTime::from_millis(80),
                frames_digest: "00000000deadbeef".into(),
            }],
            relays: vec![RelayRecord {
                name: "region-0".into(),
                parent: None,
                ingested: 12,
                forwarded: 10,
                decimated: 2,
                shed: 1,
                keyframes_served: 1,
                uplink_dropped: 0,
            }],
            migrations: vec![MigrationRecord {
                from: "london".into(),
                to: "manchester".into(),
                bytes: 1000,
                gap: SimTime::from_secs(3),
            }],
            links: vec![(
                "alice".into(),
                LinkStats {
                    delivered: 9,
                    dropped: 1,
                },
            )],
            session_events: vec!["Joined(alice)".into()],
            engine_events: vec!["1.000s partition alice".into()],
            final_progress: 10,
            probe_violations: Vec::new(),
        }
    }

    #[test]
    fn digest_is_stable_across_calls() {
        let r = sample_report();
        assert_eq!(r.digest(), r.digest());
        assert_eq!(r.digest().len(), 16);
    }

    #[test]
    fn digest_changes_with_any_field() {
        let r = sample_report();
        let mut r2 = r.clone();
        r2.steers_lost += 1;
        assert_ne!(r.digest(), r2.digest());
        let mut r3 = r.clone();
        r3.seed = 2;
        assert_ne!(r.digest(), r3.digest());
    }

    #[test]
    fn probe_violations_never_move_the_digest() {
        let r = sample_report();
        let mut v = r.clone();
        v.probe_violations
            .push("1.000s shard 0: 2 masters among 3 participants".into());
        assert_eq!(r.digest(), v.digest(), "probes must stay out of render()");
        assert!(!v.render().contains("masters"));
    }

    #[test]
    fn render_contains_every_section() {
        let text = sample_report().render();
        for needle in [
            "scenario=t seed=1 backend=lbm",
            "broadcasts=10 skipped=1 deliveries=9 drops=1",
            "skew_ok=true violations=0",
            "steers applied=2 lost=1",
            "monitor frames=12",
            "viewer desk transport=visit budget=desktop-render delivered=11 dropped=1 \
             decimated=0 filtered=2 violations=0 max=80.000ms digest=00000000deadbeef",
            "relay region-0 parent=origin ingested=12 forwarded=10 decimated=2 shed=1 \
             keyframes=1 uplink_dropped=0",
            "migration from=london to=manchester bytes=1000 gap=3.000s",
            "link alice delivered=9 dropped=1",
            "session Joined(alice)",
            "engine 1.000s partition alice",
            "progress=10",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn totals_and_migration_budget() {
        let r = sample_report();
        assert_eq!(r.total_deliveries(), 9);
        assert_eq!(r.total_drops(), 1);
        assert!(r.migrations_within_budget());
        let mut slow = r.clone();
        slow.migrations[0].gap = SimTime::from_secs(90);
        assert!(!slow.migrations_within_budget());
    }

    #[test]
    fn viewer_budget_helpers() {
        let r = sample_report();
        assert!(r.viewers_within_budget());
        assert_eq!(r.viewer("desk").unwrap().delivered, 11);
        assert!(r.viewer("ghost").is_none());
        assert_eq!(r.relay("region-0").unwrap().forwarded, 10);
        assert!(r.relay("edge-9").is_none());
        let mut busted = r.clone();
        busted.viewers[0].budget_violations = 2;
        assert!(!busted.viewers_within_budget());
        assert_ne!(busted.digest(), r.digest(), "violations are in the digest");
    }

    #[test]
    fn display_matches_render() {
        let r = sample_report();
        assert_eq!(format!("{r}"), r.render());
    }
}
