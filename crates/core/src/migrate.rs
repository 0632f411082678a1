//! Mid-session migration of the computation.
//!
//! §2.4: "RealityGrid is developing the ability to migrate both
//! computation and visualization within a session without any disturbance
//! or intervention on the part of the participating clients." The
//! [`Migrator`] performs that move for the LB simulation: checkpoint at
//! the source site, ship the checkpoint over the inter-site link, resume
//! at the destination — and report the *frame gap* the participating
//! clients would observe (experiment EM1 checks it against the §4.4
//! budget). [`Migrator::frame_gap`] is the one definition of that gap:
//! the scenario engine charges its `migrate` actions through it too.
//!
//! The transfer artifact is a [`gridsteer_ckpt::Snapshot`] — the same
//! versioned, endianness-explicit format crash recovery uses — so the
//! moved byte count is the *actual* encoded size (magic, version,
//! section framing and all), not an estimate, and the destination
//! restores through the same validated decode path as a crash restore.

use gridsteer_ckpt::Snapshot;
use lbm::TwoFluidLbm;
use netsim::{Link, NetModel, SimTime, SiteId};

/// Outcome of one migration.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationReport {
    /// Source site.
    pub from: SiteId,
    /// Destination site.
    pub to: SiteId,
    /// Checkpoint size moved.
    pub checkpoint_bytes: usize,
    /// Virtual time the clients saw no new samples (checkpoint transfer +
    /// restart overhead).
    pub frame_gap: SimTime,
    /// True if the resumed run is bit-identical to an unmigrated one
    /// (verified by the caller stepping both; recorded here when checked).
    pub verified_identical: bool,
}

/// Migrates running LB computations between sites of a network model.
pub struct Migrator<'a> {
    /// The inter-site network.
    pub net: &'a NetModel,
    /// Fixed restart overhead at the destination (job start, memory
    /// population — the UNICORE re-incarnation cost).
    pub restart_overhead: SimTime,
}

impl<'a> Migrator<'a> {
    /// A migrator over `net` with a 2-second restart overhead (a batch
    /// job re-incarnation on an already-reserved node).
    pub fn new(net: &'a NetModel) -> Migrator<'a> {
        Migrator {
            net,
            restart_overhead: SimTime::from_secs(2),
        }
    }

    /// The time clients see no new samples while `bytes` of checkpoint
    /// cross `link`: the transfer (its nominal arrival if the link drops
    /// the message) plus the restart overhead.
    pub fn frame_gap(&self, mut link: Link, bytes: usize) -> SimTime {
        let arrival = link
            .deliver(SimTime::ZERO, bytes)
            .unwrap_or_else(|| link.nominal_arrival(SimTime::ZERO, bytes));
        arrival + self.restart_overhead
    }

    /// Move `sim` from `from` to `to`. Returns the resumed simulation and
    /// the report. The session's clients keep their connections; only the
    /// sample source pauses for `frame_gap`.
    pub fn migrate(
        &self,
        sim: TwoFluidLbm,
        from: SiteId,
        to: SiteId,
    ) -> (TwoFluidLbm, MigrationReport) {
        let mut snap = Snapshot::new(0, 0);
        sim.save_sections(&mut snap);
        let blob = snap.encode();
        let bytes = blob.len();
        let frame_gap = self.frame_gap(self.net.link(from, to), bytes);
        let shipped = Snapshot::decode(&blob).expect("self-encoded snapshot must decode");
        let resumed =
            TwoFluidLbm::from_snapshot(&shipped).expect("self-saved sections must restore");
        (
            resumed,
            MigrationReport {
                from,
                to,
                checkpoint_bytes: bytes,
                frame_gap,
                verified_identical: false,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm::LbmConfig;

    #[test]
    fn migration_preserves_physics_exactly() {
        let (net, ids) = NetModel::sc2003();
        let migrator = Migrator::new(&net);
        let mut reference = TwoFluidLbm::new(LbmConfig::small());
        reference.set_miscibility(0.2);
        reference.step_n(10);
        // identical twin gets migrated london → manchester mid-run
        let mut travelling = TwoFluidLbm::new(LbmConfig::small());
        travelling.set_miscibility(0.2);
        travelling.step_n(10);
        let (mut travelling, mut report) =
            migrator.migrate(travelling, ids["london"], ids["manchester"]);
        reference.step_n(10);
        travelling.step_n(10);
        report.verified_identical =
            reference.order_parameter().data() == travelling.order_parameter().data();
        assert!(report.verified_identical, "migration changed the physics");
        assert_eq!(travelling.steps(), 20);
    }

    #[test]
    fn frame_gap_scales_with_checkpoint_and_distance() {
        let (net, ids) = NetModel::sc2003();
        let migrator = Migrator::new(&net);
        let small = TwoFluidLbm::new(LbmConfig::small());
        let big = TwoFluidLbm::new(LbmConfig {
            nx: 24,
            ny: 24,
            nz: 24,
            ..LbmConfig::small()
        });
        let (_, near_small) = migrator.migrate(small, ids["manchester"], ids["london"]);
        let (_, far_big) = migrator.migrate(big, ids["manchester"], ids["phoenix"]);
        assert!(far_big.checkpoint_bytes > near_small.checkpoint_bytes);
        assert!(far_big.frame_gap > near_small.frame_gap);
    }

    #[test]
    fn frame_gap_within_simulation_budget_for_demo_scale() {
        // the §4.4 claim that migration is invisible requires the gap to
        // stay inside the 60 s simulation-loop tolerance
        let (net, ids) = NetModel::sc2003();
        let migrator = Migrator::new(&net);
        let sim = TwoFluidLbm::new(LbmConfig::default()); // 32³
        let (_, report) = migrator.migrate(sim, ids["london"], ids["manchester"]);
        assert!(
            report.frame_gap < SimTime::from_secs(60),
            "gap {} busts the §4.4 budget",
            report.frame_gap
        );
    }

    #[test]
    fn steering_parameter_survives_migration() {
        let (net, ids) = NetModel::sc2003();
        let migrator = Migrator::new(&net);
        let mut sim = TwoFluidLbm::new(LbmConfig::small());
        sim.set_miscibility(0.37);
        let (resumed, _) = migrator.migrate(sim, ids["juelich"], ids["stuttgart"]);
        assert_eq!(resumed.miscibility(), 0.37);
    }
}
