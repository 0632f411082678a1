//! Each workload's harness-expressible twin: the same backend,
//! participants, transports, viewers, relays, faults and checkpoint cadence
//! as a `Scenario`, so `Scenario::run()` is timed on the same shape of work
//! the hand-driven loop does (minus the Figure-1 branch, which the harness
//! has no action for).

use crate::load::Load;
use crate::workload::{Backend, Spec};
use crate::world::TICK;
use gridsteer_exec::ExecPool;
use gridsteer_harness::Scenario;
use lbm::LbmConfig;
use netsim::{Link, SimTime};
use pepc::{PepcConfig, TreeConfig};
use std::sync::Arc;

fn at_tick(tick: u32) -> SimTime {
    SimTime::from_nanos(TICK.as_nanos() * tick as u64)
}

/// Build the twin scenario of `spec` for `spec.twin_ticks` sample ticks.
pub fn scenario(spec: &Spec, seed: u64, pool: Arc<ExecPool>) -> Scenario {
    let mut load = Load::new(seed);
    let threads = pool.threads();
    let mut s = Scenario::named(spec.name)
        .seed(seed)
        .pool(pool)
        .shards(spec.shards)
        .sample_every(TICK)
        .steps_per_sample(spec.steps_per_tick)
        .duration(at_tick(spec.twin_ticks));
    s = match spec.backend {
        Backend::Lbm { n } => s.lbm(LbmConfig {
            nx: n,
            ny: n,
            nz: n,
            threads,
            ..LbmConfig::default()
        }),
        Backend::Pepc { n_target } => s.pepc(PepcConfig {
            n_target,
            tree: TreeConfig {
                threads,
                ..TreeConfig::default()
            },
            ..PepcConfig::small()
        }),
    };
    for p in &spec.participants {
        s = s.participant_via(p.name, Link::loopback(), p.transport);
    }
    for r in &spec.relays {
        s = match r.parent {
            None => s.relay(r.name, Link::campus()),
            Some(parent) => s.relay_under(r.name, parent, Link::campus()),
        }
        .relay_every(r.name, r.every);
    }
    for v in &spec.viewers {
        s = match v.relay {
            None => s.viewer_via(v.name, Link::uk_janet(), v.transport),
            Some(relay) => s.viewer_at_relay(v.name, relay, Link::uk_janet(), v.transport),
        };
        if v.loss_ppm > 0 {
            s = s.loss_at(SimTime::ZERO, v.name, v.loss_ppm);
        }
    }
    if let Some((relay, _, _)) = spec.partition {
        // the same kind of window, placed inside the twin's shorter run
        let from = spec.twin_ticks / 3;
        let to = from + spec.twin_ticks / 15;
        s = s
            .partition_at(at_tick(from), relay)
            .heal_at(at_tick(to), relay);
    }

    // steers land just before the sample tick that commits them; the
    // current master of each shard sends, as in the hand-driven loop
    let plan = spec.steer;
    let early = SimTime::from_millis(1);
    let members = |shard: usize| -> Vec<&'static str> {
        spec.participants
            .iter()
            .enumerate()
            .filter(|(i, _)| i % spec.shards == shard)
            .map(|(_, p)| p.name)
            .collect()
    };
    let mut master = vec![0usize; spec.shards];
    for tick in 0..spec.twin_ticks {
        let commit_at = at_tick(tick + 1);
        if let Some(every) = plan.pass_master_every {
            if tick > 0 && tick % every == 0 {
                for (shard, m) in master.iter_mut().enumerate() {
                    let names = members(shard);
                    let to = (*m + 1) % names.len();
                    s = s.pass_master_at(
                        commit_at.saturating_since(early + early),
                        names[*m],
                        names[to],
                    );
                    *m = to;
                }
            }
        }
        if tick % plan.every != 0 {
            continue;
        }
        for _ in 0..plan.batches_per_shard {
            for (shard, m) in master.iter().enumerate() {
                let who = members(shard)[*m];
                for _ in 0..plan.cmds_per_batch {
                    let (param, value) = load.next_steer(plan.ranges);
                    s = s.steer_at(commit_at.saturating_since(early), who, param, value);
                }
            }
        }
    }

    if let Some(ckpt) = spec.ckpt {
        s = s.checkpoint_every(at_tick(ckpt.cut_every));
        let mut tick = ckpt.crash_every;
        while tick < spec.twin_ticks {
            // between two sample ticks, right after the tick's cut
            let t = at_tick(tick);
            s = s
                .crash_at(t + SimTime::from_millis(10))
                .restore_at(t + SimTime::from_millis(20));
            tick += ckpt.crash_every;
        }
    }
    s
}
