//! The seeded scenario generator.
//!
//! [`generate`] maps `(seed, FuzzConfig)` to one random-but-**valid**
//! [`Scenario`]: every emitted script passes
//! [`Scenario::validate`](gridsteer_harness::Scenario::validate) by
//! construction. Validity is structural, not behavioral — actions may
//! reference participants that already left, partition a relay uplink
//! forever, or steer an unknown parameter; the engine records those as
//! misses and the oracle's invariants must hold regardless.
//!
//! Crash/restore chains are the one behaviorally-constrained shape: a
//! scenario gets a chain only in the *clean* form the `crash-restore`
//! invariant can judge (see [`crate::oracle::clean_crash_chain`]) — the
//! checkpoint cadence divides the sample interval's multiples, the single
//! crash/restore pair sits strictly inside one sample window whose start
//! is a checkpoint cut, no migrations, and every other action lands at
//! least [`crate::oracle::CHAIN_MARGIN`] before the cut so nothing is
//! still in flight when the process dies.

use crate::oracle::CHAIN_MARGIN;
use gridsteer_harness::{Scenario, Transport};
use lbm::LbmConfig;
use netsim::{Link, SimTime};
use pepc::PepcConfig;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use steer_core::LoopBudget;

/// Knobs bounding what [`generate`] may emit. The defaults match the CI
/// soak profile; tests shrink them for speed.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Participants declared at t=0 (at least 1).
    pub max_participants: usize,
    /// Viewers declared at t=0.
    pub max_viewers: usize,
    /// Relay tiers declared at t=0.
    pub max_relays: usize,
    /// Scheduled mid-run actions.
    pub max_actions: usize,
    /// Probability a scenario is a clean checkpoint/crash/restore chain.
    pub crash_chain_prob: f64,
    /// Probability the backend is PEPC rather than LBM.
    pub pepc_prob: f64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            max_participants: 4,
            max_viewers: 3,
            max_relays: 2,
            max_actions: 10,
            crash_chain_prob: 0.3,
            pepc_prob: 0.25,
        }
    }
}

/// The steerable parameters per backend: `(name, lo, hi)`. Mostly the real
/// registry; the generator occasionally strays outside it on purpose
/// (unknown parameters must be refused gracefully, not crash the run).
const LBM_PARAMS: &[(&str, f64, f64)] = &[("miscibility", 0.0, 1.0)];
const PEPC_PARAMS: &[(&str, f64, f64)] = &[
    ("beam_intensity", 0.0, 100.0),
    ("laser_amplitude", 0.0, 100.0),
    ("damping", 0.0, 1.0),
];

/// The sc2003 testbed sites migrations shuttle between.
const SITES: &[&str] = &[
    "manchester",
    "london",
    "sheffield",
    "juelich",
    "stuttgart",
    "phoenix",
];

fn pick_link(rng: &mut StdRng) -> Link {
    match rng.gen_range(0..7u8) {
        0 => Link::loopback(),
        1 => Link::builder().build(), // the LAN default
        2 => Link::campus(),
        3 => Link::uk_janet(),
        4 => Link::gwin(),
        5 => Link::wan(),
        _ => Link::transatlantic(),
    }
}

fn pick_transport(rng: &mut StdRng) -> Transport {
    Transport::ALL[rng.gen_range(0..Transport::ALL.len())]
}

fn pick<'a>(rng: &mut StdRng, pool: &'a [String]) -> &'a str {
    &pool[rng.gen_range(0..pool.len())]
}

/// Deterministically generate one valid scenario from a seed.
///
/// Same `(seed, cfg)` ⇒ the same scenario, byte for byte (compare
/// `to_script()` output). Every returned scenario satisfies
/// `validate().is_ok()`.
pub fn generate(seed: u64, cfg: &FuzzConfig) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = Scenario::named(&format!("fuzz-{seed:08x}")).seed(rng.next_u64());

    // --- backend ---------------------------------------------------------
    let pepc = rng.gen_bool(cfg.pepc_prob);
    let params = if pepc {
        let n_target = rng.gen_range(60..=150usize);
        let ranks = rng.gen_range(1..=4u16);
        s = s.pepc(PepcConfig {
            n_target,
            ranks,
            ..PepcConfig::default()
        });
        PEPC_PARAMS
    } else {
        let n = rng.gen_range(6..=8usize);
        s = s.lbm(LbmConfig {
            nx: n,
            ny: n,
            nz: n,
            ..LbmConfig::default()
        });
        LBM_PARAMS
    };

    // --- clock -----------------------------------------------------------
    let sample = SimTime::from_millis(if rng.gen_bool(0.5) { 50 } else { 100 });
    let sns = sample.as_nanos();
    let ticks = rng.gen_range(4..=10u64);
    let duration = SimTime::from_nanos(ticks * sns);
    s = s.sample_every(sample).duration(duration);
    if rng.gen_bool(0.25) {
        s = s.steps_per_sample(2);
    }
    if rng.gen_bool(0.3) {
        s = s.shards(rng.gen_range(2..=3usize));
    }

    // --- crash-chain plan (decided early: it bounds action times) --------
    // `(checkpoint_every, window_start, crash_at, restore_at)`
    let mut chain = None;
    if rng.gen_bool(cfg.crash_chain_prob) {
        let ck_mult = rng.gen_range(1..=2u64);
        // last tick that is a checkpoint cut AND starts a full window
        let ws_idx = ((ticks - 1) / ck_mult) * ck_mult;
        // the cut must leave room for the quiet margin, or every action
        // (even at t=0) would dirty the chain
        if ws_idx >= ck_mult && ws_idx * sns >= CHAIN_MARGIN.as_nanos() {
            let ws = ws_idx * sns;
            chain = Some((
                SimTime::from_nanos(ck_mult * sns),
                SimTime::from_nanos(ws),
                SimTime::from_nanos(ws + sns / 5),
                SimTime::from_nanos(ws + 2 * sns / 5),
            ));
        }
    }
    let t_max_ms = match chain {
        Some((_, ws, _, _)) => ws.as_nanos().saturating_sub(CHAIN_MARGIN.as_nanos()) / 1_000_000,
        None => duration.as_nanos() / 1_000_000,
    };

    // --- topology ---------------------------------------------------------
    let n_p = rng.gen_range(1..=cfg.max_participants.max(1));
    for i in 0..n_p {
        let name = format!("p{i}");
        s = s.participant(&name, pick_link(&mut rng));
        if rng.gen_bool(0.5) {
            s = s.route(&name, pick_transport(&mut rng));
        }
    }
    let n_r = rng.gen_range(0..=cfg.max_relays);
    for i in 0..n_r {
        let name = format!("r{i}");
        if i == 0 || rng.gen_bool(0.5) {
            s = s.relay(&name, pick_link(&mut rng));
        } else {
            let parent = format!("r{}", rng.gen_range(0..i));
            s = s.relay_under(&name, &parent, pick_link(&mut rng));
        }
        if rng.gen_bool(0.5) {
            s = s.relay_every(&name, rng.gen_range(2..=3u32));
        }
        if rng.gen_bool(0.3) {
            s = s.relay_child_budget(&name, rng.gen_range(1..=4usize));
        }
    }
    let n_v = rng.gen_range(0..=cfg.max_viewers);
    for i in 0..n_v {
        let name = format!("v{i}");
        let transport = pick_transport(&mut rng);
        if n_r > 0 && rng.gen_bool(0.4) {
            let relay = format!("r{}", rng.gen_range(0..n_r));
            s = s.viewer_at_relay(&name, &relay, pick_link(&mut rng), transport);
        } else {
            let budget = match rng.gen_range(0..3u8) {
                0 => LoopBudget::VrRender,
                1 => LoopBudget::DesktopRender,
                _ => LoopBudget::PostProcessing,
            };
            s = s.viewer_with_budget(&name, pick_link(&mut rng), transport, budget);
        }
        if rng.gen_bool(0.4) {
            s = s.viewer_every(&name, rng.gen_range(2..=3u32));
        }
    }

    // --- actions ----------------------------------------------------------
    // Name pools deliberately overshoot the declared topology: the extras
    // are mid-run joiners, and references to never-joined names exercise
    // the engine's miss paths.
    let pool_p: Vec<String> = (0..n_p + 2).map(|i| format!("p{i}")).collect();
    let pool_v: Vec<String> = (0..n_v + 2).map(|i| format!("v{i}")).collect();
    let mut fault_names = pool_p.clone();
    fault_names.extend((0..n_v).map(|i| format!("v{i}")));
    fault_names.extend((0..n_r).map(|i| format!("r{i}")));

    let n_a = rng.gen_range(0..=cfg.max_actions);
    for _ in 0..n_a {
        let t = SimTime::from_millis(rng.gen_range(0..=t_max_ms));
        let mut roll = rng.gen_range(0..100u32);
        if chain.is_some() && (87..=91).contains(&roll) {
            roll = 0; // no migrations inside a clean chain: steer instead
        }
        s = match roll {
            0..=24 => {
                let (param, lo, hi) = params[rng.gen_range(0..params.len())];
                let param = if rng.gen_bool(0.05) {
                    "warp_factor"
                } else {
                    param
                };
                let value = rng.gen_range(lo..=hi);
                let who = pick(&mut rng, &pool_p).to_string();
                s.steer_at(t, &who, param, value)
            }
            25..=34 => {
                let who = pick(&mut rng, &pool_p).to_string();
                let link = pick_link(&mut rng);
                s.join_at(t, &who, link)
            }
            35..=44 => {
                let who = pick(&mut rng, &pool_p).to_string();
                s.leave_at(t, &who)
            }
            45..=52 => {
                let from = pick(&mut rng, &pool_p).to_string();
                let to = pick(&mut rng, &pool_p).to_string();
                s.pass_master_at(t, &from, &to)
            }
            53..=60 => {
                let who = pick(&mut rng, &fault_names).to_string();
                s.partition_at(t, &who)
            }
            61..=68 => {
                let who = pick(&mut rng, &fault_names).to_string();
                s.heal_at(t, &who)
            }
            69..=78 => {
                let who = pick(&mut rng, &fault_names).to_string();
                s.loss_at(t, &who, rng.gen_range(10_000..=400_000u32))
            }
            79..=86 => {
                let who = pick(&mut rng, &fault_names).to_string();
                s.jitter_at(t, &who, SimTime::from_millis(rng.gen_range(1..=40u64)))
            }
            87..=91 => {
                let from = SITES[rng.gen_range(0..SITES.len())];
                let to = SITES[rng.gen_range(0..SITES.len())];
                s.migrate_at(t, from, to)
            }
            92..=95 => {
                let who = pick(&mut rng, &pool_v).to_string();
                s.viewer_leave_at(t, &who)
            }
            _ => {
                let who = pick(&mut rng, &pool_v).to_string();
                let link = pick_link(&mut rng);
                let transport = pick_transport(&mut rng);
                if n_r > 0 && rng.gen_bool(0.4) {
                    let relay = format!("r{}", rng.gen_range(0..n_r));
                    s.viewer_join_relay_at(t, &who, &relay, link, transport)
                } else {
                    s.viewer_join_at(t, &who, link, transport)
                }
            }
        };
    }

    // --- checkpointing ----------------------------------------------------
    match chain {
        Some((ck, _, crash, restore)) => {
            s = s.checkpoint_every(ck).crash_at(crash).restore_at(restore);
        }
        None => {
            // checkpoint cutting must be invisible even without a crash
            if rng.gen_bool(0.3) {
                s = s.checkpoint_every(SimTime::from_nanos(rng.gen_range(1..=2u64) * sns));
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::clean_crash_chain;

    #[test]
    fn every_seed_yields_a_valid_scenario() {
        let cfg = FuzzConfig::default();
        for seed in 0..256 {
            let s = generate(seed, &cfg);
            s.validate()
                .unwrap_or_else(|e| panic!("seed {seed} generated an invalid scenario: {e}"));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = FuzzConfig::default();
        for seed in [0, 1, 42, 0xdead_beef] {
            let a = generate(seed, &cfg).to_script();
            let b = generate(seed, &cfg).to_script();
            assert_eq!(a, b, "seed {seed} generated two different scripts");
        }
    }

    #[test]
    fn the_seed_window_covers_both_backends_and_chain_shapes() {
        let cfg = FuzzConfig::default();
        let mut pepc = 0;
        let mut chains = 0;
        let mut sharded = 0;
        for seed in 0..128 {
            let s = generate(seed, &cfg);
            if s.to_script().contains("backend pepc") {
                pepc += 1;
            }
            if clean_crash_chain(&s) {
                chains += 1;
            }
            if s.shard_count() > 1 {
                sharded += 1;
            }
        }
        assert!(pepc > 0, "no PEPC scenario in the window");
        assert!(chains > 0, "no clean crash chain in the window");
        assert!(sharded > 0, "no sharded scenario in the window");
    }

    #[test]
    fn generated_chains_always_satisfy_the_clean_predicate() {
        // when generate() decides to emit a crash/restore pair it must be
        // in exactly the form the crash-restore invariant can judge
        let cfg = FuzzConfig {
            crash_chain_prob: 1.0,
            ..FuzzConfig::default()
        };
        let mut chains = 0;
        for seed in 0..128 {
            let s = generate(seed, &cfg);
            let has_crash = s.to_script().contains(" crash");
            if has_crash {
                chains += 1;
                assert!(
                    clean_crash_chain(&s),
                    "seed {seed} emitted a dirty crash chain:\n{}",
                    s.to_script()
                );
            }
        }
        assert!(chains > 80, "chain probability 1.0 barely fired: {chains}");
    }
}
