//! PEPC steered collaboratively through VISIT (§3 of the paper).
//!
//! The plasma simulation's monitored output goes to three VISIT viewers,
//! and every viewer receives every frame: §3.3's multiplexer, which the
//! paper's `vbroker` provided and the scenario engine runs as the monitor
//! hub's fan-out. Two VISIT participants steer the §3.4 beam knobs ("the
//! charge/intensity, direction can be altered by the user interactively
//! while the application is running"). Only the holder of the master token
//! steers: before the master passes the token, the observer's steer is
//! refused, and after the pass the roles swap.
//!
//! The session runs on the virtual clock, with no thread and no socket, so
//! it prints the same lines on every run and at any `EXEC_THREADS`.
//!
//! Run with: `cargo run --release --example pepc_collab`

use gridsteer::harness::{Scenario, Transport};
use gridsteer::netsim::{Link, SimTime};
use gridsteer::pepc::PepcConfig;
use std::f64::consts::FRAC_PI_2;

/// Plasma particles in the target.
const PARTICLES: usize = 400;

fn main() {
    let ms = SimTime::from_millis;
    let mut session = Scenario::named("pepc-collab")
        .pepc(PepcConfig {
            n_target: PARTICLES,
            ..PepcConfig::small()
        })
        .participant_via("master", Link::gwin(), Transport::Visit)
        .participant_via("observer", Link::uk_janet(), Transport::Visit)
        // the master fires the beam; the observer may not steer yet
        .steer_at(ms(500), "master", "beam_intensity", 2.0)
        .steer_at(ms(700), "observer", "beam_theta", 1.0)
        .pass_master_at(ms(1200), "master", "observer")
        // the token moved: the observer redirects the beam to +z, and the
        // former master's steer is refused
        .steer_at(ms(1500), "observer", "beam_theta", FRAC_PI_2)
        .steer_at(ms(1700), "master", "beam_intensity", 0.0)
        .duration(SimTime::from_secs(3));
    for (site, link) in [
        ("juelich", Link::campus()),
        ("manchester", Link::uk_janet()),
        ("stuttgart", Link::gwin()),
    ] {
        session = session.viewer_via(site, link, Transport::Visit);
    }
    let r = session.run();

    println!(
        "PEPC n={PARTICLES}: {} frames published over {} sample ticks",
        r.monitor_frames, r.broadcasts
    );
    for v in &r.viewers {
        println!(
            "viewer {} ({}): {} frames, digest {}",
            v.name, v.transport, v.delivered, v.frames_digest
        );
        assert_eq!(v.delivered, r.monitor_frames, "{} missed frames", v.name);
    }
    let token_lines: Vec<&String> = (r.session_events.iter())
        .filter(|e| {
            ["Steered(", "SteerRefused(", "MasterPassed("]
                .iter()
                .any(|k| e.starts_with(k))
        })
        .collect();
    for line in &token_lines {
        println!("session {line}");
    }
    assert_eq!(
        token_lines,
        [
            "Steered(master,beam_intensity,2.0)",
            "SteerRefused(observer,beam_theta,not the master)",
            "MasterPassed(master->observer)",
            "Steered(observer,beam_theta,1.5707963267948966)",
            "SteerRefused(master,beam_intensity,not the master)",
        ],
        "only the token holder's steers commit"
    );
    println!("report digest {}", r.digest());
    println!("pepc_collab OK");
}
