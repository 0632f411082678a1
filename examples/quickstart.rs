//! Quickstart: a live two-fluid simulation steered by two TCP clients.
//!
//! This is the smallest end-to-end use of the library: a Lattice-Boltzmann
//! mixture runs in a background thread while a steering server exposes its
//! miscibility parameter; two clients connect over loopback TCP, one holds
//! the master token, steers, and hands the token over — exactly the
//! "coordinated cooperative steering" of the paper's §3.3.
//!
//! Run with: `cargo run --release --example quickstart`

use gridsteer::lbm::{LbmConfig, TwoFluidLbm};
use gridsteer::steer_core::{
    ClientHandle, CollabServer, ParamRegistry, ParamSpec, SteeringSession,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // 1. the simulation (compute resource)
    let sim = Arc::new(Mutex::new(TwoFluidLbm::new(LbmConfig {
        nx: 16,
        ny: 16,
        nz: 16,
        ..Default::default()
    })));

    // 2. the steering session + TCP server
    let mut reg = ParamRegistry::new();
    reg.declare(ParamSpec::f64("miscibility", 0.0, 1.0, 1.0));
    let session = Arc::new(Mutex::new(SteeringSession::new(reg)));
    let server = CollabServer::start(session.clone()).expect("server starts");
    let addr = server.addr().to_string();
    println!("steering server on {addr}");

    // 3. simulation loop: step, apply steered parameters, emit samples
    let stop = Arc::new(AtomicBool::new(false));
    let sim_thread = {
        let sim = sim.clone();
        let session = session.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let mut s = sim.lock();
                // pick up the latest steered value (the visit-style
                // "request" at the top of every step)
                if let Some(m) = session
                    .lock()
                    .params
                    .get_value("miscibility")
                    .and_then(|v| v.as_f64())
                {
                    s.set_miscibility(m);
                }
                s.step();
                let sample = s.order_parameter();
                drop(s);
                session.lock().broadcast_sample(sample.byte_size());
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    // 4. two collaborators connect
    let mut alice = ClientHandle::connect(&addr, "alice").expect("alice connects");
    let mut bob = ClientHandle::connect(&addr, "bob").expect("bob connects");
    println!(
        "alice master={} bob master={}",
        alice.joined_as_master, bob.joined_as_master
    );

    // alice steers the fluids towards demixing
    alice.set("miscibility", 0.1).expect("master may steer");
    println!("alice set miscibility = 0.1");
    // bob cannot — he is a viewer
    let refusal = bob.set("miscibility", 0.9).unwrap_err();
    println!("bob refused: {refusal}");

    // let the physics react
    std::thread::sleep(Duration::from_millis(300));
    let demix = sim.lock().demix_metric();
    println!("demix metric after steering: {demix:.3e}");

    // token handoff: now bob steers
    alice.pass_master(&bob.name).expect("handoff");
    bob.set("miscibility", 1.0).expect("bob is master now");
    println!("bob remixed the fluids (miscibility = 1.0)");

    stop.store(true, Ordering::Relaxed);
    sim_thread.join().unwrap();
    let s = session.lock();
    println!(
        "session: {} participants, {} events logged",
        s.len(),
        s.audit_log().total()
    );
    println!("quickstart OK");
}
