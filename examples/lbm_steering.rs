//! The RealityGrid Figure-1 pipeline, end to end.
//!
//! "Computation and visualisation are on different machines and the
//! steering and visualisation can be viewed and controlled from a user's
//! laptop" (Figure 1 caption). Compute site (London/UCL, "Dirac") runs the
//! LB mixture; visualization site (Manchester, "Bezier") isosurfaces the
//! order parameter and renders; the laptop receives VizServer-style
//! compressed bitmaps. The steering moment lowers the miscibility and the
//! isosurface grows structure.
//!
//! Run with: `cargo run --release --example lbm_steering`

use gridsteer::covise::broker::HostArch;
use gridsteer::covise::{Controller, IsoSurface, ReadField, Renderer, RequestBroker};
use gridsteer::lbm::{LbmConfig, TwoFluidLbm};
use gridsteer::netsim::Link;
use gridsteer::viz::codec::DeltaRleCodec;

fn main() {
    // the two supercomputers + WAN of the 2002 demo
    let mut broker = RequestBroker::new();
    let dirac = broker.add_host("dirac.ucl (compute)", HostArch::Big);
    let bezier = broker.add_host("bezier.man (vis)", HostArch::Big);
    broker.connect(dirac, bezier, Link::uk_janet());

    // the simulation on the compute host
    let mut sim = TwoFluidLbm::new(LbmConfig {
        nx: 24,
        ny: 24,
        nz: 24,
        ..Default::default()
    });

    // the visualization pipeline: field → isosurface → render
    let mut ctl = Controller::new();
    let read = ctl.add_module(dirac, Box::new(ReadField::new(sim.order_parameter())));
    let iso = ctl.add_module(bezier, Box::new(IsoSurface::new()));
    let render = ctl.add_module(bezier, Box::new(Renderer::new(128)));
    ctl.connect(read, "field", iso, "field").unwrap();
    ctl.connect(iso, "mesh", render, "mesh").unwrap();

    // the laptop's codec (VizServer ships compressed bitmaps, §2.4)
    let mut laptop = DeltaRleCodec::new();
    let mut shipped_to_laptop = 0usize;

    println!("step  misc   demix      tris   frame_bytes  pipeline");
    for round in 0..8 {
        // the steering moment: round 4, the user lowers the miscibility
        if round == 4 {
            sim.set_miscibility(0.0);
            println!("--- steer: miscibility -> 0.0 ---");
        }
        sim.step_n(10);
        // emit a sample into the pipeline
        let sample = sim.order_parameter();
        assert!(ctl.module_mut(read).feed_field(sample));
        let report = ctl.execute(&mut broker).unwrap();
        let image = ctl.image(&broker, render).unwrap();
        let frame = laptop.encode(&image);
        shipped_to_laptop += frame.wire_size();
        let tris = match &ctl.output(&broker, iso, "mesh").unwrap().payload {
            gridsteer::covise::Payload::Mesh(m) => m.tri_count(),
            _ => 0,
        };
        println!(
            "{:4}  {:.2}   {:.3e}  {:6}  {:10}  wan={} bytes={}",
            sim.steps(),
            sim.miscibility(),
            sim.demix_metric(),
            tris,
            frame.wire_size(),
            report.virtual_finish,
            report.bytes_transferred,
        );
    }
    println!("total compressed bitmap bytes to laptop: {shipped_to_laptop}");
    // dump the final frame for inspection — under target/ (gitignored),
    // never in the repo root
    let image = ctl.image(&broker, render).unwrap();
    let out = std::path::Path::new("target").join("lbm_steering_final.ppm");
    std::fs::create_dir_all("target").ok();
    std::fs::write(&out, image.to_ppm()).ok();
    println!("final frame written to {}", out.display());
    println!("lbm_steering OK");
}
