//! The HLRS demonstration (§4.7): collaborative analysis of a building's
//! climatization field.
//!
//! "Simulations allow determining and optimizing the climatization layout
//! of such a building. In collaborative visualizations architects,
//! managers and engineers … are able to discuss the building layout and
//! its implications on the climatization." Three sites (HLRS Stuttgart,
//! DaimlerChrysler, Sandia) share a COVISE session over a synthetic
//! temperature field of the Car Show building; the master sweeps a cutting
//! plane and everyone stays frame-consistent — in parameter-sync mode the
//! bytes are constant no matter how big the scene is.
//!
//! Run with: `cargo run --release --example building_airflow`

use gridsteer::covise::{
    CollabSession, Controller, CutPlane, IsoSurface, ModuleId, ReadField, Renderer, SyncMode,
};
use gridsteer::netsim::Link;
use gridsteer::viz::Field3;

/// A synthetic climatization field: warm air pooling under the hall roof,
/// cool inflow at the doors, a hot spot over the exhibition lighting.
fn building_temperature_field(n: usize) -> Field3 {
    Field3::from_fn(n, n, n, |x, y, z| {
        let (xf, yf, zf) = (
            x as f32 / n as f32,
            y as f32 / n as f32,
            z as f32 / n as f32,
        );
        let stratification = 8.0 * yf; // warm roof layer
        let door_draft = -4.0 * (-((xf - 0.1) * (xf - 0.1) + zf * zf) * 20.0).exp();
        let lighting =
            6.0 * (-((xf - 0.6).powi(2) + (yf - 0.8).powi(2) + (zf - 0.5).powi(2)) * 30.0).exp();
        20.0 + stratification + door_draft + lighting
    })
}

fn build_pipeline(ctl: &mut Controller, host: usize) -> ModuleId {
    let read = ctl.add_module(
        host,
        Box::new(ReadField::new(building_temperature_field(24))),
    );
    let cut = ctl.add_module(host, Box::new(CutPlane::new()));
    let iso = ctl.add_module(host, Box::new(IsoSurface::new()));
    let render = ctl.add_module(host, Box::new(Renderer::new(96)));
    ctl.connect(read, "field", cut, "field").unwrap();
    ctl.connect(read, "field", iso, "field").unwrap();
    ctl.connect(iso, "mesh", render, "mesh").unwrap();
    // comfortable-temperature envelope: the 24 °C isotherm
    ctl.set_param(iso, "isovalue", 24.0);
    render
}

/// IsoSurface module id within the standard pipeline above.
const ISO: ModuleId = ModuleId(2);
/// CutPlane module id within the standard pipeline above.
const CUT: ModuleId = ModuleId(1);

fn main() {
    let sites = ["hlrs-stuttgart", "daimler-chrysler", "sandia"];
    let mut session = CollabSession::new(&sites, SyncMode::ParamSync, build_pipeline, |i| {
        // Stuttgart↔Daimler is regional; Sandia is transatlantic
        if i == 2 {
            Link::transatlantic()
        } else {
            Link::gwin()
        }
    });
    session.warm_up().expect("pipelines execute");
    println!("3-site collaborative session up (param-sync mode)");

    // the architects sweep the cutting plane through the hall
    println!("z_frac  bytes  skew        consistent");
    for step in 0..5 {
        let zf = step as f64 / 4.0;
        let r = session.change_param(CUT, "z_fraction", zf).unwrap();
        println!(
            "{zf:.2}    {:5}  {:10}  {}",
            r.bytes_sent,
            format!("{}", r.skew),
            r.consistent
        );
        assert!(r.consistent, "sites diverged");
    }

    // the engineers adjust the comfort isotherm
    let r = session.change_param(ISO, "isovalue", 26.0).unwrap();
    println!(
        "isotherm -> 26 °C: {} bytes, consistent = {}",
        r.bytes_sent, r.consistent
    );

    // role change: Sandia takes over the discussion (§4.3: partners
    // "need to be able to change roles")
    assert!(session.pass_master(0, 2));
    let r = session.change_param(CUT, "z_fraction", 0.5).unwrap();
    println!(
        "after master handoff to sandia: {} bytes, consistent = {}",
        r.bytes_sent, r.consistent
    );
    assert!(r.consistent);

    // show the scene-size independence claim of §4.6 directly
    println!(
        "param-sync bytes are {} per update regardless of the 24³ field or mesh size",
        r.bytes_sent
    );
    if let Some(img) = session.display(0) {
        // rendered artifacts are build products: keep them under target/
        // (gitignored), never in the repo root
        let out = std::path::Path::new("target").join("building_airflow_final.ppm");
        std::fs::create_dir_all("target").ok();
        std::fs::write(&out, img.to_ppm()).ok();
        println!("final frame written to {}", out.display());
    }
    println!("building_airflow OK");
}
