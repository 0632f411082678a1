//! Modules — the processes of a COVISE module network.
//!
//! §4.5: "Distributed applications can be built by combining modules
//! (modeled as processes) from different application categories on
//! different hosts to form module networks. At the end of such networks
//! the rendering step performs the final visualization." The stock modules
//! here mirror the demo pipelines: read a simulation field, cut planes
//! through it (§4.3's canonical interaction), extract isosurfaces (§2.2),
//! render.

use crate::data::{DataObject, Payload};
use std::collections::BTreeMap;
use std::sync::Arc;
use viz::{mc, Camera, ColorMap, Field3, Rasterizer, Vec3};

/// A module in the network: named parameters, typed ports, one execution
/// function. (The Map-editor GUI of real COVISE is out of scope; networks
/// are built programmatically — see DESIGN.md §7.)
pub trait Module: Send {
    /// Module type name (e.g. `"CutPlane"`).
    fn name(&self) -> &str;
    /// Input port names, in positional order.
    fn inputs(&self) -> &'static [&'static str];
    /// Output port names, in positional order.
    fn outputs(&self) -> &'static [&'static str];
    /// Set a named numeric parameter; `false` if unknown.
    fn set_param(&mut self, key: &str, value: f64) -> bool;
    /// Read a named parameter.
    fn param(&self, key: &str) -> Option<f64>;
    /// Execute: consume one object per input port, produce one per output
    /// port.
    fn execute(&mut self, inputs: &[Arc<DataObject>]) -> Result<Vec<DataObject>, String>;
    /// Feed a fresh simulation sample into the module. Source modules
    /// (ReadField) accept it and return `true`; everything else ignores it.
    /// This is the coupling point where "the simulation component …
    /// emits 'samples' for consumption by the visualization component"
    /// (§2.1 of the paper).
    fn feed_field(&mut self, _field: Field3) -> bool {
        false
    }
}

/// Source module holding a field provided by the simulation coupling.
pub struct ReadField {
    field: Field3,
    /// Generation counter (bumped on [`ReadField::set_field`]).
    pub generation: u64,
}

impl ReadField {
    /// Start with a given field.
    pub fn new(field: Field3) -> Self {
        ReadField {
            field,
            generation: 0,
        }
    }

    /// Replace the field (a new sample arrived from the simulation).
    pub fn set_field(&mut self, field: Field3) {
        self.field = field;
        self.generation += 1;
    }
}

impl Module for ReadField {
    fn name(&self) -> &str {
        "ReadField"
    }
    fn inputs(&self) -> &'static [&'static str] {
        &[]
    }
    fn outputs(&self) -> &'static [&'static str] {
        &["field"]
    }
    fn set_param(&mut self, _key: &str, _value: f64) -> bool {
        false
    }
    fn param(&self, _key: &str) -> Option<f64> {
        None
    }
    fn execute(&mut self, _inputs: &[Arc<DataObject>]) -> Result<Vec<DataObject>, String> {
        Ok(vec![DataObject::new(
            "field",
            Payload::Field(self.field.clone()),
        )
        .with_attr("producer", "ReadField")])
    }
    fn feed_field(&mut self, field: Field3) -> bool {
        self.set_field(field);
        true
    }
}

/// Cutting plane through a field at a parameterized z fraction (§4.3's
/// "modifying parameters of a visualization tool such as a cutting plane
/// position").
pub struct CutPlane {
    params: BTreeMap<String, f64>,
}

impl CutPlane {
    /// Plane at the mid-height by default.
    pub fn new() -> Self {
        let mut params = BTreeMap::new();
        params.insert("z_fraction".to_string(), 0.5);
        CutPlane { params }
    }
}

impl Default for CutPlane {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for CutPlane {
    fn name(&self) -> &str {
        "CutPlane"
    }
    fn inputs(&self) -> &'static [&'static str] {
        &["field"]
    }
    fn outputs(&self) -> &'static [&'static str] {
        &["slice"]
    }
    fn set_param(&mut self, key: &str, value: f64) -> bool {
        if key == "z_fraction" {
            self.params.insert(key.to_string(), value.clamp(0.0, 1.0));
            true
        } else {
            false
        }
    }
    fn param(&self, key: &str) -> Option<f64> {
        self.params.get(key).copied()
    }
    fn execute(&mut self, inputs: &[Arc<DataObject>]) -> Result<Vec<DataObject>, String> {
        let Some(Payload::Field(f)) = inputs.first().map(|o| &o.payload) else {
            return Err("CutPlane needs a field input".into());
        };
        let (nx, _ny, nz) = f.dims();
        let zf = self.params["z_fraction"];
        let k = ((nz as f64 - 1.0) * zf).round() as usize;
        Ok(vec![DataObject::new(
            "slice",
            Payload::Slice {
                values: f.slice_z(k.min(nz - 1)),
                width: nx,
            },
        )
        .with_attr("producer", "CutPlane")
        .with_attr("z_index", &k.to_string())])
    }
}

/// Isosurface extraction (marching tetrahedra over the field).
pub struct IsoSurface {
    params: BTreeMap<String, f64>,
}

impl IsoSurface {
    /// Isovalue 0 by default (the zero crossing of the LB order parameter).
    pub fn new() -> Self {
        let mut params = BTreeMap::new();
        params.insert("isovalue".to_string(), 0.0);
        IsoSurface { params }
    }
}

impl Default for IsoSurface {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for IsoSurface {
    fn name(&self) -> &str {
        "IsoSurface"
    }
    fn inputs(&self) -> &'static [&'static str] {
        &["field"]
    }
    fn outputs(&self) -> &'static [&'static str] {
        &["mesh"]
    }
    fn set_param(&mut self, key: &str, value: f64) -> bool {
        if key == "isovalue" {
            self.params.insert(key.to_string(), value);
            true
        } else {
            false
        }
    }
    fn param(&self, key: &str) -> Option<f64> {
        self.params.get(key).copied()
    }
    fn execute(&mut self, inputs: &[Arc<DataObject>]) -> Result<Vec<DataObject>, String> {
        let Some(Payload::Field(f)) = inputs.first().map(|o| &o.payload) else {
            return Err("IsoSurface needs a field input".into());
        };
        let mesh = mc::isosurface_smooth(f, self.params["isovalue"] as f32);
        Ok(vec![
            DataObject::new("iso", Payload::Mesh(mesh)).with_attr("producer", "IsoSurface")
        ])
    }
}

/// The rendering sink: mesh in, image out.
pub struct Renderer {
    params: BTreeMap<String, f64>,
    /// Image resolution (square).
    pub resolution: usize,
}

impl Renderer {
    /// Renderer at the given square resolution.
    pub fn new(resolution: usize) -> Self {
        let mut params = BTreeMap::new();
        params.insert("yaw".to_string(), 0.0);
        params.insert("distance".to_string(), 3.0);
        Renderer { params, resolution }
    }
}

impl Module for Renderer {
    fn name(&self) -> &str {
        "Renderer"
    }
    fn inputs(&self) -> &'static [&'static str] {
        &["mesh"]
    }
    fn outputs(&self) -> &'static [&'static str] {
        &["image"]
    }
    fn set_param(&mut self, key: &str, value: f64) -> bool {
        if matches!(key, "yaw" | "distance") {
            self.params.insert(key.to_string(), value);
            true
        } else {
            false
        }
    }
    fn param(&self, key: &str) -> Option<f64> {
        self.params.get(key).copied()
    }
    fn execute(&mut self, inputs: &[Arc<DataObject>]) -> Result<Vec<DataObject>, String> {
        let Some(Payload::Mesh(mesh)) = inputs.first().map(|o| &o.payload) else {
            return Err("Renderer needs a mesh input".into());
        };
        let center = mesh
            .bounds()
            .map(|(lo, hi)| lo.add(hi).scale(0.5))
            .unwrap_or(Vec3::ZERO);
        let extent = mesh
            .bounds()
            .map(|(lo, hi)| hi.sub(lo).len().max(1.0))
            .unwrap_or(1.0);
        let yaw = self.params["yaw"] as f32;
        let dist = self.params["distance"] as f32 * extent * 0.5;
        let mut cam = Camera::look_at(
            Vec3::new(center.x, center.y + 0.3 * dist, center.z - dist),
            center,
        );
        cam.orbit(yaw);
        let mut r = Rasterizer::new(self.resolution, self.resolution);
        r.clear([12, 12, 32, 255]);
        let color = ColorMap::CoolWarm.map(0.75);
        r.draw_mesh(&cam, mesh, color);
        Ok(vec![DataObject::new(
            "image",
            Payload::Image(r.into_framebuffer()),
        )
        .with_attr("producer", "Renderer")])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere_field(n: usize, r: f32) -> Field3 {
        let c = (n as f32 - 1.0) / 2.0;
        Field3::from_fn(n, n, n, |x, y, z| {
            r - ((x as f32 - c).powi(2) + (y as f32 - c).powi(2) + (z as f32 - c).powi(2)).sqrt()
        })
    }

    #[test]
    fn read_field_emits_its_field() {
        let mut m = ReadField::new(Field3::zeros(4, 4, 4));
        let out = m.execute(&[]).unwrap();
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].payload, Payload::Field(_)));
        m.set_field(Field3::zeros(8, 8, 8));
        assert_eq!(m.generation, 1);
    }

    #[test]
    fn feed_field_accepted_only_by_sources() {
        let mut rf = ReadField::new(Field3::zeros(2, 2, 2));
        assert!(rf.feed_field(Field3::zeros(4, 4, 4)));
        assert_eq!(rf.generation, 1);
        assert!(!CutPlane::new().feed_field(Field3::zeros(2, 2, 2)));
        assert!(!Renderer::new(16).feed_field(Field3::zeros(2, 2, 2)));
    }

    #[test]
    fn cutplane_extracts_requested_plane() {
        let f = Field3::from_fn(4, 4, 4, |_, _, z| z as f32);
        let mut m = CutPlane::new();
        assert!(m.set_param("z_fraction", 1.0));
        let input = Arc::new(DataObject::new("f", Payload::Field(f)));
        let out = m.execute(std::slice::from_ref(&input)).unwrap();
        let Payload::Slice { values, width } = &out[0].payload else {
            panic!("expected slice");
        };
        assert_eq!(*width, 4);
        assert!(values.iter().all(|&v| v == 3.0));
    }

    #[test]
    fn cutplane_param_clamped_and_unknown_rejected() {
        let mut m = CutPlane::new();
        assert!(m.set_param("z_fraction", 9.0));
        assert_eq!(m.param("z_fraction"), Some(1.0));
        assert!(!m.set_param("bogus", 1.0));
    }

    #[test]
    fn isosurface_produces_mesh_for_crossing_value() {
        let mut m = IsoSurface::new();
        let input = Arc::new(DataObject::new("f", Payload::Field(sphere_field(16, 5.0))));
        let out = m.execute(std::slice::from_ref(&input)).unwrap();
        let Payload::Mesh(mesh) = &out[0].payload else {
            panic!("expected mesh");
        };
        assert!(mesh.tri_count() > 50);
    }

    #[test]
    fn isovalue_changes_surface_size() {
        let field = sphere_field(20, 8.0);
        let count_at = |iso: f64| {
            let mut m = IsoSurface::new();
            m.set_param("isovalue", iso);
            let input = Arc::new(DataObject::new("f", Payload::Field(field.clone())));
            let out = m.execute(std::slice::from_ref(&input)).unwrap();
            match &out[0].payload {
                Payload::Mesh(mesh) => mesh.tri_count(),
                _ => 0,
            }
        };
        // iso=0 → r=8 sphere; iso=4 → r=4 sphere (smaller)
        assert!(count_at(0.0) > count_at(4.0));
    }

    #[test]
    fn renderer_draws_nonempty_image() {
        let mut iso = IsoSurface::new();
        let input = Arc::new(DataObject::new("f", Payload::Field(sphere_field(16, 5.0))));
        let mesh_obj = Arc::new(iso.execute(std::slice::from_ref(&input)).unwrap().remove(0));
        let mut r = Renderer::new(64);
        let out = r.execute(std::slice::from_ref(&mesh_obj)).unwrap();
        let Payload::Image(img) = &out[0].payload else {
            panic!("expected image");
        };
        let lit = img
            .bytes()
            .chunks_exact(4)
            .filter(|p| p[0] != 12 || p[1] != 12 || p[2] != 32)
            .count();
        assert!(lit > 100, "only {lit} non-background pixels");
    }

    #[test]
    fn renderer_yaw_changes_image() {
        let mut iso = IsoSurface::new();
        let input = Arc::new(DataObject::new("f", Payload::Field(sphere_field(12, 4.0))));
        let mesh_obj = Arc::new(iso.execute(std::slice::from_ref(&input)).unwrap().remove(0));
        let render = |yaw: f64| {
            let mut r = Renderer::new(48);
            r.set_param("yaw", yaw);
            let out = r.execute(std::slice::from_ref(&mesh_obj)).unwrap();
            match out.into_iter().next().unwrap().payload {
                Payload::Image(img) => img,
                _ => panic!(),
            }
        };
        let a = render(0.0);
        let b = render(1.2);
        assert!(a != b, "orbiting must change the image");
    }

    #[test]
    fn modules_reject_wrong_inputs() {
        let scalar = Arc::new(DataObject::new("s", Payload::Scalar(1.0)));
        assert!(CutPlane::new()
            .execute(std::slice::from_ref(&scalar))
            .is_err());
        assert!(IsoSurface::new()
            .execute(std::slice::from_ref(&scalar))
            .is_err());
        assert!(Renderer::new(32)
            .execute(std::slice::from_ref(&scalar))
            .is_err());
        assert!(CutPlane::new().execute(&[]).is_err());
    }
}
