//! Data objects and the shared data space.
//!
//! §4.5: "Scientific data is handled as data objects which have attributes
//! such as names and lifetime. They represent grids on which dependent data
//! is defined." And: "the shared data space (SDS) is used on a single host
//! for the exchange of data objects between the locally running modules to
//! minimize copying overhead. On most platforms this is realized as shared
//! memory communication" — here, `Arc`-shared objects in a per-host store,
//! which is exactly shared memory with zero-copy reads.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use viz::{Field3, Framebuffer, TriMesh};

/// Global sequence for system-wide unique object names.
static NAME_SEQ: AtomicU64 = AtomicU64::new(0);

/// Typed payload of a data object.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A scalar value (parameters, metrics).
    Scalar(f64),
    /// A regular-grid scalar field.
    Field(Field3),
    /// A triangle mesh.
    Mesh(TriMesh),
    /// A 2-D slice (row-major values + width).
    Slice {
        /// Row-major values.
        values: Vec<f32>,
        /// Row width.
        width: usize,
    },
    /// A rendered image.
    Image(Framebuffer),
}

impl Payload {
    /// Approximate in-memory/wire size in bytes.
    pub fn byte_size(&self) -> usize {
        match self {
            Payload::Scalar(_) => 8,
            Payload::Field(f) => f.byte_size(),
            Payload::Mesh(m) => m.byte_size(),
            Payload::Slice { values, .. } => values.len() * 4,
            Payload::Image(fb) => fb.byte_size(),
        }
    }

    /// Short kind string (for attributes and diagnostics).
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::Scalar(_) => "scalar",
            Payload::Field(_) => "field",
            Payload::Mesh(_) => "mesh",
            Payload::Slice { .. } => "slice",
            Payload::Image(_) => "image",
        }
    }
}

/// A named, attributed data object.
#[derive(Debug, Clone)]
pub struct DataObject {
    /// System-wide unique name.
    pub name: String,
    /// The payload.
    pub payload: Payload,
    /// Free-form attributes (the paper names "names and lifetime";
    /// modules add provenance).
    pub attributes: BTreeMap<String, String>,
}

impl DataObject {
    /// Create an object with a fresh system-wide unique name derived from
    /// `base`.
    pub fn new(base: &str, payload: Payload) -> DataObject {
        let seq = NAME_SEQ.fetch_add(1, Ordering::Relaxed);
        let mut attributes = BTreeMap::new();
        attributes.insert("kind".to_string(), payload.kind().to_string());
        DataObject {
            name: format!("{base}_{seq}"),
            payload,
            attributes,
        }
    }

    /// Attach an attribute (builder style).
    pub fn with_attr(mut self, key: &str, value: &str) -> DataObject {
        self.attributes.insert(key.to_string(), value.to_string());
        self
    }

    /// Payload size in bytes.
    pub fn byte_size(&self) -> usize {
        self.payload.byte_size()
    }
}

/// A per-host object store.
#[derive(Debug, Default)]
pub struct SharedDataSpace {
    objects: BTreeMap<String, Arc<DataObject>>,
}

impl SharedDataSpace {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Put an object; returns the shared handle. Names are unique by
    /// construction, so an existing entry under the same name is a logic
    /// error and panics in debug builds.
    pub fn put(&mut self, obj: DataObject) -> Arc<DataObject> {
        debug_assert!(
            !self.objects.contains_key(&obj.name),
            "duplicate SDS name {}",
            obj.name
        );
        let arc = Arc::new(obj);
        self.objects.insert(arc.name.clone(), arc.clone());
        arc
    }

    /// Zero-copy lookup.
    pub fn get(&self, name: &str) -> Option<Arc<DataObject>> {
        self.objects.get(name).cloned()
    }

    /// Remove an object (end of its lifetime).
    pub fn remove(&mut self, name: &str) -> bool {
        self.objects.remove(name).is_some()
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_even_for_same_base() {
        let a = DataObject::new("cut", Payload::Scalar(1.0));
        let b = DataObject::new("cut", Payload::Scalar(2.0));
        assert_ne!(a.name, b.name);
        assert!(a.name.starts_with("cut_"));
    }

    #[test]
    fn kind_attribute_auto_set() {
        let o = DataObject::new("f", Payload::Field(Field3::zeros(2, 2, 2)));
        assert_eq!(o.attributes.get("kind").map(String::as_str), Some("field"));
    }

    #[test]
    fn sds_put_get_is_zero_copy() {
        let mut sds = SharedDataSpace::new();
        let obj = DataObject::new("mesh", Payload::Mesh(TriMesh::new()));
        let name = obj.name.clone();
        let a = sds.put(obj);
        let b = sds.get(&name).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "SDS must hand out the same allocation");
    }

    #[test]
    fn sds_remove_and_counters() {
        let mut sds = SharedDataSpace::new();
        let o = sds.put(DataObject::new("x", Payload::Scalar(1.0)));
        assert_eq!(sds.len(), 1);
        assert!(sds.remove(&o.name));
        assert!(!sds.remove(&o.name));
        assert!(sds.is_empty());
    }

    #[test]
    fn payload_sizes() {
        assert_eq!(Payload::Scalar(0.0).byte_size(), 8);
        assert_eq!(Payload::Field(Field3::zeros(4, 4, 4)).byte_size(), 256);
        assert_eq!(
            Payload::Slice {
                values: vec![0.0; 16],
                width: 4
            }
            .byte_size(),
            64
        );
        assert_eq!(
            Payload::Image(Framebuffer::new(8, 8)).byte_size(),
            8 * 8 * 4
        );
    }

    #[test]
    fn with_attr_builder() {
        let o = DataObject::new("x", Payload::Scalar(0.0)).with_attr("producer", "CutPlane");
        assert_eq!(
            o.attributes.get("producer").map(String::as_str),
            Some("CutPlane")
        );
    }
}
