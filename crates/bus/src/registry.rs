//! The typed steerable-parameter registry.
//!
//! This replaces the old f64-only registry in `steer_core::params` (which
//! now re-exports these types). Values are [`ParamValue`]s validated
//! against [`ParamSpec`]s. The typed
//! [`get_value`](ParamRegistry::get_value) /
//! [`set_value`](ParamRegistry::set_value) API is the only one: the f64
//! `get`/`set` shims that eased the original migration (they silently
//! lost `Vec3`/`Str` parameters and dropped the applied clamped value)
//! went through a `#[deprecated]` cycle and are now removed.

use crate::spec::ParamSpec;
use crate::value::{ParamKind, ParamValue};
use gridsteer_ckpt::{CkptError, SectionReader, SectionWriter};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A typed registry of steerable parameters: declared specs and current
/// values. The record of who applied what is the session's audit log.
#[derive(Debug, Default)]
pub struct ParamRegistry {
    /// Keyed by the one shared allocation of each declared name.
    specs: BTreeMap<Arc<str>, ParamSpec>,
    values: BTreeMap<Arc<str>, ParamValue>,
}

impl ParamRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a parameter.
    pub fn declare(&mut self, spec: ParamSpec) {
        let name = self.intern(&spec.name);
        self.values.insert(name.clone(), spec.initial.clone());
        self.specs.insert(name, spec);
    }

    /// Parameter names (sorted — `BTreeMap` order).
    pub fn names(&self) -> Vec<String> {
        self.specs.keys().map(|k| k.to_string()).collect()
    }

    /// `name` as a shared string: a declared parameter's is the
    /// allocation made when it was declared (audit entries naming it hold
    /// clones of that), an undeclared one's is fresh.
    pub fn intern(&self, name: &str) -> Arc<str> {
        match self.specs.get_key_value(name) {
            Some((key, _)) => key.clone(),
            None => Arc::from(name),
        }
    }

    /// The declared spec for a parameter.
    pub fn spec(&self, name: &str) -> Option<&ParamSpec> {
        self.specs.get(name)
    }

    /// All declared specs, in name order.
    pub fn specs(&self) -> Vec<ParamSpec> {
        self.specs.values().cloned().collect()
    }

    /// Current typed value.
    pub fn get_value(&self, name: &str) -> Option<&ParamValue> {
        self.values.get(name)
    }

    /// Check a steer without applying it: returns the value that *would*
    /// be applied (after clamp/coercion) or the refusal reason.
    pub fn validate(&self, name: &str, value: &ParamValue) -> Result<ParamValue, String> {
        self.specs
            .get(name)
            .ok_or_else(|| format!("unknown parameter: {name}"))?
            .admit(value)
    }

    /// Apply a typed steer. Returns the value actually applied (possibly
    /// clamped, per the spec's [`crate::BoundsPolicy`]) or the refusal.
    pub fn set_value(&mut self, name: &str, value: &ParamValue) -> Result<ParamValue, String> {
        self.steer(name, value).1
    }

    /// [`set_value`](ParamRegistry::set_value), also handing back the
    /// parameter's [`intern`](ParamRegistry::intern)ed name — what an
    /// audit entry of the steer records — from the same lookup.
    pub fn steer(
        &mut self,
        name: &str,
        value: &ParamValue,
    ) -> (Arc<str>, Result<ParamValue, String>) {
        let Some((key, spec)) = self.specs.get_key_value(name) else {
            return (Arc::from(name), Err(format!("unknown parameter: {name}")));
        };
        let key = key.clone();
        let applied = match spec.admit(value) {
            Ok(applied) => applied,
            Err(reason) => return (key, Err(reason)),
        };
        match self.values.get_mut(name) {
            Some(slot) => slot.clone_from(&applied),
            None => {
                self.values.insert(key.clone(), applied.clone());
            }
        }
        (key, Ok(applied))
    }

    /// Serialize specs and current values into a section body
    /// (checkpoint path — see
    /// [`SteerHub::save_sections`](crate::SteerHub::save_sections)).
    pub fn save_into(&self, w: &mut SectionWriter) {
        w.put_u32(self.specs.len() as u32);
        for spec in self.specs.values() {
            crate::ckpt::put_spec(w, spec);
        }
        w.put_u32(self.values.len() as u32);
        for (name, v) in &self.values {
            w.put_str(name);
            crate::ckpt::put_value(w, v);
        }
    }

    /// Decode the [`save_into`](ParamRegistry::save_into) layout back
    /// into a registry. Values are restored verbatim — *not* re-declared
    /// through [`declare`](ParamRegistry::declare), which would reset
    /// them to their initials.
    pub fn restore_from(r: &mut SectionReader<'_>) -> Result<ParamRegistry, CkptError> {
        let mut reg = ParamRegistry::new();
        for _ in 0..r.get_u32()? {
            let spec = crate::ckpt::get_spec(r)?;
            reg.specs.insert(Arc::from(spec.name.as_str()), spec);
        }
        for _ in 0..r.get_u32()? {
            // a value's key is its spec's allocation (see `intern`)
            let name = reg.intern(r.get_str_ref()?);
            let v = crate::ckpt::get_value(r, "registry value")?;
            reg.values.insert(name, v);
        }
        Ok(reg)
    }
}

/// A cloneable, internally-locked handle to one shared [`ParamRegistry`]
/// — the single authority every endpoint, session, and server of a
/// steering bus reads and writes. Method-for-method mirror of the plain
/// registry so call sites are interchangeable.
#[derive(Debug, Clone, Default)]
pub struct SharedRegistry {
    inner: Arc<Mutex<ParamRegistry>>,
}

impl SharedRegistry {
    /// Wrap a registry for sharing.
    pub fn new(registry: ParamRegistry) -> Self {
        SharedRegistry {
            inner: Arc::new(Mutex::new(registry)),
        }
    }

    /// Declare a parameter.
    pub fn declare(&self, spec: ParamSpec) {
        self.inner.lock().declare(spec);
    }

    /// Parameter names.
    pub fn names(&self) -> Vec<String> {
        self.inner.lock().names()
    }

    /// The declared spec for a parameter.
    pub fn spec(&self, name: &str) -> Option<ParamSpec> {
        self.inner.lock().spec(name).cloned()
    }

    /// All declared specs, in name order.
    pub fn specs(&self) -> Vec<ParamSpec> {
        self.inner.lock().specs()
    }

    /// The declared kind of a parameter (its spec, without the copy).
    pub fn kind(&self, name: &str) -> Option<ParamKind> {
        self.inner.lock().spec(name).map(|spec| spec.kind)
    }

    /// Current typed value.
    pub fn get_value(&self, name: &str) -> Option<ParamValue> {
        self.inner.lock().get_value(name).cloned()
    }

    /// Check a steer without applying it.
    pub fn validate(&self, name: &str, value: &ParamValue) -> Result<ParamValue, String> {
        self.inner.lock().validate(name, value)
    }

    /// Apply a typed steer.
    pub fn set_value(&self, name: &str, value: &ParamValue) -> Result<ParamValue, String> {
        self.inner.lock().set_value(name, value)
    }

    /// `name` as a shared string (see [`ParamRegistry::intern`]).
    pub fn intern(&self, name: &str) -> Arc<str> {
        self.inner.lock().intern(name)
    }

    /// Apply a typed steer and intern its name under one lock (see
    /// [`ParamRegistry::steer`]).
    pub fn steer(&self, name: &str, value: &ParamValue) -> (Arc<str>, Result<ParamValue, String>) {
        self.inner.lock().steer(name, value)
    }

    /// Serialize the registry into a section body (checkpoint path).
    pub fn save_into(&self, w: &mut SectionWriter) {
        self.inner.lock().save_into(w);
    }

    /// Replace the registry contents behind this shared handle (restore
    /// path) — every clone observes the restored state.
    pub fn replace(&self, registry: ParamRegistry) {
        *self.inner.lock() = registry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BoundsPolicy;

    #[test]
    fn registry_declares_gets_sets_typed() {
        let mut r = ParamRegistry::new();
        r.declare(ParamSpec::f64("miscibility", 0.0, 1.0, 1.0));
        r.declare(ParamSpec::text("site", "london"));
        assert_eq!(r.get_value("miscibility"), Some(&ParamValue::F64(1.0)));
        r.set_value("miscibility", &ParamValue::F64(0.25)).unwrap();
        r.set_value("site", &ParamValue::Str("phoenix".into()))
            .unwrap();
        assert_eq!(r.get_value("miscibility"), Some(&ParamValue::F64(0.25)));
        assert_eq!(
            r.get_value("site"),
            Some(&ParamValue::Str("phoenix".into()))
        );
    }

    #[test]
    fn reject_spec_refuses_and_leaves_value() {
        let mut r = ParamRegistry::new();
        r.declare(ParamSpec::f64("x", 0.0, 1.0, 0.5));
        assert!(r.set_value("x", &ParamValue::F64(2.0)).is_err());
        assert_eq!(r.get_value("x"), Some(&ParamValue::F64(0.5)));
    }

    #[test]
    fn clamp_spec_applies_pinned_value_and_logs_it() {
        let mut r = ParamRegistry::new();
        r.declare(ParamSpec::f64_clamped("gain", 0.0, 10.0, 1.0));
        // the caller's audit entry records the returned value: what was
        // *applied*, not what was asked
        let applied = r.set_value("gain", &ParamValue::F64(25.0)).unwrap();
        assert_eq!(applied, ParamValue::F64(10.0));
        assert_eq!(r.get_value("gain"), Some(&ParamValue::F64(10.0)));
    }

    #[test]
    fn unknown_parameter_rejected() {
        let mut r = ParamRegistry::new();
        assert!(r.set_value("ghost", &ParamValue::F64(1.0)).is_err());
        assert_eq!(r.get_value("ghost"), None);
    }

    #[test]
    fn shared_registry_is_one_authority() {
        let shared = SharedRegistry::new(ParamRegistry::new());
        shared.declare(ParamSpec::f64("x", 0.0, 1.0, 0.0));
        let alias = shared.clone();
        alias.set_value("x", &ParamValue::F64(0.75)).unwrap();
        assert_eq!(shared.get_value("x"), Some(ParamValue::F64(0.75)));
        assert_eq!(shared.spec("x").unwrap().policy, BoundsPolicy::Reject);
    }

    /// The registry's section body, as a checkpoint holds it.
    fn section(r: &ParamRegistry) -> Vec<u8> {
        let mut w = SectionWriter::new();
        r.save_into(&mut w);
        w.finish()
    }

    #[test]
    fn snapshot_roundtrip_preserves_specs_and_values() {
        let mut r = ParamRegistry::new();
        r.declare(ParamSpec::f64("miscibility", 0.0, 1.0, 1.0));
        r.declare(ParamSpec::text("site", "london"));
        r.set_value("miscibility", &ParamValue::F64(0.25)).unwrap();
        r.set_value("site", &ParamValue::Str("phoenix".into()))
            .unwrap();
        let body = section(&r);
        let mut rd = SectionReader::new(&body, "registry");
        let back = ParamRegistry::restore_from(&mut rd).unwrap();
        rd.expect_end().unwrap();
        assert_eq!(back.specs(), r.specs());
        assert_eq!(
            back.get_value("miscibility"),
            Some(&ParamValue::F64(0.25)),
            "restored value is the steered one, not the initial"
        );
        assert_eq!(
            back.get_value("site"),
            Some(&ParamValue::Str("phoenix".into()))
        );
        assert_eq!(section(&back), body);
    }

    #[test]
    fn the_section_holds_values_not_the_steers_that_set_them() {
        let declared = || {
            let mut r = ParamRegistry::new();
            r.declare(ParamSpec::f64("gain", 0.0, 8.0, 1.0));
            r.declare(ParamSpec::text("site", "london"));
            r
        };
        let mut steered = declared();
        for i in 0..3 * crate::log::AUDIT_WINDOW {
            steered
                .set_value("gain", &ParamValue::F64((i % 8) as f64))
                .unwrap();
            assert!(steered.set_value("gain", &ParamValue::F64(9.0)).is_err());
        }
        steered
            .set_value("site", &ParamValue::Str("phoenix".into()))
            .unwrap();
        let mut once = declared();
        once.set_value("gain", steered.get_value("gain").unwrap())
            .unwrap();
        once.set_value("site", &ParamValue::Str("phoenix".into()))
            .unwrap();
        assert_eq!(section(&steered), section(&once));
    }

    /// The typed API preserves what the removed f64 shims threw away:
    /// non-numeric parameters stay visible and the applied (possibly
    /// clamped) value comes back to the caller.
    #[test]
    fn typed_api_covers_former_f64_shim_uses() {
        let mut r = ParamRegistry::new();
        r.declare(ParamSpec::f64("miscibility", 0.0, 1.0, 1.0));
        r.declare(ParamSpec::text("site", "london"));
        assert_eq!(
            r.get_value("miscibility").and_then(ParamValue::as_f64),
            Some(1.0)
        );
        assert_eq!(
            r.get_value("site"),
            Some(&ParamValue::Str("london".into())),
            "strings survive the typed view"
        );
        r.set_value("miscibility", &ParamValue::F64(0.25)).unwrap();
        assert!(r.set_value("miscibility", &ParamValue::F64(7.0)).is_err());
        let shared = SharedRegistry::new(r);
        shared
            .set_value("miscibility", &ParamValue::F64(0.5))
            .unwrap();
        assert_eq!(shared.get_value("miscibility"), Some(ParamValue::F64(0.5)));
    }
}
