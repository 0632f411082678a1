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

use crate::log::{BoundedLog, LogEntry, Names};
use crate::spec::ParamSpec;
use crate::value::ParamValue;
use gridsteer_ckpt::{CkptError, SectionReader, SectionWriter};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One change-log entry: `(sequence, name, applied value)`. The name is
/// the registry's own allocation of it (see [`ParamRegistry::intern`]),
/// so logging a change allocates nothing for it.
pub type Change = (u64, Arc<str>, ParamValue);

impl LogEntry for Change {
    fn put(&self, w: &mut SectionWriter) {
        let (seq, name, v) = self;
        w.put_u64(*seq);
        w.put_str(name);
        crate::ckpt::put_value(w, v);
    }

    fn get(r: &mut SectionReader<'_>, names: &mut Names) -> Result<Change, CkptError> {
        let seq = r.get_u64()?;
        let name = names.intern(r.get_str_ref()?);
        Ok((seq, name, crate::ckpt::get_value(r, "registry history")?))
    }
}

/// A typed registry of steerable parameters with a bounded change log.
#[derive(Debug, Default)]
pub struct ParamRegistry {
    /// Keyed by the one shared allocation of each declared name.
    specs: BTreeMap<Arc<str>, ParamSpec>,
    values: BTreeMap<Arc<str>, ParamValue>,
    history: BoundedLog<Change>,
    seq: u64,
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
        let (key, spec) = self
            .specs
            .get_key_value(name)
            .ok_or_else(|| format!("unknown parameter: {name}"))?;
        let applied = spec.admit(value)?;
        match self.values.get_mut(name) {
            Some(slot) => slot.clone_from(&applied),
            None => {
                self.values.insert(key.clone(), applied.clone());
            }
        }
        self.seq += 1;
        self.history.push((self.seq, key.clone(), applied.clone()));
        Ok(applied)
    }

    /// The retained tail of the change log (oldest first) — at least the
    /// newest [`AUDIT_WINDOW`](crate::AUDIT_WINDOW) changes.
    pub fn history(&self) -> &[Change] {
        self.history.retained()
    }

    /// The whole change log: the retained tail plus the count and fold
    /// of what it has evicted.
    pub fn change_log(&self) -> &BoundedLog<Change> {
        &self.history
    }

    /// Monotone change counter.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Serialize specs, current values, the change log (its retained
    /// tail, evicted count and fold) and the change counter into a
    /// section body (checkpoint path — see
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
        self.history.save_into(w);
        w.put_u64(self.seq);
    }

    /// Decode the [`save_into`](ParamRegistry::save_into) layout back
    /// into a registry. Values and history are restored verbatim —
    /// *not* re-declared through [`declare`](ParamRegistry::declare),
    /// which would reset values to their initials.
    pub fn restore_from(r: &mut SectionReader<'_>) -> Result<ParamRegistry, CkptError> {
        let mut reg = ParamRegistry::new();
        // keys, values and change-log entries share one allocation per name
        let mut names = Names::default();
        for _ in 0..r.get_u32()? {
            let spec = crate::ckpt::get_spec(r)?;
            reg.specs.insert(names.intern(&spec.name), spec);
        }
        for _ in 0..r.get_u32()? {
            let name = names.intern(r.get_str_ref()?);
            let v = crate::ckpt::get_value(r, "registry value")?;
            reg.values.insert(name, v);
        }
        reg.history = BoundedLog::restore_from(r, &mut names)?;
        reg.seq = r.get_u64()?;
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

    /// Snapshot of the change log's retained tail.
    pub fn history(&self) -> Vec<Change> {
        self.inner.lock().history().to_vec()
    }

    /// Monotone change counter.
    pub fn seq(&self) -> u64 {
        self.inner.lock().seq()
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
        assert_eq!(
            r.get_value("site"),
            Some(&ParamValue::Str("phoenix".into()))
        );
        assert_eq!(r.seq(), 2);
        assert_eq!(r.history().len(), 2);
    }

    #[test]
    fn reject_spec_refuses_and_leaves_value() {
        let mut r = ParamRegistry::new();
        r.declare(ParamSpec::f64("x", 0.0, 1.0, 0.5));
        assert!(r.set_value("x", &ParamValue::F64(2.0)).is_err());
        assert_eq!(r.get_value("x"), Some(&ParamValue::F64(0.5)));
        assert_eq!(r.seq(), 0, "refusals must not consume sequence numbers");
    }

    #[test]
    fn clamp_spec_applies_pinned_value_and_logs_it() {
        let mut r = ParamRegistry::new();
        r.declare(ParamSpec::f64_clamped("gain", 0.0, 10.0, 1.0));
        let applied = r.set_value("gain", &ParamValue::F64(25.0)).unwrap();
        assert_eq!(applied, ParamValue::F64(10.0));
        assert_eq!(r.get_value("gain"), Some(&ParamValue::F64(10.0)));
        // history records what was *applied*, not what was asked
        assert_eq!(r.history().last().unwrap().2, ParamValue::F64(10.0));
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
        assert_eq!(shared.seq(), 1);
        assert_eq!(shared.spec("x").unwrap().policy, BoundsPolicy::Reject);
    }

    #[test]
    fn snapshot_roundtrip_preserves_values_history_and_seq() {
        let mut r = ParamRegistry::new();
        r.declare(ParamSpec::f64("miscibility", 0.0, 1.0, 1.0));
        r.declare(ParamSpec::text("site", "london"));
        r.set_value("miscibility", &ParamValue::F64(0.25)).unwrap();
        r.set_value("site", &ParamValue::Str("phoenix".into()))
            .unwrap();
        let mut w = SectionWriter::new();
        r.save_into(&mut w);
        let body = w.finish();
        let mut rd = SectionReader::new(&body, "registry");
        let back = ParamRegistry::restore_from(&mut rd).unwrap();
        rd.expect_end().unwrap();
        assert_eq!(back.specs(), r.specs());
        assert_eq!(back.history(), r.history());
        assert_eq!(back.change_log(), r.change_log());
        assert_eq!(back.seq(), r.seq());
        assert_eq!(
            back.get_value("miscibility"),
            Some(&ParamValue::F64(0.25)),
            "restored value is the steered one, not the initial"
        );
        assert_eq!(
            back.get_value("site"),
            Some(&ParamValue::Str("phoenix".into()))
        );
    }

    #[test]
    fn change_log_holds_a_window_whatever_the_run_length() {
        use crate::log::AUDIT_WINDOW;
        let mut sizes = Vec::new();
        for changes in [3 * AUDIT_WINDOW, 12 * AUDIT_WINDOW] {
            let mut r = ParamRegistry::new();
            r.declare(ParamSpec::f64("gain", 0.0, 8.0, 1.0));
            r.declare(ParamSpec::text("site", "london"));
            // the unbounded log the registry used to keep
            let mut reference: Vec<Change> = Vec::new();
            for i in 0..changes {
                if i % 8 == 7 {
                    r.set_value("site", &ParamValue::Str("phoenix".into()))
                        .unwrap();
                } else {
                    r.set_value("gain", &ParamValue::F64((i % 8) as f64))
                        .unwrap();
                }
                reference.push(r.history().last().unwrap().clone());
                assert!(r.history().len() < 2 * AUDIT_WINDOW);
                // refusals are not changes
                assert!(r.set_value("gain", &ParamValue::F64(9.0)).is_err());
            }
            let log = r.change_log();
            assert_eq!(log.total(), changes as u64);
            assert_eq!(log.evicted() as usize + r.history().len(), changes);
            let (evicted, tail) = reference.split_at(log.evicted() as usize);
            assert_eq!(r.history(), tail);
            assert!(
                tail.iter()
                    .all(|(_, name, _)| name.len() == 4 && Arc::ptr_eq(name, &r.intern(name))),
                "entries share the declared name's allocation"
            );
            let mut w = SectionWriter::new();
            evicted.iter().for_each(|c| c.put(&mut w));
            let fold = w.as_bytes().iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
            assert_eq!(log.fold(), fold);
            let mut w = SectionWriter::new();
            r.save_into(&mut w);
            sizes.push(w.len());
        }
        assert!(
            sizes[1] <= sizes[0],
            "registry section grew with the run: {sizes:?}"
        );
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
