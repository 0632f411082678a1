//! The hosting environment (OGSI::Lite analog).
//!
//! Owns every hosted service instance, hands out Grid Service Handles,
//! dispatches invocations and SDE queries, and implements OGSI's
//! *soft-state lifetime* model: every service has a termination time;
//! clients keep services alive by extending it (`requestTerminationAfter`);
//! [`HostingEnv::sweep`] reaps the expired. Lifetime time is a logical
//! clock in seconds, advanced by the host — deterministic for tests and
//! experiments.

use crate::service::{GridService, Gsh, InvokeResult, SdeValue, ServiceData};
use std::collections::BTreeMap;

/// Hosting-layer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostingError {
    /// No factory registered under that name.
    UnknownFactory(String),
    /// No service at that handle (never existed, destroyed, or expired).
    UnknownHandle(Gsh),
}

struct Hosted {
    service: Box<dyn GridService>,
    /// Logical expiry time; `None` = immortal.
    termination_time: Option<u64>,
}

/// Factory closure producing fresh service instances.
pub type Factory = Box<dyn Fn() -> Box<dyn GridService> + Send>;

/// The hosting environment.
#[derive(Default)]
pub struct HostingEnv {
    factories: BTreeMap<String, Factory>,
    services: BTreeMap<Gsh, Hosted>,
    now: u64,
    next_id: u64,
}

impl HostingEnv {
    /// Empty environment at logical time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current logical time (seconds).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Register a factory (OGSI Factory port type).
    // detlint::allow(R9, "README crate table, crates/ogsa row: OGSA-style grid services §2.2: hosting environment")
    pub fn register_factory(&mut self, name: &str, f: Factory) {
        self.factories.insert(name.to_string(), f);
    }

    /// Create a service from a factory with an initial lifetime of
    /// `lifetime_secs` from now (`None` = immortal). Returns its handle.
    // detlint::allow(R9, "README crate table, crates/ogsa row: OGSA-style grid services §2.2: hosting environment")
    pub fn create(
        &mut self,
        factory: &str,
        lifetime_secs: Option<u64>,
    ) -> Result<Gsh, HostingError> {
        let f = self
            .factories
            .get(factory)
            .ok_or_else(|| HostingError::UnknownFactory(factory.to_string()))?;
        let service = f();
        let gsh = format!("gsh://{}/{}", factory, self.next_id);
        self.next_id += 1;
        self.services.insert(
            gsh.clone(),
            Hosted {
                service,
                termination_time: lifetime_secs.map(|l| self.now + l),
            },
        );
        Ok(gsh)
    }

    /// Host an externally-constructed service instance directly (used for
    /// services closing over application state, e.g. steering services
    /// wrapping a live simulation).
    pub fn host(
        &mut self,
        name: &str,
        service: Box<dyn GridService>,
        lifetime_secs: Option<u64>,
    ) -> Gsh {
        let gsh = format!("gsh://{}/{}", name, self.next_id);
        self.next_id += 1;
        self.services.insert(
            gsh.clone(),
            Hosted {
                service,
                termination_time: lifetime_secs.map(|l| self.now + l),
            },
        );
        gsh
    }

    /// Invoke an operation on a hosted service.
    pub fn invoke(
        &mut self,
        gsh: &str,
        op: &str,
        args: &[SdeValue],
    ) -> Result<InvokeResult, HostingError> {
        let h = self
            .services
            .get_mut(gsh)
            .ok_or_else(|| HostingError::UnknownHandle(gsh.to_string()))?;
        Ok(h.service.invoke(op, args))
    }

    /// Query a service's data.
    pub fn service_data(&self, gsh: &str) -> Result<ServiceData, HostingError> {
        let h = self
            .services
            .get(gsh)
            .ok_or_else(|| HostingError::UnknownHandle(gsh.to_string()))?;
        Ok(h.service.service_data())
    }

    /// Port types of a hosted service.
    pub fn port_types(&self, gsh: &str) -> Result<Vec<String>, HostingError> {
        let h = self
            .services
            .get(gsh)
            .ok_or_else(|| HostingError::UnknownHandle(gsh.to_string()))?;
        Ok(h.service.port_types())
    }

    /// Extend a service's lifetime to at least `until` (logical seconds).
    /// OGSI semantics: extensions never shorten a lifetime.
    // detlint::allow(R9, "README crate table, crates/ogsa row: OGSA-style grid services §2.2: hosting environment")
    pub fn extend_lifetime(&mut self, gsh: &str, until: u64) -> Result<(), HostingError> {
        let h = self
            .services
            .get_mut(gsh)
            .ok_or_else(|| HostingError::UnknownHandle(gsh.to_string()))?;
        h.termination_time = h.termination_time.map(|t| t.max(until));
        Ok(())
    }

    /// Explicitly destroy a service.
    // detlint::allow(R9, "README crate table, crates/ogsa row: OGSA-style grid services §2.2: hosting environment")
    pub fn destroy(&mut self, gsh: &str) -> Result<(), HostingError> {
        self.services
            .remove(gsh)
            .map(|_| ())
            .ok_or_else(|| HostingError::UnknownHandle(gsh.to_string()))
    }

    /// Advance logical time and reap services whose termination time has
    /// passed. Returns the handles reaped (sorted, for determinism).
    pub fn sweep(&mut self, advance_secs: u64) -> Vec<Gsh> {
        self.now += advance_secs;
        let now = self.now;
        let dead: Vec<Gsh> = self
            .services
            .iter()
            .filter(|(_, h)| h.termination_time.is_some_and(|t| t < now))
            .map(|(g, _)| g.clone())
            .collect();
        for g in &dead {
            self.services.remove(g);
        }
        dead
    }

    /// Handles of all live services (sorted — `BTreeMap` key order).
    pub fn handles(&self) -> Vec<Gsh> {
        self.services.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::unknown_op;

    /// Minimal test service: a counter.
    struct Counter {
        n: i64,
    }

    impl GridService for Counter {
        fn port_types(&self) -> Vec<String> {
            vec!["test:counter".into()]
        }
        fn service_data(&self) -> ServiceData {
            let mut sd = ServiceData::new();
            sd.set("count", SdeValue::I64(self.n));
            sd
        }
        fn invoke(&mut self, op: &str, _args: &[SdeValue]) -> InvokeResult {
            match op {
                "increment" => {
                    self.n += 1;
                    InvokeResult::Ok(vec![SdeValue::I64(self.n)])
                }
                other => unknown_op(other),
            }
        }
    }

    fn env_with_counter_factory() -> HostingEnv {
        let mut env = HostingEnv::new();
        env.register_factory("counter", Box::new(|| Box::new(Counter { n: 0 })));
        env
    }

    #[test]
    fn create_invoke_query_destroy() {
        let mut env = env_with_counter_factory();
        let gsh = env.create("counter", None).unwrap();
        assert!(gsh.starts_with("gsh://counter/"));
        let r = env.invoke(&gsh, "increment", &[]).unwrap();
        assert_eq!(r, InvokeResult::Ok(vec![SdeValue::I64(1)]));
        let sd = env.service_data(&gsh).unwrap();
        assert_eq!(sd.get("count"), Some(&SdeValue::I64(1)));
        env.destroy(&gsh).unwrap();
        assert!(matches!(
            env.invoke(&gsh, "increment", &[]),
            Err(HostingError::UnknownHandle(_))
        ));
    }

    #[test]
    fn factories_make_independent_instances() {
        let mut env = env_with_counter_factory();
        let a = env.create("counter", None).unwrap();
        let b = env.create("counter", None).unwrap();
        assert_ne!(a, b);
        env.invoke(&a, "increment", &[]).unwrap();
        assert_eq!(
            env.service_data(&b).unwrap().get("count"),
            Some(&SdeValue::I64(0))
        );
    }

    #[test]
    fn unknown_factory_errors() {
        let mut env = HostingEnv::new();
        assert_eq!(
            env.create("ghost", None),
            Err(HostingError::UnknownFactory("ghost".into()))
        );
    }

    #[test]
    fn soft_state_expiry_reaps_unextended_services() {
        let mut env = env_with_counter_factory();
        let short = env.create("counter", Some(10)).unwrap();
        let long = env.create("counter", Some(100)).unwrap();
        let forever = env.create("counter", None).unwrap();
        let dead = env.sweep(11);
        assert_eq!(dead, vec![short.clone()]);
        assert_eq!(env.handles().len(), 2);
        let dead = env.sweep(100);
        assert_eq!(dead, vec![long]);
        assert!(env.handles().contains(&forever));
    }

    #[test]
    fn extension_keeps_service_alive() {
        let mut env = env_with_counter_factory();
        let gsh = env.create("counter", Some(10)).unwrap();
        env.extend_lifetime(&gsh, 50).unwrap();
        assert!(env.sweep(20).is_empty());
        // extension cannot shorten
        env.extend_lifetime(&gsh, 1).unwrap();
        assert!(env.sweep(20).is_empty()); // now=40 < 50
        assert_eq!(env.sweep(11), vec![gsh]); // now=51 > 50
    }

    #[test]
    fn hosted_instance_works_like_created() {
        let mut env = HostingEnv::new();
        let gsh = env.host("adhoc", Box::new(Counter { n: 41 }), None);
        let r = env.invoke(&gsh, "increment", &[]).unwrap();
        assert_eq!(r, InvokeResult::Ok(vec![SdeValue::I64(42)]));
        assert_eq!(
            env.port_types(&gsh).unwrap(),
            vec!["test:counter".to_string()]
        );
    }

    #[test]
    fn unknown_operation_is_fault_not_error() {
        let mut env = env_with_counter_factory();
        let gsh = env.create("counter", None).unwrap();
        let r = env.invoke(&gsh, "zap", &[]).unwrap();
        assert!(matches!(r, InvokeResult::Fault(_)));
    }
}
