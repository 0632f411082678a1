//! The visualization-steering service (the second service of Figure 2).
//!
//! §2.3: "For illustration we show one service that steers the application
//! and another that steers the visualization. … The steering services allow
//! all of these components of the workflow to be steered." The service
//! that steers the application is `gridsteer_bus::BusSteeringService`: it
//! stages typed command batches into the steering bus, which commits them
//! into the simulation at a step boundary. This module holds the other
//! one, [`VisService`], which steers the rendering pipeline's controls.

use crate::service::{unknown_op, GridService, InvokeResult, SdeValue, ServiceData};
use parking_lot::Mutex;
use std::sync::Arc;

/// Shared visualization control state steered by a [`VisService`]: the
/// isovalue and viewpoint of the remote rendering pipeline (the second
/// service box in Figure 2).
#[derive(Debug, Clone, PartialEq)]
pub struct VisControl {
    /// Isosurface threshold.
    pub isovalue: f64,
    /// Camera yaw (radians).
    pub yaw: f64,
    /// Frames rendered so far.
    pub frames: u64,
}

impl Default for VisControl {
    fn default() -> Self {
        VisControl {
            isovalue: 0.0,
            yaw: 0.0,
            frames: 0,
        }
    }
}

/// A visualization-steering service over shared [`VisControl`] state.
pub struct VisService {
    state: Arc<Mutex<VisControl>>,
}

impl VisService {
    /// Wrap shared control state.
    pub fn new(state: Arc<Mutex<VisControl>>) -> Self {
        VisService { state }
    }

    /// The port type used for registry discovery.
    pub const PORT_TYPE: &'static str = "reality-grid:vis-steering";
}

impl GridService for VisService {
    fn port_types(&self) -> Vec<String> {
        vec![Self::PORT_TYPE.to_string()]
    }

    fn service_data(&self) -> ServiceData {
        let s = self.state.lock();
        let mut sd = ServiceData::new();
        sd.set("isovalue", SdeValue::F64(s.isovalue));
        sd.set("yaw", SdeValue::F64(s.yaw));
        sd.set("frames", SdeValue::I64(s.frames as i64));
        sd
    }

    fn invoke(&mut self, op: &str, args: &[SdeValue]) -> InvokeResult {
        match op {
            "setIsovalue" => {
                let Some(v) = args.first().and_then(SdeValue::as_f64) else {
                    return InvokeResult::Fault("setIsovalue needs (value)".into());
                };
                self.state.lock().isovalue = v;
                InvokeResult::Ok(vec![])
            }
            "setYaw" => {
                let Some(v) = args.first().and_then(SdeValue::as_f64) else {
                    return InvokeResult::Fault("setYaw needs (value)".into());
                };
                self.state.lock().yaw = v;
                InvokeResult::Ok(vec![])
            }
            other => unknown_op(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hosting::HostingEnv;
    use crate::registry::Registry;

    /// Stand-in for the application-steering service (the bus crate's
    /// `BusSteeringService`, which this crate cannot depend on): one
    /// steerable value behind `setParam(name, value)`.
    struct AppSteer(Arc<Mutex<f64>>);

    impl AppSteer {
        const PORT_TYPE: &'static str = "test:app-steering";
    }

    impl GridService for AppSteer {
        fn port_types(&self) -> Vec<String> {
            vec![Self::PORT_TYPE.to_string()]
        }

        fn service_data(&self) -> ServiceData {
            let mut sd = ServiceData::new();
            sd.set("miscibility", SdeValue::F64(*self.0.lock()));
            sd
        }

        fn invoke(&mut self, op: &str, args: &[SdeValue]) -> InvokeResult {
            match (op, args) {
                ("setParam", [SdeValue::Str(name), v]) if name == "miscibility" => {
                    match v.as_f64() {
                        Some(v) => {
                            *self.0.lock() = v;
                            InvokeResult::Ok(vec![])
                        }
                        None => InvokeResult::Fault("setParam needs (name, value)".into()),
                    }
                }
                ("setParam", _) => InvokeResult::Fault("setParam needs (name, value)".into()),
                (other, _) => unknown_op(other),
            }
        }
    }

    #[test]
    fn figure2_flow_discover_bind_steer_both_services() {
        // the complete Figure 2 client flow: registry → discover → bind →
        // steer the simulation AND the visualization
        let mut env = HostingEnv::new();
        let sim = Arc::new(Mutex::new(0.05));
        let vis = Arc::new(Mutex::new(VisControl::default()));
        let steer_gsh = env.host("steer", Box::new(AppSteer(sim.clone())), Some(600));
        let vis_gsh = env.host("vis", Box::new(VisService::new(vis.clone())), Some(600));
        let reg_gsh = env.host("registry", Box::new(Registry::new()), None);
        for (h, t) in [
            (&steer_gsh, AppSteer::PORT_TYPE),
            (&vis_gsh, VisService::PORT_TYPE),
        ] {
            let entry = [h.clone(), t.into(), "demo".into()].map(SdeValue::Str);
            env.invoke(&reg_gsh, "publish", &entry).unwrap();
        }
        let mut discover = |port: &str| {
            let found = env
                .invoke(&reg_gsh, "discover", &[SdeValue::Str(port.into())])
                .unwrap();
            found.first().unwrap().as_list().unwrap()[0].clone()
        };
        let handle = discover(AppSteer::PORT_TYPE);
        let vh = discover(VisService::PORT_TYPE);
        assert_eq!((&handle, &vh), (&steer_gsh, &vis_gsh));
        // bind + steer the application
        let steer = [SdeValue::Str("miscibility".into()), SdeValue::F64(0.12)];
        assert!(env.invoke(&handle, "setParam", &steer).unwrap().is_ok());
        assert_eq!(*sim.lock(), 0.12);
        // steer the visualization too
        assert!(env
            .invoke(&vh, "setIsovalue", &[SdeValue::F64(0.3)])
            .unwrap()
            .is_ok());
        assert_eq!(vis.lock().isovalue, 0.3);
    }

    #[test]
    fn vis_service_faults_on_bad_args() {
        let mut svc = VisService::new(Arc::new(Mutex::new(VisControl::default())));
        assert!(!svc.invoke("setIsovalue", &[]).is_ok());
        assert!(!svc.invoke("spin", &[]).is_ok());
    }
}
