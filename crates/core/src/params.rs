//! Steering parameters: the bus registry plus the one application
//! surface.
//!
//! §2.3: "the RealityGrid project has defined APIs for the steering calls
//! which can be used to link from the application to the services." The
//! registry half of that API lives in [`gridsteer_bus`] (typed
//! [`ParamValue`]s with explicit clamp-vs-reject [`BoundsPolicy`]) and is
//! re-exported here; this module keeps the application-side half,
//! [`SteerTarget`], which both paper codes implement. Every steering path
//! — the scenario engine, an OGSA `setBatch`, the loop benchmark — admits
//! a value through the registry at a step boundary and then writes it
//! through [`SteerTarget::write`].

use lbm::TwoFluidLbm;
use pepc::PepcSim;

pub use gridsteer_bus::{
    BoundsPolicy, ParamKind, ParamRegistry, ParamSpec, ParamValue, SharedRegistry, SteerCommand,
};

/// A simulation steerable through typed specs: the single trait both
/// paper codes implement, from which the steering bus, the scenario engine
/// and the loop benchmark derive their parameter surface.
pub trait SteerTarget {
    /// The typed registry specs this simulation accepts.
    fn specs() -> Vec<ParamSpec>;
    /// Read a parameter's current value.
    fn read(&self, name: &str) -> Option<ParamValue>;
    /// Apply an already-admitted value (bounds-checked against
    /// [`SteerTarget::specs`] by the caller).
    fn write(&mut self, name: &str, value: &ParamValue) -> Result<(), String>;
}

impl SteerTarget for TwoFluidLbm {
    fn specs() -> Vec<ParamSpec> {
        // §2.2's steering parameter: miscibility ∈ [0,1]
        vec![ParamSpec::f64("miscibility", 0.0, 1.0, 1.0)]
    }

    fn read(&self, name: &str) -> Option<ParamValue> {
        (name == "miscibility").then(|| ParamValue::F64(self.miscibility()))
    }

    fn write(&mut self, name: &str, value: &ParamValue) -> Result<(), String> {
        match (name, value.as_f64()) {
            ("miscibility", Some(v)) => {
                self.set_miscibility(v);
                Ok(())
            }
            _ => Err(format!("unknown parameter: {name}")),
        }
    }
}

impl SteerTarget for PepcSim {
    fn specs() -> Vec<ParamSpec> {
        // the §3.4 beam/laser/assist knobs
        vec![
            ParamSpec::f64("beam_intensity", 0.0, 100.0, 0.0),
            ParamSpec::f64(
                "beam_theta",
                -std::f64::consts::PI,
                std::f64::consts::PI,
                0.0,
            ),
            ParamSpec::f64("laser_amplitude", 0.0, 100.0, 0.0),
            ParamSpec::f64("damping", 0.0, 1.0, 0.0),
        ]
    }

    fn read(&self, name: &str) -> Option<ParamValue> {
        let p = self.params();
        Some(ParamValue::F64(match name {
            "beam_intensity" => p.beam_intensity,
            "beam_theta" => p.beam_dir[2].atan2(p.beam_dir[0]),
            "laser_amplitude" => p.laser_amplitude,
            "damping" => p.damping,
            _ => return None,
        }))
    }

    fn write(&mut self, name: &str, value: &ParamValue) -> Result<(), String> {
        let v = value
            .as_f64()
            .ok_or_else(|| format!("{name}: non-numeric steer"))?;
        let mut p = self.params();
        match name {
            "beam_intensity" => p.beam_intensity = v,
            // steer the beam direction in the x–z plane (§3.4:
            // "direction … altered by the user interactively")
            "beam_theta" => p.beam_dir = [v.cos(), 0.0, v.sin()],
            "laser_amplitude" => p.laser_amplitude = v,
            "damping" => p.damping = v,
            other => return Err(format!("unknown parameter: {other}")),
        }
        self.set_params(p);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm::LbmConfig;
    use pepc::PepcConfig;

    #[test]
    fn registry_declares_gets_sets() {
        let mut r = ParamRegistry::new();
        r.declare(ParamSpec::f64("miscibility", 0.0, 1.0, 1.0));
        assert_eq!(r.get_value("miscibility"), Some(&ParamValue::F64(1.0)));
        r.set_value("miscibility", &ParamValue::F64(0.25)).unwrap();
        assert_eq!(r.get_value("miscibility"), Some(&ParamValue::F64(0.25)));
    }

    #[test]
    fn out_of_bounds_rejected_not_clamped() {
        let mut r = ParamRegistry::new();
        r.declare(ParamSpec::f64("x", 0.0, 1.0, 0.5));
        assert!(r.set_value("x", &ParamValue::F64(2.0)).is_err());
        assert_eq!(r.get_value("x"), Some(&ParamValue::F64(0.5)));
    }

    #[test]
    fn clamp_policy_spec_pins_instead() {
        let mut r = ParamRegistry::new();
        r.declare(ParamSpec::f64_clamped("x", 0.0, 1.0, 0.5));
        let applied = r.set_value("x", &ParamValue::F64(2.0)).unwrap();
        assert_eq!(applied, ParamValue::F64(1.0), "clamp applies the bound");
        assert_eq!(r.get_value("x"), Some(&ParamValue::F64(1.0)));
    }

    #[test]
    fn unknown_parameter_rejected() {
        let mut r = ParamRegistry::new();
        assert!(r.set_value("ghost", &ParamValue::F64(1.0)).is_err());
        assert_eq!(r.get_value("ghost"), None);
    }

    /// Admit `value` through a registry declared from `T`'s specs, then
    /// write what was applied — the commit path every steer takes.
    fn steer<T: SteerTarget>(sim: &mut T, name: &str, value: ParamValue) -> Result<(), String> {
        let mut registry = ParamRegistry::new();
        for spec in T::specs() {
            registry.declare(spec);
        }
        let applied = registry.set_value(name, &value)?;
        sim.write(name, &applied)
    }

    #[test]
    fn lbm_adapter_steers_the_simulation() {
        let mut sim = TwoFluidLbm::new(LbmConfig::small());
        steer(&mut sim, "miscibility", ParamValue::F64(0.1)).unwrap();
        assert_eq!(sim.miscibility(), 0.1);
        assert!(steer(&mut sim, "miscibility", ParamValue::F64(2.0)).is_err());
        assert!(steer(&mut sim, "temperature", ParamValue::F64(1.0)).is_err());
        assert_eq!(sim.read("miscibility"), Some(ParamValue::F64(0.1)));
    }

    #[test]
    fn pepc_adapter_round_trips_all_params() {
        let mut sim = PepcSim::new(PepcConfig::small());
        for (name, v) in [
            ("beam_intensity", 2.0),
            ("laser_amplitude", 1.5),
            ("damping", 0.3),
            ("beam_theta", std::f64::consts::FRAC_PI_2),
        ] {
            steer(&mut sim, name, ParamValue::F64(v)).unwrap();
        }
        let read = |name| sim.read(name).and_then(|v| v.as_f64()).unwrap();
        assert_eq!(read("beam_intensity"), 2.0);
        assert_eq!(read("laser_amplitude"), 1.5);
        assert_eq!(read("damping"), 0.3);
        assert!((read("beam_theta") - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
        // the underlying sim actually changed
        assert!(sim.params().beam_dir[2] > 0.99);
    }

    #[test]
    fn pepc_adapter_rejects_bad_values() {
        let mut sim = PepcSim::new(PepcConfig::small());
        assert!(steer(&mut sim, "damping", ParamValue::F64(5.0)).is_err());
        assert!(steer(&mut sim, "warp_factor", ParamValue::F64(9.0)).is_err());
        assert!(sim.write("warp_factor", &ParamValue::F64(9.0)).is_err());
    }

    #[test]
    fn generic_adapter_typed_surface() {
        let mut sim = TwoFluidLbm::new(LbmConfig::small());
        steer(&mut sim, "miscibility", ParamValue::F64(0.5)).unwrap();
        assert_eq!(sim.read("miscibility"), Some(ParamValue::F64(0.5)));
        assert_eq!(sim.read("temperature"), None);
        let text = ParamValue::Str("x".into());
        assert!(steer(&mut sim, "miscibility", text.clone()).is_err());
        assert!(sim.write("miscibility", &text).is_err(), "non-numeric");
        assert_eq!(sim.miscibility(), 0.5);
    }

    #[test]
    fn both_targets_declare_consistent_specs() {
        for spec in TwoFluidLbm::specs().iter().chain(PepcSim::specs().iter()) {
            let initial = spec.initial.as_f64().unwrap();
            assert!(spec.min.unwrap() <= initial && initial <= spec.max.unwrap());
        }
    }
}
