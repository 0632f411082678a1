#[cfg(test)]
mod tests {
    //! Steering-plane unit tests of [`crate::ogsa`], mounted at `ogsa_ep::tests`.

    use crate::command::SteerCommand;
    use crate::endpoint::SteerEndpoint;
    use crate::hub::SteerHub;
    use crate::ogsa::{from_sde, OgsaEndpoint};
    use crate::spec::ParamSpec;
    use crate::value::ParamValue;
    use ogsa::SdeValue;

    fn hub() -> SteerHub {
        SteerHub::new(vec![
            ParamSpec::f64("miscibility", 0.0, 1.0, 1.0),
            ParamSpec::i64("ranks", 1, 64, 4),
            ParamSpec::flag("paused", false),
            ParamSpec::vec3("beam_dir", -1.0, 1.0, [1.0, 0.0, 0.0]),
            ParamSpec::text("site", "london"),
        ])
    }

    #[test]
    fn every_kind_survives_the_service_hop() {
        let h = hub();
        let mut ep = OgsaEndpoint::attach(&h, "alice");
        ep.set_batch(vec![
            SteerCommand::f64("miscibility", 0.25),
            SteerCommand::new("ranks", ParamValue::I64(32)),
            SteerCommand::new("paused", ParamValue::Bool(true)),
            SteerCommand::new("beam_dir", ParamValue::Vec3([0.1, -0.9, 1e-12])),
            SteerCommand::new("site", ParamValue::Str("manchester".into())),
        ])
        .unwrap();
        let out = h.commit();
        assert_eq!(out.applied, 5);
        assert_eq!(
            h.get("beam_dir"),
            Some(ParamValue::Vec3([0.1, -0.9, 1e-12])),
            "vec3 text components must round-trip exactly"
        );
    }

    #[test]
    fn get_goes_through_the_service() {
        let h = hub();
        let ep = OgsaEndpoint::attach(&h, "a");
        assert_eq!(ep.get("ranks"), Some(ParamValue::I64(4)));
        assert_eq!(ep.get("ghost"), None);
    }

    #[test]
    fn sde_codec_rejects_shape_mismatch() {
        assert_eq!(
            from_sde(&SdeValue::Str("vec3".into()), &SdeValue::F64(1.0)),
            None
        );
        assert_eq!(
            from_sde(&SdeValue::Str("nope".into()), &SdeValue::F64(1.0)),
            None
        );
    }
}
