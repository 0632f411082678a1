#[cfg(test)]
mod tests {
    //! Steering-plane unit tests of [`crate::visit`], mounted at `visit_ep::tests`.

    use crate::command::SteerCommand;
    use crate::endpoint::SteerEndpoint;
    use crate::hub::SteerHub;
    use crate::spec::ParamSpec;
    use crate::value::ParamValue;
    use crate::visit::VisitEndpoint;
    use visit::Endianness;

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
    fn every_kind_survives_the_wire() {
        let h = hub();
        let mut ep = VisitEndpoint::attach(&h, "alice");
        ep.set_batch(vec![
            SteerCommand::f64("miscibility", 0.05),
            SteerCommand::new("ranks", ParamValue::I64(16)),
            SteerCommand::new("paused", ParamValue::Bool(true)),
            SteerCommand::new("beam_dir", ParamValue::Vec3([0.0, 1.0, 0.0])),
            SteerCommand::new("site", ParamValue::Str("jülich".into())),
        ])
        .unwrap();
        let out = h.commit();
        assert_eq!(out.applied, 5);
        assert_eq!(h.get("miscibility"), Some(ParamValue::F64(0.05)));
        assert_eq!(h.get("ranks"), Some(ParamValue::I64(16)));
        assert_eq!(h.get("paused"), Some(ParamValue::Bool(true)));
        assert_eq!(h.get("beam_dir"), Some(ParamValue::Vec3([0.0, 1.0, 0.0])));
        assert_eq!(h.get("site"), Some(ParamValue::Str("jülich".into())));
    }

    #[test]
    fn big_endian_client_decoded_transparently() {
        // the paper's Cray/SGI case: client encodes big-endian, the
        // receiving side converts (§3.2) — values must be identical.
        let h = hub();
        let mut ep = VisitEndpoint::attach_with_order(&h, "t3e", Endianness::Big);
        ep.set_batch(vec![
            SteerCommand::f64("miscibility", 0.123456789),
            SteerCommand::new("ranks", ParamValue::I64(33)),
        ])
        .unwrap();
        h.commit();
        assert_eq!(h.get("miscibility"), Some(ParamValue::F64(0.123456789)));
        assert_eq!(h.get("ranks"), Some(ParamValue::I64(33)));
    }

    #[test]
    fn batch_is_one_staging_unit() {
        let h = hub();
        let mut ep = VisitEndpoint::attach(&h, "a");
        ep.set_batch(vec![
            SteerCommand::f64("miscibility", 0.1),
            SteerCommand::f64("miscibility", 0.2),
        ])
        .unwrap();
        assert_eq!(h.pending(), 1, "one batch, not two");
        h.commit();
        assert_eq!(h.get("miscibility"), Some(ParamValue::F64(0.2)));
    }
}
