#[cfg(test)]
mod tests {
    //! Steering-plane unit tests of [`crate::covise`], mounted at `covise_ep::tests`.

    use crate::command::{SteerCommand, SteerError};
    use crate::covise::{CoviseEndpoint, SteerParamsModule};
    use crate::endpoint::SteerEndpoint;
    use crate::transport::tests::every_kind_hub;
    use crate::value::ParamValue;
    use covise::Module;

    #[test]
    fn scalar_kinds_flow_through_the_module() {
        let h = every_kind_hub();
        let mut ep = CoviseEndpoint::attach(&h, "hlrs");
        ep.set_batch(vec![
            SteerCommand::f64("miscibility", 0.4),
            SteerCommand::new("ranks", ParamValue::I64(8)),
            SteerCommand::new("paused", ParamValue::Bool(true)),
        ])
        .unwrap();
        let out = h.commit();
        assert_eq!(out.applied, 3);
        assert_eq!(h.get("ranks"), Some(ParamValue::I64(8)));
        assert_eq!(h.get("paused"), Some(ParamValue::Bool(true)));
    }

    #[test]
    fn str_excluded_by_capability_set() {
        let h = every_kind_hub();
        let mut ep = CoviseEndpoint::attach(&h, "hlrs");
        let err = ep
            .set_batch(vec![SteerCommand::new(
                "site",
                ParamValue::Str("stuttgart".into()),
            )])
            .unwrap_err();
        assert!(matches!(err, SteerError::UnsupportedKind { .. }));
        assert_eq!(h.pending(), 0);
    }

    #[test]
    fn refused_module_change_aborts_whole_batch() {
        let h = every_kind_hub();
        let mut ep = CoviseEndpoint::attach(&h, "hlrs");
        let err = ep
            .set_batch(vec![
                SteerCommand::f64("miscibility", 0.2),
                SteerCommand::f64("ghost", 1.0), // unknown to the session
            ])
            .unwrap_err();
        assert!(matches!(err, SteerError::Transport(_)));
        assert_eq!(h.pending(), 0, "atomic batch: nothing staged");
        h.commit();
        assert_eq!(h.get("miscibility"), Some(ParamValue::F64(1.0)));
    }

    #[test]
    fn module_reads_current_values() {
        let h = every_kind_hub();
        let module = SteerParamsModule::new(&h);
        assert_eq!(module.param("miscibility"), Some(1.0));
        assert_eq!(module.param("ghost"), None);
    }
}
