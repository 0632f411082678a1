#[cfg(test)]
mod tests {
    //! Steering-plane unit tests of [`crate::visit`], mounted at `visit_ep::tests`.

    use crate::command::SteerCommand;
    use crate::endpoint::SteerEndpoint;
    use crate::transport::tests::every_kind_hub;
    use crate::value::ParamValue;
    use crate::visit::VisitEndpoint;
    use visit::Endianness;

    #[test]
    fn big_endian_client_decoded_transparently() {
        // the paper's Cray/SGI case: client encodes big-endian, the
        // receiving side converts (§3.2) — values must be identical.
        let h = every_kind_hub();
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
}
