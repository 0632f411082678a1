#[cfg(test)]
mod tests {
    //! Steering-plane unit tests of [`crate::ogsa`], mounted at `ogsa_ep::tests`.

    use crate::endpoint::SteerEndpoint;
    use crate::ogsa::{from_sde, OgsaEndpoint};
    use crate::transport::tests::every_kind_hub;
    use crate::value::ParamValue;
    use ogsa::SdeValue;

    #[test]
    fn get_goes_through_the_service() {
        let h = every_kind_hub();
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
