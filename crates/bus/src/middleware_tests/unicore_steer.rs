#[cfg(test)]
mod tests {
    //! Steering-plane unit tests of [`crate::unicore`], mounted at `unicore_ep::tests`.

    use crate::command::SteerCommand;
    use crate::endpoint::SteerEndpoint;
    use crate::hub::SteerHub;
    use crate::spec::ParamSpec;
    use crate::unicore::{begin_payload, decode_payload, UnicoreEndpoint};
    use crate::value::ParamValue;

    fn hub() -> SteerHub {
        SteerHub::new(vec![
            ParamSpec::f64("miscibility", 0.0, 1.0, 1.0),
            ParamSpec::vec3("beam_dir", -1.0, 1.0, [1.0, 0.0, 0.0]),
            ParamSpec::text("site", "london"),
        ])
    }

    #[test]
    fn batch_rides_an_ajo_and_applies() {
        let h = hub();
        let mut ep = UnicoreEndpoint::attach(&h, "juelich");
        ep.set_batch(vec![
            SteerCommand::f64("miscibility", 0.3),
            SteerCommand::new("beam_dir", ParamValue::Vec3([0.0, 0.0, 1.0])),
            SteerCommand::new("site", ParamValue::Str("phoenix".into())),
        ])
        .unwrap();
        assert_eq!(ep.jobs_consigned(), 1);
        let out = h.commit();
        assert_eq!(out.applied, 3);
        assert_eq!(h.get("site"), Some(ParamValue::Str("phoenix".into())));
        assert_eq!(h.get("beam_dir"), Some(ParamValue::Vec3([0.0, 0.0, 1.0])));
    }

    #[test]
    fn payload_codec_roundtrip_and_truncation() {
        let cmds = vec![
            SteerCommand::f64("a", 1.5),
            SteerCommand::new("b", ParamValue::Str("x".into())),
        ];
        let mut bytes = begin_payload(cmds.len()).unwrap();
        for cmd in &cmds {
            cmd.encode_bytes(&mut bytes).unwrap();
        }
        let decode = |buf: &[u8]| decode_payload(buf, SteerCommand::decode_bytes);
        assert_eq!(decode(&bytes), Some(cmds));
        for cut in 0..bytes.len() {
            assert_eq!(decode(&bytes[..cut]), None, "cut={cut}");
        }
        assert!(
            begin_payload(u16::MAX as usize + 1).is_none(),
            "count refused, not wrapped"
        );
    }

    #[test]
    fn each_batch_is_one_job() {
        let h = hub();
        let mut ep = UnicoreEndpoint::attach(&h, "j");
        for i in 0..3 {
            ep.set_batch(vec![SteerCommand::f64("miscibility", 0.1 * (i + 1) as f64)])
                .unwrap();
        }
        assert_eq!(ep.jobs_consigned(), 3);
        assert_eq!(h.pending(), 3);
    }
}
