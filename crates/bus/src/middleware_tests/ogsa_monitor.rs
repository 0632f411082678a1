#[cfg(test)]
mod tests {
    //! Monitor-plane unit tests of [`crate::ogsa`], mounted at `monitor::ogsa_ep::tests`.

    use crate::monitor::endpoint::{deliver_all, MonitorEndpoint, MonitorError};
    use crate::monitor::frame::{MonitorFrame, MonitorPayload};
    use crate::ogsa::{from_hex, to_hex, MonitorFeedService, OgsaMonitor};
    use ogsa::{GridService, InvokeResult, SdeValue};

    #[test]
    fn hex_codec_roundtrip() {
        let bytes = vec![0u8, 1, 0xab, 0xff, 0x7f];
        assert_eq!(from_hex(&to_hex(&bytes)), Some(bytes));
        assert_eq!(from_hex("0g"), None);
        assert_eq!(from_hex("abc"), None);
    }

    #[test]
    fn frames_ride_the_service_hop() {
        let mut ep = OgsaMonitor::new("lbm-run");
        let frames = vec![
            MonitorFrame {
                seq: 7,
                step: 2,
                payload: MonitorPayload::scalar("demix", -0.5),
            },
            MonitorFrame {
                seq: 8,
                step: 2,
                payload: MonitorPayload::grid2("phi", 2, 2, vec![1.0, 2.0, 3.0, 4.0]),
            },
        ];
        assert_eq!(deliver_all(&mut ep, &frames).unwrap(), 2);
        assert_eq!(ep.recv(), frames);
        assert!(ep.recv().is_empty(), "pull drains the service buffer");
    }

    #[test]
    fn service_buffers_across_deliveries_until_pulled() {
        let mut ep = OgsaMonitor::new("x");
        for seq in 1..=3u64 {
            deliver_all(
                &mut ep,
                &[MonitorFrame {
                    seq,
                    step: 0,
                    payload: MonitorPayload::scalar("s", seq as f64),
                }],
            )
            .unwrap();
        }
        let got = ep.recv();
        assert_eq!(got.len(), 3, "one pull returns everything pending");
        assert_eq!(got.iter().map(|f| f.seq).collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn unencodable_frame_surfaces_as_codec_error() {
        let mut ep = OgsaMonitor::new("x");
        let err = deliver_all(
            &mut ep,
            &[MonitorFrame {
                seq: 1,
                step: 0,
                payload: MonitorPayload::scalar(&"n".repeat(70_000), 0.0),
            }],
        )
        .unwrap_err();
        assert!(matches!(err, MonitorError::Codec(_)), "{err}");
    }

    #[test]
    fn malformed_publish_is_a_fault() {
        let mut svc = MonitorFeedService::new("x");
        let r = svc.invoke("publishFrames", &[SdeValue::Str("zz".into())]);
        assert!(matches!(r, InvokeResult::Fault(_)));
        assert!(matches!(svc.invoke("bogusOp", &[]), InvokeResult::Fault(_)));
    }
}
