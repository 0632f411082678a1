#[cfg(test)]
mod tests {
    //! Monitor-plane unit tests of [`crate::unicore`], mounted at `monitor::unicore_ep::tests`.

    use crate::monitor::endpoint::{deliver_all, MonitorEndpoint, MonitorError};
    use crate::monitor::frame::{MonitorFrame, MonitorPayload};
    use crate::unicore::{begin_payload, decode_payload, UnicoreMonitor};

    #[test]
    fn batch_rides_one_ajo() {
        let mut ep = UnicoreMonitor::new("lbm");
        let frames = vec![
            MonitorFrame {
                seq: 1,
                step: 9,
                payload: MonitorPayload::scalar("demix", 0.75),
            },
            MonitorFrame {
                seq: 2,
                step: 9,
                payload: MonitorPayload::frame("viz", true, 64, vec![4, 4, 4]),
            },
        ];
        assert_eq!(deliver_all(&mut ep, &frames).unwrap(), 2);
        assert_eq!(ep.jobs_consigned(), 1, "one job per batch");
        assert_eq!(ep.recv(), frames);
    }

    #[test]
    fn per_sample_delivery_costs_one_job_each() {
        let mut ep = UnicoreMonitor::new("lbm");
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
        assert_eq!(ep.jobs_consigned(), 3);
        assert_eq!(ep.recv().len(), 3);
    }

    #[test]
    fn payload_codec_roundtrip_and_truncation() {
        let frames = vec![
            MonitorFrame {
                seq: 1,
                step: 0,
                payload: MonitorPayload::vec3("v", [1.0, 2.0, 3.0]),
            },
            MonitorFrame {
                seq: 2,
                step: 0,
                payload: MonitorPayload::grid2("g", 1, 2, vec![5.0, 6.0]),
            },
        ];
        let mut bytes = begin_payload(frames.len()).unwrap();
        for f in &frames {
            f.encode_bytes(&mut bytes).unwrap();
        }
        let decode = |buf: &[u8]| {
            decode_payload("m.dat", buf, |r| {
                MonitorFrame::read(r).map(MonitorFrame::into_owned)
            })
        };
        assert_eq!(decode(&bytes), Ok(frames));
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn unencodable_frame_surfaces_as_codec_error() {
        let mut ep = UnicoreMonitor::new("lbm");
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
        assert_eq!(ep.jobs_consigned(), 0, "no job consigned for a refusal");
    }
}
