#[cfg(test)]
mod tests {
    //! Monitor-plane unit tests of [`crate::ogsa`], mounted at `monitor::ogsa_ep::tests`.

    use crate::monitor::endpoint::{deliver_all, MonitorEndpoint, MonitorError};
    use crate::monitor::frame::{MonitorFrame, MonitorPayload};
    use crate::ogsa::{from_hex, to_hex, MonitorFeedService, OgsaMonitor};
    use ogsa::{GridService, InvokeResult, SdeValue};

    /// [`from_hex`] into a fresh buffer.
    fn unhex(s: &str) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        from_hex(s, &mut out).map(|()| out)
    }

    #[test]
    fn hex_codec_roundtrip() {
        let bytes = vec![0u8, 1, 0xab, 0xff, 0x7f];
        assert_eq!(unhex(&to_hex(&bytes)), Some(bytes));
        assert_eq!(unhex("0g"), None);
        assert_eq!(unhex("abc"), None);
    }

    /// The byte-wise definition the tables replaced: one digit's value.
    fn nibble(c: u8) -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            b'A'..=b'F' => Some(c - b'A' + 10),
            _ => None,
        }
    }

    #[test]
    fn hex_tables_agree_with_the_bytewise_definitions() {
        let all: Vec<u8> = (0..=255).collect();
        let lower: String = all.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(to_hex(&all), lower);
        assert_eq!(unhex(&lower).as_ref(), Some(&all));
        assert_eq!(unhex(&lower.to_uppercase()).as_ref(), Some(&all));
        assert_eq!(unhex(""), Some(vec![]));
        assert_eq!(unhex(&lower[..lower.len() - 1]), None, "odd length");
        // every byte value in either digit position, hex digit or not
        // (non-ASCII bytes cannot appear in a `&str` on their own; the
        // two-byte characters below put every one of them in both places)
        for c in 0..=127u8 {
            let expect = |hi: u8, lo: u8| Some(vec![(nibble(hi)? << 4) | nibble(lo)?]);
            let (hi, lo) = ([c, b'7'], [b'7', c]);
            assert_eq!(unhex(std::str::from_utf8(&hi).unwrap()), expect(c, b'7'));
            assert_eq!(unhex(std::str::from_utf8(&lo).unwrap()), expect(b'7', c));
        }
        for c in '\u{80}'..='\u{7ff}' {
            assert_eq!(unhex(&c.to_string()), None, "{c:?}");
            assert_eq!(unhex(&format!("00{c}00")), None, "{c:?}");
        }
        // a reused buffer holds exactly the last decode
        let mut out = vec![9; 64];
        assert_eq!(from_hex("0aFf", &mut out), Some(()));
        assert_eq!(out, [0x0a, 0xff]);
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
    fn one_malformed_argument_faults_the_whole_publish() {
        let hexed = |seq: u64| {
            let frame = MonitorFrame {
                seq,
                step: 0,
                payload: MonitorPayload::grid2("g", 1, 2, vec![0.5, -1.0]),
            };
            to_hex(&frame.to_bytes())
        };
        let pending = |svc: &MonitorFeedService| svc.service_data().get("pendingFrames").cloned();
        let good = hexed(2);
        let mut svc = MonitorFeedService::new("x");
        for bad in [
            SdeValue::Str(good[..good.len() - 2].to_string()), // truncated frame
            SdeValue::Str(format!("{good}00")),                // trailing byte
            SdeValue::Str(good.replacen('0', "g", 1)),         // not hex
            SdeValue::I64(7),                                  // not text
        ] {
            let args = [SdeValue::Str(hexed(1)), SdeValue::Str(good.clone()), bad];
            let r = svc.invoke("publishFrames", &args);
            assert!(matches!(r, InvokeResult::Fault(_)), "{r:?}");
            assert_eq!(pending(&svc), Some(SdeValue::I64(0)), "nothing buffered");
        }
        // the service (and its reused scratch) still takes a good call
        let args = [SdeValue::Str(hexed(1)), SdeValue::Str(good.clone())];
        assert_eq!(
            svc.invoke("publishFrames", &args),
            InvokeResult::Ok(vec![SdeValue::I64(2)])
        );
        assert_eq!(
            svc.invoke("pullFrames", &[]),
            InvokeResult::Ok(vec![SdeValue::List(vec![hexed(1), good])])
        );
    }

    #[test]
    fn malformed_publish_is_a_fault() {
        let mut svc = MonitorFeedService::new("x");
        let r = svc.invoke("publishFrames", &[SdeValue::Str("zz".into())]);
        assert!(matches!(r, InvokeResult::Fault(_)));
        assert!(matches!(svc.invoke("bogusOp", &[]), InvokeResult::Fault(_)));
    }
}
