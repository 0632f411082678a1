#[cfg(test)]
mod tests {
    //! Monitor-plane unit tests of [`crate::covise`], mounted at `monitor::covise_ep::tests`.

    use crate::covise::CoviseMonitor;
    use crate::monitor::endpoint::{deliver_all, MonitorCaps, MonitorEndpoint, MonitorError};
    use crate::monitor::frame::{MonitorFrame, MonitorPayload};

    #[test]
    fn grids_ride_the_shared_data_space() {
        let mut ep = CoviseMonitor::new();
        let frames = vec![
            MonitorFrame {
                seq: 1,
                step: 3,
                payload: MonitorPayload::grid2("phi_mid", 2, 2, vec![1.0, 2.0, 3.0, 4.0]),
            },
            MonitorFrame {
                seq: 2,
                step: 3,
                payload: MonitorPayload::grid3_borrowed("phi", 2, 1, 2, &[0.1, 0.2, 0.3, 0.4])
                    .into_owned(),
            },
        ];
        assert_eq!(deliver_all(&mut ep, &frames).unwrap(), 2);
        assert_eq!(ep.recv(), frames);
        assert!(ep.sds.is_empty(), "consumed objects must be reclaimed");
    }

    #[test]
    fn each_delivery_event_fires_the_pipeline_once() {
        let mut ep = CoviseMonitor::new();
        let frame = |seq| MonitorFrame {
            seq,
            step: 0,
            payload: MonitorPayload::grid2("g", 2, 1, vec![seq as f32, 0.0]),
        };
        // three per-sample deliveries: three scene refreshes
        for seq in 1..=3 {
            deliver_all(&mut ep, &[frame(seq)]).unwrap();
        }
        assert_eq!(ep.pipeline_executions(), 3);
        // one batched delivery of three frames: one refresh
        deliver_all(&mut ep, &[frame(4), frame(5), frame(6)]).unwrap();
        assert_eq!(ep.pipeline_executions(), 4);
        assert_eq!(ep.recv().len(), 6);
    }

    #[test]
    fn degenerate_grids_round_trip_instead_of_vanishing() {
        // zero-width / zero-height shapes must reconstruct exactly (the
        // loopback-equivalence contract admits no silent drops)
        let mut ep = CoviseMonitor::new();
        let frames = vec![
            MonitorFrame {
                seq: 1,
                step: 0,
                payload: MonitorPayload::grid2("empty", 0, 5, Vec::new()),
            },
            MonitorFrame {
                seq: 2,
                step: 0,
                payload: MonitorPayload::grid2("flat", 3, 0, Vec::new()),
            },
        ];
        assert_eq!(deliver_all(&mut ep, &frames).unwrap(), 2);
        assert_eq!(ep.recv(), frames);
    }

    #[test]
    fn close_reclaims_the_data_space() {
        let mut ep = CoviseMonitor::new();
        deliver_all(
            &mut ep,
            &[MonitorFrame {
                seq: 1,
                step: 0,
                payload: MonitorPayload::grid2("g", 1, 1, vec![1.0]),
            }],
        )
        .unwrap();
        ep.close();
        assert!(ep.sds.is_empty(), "objects reclaimed on close");
        assert!(ep.recv().is_empty());
    }

    #[test]
    fn non_grid_kinds_are_outside_the_capability_set() {
        let mut ep = CoviseMonitor::new();
        let n = ep.negotiate(&MonitorCaps::full("viewer", 64));
        assert_eq!(n.kinds.len(), 2, "grids only: {}", n.render());
        let err = deliver_all(
            &mut ep,
            &[MonitorFrame {
                seq: 1,
                step: 0,
                payload: MonitorPayload::scalar("demix", 0.5),
            }],
        )
        .unwrap_err();
        assert!(matches!(err, MonitorError::UnsupportedKind { .. }));
    }

    #[test]
    fn nan_grid_survives_the_object_hop() {
        let bits = 0xffc0_0042u32;
        let mut ep = CoviseMonitor::new();
        deliver_all(
            &mut ep,
            &[MonitorFrame {
                seq: 1,
                step: 0,
                payload: MonitorPayload::grid3_borrowed(
                    "nan",
                    1,
                    1,
                    2,
                    &[f32::from_bits(bits), 7.0],
                )
                .into_owned(),
            }],
        )
        .unwrap();
        match &ep.recv()[0].payload {
            MonitorPayload::Grid3 { data, .. } => assert_eq!(data[0].to_bits(), bits),
            other => panic!("expected grid3, got {other:?}"),
        }
    }
}
