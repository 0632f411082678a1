#[cfg(test)]
mod tests {
    //! Monitor-plane unit tests of [`crate::visit`], mounted at `monitor::visit_ep::tests`.

    use crate::monitor::endpoint::{deliver_all, MonitorEndpoint};
    use crate::monitor::frame::{MonitorFrame, MonitorPayload};
    use crate::visit::VisitMonitor;
    use visit::Endianness;

    fn sample_frames() -> Vec<MonitorFrame<'static>> {
        vec![
            MonitorFrame {
                seq: 1,
                step: 4,
                payload: MonitorPayload::scalar("demix", 0.123456789),
            },
            MonitorFrame {
                seq: 2,
                step: 4,
                payload: MonitorPayload::vec3("centroid", [0.5, -1.5, 2.25]),
            },
            MonitorFrame {
                seq: 3,
                step: 4,
                payload: MonitorPayload::grid2("phi_mid", 2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            },
            MonitorFrame {
                seq: 4,
                step: 4,
                payload: MonitorPayload::grid3("phi", 2, 1, 2, vec![0.25, 0.5, 0.75, 1.0]),
            },
            MonitorFrame {
                seq: 5,
                step: 4,
                payload: MonitorPayload::frame("viz", false, 1024, vec![9, 8, 7]),
            },
        ]
    }

    #[test]
    fn every_kind_survives_the_wire() {
        let mut ep = VisitMonitor::new();
        let frames = sample_frames();
        assert_eq!(deliver_all(&mut ep, &frames).unwrap(), frames.len());
        assert_eq!(ep.recv(), frames);
    }

    #[test]
    fn big_endian_producer_decoded_transparently() {
        let mut ep = VisitMonitor::with_order(Endianness::Big);
        let frames = sample_frames();
        assert_eq!(deliver_all(&mut ep, &frames).unwrap(), frames.len());
        assert_eq!(ep.recv(), frames);
    }

    #[test]
    fn nan_grid_rides_both_orders_bit_exact() {
        let bits = [0x7fc0_0001u32, 0xffc1_2345, 0x3f80_0000];
        for order in [Endianness::Little, Endianness::Big] {
            let mut ep = VisitMonitor::with_order(order);
            let f = MonitorFrame {
                seq: 1,
                step: 0,
                payload: MonitorPayload::grid2(
                    "nan",
                    3,
                    1,
                    bits.iter().map(|b| f32::from_bits(*b)).collect(),
                ),
            };
            deliver_all(&mut ep, std::slice::from_ref(&f)).unwrap();
            match &ep.recv()[0].payload {
                MonitorPayload::Grid2 { data, .. } => {
                    let got: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, bits, "{order:?}");
                }
                other => panic!("expected grid2, got {other:?}"),
            }
        }
    }
}
