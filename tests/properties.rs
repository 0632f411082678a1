//! Property-based tests over the core invariants (proptest).

use gridsteer::lbm::{LbmConfig, TwoFluidLbm};
use gridsteer::netsim::{EventQueue, SimTime};
use gridsteer::unicore::{Ajo, Task};
use gridsteer::visit::{Endianness, Frame, MsgKind, VisitValue};
use gridsteer::viz::codec::DeltaRleCodec;
use gridsteer::viz::Framebuffer;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// VISIT frames roundtrip for arbitrary f64 payloads, both byte orders.
    #[test]
    fn visit_frame_roundtrip_f64(values in proptest::collection::vec(any::<f64>().prop_filter("finite", |v| v.is_finite()), 0..64), big in any::<bool>(), tag in any::<u32>()) {
        let order = if big { Endianness::Big } else { Endianness::Little };
        let f = Frame::with_value(MsgKind::Data, tag, order, VisitValue::F64(values));
        let back = Frame::decode(&f.encode()).unwrap();
        prop_assert_eq!(back, f);
    }

    /// VISIT frames roundtrip for arbitrary byte payloads.
    #[test]
    fn visit_frame_roundtrip_bytes(data in proptest::collection::vec(any::<u8>(), 0..512), big in any::<bool>()) {
        let order = if big { Endianness::Big } else { Endianness::Little };
        let f = Frame::with_value(MsgKind::Reply, 7, order, VisitValue::Bytes(data));
        prop_assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
    }

    /// Delta+RLE codec reconstructs arbitrary frame sequences exactly.
    #[test]
    fn codec_stream_roundtrip(frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 64), 1..6)) {
        let mut enc = DeltaRleCodec::new();
        let mut dec = DeltaRleCodec::new();
        for bytes in frames {
            let mut fb = Framebuffer::new(4, 4);
            fb.bytes_mut().copy_from_slice(&bytes);
            let e = enc.encode(&fb);
            let out = dec.decode(&e, 4, 4).unwrap();
            prop_assert_eq!(out, fb);
        }
    }

    /// LB mass is conserved for any miscibility steering schedule.
    #[test]
    fn lbm_mass_conserved_under_random_steering(steers in proptest::collection::vec(0.0f64..1.0, 1..4)) {
        let mut sim = TwoFluidLbm::new(LbmConfig { nx: 8, ny: 8, nz: 8, threads: 2, ..Default::default() });
        let (ma0, mb0) = sim.total_mass();
        for m in steers {
            sim.set_miscibility(m);
            sim.step_n(3);
        }
        let (ma, mb) = sim.total_mass();
        prop_assert!(((ma - ma0) / ma0).abs() < 1e-9);
        prop_assert!(((mb - mb0) / mb0).abs() < 1e-9);
    }

    /// AJO DAGs built by chained add_task always topo-sort, and the order
    /// respects every dependency.
    #[test]
    fn ajo_topo_order_valid(n in 1usize..20, seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut ajo = Ajo::new("gen", "v");
        let mut ids = Vec::new();
        for _ in 0..n {
            // depend on a random subset of existing tasks (acyclic by construction)
            let deps: Vec<u32> = ids.iter().copied().filter(|_| rng.gen_bool(0.3)).collect();
            ids.push(ajo.add_task(Task::StageOut { path: "x".into() }, &deps));
        }
        let order = ajo.topo_order().unwrap();
        prop_assert_eq!(order.len(), n);
        let pos = |id: u32| order.iter().position(|&x| x == id).unwrap();
        for t in &ajo.tasks {
            for &d in &t.after {
                prop_assert!(pos(d) < pos(t.id));
            }
        }
    }

    /// Event queues deliver in nondecreasing time order for any schedule.
    #[test]
    fn event_queue_time_ordered(times in proptest::collection::vec(0u64..1_000_000, 1..100)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        while let Some(ev) = q.pop() {
            prop_assert!(ev.at >= last);
            last = ev.at;
        }
    }
}
