//! Folding a frame into a viewer digest allocates nothing: `fold_fnv`
//! reads the grid values and codec bytes in place, with no serialized
//! copy of the frame. (The fold used to encode each frame into a buffer of
//! its wire size first: one allocator call per fold.) The counters are per
//! thread, and every fold here runs on the test's own.

use gridsteer_bus::{MonitorFrame, MonitorPayload, FNV_OFFSET};
use gridsteer_testkit::{measure, CountingAlloc, Usage};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn folding_grid_and_render_frames_allocates_nothing() {
    let phi: Vec<f32> = (0..16 * 16 * 16).map(|i| (i as f32 * 0.1).cos()).collect();
    let codec_bytes: Vec<u8> = (0..1000u32).map(|i| (i * 31 % 251) as u8).collect();
    let payloads = [
        MonitorPayload::grid3_borrowed("phi", 16, 16, 16, &phi),
        MonitorPayload::grid2_borrowed("phi_mid", 16, 16, &phi[..256]),
        MonitorPayload::frame("viz", true, 4096, codec_bytes),
        MonitorPayload::frame("viz", false, 4096, Vec::new()),
    ];
    for payload in payloads {
        let frame = MonitorFrame {
            seq: 1,
            step: 2,
            payload,
        };
        let (_, usage) = measure(|| frame.fold_fnv(FNV_OFFSET));
        assert_eq!(usage, Usage::default(), "{:?}", frame.payload.kind());
    }
}
