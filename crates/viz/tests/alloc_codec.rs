//! The frame decoder validates before it allocates: a payload whose runs
//! do not cover exactly one frame is refused before a byte is reserved for
//! it, however much it claims, and a frame it accepts asks the allocator
//! for at most one frame's bytes at a time.
//!
//! The witness is `gridsteer_testkit`'s counting allocator, whose
//! counters are per thread, so the tests of this file can run in parallel
//! without seeing each other's traffic.

use gridsteer_testkit::{measure, CountingAlloc};
use viz::{DeltaRleCodec, EncodedFrame, Framebuffer};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_hostile_payload_is_refused_before_anything_is_reserved_for_it() {
    const W: usize = 256;
    const H: usize = 256;
    let frame_bytes = W * H * 4;
    let mut enc = DeltaRleCodec::new();
    let mut dec = DeltaRleCodec::new();
    let mut fb = Framebuffer::new(W, H);
    assert_eq!(dec.decode(&enc.encode(&fb), W, H).unwrap(), fb);

    // 2 MB of (255, x) pairs: 255 MB of runs claimed for a 256 KB frame
    let hostile = [255u8, 0x5a].repeat(1 << 20);
    for keyframe in [true, false] {
        let frame = EncodedFrame {
            keyframe,
            payload: hostile.clone(),
            raw_size: frame_bytes,
        };
        let (out, usage) = measure(|| dec.decode(&frame, W, H));
        assert!(out.is_none());
        assert!(
            usage.largest <= frame_bytes,
            "{} bytes requested for a refused {}-byte payload",
            usage.largest,
            hostile.len()
        );
    }

    // the refusals left the history alone, and the next in-order delta
    // costs one frame's bytes at most
    fb.set(3, 4, [1, 2, 3, 255]);
    let next = enc.encode(&fb);
    assert!(!next.keyframe);
    let (out, usage) = measure(|| dec.decode(&next, W, H));
    assert_eq!(out.unwrap(), fb);
    assert!(
        usage.largest <= frame_bytes,
        "{} bytes for a {frame_bytes}-byte frame",
        usage.largest
    );
}
