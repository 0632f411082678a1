//! The frame decoder validates before it allocates: a payload whose runs
//! do not cover exactly one frame is refused before a byte is reserved for
//! it, however much it claims, and a frame it accepts asks the allocator
//! for at most one frame's bytes at a time.
//!
//! The witness is a global allocator noting the largest request per
//! thread, so the tests of this file can run in parallel without seeing
//! each other's traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use viz::{DeltaRleCodec, EncodedFrame, Framebuffer};

thread_local! {
    /// The largest single request the current thread has made of the
    /// allocator since it last reset this.
    static LARGEST_REQUEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // a thread being torn down has no cell left to note into
    let _ = LARGEST_REQUEST.try_with(|l| l.set(l.get().max(size)));
}

struct NotingAlloc;

// SAFETY: every operation is `System`'s, called with the arguments this
// one was given; the wrapper only records a size.
unsafe impl GlobalAlloc for NotingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: NotingAlloc = NotingAlloc;

/// `f`'s result and the largest allocation it requested on this thread.
fn largest_request_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST_REQUEST.with(|l| l.set(0));
    let out = f();
    (out, LARGEST_REQUEST.with(Cell::get))
}

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
        let (out, largest) = largest_request_of(|| dec.decode(&frame, W, H));
        assert!(out.is_none());
        assert!(
            largest <= frame_bytes,
            "{largest} bytes requested for a refused {}-byte payload",
            hostile.len()
        );
    }

    // the refusals left the history alone, and the next in-order delta
    // costs one frame's bytes at most
    fb.set(3, 4, [1, 2, 3, 255]);
    let next = enc.encode(&fb);
    assert!(!next.keyframe);
    let (out, largest) = largest_request_of(|| dec.decode(&next, W, H));
    assert_eq!(out.unwrap(), fb);
    assert!(
        largest <= frame_bytes,
        "{largest} bytes for a {frame_bytes}-byte frame"
    );
}
