//! # gridsteer_testkit — dev-only test support
//!
//! The one allocation witness of the workspace. [`CountingAlloc`] is the
//! system allocator plus per-thread counters of allocator calls, live
//! bytes and the largest single request; a test binary installs it in one
//! line and reads what a closure cost through [`measure`]:
//!
//! ```
//! use gridsteer_testkit::{measure, CountingAlloc};
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc;
//!
//! fn main() {
//!     let (grid, usage) = measure(|| vec![0u8; 4096]);
//!     assert_eq!((usage.calls, usage.live, usage.largest), (1, 4096, 4096));
//!     drop(grid);
//! }
//! ```
//!
//! The counters are per thread, so tests running in parallel never see
//! each other's traffic — and work another thread does is not seen
//! either: keep the measured path on the calling thread (a 1-wide
//! `gridsteer_exec` pool runs inline).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls that can return new memory, on this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not yet freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The largest single request since [`measure`] last reset it.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(calls: u64, bytes: i64, request: usize) {
    // a thread being torn down has no cells left to note into
    let _ = CALLS.try_with(|c| c.set(c.get() + calls));
    let _ = LIVE.try_with(|l| l.set(l.get() + bytes));
    let _ = LARGEST.try_with(|l| l.set(l.get().max(request)));
}

/// The system allocator, counting per thread. Install it as a test
/// binary's `#[global_allocator]`; read it through [`measure`].
pub struct CountingAlloc;

// SAFETY: every operation is `System`'s, called with the arguments this
// one was given; the wrapper only counts, into const-initialized
// thread-locals that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    // one call; `layout.size()` bytes become live
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64, layout.size());
        // SAFETY: the caller's `layout`, passed on unchanged
        unsafe { System.alloc(layout) }
    }

    // one call; `layout.size()` bytes become live
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64, layout.size());
        // SAFETY: the caller's `layout`, passed on unchanged
        unsafe { System.alloc_zeroed(layout) }
    }

    // no call counted; `layout.size()` bytes stop being live
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64), 0);
        // SAFETY: the caller's `ptr` and `layout`; `ptr` came from `System`
        unsafe { System.dealloc(ptr, layout) }
    }

    // one call of `new_size` bytes; live bytes move by the difference
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64, new_size);
        // SAFETY: the caller's arguments; `ptr` came from `System`
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What a measured closure asked of the allocator on its thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// Calls that can return new memory: alloc, alloc_zeroed, realloc.
    pub calls: u64,
    /// Net bytes allocated and not freed by the time it returned (negative
    /// if it freed more than it allocated).
    pub live: i64,
    /// The largest single request (a realloc's new size counts).
    pub largest: usize,
}

/// `f`'s result and what it asked of the allocator on this thread.
///
/// Panics if [`CountingAlloc`] is not this binary's global allocator, so
/// a witness can never pass by counting nothing.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Usage) {
    let probe = CALLS.get();
    drop(std::hint::black_box(Box::new(0u8)));
    assert!(
        CALLS.get() > probe,
        "gridsteer_testkit::CountingAlloc is not this binary's #[global_allocator]"
    );
    let (calls, live) = (CALLS.get(), LIVE.get());
    let outer = LARGEST.replace(0);
    let out = f();
    let largest = LARGEST.get();
    // a measure nested in `f` leaves the enclosing one its maximum
    LARGEST.set(outer.max(largest));
    let usage = Usage {
        calls: CALLS.get() - calls,
        live: LIVE.get() - live,
        largest,
    };
    (out, usage)
}
