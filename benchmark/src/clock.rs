//! The benchmark's only wall-clock and `/proc` reads.
//!
//! detlint lints every directory that has a `Cargo.toml` and a `src/`, so
//! it lints this package too. Everything non-replayable is confined to this
//! file and each site carries its reason; nothing read here ever feeds a
//! digest, a count or an input to the program under test.

use std::time::Instant;

/// Monotonic nanoseconds since the clock was started.
pub struct Clock {
    origin: Instant,
}

impl Clock {
    /// Start a clock; `ns()` counts from here.
    pub fn start() -> Clock {
        Clock {
            origin: Instant::now(), // detlint::allow(R1, "benchmark timing never feeds a digest")
        }
    }

    /// Nanoseconds since [`Clock::start`].
    pub fn ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Peak resident set size of this process (`VmHWM`), in kB. `None` where
/// `/proc/self/status` is unreadable or has no such line.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
