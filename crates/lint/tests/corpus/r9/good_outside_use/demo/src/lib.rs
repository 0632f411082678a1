//! A pub fn whose only caller lives in another package's sources.

/// Called from `benchmark/src/world.rs`, outside this crate.
pub fn for_the_benchmark() -> u32 {
    4
}
