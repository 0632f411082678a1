//! A pub fn whose only caller is one of the crate's examples: examples
//! are product code, so the call counts.

/// Called from `demo/examples/run.rs`.
pub fn for_the_example() -> u32 {
    7
}
