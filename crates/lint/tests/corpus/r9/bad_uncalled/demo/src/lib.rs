//! One pub fn with a caller, one with none.

/// Called from the crate's integration test.
pub fn used_helper() -> u32 {
    1
}

/// Nothing calls this: R9 reports it here.
pub fn never_called() -> u32 {
    2
}
