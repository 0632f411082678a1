//! One pub fn nothing calls.

/// Nothing calls this: R9 reports it here.
pub fn never_called() -> u32 {
    2
}
