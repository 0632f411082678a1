//! A pub fn nothing in the tree calls, kept on purpose.

// detlint::allow(R9, "part of the published API for downstream users")
pub fn kept_for_api() -> u32 {
    5
}
