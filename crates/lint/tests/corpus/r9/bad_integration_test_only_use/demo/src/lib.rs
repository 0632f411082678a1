//! A pub fn whose only caller is one of the crate's integration tests:
//! files under `tests/` are test code, so R9 reports it.

/// Called from `demo/tests/it.rs` and nowhere else.
pub fn only_integration_tests_call_this() -> u32 {
    6
}
