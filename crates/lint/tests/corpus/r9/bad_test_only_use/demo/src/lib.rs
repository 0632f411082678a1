//! A pub accessor whose only caller is the crate's own test module: test
//! code is no use, so R9 reports it.

/// Tests assert through this; nothing else reads it.
pub fn only_tests_call_this() -> u32 {
    3
}

#[cfg(test)]
mod tests {
    #[test]
    fn accessor() {
        assert_eq!(super::only_tests_call_this(), 3);
    }
}
