#[test]
fn calls_it() {
    assert_eq!(demo::only_integration_tests_call_this(), 6);
}
