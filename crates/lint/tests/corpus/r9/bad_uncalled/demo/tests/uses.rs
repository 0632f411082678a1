// never_called is named in this comment and in the string below; neither
// counts as a use.
#[test]
fn helper_works() {
    assert_eq!(demo::used_helper(), 1, "not never_called");
}
