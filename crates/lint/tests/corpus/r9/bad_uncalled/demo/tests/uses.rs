// never_called is named in this comment and in the string below; neither
// counts as a use.
#[test]
fn names_it_only_in_text() {
    assert_eq!("never_called".len(), 12);
}
