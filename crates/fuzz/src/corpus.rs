//! The regression corpus: shrunk reproducers as human-readable files.
//!
//! A corpus file is a scenario script (see `gridsteer_harness::script`)
//! plus one `#! check:` header naming the invariants the file was minimized
//! against. `tests/fuzz_regressions.rs` replays every `.scen` file under
//! `crates/fuzz/corpus/` on each run, so a fixed bug stays fixed.
//!
//! Blessing a new reproducer is mechanical: when the soak reports a
//! failing seed, shrink it and write the rendered text —
//!
//! ```ignore
//! let fat = gridsteer_fuzz::generate(seed, &cfg);
//! let small = gridsteer_fuzz::shrink(&PoolRunner, &fat, violated);
//! std::fs::write(
//!     "crates/fuzz/corpus/issue-NNN.scen",
//!     render(&small, &[violated]),
//! )?;
//! ```
//!
//! The file is plain text, diff-friendly, and editable by hand.

use crate::oracle::Invariant;
use gridsteer_harness::Scenario;

/// Header prefix naming the invariants a corpus file must keep passing.
pub const CHECK_HEADER: &str = "#! check:";

/// One parsed corpus file.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Invariants recorded in the `#! check:` header (all of them when
    /// the header is absent).
    pub checks: Vec<Invariant>,
    /// The replayable scenario.
    pub scenario: Scenario,
}

/// Render a scenario plus its checked invariants as corpus file text.
pub fn render(scenario: &Scenario, checks: &[Invariant]) -> String {
    let names: Vec<&str> = checks.iter().map(|i| i.name()).collect();
    format!(
        "{CHECK_HEADER} {}\n{}",
        names.join(","),
        scenario.to_script()
    )
}

/// Parse corpus file text: extract the checked invariants, parse and
/// validate the script.
pub fn parse(text: &str) -> Result<CorpusEntry, String> {
    let mut checks = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(CHECK_HEADER) {
            for name in rest.split(',').map(str::trim).filter(|n| !n.is_empty()) {
                let inv = Invariant::from_name(name)
                    .ok_or_else(|| format!("unknown invariant {name:?} in {CHECK_HEADER}"))?;
                if !checks.contains(&inv) {
                    checks.push(inv);
                }
            }
        }
    }
    if checks.is_empty() {
        checks = Invariant::ALL.to_vec();
    }
    let scenario = Scenario::from_script(text).map_err(|e| e.to_string())?;
    scenario.validate().map_err(|e| e.to_string())?;
    Ok(CorpusEntry { checks, scenario })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, FuzzConfig};

    #[test]
    fn render_parse_roundtrips_checks_and_scenario() {
        let s = generate(7, &FuzzConfig::default());
        let text = render(&s, &[Invariant::ThreadDigest, Invariant::MasterToken]);
        let entry = parse(&text).unwrap();
        assert_eq!(
            entry.checks,
            vec![Invariant::ThreadDigest, Invariant::MasterToken]
        );
        assert_eq!(entry.scenario.to_script(), s.to_script());
    }

    #[test]
    fn a_headerless_script_checks_everything() {
        let s = generate(3, &FuzzConfig::default());
        let entry = parse(&s.to_script()).unwrap();
        assert_eq!(entry.checks, Invariant::ALL.to_vec());
    }

    #[test]
    fn unknown_invariant_names_are_rejected() {
        let s = generate(3, &FuzzConfig::default());
        let text = format!("{CHECK_HEADER} not-a-thing\n{}", s.to_script());
        let err = parse(&text).unwrap_err();
        assert!(err.contains("not-a-thing"), "{err}");
    }

    #[test]
    fn broken_script_text_is_a_parse_error_not_a_panic() {
        assert!(parse("scenario x\nbackend warp\n").is_err());
        assert!(parse("gibberish").is_err());
    }
}
