//! `detlint.toml` — the per-crate lint policy.
//!
//! Parsed with a hand-rolled reader covering exactly the subset the
//! policy needs (the offline `vendor/` rule forbids pulling a TOML crate
//! for this): top-level `exclude = [..]`, and `[crate.<name>]` sections
//! with `allow = ["R1", ...]` lists.
//!
//! ```toml
//! exclude = ["vendor", "target"]
//!
//! [crate.gridsteer_bench]
//! # benches exist to measure wall time
//! allow = ["R1", "R3"]
//! ```

use crate::rules::RuleId;
use std::collections::{BTreeMap, BTreeSet};

/// Parsed policy: path prefixes to skip and per-crate rule waivers.
#[derive(Debug, Default, Clone)]
pub struct Policy {
    /// Workspace-relative path prefixes never walked.
    pub exclude: Vec<String>,
    /// Crate name → rules waived for that crate.
    pub crate_allow: BTreeMap<String, BTreeSet<RuleId>>,
}

/// A policy-file problem worth failing the run over.
#[derive(Debug, PartialEq, Eq)]
pub struct PolicyError {
    pub line: u32,
    pub message: String,
}

impl Policy {
    /// The rules enabled for `crate_name` (all rules minus waivers).
    pub fn enabled_rules(&self, crate_name: &str) -> BTreeSet<RuleId> {
        let waived = self.crate_allow.get(crate_name);
        RuleId::ALL
            .iter()
            .copied()
            .filter(|r| waived.is_none_or(|w| !w.contains(r)))
            .collect()
    }

    /// True if the workspace-relative `path` falls under an excluded
    /// prefix.
    pub fn is_excluded(&self, path: &str) -> bool {
        self.exclude
            .iter()
            .any(|e| path == e || path.starts_with(&format!("{e}/")))
    }

    /// Parse the policy text.
    pub fn parse(text: &str) -> Result<Policy, PolicyError> {
        let mut p = Policy::default();
        let mut section: Option<String> = None;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx as u32 + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest.trim_end_matches(']').trim();
                let Some(cr) = name.strip_prefix("crate.") else {
                    return Err(PolicyError {
                        line: lineno,
                        message: format!("unknown section [{name}] (want [crate.<name>])"),
                    });
                };
                section = Some(cr.to_string());
                p.crate_allow.entry(cr.to_string()).or_default();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(PolicyError {
                    line: lineno,
                    message: format!("expected `key = [..]`, got `{line}`"),
                });
            };
            let key = key.trim();
            let items = parse_string_list(value.trim()).ok_or_else(|| PolicyError {
                line: lineno,
                message: format!("expected a [\"..\"] list for `{key}`"),
            })?;
            match (key, &section) {
                ("exclude", None) => p.exclude = items,
                ("allow", Some(cr)) => {
                    let set = p.crate_allow.entry(cr.clone()).or_default();
                    for it in items {
                        let rule = RuleId::parse(&it).ok_or_else(|| PolicyError {
                            line: lineno,
                            message: format!("unknown rule id `{it}`"),
                        })?;
                        set.insert(rule);
                    }
                }
                _ => {
                    return Err(PolicyError {
                        line: lineno,
                        message: format!("unexpected key `{key}` here"),
                    })
                }
            }
        }
        Ok(p)
    }
}

fn strip_comment(line: &str) -> &str {
    // `#` starts a comment unless inside a quoted string.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string_list(v: &str) -> Option<Vec<String>> {
    let inner = v.strip_prefix('[')?.strip_suffix(']')?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(part.strip_prefix('"')?.strip_suffix('"')?.to_string());
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_exclude_and_crate_sections() {
        let p = Policy::parse(
            "# policy\nexclude = [\"vendor\", \"target\"]\n\n[crate.bench]\nallow = [\"R1\", \"R3\"]\n",
        )
        .unwrap();
        assert!(p.is_excluded("vendor/rand/src/lib.rs"));
        assert!(!p.is_excluded("crates/lbm/src/sim.rs"));
        let bench = p.enabled_rules("bench");
        assert!(!bench.contains(&RuleId::R1));
        assert!(!bench.contains(&RuleId::R3));
        assert!(bench.contains(&RuleId::R2));
        assert_eq!(p.enabled_rules("lbm").len(), RuleId::ALL.len());
    }

    #[test]
    fn unknown_rule_id_is_an_error() {
        let e = Policy::parse("[crate.x]\nallow = [\"R99\"]\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn bad_section_is_an_error() {
        assert!(Policy::parse("[lints]\n").is_err());
    }
}
