//! Corpus and workspace meta-tests for the determinism lint.
//!
//! * every `tests/corpus/bad/*.rs` fixture must report exactly the
//!   `rule:line` pairs in its paired `.expect` file;
//! * every `tests/corpus/good/*.rs` fixture must lint clean;
//! * every `tests/corpus/r9/*` miniature workspace must report exactly its
//!   `expect` lines;
//! * the real workspace (under its `detlint.toml` policy) must lint clean;
//! * the `detlint` binary must exit nonzero on the bad corpus and zero on
//!   the workspace — the exact invocations the CI gate runs.

use gridsteer_lint::rules::RuleId;
use gridsteer_lint::{lint_source, lint_workspace, Policy};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

fn all_rules() -> BTreeSet<RuleId> {
    RuleId::ALL.iter().copied().collect()
}

fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read_dir {}: {e}", dir.display()))
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    out.sort();
    out
}

/// Parse an `.expect` file: one `RULE:LINE` per line, `#` comments allowed.
fn parse_expect(text: &str) -> Vec<(String, u32)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (rule, line) = l.split_once(':').expect("expect line is RULE:LINE");
            (
                rule.trim().to_string(),
                line.trim().parse().expect("line number"),
            )
        })
        .collect()
}

#[test]
fn bad_fixtures_report_exactly_the_expected_findings() {
    let fixtures = rs_files(&corpus_dir().join("bad"));
    // one per rule R1..R6 plus the reasonless-allow meta rule
    assert!(fixtures.len() >= 7, "bad corpus is missing fixtures");
    for rs in fixtures {
        let expect_path = rs.with_extension("expect");
        let src = std::fs::read_to_string(&rs).unwrap();
        let want = parse_expect(
            &std::fs::read_to_string(&expect_path)
                .unwrap_or_else(|e| panic!("missing {}: {e}", expect_path.display())),
        );
        assert!(
            !want.is_empty(),
            "bad fixture {} expects no findings",
            rs.display()
        );
        let got: Vec<(String, u32)> = lint_source(&src, &all_rules())
            .into_iter()
            .map(|f| (f.rule.to_string(), f.line))
            .collect();
        assert_eq!(got, want, "findings mismatch for {}", rs.display());
    }
}

#[test]
fn good_fixtures_lint_clean() {
    let fixtures = rs_files(&corpus_dir().join("good"));
    assert!(fixtures.len() >= 3, "good corpus is missing fixtures");
    for rs in fixtures {
        let src = std::fs::read_to_string(&rs).unwrap();
        let findings: Vec<String> = lint_source(&src, &all_rules())
            .into_iter()
            .map(|f| format!("{}:{}: [{}] {}", rs.display(), f.line, f.rule, f.message))
            .collect();
        assert!(
            findings.is_empty(),
            "good fixture is dirty:\n{}",
            findings.join("\n")
        );
    }
}

/// R9 needs a whole tree, so its fixtures are sets: each directory under
/// `tests/corpus/r9` is a miniature workspace linted under the default
/// policy. Its `expect` file lists `FILE:LINE: RULE` findings; a `good_`
/// set has none. Each set's `lib.rs` says what it pins: only product code
/// counts as a use, so the `bad_` sets name their item only in test code
/// (a test module, an integration test) or in comments and strings.
#[test]
fn r9_fixture_sets_report_exactly_the_expected_findings() {
    let mut sets: Vec<PathBuf> = std::fs::read_dir(corpus_dir().join("r9"))
        .expect("r9 corpus")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    sets.sort();
    assert_eq!(sets.len(), 6, "r9 corpus is missing sets");
    for set in sets {
        let want: Vec<String> = std::fs::read_to_string(set.join("expect"))
            .unwrap_or_default()
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect();
        let bad = set
            .file_name()
            .is_some_and(|n| n.to_string_lossy().starts_with("bad_"));
        assert_eq!(bad, !want.is_empty(), "{}: expectations", set.display());
        let got: Vec<String> = lint_workspace(&set, &Policy::default())
            .expect("fixture walk")
            .iter()
            .map(|f| format!("{}:{}: {}", f.file, f.finding.line, f.finding.rule))
            .collect();
        assert_eq!(got, want, "findings mismatch for {}", set.display());
    }
}

/// The meta-test the ISSUE asks for: the real tree, linted under its real
/// policy, stays clean — so `cargo test` fails the moment a hazard lands,
/// even before CI runs the binary.
#[test]
fn workspace_lints_clean() {
    let root = repo_root();
    let policy_text =
        std::fs::read_to_string(root.join("detlint.toml")).expect("detlint.toml at repo root");
    let policy = Policy::parse(&policy_text).expect("valid policy");
    let findings = lint_workspace(&root, &policy).expect("workspace walk");
    let rendered: Vec<String> = findings.iter().map(|f| f.render()).collect();
    assert!(
        rendered.is_empty(),
        "workspace determinism lint is dirty:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn detlint_binary_gates_bad_corpus_and_passes_workspace() {
    let bin = env!("CARGO_BIN_EXE_detlint");

    let bad = std::process::Command::new(bin)
        .arg("--root")
        .arg(corpus_dir().join("bad"))
        .output()
        .expect("run detlint --root");
    assert!(
        !bad.status.success(),
        "detlint must exit nonzero on the known-bad corpus"
    );
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(stdout.contains("finding(s)"), "summary missing:\n{stdout}");

    let ws = std::process::Command::new(bin)
        .arg("--workspace")
        .arg(repo_root())
        .output()
        .expect("run detlint --workspace");
    assert!(
        ws.status.success(),
        "workspace must lint clean:\n{}",
        String::from_utf8_lossy(&ws.stdout)
    );
}
