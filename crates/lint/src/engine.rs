//! Workspace walker: discover member crates, lint each crate's `src/`
//! tree under its policy, and aggregate findings.
//!
//! Only `src/` trees are linted: `tests/`, `benches/`, and `examples/`
//! are dynamic-check territory (and host the lint's own known-bad fixture
//! corpus). Excluded prefixes from the policy (`vendor/`, `target/`) are
//! never walked. R9 is the one rule that reads beyond `src/`: a `pub` item
//! declared in a crate's `src/` counts as used if product code anywhere in
//! the tree spells its name. Test code does not count: neither test lines
//! (`#[cfg(test)]` modules, `#[test]` fns) nor files under a `tests/` or
//! `benches/` directory.

use crate::lexer::TokKind;
use crate::policy::Policy;
use crate::rules::{lint_source, pub_item_names, Finding, RuleId};
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// A [`Finding`] with the file it was found in (workspace-relative).
#[derive(Debug, Clone)]
pub struct FileFinding {
    pub file: String,
    pub finding: Finding,
}

impl FileFinding {
    /// `file:line: [rule] message (hint: ..)` — the report line.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {} (hint: {})",
            self.file,
            self.finding.line,
            self.finding.rule,
            self.finding.message,
            self.finding.hint
        )
    }
}

/// A fatal engine problem (I/O, bad policy).
#[derive(Debug)]
pub struct EngineError(pub String);

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// One discovered workspace member.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CrateDir {
    pub name: String,
    pub dir: PathBuf,
}

/// Find member crates: every directory under `root` (recursively, skipping
/// excluded prefixes, `target`, and dot-dirs) holding a `Cargo.toml` with a
/// `[package]` name. Sorted by name for stable reports.
pub fn discover_crates(root: &Path, policy: &Policy) -> Result<Vec<CrateDir>, EngineError> {
    let mut out = BTreeSet::new();
    walk_for_crates(root, root, policy, &mut out)?;
    Ok(out.into_iter().collect())
}

fn walk_for_crates(
    root: &Path,
    dir: &Path,
    policy: &Policy,
    out: &mut BTreeSet<CrateDir>,
) -> Result<(), EngineError> {
    let manifest = dir.join("Cargo.toml");
    if manifest.is_file() {
        if let Some(name) = package_name(&manifest) {
            out.insert(CrateDir {
                name,
                dir: dir.to_path_buf(),
            });
        }
    }
    let entries =
        fs::read_dir(dir).map_err(|e| EngineError(format!("read_dir {}: {e}", dir.display())))?;
    let mut subdirs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir() && walked(root, policy, p))
        .collect();
    subdirs.sort();
    for sub in subdirs {
        walk_for_crates(root, &sub, policy, out)?;
    }
    Ok(())
}

/// True for a subdirectory the workspace walks: not a dot-dir, not a
/// `target/` build tree, not under an excluded prefix.
fn walked(root: &Path, policy: &Policy, dir: &Path) -> bool {
    let base = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
    !(base.starts_with('.') || base == "target" || policy.is_excluded(&rel_str(root, dir)))
}

/// Pull `name = "..."` out of a manifest's `[package]` section.
fn package_name(manifest: &Path) -> Option<String> {
    let text = fs::read_to_string(manifest).ok()?;
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix('[') {
            in_package = rest.trim_end_matches(']').trim() == "package";
            continue;
        }
        if in_package {
            if let Some((k, v)) = line.split_once('=') {
                if k.trim() == "name" {
                    return Some(v.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// Lint the whole workspace under `root` with `policy`. Findings are
/// sorted by (file, line, rule).
pub fn lint_workspace(root: &Path, policy: &Policy) -> Result<Vec<FileFinding>, EngineError> {
    let mut out = Vec::new();
    let mut declaring = Vec::new();
    for cr in discover_crates(root, policy)? {
        let rules = policy.enabled_rules(&cr.name);
        if rules.is_empty() {
            continue;
        }
        let src_dir = cr.dir.join("src");
        if !src_dir.is_dir() {
            continue;
        }
        lint_tree(root, &src_dir, &rules, &mut out)?;
        if rules.contains(&RuleId::R9) {
            declaring.push(src_dir);
        }
    }
    r9_unreferenced(root, policy, &declaring, &mut out)?;
    out.sort_by(|a, b| {
        (&a.file, a.finding.line, a.finding.rule).cmp(&(&b.file, b.finding.line, b.finding.rule))
    });
    Ok(out)
}

/// Lint every `.rs` file under `dir` (used for both crate `src/` trees
/// and explicit `--root` corpus runs), with all findings keyed relative
/// to `root`.
pub fn lint_tree(
    root: &Path,
    dir: &Path,
    rules: &BTreeSet<RuleId>,
    out: &mut Vec<FileFinding>,
) -> Result<(), EngineError> {
    let mut files = Vec::new();
    collect_rs(dir, &|_| true, &mut files)?;
    files.sort();
    for f in files {
        let src = read(&f)?;
        let rel = rel_str(root, &f);
        for finding in lint_source(&src, rules) {
            out.push(FileFinding {
                file: rel.clone(),
                finding,
            });
        }
    }
    Ok(())
}

/// R9 — a `pub` item declared under one of the `declaring` trees whose
/// name no identifier token in product code elsewhere spells. Only product
/// code counts: comments, strings, test lines and files under a `tests/`
/// or `benches/` directory do not; `examples/` and other packages' sources
/// (`benchmark/src`) do. The check is by name alone, so any second use of
/// the same spelling keeps an item: conservative on purpose.
fn r9_unreferenced(
    root: &Path,
    policy: &Policy,
    declaring: &[PathBuf],
    out: &mut Vec<FileFinding>,
) -> Result<(), EngineError> {
    let mut files = Vec::new();
    collect_rs(root, &|d| walked(root, policy, d), &mut files)?;
    let mut uses: BTreeMap<String, usize> = BTreeMap::new();
    let mut decls = Vec::new();
    for f in files {
        let rel = rel_str(root, &f);
        if rel.split('/').any(|c| c == "tests" || c == "benches") {
            continue;
        }
        let file = SourceFile::parse(&read(&f)?);
        let toks = &file.lexed.tokens;
        for t in toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident && !file.is_test_line(t.line))
        {
            *uses.entry(t.text.clone()).or_default() += 1;
        }
        if declaring.iter().any(|d| f.starts_with(d)) {
            decls.push((rel, file));
        }
    }
    for (rel, file) in decls {
        for (name, line) in pub_item_names(&file) {
            if uses[&name] > 1 || file.suppression_for(RuleId::R9, line).is_some() {
                continue;
            }
            out.push(FileFinding {
                file: rel.clone(),
                finding: Finding {
                    rule: RuleId::R9,
                    line,
                    message: format!("pub item `{name}` is referenced by no product code"),
                    hint: "delete it, or keep it with detlint::allow(R9, \"who needs it\")".into(),
                },
            });
        }
    }
    Ok(())
}

fn read(f: &Path) -> Result<String, EngineError> {
    fs::read_to_string(f).map_err(|e| EngineError(format!("read {}: {e}", f.display())))
}

/// Every `.rs` file under `dir`, descending into the subdirectories
/// `descend` accepts.
fn collect_rs(
    dir: &Path,
    descend: &dyn Fn(&Path) -> bool,
    out: &mut Vec<PathBuf>,
) -> Result<(), EngineError> {
    let entries =
        fs::read_dir(dir).map_err(|e| EngineError(format!("read_dir {}: {e}", dir.display())))?;
    for e in entries.filter_map(|e| e.ok()) {
        let p = e.path();
        if p.is_dir() {
            if descend(&p) {
                collect_rs(&p, descend, out)?;
            }
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

fn rel_str(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_name_reads_package_section_only() {
        let dir = std::env::temp_dir().join("detlint_engine_test_pkg");
        fs::create_dir_all(&dir).unwrap();
        let man = dir.join("Cargo.toml");
        fs::write(
            &man,
            "[workspace]\nmembers = []\n[package]\nname = \"demo_pkg\"\nversion = \"0.0.0\"\n",
        )
        .unwrap();
        assert_eq!(package_name(&man).as_deref(), Some("demo_pkg"));
        fs::remove_dir_all(&dir).ok();
    }
}
