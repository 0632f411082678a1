//! `detlint` — the determinism-lint CLI. Exit status is the CI gate:
//! 0 when the tree is clean, 1 when any finding (or a policy/IO error)
//! survives.

use gridsteer_lint::rules::RuleId;
use gridsteer_lint::{lint_tree, lint_workspace, Policy};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    let mut workspace = PathBuf::from(".");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => return usage("--root needs a directory"),
            },
            "--workspace" => match args.next() {
                Some(d) => workspace = PathBuf::from(d),
                None => return usage("--workspace needs a directory"),
            },
            "--help" | "-h" => {
                println!(
                    "detlint: workspace determinism lint\n\n\
                     USAGE:\n  detlint [--workspace DIR]   lint the workspace under DIR \
                     (default .) with its detlint.toml\n  detlint --root DIR          \
                     lint every .rs under DIR with every per-file rule (fixture mode; \
                     R9 needs a workspace)"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let findings = if let Some(dir) = root {
        // Fixture mode: every per-file rule, no policy, paths relative to
        // DIR. R9 is a whole-workspace rule and does not run here.
        let rules = RuleId::ALL.iter().copied().collect();
        let mut out = Vec::new();
        match lint_tree(&dir, &dir, &rules, &mut out) {
            Ok(()) => out,
            Err(e) => return fail(&format!("detlint: {e}")),
        }
    } else {
        let policy_path = workspace.join("detlint.toml");
        let policy = if policy_path.is_file() {
            let text = match std::fs::read_to_string(&policy_path) {
                Ok(t) => t,
                Err(e) => return fail(&format!("detlint: read {}: {e}", policy_path.display())),
            };
            match Policy::parse(&text) {
                Ok(p) => p,
                Err(e) => {
                    return fail(&format!(
                        "detlint: {}:{}: {}",
                        policy_path.display(),
                        e.line,
                        e.message
                    ))
                }
            }
        } else {
            Policy::default()
        };
        match lint_workspace(&workspace, &policy) {
            Ok(f) => f,
            Err(e) => return fail(&format!("detlint: {e}")),
        }
    };

    for f in &findings {
        println!("{}", f.render());
    }
    if findings.is_empty() {
        println!("detlint: clean");
        ExitCode::SUCCESS
    } else {
        println!("detlint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    fail(&format!("detlint: {msg} (--help for usage)"))
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::FAILURE
}
