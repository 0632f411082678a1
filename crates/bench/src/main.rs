//! `gridsteer_bench <exp|snap|gate>` — the one executable over the
//! experiment table and the gate table.
//!
//! * `exp <id>… | all | list [--out <dir>]` runs experiments from
//!   [`EXPERIMENTS`] and prints their rows; with `--out` each also writes
//!   `EXP_<id>.json` there. Exits 1 if an experiment produced no rows — so
//!   a wired-but-dead experiment fails loudly in CI instead of printing
//!   nothing and exiting 0.
//! * `snap [--out <dir>]` measures every workload of [`gate::GATES`] and
//!   writes the `BENCH_<id>.json` snapshots (default: the working
//!   directory).
//! * `gate <baseline_dir> <current_dir>` compares snapshots against the
//!   committed baselines; exits 1 on a digest drift or a wall-time
//!   regression beyond [`gate::MAX_REGRESSION`].
//!
//! A command line that names no such subcommand or experiment exits 2
//! before anything runs.

use gridsteer_bench::experiments::{Experiment, EXPERIMENTS};
use gridsteer_bench::gate;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: gridsteer_bench exp <id>...|all|list [--out <dir>]
       gridsteer_bench snap [--out <dir>]
       gridsteer_bench gate <baseline_dir> <current_dir>";

/// Split `--out <dir>` off the arguments; what is left is positional.
fn take_out(args: &[String]) -> Result<(Vec<&str>, Option<PathBuf>), String> {
    let mut rest = Vec::new();
    let mut out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--out" {
            out = Some(PathBuf::from(it.next().ok_or("--out needs a directory")?));
        } else {
            rest.push(a.as_str());
        }
    }
    Ok((rest, out))
}

/// Resolve `exp`'s positional arguments against the table, all of them
/// before any experiment runs.
fn pick(ids: &[&str]) -> Result<Vec<&'static Experiment>, String> {
    match ids {
        [] => Err("exp needs an experiment id, `all` or `list`".into()),
        ["all"] => Ok(EXPERIMENTS.iter().collect()),
        _ => (ids.iter())
            .map(|id| {
                (EXPERIMENTS.iter().find(|e| e.id == *id)).ok_or_else(|| {
                    let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
                    format!("unknown experiment {id:?}; known: {}", known.join(" "))
                })
            })
            .collect(),
    }
}

/// Create the `--out` directory before measuring anything, so a run that
/// cannot write fails at once.
fn make_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

fn exp(picked: &[&Experiment], out: Option<&Path>) -> Result<(), String> {
    out.map_or(Ok(()), make_dir)?;
    let mut empty = Vec::new();
    for e in picked {
        let result = e.run();
        eprintln!("[{}] {} rows", e.id, result.rows.len());
        if result.rows.is_empty() {
            empty.push(e.id);
        }
        if let Some(dir) = out {
            (result.write_json(dir))
                .map_err(|err| format!("[{}] cannot write json: {err}", e.id))?;
        }
    }
    if empty.is_empty() {
        Ok(())
    } else {
        Err(format!("experiments with no data: {}", empty.join(", ")))
    }
}

fn snap(dir: &Path) -> Result<(), String> {
    make_dir(dir)?;
    for report in gate::snapshot_all() {
        for cell in &report.cells {
            println!(
                "{} {:<28} {:>10.1} us  digest {}",
                report.id, cell.cell, cell.wall_us, cell.digest
            );
        }
        gate::write_report(dir, &report)
            .map_err(|e| format!("cannot write {}: {e}", gate::json_name(&report.id)))?;
    }
    println!("snap: wrote snapshots to {}", dir.display());
    Ok(())
}

fn gate(baseline: &Path, current: &Path) -> Result<(), String> {
    let violations = gate::compare(baseline, current);
    if violations.is_empty() {
        println!(
            "gate: all cells within {:.0}% of baseline, digests exact",
            (gate::MAX_REGRESSION - 1.0) * 100.0
        );
        return Ok(());
    }
    Err(format!(
        "gate: {} violation(s):\n  {}",
        violations.len(),
        violations.join("\n  ")
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = |msg: String| {
        eprintln!("{msg}\n{USAGE}");
        ExitCode::from(2)
    };
    let (sub, rest) = match args.split_first() {
        Some((sub, rest)) => (sub.as_str(), rest),
        None => return usage("no subcommand".into()),
    };
    let (pos, out) = match take_out(rest) {
        Ok(split) => split,
        Err(msg) => return usage(msg),
    };
    let ran = match (sub, pos.as_slice()) {
        ("exp", ["list"]) => {
            for e in EXPERIMENTS {
                println!("{:<8} {}", e.id, e.summary);
            }
            Ok(())
        }
        ("exp", ids) => match pick(ids) {
            Ok(picked) => exp(&picked, out.as_deref()),
            Err(msg) => return usage(msg),
        },
        ("snap", []) => snap(out.as_deref().unwrap_or(Path::new("."))),
        ("gate", [baseline, current]) if out.is_none() => {
            gate(Path::new(baseline), Path::new(current))
        }
        _ => return usage(format!("unknown command line: {}", args.join(" "))),
    };
    match ran {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
