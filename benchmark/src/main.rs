//! `loopbench` — the closed steering loop, end to end and layer by layer.
//!
//! ```text
//! loopbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! loopbench all     [--seed n] [--seconds s] [--runs k] [--out file]
//! loopbench check   [--seed n] [--seconds s]
//! loopbench compare <a.json> <b.json>
//! ```
//!
//! The first form runs one workload in this process and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer ones with `--trace 1`. See `README.md`.

mod clock;
mod json;
mod load;
mod metrics;
mod report;
mod run;
mod stats;
mod trace;
mod twin;
mod workload;
mod world;

use json::{int, num, obj, text, to_line, Value};
use std::process::ExitCode;

const DEFAULT_SEED: u64 = 2003;
const DEFAULT_SECONDS: u32 = 20;

/// `--flag value` pairs after the optional subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            out.push((name.to_string(), value.clone()));
        }
        Ok(Flags(out))
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.iter().find(|(n, _)| n == name) {
            None => Ok(default),
            Some((_, v)) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }

    fn text(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// One workload in this process: the driver's form of the command.
fn run_one(flags: &Flags) -> Result<ExitCode, String> {
    let name = flags.text("workload").ok_or("--workload is required")?;
    let spec = workload::by_name(name).ok_or_else(|| format!("no workload named {name:?}"))?;
    let seconds: u32 = flags.get("seconds", DEFAULT_SECONDS)?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    let args = run::Args {
        spec,
        seed: flags.get("seed", DEFAULT_SEED)?,
        seconds,
        trace: match flags.get("trace", 0u8)? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace is 0 or 1, not {other}")),
        },
    };
    let outcome = run::run(&args);
    for (def, value) in &outcome.metrics {
        // a percentile is quoted with its sample count, and flagged when
        // fewer than ten samples lie beyond it
        let count = outcome
            .samples
            .iter()
            .find(|(name, _)| *name == def.name)
            .map(|(_, p)| {
                let flag = if p.n > 0 && !p.resolved() {
                    " UNRESOLVED: under 10 beyond"
                } else {
                    ""
                };
                format!("  (n={}, {} beyond{flag})", p.n, p.beyond)
            })
            .unwrap_or_default();
        println!(
            "{:<13} {:<36} {:>16.4} {}{count}",
            args.spec.name, def.name, value, def.unit
        );
    }
    println!("detail {}", to_line(&outcome.detail));
    let metrics: Vec<(&str, Value)> = outcome
        .metrics
        .iter()
        .map(|(def, value)| {
            (
                def.name,
                obj(vec![("value", num(*value)), ("unit", text(def.unit))]),
            )
        })
        .collect();
    println!(
        "{}",
        to_line(&obj(vec![
            ("correct", Value::Bool(outcome.correct())),
            ("attempted", int(outcome.attempted)),
            ("failed", int(outcome.failed)),
            ("metrics", obj(metrics)),
        ]))
    );
    Ok(ExitCode::SUCCESS)
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let failed_to_code = |failed: u64| {
        if failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    };
    match args.first().map(String::as_str) {
        Some("all") => {
            let flags = Flags::parse(&args[1..])?;
            let failed = report::all(
                flags.get("seed", DEFAULT_SEED)?,
                flags.get("seconds", DEFAULT_SECONDS)?,
                flags.get("runs", 1u32)?.max(1),
                flags.text("out").unwrap_or("benchmark/out/report.json"),
            )?;
            Ok(failed_to_code(failed))
        }
        Some("check") => {
            let flags = Flags::parse(&args[1..])?;
            let failed = report::check(flags.get("seed", DEFAULT_SEED)?, flags.get("seconds", 4)?)?;
            Ok(failed_to_code(failed))
        }
        Some("compare") => match &args[1..] {
            [a, b] => {
                let (regressed, _unresolved) = report::compare(a, b)?;
                Ok(failed_to_code(regressed as u64))
            }
            _ => Err("usage: loopbench compare <a.json> <b.json>".into()),
        },
        _ => run_one(&Flags::parse(args)?),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("loopbench: {e}");
            ExitCode::from(2)
        }
    }
}
