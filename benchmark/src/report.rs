//! `loopbench all`, `check` and `compare`: every workload in its own child
//! process of this binary (so `peak_rss_mb` is per workload), collected
//! into one report file, and two such files compared metric by metric.

use crate::json::{int, num, obj, text, to_line, Value};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::quartiles;
use crate::workload::specs;
use std::process::{Command, Stdio};

/// What one child invocation printed.
struct Child {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    result: Value,
    /// The `detail` line before it.
    detail: Value,
}

/// Run one workload in a child process and parse what it printed. The
/// child's table goes to our stdout as it is, its failure lines to stderr.
fn child(
    workload: &str,
    seed: u64,
    seconds: u32,
    trace: bool,
    quiet: bool,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut detail = None;
    let mut result = None;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("detail ") {
            detail = serde_json::value_from_slice(rest.as_bytes()).ok();
        } else if line.starts_with('{') {
            result = serde_json::value_from_slice(line.as_bytes()).ok();
        } else if !quiet {
            println!("{line}");
        }
    }
    match (out.status.success(), result, detail) {
        (true, Some(result), Some(detail)) => Ok(Child { result, detail }),
        _ => Err(format!(
            "{workload} (seed {seed}, trace {}) exited with {} and no result",
            trace as u8, out.status
        )),
    }
}

fn metric_value(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

fn count(result: &Value, key: &str) -> u64 {
    result.get(key).and_then(Value::as_int).unwrap_or(0) as u64
}

/// `loopbench all`: every workload, `runs` untraced runs on consecutive
/// seeds plus one traced run on the first, printed by name with units and
/// written to `out`. Returns the number of failed operations.
pub fn all(seed: u64, seconds: u32, runs: u32, out: &str) -> Result<u64, String> {
    let mut failed = 0;
    let mut workloads = Vec::new();
    for spec in specs() {
        println!("== {} — {}", spec.name, spec.why);
        let mut plain = Vec::new();
        for i in 0..runs {
            plain.push(child(spec.name, seed + i as u64, seconds, false, i > 0)?);
        }
        let traced = child(spec.name, seed, seconds, true, false)?;
        if let Some(shares) = traced.detail.get("shares_pct").and_then(Value::as_object) {
            let row: Vec<String> = shares
                .iter()
                .map(|(g, v)| format!("{g} {:.1}", v.as_f64().unwrap_or(0.0)))
                .collect();
            println!(
                "{:<13} layer shares, % of traced loop time: {}",
                spec.name,
                row.join(", ")
            );
        }
        let end_to_end = END_TO_END
            .iter()
            .map(|d| {
                let values = plain.iter().map(|c| num(metric_value(&c.result, d.name)));
                (
                    d.name,
                    obj(vec![
                        ("unit", text(d.unit)),
                        ("values", Value::Array(values.collect())),
                    ]),
                )
            })
            .collect();
        let per_layer = PER_LAYER
            .iter()
            .map(|d| {
                (
                    d.name,
                    obj(vec![
                        ("unit", text(d.unit)),
                        ("value", num(metric_value(&traced.result, d.name))),
                    ]),
                )
            })
            .collect();
        let results = plain.iter().chain([&traced]);
        let attempted: u64 = results.clone().map(|c| count(&c.result, "attempted")).sum();
        let run_failed: u64 = results.map(|c| count(&c.result, "failed")).sum();
        failed += run_failed;
        let digests = plain
            .iter()
            .map(|c| c.detail.get("digest").cloned().unwrap_or(Value::Null))
            .collect();
        workloads.push(obj(vec![
            ("name", text(spec.name)),
            ("end_to_end", obj(end_to_end)),
            ("per_layer", obj(per_layer)),
            ("ops_attempted", int(attempted)),
            ("ops_failed", int(run_failed)),
            ("digests", Value::Array(digests)),
            ("untraced_detail", plain[0].detail.clone()),
            ("traced_detail", traced.detail.clone()),
        ]));
    }
    let report = obj(vec![
        ("seed", int(seed)),
        ("seconds", int(seconds as u64)),
        ("runs", int(runs as u64)),
        ("workloads", Value::Array(workloads)),
    ]);
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out, to_line(&report) + "\n").map_err(|e| format!("{out}: {e}"))?;
    println!("report written to {out}; ops failed: {failed}");
    Ok(failed)
}

/// `loopbench check`: every workload's traced mode on a short run — the
/// untraced/traced and width-1/width-2 digest comparisons, the
/// conservation and stability invariants, the restore check and the twin's
/// checks. Returns the number of failed operations.
pub fn check(seed: u64, seconds: u32) -> Result<u64, String> {
    let mut failed = 0;
    for spec in specs() {
        let c = child(spec.name, seed, seconds, true, true)?;
        let (f, a) = (count(&c.result, "failed"), count(&c.result, "attempted"));
        let digest = c
            .detail
            .get("digest")
            .and_then(Value::as_str)
            .unwrap_or("?");
        let verdict = if f == 0 { "ok" } else { "FAILED" };
        println!(
            "{:<13} seed {seed} digest {digest} ops {f}/{a} failed: {verdict}",
            spec.name
        );
        failed += f;
    }
    Ok(failed)
}

struct Side {
    values: Vec<f64>,
    median: f64,
    /// `(q3 - q1) / median`, known from four values up.
    spread: Option<f64>,
}

fn side(workload: &Value, metric: &str) -> Side {
    let values: Vec<f64> = workload
        .get("end_to_end")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Value::as_array)
        .map(|vs| vs.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default();
    let q = quartiles(&values);
    let median = q.map_or(values.first().copied().unwrap_or(0.0), |q| q.1);
    let spread = q
        .filter(|_| values.len() >= 4 && median != 0.0)
        .map(|(q1, _, q3)| (q3 - q1) / median.abs());
    Side {
        values,
        median,
        spread,
    }
}

fn load(path: &str) -> Result<Value, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::value_from_slice(&bytes).map_err(|e| format!("{path}: {e}"))
}

fn workloads(report: &Value) -> &[Value] {
    report
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap_or(&[])
}

/// `loopbench compare a.json b.json`: per workload × end-to-end metric,
/// both medians, the ratio b/a, each side's quartile spread, the bound and
/// a verdict. `regressed`: b's median is worse than a's by more than the
/// bound. `unresolved`: a side's spread is wider than the bound, so the
/// medians cannot say (unless every b reads better than every a). Returns
/// `(regressed, unresolved)`.
pub fn compare(path_a: &str, path_b: &str) -> Result<(u32, u32), String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let (mut regressed, mut unresolved) = (0, 0);
    println!(
        "{:<13} {:<20} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "a (median)", "b (median)", "b/a", "iqr a", "iqr b", "bound"
    );
    for wa in workloads(&a) {
        let name = wa.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(wb) = workloads(&b)
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        else {
            return Err(format!("{path_b} has no workload {name}"));
        };
        for d in END_TO_END {
            let (sa, sb) = (side(wa, d.name), side(wb, d.name));
            let ratio = sb.median / sa.median;
            let worse = if d.lower_is_better {
                ratio - 1.0
            } else {
                1.0 - ratio
            };
            let better = |x: f64, y: f64| if d.lower_is_better { x < y } else { x > y };
            let b_wins_every_pair = sb
                .values
                .iter()
                .all(|vb| sa.values.iter().all(|va| better(*vb, *va)));
            let wide = [sa.spread, sb.spread]
                .iter()
                .any(|s| s.is_some_and(|s| s > d.bound));
            let verdict = if wide && !b_wins_every_pair {
                unresolved += 1;
                "unresolved"
            } else if worse > d.bound {
                regressed += 1;
                "REGRESSED"
            } else {
                "pass"
            };
            let pct =
                |s: Option<f64>| s.map_or("n<4".to_string(), |s| format!("{:.1}%", 100.0 * s));
            println!(
                "{:<13} {:<20} {:>12.4} {:>12.4} {:>8.3} {:>8} {:>8} {:>5.0}%  {verdict} ({} {})",
                name,
                d.name,
                sa.median,
                sb.median,
                ratio,
                pct(sa.spread),
                pct(sb.spread),
                100.0 * d.bound,
                d.unit,
                if d.lower_is_better {
                    "lower is better"
                } else {
                    "higher is better"
                },
            );
        }
        let ops = |w: &Value| (count(w, "ops_failed"), count(w, "ops_attempted"));
        let ((fa, aa), (fb, ab)) = (ops(wa), ops(wb));
        let same_counts = PER_LAYER.iter().filter(|d| d.unit == "count").all(|d| {
            let v = |w: &Value| {
                w.get("per_layer")
                    .and_then(|m| m.get(d.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
            };
            v(wa) == v(wb)
        });
        let same_digests = wa.get("digests") == wb.get("digests");
        println!(
            "{name:<13} ops failed/attempted: a {fa}/{aa}, b {fb}/{ab}; counts {}; digests {}",
            if same_counts { "identical" } else { "DIFFER" },
            if same_digests { "identical" } else { "DIFFER" },
        );
    }
    println!("{regressed} regressed, {unresolved} unresolved (ratios are b/a: base a = {path_a})");
    Ok((regressed, unresolved))
}
