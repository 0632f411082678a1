//! The `gridsteer_bench` command line, driven as CI drives it.

use gridsteer_bench::experiments::EXPERIMENTS;
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gridsteer_bench"))
        .args(args)
        .output()
        .expect("gridsteer_bench runs")
}

#[test]
fn exp_list_prints_the_table_in_order() {
    let out = bench(&["exp", "list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let listed: Vec<(&str, &str)> = (stdout.lines())
        .map(|l| l.split_once(' ').expect("id, then summary"))
        .map(|(id, summary)| (id, summary.trim_start()))
        .collect();
    let table: Vec<(&str, &str)> = EXPERIMENTS.iter().map(|e| (e.id, e.summary)).collect();
    assert_eq!(listed, table);
}

#[test]
fn unknown_subcommand_or_id_exits_2_and_runs_nothing() {
    for args in [
        &[][..],
        &["frob"],
        &["exp"],
        &["exp", "nope"],
        // a known id beside an unknown one must not run either
        &["exp", "EV3", "nope"],
        &["exp", "all", "EV3"],
        &["exp", "EV3", "--out"],
        &["snap", "extra"],
        &["gate", "baselines"],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed rows");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("usage: gridsteer_bench"),
            "{args:?}: {stderr}"
        );
    }
    let stderr = String::from_utf8(bench(&["exp", "nope"]).stderr).unwrap();
    let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    assert!(stderr.contains(&known.join(" ")), "{stderr}");
}
