//! Tier-1 fuzz regression suite.
//!
//! Four jobs, run on every `cargo test`:
//!
//! 1. **Corpus replay** — every `.scen` file under `crates/fuzz/corpus/`
//!    parses, is in canonical rendered form, and still passes the
//!    invariants its `#! check:` header records. A shrunk reproducer that
//!    lands in the corpus is replayed forever.
//! 2. **Seed-window soak** — a small fixed seed window of generated
//!    scenarios audits green on the real engine (the big window runs in
//!    CI via `gridsteer_bench exp fuzz`).
//! 3. **Pipeline demo** — a seeded fault injected behind the [`Runner`]
//!    seam is caught by the oracle, shrunk to a ≤ 8-action reproducer,
//!    survives the corpus text round-trip, and is provably absent from
//!    the real engine.
//! 4. **Pinned engine bytes** — the report digest of a 64-seed generated
//!    window, and of every corpus file present at the last bless, equals
//!    the committed `tests/fixtures/engine_digests.txt`, so an engine change that moves
//!    every digest *consistently* (which the run-twice comparisons above
//!    cannot see) still fails. After a deliberate behaviour change,
//!    re-bless with `GOLDEN_BLESS=1 cargo test -p gridsteer_fuzz --test
//!    fuzz_regressions engine_digests` and commit the fixture.

use gridsteer_fuzz::{
    check, check_with, corpus, generate, shrink, FuzzConfig, Invariant, PoolRunner, Runner,
};
use gridsteer_harness::{Scenario, ScenarioError, ScenarioReport, MAX_NAME_LEN};

#[test]
fn corpus_replays_forever() {
    let files = corpus::load_dir(&corpus::corpus_dir()).expect("corpus dir must exist");
    assert!(
        files.len() >= 3,
        "corpus went missing: only {} .scen files",
        files.len()
    );
    for (name, text) in files {
        corpus::check_text(&text).unwrap_or_else(|e| panic!("corpus file {name} regressed: {e}"));
    }
}

#[test]
fn corpus_files_are_canonical() {
    // parse → re-render is byte-identical: files stay diff-friendly and
    // nobody hand-edits one into a form the parser merely tolerates
    for (name, text) in corpus::load_dir(&corpus::corpus_dir()).unwrap() {
        let entry = corpus::parse(&text)
            .unwrap_or_else(|e| panic!("corpus file {name} does not parse: {e}"));
        assert_eq!(
            corpus::render(&entry.scenario, &entry.checks),
            text,
            "corpus file {name} is not in canonical rendered form"
        );
    }
}

#[test]
fn rejected_corpus_files_are_typed_errors() {
    // `corpus/rejected/` holds scripts that once reached the engine and
    // panicked there; each must parse as a script and then be refused by
    // `Scenario::validate`, with the reason the file is named after
    let dir = corpus::corpus_dir().join("rejected");
    let files = corpus::load_dir(&dir).expect("rejected corpus dir must exist");
    assert!(!files.is_empty(), "rejected corpus went missing");
    for (name, text) in files {
        let scenario = Scenario::from_script(&text)
            .unwrap_or_else(|e| panic!("{name} is no longer a well-formed script: {e}"));
        let refused = scenario.validate().expect_err(&name);
        assert_eq!(Err(refused.to_string()), corpus::parse(&text).map(|_| ()));
        if name == "relay-name-too-long.scen" {
            let ScenarioError::NameTooLong { len, .. } = refused else {
                panic!("{name}: refused for the wrong reason: {refused}");
            };
            assert_eq!(len, MAX_NAME_LEN + 1);
        }
    }
}

#[test]
fn a_fixed_seed_window_audits_green() {
    let cfg = FuzzConfig::default();
    for seed in 0..24 {
        let s = generate(seed, &cfg);
        let v = check(&s);
        assert!(v.is_empty(), "seed {seed} violated invariants: {v:?}");
    }
}

/// The seeded fault for the end-to-end demo: whenever any steer landed,
/// the wide pool reports one extra application — the kind of lost-guard
/// concurrency bug the thread-digest invariant exists to catch.
struct SeededFault;

impl Runner for SeededFault {
    fn run(&self, s: &Scenario, threads: usize) -> ScenarioReport {
        let mut r = PoolRunner.run(s, threads);
        if threads > 1 && r.steers_applied > 0 {
            r.steers_applied += 1;
        }
        r
    }
}

#[test]
fn injected_fault_is_caught_shrunk_and_replayable() {
    let cfg = FuzzConfig::default();
    // the soak loop in miniature: walk seeds until the oracle trips
    let fat = (0..64)
        .map(|seed| generate(seed, &cfg))
        .find(|s| {
            check_with(&SeededFault, s)
                .iter()
                .any(|v| v.invariant == Invariant::ThreadDigest)
        })
        .expect("no seed in 0..64 tripped the seeded fault");

    let small = shrink(&SeededFault, &fat, Invariant::ThreadDigest);
    assert!(
        small.actions().len() <= 8,
        "shrinker left {} actions:\n{}",
        small.actions().len(),
        small.to_script()
    );

    // the reproducer survives serialization to corpus text…
    let text = corpus::render(&small, &[Invariant::ThreadDigest]);
    let replayed = corpus::parse(&text).unwrap().scenario;
    assert!(
        check_with(&SeededFault, &replayed)
            .iter()
            .any(|v| v.invariant == Invariant::ThreadDigest),
        "replayed reproducer no longer trips the fault:\n{text}"
    );
    // …and the real engine is clean on it: the violation was the fault,
    // not the scenario
    assert!(check(&replayed).is_empty());
}

/// Every [`gridsteer_harness::Action::label`]; the pinned window must keep
/// exercising all of them.
const ACTION_LABELS: [&str; 13] = [
    "join",
    "leave",
    "pass",
    "steer",
    "partition",
    "heal",
    "loss",
    "jitter",
    "migrate",
    "viewer-leave",
    "viewer-join",
    "crash",
    "restore",
];

#[test]
fn engine_digests_are_pinned() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/engine_digests.txt"
    );
    let cfg = FuzzConfig::default();
    let files: Vec<(String, Scenario)> = corpus::load_dir(&corpus::corpus_dir())
        .expect("corpus dir must exist")
        .into_iter()
        .map(|(name, text)| {
            let entry = corpus::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, entry.scenario)
        })
        .collect();
    let window: Vec<(String, Scenario)> = (0..64)
        .map(|seed| generate(seed, &cfg))
        .map(|s| (s.label().to_string(), s))
        .collect();
    // the window cannot silently thin out: every action kind stays in it
    for label in ACTION_LABELS {
        assert!(
            window
                .iter()
                .any(|(_, s)| s.actions().iter().any(|(_, a)| a.label() == label)),
            "no scenario of the seed window schedules a {label:?} action any more"
        );
    }

    let digests: Vec<(&str, String)> = files
        .iter()
        .chain(&window)
        .map(|(name, s)| (name.as_str(), s.run().digest()))
        .collect();
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        let text: String = digests.iter().map(|(n, d)| format!("{n} {d}\n")).collect();
        std::fs::create_dir_all(std::path::Path::new(fixture).parent().unwrap()).unwrap();
        std::fs::write(fixture, text).unwrap();
        return;
    }
    let pinned = std::fs::read_to_string(fixture)
        .expect("fixture missing — run with GOLDEN_BLESS=1 to create it");
    for line in pinned.lines() {
        let (name, want) = line.split_once(' ').expect("fixture line is `name digest`");
        let (_, got) = digests
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("pinned input {name} is gone"));
        assert_eq!(got, want, "engine bytes moved on {name}");
    }
    // The fixture names what is pinned and a bless pins everything present:
    // a corpus file added since the last bless (say, a reproducer of an
    // engine panic, which has no digest on the engine it was found on) is
    // replayed above but not pinned yet. The generated window always is.
    for (name, _) in &window {
        assert!(
            pinned
                .lines()
                .any(|l| l.split(' ').next() == Some(name.as_str())),
            "seed scenario {name} is not in the fixture"
        );
    }
}

/// Not a test of the tree — the bless workflow. Run explicitly to
/// regenerate the seed-derived corpus files after a deliberate format or
/// engine change:
///
/// ```text
/// cargo test -p gridsteer_fuzz --test fuzz_regressions -- --ignored bless
/// ```
#[test]
#[ignore = "writes corpus files; run explicitly to bless"]
fn bless_seed_corpus() {
    let cfg = FuzzConfig::default();
    let all = Invariant::ALL;
    let mut picks: Vec<(&str, Scenario)> = Vec::new();
    let mut chain = None;
    let mut sharded = None;
    let mut relayed = None;
    for seed in 0..256u64 {
        let s = generate(seed, &cfg);
        let script = s.to_script();
        if chain.is_none() && gridsteer_fuzz::clean_crash_chain(&s) {
            chain = Some(s);
        } else if sharded.is_none() && s.shard_count() > 1 && script.contains("backend pepc") {
            sharded = Some(s);
        } else if relayed.is_none()
            && !s.relay_names().is_empty()
            && !s.viewer_names().is_empty()
            && script.contains("partition")
            && !script.contains(" crash")
        {
            relayed = Some(s);
        }
    }
    picks.push(("seed-crash-chain.scen", chain.expect("no chain seed")));
    picks.push((
        "seed-pepc-shards.scen",
        sharded.expect("no sharded pepc seed"),
    ));
    picks.push((
        "seed-relay-faults.scen",
        relayed.expect("no relay+fault seed"),
    ));
    for (file, s) in picks {
        let v = check(&s);
        assert!(v.is_empty(), "candidate {file} is not green: {v:?}");
        std::fs::write(corpus::corpus_dir().join(file), corpus::render(&s, &all)).unwrap();
        println!("blessed {file}");
    }
}
