//! The determinism rules R1–R7, and R9's declaration scan.
//!
//! Each of R1–R7 walks the token stream of one [`SourceFile`] and reports
//! hazards with a line, message, and fix hint. R9 needs the whole file set,
//! so the engine runs it over `pub_item_names`. Test-only code (lines
//! inside `#[cfg(test)]` modules / `#[test]` fns) is exempt from every
//! rule: the contract protects the digest-producing paths, and the
//! dynamic 1-vs-8-thread matrix already covers tests.

use crate::lexer::TokKind;
use crate::source::{match_paren, path_ends_at, SourceFile};
use std::collections::BTreeSet;
use std::fmt;

/// Identifies one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Wall-clock reads (`Instant::now`, `SystemTime`, `Utc::now`, ...).
    R1,
    /// Iteration over `HashMap`/`HashSet` (nondeterministic order).
    R2,
    /// Raw threading (`thread::spawn`, `crossbeam`) outside the executor.
    R3,
    /// Unseeded RNG (`thread_rng`, `from_entropy`, `OsRng`).
    R4,
    /// Unordered float reduction (`.sum()`/`.fold()`) inside `parallel_*`.
    R5,
    /// `#[allow(...)]` / `unsafe` without a justification comment.
    R6,
    /// Float reassociation hazards: fast-math intrinsics and lane-width-
    /// dependent horizontal reductions (`hsum`-style) whose result bits
    /// change with lane count or association order.
    R7,
    /// A `pub` item whose name no other token in the tree spells (a
    /// whole-tree rule: [`lint_source`] never reports it).
    R9,
    /// A `detlint::allow` that carries no reason string (meta rule —
    /// cannot itself be suppressed).
    BadAllow,
}

impl RuleId {
    /// All suppressible rules, in report order.
    pub const ALL: [RuleId; 8] = [
        RuleId::R1,
        RuleId::R2,
        RuleId::R3,
        RuleId::R4,
        RuleId::R5,
        RuleId::R6,
        RuleId::R7,
        RuleId::R9,
    ];

    /// Parse `"R1"`..`"R7"` and `"R9"`.
    pub fn parse(s: &str) -> Option<RuleId> {
        match s.trim() {
            "R1" => Some(RuleId::R1),
            "R2" => Some(RuleId::R2),
            "R3" => Some(RuleId::R3),
            "R4" => Some(RuleId::R4),
            "R5" => Some(RuleId::R5),
            "R6" => Some(RuleId::R6),
            "R7" => Some(RuleId::R7),
            "R9" => Some(RuleId::R9),
            _ => None,
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RuleId::R1 => "R1",
            RuleId::R2 => "R2",
            RuleId::R3 => "R3",
            RuleId::R4 => "R4",
            RuleId::R5 => "R5",
            RuleId::R6 => "R6",
            RuleId::R7 => "R7",
            RuleId::R9 => "R9",
            RuleId::BadAllow => "R0",
        };
        f.write_str(s)
    }
}

/// One reported hazard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: RuleId,
    pub line: u32,
    pub message: String,
    pub hint: String,
}

/// Run every rule in `enabled` over `src`, apply inline suppressions, and
/// append a [`RuleId::BadAllow`] finding for each reasonless suppression.
/// Findings come back sorted by (line, rule).
pub fn lint_source(src: &str, enabled: &BTreeSet<RuleId>) -> Vec<Finding> {
    let file = SourceFile::parse(src);
    let mut raw: Vec<Finding> = Vec::new();
    if enabled.contains(&RuleId::R1) {
        r1_wall_clock(&file, &mut raw);
    }
    if enabled.contains(&RuleId::R2) {
        r2_hash_iteration(&file, &mut raw);
    }
    if enabled.contains(&RuleId::R3) {
        r3_raw_threads(&file, &mut raw);
    }
    if enabled.contains(&RuleId::R4) {
        r4_unseeded_rng(&file, &mut raw);
    }
    if enabled.contains(&RuleId::R5) {
        r5_unordered_reduce(&file, &mut raw);
    }
    if enabled.contains(&RuleId::R6) {
        r6_unjustified_escape(&file, &mut raw);
    }
    if enabled.contains(&RuleId::R7) {
        r7_reassociation(&file, &mut raw);
    }
    let mut out: Vec<Finding> = raw
        .into_iter()
        .filter(|f| !file.is_test_line(f.line))
        .filter(|f| file.suppression_for(f.rule, f.line).is_none())
        .collect();
    for s in &file.suppressions {
        if s.reason.is_none() {
            out.push(Finding {
                rule: RuleId::BadAllow,
                line: s.line,
                message: "detlint::allow without a reason string".into(),
                hint: "write detlint::allow(Rn, \"why this site is safe\")".into(),
            });
        }
    }
    out.sort_by_key(|f| (f.line, f.rule));
    out
}

/// R1 — wall-clock reads. The virtual clock (`SimTime`) is the only time
/// source replayable across runs; `Instant`/`SystemTime` values differ
/// per host and feed timing jitter into anything they touch.
fn r1_wall_clock(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        let hit = match t.text.as_str() {
            "SystemTime" => true,
            "now" => ["Instant", "Utc", "Local", "Date"]
                .iter()
                .any(|ty| path_ends_at(toks, i, &[ty, ":", ":", "now"])),
            _ => false,
        };
        if hit {
            out.push(Finding {
                rule: RuleId::R1,
                line: t.line,
                message: format!("wall-clock read `{}` breaks replay determinism", t.text),
                hint: "use the scenario virtual clock (SimTime) or move timing into a \
                       bench/exp binary"
                    .into(),
            });
        }
    }
}

const ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
];

/// R2 — iteration over hash-ordered collections. `HashMap`/`HashSet`
/// iteration order is randomized per process; any digest, fan-out, or
/// reduction fed by it is nondeterministic. Detection is per-file: names
/// declared (or typed) as `HashMap`/`HashSet` are tracked, and iterating
/// method calls or `for` loops over those names are flagged.
fn r2_hash_iteration(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    let names = hash_collection_names(file);
    if names.is_empty() {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        // name . method (    |    self . name . method (
        if ITER_METHODS.contains(&t.text.as_str())
            && i >= 2
            && toks[i - 1].text == "."
            && names.contains(&toks[i - 2].text)
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
        {
            out.push(Finding {
                rule: RuleId::R2,
                line: t.line,
                message: format!(
                    "iteration over hash-ordered collection `{}` (`.{}()`)",
                    toks[i - 2].text,
                    t.text
                ),
                hint: "switch to BTreeMap/BTreeSet, or collect and sort before use".into(),
            });
        }
        // for <pat> in <expr containing a tracked name> {
        if t.text == "for" {
            let mut j = i + 1;
            let mut in_at = None;
            let mut depth = 0i32;
            while j < toks.len() && j < i + 64 {
                match toks[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "in" if depth == 0 => {
                        in_at = Some(j);
                        break;
                    }
                    "{" | ";" => break,
                    _ => {}
                }
                j += 1;
            }
            let Some(start) = in_at else { continue };
            let mut k = start + 1;
            let mut depth = 0i32;
            while k < toks.len() {
                match toks[k].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => break,
                    ";" => break,
                    name if names.contains(name) => {
                        // `m.get(..)`-style member calls inside the header
                        // were already handled above; a bare `&name` (or
                        // `name` feeding IntoIterator) is the hazard here.
                        let called = toks.get(k + 1).is_some_and(|n| n.text == ".");
                        if !called {
                            out.push(Finding {
                                rule: RuleId::R2,
                                line: toks[k].line,
                                message: format!("for-loop over hash-ordered collection `{name}`"),
                                hint: "switch to BTreeMap/BTreeSet, or collect and sort \
                                       before use"
                                    .into(),
                            });
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
        }
    }
}

/// Names bound to `HashMap`/`HashSet` in this file: `name: HashMap<..>`
/// type ascriptions (fields, params, lets) and `let name = HashMap::new()`
/// style initializers.
fn hash_collection_names(file: &SourceFile) -> BTreeSet<String> {
    let toks = &file.lexed.tokens;
    let mut names = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.text != "HashMap" && t.text != "HashSet" {
            continue;
        }
        // Walk back over a path prefix / reference sigils to `ident :`.
        let mut j = i;
        while j > 0 {
            let p = toks[j - 1].text.as_str();
            if p == ":" && j >= 2 && toks[j - 2].text == ":" {
                j -= 2; // `::` path separator
            } else if ["std", "collections", "&", "mut", "'"].contains(&p)
                || toks[j - 1].kind == TokKind::Lifetime
            {
                j -= 1;
            } else {
                break;
            }
        }
        if j >= 2 && toks[j - 1].text == ":" && toks[j - 2].kind == TokKind::Ident {
            names.insert(toks[j - 2].text.clone());
        }
    }
    // let [mut] name ... = <rhs containing HashMap/HashSet before `;`>
    for (i, t) in toks.iter().enumerate() {
        if t.text != "let" {
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.text == "mut") {
            j += 1;
        }
        let Some(name_tok) = toks.get(j) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident {
            continue;
        }
        let mut k = j + 1;
        let mut saw_eq = false;
        while k < toks.len() && k < j + 48 {
            match toks[k].text.as_str() {
                ";" => break,
                "=" => saw_eq = true,
                "HashMap" | "HashSet" if saw_eq => {
                    names.insert(name_tok.text.clone());
                    break;
                }
                _ => {}
            }
            k += 1;
        }
    }
    names
}

/// R3 — raw threading. All parallelism must route through
/// `gridsteer_exec` (fixed chunk→index mapping); ad-hoc `thread::spawn`
/// or `crossbeam` reintroduces scheduling-order dependence.
fn r3_raw_threads(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.text == "crossbeam" {
            out.push(Finding {
                rule: RuleId::R3,
                line: t.line,
                message: "crossbeam used outside gridsteer_exec".into(),
                hint: "route parallelism through the shared ExecPool".into(),
            });
        }
        if t.text == "spawn" && path_ends_at(toks, i, &["thread", ":", ":", "spawn"]) {
            out.push(Finding {
                rule: RuleId::R3,
                line: t.line,
                message: "thread::spawn outside gridsteer_exec".into(),
                hint: "route parallelism through the shared ExecPool".into(),
            });
        }
    }
}

/// R4 — unseeded randomness. Every RNG must be constructed from an
/// explicit seed recorded in the scenario, or replay diverges.
fn r4_unseeded_rng(file: &SourceFile, out: &mut Vec<Finding>) {
    for t in &file.lexed.tokens {
        if ["thread_rng", "from_entropy", "OsRng"].contains(&t.text.as_str()) {
            out.push(Finding {
                rule: RuleId::R4,
                line: t.line,
                message: format!("unseeded RNG source `{}`", t.text),
                hint: "use StdRng::seed_from_u64 with a scenario-recorded seed".into(),
            });
        }
    }
}

/// R5 — unordered float reduction inside a parallel region. `.sum()` /
/// `.fold()` in a closure handed to a `parallel_*` helper accumulates in
/// completion order unless wrapped by an ordered reduce (the pool's
/// `map` + sequential fold).
fn r5_unordered_reduce(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    // Collect `ordered_reduce(...)` spans so reductions inside them pass.
    let mut ordered: Vec<(usize, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.text == "ordered_reduce" && toks.get(i + 1).is_some_and(|n| n.text == "(") {
            ordered.push((i + 1, match_paren(toks, i + 1)));
        }
    }
    for (i, t) in toks.iter().enumerate() {
        if !t.text.starts_with("parallel_") || toks.get(i + 1).map(|n| n.text.as_str()) != Some("(")
        {
            continue;
        }
        let close = match_paren(toks, i + 1);
        for k in (i + 2)..close {
            let m = &toks[k];
            if (m.text == "sum" || m.text == "fold")
                && toks[k - 1].text == "."
                && toks.get(k + 1).is_some_and(|n| n.text == "(")
                && !ordered.iter().any(|&(a, b)| a < k && k < b)
            {
                out.push(Finding {
                    rule: RuleId::R5,
                    line: m.line,
                    message: format!(
                        "float accumulation `.{}()` inside `{}` closure runs in \
                         completion order",
                        m.text, t.text
                    ),
                    hint: "use pool.map(..) and fold the returned Vec sequentially \
                           (ordered reduce)"
                        .into(),
                });
            }
        }
    }
}

/// R6 — escape hatches need stated reasons: `#[allow(...)]` attributes
/// and `unsafe` tokens must carry a comment on the same line or within
/// the two lines above explaining why the escape is sound.
fn r6_unjustified_escape(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        let (is_escape, what) = if t.text == "unsafe" {
            (true, "unsafe")
        } else if t.text == "allow" && i >= 2 && toks[i - 1].text == "[" {
            // `#[allow` or `#![allow`
            let h = &toks[i - 2].text;
            (h == "#" || h == "!", "#[allow(..)]")
        } else {
            (false, "")
        };
        if is_escape && !file.has_nearby_comment(t.line) {
            out.push(Finding {
                rule: RuleId::R6,
                line: t.line,
                message: format!("{what} without a justification comment"),
                hint: "add a comment (same line or just above) stating why this \
                       escape is sound"
                    .into(),
            });
        }
    }
}

/// Fast-math intrinsics: each licenses LLVM to reassociate/contract, so
/// the result bits depend on optimization choices, not the source.
const FAST_MATH: [&str; 10] = [
    "fadd_fast",
    "fsub_fast",
    "fmul_fast",
    "fdiv_fast",
    "frem_fast",
    "fadd_algebraic",
    "fsub_algebraic",
    "fmul_algebraic",
    "fdiv_algebraic",
    "frem_algebraic",
];

/// Horizontal SIMD reductions: the fold shape (and therefore the float
/// association order) is a function of lane width, so the same data gives
/// different bits on different vector units.
const LANE_REDUCTIONS: [&str; 8] = [
    "hsum",
    "hmin",
    "hmax",
    "reduce_sum",
    "reduce_add",
    "reduce_min",
    "reduce_max",
    "horizontal_sum",
];

/// R7 — float reassociation hazards. Fast-math intrinsics hand the
/// compiler a reassociation license, and lane-width-dependent horizontal
/// reductions bake the vector width into the association tree; either way
/// the digest depends on how the code was compiled rather than what it
/// computes. Sites that pin their fold shape (like a fixed-width pairwise
/// tree) justify themselves with `// detlint::allow(R7, "...")`.
fn r7_reassociation(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        let name = t.text.as_str();
        let called = toks.get(i + 1).is_some_and(|n| n.text == "(")
            || toks.get(i + 1).is_some_and(|n| n.text == ":");
        if !called {
            continue;
        }
        if FAST_MATH.contains(&name) {
            out.push(Finding {
                rule: RuleId::R7,
                line: t.line,
                message: format!("fast-math intrinsic `{name}` licenses float reassociation"),
                hint: "use plain float ops (fixed association), or justify with \
                       detlint::allow(R7, ...)"
                    .into(),
            });
        } else if LANE_REDUCTIONS.contains(&name) {
            out.push(Finding {
                rule: RuleId::R7,
                line: t.line,
                message: format!(
                    "horizontal reduction `{name}` folds in lane-width-dependent order"
                ),
                hint: "accumulate per-lane and fold the lanes in a fixed order, or \
                       justify the fixed fold shape with detlint::allow(R7, ...)"
                    .into(),
            });
        }
    }
}

/// Item kinds R9 covers.
const PUB_ITEMS: [&str; 7] = ["fn", "struct", "enum", "trait", "const", "static", "type"];

/// R9's declarations: the name and line of every `pub` fn, struct, enum,
/// trait, const, static and type outside test code. `pub(crate)` items are
/// rustc's `dead_code` territory and are not listed.
pub(crate) fn pub_item_names(file: &SourceFile) -> Vec<(String, u32)> {
    let toks = &file.lexed.tokens;
    let text = |k: usize| toks.get(k).map_or("", |t| t.text.as_str());
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.text != "pub" || file.is_test_line(t.line) {
            continue;
        }
        // qualifiers: `const fn`, `unsafe fn`, `async fn`, `extern "C" fn`
        let mut k = i + 1;
        loop {
            match text(k) {
                "unsafe" | "async" => k += 1,
                "const" if ["fn", "unsafe"].contains(&text(k + 1)) => k += 1,
                "extern" if text(k + 1).starts_with('"') => k += 2,
                "extern" => k += 1,
                _ => break,
            }
        }
        if !PUB_ITEMS.contains(&text(k)) {
            continue;
        }
        let at = k + 1 + usize::from(text(k) == "static" && text(k + 1) == "mut");
        if let Some(name) = toks.get(at).filter(|n| n.kind == TokKind::Ident) {
            out.push((name.text.clone(), t.line));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> BTreeSet<RuleId> {
        RuleId::ALL.iter().copied().collect()
    }

    fn rules_of(src: &str) -> Vec<(RuleId, u32)> {
        lint_source(src, &all())
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn r1_flags_instant_and_systemtime_only_outside_tests() {
        let src = "fn a() { let t = Instant::now(); }\n\
                   fn b() { let s = SystemTime::now(); }\n\
                   #[cfg(test)]\nmod tests {\n  fn c() { let t = Instant::now(); }\n}\n";
        assert_eq!(rules_of(src), vec![(RuleId::R1, 1), (RuleId::R1, 2)]);
    }

    #[test]
    fn r2_flags_method_iteration_and_for_loops() {
        let src = "struct S { m: HashMap<u32, u8> }\n\
                   impl S {\n\
                     fn f(&self) { for v in self.m.values() {} }\n\
                     fn g(&self) { let m2: HashSet<u8> = HashSet::new(); for x in &m2 {} }\n\
                     fn h(&self) { let _ = self.m.get(&1); }\n\
                   }\n";
        assert_eq!(rules_of(src), vec![(RuleId::R2, 3), (RuleId::R2, 4)]);
    }

    #[test]
    fn r2_ignores_lookup_only_maps() {
        let src = "fn f(m: &HashMap<String, u32>) -> Option<u32> { m.get(\"x\").copied() }\n";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn r3_flags_spawn_and_crossbeam() {
        let src = "use crossbeam::channel::bounded;\nfn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(rules_of(src), vec![(RuleId::R3, 1), (RuleId::R3, 2)]);
    }

    #[test]
    fn r4_flags_entropy_sources() {
        let src = "fn f() { let mut r = thread_rng(); let s = StdRng::from_entropy(); }\n";
        assert_eq!(rules_of(src), vec![(RuleId::R4, 1), (RuleId::R4, 1)]);
    }

    #[test]
    fn r5_flags_sum_inside_parallel_closure_only() {
        let src = "fn f(pool: &P, v: &mut [f64]) {\n\
                     pool.parallel_chunks(v, 8, |_, c| {\n\
                       let s: f64 = c.iter().sum();\n\
                       let _ = s;\n\
                     });\n\
                     let fine: f64 = v.iter().sum();\n\
                   }\n";
        assert_eq!(rules_of(src), vec![(RuleId::R5, 3)]);
    }

    #[test]
    fn r6_flags_unjustified_allow_and_unsafe() {
        let src = "#[allow(dead_code)]\nfn f() { let p = unsafe { *x }; }\n\
                   // sound: slot is pinned for the pool's lifetime\nfn g() { let q = unsafe { *y }; }\n";
        assert_eq!(rules_of(src), vec![(RuleId::R6, 1), (RuleId::R6, 2)]);
    }

    #[test]
    fn r7_flags_fast_math_and_lane_reductions() {
        let src = "fn f(a: f64, b: f64) -> f64 { unsafe { std::intrinsics::fadd_fast(a, b) } }\n\
                   fn g(v: F64x4) -> f64 { v.hsum() }\n\
                   fn h(v: &[f64]) -> f64 { v.iter().sum() }\n\
                   fn ok(v: F64x4) -> f64 { v.hsum() } // detlint::allow(R7, \"fixed pairwise tree\")\n";
        // line 1 also trips R6 (unjustified unsafe)
        assert_eq!(
            rules_of(src),
            vec![(RuleId::R6, 1), (RuleId::R7, 1), (RuleId::R7, 2)]
        );
    }

    #[test]
    fn suppression_with_reason_silences_without_reason_reports() {
        let src = "fn a() { let t = Instant::now(); } // detlint::allow(R1, \"io timeout\")\n\
                   fn b() { let t = Instant::now(); } // detlint::allow(R1)\n";
        assert_eq!(rules_of(src), vec![(RuleId::BadAllow, 2)]);
    }

    #[test]
    fn r9_declarations_are_pub_items_outside_tests() {
        let src = "pub fn a() {}\npub(crate) fn b() {}\npub const unsafe fn c() {}\n\
                   pub extern \"C\" fn d() {}\npub static mut E: u8 = 0;\npub const F: u8 = 0;\n\
                   pub struct G { pub h: u8 }\npub use x::I;\nfn j() {}\n\
                   #[cfg(test)]\nmod tests {\n  pub fn k() {}\n}\n";
        let want = [("a", 1), ("c", 3), ("d", 4), ("E", 5), ("F", 6), ("G", 7)];
        let want = want.map(|(n, l)| (n.to_string(), l));
        assert_eq!(pub_item_names(&SourceFile::parse(src)), want);
        // a per-file run never reports R9
        assert!(rules_of(src).iter().all(|&(r, _)| r != RuleId::R9));
    }

    #[test]
    fn disabled_rules_do_not_fire() {
        let mut enabled = all();
        enabled.remove(&RuleId::R1);
        let f = lint_source("fn a() { let t = Instant::now(); }", &enabled);
        assert!(f.is_empty());
    }
}
