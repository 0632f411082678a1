//! A stable, diff-friendly text form for [`Scenario`] scripts.
//!
//! The fuzzer's shrunk reproductions have to be readable in review and
//! replayable forever from the regression corpus, so a scenario
//! serializes to a line-based script ([`Scenario::to_script`]) and parses
//! back ([`Scenario::from_script`]):
//!
//! ```text
//! scenario storm-42
//! seed 42
//! backend lbm nx=12 ny=12 nz=12
//! sample_every 100ms
//! duration 3000ms
//! participant alice link=uk_janet
//! route alice visit
//! relay region parent=origin link=campus every=2
//! viewer desk link=wan via=visit budget=desktop-render every=1 relay=region
//! at 200ms loss bob 200000
//! at 500ms steer alice miscibility f64:0.3
//! ```
//!
//! Properties the corpus leans on:
//!
//! * **Stable** — serializing the same built scenario always yields the
//!   same bytes (declaration order in, declaration order out), and
//!   `to_script(from_script(s))` is a fixpoint.
//! * **Replayable** — a parsed scenario runs to the same report digest as
//!   the scenario it was serialized from (link *presets* are named, and
//!   the engine re-derives every per-link seed from the scenario seed, so
//!   nothing is lost in the text round trip).
//! * **Reviewable** — one declaration or action per line; times are
//!   plain `…ms`/`…ns`; `#` starts a comment.
//!
//! Names (participants, viewers, relays, params, sites) must be free of
//! whitespace — the generator only emits such names, and
//! [`Scenario::to_script`] panics on one that is not (a corpus file that
//! cannot parse back would be worse than a loud failure at shrink time).

use crate::scenario::{Action, BackendSpec, RelaySpec, Scenario, ViewerSpec};
use gridsteer_bus::Transport;
use lbm::LbmConfig;
use netsim::{Link, SimTime};
use pepc::PepcConfig;
use std::fmt;
use std::fmt::Write as _;
use steer_core::{LoopBudget, ParamValue};

/// A parse failure, pointing at the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "script line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ScriptError {}

fn err(line: usize, msg: impl Into<String>) -> ScriptError {
    ScriptError {
        line,
        msg: msg.into(),
    }
}

/// Render a time as `…ms` when whole milliseconds, `…ns` otherwise.
fn fmt_time(t: SimTime) -> String {
    let ns = t.as_nanos();
    if ns.is_multiple_of(1_000_000) {
        format!("{}ms", ns / 1_000_000)
    } else {
        format!("{ns}ns")
    }
}

fn parse_time(s: &str, line: usize) -> Result<SimTime, ScriptError> {
    let (digits, mul) = if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000u64)
    } else if let Some(d) = s.strip_suffix("ns") {
        (d, 1)
    } else if let Some(d) = s.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000_000)
    } else {
        return Err(err(line, format!("time {s:?} needs a ns/us/ms/s suffix")));
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| err(line, format!("bad time value {s:?}")))?;
    Ok(SimTime::from_nanos(n.saturating_mul(mul)))
}

/// The named link presets the text form recognizes (seed excluded from
/// matching: the engine re-derives every per-link seed from the scenario
/// seed before use).
fn presets() -> [(&'static str, Link); 7] {
    [
        ("loopback", Link::loopback()),
        ("lan", Link::default()),
        ("campus", Link::campus()),
        ("uk_janet", Link::uk_janet()),
        ("gwin", Link::gwin()),
        ("wan", Link::wan()),
        ("transatlantic", Link::transatlantic()),
    ]
}

fn link_token(l: &Link) -> String {
    for (name, p) in presets() {
        if p.latency == l.latency
            && p.bandwidth_bps == l.bandwidth_bps
            && p.jitter == l.jitter
            && p.loss_ppm == l.loss_ppm
        {
            return name.to_string();
        }
    }
    format!(
        "custom:latency={},bw={},jitter={},loss={}",
        fmt_time(l.latency),
        l.bandwidth_bps,
        fmt_time(l.jitter),
        l.loss_ppm
    )
}

fn parse_link(tok: &str, line: usize) -> Result<Link, ScriptError> {
    for (name, p) in presets() {
        if tok == name {
            return Ok(p);
        }
    }
    let spec = tok
        .strip_prefix("custom:")
        .ok_or_else(|| err(line, format!("unknown link preset {tok:?}")))?;
    let mut b = Link::builder();
    for field in spec.split(',') {
        let (k, v) = field
            .split_once('=')
            .ok_or_else(|| err(line, format!("bad link field {field:?}")))?;
        b = match k {
            "latency" => b.latency(parse_time(v, line)?),
            "bw" => b.bandwidth_bps(
                v.parse()
                    .map_err(|_| err(line, format!("bad bandwidth {v:?}")))?,
            ),
            "jitter" => b.jitter(parse_time(v, line)?),
            "loss" => b.loss_ppm(
                v.parse()
                    .map_err(|_| err(line, format!("bad loss {v:?}")))?,
            ),
            _ => return Err(err(line, format!("unknown link field {k:?}"))),
        };
    }
    Ok(b.build())
}

fn parse_transport(tok: &str, line: usize) -> Result<Transport, ScriptError> {
    Transport::ALL
        .into_iter()
        .find(|t| t.label() == tok)
        .ok_or_else(|| err(line, format!("unknown transport {tok:?}")))
}

fn parse_budget(tok: &str, line: usize) -> Result<LoopBudget, ScriptError> {
    [
        LoopBudget::VrRender,
        LoopBudget::DesktopRender,
        LoopBudget::PostProcessing,
        LoopBudget::Simulation,
    ]
    .into_iter()
    .find(|b| b.name() == tok)
    .ok_or_else(|| err(line, format!("unknown budget {tok:?}")))
}

fn value_token(v: &ParamValue) -> String {
    match v {
        ParamValue::F64(x) => format!("f64:{x:?}"),
        ParamValue::I64(x) => format!("i64:{x}"),
        ParamValue::Bool(x) => format!("bool:{x}"),
        ParamValue::Vec3([a, b, c]) => format!("vec3:{a:?},{b:?},{c:?}"),
        ParamValue::Str(s) => format!("str:{s}"),
    }
}

fn parse_value(tok: &str, line: usize) -> Result<ParamValue, ScriptError> {
    let (kind, body) = tok
        .split_once(':')
        .ok_or_else(|| err(line, format!("steer value {tok:?} needs a kind: prefix")))?;
    let bad = |what: &str| err(line, format!("bad {what} value {body:?}"));
    match kind {
        "f64" => Ok(ParamValue::F64(body.parse().map_err(|_| bad("f64"))?)),
        "i64" => Ok(ParamValue::I64(body.parse().map_err(|_| bad("i64"))?)),
        "bool" => Ok(ParamValue::Bool(body.parse().map_err(|_| bad("bool"))?)),
        "vec3" => {
            let parts: Vec<&str> = body.split(',').collect();
            if parts.len() != 3 {
                return Err(bad("vec3"));
            }
            let mut v = [0.0f64; 3];
            for (slot, p) in v.iter_mut().zip(&parts) {
                *slot = p.parse().map_err(|_| bad("vec3"))?;
            }
            Ok(ParamValue::Vec3(v))
        }
        "str" => Ok(ParamValue::Str(body.to_string())),
        _ => Err(err(line, format!("unknown value kind {kind:?}"))),
    }
}

/// Whitespace in a name would shear the token stream apart on parse.
fn check_name(name: &str) {
    assert!(
        !name.is_empty() && !name.chars().any(|c| c.is_whitespace()),
        "script names must be non-empty and whitespace-free, got {name:?}"
    );
}

/// Append one `at` line's action: its label, then its arguments.
fn write_action(out: &mut String, action: &Action) {
    let _ = write!(out, "{}", action.label());
    match action {
        Action::Join { name, link } => {
            check_name(name);
            let _ = write!(out, " {name} link={}", link_token(link));
        }
        Action::Leave { name } | Action::ViewerLeave { name } => {
            check_name(name);
            let _ = write!(out, " {name}");
        }
        Action::PassMaster { from, to } | Action::Migrate { from, to } => {
            check_name(from);
            check_name(to);
            let _ = write!(out, " {from} {to}");
        }
        Action::Steer { who, param, value } => {
            check_name(who);
            check_name(param);
            let _ = write!(out, " {who} {param} {}", value_token(value));
        }
        Action::Partition { who } | Action::Heal { who } => {
            check_name(who);
            let _ = write!(out, " {who}");
        }
        Action::SetLoss { who, ppm } => {
            check_name(who);
            let _ = write!(out, " {who} {ppm}");
        }
        Action::SetJitter { who, jitter } => {
            check_name(who);
            let _ = write!(out, " {who} {}", fmt_time(*jitter));
        }
        Action::ViewerJoin {
            name,
            link,
            transport,
            relay,
        } => {
            check_name(name);
            let _ = write!(
                out,
                " {name} link={} via={}",
                link_token(link),
                transport.label()
            );
            if let Some(r) = relay {
                let _ = write!(out, " relay={r}");
            }
        }
        Action::Crash | Action::Restore => {}
    }
}

/// One directive line's arguments: positional and `key=value` lookups
/// whose errors point at the line.
struct Args<'a> {
    lno: usize,
    toks: &'a [&'a str],
}

impl<'a> Args<'a> {
    fn pos(&self, idx: usize, what: &str) -> Result<&'a str, ScriptError> {
        (self.toks.get(idx).copied()).ok_or_else(|| err(self.lno, format!("missing {what}")))
    }

    fn kv(&self, key: &str) -> Option<&'a str> {
        (self.toks.iter()).find_map(|a| a.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
    }

    fn need(&self, key: &str) -> Result<&'a str, ScriptError> {
        self.kv(key)
            .ok_or_else(|| err(self.lno, format!("missing {key}= field")))
    }

    /// Parse a number out of `tok`, or fail with `bad <what>`.
    fn num<T: std::str::FromStr>(&self, tok: &str, what: &str) -> Result<T, ScriptError> {
        tok.parse()
            .map_err(|_| err(self.lno, format!("bad {what}")))
    }
}

fn parse_backend(args: &Args) -> Result<BackendSpec, ScriptError> {
    match args.pos(0, "backend kind")? {
        "lbm" => Ok(BackendSpec::Lbm(LbmConfig {
            nx: args.num(args.need("nx")?, "nx")?,
            ny: args.num(args.need("ny")?, "ny")?,
            nz: args.num(args.need("nz")?, "nz")?,
            ..Default::default()
        })),
        "pepc" => Ok(BackendSpec::Pepc(PepcConfig {
            n_target: args.num(args.need("n")?, "n")?,
            ranks: args.num(args.need("ranks")?, "ranks")?,
            ..Default::default()
        })),
        other => Err(err(args.lno, format!("unknown backend {other:?}"))),
    }
}

fn parse_relay(args: &Args) -> Result<RelaySpec, ScriptError> {
    let parent = match args.need("parent")? {
        "origin" => None,
        p => Some(p.to_string()),
    };
    Ok(RelaySpec {
        name: args.pos(0, "relay name")?.to_string(),
        parent,
        uplink: parse_link(args.need("link")?, args.lno)?,
        every: args.num(args.need("every")?, "every")?,
        child_budget: match args.kv("child_budget") {
            None => None,
            Some(v) => Some(args.num(v, "child_budget")?),
        },
    })
}

fn parse_viewer(args: &Args) -> Result<ViewerSpec, ScriptError> {
    Ok(ViewerSpec {
        name: args.pos(0, "viewer name")?.to_string(),
        link: parse_link(args.need("link")?, args.lno)?,
        transport: parse_transport(args.need("via")?, args.lno)?,
        budget: parse_budget(args.need("budget")?, args.lno)?,
        every: args.num(args.need("every")?, "every")?,
        relay: args.kv("relay").map(str::to_string),
    })
}

/// Parse the body of an `at <time>` line: `body.toks[0]` is the action
/// kind, its arguments follow.
fn parse_action(body: &Args) -> Result<Action, ScriptError> {
    let lno = body.lno;
    let name = |idx: usize, what: &str| body.pos(idx, what).map(str::to_string);
    let field = |key: &str| {
        body.kv(key)
            .ok_or_else(|| err(lno, format!("missing {key}=")))
    };
    Ok(match body.pos(0, "action kind")? {
        "join" => Action::Join {
            name: name(1, "name")?,
            link: parse_link(field("link")?, lno)?,
        },
        "leave" => Action::Leave {
            name: name(1, "name")?,
        },
        "pass" => Action::PassMaster {
            from: name(1, "from")?,
            to: name(2, "to")?,
        },
        "steer" => Action::Steer {
            who: name(1, "sender")?,
            param: name(2, "param")?,
            value: parse_value(body.pos(3, "value")?, lno)?,
        },
        "partition" => Action::Partition {
            who: name(1, "target")?,
        },
        "heal" => Action::Heal {
            who: name(1, "target")?,
        },
        "loss" => Action::SetLoss {
            who: name(1, "target")?,
            ppm: body.num(body.pos(2, "ppm")?, "ppm")?,
        },
        "jitter" => Action::SetJitter {
            who: name(1, "target")?,
            jitter: parse_time(body.pos(2, "jitter")?, lno)?,
        },
        "migrate" => Action::Migrate {
            from: name(1, "from")?,
            to: name(2, "to")?,
        },
        "viewer-leave" => Action::ViewerLeave {
            name: name(1, "name")?,
        },
        "viewer-join" => Action::ViewerJoin {
            name: name(1, "name")?,
            link: parse_link(field("link")?, lno)?,
            transport: parse_transport(field("via")?, lno)?,
            relay: body.kv("relay").map(str::to_string),
        },
        "crash" => Action::Crash,
        "restore" => Action::Restore,
        other => return Err(err(lno, format!("unknown action {other:?}"))),
    })
}

impl Scenario {
    /// Serialize to the stable text form. See the module docs for the
    /// grammar; [`Scenario::from_script`] parses it back. Panics if any
    /// name contains whitespace (unrepresentable).
    pub fn to_script(&self) -> String {
        let mut out = String::new();
        self.write_header(&mut out);
        self.write_topology(&mut out);
        for (t, action) in &self.actions {
            let _ = write!(out, "at {} ", fmt_time(*t));
            write_action(&mut out, action);
            out.push('\n');
        }
        out
    }

    /// The run-wide keys: name, seed, backend, cadence, length.
    fn write_header(&self, out: &mut String) {
        check_name(&self.name);
        let _ = writeln!(out, "scenario {}", self.name);
        let _ = writeln!(out, "seed {}", self.seed);
        match &self.backend {
            BackendSpec::Lbm(c) => {
                let _ = writeln!(out, "backend lbm nx={} ny={} nz={}", c.nx, c.ny, c.nz);
            }
            BackendSpec::Pepc(c) => {
                let _ = writeln!(out, "backend pepc n={} ranks={}", c.n_target, c.ranks);
            }
        }
        let _ = writeln!(out, "sample_every {}", fmt_time(self.sample_every));
        if self.steps_per_sample != 1 {
            let _ = writeln!(out, "steps_per_sample {}", self.steps_per_sample);
        }
        let _ = writeln!(out, "duration {}", fmt_time(self.duration));
        if self.shards != 1 {
            let _ = writeln!(out, "shards {}", self.shards);
        }
        if let Some(t) = self.checkpoint_every {
            let _ = writeln!(out, "checkpoint_every {}", fmt_time(t));
        }
    }

    /// Who is attached at tick zero: participants, their routes, the relay
    /// tree and the viewers, each in declaration order.
    fn write_topology(&self, out: &mut String) {
        for (name, link) in &self.participants {
            check_name(name);
            let _ = writeln!(out, "participant {name} link={}", link_token(link));
        }
        // routes cover every transport assignment, including mid-run
        // joiners (BTreeMap ⇒ stable order)
        for (name, t) in &self.transports {
            check_name(name);
            let _ = writeln!(out, "route {name} {}", t.label());
        }
        for r in &self.relays {
            check_name(&r.name);
            let _ = write!(
                out,
                "relay {} parent={} link={} every={}",
                r.name,
                r.parent.as_deref().unwrap_or("origin"),
                link_token(&r.uplink),
                r.every
            );
            if let Some(b) = r.child_budget {
                let _ = write!(out, " child_budget={b}");
            }
            out.push('\n');
        }
        for v in &self.viewers {
            check_name(&v.name);
            let _ = write!(
                out,
                "viewer {} link={} via={} budget={} every={}",
                v.name,
                link_token(&v.link),
                v.transport.label(),
                v.budget.name(),
                v.every
            );
            if let Some(r) = &v.relay {
                let _ = write!(out, " relay={r}");
            }
            out.push('\n');
        }
    }

    /// Parse the text form back into a builder-equivalent scenario.
    /// Blank lines and `#` comments are skipped, so corpus headers
    /// (`#!` metadata lines) pass through unharmed.
    pub fn from_script(text: &str) -> Result<Scenario, ScriptError> {
        let mut s = Scenario::named("scripted");
        for (i, raw) in text.lines().enumerate() {
            let lno = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let toks: Vec<&str> = line.split_whitespace().collect();
            let args = Args {
                lno,
                toks: &toks[1..],
            };
            match toks[0] {
                "scenario" => s.name = args.pos(0, "name")?.to_string(),
                "seed" => s.seed = args.num(args.pos(0, "seed")?, "seed")?,
                "backend" => s.backend = parse_backend(&args)?,
                "sample_every" => s.sample_every = parse_time(args.pos(0, "interval")?, lno)?,
                "steps_per_sample" => {
                    s.steps_per_sample = args.num(args.pos(0, "count")?, "steps_per_sample")?;
                }
                "duration" => s.duration = parse_time(args.pos(0, "duration")?, lno)?,
                "shards" => s.shards = args.num(args.pos(0, "count")?, "shards")?,
                "checkpoint_every" => {
                    s.checkpoint_every = Some(parse_time(args.pos(0, "interval")?, lno)?);
                }
                "participant" => {
                    let name = args.pos(0, "participant name")?.to_string();
                    let link = parse_link(args.need("link")?, lno)?;
                    s.participants.push((name, link));
                }
                "route" => {
                    let name = args.pos(0, "participant name")?.to_string();
                    let t = parse_transport(args.pos(1, "transport")?, lno)?;
                    s.transports.insert(name, t);
                }
                "relay" => s.relays.push(parse_relay(&args)?),
                "viewer" => s.viewers.push(parse_viewer(&args)?),
                "at" => {
                    let t = parse_time(args.pos(0, "time")?, lno)?;
                    let body = Args {
                        lno,
                        toks: &args.toks[1..],
                    };
                    s.actions.push((t, parse_action(&body)?));
                }
                other => return Err(err(lno, format!("unknown directive {other:?}"))),
            }
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rich() -> Scenario {
        Scenario::named("script-rt")
            .seed(99)
            .shards(2)
            .sample_every(SimTime::from_millis(100))
            .duration(SimTime::from_millis(1500))
            .checkpoint_every(SimTime::from_millis(300))
            .participant("alice", Link::uk_janet())
            .participant_via("bob", Link::transatlantic(), Transport::Visit)
            .relay("region", Link::campus())
            .relay_under("edge", "region", Link::wan())
            .relay_every("region", 2)
            .relay_child_budget("edge", 4)
            .viewer_via("desk", Link::wan(), Transport::Ogsa)
            .viewer_at_relay("cave", "edge", Link::gwin(), Transport::Covise)
            .viewer_every("desk", 3)
            .join_at(SimTime::from_millis(150), "carol", Link::wan())
            .route("carol", Transport::Unicore)
            .steer_at(SimTime::from_millis(250), "alice", "miscibility", 0.35)
            .loss_at(SimTime::from_millis(300), "bob", 120_000)
            .jitter_at(
                SimTime::from_nanos(350_000_001),
                "desk",
                SimTime::from_millis(2),
            )
            .partition_at(SimTime::from_millis(400), "cave")
            .heal_at(SimTime::from_millis(500), "cave")
            .pass_master_at(SimTime::from_millis(600), "alice", "bob")
            .migrate_at(SimTime::from_millis(700), "london", "manchester")
            .viewer_leave_at(SimTime::from_millis(800), "desk")
            .viewer_join_relay_at(
                SimTime::from_millis(900),
                "desk",
                "region",
                Link::wan(),
                Transport::Ogsa,
            )
            .leave_at(SimTime::from_millis(950), "carol")
            .crash_at(SimTime::from_millis(1000))
            .restore_at(SimTime::from_millis(1050))
    }

    #[test]
    fn roundtrip_is_textually_stable() {
        let text = rich().to_script();
        let parsed = Scenario::from_script(&text).unwrap();
        assert_eq!(parsed.to_script(), text, "to_script∘from_script fixpoint");
    }

    #[test]
    fn roundtrip_replays_to_the_same_digest() {
        let original = rich();
        let parsed = Scenario::from_script(&original.to_script()).unwrap();
        assert_eq!(parsed.run().render(), original.run().render());
    }

    #[test]
    fn custom_links_and_odd_times_survive() {
        let odd = Link::builder()
            .latency(SimTime::from_nanos(123_456_789))
            .bandwidth_bps(7_777)
            .jitter(SimTime::from_micros(5))
            .loss_ppm(42)
            .build();
        let s = Scenario::named("custom-link")
            .participant("a", odd)
            .duration(SimTime::from_millis(300));
        let text = s.to_script();
        assert!(
            text.contains("link=custom:latency=123456789ns,bw=7777,jitter=5000ns,loss=42"),
            "unexpected link token in:\n{text}"
        );
        let parsed = Scenario::from_script(&text).unwrap();
        assert_eq!(parsed.run().digest(), s.run().digest());
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "#! invariant: master\n\n# a comment\nscenario c\nseed 5\nduration 200ms\n\
                    sample_every 100ms\nparticipant a link=lan\n";
        let s = Scenario::from_script(text).unwrap();
        assert_eq!(s.label(), "c");
        assert_eq!(s.participant_names(), vec!["a"]);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn parse_errors_point_at_the_line() {
        for (text, needle) in [
            ("warp 9", "unknown directive"),
            ("at 100ms explode", "unknown action"),
            ("participant a link=hyperspace", "unknown link preset"),
            (
                "viewer v link=lan via=carrier-pigeon budget=x every=1",
                "unknown transport",
            ),
            ("at 1parsec join a link=lan", "suffix"),
            ("at 100ms steer a p q", "kind: prefix"),
        ] {
            let e = Scenario::from_script(text).unwrap_err();
            assert_eq!(e.line, 1, "for {text:?}");
            assert!(e.msg.contains(needle), "{e} (wanted {needle:?})");
        }
        let e = Scenario::from_script("scenario x\nseed nope").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn every_steer_value_kind_roundtrips() {
        for v in [
            ParamValue::F64(0.125),
            ParamValue::I64(-9),
            ParamValue::Bool(true),
            ParamValue::Vec3([1.0, -0.5, 0.25]),
            ParamValue::Str("cold".to_string()),
        ] {
            let tok = value_token(&v);
            assert_eq!(parse_value(&tok, 1).unwrap(), v, "token {tok}");
        }
    }
}
