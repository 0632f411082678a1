//! In-memory spans around each call into a layer, and the self-time
//! arithmetic the per-layer metrics come from.
//!
//! A span is `{name, start_ns, end_ns, parent, tick}`. A layer's *self
//! time* is its span's duration minus the part its child spans cover, so
//! self times of all spans under one root add up to what the root's
//! children covered, and the root's own self time is what no span covered.
//! With tracing off, [`Tracer::enter`] and [`Tracer::exit`] read no clock
//! and store nothing.

use crate::clock::Clock;

/// Every span the loop records. The name carries the layer (the crate and
/// module called); `group` is the row the layer-share table sums it into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Sp {
    Tick,
    Recover,
    LoadGen,
    Verify,
    StageLoopback,
    StageVisit,
    StageOgsa,
    StageCovise,
    StageUnicore,
    Commit,
    SessionSteer,
    NotifyDrain,
    LbmStep,
    PepcStep,
    MonitorBuild,
    MonitorPublish,
    MonitorPublishFrame,
    RecvLoopback,
    RecvVisit,
    RecvOgsa,
    RecvCovise,
    RecvUnicore,
    MonitorEncode,
    MonitorDecode,
    RelayRecvChild,
    RelayIngest,
    NetsimDeliver,
    VizIsosurface,
    VizRaster,
    VizEncode,
    VizDecode,
    CkptSave,
    CkptEncodeFull,
    CkptEncodeDelta,
    CkptDecode,
    CkptRestore,
    CkptReattach,
}

/// Number of span kinds.
pub const KINDS: usize = Sp::CkptReattach as usize + 1;

/// `(span name, layer-share group)` per kind, in `Sp` order.
const TABLE: [(&str, &str); KINDS] = [
    ("loop.tick", "uncovered"),
    ("loop.recover", "uncovered"),
    ("driver.load_gen", "driver"),
    ("driver.verify", "driver"),
    ("bus.steer.stage.loopback", "steer"),
    ("bus.steer.stage.visit", "steer"),
    ("bus.steer.stage.ogsa", "steer"),
    ("bus.steer.stage.covise", "steer"),
    ("bus.steer.stage.unicore", "steer"),
    ("bus.steer.commit", "steer"),
    ("core.session_steer", "steer"),
    ("bus.steer.notify_drain", "steer"),
    ("lbm.step", "lbm"),
    ("pepc.step", "pepc"),
    ("core.monitor_build", "core.monitor"),
    ("bus.monitor.publish", "bus.monitor"),
    ("bus.monitor.publish_frame", "bus.monitor"),
    ("bus.monitor.recv.loopback", "bus.monitor"),
    ("bus.monitor.recv.visit", "bus.monitor"),
    ("bus.monitor.recv.ogsa", "bus.monitor"),
    ("bus.monitor.recv.covise", "bus.monitor"),
    ("bus.monitor.recv.unicore", "bus.monitor"),
    ("bus.monitor.encode", "bus.monitor"),
    ("bus.monitor.decode", "bus.monitor"),
    ("bus.relay.recv_child", "bus.relay"),
    ("bus.relay.ingest", "bus.relay"),
    ("netsim.deliver", "netsim"),
    ("viz.isosurface", "viz"),
    ("viz.raster", "viz"),
    ("viz.encode", "viz"),
    ("viz.decode", "viz"),
    ("ckpt.save", "ckpt"),
    ("ckpt.encode_full", "ckpt"),
    ("ckpt.encode_delta", "ckpt"),
    ("ckpt.decode", "ckpt"),
    ("ckpt.restore", "ckpt"),
    ("ckpt.reattach", "ckpt"),
];

/// Layer-share rows, in print order. `uncovered` is root self time.
const GROUPS: [&str; 11] = [
    "lbm",
    "pepc",
    "steer",
    "core.monitor",
    "bus.monitor",
    "bus.relay",
    "viz",
    "netsim",
    "ckpt",
    "driver",
    "uncovered",
];

impl Sp {
    /// The span's name in trace files and tables.
    pub fn name(self) -> &'static str {
        TABLE[self as usize].0
    }
}

/// One recorded span. `parent` indexes the kept-span list
/// ([`NO_PARENT`] for a root).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: Sp,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub tick: u32,
}

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Full span records are kept (and written to the trace file) for this
/// many ticks; self times are accumulated for every tick. A whole
/// `steer_storm` run is millions of spans, which no reader opens.
pub const KEPT_TICKS: u32 = 100;

/// Handle returned by [`Tracer::enter`]; hand it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

struct Open {
    kind: Sp,
    start_ns: u64,
    /// Time covered by already-closed children.
    child_ns: u64,
    /// Index in `kept`, if this span is being kept.
    kept_at: Option<u32>,
}

/// The span recorder.
pub struct Tracer<'c> {
    clock: &'c Clock,
    on: bool,
    tick: u32,
    stack: Vec<Open>,
    kept: Vec<Span>,
    /// Self time of every closed span, per kind.
    self_ns: Vec<Vec<u64>>,
}

impl<'c> Tracer<'c> {
    /// A recorder; with `on == false` it is inert.
    pub fn new(clock: &'c Clock, on: bool) -> Tracer<'c> {
        Tracer {
            clock,
            on,
            tick: 0,
            stack: Vec::new(),
            kept: Vec::new(),
            self_ns: vec![Vec::new(); KINDS],
        }
    }

    /// Stamp subsequent spans with this tick number.
    pub fn set_tick(&mut self, tick: u32) {
        self.tick = tick;
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&mut self, kind: Sp) -> SpanId {
        if !self.on {
            return SpanId(0);
        }
        let now = self.clock.ns();
        self.enter_at(kind, now)
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let now = self.clock.ns();
        self.exit_at(id, now);
    }

    fn enter_at(&mut self, kind: Sp, now: u64) -> SpanId {
        let kept_at = (self.tick < KEPT_TICKS).then(|| {
            let parent = self
                .stack
                .last()
                .and_then(|o| o.kept_at)
                .unwrap_or(NO_PARENT);
            self.kept.push(Span {
                kind,
                start_ns: now,
                end_ns: now,
                parent,
                tick: self.tick,
            });
            self.kept.len() as u32 - 1
        });
        self.stack.push(Open {
            kind,
            start_ns: now,
            child_ns: 0,
            kept_at,
        });
        SpanId(self.stack.len() as u32)
    }

    fn exit_at(&mut self, id: SpanId, now: u64) {
        assert_eq!(
            id.0 as usize,
            self.stack.len(),
            "spans must close innermost-first"
        );
        let open = self.stack.pop().expect("exit without enter");
        let dur = now.saturating_sub(open.start_ns);
        self.self_ns[open.kind as usize].push(dur.saturating_sub(open.child_ns));
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = open.kept_at {
            self.kept[i as usize].end_ns = now;
        }
    }

    /// Self-time samples (ns) of one span kind, in recording order.
    pub fn self_samples(&self, kind: Sp) -> &[u64] {
        &self.self_ns[kind as usize]
    }

    /// Total traced time: the durations of all root spans, which is the
    /// sum of every span's self time.
    pub fn total_ns(&self) -> u64 {
        self.self_ns.iter().flatten().sum()
    }

    /// Self time summed per layer-share group, in [`GROUPS`] order.
    pub fn group_ns(&self) -> Vec<(&'static str, u64)> {
        GROUPS
            .iter()
            .map(|g| {
                let ns = (0..KINDS)
                    .filter(|&k| TABLE[k].1 == *g)
                    .map(|k| self.self_ns[k].iter().sum::<u64>())
                    .sum();
                (*g, ns)
            })
            .collect()
    }

    /// Share of the traced total that named (non-root) spans cover, in
    /// percent. The remainder is loop bookkeeping no span wraps.
    pub fn coverage_pct(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            return 0.0;
        }
        let uncovered: u64 = (0..KINDS)
            .filter(|&k| TABLE[k].1 == "uncovered")
            .map(|k| self.self_ns[k].iter().sum::<u64>())
            .sum();
        100.0 * (total - uncovered) as f64 / total as f64
    }

    /// The trace file: kept spans plus whole-run self-time totals.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + self.kept.len() * 96);
        out.push_str(&format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"kept_ticks\":{KEPT_TICKS},\"spans\":["
        ));
        for (i, s) in self.kept.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"tick\":{}}}",
                s.kind.name(),
                s.start_ns,
                s.end_ns,
                parent,
                s.tick
            ));
        }
        out.push_str("\n],\"self_ns_total\":{");
        let mut first = true;
        for ((name, group), samples) in TABLE.iter().zip(&self.self_ns) {
            if samples.is_empty() {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n\"{name}\":{{\"spans\":{},\"self_ns\":{},\"group\":\"{group}\"}}",
                samples.len(),
                samples.iter().sum::<u64>(),
            ));
        }
        out.push_str("\n}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_table_lines_up_with_the_enum() {
        assert_eq!(Sp::Tick.name(), "loop.tick");
        assert_eq!(Sp::NetsimDeliver.name(), "netsim.deliver");
        assert_eq!(Sp::CkptReattach.name(), "ckpt.reattach");
        for (k, (name, group)) in TABLE.iter().enumerate() {
            assert!(GROUPS.contains(group), "{group} missing from GROUPS");
            assert!(
                TABLE[..k].iter().all(|(n, _)| n != name),
                "{name} listed twice"
            );
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let clock = Clock::start();
        let mut tr = Tracer::new(&clock, true);
        // tick [0,100]: commit [10,40] holds two adjacent session steers
        // [12,20] and [20,30]; step [40,90] has no children
        let tick = tr.enter_at(Sp::Tick, 0);
        let commit = tr.enter_at(Sp::Commit, 10);
        let a = tr.enter_at(Sp::SessionSteer, 12);
        tr.exit_at(a, 20);
        let b = tr.enter_at(Sp::SessionSteer, 20);
        tr.exit_at(b, 30);
        tr.exit_at(commit, 40);
        let step = tr.enter_at(Sp::LbmStep, 40);
        tr.exit_at(step, 90);
        tr.exit_at(tick, 100);

        assert_eq!(tr.self_samples(Sp::SessionSteer), &[8, 10]);
        assert_eq!(tr.self_samples(Sp::Commit), &[30 - 18]);
        assert_eq!(tr.self_samples(Sp::LbmStep), &[50]);
        // the root keeps only what no child covered: 100 - 30 - 50
        assert_eq!(tr.self_samples(Sp::Tick), &[20]);
        // self times add back up to the root's duration
        assert_eq!(tr.total_ns(), 100);
        assert_eq!(tr.coverage_pct(), 80.0);
        let groups = tr.group_ns();
        let of = |g: &str| groups.iter().find(|(n, _)| *n == g).unwrap().1;
        assert_eq!(of("steer"), 30);
        assert_eq!(of("lbm"), 50);
        assert_eq!(of("uncovered"), 20);
    }

    #[test]
    fn kept_spans_link_to_their_parents() {
        let clock = Clock::start();
        let mut tr = Tracer::new(&clock, true);
        tr.set_tick(3);
        let tick = tr.enter_at(Sp::Tick, 5);
        let step = tr.enter_at(Sp::PepcStep, 6);
        tr.exit_at(step, 9);
        tr.exit_at(tick, 11);
        assert_eq!(tr.kept.len(), 2);
        assert_eq!(tr.kept[0].parent, NO_PARENT);
        assert_eq!(tr.kept[1].parent, 0);
        assert_eq!((tr.kept[1].start_ns, tr.kept[1].end_ns), (6, 9));
        assert_eq!(tr.kept[1].tick, 3);
        // past the kept window, spans still count but are not stored
        tr.set_tick(KEPT_TICKS);
        let tick = tr.enter_at(Sp::Tick, 20);
        tr.exit_at(tick, 30);
        assert_eq!(tr.kept.len(), 2);
        assert_eq!(tr.self_samples(Sp::Tick).len(), 2);
    }

    #[test]
    fn inert_when_off() {
        let clock = Clock::start();
        let mut tr = Tracer::new(&clock, false);
        let id = tr.enter(Sp::Tick);
        tr.exit(id);
        assert!(tr.self_samples(Sp::Tick).is_empty());
        assert_eq!(tr.total_ns(), 0);
    }
}
