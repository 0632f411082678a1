//! Every metric the benchmark prints: name, unit, direction, and for the
//! end-to-end ones the bound `BENCHMARK.json` fixes. A run emits exactly
//! these names (0 where a layer does not run in the workload), and a unit
//! test holds this table and `BENCHMARK.json` together.

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; 0 for per-layer ones, which have none).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: lower,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, lower: bool) -> MetricDef {
    e2e(name, unit, lower, 0.0)
}

/// What a user of the loop sees, measured with tracing off.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", true, 0.25),
    e2e("tick_ms_p50", "ms", true, 0.25),
    e2e("steps_per_s", "1/s", false, 0.25),
    e2e("viewer_frames_per_s", "1/s", false, 0.25),
    e2e("steer_seen_ms_p50", "ms", true, 0.25),
    e2e("scenario_wall_s", "s", true, 0.25),
    e2e("peak_rss_mb", "MB", true, 0.10),
];

/// Single layers, from the traced run. Times are self times.
pub const PER_LAYER: [MetricDef; 75] = [
    layer("loop.tick_ms_p95", "ms", true),
    layer("lbm.step_ms_p50", "ms", true),
    layer("lbm.steps", "count", false),
    layer("lbm.bytes_per_step_computed", "B", true),
    layer("lbm.step_ms_t2_p50", "ms", true),
    layer("exec.dispatch_us_p50", "us", true),
    layer("exec.speedup_lbm", "x", false),
    layer("pepc.step_ms_p50", "ms", true),
    layer("pepc.steps", "count", false),
    layer("pepc.interactions_per_step", "count", true),
    layer("bus.steer.stage_us_p50.loopback", "us", true),
    layer("bus.steer.stage_us_p50.visit", "us", true),
    layer("bus.steer.stage_us_p50.ogsa", "us", true),
    layer("bus.steer.stage_us_p50.covise", "us", true),
    layer("bus.steer.stage_us_p50.unicore", "us", true),
    layer("bus.steer.commit_us_p50", "us", true),
    layer("bus.steer.notify_drain_us_p50", "us", true),
    layer("bus.steer.cmds_staged", "count", false),
    layer("bus.steer.cmds_applied", "count", false),
    layer("bus.steer.cmds_refused", "count", true),
    layer("core.session_steer_us_p50", "us", true),
    layer("core.session_events", "count", true),
    layer("core.monitor_build_ms_p50", "ms", true),
    layer("bus.monitor.publish_ms_p50", "ms", true),
    layer("bus.monitor.recv_us_p50.visit", "us", true),
    layer("bus.monitor.recv_us_p50.ogsa", "us", true),
    layer("bus.monitor.recv_us_p50.covise", "us", true),
    layer("bus.monitor.recv_us_p50.unicore", "us", true),
    layer("bus.monitor.encode_us_p50", "us", true),
    layer("bus.monitor.decode_us_p50", "us", true),
    layer("bus.monitor.frames_published", "count", false),
    layer("bus.monitor.frames_delivered", "count", false),
    layer("bus.monitor.decimated", "count", true),
    layer("bus.monitor.filtered", "count", true),
    layer("bus.monitor.shed", "count", true),
    layer("bus.relay.ingest_ms_p50", "ms", true),
    layer("bus.relay.recv_child_us_p50", "us", true),
    layer("bus.relay.ingested", "count", false),
    layer("bus.relay.forwarded", "count", false),
    layer("bus.relay.decimated", "count", true),
    layer("bus.relay.shed", "count", true),
    layer("bus.relay.keyframes_served", "count", false),
    layer("bus.relay.forward_ratio", "ratio", false),
    layer("viz.isosurface_ms_p50", "ms", true),
    layer("viz.triangles_per_frame", "count", true),
    layer("viz.raster_ms_p50", "ms", true),
    layer("viz.encode_ms_p50", "ms", true),
    layer("viz.decode_ms_p50", "ms", true),
    layer("viz.bytes_per_frame", "B", true),
    layer("viz.compression_ratio", "x", false),
    layer("netsim.deliver_us_p50", "us", true),
    layer("netsim.offered", "count", false),
    layer("netsim.delivered", "count", false),
    layer("netsim.dropped", "count", true),
    layer("ckpt.save_ms_p50", "ms", true),
    layer("ckpt.encode_full_ms_p50", "ms", true),
    layer("ckpt.encode_delta_ms_p50", "ms", true),
    layer("ckpt.decode_ms_p50", "ms", true),
    layer("ckpt.restore_ms_p50", "ms", true),
    layer("ckpt.pause_ms_p50", "ms", true),
    layer("ckpt.recover_ms_p50", "ms", true),
    layer("ckpt.bytes_full", "B", true),
    layer("ckpt.bytes_delta", "B", true),
    layer("ckpt.delta_ratio", "ratio", true),
    layer("ckpt.cuts", "count", false),
    layer("ckpt.restores", "count", false),
    layer("harness.scenario_ms_per_tick", "ms", true),
    layer("harness.overhead_ms_per_tick", "ms", true),
    layer("harness.budget_violations", "count", true),
    layer("harness.probe_violations", "count", true),
    layer("trace.coverage_pct", "%", false),
    layer("trace.overhead_pct", "%", true),
    layer("trace.tick_ms_p50", "ms", true),
    layer("trace.layer_ms_per_tick", "ms", true),
    layer("machine.calib_ms", "ms", true),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bytes = std::fs::read(path).expect("BENCHMARK.json at the repo root");
        serde_json::value_from_slice(&bytes).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    fn expected(defs: &[MetricDef], bounded: bool) -> Vec<(String, String, String, Option<f64>)> {
        defs.iter()
            .map(|d| {
                let better = if d.lower_is_better { "lower" } else { "higher" };
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    better.to_string(),
                    bounded.then_some(d.bound),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), expected(&END_TO_END, true));
        assert_eq!(listed(&doc, "per_layer"), expected(&PER_LAYER, false));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads() {
        let doc = benchmark_json();
        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Value::as_str).expect(k).to_string();
                (s("name"), s("why"))
            })
            .collect();
        let specs: Vec<(String, String)> = crate::workload::specs()
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(listed, specs);
        for (name, why) in &specs {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why is one line of at most 200"
            );
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.bound <= 0.25);
        }
    }
}
