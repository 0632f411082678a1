//! Pool-dispatch latency: persistent workers vs spawn-per-pass.
//!
//! The workload is shaped like one LBM step — three dependent passes over a
//! node array with a neighbour stencil — dispatched two ways at each thread
//! count: `spawn` creates fresh OS threads per pass (what the tree did
//! before `gridsteer_exec`), `pool` reuses the persistent workers. Both
//! legs run the identical chunk mapping, so their outputs are bit-identical
//! and only the dispatch overhead differs.
//!
//! With `BENCH_JSON=1` the bench also writes `BENCH_pool.json`
//! (per-cell mean ns plus an output digest) next to the working directory
//! or under `BENCH_JSON_DIR`.

use criterion::{criterion_group, criterion_main, Criterion};
use gridsteer_exec::ExecPool;
use std::hint::black_box;
use std::time::{Duration, Instant};

const NODES: usize = 32 * 32 * 32;
const PLANE: usize = 32 * 32;

/// One "step" of three dependent sweeps over the buffers with
/// plane-aligned chunks — the dispatch pattern of a multi-sweep kernel
/// such as `lbm::TwoFluidLbm::step`.
fn step(pool: &ExecPool, rho: &mut [f64], vel: &mut [f64], out: &mut [f64]) {
    let src: Vec<f64> = rho.to_vec();
    pool.parallel_chunks(rho, PLANE, |ci, chunk| {
        let start = ci * PLANE;
        for (k, r) in chunk.iter_mut().enumerate() {
            let n = start + k;
            *r = src[n] + src[(n + PLANE) % NODES] + src[(n + NODES - PLANE) % NODES];
        }
    });
    let rho_ro: &[f64] = rho;
    pool.parallel_chunks(vel, PLANE, |ci, chunk| {
        let start = ci * PLANE;
        for (k, v) in chunk.iter_mut().enumerate() {
            let n = start + k;
            *v = rho_ro[n] * 0.25 + rho_ro[(n + 1) % NODES] * 0.125;
        }
    });
    let vel_ro: &[f64] = vel;
    pool.parallel_chunks(out, PLANE, |ci, chunk| {
        let start = ci * PLANE;
        for (k, o) in chunk.iter_mut().enumerate() {
            let n = start + k;
            *o = 0.5 * (rho_ro[n] + vel_ro[(n + PLANE) % NODES]);
        }
    });
}

fn buffers() -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let rho: Vec<f64> = (0..NODES).map(|i| (i % 97) as f64 * 0.01).collect();
    (rho, vec![0.0; NODES], vec![0.0; NODES])
}

fn fnv64(data: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in data {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn time_step(pool: &ExecPool) -> (f64, u64) {
    let (mut rho, mut vel, mut out) = buffers();
    // warmup
    step(pool, &mut rho, &mut vel, &mut out);
    let iters = 30u32;
    let t0 = Instant::now();
    for _ in 0..iters {
        step(pool, &mut rho, &mut vel, &mut out);
    }
    let mean_ns = t0.elapsed().as_nanos() as f64 / iters as f64;
    (mean_ns, fnv64(&out))
}

fn bench_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("pool_vs_spawn");
    g.measurement_time(Duration::from_secs(1)).sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        let pool = ExecPool::new(threads);
        let spawn = ExecPool::spawn_per_call(threads);
        let (mut rho, mut vel, mut out) = buffers();
        g.bench_function(format!("step_pool_t{threads}"), |b| {
            b.iter(|| {
                step(&pool, &mut rho, &mut vel, &mut out);
                black_box(out[0])
            })
        });
        let (mut rho, mut vel, mut out) = buffers();
        g.bench_function(format!("step_spawn_t{threads}"), |b| {
            b.iter(|| {
                step(&spawn, &mut rho, &mut vel, &mut out);
                black_box(out[0])
            })
        });
    }
    g.finish();
}

/// Machine-readable trajectory: one cell per (dispatch, threads) pair.
/// Gated like the exp binaries: `BENCH_JSON` set to anything but `0`.
fn emit_json() {
    if !std::env::var("BENCH_JSON").is_ok_and(|v| !v.is_empty() && v != "0") {
        return;
    }
    let mut cells = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        for (kind, pool) in [
            ("pool", ExecPool::new(threads)),
            ("spawn", ExecPool::spawn_per_call(threads)),
        ] {
            let (ns, digest) = time_step(&pool);
            cells.push(format!(
                "{{\"cell\":\"step_{kind}_t{threads}\",\"mean_ns\":{ns:.0},\"digest\":\"{digest:016x}\"}}"
            ));
        }
    }
    let body = format!("{{\"id\":\"pool\",\"cells\":[{}]}}\n", cells.join(","));
    let dir = std::env::var("BENCH_JSON_DIR").unwrap_or_else(|_| ".".into());
    let path = std::path::Path::new(&dir).join("BENCH_pool.json");
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("BENCH_pool.json write failed: {e}");
    } else {
        eprintln!("wrote {}", path.display());
    }
}

fn bench_json(_c: &mut Criterion) {
    emit_json();
}

criterion_group!(benches, bench_dispatch, bench_json);
criterion_main!(benches);
