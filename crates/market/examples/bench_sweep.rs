//! The suite-sweep throughput figure that `scripts/ci.sh` holds to its
//! 2.5M cycles/sec floor.
//!
//! Warms a private trace cache with one point per benchmark, then times
//! one single-worker build of the full 15-benchmark × 72-shape grid at
//! trace length `LEN`. Every trace lookup hits, so the wall clock is
//! simulation time. Prints one JSON line to stdout: `trace_len`,
//! `points`, `secs`, `cycles_per_sec`. End-to-end speed claims are
//! measured by perfbench (`BENCHMARK.json`), not here.

use sharing_core::VCoreShape;
use sharing_json::Json;
use sharing_market::{ExperimentSpec, SuiteSurfaces};
use sharing_trace::{TraceCache, ALL_BENCHMARKS};
use std::time::Instant;

const LEN: usize = 10_000;

fn main() {
    let spec = ExperimentSpec {
        trace_len: LEN,
        ..ExperimentSpec::standard()
    };
    let cache = TraceCache::new();
    let warm_shape = VCoreShape::sweep_grid().next().expect("non-empty grid");
    for &b in &ALL_BENCHMARKS {
        let _ = SuiteSurfaces::measure_with(b, warm_shape, &spec, &cache);
    }

    let t = Instant::now();
    let suite = SuiteSurfaces::build_subset_with(spec, &ALL_BENCHMARKS, &cache, 1);
    let secs = t.elapsed().as_secs_f64();

    // Simulated cycles, reconstructed from the surfaces: each point
    // committed `LEN` instructions per thread at the measured per-thread
    // IPC, so cycles ~= LEN / perf (exact for single-thread benchmarks,
    // per-VCore-normalized for PARSEC).
    let points = suite.iter().map(|(_, s)| s.iter().count()).sum::<usize>();
    let cycles: f64 = suite
        .iter()
        .flat_map(|(_, s)| s.iter())
        .map(|(_, perf)| LEN as f64 / perf.max(1e-9))
        .sum();

    let report = Json::obj(vec![
        ("trace_len", Json::Int(LEN as i128)),
        ("points", Json::Int(points as i128)),
        ("secs", Json::Float(secs)),
        ("cycles_per_sec", Json::Float(cycles / secs)),
    ]);
    println!("{}", sharing_json::to_string(&report));
}
