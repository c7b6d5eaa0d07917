//! Timed cold and warm full-suite sweeps, for the perf trajectory.
//!
//! `scripts/bench_sweep.sh` wraps this and writes `BENCH_sweep.json`.
//! Six phases, the first five over the full 15-benchmark × 72-shape
//! grid:
//!
//! 1. **regen baseline** — sequential, a fresh trace cache per point, so
//!    every point regenerates its trace (the pre-trace-cache behaviour);
//! 2. **cold sequential** — one shared fresh trace cache, one worker;
//! 3. **cold parallel** — one shared fresh trace cache, `--jobs` workers;
//! 4. **warm parallel** — the same cache again, so every trace lookup
//!    hits;
//! 5. **single worker** — the warm cache again, one worker: the
//!    engine's own sequential throughput, reported as `event_driven`
//!    in the JSON;
//! 6. **sharded VM** — the PARSEC benchmarks as 4-thread VMs, run
//!    single-worker and then with `--jobs` worker shards
//!    (DESIGN.md §14). Both must serialize byte-identically —
//!    the worker count is unobservable — and their wall-clock ratio is
//!    the `sharded` intra-run speedup reported in the JSON (expect >1
//!    only on multi-core machines).
//!
//! The sequential and parallel builds must serialize byte-identically
//! (asserted here), which is the determinism contract of DESIGN.md §9.

use sharing_core::{SimConfig, VCoreShape, VmSimulator};
use sharing_json::{Json, ToJson};
use sharing_market::{ExperimentSpec, SuiteSurfaces};
use sharing_trace::{TraceCache, TraceSpec, ALL_BENCHMARKS, PARSEC_BENCHMARKS};
use std::time::Instant;

fn main() {
    let mut spec = ExperimentSpec::standard();
    let mut jobs = sharing_core::par::resolve_jobs(None);
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match a.as_str() {
            "--len" => spec.trace_len = val("--len").parse().expect("--len N"),
            "--jobs" => jobs = val("--jobs").parse::<usize>().expect("--jobs N").max(1),
            "--out" => out = Some(val("--out")),
            other => panic!("unknown flag `{other}` (known: --len --jobs --out)"),
        }
    }
    let points = 72 * ALL_BENCHMARKS.len();
    eprintln!(
        "[bench_sweep: {} benchmarks x 72 shapes, len {}, {jobs} jobs]",
        ALL_BENCHMARKS.len(),
        spec.trace_len
    );

    let t = Instant::now();
    for &b in &ALL_BENCHMARKS {
        for shape in VCoreShape::sweep_grid() {
            let fresh = TraceCache::new();
            let _ = SuiteSurfaces::measure_with(b, shape, &spec, &fresh);
        }
    }
    let regen_seq_secs = t.elapsed().as_secs_f64();
    eprintln!("[regen baseline:  {regen_seq_secs:.2}s]");

    let seq_cache = TraceCache::new();
    let t = Instant::now();
    let seq = SuiteSurfaces::build_subset_with(spec, &ALL_BENCHMARKS, &seq_cache, 1);
    let cold_seq_secs = t.elapsed().as_secs_f64();
    eprintln!("[cold sequential: {cold_seq_secs:.2}s]");

    let par_cache = TraceCache::new();
    let t = Instant::now();
    let par = SuiteSurfaces::build_subset_with(spec, &ALL_BENCHMARKS, &par_cache, jobs);
    let cold_par_secs = t.elapsed().as_secs_f64();
    eprintln!("[cold parallel:   {cold_par_secs:.2}s]");
    assert_eq!(
        sharing_json::to_string(&seq),
        sharing_json::to_string(&par),
        "parallel suite sweep must serialize identically to sequential"
    );
    let (hits, misses, generations) = (
        par_cache.hits(),
        par_cache.misses(),
        par_cache.generations(),
    );

    let t = Instant::now();
    let warm = SuiteSurfaces::build_subset_with(spec, &ALL_BENCHMARKS, &par_cache, jobs);
    let warm_par_secs = t.elapsed().as_secs_f64();
    eprintln!("[warm parallel:   {warm_par_secs:.2}s]");
    assert_eq!(
        sharing_json::to_string(&par),
        sharing_json::to_string(&warm),
        "warm rebuild must reproduce the cold build"
    );

    // The engine alone on the warm cache: one worker, every trace
    // lookup a hit, so the wall clock is simulation time.
    let t = Instant::now();
    let event = SuiteSurfaces::build_subset_with(spec, &ALL_BENCHMARKS, &par_cache, 1);
    let event_secs = t.elapsed().as_secs_f64();
    eprintln!("[single worker:   {event_secs:.2}s]");
    assert_eq!(
        sharing_json::to_string(&par),
        sharing_json::to_string(&event),
        "single-worker sweep must match the parallel sweep"
    );

    // Sharded VM A/B: the PARSEC set as 4-thread VMs over a shared L2,
    // single worker vs `jobs` worker shards. Identical bytes (asserted —
    // the barrier protocol makes the worker count unobservable), so the
    // wall-clock ratio is the intra-run parallel speedup.
    const VM_REPS: usize = 8;
    let vm_cfg = SimConfig::with_shape(2, 4).expect("valid VM shape");
    let vm_spec = TraceSpec::new(spec.trace_len, 2014);
    let vm_workloads: Vec<_> = PARSEC_BENCHMARKS
        .iter()
        .map(|&b| b.generate_threaded(&vm_spec))
        .collect();
    let run_vms = |workers: usize| {
        let vm = VmSimulator::new(vm_cfg)
            .expect("valid VM config")
            .with_threads(workers);
        let t = Instant::now();
        let mut results = Vec::new();
        for _ in 0..VM_REPS {
            results = vm_workloads.iter().map(|w| vm.run(w)).collect();
        }
        (sharing_json::to_string(&results), t.elapsed().as_secs_f64())
    };
    let (vm_single_bytes, vm_single_secs) = run_vms(1);
    eprintln!("[sharded 1 worker:  {vm_single_secs:.2}s]");
    let (vm_sharded_bytes, vm_sharded_secs) = run_vms(jobs);
    eprintln!("[sharded {jobs} workers: {vm_sharded_secs:.2}s]");
    assert_eq!(
        vm_single_bytes, vm_sharded_bytes,
        "sharded VM results must not depend on the worker count"
    );
    let vm_cycles: f64 = {
        let parsed = Json::parse(&vm_single_bytes).expect("own serialization parses");
        let runs = parsed.as_arr().expect("array of results");
        runs.iter()
            .map(|r| r.get("cycles").and_then(Json::as_int).unwrap_or(0) as f64)
            .sum::<f64>()
            * VM_REPS as f64
    };

    // Simulated cycles, reconstructed from the surfaces: each point
    // committed `trace_len` instructions per thread at the measured
    // per-thread IPC, so cycles ~= len / perf (exact for single-thread
    // benchmarks, per-VCore-normalized for PARSEC).
    let est_cycles: f64 = par
        .iter()
        .flat_map(|(_, s)| s.iter())
        .map(|(_, perf)| spec.trace_len as f64 / perf.max(1e-9))
        .sum();

    let report = Json::obj(vec![
        ("benchmarks", Json::Int(ALL_BENCHMARKS.len() as i128)),
        ("points", Json::Int(points as i128)),
        ("trace_len", Json::Int(spec.trace_len as i128)),
        ("jobs", Json::Int(jobs as i128)),
        ("regen_sequential_secs", Json::Float(regen_seq_secs)),
        ("cold_sequential_secs", Json::Float(cold_seq_secs)),
        ("cold_parallel_secs", Json::Float(cold_par_secs)),
        ("cold_speedup", Json::Float(cold_seq_secs / cold_par_secs)),
        (
            "improvement_vs_regen_baseline",
            Json::Float(regen_seq_secs / cold_par_secs),
        ),
        ("warm_parallel_secs", Json::Float(warm_par_secs)),
        ("simulated_cycles", Json::Float(est_cycles)),
        (
            "cycles_per_sec_cold_parallel",
            Json::Float(est_cycles / cold_par_secs),
        ),
        (
            "cycles_per_sec_cold_sequential",
            Json::Float(est_cycles / cold_seq_secs),
        ),
        (
            "event_driven",
            Json::obj(vec![
                ("sequential_secs", Json::Float(event_secs)),
                ("cycles_per_sec", Json::Float(est_cycles / event_secs)),
            ]),
        ),
        (
            "sharded",
            Json::obj(vec![
                ("sharded_threads", Json::Int(jobs as i128)),
                ("vm_single_secs", Json::Float(vm_single_secs)),
                ("vm_sharded_secs", Json::Float(vm_sharded_secs)),
                (
                    "vm_cycles_per_sec_single",
                    Json::Float(vm_cycles / vm_single_secs),
                ),
                (
                    "vm_cycles_per_sec_sharded",
                    Json::Float(vm_cycles / vm_sharded_secs),
                ),
                (
                    "speedup_vs_single_worker",
                    Json::Float(vm_single_secs / vm_sharded_secs),
                ),
            ]),
        ),
        (
            "trace_cache",
            Json::obj(vec![
                ("hits", hits.to_json()),
                ("misses", misses.to_json()),
                ("generations", generations.to_json()),
            ]),
        ),
    ]);
    let text = sharing_json::to_string_pretty(&report);
    match out {
        Some(path) => {
            std::fs::write(&path, format!("{text}\n")).expect("write report");
            eprintln!("[wrote {path}]");
        }
        None => println!("{text}"),
    }
}
