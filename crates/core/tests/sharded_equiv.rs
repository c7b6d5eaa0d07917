//! Differential tests for sharded VM runs (DESIGN.md §14).
//!
//! `VmSimulator::with_threads` parallelizes a single VM run across
//! worker threads, but the barrier protocol — compute on forks of the
//! shared memory system, replay the recorded access streams in VCore
//! order — makes the worker count unobservable in the output. These
//! tests pin that claim the strong way: every benchmark at worker
//! counts {1, 2, 4, NCPU}, all byte-identical through the JSON
//! serializer; plus the coscheduled-tenant path, odd chunk sizes, the
//! synthetic stress profiles, architectural verification, and the cycle
//! profiler's conservation law.

use sharing_core::{RunOptions, SimConfig, SimResult, Simulator, VmSimulator};
use sharing_trace::{
    bursty_profile, phase_shift_profile, Benchmark, ProgramGenerator, TraceSpec, ALL_BENCHMARKS,
};

/// Serialized form, so "byte-identical" means exactly that: every
/// counter, every cache statistic, every derived field.
fn bytes(r: &SimResult) -> String {
    sharing_json::to_string(r)
}

fn ncpu() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Worker counts every sweep exercises: serial, small, oversubscribed
/// (more workers than the machine has cores is legal and must not
/// change anything), and the machine's own parallelism.
fn worker_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 4, ncpu()];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// All fifteen benchmarks as 4-thread VMs, every worker count, one
/// reference result.
#[test]
fn all_benchmarks_byte_identical_for_any_worker_count() {
    let spec = TraceSpec::new(3_000, 11);
    let cfg = SimConfig::with_shape(2, 4).expect("valid shape");
    for &bench in &ALL_BENCHMARKS {
        let workload = bench.generate_threaded(&spec);
        let reference = bytes(
            &VmSimulator::new(cfg)
                .expect("valid config")
                .with_threads(1)
                .run(&workload),
        );
        for workers in worker_counts() {
            let r = VmSimulator::new(cfg)
                .expect("valid config")
                .with_threads(workers)
                .run(&workload);
            assert_eq!(reference, bytes(&r), "{bench}: {workers} workers diverged");
        }
    }
}

/// Coscheduled tenants contend through the shared L2 and directory —
/// the cross-shard interaction the merge order must serialize.
#[test]
fn coscheduled_tenants_byte_identical_for_any_worker_count() {
    let spec = TraceSpec::new(3_000, 7);
    let tenants = [
        Benchmark::Omnetpp.generate(&spec),
        Benchmark::Libquantum.generate(&spec),
        Benchmark::Gcc.generate(&spec),
        Benchmark::Mcf.generate(&spec),
    ];
    let cfg = SimConfig::with_shape(2, 4).expect("valid shape");
    let reference: Vec<String> = VmSimulator::new(cfg)
        .expect("valid config")
        .with_threads(1)
        .run_coscheduled(&tenants)
        .iter()
        .map(bytes)
        .collect();
    for workers in worker_counts() {
        let results: Vec<String> = VmSimulator::new(cfg)
            .expect("valid config")
            .with_threads(workers)
            .run_coscheduled(&tenants)
            .iter()
            .map(bytes)
            .collect();
        assert_eq!(
            reference, results,
            "{workers} workers diverged on coscheduled tenants"
        );
    }
}

/// Chunk size changes the barrier cadence, which legitimately changes
/// timing — but for a fixed chunk the worker count still must not.
#[test]
fn odd_chunk_sizes_stay_worker_count_invariant() {
    let cfg = SimConfig::with_shape(2, 4).expect("valid shape");
    let workload = Benchmark::Dedup.generate_threaded(&TraceSpec::new(2_500, 3));
    for chunk in [1usize, 7, 333, 10_000] {
        let reference = bytes(
            &VmSimulator::new(cfg)
                .expect("valid config")
                .with_chunk(chunk)
                .with_threads(1)
                .run(&workload),
        );
        for workers in [2usize, ncpu().max(2)] {
            let r = VmSimulator::new(cfg)
                .expect("valid config")
                .with_chunk(chunk)
                .with_threads(workers)
                .run(&workload);
            assert_eq!(
                reference,
                bytes(&r),
                "chunk {chunk} with {workers} workers diverged"
            );
        }
    }
}

/// The synthetic stress profiles push bursty arrivals and a mid-run
/// phase shift through the threaded VM — calendars and the operand
/// network far from benchmark steady state.
#[test]
fn stress_profiles_byte_identical_for_any_worker_count() {
    for profile in [bursty_profile(), phase_shift_profile()] {
        let spec = TraceSpec::new(4_000, 23);
        let workload = ProgramGenerator::new(&profile, spec)
            .expect("profiles validate")
            .generate();
        let cfg = SimConfig::with_shape(2, 4).expect("valid shape");
        let reference = bytes(
            &VmSimulator::new(cfg)
                .expect("valid config")
                .with_threads(1)
                .run(&workload),
        );
        for workers in worker_counts() {
            let r = VmSimulator::new(cfg)
                .expect("valid config")
                .with_threads(workers)
                .run(&workload);
            assert_eq!(
                reference,
                bytes(&r),
                "{}: {workers} workers diverged",
                profile.name
            );
        }
    }
}

/// Architectural verification replays committed values through the ISA
/// interpreter; the engine must commit the same dataflow.
#[test]
fn verified_runs_pass() {
    let trace = Benchmark::Gcc.generate(&TraceSpec::new(2_000, 5));
    let cfg = SimConfig::with_shape(4, 4).expect("valid shape");
    let out = Simulator::new(cfg)
        .expect("valid config")
        .run_with(&trace, RunOptions::new().verify());
    assert_eq!(
        out.verified,
        Some(true),
        "architectural verification failed"
    );
}

/// The cycle profiler's conservation law — every slice's buckets sum to
/// the run's cycle count — and the attribution is a pure function of the
/// run: a rerun matches it exactly.
#[test]
fn profiler_conserves_and_reruns_identically() {
    let trace = Benchmark::Mcf.generate(&TraceSpec::new(3_000, 7));
    let cfg = SimConfig::with_shape(5, 8).expect("valid shape");
    let profiles: Vec<_> = (0..2)
        .map(|_| {
            Simulator::new(cfg)
                .expect("valid config")
                .run_with(&trace, RunOptions::new().profile())
                .profile
                .expect("profiling requested")
        })
        .collect();
    for p in &profiles {
        assert!(p.conserved(), "buckets must sum to cycles per slice");
    }
    assert_eq!(
        sharing_json::to_string(&profiles[0]),
        sharing_json::to_string(&profiles[1]),
        "cycle attribution changed between identical runs"
    );
}
