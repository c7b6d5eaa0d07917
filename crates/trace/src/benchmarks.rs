//! The paper's benchmark suite as calibrated synthetic profiles.
//!
//! §5.2 of the paper evaluates the complete SPEC CINT2006 suite, a static
//! Apache web-serving workload, and a subset of PARSEC; the figures and
//! tables use the fifteen workloads listed in Figure 12. Each enum variant
//! here carries a [`WorkloadProfile`] whose parameters are chosen to
//! reproduce that workload's *published behaviour shape*:
//!
//! * **Slice scalability** (Fig 12) via `chains` (intrinsic ILP),
//!   pointer-chasing, and branch hardness;
//! * **L2 sensitivity** (Fig 13) via the region model — omnetpp/mcf keep
//!   improving with megabytes of L2, astar misses at every size in range,
//!   libquantum streams, hmmer/gobmk fit in small caches;
//! * **PARSEC** workloads run four threads with per-thread ILP ≈ 2 so their
//!   multi-Slice speedup is bounded near 2 (§5.3).
//!
//! The calibration rationale is recorded per benchmark below and in
//! `EXPERIMENTS.md`.

use crate::generator::ProgramGenerator;
use crate::profile::{MemRegion, WorkloadProfile};
use crate::trace::{ThreadedTrace, Trace, TraceSpec};
use std::fmt;

/// A workload from the paper's evaluation suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Benchmark {
    Apache,
    Bzip,
    Gcc,
    Astar,
    Libquantum,
    Perlbench,
    Sjeng,
    Hmmer,
    Gobmk,
    Mcf,
    Omnetpp,
    H264ref,
    Dedup,
    Swaptions,
    Ferret,
}

/// All fifteen workloads, in the paper's Figure 12 legend order.
pub const ALL_BENCHMARKS: [Benchmark; 15] = [
    Benchmark::Apache,
    Benchmark::Bzip,
    Benchmark::Gcc,
    Benchmark::Astar,
    Benchmark::Libquantum,
    Benchmark::Perlbench,
    Benchmark::Sjeng,
    Benchmark::Hmmer,
    Benchmark::Gobmk,
    Benchmark::Mcf,
    Benchmark::Omnetpp,
    Benchmark::H264ref,
    Benchmark::Dedup,
    Benchmark::Swaptions,
    Benchmark::Ferret,
];

/// The single-threaded (SPEC + Apache) subset.
pub const SPEC_BENCHMARKS: [Benchmark; 12] = [
    Benchmark::Apache,
    Benchmark::Bzip,
    Benchmark::Gcc,
    Benchmark::Astar,
    Benchmark::Libquantum,
    Benchmark::Perlbench,
    Benchmark::Sjeng,
    Benchmark::Hmmer,
    Benchmark::Gobmk,
    Benchmark::Mcf,
    Benchmark::Omnetpp,
    Benchmark::H264ref,
];

/// The multi-threaded PARSEC subset (run with four threads, §5.3).
pub const PARSEC_BENCHMARKS: [Benchmark; 3] =
    [Benchmark::Dedup, Benchmark::Swaptions, Benchmark::Ferret];

impl sharing_json::ToJson for Benchmark {
    fn to_json(&self) -> sharing_json::Json {
        sharing_json::Json::Str(self.name().to_string())
    }
}

impl sharing_json::FromJson for Benchmark {
    fn from_json(v: &sharing_json::Json) -> Result<Self, sharing_json::JsonError> {
        let name = v.as_str().ok_or_else(|| {
            sharing_json::JsonError::msg(format!("expected benchmark name, got {v}"))
        })?;
        Benchmark::from_name(name)
            .ok_or_else(|| sharing_json::JsonError::msg(format!("unknown benchmark `{name}`")))
    }
}

impl Benchmark {
    /// The benchmark's lowercase name as printed in the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Apache => "apache",
            Benchmark::Bzip => "bzip",
            Benchmark::Gcc => "gcc",
            Benchmark::Astar => "astar",
            Benchmark::Libquantum => "libquantum",
            Benchmark::Perlbench => "perlbench",
            Benchmark::Sjeng => "sjeng",
            Benchmark::Hmmer => "hmmer",
            Benchmark::Gobmk => "gobmk",
            Benchmark::Mcf => "mcf",
            Benchmark::Omnetpp => "omnetpp",
            Benchmark::H264ref => "h264ref",
            Benchmark::Dedup => "dedup",
            Benchmark::Swaptions => "swaptions",
            Benchmark::Ferret => "ferret",
        }
    }

    /// Looks a benchmark up by its printed name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Benchmark> {
        ALL_BENCHMARKS.iter().copied().find(|b| b.name() == name)
    }

    /// Whether this is one of the four-thread PARSEC workloads.
    #[must_use]
    pub fn is_parsec(self) -> bool {
        PARSEC_BENCHMARKS.contains(&self)
    }

    /// The calibrated synthetic profile.
    #[must_use]
    pub fn profile(self) -> WorkloadProfile {
        let b = WorkloadProfile::builder(self.name());
        match self {
            // Web serving: throughput-friendly request handling; a hot
            // per-request stack, warm document cache worth ≈1 MB. Scales to
            // a handful of Slices.
            Benchmark::Apache => b
                .chains(5)
                .mem_frac(0.30)
                .store_frac(0.35)
                .branch_frac(0.17)
                .hard_branches(0.12, 0.5)
                .region(MemRegion::random(8 << 10, 0.55))
                .region(MemRegion::random(64 << 10, 0.15))
                .region(MemRegion::random(1 << 20, 0.20))
                .region(MemRegion::streaming(4 << 20, 0.10, 64))
                .loops(16, 72, 40)
                .build(),
            // Compression: modest ILP, fairly predictable inner loops, and
            // a block-sized working set around 256 KB that the algorithm
            // re-scans pass after pass — a sharp LRU capacity knee right
            // where the paper's Figure 14 puts bzip's utility peak.
            Benchmark::Bzip => b
                .chains(2)
                .mem_frac(0.34)
                .store_frac(0.35)
                .branch_frac(0.14)
                .hard_branches(0.15, 0.5)
                .region(MemRegion::random(8 << 10, 0.60))
                .region(MemRegion::streaming(224 << 10, 0.40, 48))
                .loops(10, 64, 60)
                .build(),
            // Compiler: medium ILP that rewards ≈4 Slices, an IR working
            // set worth ≈0.5–1 MB of L2, branchy traversal code.
            Benchmark::Gcc => b
                .chains(6)
                .mem_frac(0.32)
                .store_frac(0.32)
                .branch_frac(0.18)
                .hard_branches(0.12, 0.5)
                .region(MemRegion::random(8 << 10, 0.62))
                .region(MemRegion::random(700 << 10, 0.26))
                .region(MemRegion::random(4 << 20, 0.12))
                .spatial_burst(8)
                .loops(20, 80, 35)
                .build(),
            // Path search over a graph far larger than any L2 in range:
            // pointer chasing, cache-insensitive from 0–8 MB.
            Benchmark::Astar => b
                .chains(2)
                .mem_frac(0.36)
                .store_frac(0.20)
                .branch_frac(0.15)
                .hard_branches(0.22, 0.5)
                .pointer_chase(0.45)
                .region(MemRegion::random(8 << 10, 0.45))
                .region(MemRegion::random(64 << 20, 0.55))
                .loops(8, 56, 80)
                .build(),
            // Quantum-register simulation: long vector sweeps, huge ILP,
            // almost no branches, streams past every cache size.
            Benchmark::Libquantum => b
                .chains(8)
                .mem_frac(0.30)
                .store_frac(0.40)
                .branch_frac(0.05)
                .hard_branches(0.02, 0.5)
                .region(MemRegion::random(4 << 10, 0.15))
                .region(MemRegion::streaming(32 << 20, 0.85, 16))
                .loops(4, 96, 200)
                .build(),
            // Interpreter: branchy dispatch, moderate ILP, bytecode +
            // object heap worth ≈0.5 MB.
            Benchmark::Perlbench => b
                .chains(4)
                .mem_frac(0.30)
                .store_frac(0.30)
                .branch_frac(0.20)
                .hard_branches(0.16, 0.5)
                .region(MemRegion::random(8 << 10, 0.60))
                .region(MemRegion::random(512 << 10, 0.40))
                .loops(24, 64, 30)
                .build(),
            // Game-tree search: very hard branches, small board state,
            // mid ILP.
            Benchmark::Sjeng => b
                .chains(3)
                .mem_frac(0.26)
                .store_frac(0.30)
                .branch_frac(0.18)
                .hard_branches(0.30, 0.5)
                .region(MemRegion::random(8 << 10, 0.65))
                .region(MemRegion::random(1 << 20, 0.35))
                .loops(14, 60, 45)
                .build(),
            // Profile HMM search: tight inner loop over a small score
            // matrix — fits in the L1/64 KB L2, serial recurrences keep it
            // on one Slice (Table 4 / §5.9 "small core" workload).
            // The serial cell-to-cell dependence of the dynamic-programming
            // recurrence is modeled with chased loads: little to gain from
            // extra Slices.
            Benchmark::Hmmer => b
                .chains(1)
                .mem_frac(0.36)
                .store_frac(0.30)
                .branch_frac(0.08)
                .hard_branches(0.03, 0.5)
                .pointer_chase(0.55)
                .region(MemRegion::random(8 << 10, 0.85))
                .region(MemRegion::random(48 << 10, 0.15))
                .loops(6, 72, 120)
                .build(),
            // Go engine: hard branches, board + pattern tables worth
            // ≈256 KB, rewards a 3-Slice "big core" (§5.9).
            Benchmark::Gobmk => b
                .chains(4)
                .mem_frac(0.28)
                .store_frac(0.30)
                .branch_frac(0.17)
                .hard_branches(0.28, 0.5)
                .region(MemRegion::random(8 << 10, 0.60))
                .region(MemRegion::random(224 << 10, 0.40))
                .loops(16, 64, 40)
                .build(),
            // Sparse network simplex: dominated by pointer chasing over a
            // multi-megabyte arc array; memory bound, cache helps steadily.
            Benchmark::Mcf => b
                .chains(2)
                .mem_frac(0.40)
                .store_frac(0.25)
                .branch_frac(0.12)
                .hard_branches(0.20, 0.5)
                .pointer_chase(0.55)
                .region(MemRegion::random(4 << 10, 0.25))
                .region(MemRegion::random(2 << 20, 0.25))
                .region(MemRegion::random(24 << 20, 0.50))
                .loops(8, 64, 70)
                .build(),
            // Discrete-event simulation: the paper's most cache-sensitive
            // workload — event heap and model state spanning ≈6 MB.
            Benchmark::Omnetpp => b
                .chains(3)
                .mem_frac(0.40)
                .store_frac(0.35)
                .branch_frac(0.14)
                .hard_branches(0.15, 0.5)
                .pointer_chase(0.50)
                .region(MemRegion::random(4 << 10, 0.25))
                .region(MemRegion::random(1536 << 10, 0.30))
                .region(MemRegion::random(6 << 20, 0.45))
                .loops(12, 72, 50)
                .build(),
            // Video encoding: high ILP media kernels, predictable loops,
            // frame slices streaming with a modest random reference window.
            Benchmark::H264ref => b
                .chains(6)
                .mem_frac(0.32)
                .store_frac(0.35)
                .branch_frac(0.09)
                .hard_branches(0.06, 0.5)
                .muldiv(0.10, 0.0)
                .region(MemRegion::random(8 << 10, 0.40))
                .region(MemRegion::streaming(2 << 20, 0.30, 32))
                .region(MemRegion::random(384 << 10, 0.30))
                .loops(8, 88, 90)
                .build(),
            // PARSEC dedup: four pipeline threads, hashing + chunk tables,
            // per-thread ILP ≈ 2 bounds multi-Slice speedup near 2.
            Benchmark::Dedup => b
                .chains(2)
                .mem_frac(0.34)
                .store_frac(0.35)
                .branch_frac(0.12)
                .hard_branches(0.12, 0.5)
                .threads(4, 0.20)
                .region(MemRegion::random(8 << 10, 0.50))
                .region(MemRegion::random(2 << 20, 0.50))
                .loops(10, 64, 55)
                .build(),
            // PARSEC swaptions: compute-bound Monte Carlo, tiny working
            // set, serial recurrences per path.
            Benchmark::Swaptions => b
                .chains(2)
                .mem_frac(0.16)
                .store_frac(0.30)
                .branch_frac(0.08)
                .hard_branches(0.05, 0.5)
                .muldiv(0.15, 0.02)
                .threads(4, 0.05)
                .region(MemRegion::random(8 << 10, 0.85))
                .region(MemRegion::random(24 << 10, 0.15))
                .loops(6, 80, 100)
                .build(),
            // PARSEC ferret: similarity search pipeline, shared database
            // tables, moderate memory intensity.
            Benchmark::Ferret => b
                .chains(2)
                .mem_frac(0.32)
                .store_frac(0.25)
                .branch_frac(0.12)
                .hard_branches(0.12, 0.5)
                .threads(4, 0.15)
                .region(MemRegion::random(8 << 10, 0.45))
                .region(MemRegion::random(4 << 20, 0.55))
                .loops(12, 64, 50)
                .build(),
        }
    }

    /// Generates the workload (all threads) for a spec.
    ///
    /// # Panics
    ///
    /// Panics if `spec.len == 0`; profiles themselves are always valid.
    #[must_use]
    pub fn generate(self, spec: &TraceSpec) -> Trace {
        ProgramGenerator::new(&self.profile(), *spec)
            .expect("calibrated profiles are valid")
            .generate_single()
    }

    /// Generates the full multi-threaded workload.
    ///
    /// # Panics
    ///
    /// Panics if `spec.len == 0`.
    #[must_use]
    pub fn generate_threaded(self, spec: &TraceSpec) -> ThreadedTrace {
        ProgramGenerator::new(&self.profile(), *spec)
            .expect("calibrated profiles are valid")
            .generate()
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Profile of one of gcc's ten program phases (paper §5.10, Table 7).
///
/// Early phases behave like parsing/IR construction (wide, larger working
/// set); late phases like register allocation and emission (narrow, small
/// hot set). The paper's Table 7 shows per-phase optimal configurations
/// trending from large caches and 4–5 Slices down to 64–128 KB and 1–2
/// Slices, which this parameterization reproduces.
///
/// # Panics
///
/// Panics if `phase` is not in `1..=10`.
#[must_use]
pub fn gcc_phase_profile(phase: usize) -> WorkloadProfile {
    assert!((1..=10).contains(&phase), "gcc has phases 1..=10");
    let i = phase - 1;
    // Early phases behave like parsing/IR construction: wide, pointer-rich,
    // with a multi-hundred-KB working set that rewards large L2
    // allocations. Late phases behave like register allocation/emission:
    // narrow, serial, hot-set-resident.
    let chains = [7, 7, 6, 6, 5, 4, 3, 2, 1, 1][i];
    let chase = [0.35, 0.35, 0.30, 0.25, 0.20, 0.15, 0.10, 0.05, 0.0, 0.0][i];
    let warm_kb: u64 = [1024, 1024, 768, 640, 512, 384, 256, 128, 48, 48][i];
    let warm_w = [0.45, 0.45, 0.42, 0.40, 0.38, 0.35, 0.32, 0.28, 0.20, 0.20][i];
    let mem = [0.36, 0.36, 0.35, 0.34, 0.33, 0.32, 0.31, 0.30, 0.28, 0.28][i];
    WorkloadProfile::builder(format!("gcc.phase{phase}"))
        .chains(chains)
        .mem_frac(mem)
        .store_frac(0.32)
        .branch_frac(0.16)
        .hard_branches(0.12, 0.5)
        .pointer_chase(chase)
        .region(MemRegion::random(8 << 10, 1.0 - warm_w))
        // A cyclically re-walked working set (IR lists traversed once per
        // pass): under LRU this hits only once the L2 covers the region,
        // giving the sharp capacity knee the paper's per-phase optima show.
        .region(MemRegion::streaming(warm_kb << 10, warm_w, 32))
        .loops(12, 72, 40)
        .build()
}

/// Generates the trace for one gcc phase.
///
/// # Panics
///
/// Panics if `phase` is not in `1..=10` or `spec.len == 0`.
#[must_use]
pub fn gcc_phase_trace(phase: usize, spec: &TraceSpec) -> Trace {
    ProgramGenerator::new(&gcc_phase_profile(phase), *spec)
        .expect("phase profiles are valid")
        .generate_single()
}

/// Names of the seeded workload profiles beyond the paper's 15
/// benchmarks. They resolve through [`extra_profile`] and are accepted
/// anywhere a benchmark name is (sweeps, the dc surface, chaos job
/// mixes), but stay out of [`ALL_BENCHMARKS`] so the paper-faithful
/// suite is unchanged.
pub const EXTRA_PROFILES: [&str; 2] = ["bursty", "phaseshift"];

/// Looks up an extra-suite profile by name (see [`EXTRA_PROFILES`]).
#[must_use]
pub fn extra_profile(name: &str) -> Option<WorkloadProfile> {
    match name {
        "bursty" => Some(bursty_profile()),
        "phaseshift" => Some(phase_shift_profile()),
        _ => None,
    }
}

/// A bursty trace: short compute stretches over a tiny hot set,
/// punctuated by wide streaming storms that blow through every cache
/// size in range. The storms arrive in large spatial bursts, so the
/// memory system sees idle-then-slammed behavior rather than a steady
/// rate — the shape IaaS tail-latency studies call bursty arrivals.
#[must_use]
pub fn bursty_profile() -> WorkloadProfile {
    WorkloadProfile::builder("bursty")
        .chains(4)
        .mem_frac(0.33)
        .store_frac(0.30)
        .branch_frac(0.12)
        .hard_branches(0.10, 0.5)
        .region(MemRegion::random(8 << 10, 0.55))
        .region(MemRegion::streaming(16 << 20, 0.45, 8))
        .spatial_burst(32)
        .loops(6, 48, 150)
        .build()
}

/// A phase-changing trace: the loop structure is split between a wide,
/// streaming phase (compiler-front-end-like) and a narrow,
/// pointer-chasing phase (allocation-like), so the optimal share
/// configuration moves mid-run. Sweeps over it show no single knee —
/// the signature that makes phase-adaptive reconfiguration pay.
#[must_use]
pub fn phase_shift_profile() -> WorkloadProfile {
    WorkloadProfile::builder("phaseshift")
        .chains(5)
        .mem_frac(0.34)
        .store_frac(0.28)
        .branch_frac(0.16)
        .hard_branches(0.18, 0.5)
        .pointer_chase(0.25)
        .region(MemRegion::random(8 << 10, 0.40))
        .region(MemRegion::random(2 << 20, 0.30))
        .region(MemRegion::streaming(8 << 20, 0.30, 24))
        .loops(10, 80, 60)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_validate() {
        for b in ALL_BENCHMARKS {
            let p = b.profile();
            assert!(p.validate().is_ok(), "{b}: {:?}", p.validate());
            assert_eq!(p.name, b.name());
        }
    }

    /// The size caps refuse only hostile profiles: every built-in one,
    /// SPEC, PARSEC, gcc phase and extra, lies within each of them, so no
    /// calibrated trace moves.
    #[test]
    fn built_in_profiles_lie_within_every_cap() {
        use crate::profile::{
            MAX_LOOP_BODY, MAX_LOOP_ITERS, MAX_PROFILE_LOOPS, MAX_PROFILE_REGIONS,
            MAX_PROFILE_THREADS, MAX_REGION_BYTES,
        };
        let profiles = ALL_BENCHMARKS
            .iter()
            .map(|b| b.profile())
            .chain((1..=10).map(gcc_phase_profile))
            .chain(
                EXTRA_PROFILES
                    .iter()
                    .map(|n| extra_profile(n).expect("registered")),
            );
        for p in profiles {
            assert!(p.threads <= MAX_PROFILE_THREADS, "{}", p.name);
            assert!(
                TraceSpec::check_job(p.threads, crate::MAX_TRACE_LEN).is_ok(),
                "{}",
                p.name
            );
            assert!(p.n_loops <= MAX_PROFILE_LOOPS, "{}", p.name);
            assert!(p.loop_body <= MAX_LOOP_BODY, "{}", p.name);
            assert!(p.loop_iters <= MAX_LOOP_ITERS, "{}", p.name);
            assert!(p.regions.len() <= MAX_PROFILE_REGIONS, "{}", p.name);
            assert!(
                p.regions.iter().all(|r| r.bytes <= MAX_REGION_BYTES),
                "{}",
                p.name
            );
        }
    }

    #[test]
    fn suite_partitions_into_spec_and_parsec() {
        assert_eq!(
            SPEC_BENCHMARKS.len() + PARSEC_BENCHMARKS.len(),
            ALL_BENCHMARKS.len()
        );
        for b in SPEC_BENCHMARKS {
            assert!(!b.is_parsec());
            assert_eq!(b.profile().threads, 1);
        }
        for b in PARSEC_BENCHMARKS {
            assert!(b.is_parsec());
            assert_eq!(b.profile().threads, 4);
        }
    }

    #[test]
    fn from_name_roundtrips() {
        for b in ALL_BENCHMARKS {
            assert_eq!(Benchmark::from_name(b.name()), Some(b));
        }
        assert_eq!(Benchmark::from_name("nonesuch"), None);
    }

    #[test]
    fn generation_smoke_for_every_benchmark() {
        let spec = TraceSpec::new(2_000, 42);
        for b in ALL_BENCHMARKS {
            let tt = b.generate_threaded(&spec);
            assert_eq!(tt.thread_count(), b.profile().threads);
            for t in tt.threads() {
                assert_eq!(t.len(), 2_000);
            }
        }
    }

    #[test]
    fn cache_sensitive_benchmarks_have_bigger_footprints() {
        let spec = TraceSpec::new(30_000, 7);
        let omnetpp = Benchmark::Omnetpp.generate(&spec).stats().data_footprint;
        let hmmer = Benchmark::Hmmer.generate(&spec).stats().data_footprint;
        assert!(
            omnetpp > 8 * hmmer,
            "omnetpp {omnetpp} should dwarf hmmer {hmmer}"
        );
    }

    #[test]
    fn gcc_phases_taper() {
        let p1 = gcc_phase_profile(1);
        let p10 = gcc_phase_profile(10);
        assert!(p1.chains > p10.chains);
        let ws = |p: &WorkloadProfile| p.regions.iter().map(|r| r.bytes).max().unwrap();
        assert!(ws(&p1) > ws(&p10));
    }

    #[test]
    #[should_panic(expected = "phases 1..=10")]
    fn gcc_phase_zero_panics() {
        let _ = gcc_phase_profile(0);
    }

    #[test]
    fn extra_profiles_validate_and_resolve_by_name() {
        for name in EXTRA_PROFILES {
            let p = extra_profile(name).expect("registered");
            assert!(p.validate().is_ok(), "{name}: {:?}", p.validate());
            assert_eq!(p.name, name);
            assert!(
                Benchmark::from_name(name).is_none(),
                "{name} must not shadow a suite benchmark"
            );
        }
        assert!(extra_profile("nonesuch").is_none());
    }

    #[test]
    fn extra_profiles_generate_and_differ() {
        let spec = TraceSpec::new(5_000, 11);
        let bursty = ProgramGenerator::new(&bursty_profile(), spec)
            .expect("valid")
            .generate_single();
        let shift = ProgramGenerator::new(&phase_shift_profile(), spec)
            .expect("valid")
            .generate_single();
        assert_eq!(bursty.len(), 5_000);
        assert_eq!(shift.len(), 5_000);
        assert_eq!(bursty.name(), "bursty");
        assert_ne!(
            bursty.stats().data_footprint,
            shift.stats().data_footprint,
            "the two extras should exercise different memory behavior"
        );
    }

    #[test]
    fn phase_traces_are_generated_with_phase_names() {
        let t = gcc_phase_trace(3, &TraceSpec::new(500, 1));
        assert_eq!(t.name(), "gcc.phase3");
        assert_eq!(t.len(), 500);
    }
}
