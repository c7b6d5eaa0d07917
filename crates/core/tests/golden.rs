//! Golden result digests: the timing model's output, pinned as a
//! checked-in, versioned artefact.
//!
//! Every line of `golden_digests.txt` is `<case> <cycles> <digest>`,
//! where `digest` is the FNV-1a 64 hash of the case's serialized output
//! (`sharing_json::to_string` of the `SimResult`s or `CycleProfile`;
//! the `Debug` lines of the per-instruction timings). The cases cover
//! every benchmark, a sample of the shape grid with its corners, the
//! synthetic stress profiles, 4-thread VMs and coscheduled tenants, the
//! cycle profiler, per-instruction timings, a verified run, a live
//! reconfiguration, and long runs that cross the engine's bounded-history
//! thresholds.
//!
//! A change that moves any timing result must update the file in the
//! same commit and say why in CHANGES.md (DESIGN.md §13). On a mismatch
//! this test prints the full regenerated table, ready to paste in.

use sharing_core::{
    ReconfigurableVCore, RunOptions, SimConfig, SimResult, Simulator, VCoreShape, VmSimulator,
};
use sharing_trace::{
    bursty_profile, phase_shift_profile, Benchmark, ProgramGenerator, Trace, TraceSpec,
    ALL_BENCHMARKS,
};

const GOLDEN: &str = include_str!("golden_digests.txt");

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The regenerated table, one line per case.
#[derive(Default)]
struct Table(Vec<String>);

impl Table {
    fn push(&mut self, case: impl std::fmt::Display, cycles: u64, bytes: &str) {
        let digest = fnv1a64(bytes.as_bytes());
        self.0.push(format!("{case} {cycles} {digest:016x}"));
    }

    fn result(&mut self, case: impl std::fmt::Display, r: &SimResult) {
        self.push(case, r.cycles, &sharing_json::to_string(r));
    }
}

fn cfg(slices: usize, banks: usize) -> SimConfig {
    SimConfig::with_shape(slices, banks).expect("valid shape")
}

fn run(cfg: SimConfig, trace: &Trace, options: RunOptions<'_>) -> sharing_core::RunOutput {
    Simulator::new(cfg)
        .expect("valid config")
        .run_with(trace, options)
}

/// A small deterministic LCG for sampling the shape grid.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Every case, in file order.
fn table() -> Table {
    let mut t = Table::default();
    let opts = RunOptions::new;

    // All fifteen benchmarks at one mid-size shape.
    let spec = TraceSpec::new(4_000, 11);
    for &bench in &ALL_BENCHMARKS {
        let r = run(cfg(4, 4), &bench.generate(&spec), opts()).result;
        t.result(format_args!("bench/{bench}@4x4"), &r);
    }

    // A seeded sample of the (slices × l2_banks) grid, corners included.
    let slices_options = [1usize, 2, 3, 4, 5, 6, 7, 8];
    let banks_options = [0usize, 2, 4, 8, 16];
    let benches = [
        Benchmark::Gcc,
        Benchmark::Libquantum,
        Benchmark::Mcf,
        Benchmark::Apache,
        Benchmark::Omnetpp,
    ];
    let mut state = 0x5EED_CAFE_F00Du64;
    for (i, &bench) in benches.iter().enumerate() {
        let trace = bench.generate(&TraceSpec::new(3_000, 17 + i as u64));
        let mut shapes = vec![(1usize, 0usize), (8, 16)];
        for _ in 0..4 {
            let s = slices_options[(lcg(&mut state) as usize) % slices_options.len()];
            let b = banks_options[(lcg(&mut state) as usize) % banks_options.len()];
            if !shapes.contains(&(s, b)) {
                shapes.push((s, b));
            }
        }
        for (s, b) in shapes {
            let Ok(c) = SimConfig::with_shape(s, b) else {
                continue; // sampled an invalid corner of the lattice
            };
            let r = run(c, &trace, opts()).result;
            t.result(format_args!("grid/{bench}@{s}x{b}"), &r);
        }
    }

    // Bursty arrivals and a mid-run phase shift, far from steady state.
    for profile in [bursty_profile(), phase_shift_profile()] {
        let trace = ProgramGenerator::new(&profile, TraceSpec::new(5_000, 23))
            .expect("profiles validate")
            .generate_single();
        for (s, b) in [(1usize, 0usize), (2, 2), (4, 8), (8, 16)] {
            let r = run(cfg(s, b), &trace, opts()).result;
            t.result(format_args!("stress/{}@{s}x{b}", profile.name), &r);
        }
    }

    // Every benchmark as a 4-thread VM over a shared L2.
    let vm = VmSimulator::new(cfg(2, 4)).expect("valid config");
    let spec = TraceSpec::new(3_000, 11);
    for &bench in &ALL_BENCHMARKS {
        let r = vm.run(&bench.generate_threaded(&spec));
        t.result(format_args!("vm/{bench}@2x4"), &r);
    }

    // Coscheduled tenants contending through the shared L2 and directory.
    let spec = TraceSpec::new(3_000, 7);
    let tenants = [
        Benchmark::Omnetpp.generate(&spec),
        Benchmark::Libquantum.generate(&spec),
        Benchmark::Gcc.generate(&spec),
        Benchmark::Mcf.generate(&spec),
    ];
    for (i, r) in vm.run_coscheduled(&tenants).iter().enumerate() {
        t.result(format_args!("cosched/{}.{i}@2x4", r.workload), r);
    }

    // Cycle attribution, which must also conserve every slice's cycles.
    for bench in [Benchmark::Gcc, Benchmark::Mcf, Benchmark::Libquantum] {
        let trace = bench.generate(&TraceSpec::new(3_000, 7));
        for (s, b) in [(2usize, 2usize), (5, 8), (8, 16)] {
            let p = run(cfg(s, b), &trace, opts().profile())
                .profile
                .expect("profiling requested");
            assert!(p.conserved(), "{bench} ({s},{b}): buckets must sum");
            assert_eq!(p.per_slice.len(), s);
            t.push(
                format_args!("profile/{bench}@{s}x{b}"),
                p.cycles,
                &sharing_json::to_string(&p),
            );
        }
    }

    // Per-instruction fetch-to-commit timings, stage for stage.
    let trace = Benchmark::H264ref.generate(&TraceSpec::new(1_500, 13));
    let timings = run(cfg(4, 4), &trace, opts().record_timings())
        .timings
        .expect("timings requested");
    let lines: Vec<String> = timings.iter().map(|x| format!("{x:?}")).collect();
    let last = timings.last().map_or(0, |x| x.commit);
    t.push("timings/h264ref@4x4", last, &lines.join("\n"));

    // Architectural verification through the ISA interpreter.
    let trace = Benchmark::Gcc.generate(&TraceSpec::new(2_000, 5));
    let out = run(cfg(4, 4), &trace, opts().verify());
    assert_eq!(out.verified, Some(true), "gcc failed verification");
    t.result("verified/gcc@4x4", &out.result);

    // A live VCore resized twice: slice-only (L2 warm), then banks (flush).
    let phases = Benchmark::Gcc
        .generate(&TraceSpec::new(6_000, 1))
        .split_phases(3);
    let mut vcore = ReconfigurableVCore::new(cfg(1, 2)).expect("valid config");
    vcore.run(&phases[0]);
    vcore
        .reconfigure(VCoreShape::new(4, 2).expect("shape"))
        .expect("valid");
    vcore.run(&phases[1]);
    vcore
        .reconfigure(VCoreShape::new(4, 8).expect("shape"))
        .expect("valid");
    vcore.run(&phases[2]);
    t.result("reconfig/gcc@1x2>4x2>4x8", &vcore.finish());

    // Long runs, past the engine's bounded-history thresholds: the FU
    // calendar prune (> 8192 occupied cycles), the link calendar prune
    // (> 4096 claims on one link) and the store-map retain (> 8192
    // entries). The short cases above never reach any of them.
    let trace = Benchmark::Libquantum.generate(&TraceSpec::new(100_000, 29));
    for (s, b) in [(1usize, 0usize), (8, 16)] {
        let r = run(cfg(s, b), &trace, opts()).result;
        t.result(format_args!("long/libquantum@{s}x{b}"), &r);
    }
    let r = vm.run(&Benchmark::Dedup.generate_threaded(&TraceSpec::new(20_000, 31)));
    t.result("long/vm/dedup@2x4", &r);

    t
}

#[test]
fn results_match_golden_digests() {
    let expected: Vec<&str> = GOLDEN.lines().collect();
    let got = table().0;
    if got != expected {
        let moved: Vec<&String> = got
            .iter()
            .filter(|l| !expected.contains(&l.as_str()))
            .collect();
        panic!(
            "{} of {} golden lines differ, first {:?}.\n\
             Regenerated golden_digests.txt:\n{}\n",
            moved.len(),
            got.len(),
            moved.first(),
            got.join("\n")
        );
    }
}
