//! End-to-end integration: every crate wired together the way the bench
//! harness uses them.

use sharing_arch::core::{RunOptions, SimConfig, Simulator, VCoreShape, VmSimulator};
use sharing_arch::hv::{Chip, Hypervisor};
use sharing_arch::trace::{Benchmark, TraceSpec, ALL_BENCHMARKS};

const SPEC: TraceSpec = TraceSpec {
    len: 5_000,
    seed: 0xE2E,
};

#[test]
fn every_benchmark_runs_on_representative_shapes() {
    for bench in ALL_BENCHMARKS {
        for (slices, banks) in [(1, 0), (2, 2), (8, 16)] {
            let cfg = SimConfig::with_shape(slices, banks).unwrap();
            let ipc = if bench.is_parsec() {
                let w = bench.generate_threaded(&SPEC);
                let r = VmSimulator::new(cfg).unwrap().run(&w);
                assert_eq!(r.instructions, 4 * SPEC.len as u64, "{bench}");
                r.ipc()
            } else {
                let t = bench.generate(&SPEC);
                let r = Simulator::new(cfg)
                    .unwrap()
                    .run_with(&t, RunOptions::new())
                    .result;
                assert_eq!(r.instructions, SPEC.len as u64, "{bench}");
                r.ipc()
            };
            assert!(
                ipc > 0.01 && ipc < 16.0,
                "{bench} at {slices}s/{banks}b: implausible IPC {ipc}"
            );
        }
    }
}

#[test]
fn simulation_is_deterministic_across_reruns() {
    let t = Benchmark::Sjeng.generate(&SPEC);
    let cfg = SimConfig::with_shape(3, 4).unwrap();
    let a = Simulator::new(cfg)
        .unwrap()
        .run_with(&t, RunOptions::new())
        .result;
    let b = Simulator::new(cfg)
        .unwrap()
        .run_with(&t, RunOptions::new())
        .result;
    assert_eq!(a, b);
}

#[test]
fn hypervisor_leases_shapes_the_simulator_accepts() {
    let mut hv = Hypervisor::new(Chip::new(4, 16));
    let shape = VCoreShape::new(4, 8).unwrap();
    let lease = hv.lease(shape).unwrap();
    let l = hv.get(lease).unwrap();
    assert_eq!((l.slices.len(), l.banks.len()), (4, 8));
    let cfg = SimConfig::with_shape(shape.slices, shape.l2_banks).unwrap();
    let r = Simulator::new(cfg)
        .unwrap()
        .run_with(&Benchmark::Gcc.generate(&SPEC), RunOptions::new())
        .result;
    assert!(r.ipc() > 0.05);
}

#[test]
fn interpreter_agrees_with_itself_on_generated_traces() {
    // The architectural interpreter is the semantic reference for the
    // generator's register usage: re-running it must be deterministic and
    // every committed value stream identical.
    use sharing_arch::isa::Interpreter;
    let t = Benchmark::Perlbench.generate(&SPEC);
    let mut a = Interpreter::new();
    let mut b = Interpreter::new();
    assert_eq!(a.run(t.insts()), b.run(t.insts()));
    assert_eq!(a.committed(), SPEC.len as u64);
}

#[test]
fn reconfiguration_costs_show_up_in_phased_runs() {
    use sharing_arch::core::{ReconfigCosts, ReconfigurableVCore, VCoreShape};
    let t = Benchmark::Gcc.generate(&TraceSpec::new(6_000, 3));
    let phases = t.split_phases(3);
    let small = VCoreShape::new(1, 1).unwrap();
    let big = VCoreShape::new(1, 4).unwrap();
    let run = |costs: ReconfigCosts| {
        let mut vcore = ReconfigurableVCore::new(SimConfig::with_shape(1, 1).unwrap())
            .unwrap()
            .with_costs(costs);
        for (phase, shape) in phases.iter().zip([small, big, small]) {
            vcore.reconfigure(shape).unwrap();
            vcore.run(phase);
        }
        vcore.finish()
    };
    let with_cost = run(ReconfigCosts::paper());
    let free = run(ReconfigCosts {
        slice_only: 0,
        cache_change: 0,
    });
    assert_eq!(with_cost.cycles - free.cycles, 2 * 10_000);
}

#[test]
fn reuse_profile_predicts_simulator_hit_behaviour() {
    // Cross-validation: the analytic LRU predictor over the trace's reuse
    // distances should roughly anticipate how much of the memory traffic
    // the simulated two-level hierarchy keeps away from DRAM.
    use sharing_arch::core::Simulator;
    use sharing_arch::isa::CAPACITY_SCALE;
    use sharing_arch::trace::ReuseProfile;

    for bench in [Benchmark::Bzip, Benchmark::Gobmk, Benchmark::Omnetpp] {
        let trace = bench.generate(&TraceSpec::new(20_000, 9));
        let profile = ReuseProfile::of(&trace);

        let banks = 8usize; // 512 KB nominal
        let cfg = SimConfig::with_shape(1, banks).unwrap();
        let r = Simulator::new(cfg)
            .unwrap()
            .run_with(&trace, RunOptions::new())
            .result;
        let mem_ops = r.mem.l1d.accesses;
        let measured_coverage = 1.0 - r.mem.memory_accesses as f64 / mem_ops as f64;

        // Total modeled capacity: scaled L1D + scaled L2, in lines.
        let l1_lines = (16 << 10) / CAPACITY_SCALE / 64;
        let l2_lines = (banks as u64 * (64 << 10)) / CAPACITY_SCALE / 64;
        let predicted = profile.hit_rate(l1_lines + l2_lines);

        assert!(
            (measured_coverage - predicted).abs() < 0.25,
            "{bench}: measured DRAM-avoidance {measured_coverage:.2} vs analytic {predicted:.2}"
        );
    }
}
