//! Property-style tests over the whole stack (see DESIGN.md §6).
//!
//! Each test draws a couple dozen random cases from a seeded [`Rng64`], so
//! coverage is property-shaped but fully deterministic — a failure
//! reproduces by its printed case seed alone.

use sharing_arch::core::{ModelKnobs, RunOptions, SimConfig, Simulator, VCoreShape};
use sharing_arch::hv::{Chip, Hypervisor};
use sharing_arch::market::{optimize, Market, PerfSurface, UtilityFn};
use sharing_arch::trace::{MemRegion, ProgramGenerator, Rng64, TraceSpec, WorkloadProfile};

const CASES: u64 = 24;

/// A random but valid workload profile.
fn arb_profile(rng: &mut Rng64) -> WorkloadProfile {
    let chains = rng.usize_inclusive(1, 7);
    let mem = 0.05 + 0.40 * rng.f64();
    let br = 0.02 + 0.23 * rng.f64();
    let hard = 0.5 * rng.f64();
    let chase = 0.6 * rng.f64();
    let region_kb = rng.range_inclusive(12, 4095);
    let burst = rng.usize_inclusive(1, 9);
    WorkloadProfile::builder("prop")
        .chains(chains)
        .mem_frac(mem)
        .branch_frac(br)
        .hard_branches(hard, 0.5)
        .pointer_chase(chase)
        .spatial_burst(burst)
        .region(MemRegion::random(8 << 10, 0.5))
        .region(MemRegion::random(region_kb << 10, 0.5))
        .build()
}

/// A random shape from the sweep grid's bank set.
fn arb_shape(rng: &mut Rng64) -> VCoreShape {
    let banks = [0usize, 1, 2, 4, 8, 16];
    VCoreShape::new(
        rng.usize_inclusive(1, 8),
        banks[rng.usize_inclusive(0, banks.len() - 1)],
    )
    .expect("valid")
}

/// Any valid profile on any valid shape simulates to a sane result with
/// ordered commits and conservation of instructions.
#[test]
fn simulator_is_total_and_sane() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0x51A9E + case);
        let profile = arb_profile(&mut rng);
        let shape = arb_shape(&mut rng);
        let seed = rng.below(1000);
        let spec = TraceSpec::new(1_500, seed);
        let trace = ProgramGenerator::new(&profile, spec)
            .unwrap()
            .generate_single();
        let cfg = SimConfig::with_shape(shape.slices, shape.l2_banks).unwrap();
        let out = Simulator::new(cfg)
            .unwrap()
            .run_with(&trace, RunOptions::new().record_timings());
        let (r, timings) = (out.result, out.timings.unwrap());
        assert_eq!(r.instructions, 1_500, "case {case}");
        assert!(r.cycles > 0, "case {case}");
        assert!(
            r.ipc() <= 2.0 * shape.slices as f64 + 0.01,
            "case {case}: IPC beyond fetch width"
        );
        let mut prev_commit = 0;
        for t in &timings {
            assert!(t.fetch < t.dispatch, "case {case}");
            assert!(t.dispatch < t.issue, "case {case}");
            assert!(t.issue < t.exec_done, "case {case}");
            assert!(t.exec_done <= t.commit, "case {case}");
            assert!(
                t.commit >= prev_commit,
                "case {case}: commit order violated"
            );
            assert!(t.slice < shape.slices, "case {case}");
            prev_commit = t.commit;
        }
    }
}

/// The pipeline preserves program semantics: the committed
/// destination-value stream, computed through the engine's own rename and
/// store-forwarding bookkeeping, matches the architectural interpreter on
/// arbitrary programs and shapes.
#[test]
fn dataflow_matches_interpreter() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0xDA7A + case);
        let profile = arb_profile(&mut rng);
        let shape = arb_shape(&mut rng);
        let seed = rng.below(300);
        let spec = TraceSpec::new(1_200, seed);
        let trace = ProgramGenerator::new(&profile, spec)
            .unwrap()
            .generate_single();
        let cfg = SimConfig::with_shape(shape.slices, shape.l2_banks).unwrap();
        let ok = Simulator::new(cfg)
            .unwrap()
            .run_with(&trace, RunOptions::new().verify())
            .verified;
        assert!(
            ok == Some(true),
            "case {case}: committed values diverged from the interpreter"
        );
    }
}

/// An ordered LSQ never reports violations.
#[test]
fn ordered_lsq_has_no_violations() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0x15C0 + case);
        let profile = arb_profile(&mut rng);
        let seed = rng.below(200);
        let spec = TraceSpec::new(1_500, seed);
        let trace = ProgramGenerator::new(&profile, spec)
            .unwrap()
            .generate_single();
        let ordered = SimConfig::builder()
            .slices(4)
            .l2_banks(2)
            .knobs(ModelKnobs {
                unordered_lsq: false,
                ..ModelKnobs::default()
            })
            .build()
            .unwrap();
        let r = Simulator::new(ordered)
            .unwrap()
            .run_with(&trace, RunOptions::new())
            .result;
        assert_eq!(r.mem.lsq_violations, 0, "case {case}");
    }
}

/// The committed path produced by the generator is a real control-flow
/// path: every instruction's next-PC is the next instruction's PC.
#[test]
fn generated_control_flow_is_connected() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0xC0DE + case);
        let profile = arb_profile(&mut rng);
        let seed = rng.below(500);
        let spec = TraceSpec::new(1_000, seed);
        let trace = ProgramGenerator::new(&profile, spec)
            .unwrap()
            .generate_single();
        for w in trace.insts().windows(2) {
            assert_eq!(w[0].next_pc(), w[1].pc, "case {case}");
        }
    }
}

/// The utility optimizer never exceeds the budget and always returns a
/// grid shape.
#[test]
fn optimizer_respects_budget() {
    let mut rng = Rng64::seed_from_u64(0xB1D);
    for case in 0..CASES {
        let budget = 1.0 + 999.0 * rng.f64();
        let utility = [
            UtilityFn::Throughput,
            UtilityFn::Balanced,
            UtilityFn::LatencyCritical,
        ][rng.usize_inclusive(0, 2)];
        let surface = PerfSurface::from_fn("prop", |s| {
            (1.0 + s.slices as f64).ln() * (1.0 + (s.l2_banks as f64).sqrt() / 4.0)
        });
        for market in Market::ALL {
            let chosen = optimize::best_utility(&surface, utility, &market, budget);
            let v = market.affordable_cores(chosen.shape, budget);
            assert!(
                v * market.vcore_cost(chosen.shape) <= budget * (1.0 + 1e-9),
                "case {case}"
            );
            assert!(
                chosen.shape.slices >= 1 && chosen.shape.slices <= 8,
                "case {case}"
            );
        }
    }
}

/// The hypervisor never double-books tiles, whatever the lease/release
/// sequence, and released capacity is reusable.
#[test]
fn hypervisor_never_double_books() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0x2EA5E + case);
        let n_ops = rng.usize_inclusive(1, 23);
        let mut hv = Hypervisor::new(Chip::new(4, 12));
        let mut live: Vec<sharing_arch::hv::LeaseId> = Vec::new();
        for _ in 0..n_ops {
            let slices = rng.usize_inclusive(1, 4);
            let banks = rng.usize_inclusive(0, 6);
            if rng.bool(0.5) {
                if let Some(id) = live.pop() {
                    hv.release(id).unwrap();
                }
            }
            if let Ok(id) = hv.lease(VCoreShape::new(slices, banks).unwrap()) {
                live.push(id);
            }
            // Invariant: allocated tiles across live leases are disjoint.
            let mut seen = std::collections::HashSet::new();
            for &id in &live {
                let lease = hv.get(id).unwrap();
                for t in lease.slices.iter().chain(&lease.banks) {
                    assert!(
                        seen.insert((t.row, t.col)),
                        "case {case}: tile double-booked"
                    );
                }
            }
        }
    }
}

/// Mesh routing always terminates at the destination with hop count equal
/// to the Manhattan distance.
#[test]
fn mesh_routes_are_shortest_paths() {
    use sharing_arch::noc::{Coord, Mesh};
    let mesh = Mesh::new(8, 8);
    let mut rng = Rng64::seed_from_u64(0x3E5);
    for case in 0..4 * CASES {
        let a = Coord::new(rng.below(8) as u16, rng.below(8) as u16);
        let b = Coord::new(rng.below(8) as u16, rng.below(8) as u16);
        let path = mesh.route(a, b);
        assert_eq!(path.len() as u32, mesh.hops(a, b), "case {case}");
        if let Some(last) = path.last() {
            assert_eq!(last.to, b, "case {case}");
        }
        for w in path.windows(2) {
            assert_eq!(w[0].to, w[1].from, "case {case}");
            assert_eq!(w[0].from.manhattan(w[0].to), 1, "case {case}");
        }
    }
}

/// Caches never report more hits than accesses and a flushed cache is
/// empty, whatever the access pattern.
#[test]
fn cache_accounting_is_consistent() {
    use sharing_arch::cache::{CacheGeometry, SetAssocCache};
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0xCAC4E + case);
        let mut c = SetAssocCache::new(CacheGeometry::new(4 << 10, 64, 2).unwrap());
        for _ in 0..rng.usize_inclusive(1, 199) {
            c.access(rng.below(512), rng.bool(0.5));
        }
        let s = c.stats();
        assert!(s.hits <= s.accesses, "case {case}");
        assert!(c.resident_lines() <= 64, "case {case}");
        c.flush_all();
        assert_eq!(c.resident_lines(), 0, "case {case}");
    }
}
