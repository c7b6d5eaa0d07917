//! Single-threaded simulation driver.
//!
//! The one entry point is [`Simulator::run_with`]: every way of running a
//! trace — plain, traced into an obs buffer, verified against the ISA
//! interpreter, profiled, or with per-instruction timing records — is a
//! [`RunOptions`] combination, and every output rides home
//! in one [`RunOutput`]. The older one-method-per-mode entry points
//! (`run`, `run_traced`, `run_placed`, `run_verified`, `run_profiled`,
//! `run_detailed`, `run_phased`) lived out their one deprecated release
//! and are gone.

use crate::config::{ConfigError, SimConfig};
use crate::engine::{InstTiming, MemorySystem, VCoreEngine};
use crate::stats::SimResult;
use sharing_trace::Trace;
use std::sync::OnceLock;

/// Feeds the finished run into the process-global obs registry
/// (`ssim_runs_total`, `ssim_cycles_total`, `ssim_instructions_total`).
/// Three relaxed atomic adds per *run* — nothing on the cycle loop.
pub(crate) fn observe_run(result: &SimResult) {
    static RUNS: OnceLock<&'static sharing_obs::Counter> = OnceLock::new();
    static CYCLES: OnceLock<&'static sharing_obs::Counter> = OnceLock::new();
    static INSTS: OnceLock<&'static sharing_obs::Counter> = OnceLock::new();
    RUNS.get_or_init(|| sharing_obs::counter("ssim_runs_total"))
        .inc();
    CYCLES
        .get_or_init(|| sharing_obs::counter("ssim_cycles_total"))
        .add(result.cycles);
    INSTS
        .get_or_init(|| sharing_obs::counter("ssim_instructions_total"))
        .add(result.instructions);
}

/// What a [`Simulator::run_with`] call should do beyond timing the trace.
///
/// Built fluently; the default is a plain run. Every option is pure
/// observation — none changes the committed [`SimResult`].
///
/// # Example
///
/// ```
/// use sharing_core::{RunOptions, SimConfig, Simulator};
/// use sharing_trace::{Benchmark, TraceSpec};
///
/// let trace = Benchmark::Gcc.generate(&TraceSpec::new(2_000, 1));
/// let sim = Simulator::new(SimConfig::with_shape(2, 2)?)?;
/// let out = sim.run_with(&trace, RunOptions::new().verify().record_timings());
/// assert_eq!(out.verified, Some(true));
/// assert_eq!(out.timings.unwrap().len() as u64, out.result.instructions);
/// // Verification and timing records are pure observation.
/// assert_eq!(sim.run_with(&trace, RunOptions::new()).result, out.result);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct RunOptions<'a> {
    trace_to: Option<&'a sharing_obs::TraceBuffer>,
    profile: bool,
    timings: bool,
    verify: bool,
}

impl<'a> RunOptions<'a> {
    /// A plain run, no extras.
    #[must_use]
    pub fn new() -> Self {
        RunOptions::default()
    }

    /// Records one *logical-cycle* span for the whole run into `obs`:
    /// the span covers `[0, cycles)` in simulated time and carries
    /// instructions, cycles, IPC, and the shape as args. Because the
    /// timestamps come from the simulated clock (never a real one),
    /// tracing is exactly as deterministic as the result — enabling it
    /// cannot perturb bit-for-bit replay.
    #[must_use]
    pub fn trace_to(mut self, obs: &'a sharing_obs::TraceBuffer) -> Self {
        self.trace_to = Some(obs);
        self
    }

    /// Arms the cycle-attribution profiler (see [`crate::profile`]):
    /// [`RunOutput::profile`] gets every simulated cycle of every Slice
    /// binned into fetch/issue/FU-busy/DRAM-stall/ROB-full/idle. Pure
    /// observation — the result stays bit-identical — and bucket totals
    /// are accumulated into the process-global obs registry
    /// (`ssim_profile_<bucket>_cycles_total`).
    #[must_use]
    pub fn profile(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Records per-instruction timings into [`RunOutput::timings`]
    /// (tests/debugging; memory grows with trace length).
    #[must_use]
    pub fn record_timings(mut self) -> Self {
        self.timings = true;
        self
    }

    /// Verifies dataflow: the engine computes every instruction's
    /// architectural value through its own rename and store-forwarding
    /// bookkeeping, and the committed destination-value stream is
    /// compared against the reference [`sharing_isa::Interpreter`].
    /// [`RunOutput::verified`] reports whether the streams matched; a
    /// `false` means the pipeline model broke program semantics — e.g.
    /// forwarded from the wrong store or resolved a stale register
    /// version.
    #[must_use]
    pub fn verify(mut self) -> Self {
        self.verify = true;
        self
    }
}

/// Everything a [`Simulator::run_with`] call produced. `result` is
/// always present; the optional fields are `Some` exactly when the
/// corresponding [`RunOptions`] switch was set.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct RunOutput {
    /// The timing result (always produced).
    pub result: SimResult,
    /// Cycle-attribution profile, when [`RunOptions::profile`] was set.
    pub profile: Option<crate::profile::CycleProfile>,
    /// Per-instruction timings, when [`RunOptions::record_timings`] was
    /// set.
    pub timings: Option<Vec<InstTiming>>,
    /// Whether committed values matched the ISA interpreter, when
    /// [`RunOptions::verify`] was set.
    pub verified: Option<bool>,
}

/// Convenience driver: one trace, one VCore, private memory system.
///
/// # Example
///
/// ```
/// use sharing_core::{RunOptions, SimConfig, Simulator};
/// use sharing_trace::{Benchmark, TraceSpec};
///
/// let cfg = SimConfig::with_shape(2, 2)?; // 2 Slices, 128 KB L2
/// let trace = Benchmark::Gcc.generate(&TraceSpec::new(3_000, 1));
/// let result = Simulator::new(cfg)?.run_with(&trace, RunOptions::new()).result;
/// assert!(result.ipc() > 0.05);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Simulator {
    cfg: SimConfig,
}

impl Simulator {
    /// Creates a simulator after validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid.
    pub fn new(cfg: SimConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Simulator { cfg })
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Runs a trace to completion under `options`. See
    /// [`RunOptions`] for what can ride along and [`RunOutput`] for what
    /// comes back.
    #[must_use]
    pub fn run_with(&self, trace: &Trace, options: RunOptions<'_>) -> RunOutput {
        let mut mem = MemorySystem::private(self.cfg.l2_banks(), self.cfg.mem.memory_delay);
        let mut engine = VCoreEngine::new(self.cfg, 0);
        if options.verify {
            engine.enable_verification();
        }
        if options.timings {
            engine.enable_recording();
        }
        if options.profile {
            engine.enable_profiling();
        }
        engine.run_chunk(&mut mem, trace.insts());

        let verified = options.verify.then(|| {
            let committed = engine.committed_values().expect("verification enabled");
            committed == sharing_isa::Interpreter::new().run(trace.insts())
        });
        let timings = options
            .timings
            .then(|| engine.timings().expect("recording enabled").to_vec());
        let profile = options
            .profile
            .then(|| engine.cycle_profile().expect("profiling enabled"));

        let mut result = engine.finish(trace.name());
        VCoreEngine::absorb_mem_stats(&mut result, &mem);
        observe_run(&result);
        if let Some(p) = &profile {
            crate::profile::observe_profile(p);
        }
        if let Some(obs) = options.trace_to {
            use sharing_json::Json;
            obs.record_logical(
                format!("simulate {}", trace.name()),
                "ssim",
                0,
                0,
                result.cycles,
                vec![
                    (
                        "instructions".into(),
                        Json::Int(i128::from(result.instructions)),
                    ),
                    ("cycles".into(), Json::Int(i128::from(result.cycles))),
                    ("ipc".into(), Json::Float(result.ipc())),
                    ("slices".into(), Json::Int(self.cfg.slices() as i128)),
                    ("l2_banks".into(), Json::Int(self.cfg.l2_banks() as i128)),
                ],
            );
        }
        RunOutput {
            result,
            profile,
            timings,
            verified,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VCoreShape;
    use sharing_trace::{Benchmark, Trace, TraceSpec};

    fn gcc(len: usize) -> Trace {
        Benchmark::Gcc.generate(&TraceSpec::new(len, 7))
    }

    /// Plain run through the unified entry point.
    fn run_plain(cfg: SimConfig, t: &Trace) -> SimResult {
        Simulator::new(cfg)
            .unwrap()
            .run_with(t, RunOptions::new())
            .result
    }

    #[test]
    fn runs_and_reports() {
        let cfg = SimConfig::with_shape(1, 2).unwrap();
        let r = run_plain(cfg, &gcc(2_000));
        assert_eq!(r.instructions, 2_000);
        assert!(r.cycles > 2_000, "one ALU cannot exceed IPC 1 overall");
        assert_eq!(r.shape, Some(VCoreShape::new(1, 2).unwrap()));
        assert!(r.mem.l1d.accesses > 0);
        assert!(r.predictor.predictions > 0);
    }

    #[test]
    fn deterministic_results() {
        let cfg = SimConfig::with_shape(3, 4).unwrap();
        let t = gcc(3_000);
        let a = run_plain(cfg, &t);
        let b = run_plain(cfg, &t);
        assert_eq!(a, b);
    }

    #[test]
    fn more_slices_help_an_ilp_workload() {
        let t = Benchmark::Libquantum.generate(&TraceSpec::new(8_000, 3));
        let one = run_plain(SimConfig::with_shape(1, 2).unwrap(), &t);
        let four = run_plain(SimConfig::with_shape(4, 2).unwrap(), &t);
        assert!(
            four.ipc() > one.ipc() * 1.3,
            "4 slices {:.3} should beat 1 slice {:.3}",
            four.ipc(),
            one.ipc()
        );
    }

    #[test]
    fn timing_invariants_hold() {
        let cfg = SimConfig::with_shape(4, 2).unwrap();
        let out = Simulator::new(cfg)
            .unwrap()
            .run_with(&gcc(2_000), RunOptions::new().record_timings());
        let (r, timings) = (out.result, out.timings.unwrap());
        assert_eq!(timings.len() as u64, r.instructions);
        let mut prev_commit = 0;
        for t in &timings {
            assert!(t.dispatch > t.fetch, "dispatch after fetch: {t:?}");
            assert!(t.issue > t.dispatch, "issue after dispatch: {t:?}");
            assert!(t.exec_done > t.issue, "exec after issue: {t:?}");
            assert!(t.commit >= t.exec_done, "commit after exec: {t:?}");
            assert!(t.commit >= prev_commit, "in-order commit: {t:?}");
            assert!(t.slice < 4);
            prev_commit = t.commit;
        }
    }

    #[test]
    fn profile_buckets_conserve_cycles_at_every_shape() {
        for (s, b) in [(1usize, 2usize), (2, 0), (4, 4), (8, 2)] {
            let cfg = SimConfig::with_shape(s, b).unwrap();
            let out = Simulator::new(cfg)
                .unwrap()
                .run_with(&gcc(5_000), RunOptions::new().profile());
            let (r, p) = (out.result, out.profile.unwrap());
            assert_eq!(p.cycles, r.cycles);
            assert_eq!(p.per_slice.len(), s);
            for (i, sc) in p.per_slice.iter().enumerate() {
                assert_eq!(
                    sc.total(),
                    p.cycles,
                    "slice {i} of {s}s/{b}b leaked cycles: {sc:?}"
                );
            }
            assert!(p.conserved());
        }
    }

    #[test]
    fn profiling_is_pure_observation() {
        // Arming the profiler must not change the result by a single bit,
        // and the profile itself must be byte-identical across runs.
        let cfg = SimConfig::with_shape(4, 2).unwrap();
        let t = gcc(4_000);
        let sim = Simulator::new(cfg).unwrap();
        let plain = sim.run_with(&t, RunOptions::new()).result;
        let out_a = sim.run_with(&t, RunOptions::new().profile());
        let out_b = sim.run_with(&t, RunOptions::new().profile());
        let (a_result, a) = (out_a.result, out_a.profile.unwrap());
        let (b_result, b) = (out_b.result, out_b.profile.unwrap());
        assert_eq!(plain, a_result, "profiling perturbed the result");
        assert_eq!(a_result, b_result);
        assert_eq!(a, b);
        assert_eq!(sharing_json::to_string(&a), sharing_json::to_string(&b));
    }

    #[test]
    fn profile_sees_dram_on_memory_bound_work_and_not_on_alu_work() {
        use sharing_isa::{ArchReg, DynInst, MemSize};
        // Strided loads with no L2: beyond-L1 time must show up as DRAM.
        let loads: Vec<DynInst> = (0..2_000)
            .map(|i| DynInst::load(4 * i, ArchReg::new(1), None, 0x1000 + 64 * i, MemSize::B8))
            .collect();
        let cfg = SimConfig::with_shape(1, 0).unwrap();
        let p = Simulator::new(cfg)
            .unwrap()
            .run_with(&Trace::from_insts("ld", loads), RunOptions::new().profile())
            .profile
            .unwrap();
        let t = p.totals();
        assert!(
            t.dram_stall > p.cycles / 2,
            "memory-bound run must be DRAM-dominated: {t:?} of {} cycles",
            p.cycles
        );
        // A pure dependent-ALU chain never leaves the core.
        let r = ArchReg::new(1);
        let alus: Vec<DynInst> = (0..2_000).map(|i| DynInst::alu(4 * i, r, &[r])).collect();
        let p = Simulator::new(cfg)
            .unwrap()
            .run_with(&Trace::from_insts("alu", alus), RunOptions::new().profile())
            .profile
            .unwrap();
        assert_eq!(p.totals().dram_stall, 0, "ALU chain cannot touch DRAM");
    }

    #[test]
    fn gshare_predicts_every_branch_bimodal_does() {
        use crate::config::{ModelKnobs, PredictorKind};
        let t = Benchmark::Gcc.generate(&TraceSpec::new(20_000, 5));
        let bimodal = SimConfig::with_shape(1, 2).unwrap();
        let gshare = SimConfig::builder()
            .slices(1)
            .l2_banks(2)
            .knobs(ModelKnobs {
                predictor: PredictorKind::Gshare { history_bits: 12 },
                ..ModelKnobs::default()
            })
            .build()
            .unwrap();
        let rb = run_plain(bimodal, &t);
        let rg = run_plain(gshare, &t);
        assert_eq!(rb.instructions, rg.instructions);
        assert_eq!(rb.predictor.predictions, rg.predictor.predictions);
        assert!(rg.predictor.mispredict_rate() < 0.5);
    }

    #[test]
    fn gshare_learns_patterned_branches_bimodal_cannot() {
        use crate::config::{ModelKnobs, PredictorKind};
        use sharing_trace::{ProgramGenerator, WorkloadProfile};
        // A workload whose hard branches all follow short repeating
        // patterns: correlated history, the textbook gshare win.
        // One small loop, every branch patterned: deterministic history
        // with few enough (pc, history) contexts to fit the table.
        let p = WorkloadProfile::builder("patterned")
            .chains(3)
            .branch_frac(0.25)
            .hard_branches(1.0, 0.5)
            .pattern_branches(1.0)
            .loops(1, 48, 100_000)
            .build();
        let t = ProgramGenerator::new(&p, sharing_trace::TraceSpec::new(30_000, 5))
            .unwrap()
            .generate_single();
        let bimodal = SimConfig::with_shape(1, 2).unwrap();
        let gshare = SimConfig::builder()
            .slices(1)
            .l2_banks(2)
            .knobs(ModelKnobs {
                predictor: PredictorKind::Gshare { history_bits: 10 },
                ..ModelKnobs::default()
            })
            .build()
            .unwrap();
        let rb = run_plain(bimodal, &t);
        let rg = run_plain(gshare, &t);
        assert!(
            rg.predictor.mispredict_rate() < 0.7 * rb.predictor.mispredict_rate(),
            "gshare {:.3} should clearly beat bimodal {:.3} on periodic branches",
            rg.predictor.mispredict_rate(),
            rb.predictor.mispredict_rate()
        );
    }

    #[test]
    fn gshare_history_staleness_costs_accuracy_at_many_slices() {
        use crate::config::{ModelKnobs, PredictorKind};
        let t = Benchmark::Sjeng.generate(&TraceSpec::new(20_000, 5));
        let mk = |slices: usize| {
            SimConfig::builder()
                .slices(slices)
                .l2_banks(2)
                .knobs(ModelKnobs {
                    predictor: PredictorKind::Gshare { history_bits: 12 },
                    ..ModelKnobs::default()
                })
                .build()
                .unwrap()
        };
        let one = run_plain(mk(1), &t);
        let eight = run_plain(mk(8), &t);
        // The composed (delayed) GHR can only hurt accuracy.
        assert!(
            eight.predictor.mispredict_rate() >= one.predictor.mispredict_rate() - 0.01,
            "stale history should not improve prediction: {:.3} vs {:.3}",
            eight.predictor.mispredict_rate(),
            one.predictor.mispredict_rate()
        );
    }

    #[test]
    fn dataflow_verification_passes_on_real_workloads() {
        for bench in [Benchmark::Gcc, Benchmark::Mcf, Benchmark::Libquantum] {
            let t = bench.generate(&TraceSpec::new(5_000, 17));
            for (s, b) in [(1, 0), (4, 4), (8, 2)] {
                let cfg = SimConfig::with_shape(s, b).unwrap();
                let out = Simulator::new(cfg)
                    .unwrap()
                    .run_with(&t, RunOptions::new().verify());
                assert_eq!(
                    out.verified,
                    Some(true),
                    "{bench} at {s}s/{b}b diverged from the interpreter"
                );
                assert_eq!(out.result.instructions, 5_000);
            }
        }
    }

    #[test]
    fn empty_trace_is_a_noop() {
        let cfg = SimConfig::with_shape(4, 4).unwrap();
        let r = run_plain(cfg, &Trace::from_insts("empty", vec![]));
        assert_eq!(r.instructions, 0);
        assert_eq!(r.cycles, 0);
        assert_eq!(r.ipc(), 0.0);
    }

    #[test]
    fn single_instruction_commits() {
        use sharing_isa::{ArchReg, DynInst};
        let cfg = SimConfig::with_shape(8, 0).unwrap();
        let t = Trace::from_insts("one", vec![DynInst::alu(0x40, ArchReg::new(1), &[])]);
        let r = run_plain(cfg, &t);
        assert_eq!(r.instructions, 1);
        assert!(r.cycles >= 1);
    }

    #[test]
    fn taken_jump_chains_stress_the_front_end() {
        use sharing_isa::DynInst;
        // Every instruction is a taken jump: each fetch group is one
        // instruction, and BTB misses bubble until targets are learned.
        let insts: Vec<DynInst> = (0..512)
            .map(|i| {
                let pc = 0x1000 + 8 * (i % 64);
                let target = 0x1000 + 8 * ((i + 1) % 64);
                DynInst::jump(pc, target)
            })
            .collect();
        let t = Trace::from_insts("jumps", insts);
        let r = run_plain(SimConfig::with_shape(2, 1).unwrap(), &t);
        assert_eq!(r.instructions, 512);
        // One-instruction fetch groups cap IPC at ~1.
        assert!(r.ipc() <= 1.05, "jump chain IPC {:.2}", r.ipc());
        assert!(r.predictor.btb_misses >= 32, "cold BTB must miss");
    }

    #[test]
    fn store_only_and_load_only_traces_are_total() {
        use sharing_isa::{ArchReg, DynInst, MemSize};
        let r1 = ArchReg::new(1);
        let stores: Vec<DynInst> = (0..256)
            .map(|i| DynInst::store(4 * i, r1, None, 0x1000 + 8 * i, MemSize::B8))
            .collect();
        let loads: Vec<DynInst> = (0..256)
            .map(|i| DynInst::load(4 * i, r1, None, 0x1000 + 8 * i, MemSize::B8))
            .collect();
        let cfg = SimConfig::with_shape(2, 2).unwrap();
        let rs = run_plain(cfg, &Trace::from_insts("st", stores));
        let rl = run_plain(cfg, &Trace::from_insts("ld", loads));
        assert_eq!(rs.instructions, 256);
        assert_eq!(rl.instructions, 256);
        assert_eq!(rs.mem.l1d.accesses, 256);
        assert!(rl.mem.l1d.accesses >= 256);
    }

    #[test]
    fn per_slice_stats_show_balanced_interleaving() {
        let cfg = SimConfig::with_shape(4, 2).unwrap();
        let r = run_plain(cfg, &gcc(20_000));
        assert_eq!(r.per_slice.len(), 4);
        // PC interleaving spreads predictions; line interleaving spreads
        // D-cache traffic. Neither should be wildly lopsided.
        let preds: Vec<u64> = r
            .per_slice
            .iter()
            .map(|s| s.predictor.predictions)
            .collect();
        let accs: Vec<u64> = r.per_slice.iter().map(|s| s.l1d.accesses).collect();
        let spread = |v: &[u64]| {
            let max = *v.iter().max().unwrap() as f64;
            let min = *v.iter().min().unwrap() as f64;
            max / min.max(1.0)
        };
        assert!(spread(&preds) < 4.0, "prediction spread {preds:?}");
        assert!(spread(&accs) < 3.0, "L1D access spread {accs:?}");
        // Per-slice counters sum to the aggregate.
        assert_eq!(
            preds.iter().sum::<u64>(),
            r.predictor.predictions,
            "per-slice predictions must sum to the aggregate"
        );
        assert_eq!(accs.iter().sum::<u64>(), r.mem.l1d.accesses);
    }
}
