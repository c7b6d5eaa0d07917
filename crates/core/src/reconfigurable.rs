//! A live, reconfigurable Virtual Core (paper §3.8).
//!
//! This is the one model of resizing a running VCore: Table 7's phase
//! schedules (`sharing_market::phases`) and the `phase_adaptive` example
//! execute on it. It models what the hardware actually does:
//!
//! * **Slice-count changes** keep the L2 banks and their contents — only a
//!   Register Flush and interconnect reprogramming happen (500 cycles), so
//!   a warm working set stays warm. (L1 contents effectively remap because
//!   the Slice-interleaving of lines changes, and per-Slice predictors
//!   restart — both modeled by the fresh Slice state.)
//! * **Bank-count changes** flush all dirty bank state to memory and
//!   restart the L2 cold (10 000 cycles).
//!
//! The VCore's clock runs continuously across reconfigurations, and
//! statistics accumulate across every shape it has worn.

use crate::config::{ConfigError, SimConfig, VCoreShape};
use crate::engine::{MemorySystem, VCoreEngine};
use crate::reconfig::ReconfigCosts;
use crate::stats::SimResult;
use sharing_trace::Trace;

/// A Virtual Core that can be resized while it runs.
///
/// # Example
///
/// ```
/// use sharing_core::{ReconfigurableVCore, SimConfig, VCoreShape};
/// use sharing_trace::{Benchmark, TraceSpec};
///
/// let trace = Benchmark::Gcc.generate(&TraceSpec::new(6_000, 1));
/// let phases = trace.split_phases(3);
/// let mut vcore = ReconfigurableVCore::new(SimConfig::with_shape(1, 2)?)?;
/// vcore.run(&phases[0]);
/// vcore.reconfigure(VCoreShape::new(4, 2)?)?;   // slice-only: L2 stays warm
/// vcore.run(&phases[1]);
/// vcore.reconfigure(VCoreShape::new(4, 8)?)?;   // bank change: L2 flushes
/// vcore.run(&phases[2]);
/// let result = vcore.finish();
/// assert_eq!(result.instructions, 6_000);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ReconfigurableVCore {
    cfg: SimConfig,
    engine: VCoreEngine,
    mem: MemorySystem,
    costs: ReconfigCosts,
    /// Counters of retired engine incarnations and of flushed L2s.
    retired: SimResult,
    reconfigurations: u64,
    reconfig_cycles: u64,
}

impl ReconfigurableVCore {
    /// Creates a live VCore with the paper's reconfiguration costs.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid.
    pub fn new(cfg: SimConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(ReconfigurableVCore {
            engine: VCoreEngine::new(cfg, 0),
            mem: MemorySystem::private(cfg.l2_banks(), cfg.mem.memory_delay),
            cfg,
            costs: ReconfigCosts::paper(),
            retired: SimResult::default(),
            reconfigurations: 0,
            reconfig_cycles: 0,
        })
    }

    /// Overrides the reconfiguration cost model.
    #[must_use]
    pub fn with_costs(mut self, costs: ReconfigCosts) -> Self {
        self.costs = costs;
        self
    }

    /// The current shape.
    #[must_use]
    pub fn shape(&self) -> VCoreShape {
        self.cfg.shape()
    }

    /// Cycles elapsed on the VCore's continuous clock.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.engine.cycles()
    }

    /// Reconfigurations performed so far.
    #[must_use]
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigurations
    }

    /// Reconfiguration cycles charged so far.
    #[must_use]
    pub fn reconfig_cycles(&self) -> u64 {
        self.reconfig_cycles
    }

    /// Runs a batch of committed-path instructions on the current shape.
    pub fn run(&mut self, trace: &Trace) {
        self.engine.run_chunk(&mut self.mem, trace.insts());
    }

    /// Resizes the VCore in place, charging the paper's §3.8 costs and
    /// carrying the clock forward. Slice-only changes keep the L2 warm;
    /// bank-count changes flush it. Returns the cycles charged.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the new shape is invalid.
    pub fn reconfigure(&mut self, new_shape: VCoreShape) -> Result<u64, ConfigError> {
        let old_shape = self.cfg.shape();
        if new_shape == old_shape {
            return Ok(0);
        }
        let new_cfg = SimConfig::builder()
            .slices(new_shape.slices)
            .l2_banks(new_shape.l2_banks)
            .slice_params(self.cfg.slice)
            .mem_params(self.cfg.mem)
            .knobs(self.cfg.knobs)
            .build()?;
        let cost = self.costs.cost(old_shape, new_shape);
        let resume_at = self.engine.cycles() + cost;

        let old_engine = std::mem::replace(&mut self.engine, VCoreEngine::new(new_cfg, 0));
        self.retired.add_vcore_counters(&old_engine.finish("phase"));

        // A Slice-only change leaves the bank set untouched: dirty contents
        // survive (the Register Flush rides the operand network). A bank
        // change sends dirty state to memory and starts the new set cold
        // (§3.8: "all dirty state in L2 Cache Banks be flushed to main
        // memory before reconfiguration").
        if new_shape.l2_banks != old_shape.l2_banks {
            add_mem_traffic(&mut self.retired, &self.mem);
            self.mem = MemorySystem::private(new_shape.l2_banks, new_cfg.mem.memory_delay);
        }
        self.cfg = new_cfg;
        self.engine.add_stall_cycles(resume_at);
        self.reconfigurations += 1;
        self.reconfig_cycles += cost;
        Ok(cost)
    }

    /// Finalizes the run: aggregate result across every shape worn, on the
    /// continuous clock.
    #[must_use]
    pub fn finish(self) -> SimResult {
        let last = self.engine.finish("reconfigurable-vcore");
        let mut total = self.retired;
        total.add_vcore_counters(&last);
        add_mem_traffic(&mut total, &self.mem);
        total.workload = last.workload;
        total.shape = last.shape;
        total.cycles = last.cycles; // continuous clock: the final commit time
        total
    }
}

/// Adds a private memory system's L2 and DRAM traffic to `total`.
fn add_mem_traffic(total: &mut SimResult, mem: &MemorySystem) {
    let l2 = mem.l2.stats();
    total.mem.l2.accesses += l2.accesses;
    total.mem.l2.hits += l2.hits;
    total.mem.l2.writebacks += l2.writebacks;
    total.mem.l2.invalidations += l2.invalidations;
    total.mem.memory_accesses += mem.memory_accesses;
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharing_trace::{Benchmark, TraceSpec};

    fn shape(s: usize, b: usize) -> VCoreShape {
        VCoreShape::new(s, b).unwrap()
    }

    #[test]
    fn clock_is_continuous_across_reconfigurations() {
        let trace = Benchmark::Gcc.generate(&TraceSpec::new(4_000, 9));
        let phases = trace.split_phases(2);
        let mut v = ReconfigurableVCore::new(SimConfig::with_shape(2, 2).unwrap()).unwrap();
        v.run(&phases[0]);
        let t0 = v.cycles();
        let cost = v.reconfigure(shape(4, 2)).unwrap();
        assert_eq!(cost, 500, "slice-only change");
        v.run(&phases[1]);
        let result = v.finish();
        assert!(result.cycles > t0 + 500, "clock carried forward");
        assert_eq!(result.instructions, 4_000);
    }

    #[test]
    fn slice_only_change_keeps_the_l2_warm() {
        // Warm the L2 with a cache-friendly phase, then change only the
        // Slice count and replay the same trace: the second pass should
        // see far fewer memory accesses than a cold (bank-changed) pass.
        let trace = Benchmark::Bzip.generate(&TraceSpec::new(8_000, 5));

        let mut warm = ReconfigurableVCore::new(SimConfig::with_shape(1, 8).unwrap()).unwrap();
        warm.run(&trace);
        warm.reconfigure(shape(2, 8)).unwrap(); // slice-only
        warm.run(&trace);
        let warm_result = warm.finish();

        let mut cold = ReconfigurableVCore::new(SimConfig::with_shape(1, 8).unwrap()).unwrap();
        cold.run(&trace);
        cold.reconfigure(shape(2, 4)).unwrap(); // bank change: flush
        cold.reconfigure(shape(2, 8)).unwrap(); // back to 512KB, but cold
        cold.run(&trace);
        let cold_result = cold.finish();

        assert!(
            warm_result.mem.memory_accesses < cold_result.mem.memory_accesses,
            "warm {} vs cold {} memory accesses",
            warm_result.mem.memory_accesses,
            cold_result.mem.memory_accesses
        );
    }

    #[test]
    fn bank_change_charges_the_flush_cost() {
        let mut v = ReconfigurableVCore::new(SimConfig::with_shape(2, 2).unwrap()).unwrap();
        assert_eq!(v.reconfigure(shape(2, 4)).unwrap(), 10_000);
        assert_eq!(v.reconfigurations(), 1);
        assert_eq!(v.reconfigure(shape(2, 4)).unwrap(), 0, "no-op resize");
        assert_eq!(v.reconfigurations(), 1);
    }

    #[test]
    fn shape_tracks_reconfigurations() {
        let mut v = ReconfigurableVCore::new(SimConfig::with_shape(1, 0).unwrap()).unwrap();
        assert_eq!(v.shape(), shape(1, 0));
        v.reconfigure(shape(8, 128)).unwrap();
        assert_eq!(v.shape(), shape(8, 128));
    }

    #[test]
    fn unresized_vcore_reports_what_a_plain_run_does() {
        // Without a reconfiguration the live VCore is one plain run: every
        // counter the per-VCore sum carries, and the L2 and memory traffic,
        // must match `Simulator::run_with`.
        let trace = Benchmark::Mcf.generate(&TraceSpec::new(5_000, 4));
        let cfg = SimConfig::with_shape(2, 4).unwrap();
        let mut v = ReconfigurableVCore::new(cfg).unwrap();
        v.run(&trace);
        let live = v.finish();
        let mut plain = crate::Simulator::new(cfg)
            .unwrap()
            .run_with(&trace, crate::RunOptions::new())
            .result;
        assert!(plain.stalls.rob_full + plain.operand_net.messages > 0);
        plain.workload = live.workload.clone();
        plain.per_slice.clear();
        plain.mem.l1d.writebacks = 0;
        plain.mem.l1d.invalidations = 0;
        assert_eq!(live, plain);
    }

    #[test]
    fn matches_run_phased_instruction_accounting() {
        let trace = Benchmark::Perlbench.generate(&TraceSpec::new(6_000, 2));
        let phases = trace.split_phases(3);
        let mut v = ReconfigurableVCore::new(SimConfig::with_shape(1, 2).unwrap()).unwrap();
        for (i, p) in phases.iter().enumerate() {
            if i == 1 {
                v.reconfigure(shape(2, 2)).unwrap();
            }
            v.run(p);
        }
        let r = v.finish();
        assert_eq!(r.instructions, 6_000);
        assert!(r.predictor.predictions > 0);
    }
}
