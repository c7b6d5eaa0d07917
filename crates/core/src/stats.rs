//! Simulation results and counters.
//!
//! Mirrors what the paper says SSim reports: "the cycles executed for a
//! given workload along with cache miss rates and stage-based
//! micro-architecture stalls and statistics" (§5.2).

use crate::config::VCoreShape;
use crate::predictor::PredictorStats;
use sharing_cache::CacheStats;
use sharing_json::json_struct;
use sharing_noc::NetStats;

/// Cycles lost waiting on each structural resource (attributed at
/// dispatch).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Reorder buffer full.
    pub rob_full: u64,
    /// ALU or LS issue window full.
    pub window_full: u64,
    /// LSQ bank full.
    pub lsq_full: u64,
    /// MSHR (in-flight load limit) full.
    pub mshr_full: u64,
    /// Store buffer full at commit.
    pub store_buffer_full: u64,
    /// Global logical register free-list empty.
    pub freelist_empty: u64,
    /// Front-end bubbles from branch mispredictions.
    pub mispredict: u64,
    /// Front-end bubbles from I-cache misses.
    pub icache: u64,
}

/// Memory-hierarchy counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemCounters {
    /// Aggregated L1 D-cache statistics (all Slices).
    pub l1d: CacheStats,
    /// Aggregated L1 I-cache statistics (all Slices).
    pub l1i: CacheStats,
    /// Aggregated L2 bank statistics.
    pub l2: CacheStats,
    /// Accesses that went to main memory.
    pub memory_accesses: u64,
    /// Loads forwarded from an in-flight store.
    pub store_forwards: u64,
    /// Load/store ordering violations detected by the LSQ (§3.6).
    pub lsq_violations: u64,
    /// Coherence invalidations received from other VCores.
    pub coherence_invalidations: u64,
    /// Dirty-line forwards between VCores.
    pub coherence_forwards: u64,
}

/// Per-Slice activity (fetch/predict on the PC-interleaved front end,
/// memory on the line-interleaved home Slice).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SliceStats {
    /// This Slice's branch predictor.
    pub predictor: PredictorStats,
    /// This Slice's L1 D-cache (home-Slice traffic).
    pub l1d: CacheStats,
    /// This Slice's L1 I-cache.
    pub l1i: CacheStats,
}

/// The result of simulating one trace on one VCore configuration.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimResult {
    /// Workload name.
    pub workload: String,
    /// The VCore shape simulated (defaults to 1 Slice, 0 banks for
    /// `Default`).
    pub shape: Option<VCoreShape>,
    /// Total cycles to commit the trace.
    pub cycles: u64,
    /// Committed instructions.
    pub instructions: u64,
    /// Branch predictor statistics (aggregated over Slices).
    pub predictor: PredictorStats,
    /// Memory counters.
    pub mem: MemCounters,
    /// Stall attribution.
    pub stalls: StallBreakdown,
    /// Operand-network statistics.
    pub operand_net: NetStats,
    /// Operand requests that crossed Slices.
    pub remote_operand_requests: u64,
    /// Operand reads satisfied by an already-fetched LRF copy (§3.2.2:
    /// repeated reads do not re-request).
    pub lrf_copy_hits: u64,
    /// Load/store-sorting network messages.
    pub ls_sort_messages: u64,
    /// Global-rename broadcast messages.
    pub rename_broadcasts: u64,
    /// Per-Slice breakdown (one entry per Slice, index = Slice id).
    pub per_slice: Vec<SliceStats>,
}

json_struct!(StallBreakdown {
    rob_full,
    window_full,
    lsq_full,
    mshr_full,
    store_buffer_full,
    freelist_empty,
    mispredict,
    icache,
});

json_struct!(MemCounters {
    l1d,
    l1i,
    l2,
    memory_accesses,
    store_forwards,
    lsq_violations,
    coherence_invalidations,
    coherence_forwards,
});

json_struct!(SliceStats {
    predictor,
    l1d,
    l1i
});

json_struct!(SimResult {
    workload,
    shape,
    cycles,
    instructions,
    predictor,
    mem,
    stalls,
    operand_net,
    remote_operand_requests,
    lrf_copy_hits,
    ls_sort_messages,
    rename_broadcasts,
} defaults { per_slice });

impl SimResult {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Performance as defined throughout the paper's evaluation: inverse
    /// time for a fixed workload, i.e. proportional to IPC.
    #[must_use]
    pub fn performance(&self) -> f64 {
        self.ipc()
    }

    /// Adds one VCore engine's own counters into this aggregate:
    /// instructions, predictor, L1 and LSQ traffic, coherence, operand
    /// network, messages and stalls. Cycles, the shared L2 and memory
    /// counters, and the per-Slice breakdown are the caller's to set.
    pub fn add_vcore_counters(&mut self, r: &SimResult) {
        self.instructions += r.instructions;
        self.predictor.predictions += r.predictor.predictions;
        self.predictor.mispredictions += r.predictor.mispredictions;
        self.predictor.btb_misses += r.predictor.btb_misses;
        self.mem.l1d.accesses += r.mem.l1d.accesses;
        self.mem.l1d.hits += r.mem.l1d.hits;
        self.mem.l1i.accesses += r.mem.l1i.accesses;
        self.mem.l1i.hits += r.mem.l1i.hits;
        self.mem.store_forwards += r.mem.store_forwards;
        self.mem.lsq_violations += r.mem.lsq_violations;
        self.mem.coherence_invalidations += r.mem.coherence_invalidations;
        self.mem.coherence_forwards += r.mem.coherence_forwards;
        self.remote_operand_requests += r.remote_operand_requests;
        self.lrf_copy_hits += r.lrf_copy_hits;
        self.ls_sort_messages += r.ls_sort_messages;
        self.rename_broadcasts += r.rename_broadcasts;
        self.operand_net += r.operand_net;
        self.stalls.rob_full += r.stalls.rob_full;
        self.stalls.window_full += r.stalls.window_full;
        self.stalls.lsq_full += r.stalls.lsq_full;
        self.stalls.mshr_full += r.stalls.mshr_full;
        self.stalls.store_buffer_full += r.stalls.store_buffer_full;
        self.stalls.freelist_empty += r.stalls.freelist_empty;
        self.stalls.mispredict += r.stalls.mispredict;
        self.stalls.icache += r.stalls.icache;
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{}: {} insts in {} cycles (IPC {:.3}), L1D miss {:.1}%, L2 miss {:.1}%, br mispredict {:.1}%, violations {}",
            self.workload,
            self.instructions,
            self.cycles,
            self.ipc(),
            100.0 * self.mem.l1d.miss_rate(),
            100.0 * self.mem.l2.miss_rate(),
            100.0 * self.predictor.mispredict_rate(),
            self.mem.lsq_violations,
        )
    }
}

impl std::fmt::Display for SimResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        let r = SimResult::default();
        assert_eq!(r.ipc(), 0.0);
    }

    #[test]
    fn ipc_and_performance_agree() {
        let r = SimResult {
            cycles: 500,
            instructions: 1000,
            ..SimResult::default()
        };
        assert!((r.ipc() - 2.0).abs() < 1e-12);
        assert_eq!(r.ipc(), r.performance());
    }

    #[test]
    fn summary_mentions_workload() {
        let r = SimResult {
            workload: "gcc".to_string(),
            cycles: 10,
            instructions: 5,
            ..SimResult::default()
        };
        assert!(r.summary().contains("gcc"));
        assert!(r.to_string().contains("IPC"));
    }
}
