//! Cycle-attribution profiler: where did every simulated cycle go?
//!
//! The engine's [`StallBreakdown`](crate::stats::StallBreakdown) counts
//! *events* (cycles a resource was asked for and unavailable), which can
//! overlap and double-count; it answers "what was contended" but not
//! "what paid for the runtime". The profiler answers the second question
//! with a CPI-stack-style accounting that is **conservation-exact**: for
//! every Slice, the six buckets sum to precisely the total cycle count
//! of the run, so a flamegraph over them has no missing or invented
//! time.
//!
//! The attribution works on the committed-path interval between
//! consecutive commits on the same Slice. Commit times are globally
//! monotone, so each instruction owns the gap
//! `commit − previous_commit_on_slice`, and that gap is charged backward
//! through the instruction's own pipeline intervals in priority order —
//! DRAM/L2 time first, then functional-unit occupancy, issue-queue
//! wait, dispatch backpressure, front end — with whatever remains
//! labelled idle. After the last instruction, each Slice's tail up to
//! the run's final cycle is idle too. Every charge is `min`-capped by
//! the remaining gap, which is what makes the buckets partition the
//! timeline instead of over-counting overlapped latencies.
//!
//! The accounting is pure observation: it reads timestamps the engine
//! already computed and never feeds anything back, so an armed profiler
//! cannot perturb bit-for-bit replay.

use sharing_json::json_struct;

/// Human-readable bucket names, in the order [`SliceCycles::as_pairs`]
/// reports them.
pub const BUCKET_NAMES: [&str; 6] = [
    "fetch",
    "issue",
    "fu_busy",
    "dram_stall",
    "rob_full",
    "idle",
];

/// Cycle attribution for one Slice. The six buckets partition the
/// Slice's timeline: they sum exactly to the run's total cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SliceCycles {
    /// Front end: fetch-to-dispatch, including I-cache bubbles, the
    /// frontend depth and the cross-Slice rename round trip.
    pub fetch: u64,
    /// Issue-queue wait: dispatched, waiting for operands or an FU.
    pub issue: u64,
    /// Functional-unit occupancy: issue-to-execute-done, minus the
    /// portion attributed to DRAM below (for loads this includes the
    /// LS-sort trips, LSQ time and L1/L2 hit latency).
    pub fu_busy: u64,
    /// Beyond-L2 memory time: DRAM channel queueing plus main-memory
    /// latency on the instruction's own miss path.
    pub dram_stall: u64,
    /// Dispatch-side structural backpressure: ROB, LRF, global register
    /// free list, or issue window full.
    pub rob_full: u64,
    /// Nothing committed on this Slice: covered by another Slice's
    /// work, squash shadows, or the tail after its last commit.
    pub idle: u64,
}

json_struct!(SliceCycles {
    fetch,
    issue,
    fu_busy,
    dram_stall,
    rob_full,
    idle,
});

impl SliceCycles {
    /// Sum of all six buckets (equals the run's cycles when conserved).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.fetch + self.issue + self.fu_busy + self.dram_stall + self.rob_full + self.idle
    }

    /// The buckets as `(name, cycles)` pairs, in [`BUCKET_NAMES`] order.
    #[must_use]
    pub fn as_pairs(&self) -> [(&'static str, u64); 6] {
        [
            ("fetch", self.fetch),
            ("issue", self.issue),
            ("fu_busy", self.fu_busy),
            ("dram_stall", self.dram_stall),
            ("rob_full", self.rob_full),
            ("idle", self.idle),
        ]
    }

    /// Element-wise accumulation.
    pub fn accumulate(&mut self, other: &SliceCycles) {
        self.fetch += other.fetch;
        self.issue += other.issue;
        self.fu_busy += other.fu_busy;
        self.dram_stall += other.dram_stall;
        self.rob_full += other.rob_full;
        self.idle += other.idle;
    }
}

/// The profile of one run: per-Slice cycle attribution plus the total
/// it must conserve.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CycleProfile {
    /// Total cycles of the run (every Slice's buckets sum to this).
    pub cycles: u64,
    /// One attribution per Slice, index = Slice id.
    pub per_slice: Vec<SliceCycles>,
}

json_struct!(CycleProfile { cycles } defaults { per_slice });

impl CycleProfile {
    /// Bucket totals summed across Slices (sums to
    /// `cycles × per_slice.len()` when conserved).
    #[must_use]
    pub fn totals(&self) -> SliceCycles {
        let mut t = SliceCycles::default();
        for s in &self.per_slice {
            t.accumulate(s);
        }
        t
    }

    /// The conservation law: every Slice's buckets sum exactly to the
    /// run's total cycles.
    #[must_use]
    pub fn conserved(&self) -> bool {
        self.per_slice.iter().all(|s| s.total() == self.cycles)
    }

    /// Renders the profile as a fixed-width table, one row per Slice
    /// plus an `all` row, with per-bucket percentages of total
    /// Slice-cycles underneath.
    #[must_use]
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "slice", "fetch", "issue", "fu_busy", "dram_stall", "rob_full", "idle", "total"
        );
        let row = |out: &mut String, label: &str, s: &SliceCycles| {
            let _ = writeln!(
                out,
                "{:>5} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
                label,
                s.fetch,
                s.issue,
                s.fu_busy,
                s.dram_stall,
                s.rob_full,
                s.idle,
                s.total()
            );
        };
        for (i, s) in self.per_slice.iter().enumerate() {
            row(&mut out, &i.to_string(), s);
        }
        let all = self.totals();
        row(&mut out, "all", &all);
        let denom = all.total().max(1);
        let mut pct = String::new();
        for (name, v) in all.as_pairs() {
            let _ = write!(pct, "{name} {:.1}%  ", 100.0 * v as f64 / denom as f64);
        }
        let _ = writeln!(
            out,
            "cycles {}  conserved {}  [{}]",
            self.cycles,
            self.conserved(),
            pct.trim_end()
        );
        out
    }
}

/// Feeds a finished profile's bucket totals into the process-global obs
/// registry as monotonic counters (`ssim_profile_<bucket>_cycles_total`),
/// so long-running daemons expose cumulative cycle attribution over
/// every profiled run.
pub fn observe_profile(p: &CycleProfile) {
    let t = p.totals();
    sharing_obs::counter("ssim_profile_fetch_cycles_total").add(t.fetch);
    sharing_obs::counter("ssim_profile_issue_cycles_total").add(t.issue);
    sharing_obs::counter("ssim_profile_fu_busy_cycles_total").add(t.fu_busy);
    sharing_obs::counter("ssim_profile_dram_stall_cycles_total").add(t.dram_stall);
    sharing_obs::counter("ssim_profile_rob_full_cycles_total").add(t.rob_full);
    sharing_obs::counter("ssim_profile_idle_cycles_total").add(t.idle);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc(fetch: u64, issue: u64, fu: u64, dram: u64, rob: u64, idle: u64) -> SliceCycles {
        SliceCycles {
            fetch,
            issue,
            fu_busy: fu,
            dram_stall: dram,
            rob_full: rob,
            idle,
        }
    }

    #[test]
    fn totals_and_conservation() {
        let p = CycleProfile {
            cycles: 60,
            per_slice: vec![sc(10, 10, 10, 10, 10, 10), sc(0, 0, 0, 0, 0, 60)],
        };
        assert!(p.conserved());
        assert_eq!(p.totals().total(), 120);
        let broken = CycleProfile {
            cycles: 61,
            ..p.clone()
        };
        assert!(!broken.conserved());
    }

    #[test]
    fn json_round_trip_preserves_buckets() {
        let p = CycleProfile {
            cycles: 42,
            per_slice: vec![sc(1, 2, 3, 4, 5, 27)],
        };
        let text = sharing_json::to_string(&p);
        let back: CycleProfile = sharing_json::from_str(&text).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn table_reports_every_bucket_and_the_law() {
        let p = CycleProfile {
            cycles: 10,
            per_slice: vec![sc(1, 2, 3, 0, 0, 4)],
        };
        let t = p.table();
        for name in BUCKET_NAMES {
            assert!(t.contains(name), "table missing {name}:\n{t}");
        }
        assert!(t.contains("conserved true"));
    }
}
