//! Customer utility functions (paper §2.2, §5.6, Table 5).

use std::fmt;

/// A Cloud customer's utility function `U(c, s, v) = v · P(c, s)^k`.
///
/// `v` is the number of (virtual) cores the customer can afford under
/// their budget, and `P` the single-thread performance of one VCore with
/// `c` cache and `s` Slices. The paper's three examples (Table 5), sorted
/// from throughput-oriented to single-thread-performance-oriented:
///
/// * **Utility1** (`v·P`): latency-tolerant bulk work — backup encryption,
///   image resizing, off-line MapReduce (Equation 4);
/// * **Utility2** (`v·P²`): balanced customers who weight sequential time
///   to completion like `Energy·Delay²` research weights delay;
/// * **Utility3** (`v·P³`): On-Line Data-Intensive workloads needing
///   sub-second responsiveness (Equation 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UtilityFn {
    /// `v · P` — throughput computing (the paper's Utility1).
    Throughput,
    /// `v · P²` — balanced (Utility2).
    Balanced,
    /// `v · P³` — single-stream latency critical (Utility3).
    LatencyCritical,
}

/// The paper's three utility functions, in Table 5 order.
pub const ALL_UTILITIES: [UtilityFn; 3] = [
    UtilityFn::Throughput,
    UtilityFn::Balanced,
    UtilityFn::LatencyCritical,
];

impl UtilityFn {
    /// The performance exponent `k`.
    #[must_use]
    pub fn exponent(self) -> u32 {
        match self {
            UtilityFn::Throughput => 1,
            UtilityFn::Balanced => 2,
            UtilityFn::LatencyCritical => 3,
        }
    }

    /// Evaluates `U = v · P^k`.
    ///
    /// Negative inputs are clamped to zero (performance and core counts
    /// are physical quantities).
    #[must_use]
    pub fn evaluate(self, perf: f64, v: f64) -> f64 {
        v.max(0.0) * self.perf_power(perf)
    }

    /// The performance term `P^k` of [`UtilityFn::evaluate`], with `P`
    /// clamped to zero. It does not depend on prices, so an auction
    /// computes it once per shape and reuses it at every price it tries.
    #[must_use]
    pub fn perf_power(self, perf: f64) -> f64 {
        perf.max(0.0).powi(self.exponent() as i32)
    }

    /// The paper's name for this function.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            UtilityFn::Throughput => "Utility1",
            UtilityFn::Balanced => "Utility2",
            UtilityFn::LatencyCritical => "Utility3",
        }
    }
}

impl fmt::Display for UtilityFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponents_match_table5() {
        assert_eq!(UtilityFn::Throughput.exponent(), 1);
        assert_eq!(UtilityFn::Balanced.exponent(), 2);
        assert_eq!(UtilityFn::LatencyCritical.exponent(), 3);
    }

    #[test]
    fn higher_exponents_favor_performance_over_count() {
        // Option A: 4 cores at perf 1. Option B: 1 core at perf 2.
        let (va, pa) = (4.0, 1.0);
        let (vb, pb) = (1.0, 2.0);
        assert!(UtilityFn::Throughput.evaluate(pa, va) > UtilityFn::Throughput.evaluate(pb, vb));
        assert!(
            UtilityFn::LatencyCritical.evaluate(pb, vb)
                > UtilityFn::LatencyCritical.evaluate(pa, va)
        );
    }

    #[test]
    fn evaluate_clamps_negatives() {
        assert_eq!(UtilityFn::Balanced.evaluate(-1.0, 2.0), 0.0);
        assert_eq!(UtilityFn::Balanced.evaluate(2.0, -1.0), 0.0);
    }

    #[test]
    fn names_are_the_papers() {
        let names: Vec<_> = ALL_UTILITIES.iter().map(|u| u.name()).collect();
        assert_eq!(names, ["Utility1", "Utility2", "Utility3"]);
    }
}
