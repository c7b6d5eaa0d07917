//! The configurable, banked L2: a VCore's slice of the sea of cache banks.

use crate::interleave::Interleave;
use crate::set_assoc::{CacheGeometry, CacheStats, SetAssocCache};

/// Nominal size of one L2 cache bank (the paper assumes 64 KB banks, §3.5).
pub const BANK_BYTES: u64 = 64 << 10;
/// Modeled (scaled) bank capacity; see [`sharing_isa::CAPACITY_SCALE`].
pub const BANK_EFFECTIVE_BYTES: u64 = BANK_BYTES / sharing_isa::CAPACITY_SCALE;
/// Associativity of an L2 bank (Table 3).
pub const BANK_WAYS: u32 = 4;
/// Line size (Table 3).
pub const LINE_BYTES: u64 = 64;

/// The paper's L2 hit-latency model.
///
/// Table 3 gives an L2 hit delay of `distance*2 + 4`; §5.4 models "an
/// additional 2-cycles of communication delay for each additional 256 KB of
/// cache", which is the same statement under the default placement where
/// each additional 256 KB (four banks) sits one mesh hop further out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L2LatencyModel {
    /// Fixed lookup cost.
    pub base: u32,
    /// Cycles per unit of network distance to the bank.
    pub per_distance: u32,
    /// How many banks fit per unit of distance under the default compact
    /// placement (4 banks = 256 KB per hop ring).
    pub banks_per_hop: u32,
}

impl L2LatencyModel {
    /// The paper's model.
    #[must_use]
    pub fn paper() -> Self {
        L2LatencyModel {
            base: 4,
            per_distance: 2,
            banks_per_hop: 4,
        }
    }

    /// Distance of bank `idx` from the VCore under the default compact
    /// placement: banks 0..4 at distance 1, the next four at distance 2, …
    #[must_use]
    pub fn default_distance(self, idx: usize) -> u32 {
        1 + idx as u32 / self.banks_per_hop
    }

    /// Hit latency to a bank at the given distance.
    #[must_use]
    pub fn hit_latency(self, distance: u32) -> u32 {
        self.base + self.per_distance * distance
    }
}

impl Default for L2LatencyModel {
    fn default() -> Self {
        L2LatencyModel::paper()
    }
}

sharing_json::json_struct!(L2LatencyModel {
    base,
    per_distance,
    banks_per_hop
});

/// Outcome of an L2 access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L2Outcome {
    /// Whether the line was resident in its bank.
    pub hit: bool,
    /// Which bank served the access.
    pub bank: usize,
    /// Round-trip-relevant hit latency contribution of the bank (lookup +
    /// distance), regardless of hit/miss — a miss still pays the trip to
    /// the bank before going to memory.
    pub latency: u32,
    /// Dirty victim line written back to memory, if any.
    pub writeback: Option<u64>,
}

/// A VCore's assigned set of L2 banks with low-order line interleaving.
///
/// A VCore may have **zero** banks (the paper's 0 KB configurations), in
/// which case every access misses straight to memory.
///
/// # Example
///
/// ```
/// use sharing_cache::L2Array;
///
/// let mut l2 = L2Array::new(2); // 128 KB
/// assert_eq!(l2.total_bytes(), 128 << 10);
/// let out = l2.access(0x40 >> 6, false);
/// assert!(!out.hit);
/// assert!(l2.access(0x40 >> 6, false).hit);
/// ```
#[derive(Clone, Debug)]
pub struct L2Array {
    banks: Vec<SetAssocCache>,
    /// Line interleaving over `banks.len()`.
    interleave: Interleave,
    distances: Vec<u32>,
    latency: L2LatencyModel,
}

impl L2Array {
    /// Creates an L2 with `n_banks` 64 KB banks at default distances.
    #[must_use]
    pub fn new(n_banks: usize) -> Self {
        Self::with_latency(n_banks, L2LatencyModel::paper())
    }

    /// Creates an L2 with a custom latency model.
    #[must_use]
    pub fn with_latency(n_banks: usize, latency: L2LatencyModel) -> Self {
        let geom = CacheGeometry::new(BANK_EFFECTIVE_BYTES, LINE_BYTES, BANK_WAYS)
            .expect("bank geometry is statically valid");
        L2Array {
            banks: (0..n_banks).map(|_| SetAssocCache::new(geom)).collect(),
            interleave: Interleave::new(n_banks),
            distances: (0..n_banks).map(|i| latency.default_distance(i)).collect(),
            latency,
        }
    }

    /// Number of banks.
    #[must_use]
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Total *nominal* capacity in bytes (what experiment reports print).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.banks.len() as u64 * BANK_BYTES
    }

    /// Total modeled capacity in bytes (nominal divided by the simulation's
    /// [`sharing_isa::CAPACITY_SCALE`]).
    #[must_use]
    pub fn effective_bytes(&self) -> u64 {
        self.banks.len() as u64 * BANK_EFFECTIVE_BYTES
    }

    /// The bank serving a given line (low-order interleave).
    ///
    /// # Panics
    ///
    /// Panics if the array has no banks.
    #[must_use]
    pub fn bank_of(&self, line: u64) -> usize {
        assert!(!self.banks.is_empty(), "no banks configured");
        self.interleave.unit_of(line) as usize
    }

    /// Hit latency to the bank that would serve `line` (also paid by
    /// misses on their way to memory). Zero-bank arrays return 0: the
    /// request goes straight to the memory controller.
    #[must_use]
    pub fn access_latency(&self, line: u64) -> u32 {
        if self.banks.is_empty() {
            return 0;
        }
        let b = self.bank_of(line);
        self.latency.hit_latency(self.distances[b])
    }

    /// Accesses a line. With zero banks this is an unconditional miss with
    /// zero L2 latency.
    #[inline]
    pub fn access(&mut self, line: u64, is_write: bool) -> L2Outcome {
        if self.banks.is_empty() {
            return L2Outcome {
                hit: false,
                bank: 0,
                latency: 0,
                writeback: None,
            };
        }
        let b = self.bank_of(line);
        let latency = self.latency.hit_latency(self.distances[b]);
        // Strip the interleave bits so the bank's sets are fully used.
        let local = self.interleave.local(line);
        let out = self.banks[b].access(local, is_write);
        L2Outcome {
            hit: out.hit,
            bank: b,
            latency,
            // The bank holds local numbers; put the interleave bits back.
            writeback: out
                .writeback
                .map(|w| w * self.banks.len() as u64 + b as u64),
        }
    }

    /// Invalidates a line wherever it lives; returns whether it was dirty.
    pub fn invalidate(&mut self, line: u64) -> bool {
        if self.banks.is_empty() {
            return false;
        }
        let b = self.bank_of(line);
        let local = self.interleave.local(line);
        self.banks[b].invalidate(local)
    }

    /// Aggregated statistics over all banks.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for b in &self.banks {
            let s = b.stats();
            total.accesses += s.accesses;
            total.hits += s.hits;
            total.writebacks += s.writebacks;
            total.invalidations += s.invalidations;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_model_matches_table3() {
        let m = L2LatencyModel::paper();
        assert_eq!(m.hit_latency(1), 6);
        assert_eq!(m.hit_latency(2), 8);
        assert_eq!(m.hit_latency(5), 14);
    }

    #[test]
    fn default_distance_adds_a_hop_per_256kb() {
        let m = L2LatencyModel::paper();
        assert_eq!(m.default_distance(0), 1);
        assert_eq!(m.default_distance(3), 1); // 256 KB all at distance 1
        assert_eq!(m.default_distance(4), 2); // next 256 KB one hop out
        assert_eq!(m.default_distance(15), 4);
    }

    #[test]
    fn interleaving_spreads_lines_round_robin() {
        let l2 = L2Array::new(4);
        for line in 0..16u64 {
            assert_eq!(l2.bank_of(line), (line % 4) as usize);
        }
    }

    #[test]
    fn every_bank_count_interleaves_as_division() {
        let geom = CacheGeometry::new(BANK_EFFECTIVE_BYTES, LINE_BYTES, BANK_WAYS).unwrap();
        // 384 distinct lines, small and large, each met about five times.
        let lines: Vec<u64> = (0..2_048u64)
            .map(|i| i % 384)
            .map(|x| x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (x % 61))
            // `u64::MAX` itself marks an empty way.
            .chain([u64::MAX - 9, u64::MAX - 1])
            .collect();
        for n in 1..=128usize {
            let mut l2 = L2Array::new(n);
            let mut banks: Vec<SetAssocCache> = (0..n).map(|_| SetAssocCache::new(geom)).collect();
            for (i, &line) in lines.iter().enumerate() {
                let is_write = i % 3 == 0;
                let b = (line % n as u64) as usize;
                assert_eq!(l2.bank_of(line), b, "{line} over {n} banks");
                let out = l2.access(line, is_write);
                let want = banks[b].access(line / n as u64, is_write);
                assert_eq!(out.bank, b, "{line} over {n} banks");
                assert_eq!(out.hit, want.hit, "{line} over {n} banks");
                let global = want.writeback.map(|w| w * n as u64 + b as u64);
                assert_eq!(out.writeback, global, "{line} over {n} banks");
                if i % 7 == 0 {
                    assert_eq!(l2.invalidate(line), banks[b].invalidate(line / n as u64));
                }
            }
        }
    }

    #[test]
    fn dirty_victim_is_written_back_as_its_own_line() {
        let lines_per_bank = BANK_EFFECTIVE_BYTES / LINE_BYTES;
        for n in 1..=16u64 {
            for dirty in [0, 5, n * 1_000 + n / 2, u64::MAX / 2] {
                let mut l2 = L2Array::new(n as usize);
                assert_eq!(l2.access(dirty, true).writeback, None);
                // Clean reads of the same bank's lines push it out.
                let victim = (1..=2 * lines_per_bank)
                    .find_map(|i| l2.access(dirty + i * n, false).writeback);
                assert_eq!(victim, Some(dirty), "line {dirty} over {n} banks");
            }
        }
    }

    #[test]
    fn far_banks_cost_more() {
        let l2 = L2Array::new(8);
        // line 0 → bank 0 (distance 1); line 4 → bank 4 (distance 2).
        assert_eq!(l2.access_latency(0), 6);
        assert_eq!(l2.access_latency(4), 8);
    }

    #[test]
    fn zero_bank_l2_always_misses() {
        let mut l2 = L2Array::new(0);
        let out = l2.access(7, true);
        assert!(!out.hit);
        assert_eq!(out.latency, 0);
        assert_eq!(l2.total_bytes(), 0);
        assert!(!l2.invalidate(7));
    }

    #[test]
    fn hits_after_allocation() {
        let mut l2 = L2Array::new(2);
        assert!(!l2.access(10, false).hit);
        assert!(l2.access(10, false).hit);
        assert_eq!(l2.stats().accesses, 2);
        assert_eq!(l2.stats().hits, 1);
    }
}
