//! LRU set-associative cache core.

use std::fmt;

/// Invalid cache geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GeometryError {
    /// A size/way/line parameter was zero.
    Zero,
    /// Size, line size, or the derived set count is not a power of two.
    NotPowerOfTwo,
    /// The capacity is smaller than `ways * line` (fewer than one set).
    TooSmall,
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::Zero => write!(f, "geometry parameter was zero"),
            GeometryError::NotPowerOfTwo => write!(f, "sizes must be powers of two"),
            GeometryError::TooSmall => write!(f, "capacity smaller than one set"),
        }
    }
}

impl std::error::Error for GeometryError {}

/// Shape of a cache: capacity, line size, associativity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    size_bytes: u64,
    line_bytes: u64,
    ways: u32,
}

impl CacheGeometry {
    /// Creates and validates a geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] if any parameter is zero, sizes are not
    /// powers of two, or fewer than one set results.
    pub fn new(size_bytes: u64, line_bytes: u64, ways: u32) -> Result<Self, GeometryError> {
        if size_bytes == 0 || line_bytes == 0 || ways == 0 {
            return Err(GeometryError::Zero);
        }
        if !size_bytes.is_power_of_two() || !line_bytes.is_power_of_two() {
            return Err(GeometryError::NotPowerOfTwo);
        }
        if size_bytes < line_bytes * u64::from(ways) {
            return Err(GeometryError::TooSmall);
        }
        if !size_bytes.is_multiple_of(line_bytes * u64::from(ways)) {
            return Err(GeometryError::NotPowerOfTwo);
        }
        let sets = size_bytes / (line_bytes * u64::from(ways));
        if !sets.is_power_of_two() {
            return Err(GeometryError::NotPowerOfTwo);
        }
        Ok(CacheGeometry {
            size_bytes,
            line_bytes,
            ways,
        })
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn size_bytes(self) -> u64 {
        self.size_bytes
    }

    /// Line size in bytes.
    #[must_use]
    pub fn line_bytes(self) -> u64 {
        self.line_bytes
    }

    /// Associativity.
    #[must_use]
    pub fn ways(self) -> u32 {
        self.ways
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(self) -> u64 {
        self.size_bytes / (self.line_bytes * u64::from(self.ways))
    }
}

/// Hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Lines invalidated externally (coherence).
    pub invalidations: u64,
}

sharing_json::json_struct!(CacheStats {
    accesses,
    hits,
    writebacks,
    invalidations
});

impl CacheStats {
    /// Miss count.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss rate in `[0, 1]`; zero for an untouched cache.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

/// Result of a cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was resident.
    pub hit: bool,
    /// Line number of a dirty victim that must be written back, if any.
    pub writeback: Option<u64>,
}

#[derive(Clone, Copy, Debug)]
struct LineEntry {
    line: u64,
    dirty: bool,
}

/// An empty way. Real line numbers are byte addresses shifted right by
/// the line bits, so they never reach `u64::MAX`; empty ways are clean,
/// so an empty victim never reports a writeback.
const EMPTY: LineEntry = LineEntry {
    line: u64::MAX,
    dirty: false,
};

/// An LRU set-associative, write-back, write-allocate cache over *line
/// numbers* (byte address >> line bits). Data values are not stored — the
/// simulator tracks values architecturally — only presence and dirtiness.
///
/// The ways live in one flat array, `ways` entries per set, each set
/// most-recently-used first with its empty ways at the tail. A set is
/// found with a mask (the set count is a power of two), a hit or a fill
/// rotates the touched prefix right by one, and an invalidation rotates
/// the tail left, so no access allocates or divides.
///
/// # Example
///
/// ```
/// use sharing_cache::{CacheGeometry, SetAssocCache};
///
/// let mut c = SetAssocCache::new(CacheGeometry::new(1024, 64, 2)?);
/// c.access(1, true);          // miss, allocate dirty
/// assert!(c.access(1, false).hit);
/// assert_eq!(c.stats().misses(), 1);
/// # Ok::<(), sharing_cache::GeometryError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    geom: CacheGeometry,
    ways: usize,
    /// `sets - 1`: a line's set is `line & set_mask`.
    set_mask: u64,
    /// `sets × ways` entries; set `i` is `lines[i * ways..(i + 1) * ways]`.
    lines: Vec<LineEntry>,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new(geom: CacheGeometry) -> Self {
        let ways = geom.ways() as usize;
        let sets = geom.sets();
        SetAssocCache {
            geom,
            ways,
            set_mask: sets - 1,
            lines: vec![EMPTY; sets as usize * ways],
            stats: CacheStats::default(),
        }
    }

    /// The geometry.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Where `line`'s set sits in `lines`.
    #[inline]
    fn set_of(&self, line: u64) -> std::ops::Range<usize> {
        let base = (line & self.set_mask) as usize * self.ways;
        base..base + self.ways
    }

    /// Accesses `line`; allocates on miss, possibly evicting the LRU way.
    /// `is_write` marks the line dirty.
    #[inline]
    pub fn access(&mut self, line: u64, is_write: bool) -> AccessOutcome {
        debug_assert_ne!(line, EMPTY.line, "line number reserved for empty ways");
        self.stats.accesses += 1;
        let span = self.set_of(line);
        let set = &mut self.lines[span];
        // A hit in the most-recently-used way leaves the order as it is.
        if set[0].line == line {
            set[0].dirty |= is_write;
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                writeback: None,
            };
        }
        if let Some(pos) = set.iter().position(|e| e.line == line) {
            set[pos].dirty |= is_write;
            set[..=pos].rotate_right(1);
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                writeback: None,
            };
        }
        // Miss: the LRU way (empty while the set has room) makes way.
        set.rotate_right(1);
        let victim = std::mem::replace(
            &mut set[0],
            LineEntry {
                line,
                dirty: is_write,
            },
        );
        let writeback = if victim.dirty {
            self.stats.writebacks += 1;
            Some(victim.line)
        } else {
            None
        };
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// Checks residency without updating LRU state or statistics.
    #[must_use]
    pub fn probe(&self, line: u64) -> bool {
        self.lines[self.set_of(line)].iter().any(|e| e.line == line)
    }

    /// Invalidates a line (coherence); returns whether it was dirty.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let span = self.set_of(line);
        let set = &mut self.lines[span];
        let Some(pos) = set.iter().position(|e| e.line == line) else {
            return false;
        };
        let dirty = set[pos].dirty;
        set[pos..].rotate_left(1);
        set[set.len() - 1] = EMPTY;
        self.stats.invalidations += 1;
        dirty
    }

    /// Flushes the whole cache (reconfiguration, §3.8); returns the number
    /// of dirty lines written back.
    pub fn flush_all(&mut self) -> u64 {
        let dirty = self.lines.iter().filter(|e| e.dirty).count() as u64;
        self.lines.fill(EMPTY);
        self.stats.writebacks += dirty;
        dirty
    }

    /// Number of resident lines.
    #[must_use]
    pub fn resident_lines(&self) -> u64 {
        self.lines.iter().filter(|e| e.line != EMPTY.line).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original cache, one `Vec` per set kept most-recently-used
    /// first with `remove` + `insert(0, _)`, indexed by `line % sets` —
    /// kept as the reference the flat cache must match.
    struct VecSetCache {
        geom: CacheGeometry,
        sets: Vec<Vec<LineEntry>>,
        stats: CacheStats,
    }

    impl VecSetCache {
        fn new(geom: CacheGeometry) -> Self {
            VecSetCache {
                geom,
                sets: vec![Vec::with_capacity(geom.ways() as usize); geom.sets() as usize],
                stats: CacheStats::default(),
            }
        }

        fn set_index(&self, line: u64) -> usize {
            (line % self.geom.sets()) as usize
        }

        fn access(&mut self, line: u64, is_write: bool) -> AccessOutcome {
            self.stats.accesses += 1;
            let si = self.set_index(line);
            let set = &mut self.sets[si];
            if let Some(pos) = set.iter().position(|e| e.line == line) {
                self.stats.hits += 1;
                let mut e = set.remove(pos);
                e.dirty |= is_write;
                set.insert(0, e);
                return AccessOutcome {
                    hit: true,
                    writeback: None,
                };
            }
            let mut writeback = None;
            if set.len() == self.geom.ways() as usize {
                let victim = set.pop().expect("full set has a victim");
                if victim.dirty {
                    self.stats.writebacks += 1;
                    writeback = Some(victim.line);
                }
            }
            set.insert(
                0,
                LineEntry {
                    line,
                    dirty: is_write,
                },
            );
            AccessOutcome {
                hit: false,
                writeback,
            }
        }

        fn probe(&self, line: u64) -> bool {
            self.sets[self.set_index(line)]
                .iter()
                .any(|e| e.line == line)
        }

        fn invalidate(&mut self, line: u64) -> bool {
            let si = self.set_index(line);
            let set = &mut self.sets[si];
            if let Some(pos) = set.iter().position(|e| e.line == line) {
                let e = set.remove(pos);
                self.stats.invalidations += 1;
                e.dirty
            } else {
                false
            }
        }

        fn flush_all(&mut self) -> u64 {
            let mut dirty = 0;
            for set in &mut self.sets {
                dirty += set.iter().filter(|e| e.dirty).count() as u64;
                set.clear();
            }
            self.stats.writebacks += dirty;
            dirty
        }

        fn resident_lines(&self) -> u64 {
            self.sets.iter().map(|s| s.len() as u64).sum()
        }
    }

    #[test]
    fn flat_cache_matches_vec_per_set_reference() {
        // The engine's geometries: L1D 8 sets x 2 ways, L1I 64 x 2, an
        // L2 bank 16 x 4, plus a direct-mapped cache.
        let geometries = [
            CacheGeometry::new(1 << 10, 64, 2).unwrap(),
            CacheGeometry::new(1 << 10, 8, 2).unwrap(),
            CacheGeometry::new(crate::l2::BANK_EFFECTIVE_BYTES, 64, crate::l2::BANK_WAYS).unwrap(),
            CacheGeometry::new(1 << 10, 64, 1).unwrap(),
        ];
        assert_eq!(geometries[2].sets(), 16);
        let mut x = 0x5EED_CAC4E_u64;
        for geom in geometries {
            let mut flat = SetAssocCache::new(geom);
            let mut reference = VecSetCache::new(geom);
            // A footprint of a few times the capacity, so sets fill,
            // evict and refill.
            let footprint = geom.sets() * u64::from(geom.ways()) * 3;
            for step in 0..40_000u32 {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let r = x >> 33;
                let line = (r >> 8) % footprint;
                let ctx = format!("{geom:?} step {step}");
                match r % 100 {
                    0..=79 => {
                        let write = r & 0x80 != 0;
                        assert_eq!(
                            flat.access(line, write),
                            reference.access(line, write),
                            "{ctx}"
                        );
                    }
                    80..=89 => assert_eq!(flat.probe(line), reference.probe(line), "{ctx}"),
                    90..=98 => {
                        assert_eq!(flat.invalidate(line), reference.invalidate(line), "{ctx}")
                    }
                    _ if r & 0x700 == 0 => {
                        assert_eq!(flat.flush_all(), reference.flush_all(), "{ctx}");
                    }
                    _ => {}
                }
                assert_eq!(flat.stats(), reference.stats, "{ctx}");
                assert_eq!(flat.resident_lines(), reference.resident_lines(), "{ctx}");
            }
            assert!(flat.stats().writebacks > 0 && flat.stats().invalidations > 0);
        }
    }

    fn small() -> SetAssocCache {
        // 4 sets x 2 ways, 64B lines.
        SetAssocCache::new(CacheGeometry::new(512, 64, 2).unwrap())
    }

    #[test]
    fn geometry_validation() {
        assert!(CacheGeometry::new(16 << 10, 64, 2).is_ok());
        assert_eq!(CacheGeometry::new(0, 64, 2), Err(GeometryError::Zero));
        assert_eq!(
            CacheGeometry::new(1000, 64, 2),
            Err(GeometryError::NotPowerOfTwo)
        );
        assert_eq!(CacheGeometry::new(64, 64, 2), Err(GeometryError::TooSmall));
        // 3-way over power-of-two capacity gives non-power-of-two sets.
        assert_eq!(
            CacheGeometry::new(512, 64, 3),
            Err(GeometryError::NotPowerOfTwo)
        );
        let g = CacheGeometry::new(512, 64, 2).unwrap();
        assert_eq!(g.sets(), 4);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Lines 0, 4, 8 all map to set 0 (line % 4 == 0).
        c.access(0, false);
        c.access(4, false);
        c.access(0, false); // 0 is now MRU
        let out = c.access(8, false); // evicts 4
        assert!(!out.hit);
        assert!(c.probe(0));
        assert!(!c.probe(4));
        assert!(c.probe(8));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.access(0, true);
        c.access(4, false);
        let out = c.access(8, false); // evicts dirty 0? No: LRU is 0 after 4 accessed
                                      // Access order: 0 (dirty), 4 → LRU = 0.
        assert_eq!(out.writeback, Some(0));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = small();
        c.access(0, false);
        c.access(4, false);
        let out = c.access(8, false);
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.access(0, false);
        c.access(0, true); // hit, becomes dirty
        c.access(4, false);
        let out = c.access(8, false); // evicts 4? LRU after (0,0,4) = 0? order: 0 MRU→ 4, LRU=0
                                      // After accesses [0,0w,4]: MRU=4, LRU=0(dirty).
        assert_eq!(out.writeback, Some(0));
    }

    #[test]
    fn invalidate_returns_dirtiness() {
        let mut c = small();
        c.access(0, true);
        c.access(1, false);
        assert!(c.invalidate(0));
        assert!(!c.invalidate(1));
        assert!(!c.invalidate(99), "absent line invalidation is a no-op");
        assert_eq!(c.stats().invalidations, 2);
        assert!(!c.probe(0));
    }

    #[test]
    fn flush_counts_dirty_lines_and_empties() {
        let mut c = small();
        c.access(0, true);
        c.access(1, true);
        c.access(2, false);
        assert_eq!(c.flush_all(), 2);
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn probe_does_not_perturb() {
        let mut c = small();
        c.access(0, false);
        c.access(4, false);
        let _ = c.probe(0); // must NOT refresh LRU
        let _ = c.access(8, false); // evicts true LRU = 0
        assert!(!c.probe(0));
        assert!(c.probe(4));
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut c = small();
        c.access(0, false);
        c.access(0, false);
        c.access(1, false);
        let s = c.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses(), 2);
        assert!((s.miss_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn miss_rate_of_empty_cache_is_zero() {
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }
}
