//! Directory-based MSI coherence between VCores.
//!
//! The paper places the coherence point between the L1s and a per-VM shared
//! L2 (§3.5): "We modeled this with a detailed model which has a directory
//! in the L2. Our modeled cache coherence protocol includes switched network
//! cost based on distance and L1 invalidations." Within a VCore no coherence
//! is needed (L1D lines are Slice-interleaved); between the VCores of a VM,
//! this directory tracks which VCores' L1s hold each line and emits the
//! invalidation/forward actions whose network cost the simulator charges.

use crate::hash::LineHashBuilder;
use std::collections::HashMap;

/// Maximum VCores a single directory can track (bitmask width).
pub const MAX_VCORES: usize = 64;

/// MSI state of a line at the directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirState {
    /// No L1 holds the line.
    Invalid,
    /// One or more L1s hold a clean copy.
    Shared,
    /// Exactly one L1 holds a dirty copy.
    Modified,
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    state: DirState,
    sharers: u64,
}

impl Entry {
    /// Sharer ids in ascending order.
    fn sharer_ids(&self) -> impl Iterator<Item = usize> {
        let mut rest = self.sharers;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let id = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                id
            })
        })
    }

    /// The lowest sharer id: the owner of a `Modified` line, which has
    /// exactly one sharer.
    fn owner(&self) -> usize {
        self.sharers.trailing_zeros() as usize
    }
}

/// Coherence work required to satisfy an access.
///
/// The caller (the simulator) turns these into network messages and charges
/// distance-based latency for each.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoherenceAction {
    /// VCores whose L1 copies must be invalidated before the access
    /// proceeds.
    pub invalidate: Vec<usize>,
    /// A VCore holding the line dirty that must forward/write back the
    /// data first.
    pub fetch_from: Option<usize>,
}

impl CoherenceAction {
    /// Whether the access required no coherence traffic.
    #[must_use]
    pub fn is_free(&self) -> bool {
        self.invalidate.is_empty() && self.fetch_from.is_none()
    }
}

/// Counters for coherence activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirStats {
    /// Read requests processed.
    pub reads: u64,
    /// Write (ownership) requests processed.
    pub writes: u64,
    /// L1 invalidations issued.
    pub invalidations: u64,
    /// Dirty forwards from an owner.
    pub forwards: u64,
}

/// The per-VM L2 directory.
///
/// # Example
///
/// ```
/// use sharing_cache::{Directory, DirState};
///
/// let mut dir = Directory::new();
/// assert!(dir.read(0x10, 0).is_free());      // first reader
/// assert!(dir.read(0x10, 1).is_free());      // second reader, still clean
/// let act = dir.write(0x10, 0);              // writer invalidates reader 1
/// assert_eq!(act.invalidate, vec![1]);
/// assert_eq!(dir.state(0x10), DirState::Modified);
/// ```
///
/// Lines are kept in a map hashed by [`LineHashBuilder`]; the map is
/// only ever probed by key, never iterated, so its order cannot reach a
/// result.
#[derive(Clone, Debug, Default)]
pub struct Directory {
    lines: HashMap<u64, Entry, LineHashBuilder>,
    stats: DirStats,
}

impl Directory {
    /// Creates an empty directory.
    #[must_use]
    pub fn new() -> Self {
        Directory::default()
    }

    /// Current state of a line.
    #[must_use]
    pub fn state(&self, line: u64) -> DirState {
        self.lines.get(&line).map_or(DirState::Invalid, |e| e.state)
    }

    /// Current sharer set of a line.
    #[must_use]
    pub fn sharers(&self, line: u64) -> Vec<usize> {
        self.lines
            .get(&line)
            .map_or_else(Vec::new, |e| e.sharer_ids().collect())
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> DirStats {
        self.stats
    }

    fn check_vcore(vcore: usize) {
        assert!(
            vcore < MAX_VCORES,
            "vcore id {vcore} exceeds directory width"
        );
    }

    /// A VCore's L1 reads `line`.
    ///
    /// # Panics
    ///
    /// Panics if `vcore >= MAX_VCORES`.
    pub fn read(&mut self, line: u64, vcore: usize) -> CoherenceAction {
        Self::check_vcore(vcore);
        self.stats.reads += 1;
        let bit = 1u64 << vcore;
        let e = self.lines.entry(line).or_insert(Entry {
            state: DirState::Invalid,
            sharers: 0,
        });
        match e.state {
            DirState::Invalid => {
                e.state = DirState::Shared;
                e.sharers = bit;
                CoherenceAction::default()
            }
            DirState::Shared => {
                e.sharers |= bit;
                CoherenceAction::default()
            }
            DirState::Modified => {
                if e.sharers == bit {
                    // Reader is the owner: silent hit.
                    return CoherenceAction::default();
                }
                // Owner forwards the dirty line; both become sharers.
                let owner = e.owner();
                e.state = DirState::Shared;
                e.sharers |= bit;
                self.stats.forwards += 1;
                CoherenceAction {
                    invalidate: Vec::new(),
                    fetch_from: Some(owner),
                }
            }
        }
    }

    /// A VCore's L1 writes `line` (needs exclusive ownership).
    ///
    /// # Panics
    ///
    /// Panics if `vcore >= MAX_VCORES`.
    pub fn write(&mut self, line: u64, vcore: usize) -> CoherenceAction {
        Self::check_vcore(vcore);
        self.stats.writes += 1;
        let bit = 1u64 << vcore;
        let e = self.lines.entry(line).or_insert(Entry {
            state: DirState::Invalid,
            sharers: 0,
        });
        let mut action = CoherenceAction::default();
        match e.state {
            DirState::Invalid => {}
            DirState::Shared => {
                action.invalidate = e.sharer_ids().filter(|&s| s != vcore).collect();
            }
            DirState::Modified => {
                if e.sharers != bit {
                    let owner = e.owner();
                    action.fetch_from = Some(owner);
                    action.invalidate.push(owner);
                    self.stats.forwards += 1;
                }
            }
        }
        self.stats.invalidations += action.invalidate.len() as u64;
        e.state = DirState::Modified;
        e.sharers = bit;
        action
    }

    /// A VCore's L1 evicts its copy of `line` (silent for clean lines;
    /// dirty write-back data goes to the L2, which the caller models).
    ///
    /// # Panics
    ///
    /// Panics if `vcore >= MAX_VCORES`.
    pub fn evict(&mut self, line: u64, vcore: usize) {
        Self::check_vcore(vcore);
        if let Some(e) = self.lines.get_mut(&line) {
            e.sharers &= !(1u64 << vcore);
            if e.sharers == 0 {
                self.lines.remove(&line);
            } else if e.state == DirState::Modified {
                // Owner evicted; remaining state is clean at the L2.
                e.state = DirState::Shared;
            }
        }
    }

    /// Number of lines tracked.
    #[must_use]
    pub fn tracked_lines(&self) -> usize {
        self.lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_read_is_free_and_shared() {
        let mut d = Directory::new();
        assert!(d.read(5, 0).is_free());
        assert_eq!(d.state(5), DirState::Shared);
        assert_eq!(d.sharers(5), vec![0]);
    }

    #[test]
    fn write_invalidates_other_sharers() {
        let mut d = Directory::new();
        d.read(5, 0);
        d.read(5, 1);
        d.read(5, 2);
        let act = d.write(5, 1);
        assert_eq!(act.invalidate, vec![0, 2]);
        assert_eq!(act.fetch_from, None);
        assert_eq!(d.state(5), DirState::Modified);
        assert_eq!(d.sharers(5), vec![1]);
        assert_eq!(d.stats().invalidations, 2);
    }

    #[test]
    fn read_of_modified_forwards_and_downgrades() {
        let mut d = Directory::new();
        d.write(5, 0);
        let act = d.read(5, 1);
        assert_eq!(act.fetch_from, Some(0));
        assert!(act.invalidate.is_empty());
        assert_eq!(d.state(5), DirState::Shared);
        assert_eq!(d.sharers(5), vec![0, 1]);
    }

    #[test]
    fn owner_rereads_silently() {
        let mut d = Directory::new();
        d.write(5, 3);
        assert!(d.read(5, 3).is_free());
        assert_eq!(d.state(5), DirState::Modified);
    }

    #[test]
    fn write_steals_ownership() {
        let mut d = Directory::new();
        d.write(5, 0);
        let act = d.write(5, 1);
        assert_eq!(act.fetch_from, Some(0));
        assert_eq!(act.invalidate, vec![0]);
        assert_eq!(d.sharers(5), vec![1]);
    }

    #[test]
    fn owner_rewrite_is_free() {
        let mut d = Directory::new();
        d.write(5, 0);
        assert!(d.write(5, 0).is_free());
    }

    #[test]
    fn eviction_drops_sharers_and_cleans() {
        let mut d = Directory::new();
        d.read(5, 0);
        d.read(5, 1);
        d.evict(5, 0);
        assert_eq!(d.sharers(5), vec![1]);
        d.evict(5, 1);
        assert_eq!(d.state(5), DirState::Invalid);
        assert_eq!(d.tracked_lines(), 0);

        d.write(6, 2);
        d.evict(6, 2);
        assert_eq!(d.state(6), DirState::Invalid);
    }

    #[test]
    #[should_panic(expected = "exceeds directory width")]
    fn vcore_width_enforced() {
        let mut d = Directory::new();
        let _ = d.read(0, MAX_VCORES);
    }

    /// The directory as it was before the line map got its own hasher:
    /// a SipHash `HashMap`, sharer lists built by scanning all
    /// `MAX_VCORES` bits, the owner as the list's first entry.
    /// [`Directory`] must match it step for step.
    #[derive(Default)]
    struct ListDirectory {
        lines: HashMap<u64, Entry>,
        stats: DirStats,
    }

    fn sharer_list(e: &Entry) -> Vec<usize> {
        (0..MAX_VCORES)
            .filter(|&i| e.sharers & (1 << i) != 0)
            .collect()
    }

    impl ListDirectory {
        fn state(&self, line: u64) -> DirState {
            self.lines.get(&line).map_or(DirState::Invalid, |e| e.state)
        }

        fn sharers(&self, line: u64) -> Vec<usize> {
            self.lines.get(&line).map_or_else(Vec::new, sharer_list)
        }

        fn read(&mut self, line: u64, vcore: usize) -> CoherenceAction {
            self.stats.reads += 1;
            let bit = 1u64 << vcore;
            let e = self.lines.entry(line).or_insert(Entry {
                state: DirState::Invalid,
                sharers: 0,
            });
            match e.state {
                DirState::Invalid => {
                    e.state = DirState::Shared;
                    e.sharers = bit;
                    CoherenceAction::default()
                }
                DirState::Shared => {
                    e.sharers |= bit;
                    CoherenceAction::default()
                }
                DirState::Modified if e.sharers == bit => CoherenceAction::default(),
                DirState::Modified => {
                    let owner = sharer_list(e)[0];
                    e.state = DirState::Shared;
                    e.sharers |= bit;
                    self.stats.forwards += 1;
                    CoherenceAction {
                        invalidate: Vec::new(),
                        fetch_from: Some(owner),
                    }
                }
            }
        }

        fn write(&mut self, line: u64, vcore: usize) -> CoherenceAction {
            self.stats.writes += 1;
            let bit = 1u64 << vcore;
            let e = self.lines.entry(line).or_insert(Entry {
                state: DirState::Invalid,
                sharers: 0,
            });
            let mut action = CoherenceAction::default();
            match e.state {
                DirState::Invalid => {}
                DirState::Shared => {
                    action.invalidate =
                        sharer_list(e).into_iter().filter(|&s| s != vcore).collect();
                }
                DirState::Modified => {
                    if e.sharers != bit {
                        let owner = sharer_list(e)[0];
                        action.fetch_from = Some(owner);
                        action.invalidate.push(owner);
                        self.stats.forwards += 1;
                    }
                }
            }
            e.state = DirState::Modified;
            e.sharers = bit;
            self.stats.invalidations += action.invalidate.len() as u64;
            action
        }

        fn evict(&mut self, line: u64, vcore: usize) {
            if let Some(e) = self.lines.get_mut(&line) {
                e.sharers &= !(1u64 << vcore);
                if e.sharers == 0 {
                    self.lines.remove(&line);
                } else if e.state == DirState::Modified {
                    e.state = DirState::Shared;
                }
            }
        }
    }

    #[test]
    fn directory_matches_sharer_list_reference() {
        // Seeded read/write/evict streams from 8 VCores over a few hot
        // lines (so lines cycle through every state) and a cold tail.
        for seed in [1u64, 0x5EED, 0xC0FF_EE00] {
            let mut dir = Directory::new();
            let mut reference = ListDirectory::default();
            let mut x = seed;
            for step in 0..20_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let vcore = (x >> 8) as usize % 8;
                let line = if x >> 20 & 3 == 0 {
                    x >> 32 & 0xFFF
                } else {
                    x >> 32 & 0xF
                };
                let (got, want) = match x % 8 {
                    0..=3 => (dir.read(line, vcore), reference.read(line, vcore)),
                    4..=6 => (dir.write(line, vcore), reference.write(line, vcore)),
                    _ => {
                        dir.evict(line, vcore);
                        reference.evict(line, vcore);
                        (CoherenceAction::default(), CoherenceAction::default())
                    }
                };
                assert_eq!(got, want, "seed {seed} step {step}: action");
                assert_eq!(
                    dir.state(line),
                    reference.state(line),
                    "seed {seed} step {step}"
                );
                assert_eq!(
                    dir.sharers(line),
                    reference.sharers(line),
                    "seed {seed} step {step}"
                );
                assert_eq!(dir.stats(), reference.stats, "seed {seed} step {step}");
                assert_eq!(dir.tracked_lines(), reference.lines.len());
            }
            assert!(reference.stats.forwards > 100 && reference.stats.invalidations > 100);
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut d = Directory::new();
        d.read(1, 0);
        d.write(1, 1);
        d.read(1, 0);
        let s = d.stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert!(s.invalidations >= 1);
        assert!(s.forwards >= 1);
    }
}
