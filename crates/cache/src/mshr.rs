//! Miss-status holding registers (non-blocking caches, §3.5).
//!
//! The paper's Slices keep caches non-blocking with a small number of
//! in-flight loads (Table 2: maximum 8 in-flight loads per Slice). An
//! [`MshrFile`] tracks outstanding line fills: a new miss to an
//! already-pending line *merges* (no extra memory request, same completion
//! time); a new miss to a fresh line allocates an entry if one is free,
//! otherwise the pipeline must stall and retry.

/// Outcome of asking the MSHR file to track a miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated; the fill completes at the given cycle.
    Allocated(u64),
    /// The line was already in flight; the access merges and completes at
    /// the existing fill's cycle.
    Merged(u64),
    /// No entry free: the requester must stall.
    Full,
}

/// A bounded file of outstanding line fills.
///
/// # Example
///
/// ```
/// use sharing_cache::MshrFile;
/// use sharing_cache::mshr::MshrOutcome;
///
/// let mut m = MshrFile::new(2);
/// assert_eq!(m.request(0x10, 100, 150), MshrOutcome::Allocated(150));
/// assert_eq!(m.request(0x10, 110, 170), MshrOutcome::Merged(150));
/// assert_eq!(m.request(0x20, 111, 160), MshrOutcome::Allocated(160));
/// assert_eq!(m.request(0x30, 112, 160), MshrOutcome::Full);
/// m.expire(155);
/// assert_eq!(m.in_flight(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct MshrFile {
    capacity: usize,
    // (line, fill completion cycle); at most `capacity` entries, so the
    // flat vector beats a hash map on every lookup path and never
    // reallocates after the first fill.
    pending: Vec<(u64, u64)>,
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be positive");
        MshrFile {
            capacity,
            pending: Vec::with_capacity(capacity),
        }
    }

    /// Requests tracking of a miss to `line` at cycle `now`, whose fill
    /// would complete at `fill_done`. Expired entries are reclaimed first.
    #[inline]
    pub fn request(&mut self, line: u64, now: u64, fill_done: u64) -> MshrOutcome {
        self.expire(now);
        if let Some(&(_, done)) = self.pending.iter().find(|&&(l, _)| l == line) {
            return MshrOutcome::Merged(done);
        }
        if self.pending.len() >= self.capacity {
            return MshrOutcome::Full;
        }
        self.pending.push((line, fill_done));
        MshrOutcome::Allocated(fill_done)
    }

    /// Releases entries whose fills have completed by `now`.
    #[inline]
    pub fn expire(&mut self, now: u64) {
        self.pending.retain(|&(_, done)| done > now);
    }

    /// Entries currently in flight (as of the last `expire`/`request`).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Capacity of the file.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The earliest cycle at which any entry frees, if the file is full —
    /// when a requester gets [`MshrOutcome::Full`] it can retry then.
    #[must_use]
    pub fn earliest_free(&self) -> Option<u64> {
        self.pending.iter().map(|&(_, done)| done).min()
    }

    /// Clears all entries (pipeline flush/reconfiguration).
    pub fn clear(&mut self) {
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_returns_original_completion() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.request(1, 0, 50), MshrOutcome::Allocated(50));
        // A later miss to the same line merges with the earlier fill even
        // if its own fill would be later.
        assert_eq!(m.request(1, 10, 90), MshrOutcome::Merged(50));
    }

    #[test]
    fn full_file_rejects_new_lines() {
        let mut m = MshrFile::new(1);
        assert_eq!(m.request(1, 0, 50), MshrOutcome::Allocated(50));
        assert_eq!(m.request(2, 1, 60), MshrOutcome::Full);
        assert_eq!(m.earliest_free(), Some(50));
        // Once the fill completes, capacity frees.
        assert_eq!(m.request(2, 50, 99), MshrOutcome::Allocated(99));
    }

    #[test]
    fn expire_is_inclusive_of_done_cycle() {
        let mut m = MshrFile::new(2);
        m.request(1, 0, 10);
        m.expire(9);
        assert_eq!(m.in_flight(), 1);
        m.expire(10);
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn clear_empties() {
        let mut m = MshrFile::new(2);
        m.request(1, 0, 10);
        m.request(2, 0, 10);
        m.clear();
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = MshrFile::new(0);
    }
}
