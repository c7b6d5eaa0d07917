//! Event-driven scheduling primitives for the timing engine.
//!
//! SSim is trace-driven: the engine never literally ticks a global
//! clock, but its bounded structural resources used to be *polled* —
//! every instruction linearly scanned each pool of busy-until times
//! ([`crate::engine`]'s `Slots`) and the queued operand network walked
//! link calendars one cycle at a time. This module replaces that with
//! discrete-event bookkeeping: each resource keeps its wake-ups (the
//! `next_tick` at which a slot frees) in a min-heap, so dead cycles are
//! skipped and a claim costs `O(log n)` instead of `O(n)` — the
//! Component/`next_tick` model described in DESIGN.md §13.
//!
//! The hard bar is byte-identity: [`WakeHeap`] must be *observably
//! identical* to the scan it replaced. That holds because a pool's
//! slots are interchangeable — only the multiset of free-times is
//! observable. `available_at` returns the multiset minimum either way,
//! and `occupy` replaces one minimum instance with
//! `max(minimum, until)`; which physical slot holds the value cannot be
//! seen. The unit tests below pin this against the scanned pool and a
//! multiset model; `tests/golden.rs` pins whole-run results.

/// A bounded structural resource as a min-heap of slot wake-up times.
///
/// A pool of `n` interchangeable slots, each free again at its
/// recorded time.
/// `available_at` peeks the earliest wake-up; `occupy` reschedules that
/// earliest slot to `max(its time, until)` with a bottom-up replace-min:
/// the hole left at the root walks down to a leaf along the smaller
/// child, one compare per level and none against the new value, then
/// the new value sifts up from there. Claims release late, so the
/// sift-up almost always stops at once. The heap holds an odd number of
/// entries so every inner node has two children: an even `n` gets one
/// extra `u64::MAX` entry, which reaches the root only when every real
/// slot also frees at `u64::MAX` and so can never be told apart.
#[derive(Clone, Debug)]
pub struct WakeHeap {
    /// Binary min-heap of per-slot free times (plus the pad, if any).
    heap: Vec<u64>,
    /// Number of real slots.
    slots: usize,
}

impl WakeHeap {
    /// A pool of `n` slots, all free at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a resource pool needs at least one slot");
        let mut heap = WakeHeap {
            heap: vec![0; n | 1],
            slots: n,
        };
        heap.clear();
        heap
    }

    /// Earliest cycle at/after `t` a slot is available (the heap root).
    #[must_use]
    pub fn available_at(&self, t: u64) -> u64 {
        t.max(self.heap[0])
    }

    /// Occupies the earliest-free slot until `until`: replaces the root
    /// with `max(root, until)` and restores the heap. Mirrors a scanned
    /// pool's argmin-replace exactly (same multiset evolution).
    pub fn occupy(&mut self, until: u64) {
        let heap = &mut self.heap;
        let v = heap[0].max(until);
        let n = heap.len();
        let mut i = 0;
        let mut l = 1;
        while l < n {
            let c = l + usize::from(heap[l + 1] < heap[l]);
            heap[i] = heap[c];
            i = c;
            l = 2 * i + 1;
        }
        while i > 0 {
            let p = (i - 1) / 2;
            if heap[p] <= v {
                break;
            }
            heap[i] = heap[p];
            i = p;
        }
        heap[i] = v;
    }

    /// Frees every slot (pipeline drain).
    pub fn clear(&mut self) {
        self.heap.fill(0);
        if self.slots < self.heap.len() {
            self.heap[self.slots] = u64::MAX;
        }
    }

    /// The pool's free times in ascending order, without the pad.
    #[cfg(test)]
    fn sorted_times(&self) -> Vec<u64> {
        let mut times = self.heap.clone();
        times.sort_unstable();
        times.truncate(self.slots);
        times
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::Slots;

    #[test]
    fn wake_heap_tracks_min_and_capacity() {
        let mut h = WakeHeap::new(2);
        assert_eq!(h.available_at(5), 5);
        h.occupy(50);
        h.occupy(60);
        // Both busy: next availability is the earliest release.
        assert_eq!(h.available_at(5), 50);
        h.occupy(70); // reschedules the slot that freed at 50
        assert_eq!(h.available_at(0), 60);
    }

    /// A top-down replace-root heap: overwrite the root, then sift it
    /// down with two compares per level.
    struct SiftDownHeap {
        heap: Vec<u64>,
    }

    impl SiftDownHeap {
        fn occupy(&mut self, until: u64) {
            let heap = &mut self.heap;
            heap[0] = heap[0].max(until);
            let n = heap.len();
            let mut i = 0;
            loop {
                let l = 2 * i + 1;
                if l >= n {
                    break;
                }
                let r = l + 1;
                let c = if r < n && heap[r] < heap[l] { r } else { l };
                if heap[c] >= heap[i] {
                    break;
                }
                heap.swap(i, c);
                i = c;
            }
        }
    }

    /// The heap must evolve the identical observable multiset as the
    /// linear-scanned pool it replaced and as the top-down heap, under
    /// adversarial interleavings including `until` below the minimum.
    #[test]
    fn wake_heap_matches_scanned_slots_reference() {
        let mut seed = 0x1234_5678_9ABC_DEF0u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        // The engine's pools hold 8 (store buffer) and 32 (windows,
        // LSQ) slots; odd sizes carry no pad.
        for n in [1usize, 2, 7, 8, 32] {
            let mut heap = WakeHeap::new(n);
            let mut scan = Slots::new(n);
            let mut top_down = SiftDownHeap { heap: vec![0; n] };
            let mut now = 0u64;
            for step in 0..10_000u64 {
                let r = rng();
                now += r % 7;
                let at = heap.available_at(now);
                assert_eq!(at, scan.available_at(now), "n={n} step={step}");
                assert_eq!(at, now.max(top_down.heap[0]), "n={n} step={step}");
                // Mostly forward releases, occasionally below the min.
                let until = if r % 13 == 0 { now / 2 } else { now + r % 40 };
                heap.occupy(until);
                scan.occupy(until);
                top_down.occupy(until);
            }
            let mut b = scan.free_at.clone();
            b.sort_unstable();
            assert_eq!(heap.sorted_times(), b, "multisets diverged for n={n}");
            top_down.heap.sort_unstable();
            assert_eq!(top_down.heap, b, "multisets diverged for n={n}");
        }
    }

    /// A counting-multiset reference model over `BTreeMap<u64, usize>`:
    /// the heap is *only* a multiset of free-times, so `available_at`
    /// must peek the least key and `occupy` must remove one instance of
    /// the minimum and insert `max(min, until)` — including when several
    /// slots share a wake time and when `until` is below the minimum.
    struct MultisetRef {
        times: std::collections::BTreeMap<u64, usize>,
    }

    impl MultisetRef {
        fn new(n: usize) -> Self {
            let mut times = std::collections::BTreeMap::new();
            times.insert(0u64, n);
            MultisetRef { times }
        }

        fn min(&self) -> u64 {
            *self.times.keys().next().expect("pool is never empty")
        }

        fn available_at(&self, t: u64) -> u64 {
            t.max(self.min())
        }

        fn occupy(&mut self, until: u64) {
            let min = self.min();
            match self.times.get_mut(&min) {
                Some(c) if *c > 1 => *c -= 1,
                _ => {
                    self.times.remove(&min);
                }
            }
            *self.times.entry(min.max(until)).or_insert(0) += 1;
        }

        fn sorted(&self) -> Vec<u64> {
            self.times
                .iter()
                .flat_map(|(&t, &c)| std::iter::repeat_n(t, c))
                .collect()
        }
    }

    #[test]
    fn wake_heap_handles_duplicate_wake_times() {
        // Drive every slot to the same release time, then reschedule:
        // each occupy must consume exactly one duplicate instance.
        let mut heap = WakeHeap::new(4);
        let mut model = MultisetRef::new(4);
        for _ in 0..4 {
            heap.occupy(10);
            model.occupy(10);
        }
        assert_eq!(heap.available_at(0), 10);
        for k in 0..4u64 {
            assert_eq!(heap.available_at(0), model.available_at(0), "dup {k}");
            heap.occupy(20 + k);
            model.occupy(20 + k);
        }
        assert_eq!(heap.sorted_times(), model.sorted());
    }

    #[test]
    fn wake_heap_occupy_below_min_keeps_the_min() {
        // The "pop at empty-equivalent" edge: occupying with `until`
        // below the current minimum must re-insert the minimum itself
        // (a slot can never free earlier than it already does), so the
        // multiset is unchanged.
        let mut heap = WakeHeap::new(3);
        for _ in 0..3 {
            heap.occupy(40);
        }
        let before = heap.sorted_times();
        heap.occupy(7); // far below every release time
        assert_eq!(
            heap.sorted_times(),
            before,
            "an earlier `until` must be a no-op"
        );
        assert_eq!(heap.available_at(0), 40);
    }

    #[test]
    fn single_slot_heap_serializes_all_claims() {
        let mut heap = WakeHeap::new(1);
        let mut model = MultisetRef::new(1);
        for (t, until) in [(0u64, 5u64), (5, 9), (9, 9), (9, 2), (20, 31)] {
            assert_eq!(heap.available_at(t), model.available_at(t));
            heap.occupy(until);
            model.occupy(until);
        }
        assert_eq!(heap.sorted_times(), model.sorted());
    }

    #[test]
    fn wake_heap_matches_btreemap_multiset_reference() {
        // Interleaved push/pop under a seeded stream heavy in ties (small
        // `until` range ⇒ many duplicate keys) across pool sizes.
        let mut seed = 0xD1CE_2014_u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for n in [1usize, 2, 3, 8, 17, 32] {
            let mut heap = WakeHeap::new(n);
            let mut model = MultisetRef::new(n);
            let mut now = 0u64;
            for step in 0..20_000u64 {
                let r = rng();
                now += r % 3;
                assert_eq!(
                    heap.available_at(now),
                    model.available_at(now),
                    "n={n} step={step}"
                );
                // Coarse quantization forces duplicate wake times; the
                // `% 11 == 0` arm drives `until` beneath the minimum.
                let until = if r % 11 == 0 {
                    now / 2
                } else {
                    (now + r % 16) / 4 * 4
                };
                heap.occupy(until);
                model.occupy(until);
                if step % 1_024 == 0 {
                    assert_eq!(
                        heap.sorted_times(),
                        model.sorted(),
                        "n={n} step={step} multiset"
                    );
                }
            }
            assert_eq!(
                heap.sorted_times(),
                model.sorted(),
                "final multiset for n={n}"
            );
        }
    }

    #[test]
    fn clear_frees_everything() {
        let mut h = WakeHeap::new(4);
        for _ in 0..4 {
            h.occupy(99);
        }
        assert_eq!(h.available_at(1), 99);
        h.clear();
        assert_eq!(h.available_at(1), 1);
    }

    #[test]
    fn cleared_pool_is_reused_like_a_fresh_one() {
        // After a drain the pool must behave exactly like a new one, pad
        // included, whatever state the claims left it in.
        for n in [1usize, 4, 7, 8] {
            let mut heap = WakeHeap::new(n);
            for k in 0..3 * n as u64 {
                heap.occupy(100 + k * 7 % 11);
            }
            heap.clear();
            assert_eq!(heap.sorted_times(), vec![0; n], "n={n}");
            let mut model = MultisetRef::new(n);
            for (t, until) in [(0u64, 30u64), (1, 10), (2, 40), (3, 5), (50, 60)] {
                assert_eq!(heap.available_at(t), model.available_at(t), "n={n}");
                heap.occupy(until);
                model.occupy(until);
            }
            assert_eq!(heap.sorted_times(), model.sorted(), "n={n}");
        }
    }
}
