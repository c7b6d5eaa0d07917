//! Datacenter-level scheduling across many chips (paper §4).
//!
//! "Finally, the Cloud management software (scheduler) will have to change
//! in order to schedule new resources. Changing the Cloud scheduler is a
//! challenging problem, but the Sharing Architecture opens up many
//! opportunities for interesting research in this space." This module is
//! the first rung: a [`Cloud`] of chips, each managed by a
//! [`Hypervisor`], with pluggable placement policies routing VCore
//! requests to chips. Sub-core requests make placement a two-dimensional
//! bin-packing problem (Slices need contiguity, banks do not), which is
//! exactly where policy choice starts to matter.

use crate::chip::Chip;
use crate::hypervisor::{HvError, Hypervisor, LeaseId};
use sharing_core::VCoreShape;
use std::fmt;

/// Which chip gets the next request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// The first chip that can satisfy the request.
    FirstFit,
    /// The feasible chip with the *least* free Slice capacity — packs
    /// tightly, preserving big contiguous runs elsewhere.
    BestFit,
    /// The feasible chip with the *most* free Slice capacity — spreads
    /// load, minimizing interference.
    WorstFit,
}

/// A lease handle spanning the cloud.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CloudLease {
    /// Which chip hosts the VCore.
    pub chip: usize,
    /// The chip-local lease.
    pub lease: LeaseId,
}

impl fmt::Display for CloudLease {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chip{}/{}", self.chip, self.lease)
    }
}

/// Aggregate utilization across the fleet.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CloudStats {
    /// Per-chip Slice utilization.
    pub slice_utilization: Vec<f64>,
    /// Per-chip fragmentation.
    pub fragmentation: Vec<f64>,
    /// Live VCores fleet-wide.
    pub live_vcores: usize,
    /// Requests denied fleet-wide (no chip could host).
    pub denials: u64,
}

/// A fleet of Sharing Architecture chips under one scheduler.
///
/// # Example
///
/// ```
/// use sharing_hv::cloud::{Cloud, PlacementPolicy};
/// use sharing_core::VCoreShape;
///
/// let mut cloud = Cloud::new(4, 4, 8, PlacementPolicy::BestFit);
/// let lease = cloud.lease(VCoreShape::new(3, 4)?)?;
/// assert!(lease.chip < 4);
/// cloud.release(lease)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Cloud {
    chips: Vec<Hypervisor>,
    policy: PlacementPolicy,
    denials: u64,
    /// Scratch for [`Cloud::candidate_order`], kept between leases.
    order: Vec<usize>,
}

impl Cloud {
    /// Builds a fleet of `n_chips` identical chips.
    ///
    /// # Panics
    ///
    /// Panics if `n_chips == 0`.
    #[must_use]
    pub fn new(n_chips: usize, rows: u16, cols: u16, policy: PlacementPolicy) -> Self {
        assert!(n_chips > 0, "a cloud needs at least one chip");
        Cloud {
            chips: (0..n_chips)
                .map(|_| Hypervisor::new(Chip::new(rows, cols)))
                .collect(),
            policy,
            denials: 0,
            order: Vec::new(),
        }
    }

    /// Number of chips.
    #[must_use]
    pub fn chip_count(&self) -> usize {
        self.chips.len()
    }

    /// Access to one chip's hypervisor (read-only).
    ///
    /// # Panics
    ///
    /// Panics if `chip` is out of range.
    #[must_use]
    pub fn hypervisor(&self, chip: usize) -> &Hypervisor {
        &self.chips[chip]
    }

    /// Fills `order` with the chips with enough free Slices and banks
    /// for `shape`, in the order the policy tries them; ties keep chip
    /// order.
    fn candidate_order(&self, shape: VCoreShape, order: &mut Vec<usize>) {
        order.clear();
        order.extend((0..self.chips.len()).filter(|&i| {
            let hv = &self.chips[i];
            hv.free_slices() >= shape.slices && hv.free_banks() >= shape.l2_banks
        }));
        // The chip index breaks ties, so an unstable sort, which
        // allocates no buffer, gives the stable order.
        match self.policy {
            PlacementPolicy::FirstFit => {}
            PlacementPolicy::BestFit => {
                order.sort_unstable_by_key(|&i| (self.chips[i].free_slices(), i));
            }
            PlacementPolicy::WorstFit => {
                order
                    .sort_unstable_by_key(|&i| (std::cmp::Reverse(self.chips[i].free_slices()), i));
            }
        }
    }

    /// Routes a VCore request to a chip under the placement policy
    /// (falling through to later candidates when contiguity defeats a
    /// capacity-feasible chip, compacting as a last resort).
    ///
    /// # Errors
    ///
    /// Returns the final chip's error when no chip can host the request.
    pub fn lease(&mut self, shape: VCoreShape) -> Result<CloudLease, HvError> {
        let mut order = std::mem::take(&mut self.order);
        self.candidate_order(shape, &mut order);
        let placed = self.lease_in_order(shape, &order);
        self.order = order;
        placed
    }

    /// Tries the chips of `order` in turn, then compacts each and tries
    /// it again.
    fn lease_in_order(
        &mut self,
        shape: VCoreShape,
        order: &[usize],
    ) -> Result<CloudLease, HvError> {
        let mut last_err = HvError::NoContiguousSlices(shape.slices);
        for &i in order {
            match self.chips[i].lease(shape) {
                Ok(lease) => return Ok(CloudLease { chip: i, lease }),
                Err(e) => last_err = e,
            }
        }
        // Second pass: defragment candidates and retry.
        for &i in order {
            if self.chips[i].compact() > 0 {
                if let Ok(lease) = self.chips[i].lease(shape) {
                    return Ok(CloudLease { chip: i, lease });
                }
            }
        }
        self.denials += 1;
        Err(last_err)
    }

    /// Releases a cloud lease.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::UnknownLease`] if the handle is stale.
    ///
    /// # Panics
    ///
    /// Panics if the chip index is out of range.
    pub fn release(&mut self, lease: CloudLease) -> Result<(), HvError> {
        let hv = &mut self.chips[lease.chip];
        let released = hv.release(lease.lease)?;
        hv.recycle(released);
        Ok(())
    }

    /// Fleet-wide statistics.
    #[must_use]
    pub fn stats(&self) -> CloudStats {
        let mut out = CloudStats {
            denials: self.denials,
            ..CloudStats::default()
        };
        for hv in &self.chips {
            let s = hv.stats();
            out.slice_utilization.push(s.slice_utilization);
            out.fragmentation.push(s.fragmentation);
            out.live_vcores += s.live_vcores;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::TileKind;

    fn shape(s: usize, b: usize) -> VCoreShape {
        VCoreShape::new(s, b).unwrap()
    }

    #[test]
    fn first_fit_fills_the_first_chip() {
        let mut cloud = Cloud::new(3, 2, 8, PlacementPolicy::FirstFit);
        for _ in 0..4 {
            let l = cloud.lease(shape(2, 0)).unwrap();
            assert_eq!(l.chip, 0, "first-fit keeps using chip 0 while it fits");
        }
        let l = cloud.lease(shape(2, 0)).unwrap();
        assert_eq!(l.chip, 1, "chip 0 exhausted (8 slices)");
    }

    #[test]
    fn worst_fit_spreads_load() {
        let mut cloud = Cloud::new(3, 2, 8, PlacementPolicy::WorstFit);
        let chips: Vec<usize> = (0..3)
            .map(|_| cloud.lease(shape(2, 0)).unwrap().chip)
            .collect();
        let mut sorted = chips.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "worst-fit touches every chip: {chips:?}");
    }

    #[test]
    fn best_fit_preserves_room_for_big_requests() {
        // Two single-row chips of 8 slices each. Fill 6 slices of chip 0;
        // best-fit tops that chip up with small requests, keeping chip 1's
        // full 8-slice contiguous run whole for a monster VCore.
        let mut cloud = Cloud::new(2, 1, 16, PlacementPolicy::BestFit);
        let _big0 = cloud.lease(shape(6, 0)).unwrap();
        let small = cloud.lease(shape(2, 0)).unwrap();
        assert_eq!(small.chip, 0, "best-fit tops up the fuller chip");
        let big = cloud.lease(shape(8, 0)).unwrap();
        assert_eq!(big.chip, 1);
    }

    #[test]
    fn denial_when_fleet_is_exhausted() {
        let mut cloud = Cloud::new(1, 1, 4, PlacementPolicy::FirstFit); // 2 slices
        let _a = cloud.lease(shape(2, 0)).unwrap();
        assert!(cloud.lease(shape(1, 0)).is_err());
        assert_eq!(cloud.stats().denials, 1);
    }

    #[test]
    fn release_returns_capacity_fleet_wide() {
        let mut cloud = Cloud::new(2, 1, 4, PlacementPolicy::FirstFit);
        let a = cloud.lease(shape(2, 0)).unwrap();
        let _b = cloud.lease(shape(2, 0)).unwrap();
        assert!(cloud.lease(shape(2, 0)).is_err());
        cloud.release(a).unwrap();
        assert!(cloud.lease(shape(2, 0)).is_ok());
        assert!(cloud.release(a).is_err(), "stale handle rejected");
    }

    #[test]
    fn stats_cover_every_chip() {
        let mut cloud = Cloud::new(3, 2, 8, PlacementPolicy::WorstFit);
        let _ = cloud.lease(shape(2, 2)).unwrap();
        let s = cloud.stats();
        assert_eq!(s.slice_utilization.len(), 3);
        assert_eq!(s.live_vcores, 1);
    }

    /// The tile grid's own count of free tiles of one kind.
    fn recount(hv: &Hypervisor, kind: TileKind) -> usize {
        let chip = hv.chip();
        chip.iter_tiles()
            .filter(|t| t.kind == kind && !chip.is_occupied(t.row, t.col))
            .count()
    }

    /// `candidate_order` from first principles: grid-scanned totals minus
    /// the leases' summed tiles, negated (not reversed) for worst-fit.
    fn reference_order(cloud: &Cloud, shape: VCoreShape) -> Vec<usize> {
        let used = |hv: &Hypervisor| -> (usize, usize) {
            hv.leases()
                .fold((0, 0), |(s, b), l| (s + l.slices.len(), b + l.banks.len()))
        };
        let count =
            |hv: &Hypervisor, kind| hv.chip().iter_tiles().filter(|t| t.kind == kind).count();
        let free_slices = |hv: &Hypervisor| count(hv, TileKind::Slice) as i64 - used(hv).0 as i64;
        let mut order: Vec<usize> = (0..cloud.chips.len())
            .filter(|&i| {
                let hv = &cloud.chips[i];
                let (s, b) = used(hv);
                count(hv, TileKind::Slice) - s >= shape.slices
                    && count(hv, TileKind::CacheBank) - b >= shape.l2_banks
            })
            .collect();
        match cloud.policy {
            PlacementPolicy::FirstFit => {}
            PlacementPolicy::BestFit => order.sort_by_key(|&i| free_slices(&cloud.chips[i])),
            PlacementPolicy::WorstFit => order.sort_by_key(|&i| -free_slices(&cloud.chips[i])),
        }
        order
    }

    #[test]
    fn occupancy_counters_match_a_recount_under_random_operations() {
        let policies = [
            PlacementPolicy::FirstFit,
            PlacementPolicy::BestFit,
            PlacementPolicy::WorstFit,
        ];
        // Leases placed/denied, reconfigures done/failed, compactions
        // that moved something: every path must be taken.
        let mut tally = [0usize; 5];
        for seed in 1..=12u64 {
            // xorshift64*: a fixed stream per seed.
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = |bound: usize| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % bound
            };
            let policy = policies[seed as usize % 3];
            let mut cloud = Cloud::new(1 + next(4), 1 + next(3) as u16, 4 + next(9) as u16, policy);
            let mut live: Vec<CloudLease> = Vec::new();
            for step in 0..300 {
                let random_shape =
                    |next: &mut dyn FnMut(usize) -> usize| shape(1 + next(6), next(7));
                match next(10) {
                    0..=3 => match cloud.lease(random_shape(&mut next)) {
                        Ok(l) => {
                            live.push(l);
                            tally[0] += 1;
                        }
                        Err(_) => tally[1] += 1,
                    },
                    4..=6 if !live.is_empty() => {
                        let l = live.swap_remove(next(live.len()));
                        cloud.release(l).unwrap();
                    }
                    7 | 8 if !live.is_empty() => {
                        let k = next(live.len());
                        let l = live[k];
                        let new_shape = random_shape(&mut next);
                        match cloud.chips[l.chip].reconfigure(l.lease, new_shape) {
                            Ok(id) => {
                                live[k].lease = id;
                                tally[2] += 1;
                            }
                            Err(_) => tally[3] += 1,
                        }
                    }
                    _ => {
                        let chip = next(cloud.chips.len());
                        if cloud.chips[chip].compact() > 0 {
                            tally[4] += 1;
                        }
                    }
                }
                for (i, hv) in cloud.chips.iter().enumerate() {
                    let at = format!("seed {seed} step {step} chip {i}");
                    assert_eq!(hv.free_slices(), recount(hv, TileKind::Slice), "{at}");
                    assert_eq!(hv.free_banks(), recount(hv, TileKind::CacheBank), "{at}");
                }
                assert_eq!(cloud.stats().live_vcores, live.len());
                for s in 1..=8 {
                    for b in [0, 1, 3, 8] {
                        let sh = shape(s, b);
                        let mut order = vec![usize::MAX];
                        cloud.candidate_order(sh, &mut order);
                        assert_eq!(
                            order,
                            reference_order(&cloud, sh),
                            "seed {seed} step {step} shape {sh}"
                        );
                    }
                }
            }
        }
        assert!(tally.iter().all(|&n| n > 0), "untaken path: {tally:?}");
    }

    #[test]
    #[should_panic(expected = "at least one chip")]
    fn empty_cloud_rejected() {
        let _ = Cloud::new(0, 2, 2, PlacementPolicy::FirstFit);
    }
}
