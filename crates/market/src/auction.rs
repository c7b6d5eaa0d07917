//! Sub-core resource auctions (paper §2.1/§2.3).
//!
//! The paper's "new model" replaces fixed instance types with a market
//! where "the cloud provider auctions off all resources down to the ALU,
//! KB of cache, fetch unit, retire unit" — the sub-core analogue of EC2
//! Spot Pricing. This module implements that auction as a tâtonnement:
//! the provider posts per-Slice and per-bank prices, every customer
//! responds with their budget-constrained optimal demand (the §5.6
//! problem), and prices rise on over-subscribed resources and fall on
//! idle ones until demand meets the chip's supply.
//!
//! Because the Sharing Architecture lets customers substitute between
//! Slices and cache continuously, the market *clears*: scarce Slices push
//! cache-tolerant customers toward bank-heavy configurations and vice
//! versa — exactly the demand-shift behaviour Table 6 shows across
//! Markets 1–3.
//!
//! Each bidder's best response is the §5.6 problem that
//! [`crate::optimize::best_utility`] solves, but a clearing asks it once
//! per bidder per iteration at new prices over an unchanged surface. So
//! [`Auction::clear`] first flattens every surface into a table of
//! `(shape, P^k)` and each iteration only divides the budget by the
//! shape's cost; the arithmetic and the tie rule are the ones
//! `best_utility` uses, so the choice is the same to the bit.

use crate::market::Market;
use crate::surface::PerfSurface;
use crate::utility::UtilityFn;
use sharing_core::VCoreShape;
use std::sync::Arc;

/// A customer participating in the auction.
#[derive(Clone, Debug)]
pub struct Bidder {
    /// Display name.
    pub name: String,
    /// The customer's measured performance surface, shared rather than
    /// owned: a datacenter bids the same catalog surface for every tenant
    /// running that workload, every epoch, and adding a bidder must not
    /// copy it.
    pub surface: Arc<PerfSurface>,
    /// Their utility function.
    pub utility: UtilityFn,
    /// Their budget per market period.
    pub budget: f64,
}

/// One bidder's cleared allocation.
#[derive(Clone, Debug)]
pub struct Allocation {
    /// The bidder's name.
    pub bidder: String,
    /// The VCore shape they chose at clearing prices.
    pub shape: VCoreShape,
    /// How many such VCores their budget bought.
    pub vcores: f64,
    /// The utility they realized.
    pub utility: f64,
}

/// The auction outcome.
#[derive(Clone, Debug)]
pub struct Clearing {
    /// Clearing price per Slice.
    pub slice_price: f64,
    /// Clearing price per 64 KB bank.
    pub bank_price: f64,
    /// Tâtonnement iterations used.
    pub iterations: usize,
    /// Aggregate Slice demand at the clearing prices.
    pub slice_demand: f64,
    /// Aggregate bank demand at the clearing prices.
    pub bank_demand: f64,
    /// Per-bidder allocations.
    pub allocations: Vec<Allocation>,
}

impl Clearing {
    /// Total utility across bidders (the welfare the provider's market
    /// delivered).
    #[must_use]
    pub fn total_utility(&self) -> f64 {
        self.allocations.iter().map(|a| a.utility).sum()
    }
}

/// The provider's auction over one chip's resources.
#[derive(Clone, Debug)]
pub struct Auction {
    supply_slices: f64,
    supply_banks: f64,
    bidders: Vec<Bidder>,
}

impl Auction {
    /// Creates an auction for a chip with the given free resources.
    ///
    /// # Panics
    ///
    /// Panics unless both supplies are positive.
    #[must_use]
    pub fn new(supply_slices: f64, supply_banks: f64) -> Self {
        assert!(
            supply_slices > 0.0 && supply_banks > 0.0,
            "supplies must be positive"
        );
        Auction {
            supply_slices,
            supply_banks,
            bidders: Vec::new(),
        }
    }

    /// Adds a bidder.
    pub fn add_bidder(&mut self, bidder: Bidder) -> &mut Self {
        self.bidders.push(bidder);
        self
    }

    /// Number of registered bidders.
    #[must_use]
    pub fn bidder_count(&self) -> usize {
        self.bidders.len()
    }

    /// Every bidder's surface as `(shape, P^k)` rows in surface order —
    /// the price-independent half of the utility, built once per
    /// clearing.
    ///
    /// # Panics
    ///
    /// Panics if a budget is not positive and finite, as
    /// [`crate::optimize::best_utility`] does.
    fn tables(&self) -> Vec<Vec<(VCoreShape, f64)>> {
        self.bidders
            .iter()
            .map(|b| {
                assert!(
                    b.budget > 0.0 && b.budget.is_finite(),
                    "budget must be positive and finite"
                );
                b.surface
                    .iter()
                    .map(|(shape, perf)| (shape, b.utility.perf_power(perf)))
                    .collect()
            })
            .collect()
    }

    /// Aggregate demand and allocations at posted prices, each bidder
    /// choosing the shape of highest `v · P^k` from its table (the last
    /// of equals, as `Iterator::max_by` returns).
    fn demand_at(
        &self,
        tables: &[Vec<(VCoreShape, f64)>],
        slice_price: f64,
        bank_price: f64,
    ) -> (f64, f64, Vec<Allocation>) {
        let market = Market {
            name: "auction",
            slice_price,
            bank_price,
        };
        let mut slices = 0.0;
        let mut banks = 0.0;
        let mut allocations = Vec::with_capacity(self.bidders.len());
        for (b, table) in self.bidders.iter().zip(tables) {
            let (shape, utility) = table
                .iter()
                .map(|&(shape, pk)| {
                    let v = market.affordable_cores(shape, b.budget);
                    (shape, v.max(0.0) * pk)
                })
                .max_by(|x, y| x.1.total_cmp(&y.1))
                .expect("surfaces are non-empty");
            let v = market.affordable_cores(shape, b.budget);
            slices += v * shape.slices as f64;
            banks += v * shape.l2_banks as f64;
            allocations.push(Allocation {
                bidder: b.name.clone(),
                shape,
                vcores: v,
                utility,
            });
        }
        (slices, banks, allocations)
    }

    /// Runs the tâtonnement: prices move with excess demand until both
    /// resources are within `tolerance` of supply (relative) or
    /// `max_iterations` pass. Demand is discrete in configurations, so
    /// exact clearing is not always possible; the returned prices are the
    /// closest fixed point found.
    ///
    /// # Panics
    ///
    /// Panics if there are no bidders, `tolerance` is not positive, or
    /// `max_iterations` is zero.
    #[must_use]
    pub fn clear(&self, max_iterations: usize, tolerance: f64) -> Clearing {
        assert!(!self.bidders.is_empty(), "auction needs bidders");
        assert!(tolerance > 0.0 && max_iterations > 0);
        // Start from equal-area prices (Market 2).
        let mut ps = Market::MARKET2.slice_price;
        let mut pb = Market::MARKET2.bank_price;
        let mut best: Option<(f64, Clearing)> = None;
        let tables = self.tables();
        for iteration in 1..=max_iterations {
            let (sd, bd, allocations) = self.demand_at(&tables, ps, pb);
            let clearing = Clearing {
                slice_price: ps,
                bank_price: pb,
                iterations: iteration,
                slice_demand: sd,
                bank_demand: bd,
                allocations,
            };
            // Distance from clearing, in relative excess-demand terms.
            let s_ratio = sd / self.supply_slices;
            let b_ratio = bd / self.supply_banks;
            let err = (s_ratio - 1.0).abs().max((b_ratio - 1.0).abs());
            if best.as_ref().is_none_or(|(e, _)| err < *e) {
                best = Some((err, clearing));
            }
            if err <= tolerance {
                break;
            }
            // Multiplicative price adjustment, damped for stability over
            // the discrete demand landscape.
            ps = (ps * s_ratio.powf(0.5)).clamp(1e-3, 1e6);
            pb = (pb * b_ratio.powf(0.5)).clamp(1e-3, 1e6);
        }
        best.expect("at least one iteration ran").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize::best_utility;
    use crate::utility::ALL_UTILITIES;

    fn surface(slice_love: f64, cache_love: f64) -> PerfSurface {
        PerfSurface::from_fn("syn", move |s| {
            (1.0 + slice_love * (s.slices as f64).ln())
                * (1.0 + cache_love * (1.0 + s.l2_banks as f64).ln() / 4.0)
        })
    }

    fn bidder(name: &str, slice_love: f64, cache_love: f64, budget: f64) -> Bidder {
        Bidder {
            name: name.to_string(),
            surface: Arc::new(surface(slice_love, cache_love)),
            utility: UtilityFn::Balanced,
            budget,
        }
    }

    #[test]
    fn auction_converges_near_clearing() {
        let mut a = Auction::new(64.0, 64.0);
        a.add_bidder(bidder("compute", 1.5, 0.2, 100.0));
        a.add_bidder(bidder("cachey", 0.2, 2.5, 100.0));
        let c = a.clear(200, 0.10);
        assert!(
            (c.slice_demand / 64.0 - 1.0).abs() <= 0.25,
            "slice demand {} vs supply 64",
            c.slice_demand
        );
        assert!(
            (c.bank_demand / 64.0 - 1.0).abs() <= 0.25,
            "bank demand {} vs supply 64",
            c.bank_demand
        );
        assert_eq!(c.allocations.len(), 2);
    }

    #[test]
    fn scarcity_raises_the_clearing_price() {
        let mk = |slices: f64| {
            let mut a = Auction::new(slices, 128.0);
            a.add_bidder(bidder("compute", 1.5, 0.2, 100.0));
            a.add_bidder(bidder("compute2", 1.2, 0.3, 100.0));
            a.clear(200, 0.05)
        };
        let scarce = mk(16.0);
        let plentiful = mk(256.0);
        assert!(
            scarce.slice_price > plentiful.slice_price,
            "scarce {} vs plentiful {}",
            scarce.slice_price,
            plentiful.slice_price
        );
    }

    #[test]
    fn budgets_are_respected_at_clearing() {
        let mut a = Auction::new(32.0, 32.0);
        a.add_bidder(bidder("x", 1.0, 1.0, 50.0));
        let c = a.clear(100, 0.1);
        for alloc in &c.allocations {
            let cost = alloc.vcores
                * (c.slice_price * alloc.shape.slices as f64
                    + c.bank_price * alloc.shape.l2_banks as f64);
            assert!(cost <= 50.0 * 1.0001, "spent {cost} of 50");
        }
    }

    #[test]
    fn demand_substitutes_away_from_expensive_resources() {
        let mut a = Auction::new(1.0, 1.0);
        a.add_bidder(bidder("flex", 1.0, 1.0, 100.0));
        // At slice-heavy prices the bidder buys relatively more banks.
        let tables = a.tables();
        let (s_cheap_slices, b_cheap_slices, _) = a.demand_at(&tables, 1.0, 8.0);
        let (s_dear_slices, b_dear_slices, _) = a.demand_at(&tables, 8.0, 1.0);
        let ratio_cheap = s_cheap_slices / b_cheap_slices.max(1e-9);
        let ratio_dear = s_dear_slices / b_dear_slices.max(1e-9);
        assert!(
            ratio_dear <= ratio_cheap,
            "slice:bank mix should fall when slices are dear: {ratio_dear} vs {ratio_cheap}"
        );
    }

    #[test]
    fn table_demand_is_best_utility_to_the_bit() {
        let mut a = Auction::new(16.0, 16.0);
        for (i, utility) in ALL_UTILITIES.into_iter().enumerate() {
            let f = i as f64;
            a.add_bidder(Bidder {
                utility,
                ..bidder(&format!("b{i}"), 0.4 + f, 2.0 - f * 0.7, 37.5 + 40.0 * f)
            });
        }
        // A bidder whose surface is zero or negative: every shape is worth
        // exactly 0, so the tie rule alone picks the shape.
        a.add_bidder(Bidder {
            name: "idle".into(),
            surface: Arc::new(PerfSurface::from_fn("idle", |s| {
                if s.slices > 6 {
                    -1.0
                } else {
                    0.0
                }
            })),
            utility: UtilityFn::LatencyCritical,
            budget: 64.0,
        });
        let tables = a.tables();
        for (ps, pb) in [
            (2.0, 1.0),
            (8.0, 1.0),
            (2.0, 4.0),
            (0.37, 11.3),
            (1e-3, 1e6),
        ] {
            let market = Market {
                name: "auction",
                slice_price: ps,
                bank_price: pb,
            };
            let (_, _, allocations) = a.demand_at(&tables, ps, pb);
            for (b, alloc) in a.bidders.iter().zip(&allocations) {
                let chosen = best_utility(&b.surface, b.utility, &market, b.budget);
                assert_eq!(alloc.shape, chosen.shape, "{} at ({ps}, {pb})", b.name);
                assert_eq!(alloc.utility.to_bits(), chosen.value.to_bits());
                let v = market.affordable_cores(chosen.shape, b.budget);
                assert_eq!(alloc.vcores.to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn non_positive_budgets_are_rejected() {
        let mut a = Auction::new(8.0, 8.0);
        a.add_bidder(bidder("broke", 1.0, 1.0, 0.0));
        let _ = a.clear(10, 0.1);
    }

    #[test]
    #[should_panic(expected = "needs bidders")]
    fn empty_auction_rejected() {
        let _ = Auction::new(8.0, 8.0).clear(10, 0.1);
    }

    #[test]
    #[should_panic(expected = "supplies must be positive")]
    fn zero_supply_rejected() {
        let _ = Auction::new(0.0, 8.0);
    }
}
