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
//! [`crate::optimize::best_utility`] solves, asked once per bidder per
//! price step over an unchanged surface. A bidder therefore bids a
//! [`UtilityTable`] — its surface's `P^k` in surface order, built once
//! and shared by every bidder with the same surface and utility — and a
//! price step costs one reciprocal per shape of the grid, one scan per
//! distinct table, and a few candidate rows per bidder. The arithmetic
//! and the tie rule are the ones `best_utility` uses, so the choice is
//! the same to the bit.

use crate::market::Market;
use crate::surface::PerfSurface;
use crate::utility::UtilityFn;
use sharing_core::VCoreShape;
use std::collections::HashMap;
use std::sync::Arc;

/// The price-independent half of a bidder's utility: `P^k` of one
/// surface under one utility function, row by row in surface order.
///
/// Rows are laid out on a shape grid that tables share by reference, so
/// a price step computes each shape's cost once for all of them.
#[derive(Clone, Debug)]
pub struct UtilityTable {
    grid: Arc<[VCoreShape]>,
    pk: Vec<f64>,
    /// The rows a price step scans, in row order: every row but those
    /// another row beats by [`CONTENDER_MARGIN`] at every price.
    contenders: Vec<usize>,
}

impl UtilityTable {
    /// `surface`'s `P^k` under `utility`, on `grid`.
    ///
    /// # Panics
    ///
    /// Panics unless `grid` lists exactly the surface's shapes, in
    /// surface order: the tie rule picks the last of equal rows, so the
    /// order is part of the result.
    #[must_use]
    pub fn new(grid: &Arc<[VCoreShape]>, surface: &PerfSurface, utility: UtilityFn) -> Self {
        assert!(
            surface.iter().map(|(s, _)| s).eq(grid.iter().copied()),
            "surface `{}` is not laid out on the grid",
            surface.name()
        );
        let pk: Vec<f64> = surface.iter().map(|(_, p)| utility.perf_power(p)).collect();
        UtilityTable {
            grid: Arc::clone(grid),
            contenders: contenders(grid, &pk),
            pk,
        }
    }
}

/// The rows of `pk` that no other row beats by [`CONTENDER_MARGIN`] at
/// every price, in row order.
///
/// Only the ratio `ρ` of the bank price to the Slice price moves the
/// order of the rows' `P^k / cost`. Row `j` beats row `k` by the margin
/// where `(1 − margin) P^j (s_k + ρ b_k) − P^k (s_j + ρ b_j) = a + b ρ`
/// is positive: at every `ρ ≥ 0`, below `−a / b`, or above it. A row is
/// left out only when those sets cover every `ρ ≥ 0`. A NaN fails every
/// comparison, so it leaves a row in.
fn contenders(grid: &[VCoreShape], pk: &[f64]) -> Vec<usize> {
    let keep = 1.0 - CONTENDER_MARGIN;
    let size = |k: usize| (grid[k].slices as f64, grid[k].l2_banks as f64);
    (0..pk.len())
        .filter(|&k| {
            let (sk, bk) = size(k);
            // Beaten on `[0, below)` and on `(above, ∞)`.
            let mut below = 0.0f64;
            let mut above = f64::INFINITY;
            for (j, &pj) in pk.iter().enumerate() {
                let (sj, bj) = size(j);
                let a = keep * pj * sk - pk[k] * sj;
                let b = keep * pj * bk - pk[k] * bj;
                if a > 0.0 && b >= 0.0 {
                    return false;
                } else if a > 0.0 && b < 0.0 {
                    below = below.max(a / -b);
                } else if b > 0.0 && a <= 0.0 {
                    above = above.min(-a / b);
                }
            }
            below <= above
        })
        .collect()
}

/// A customer participating in the auction.
#[derive(Clone, Debug)]
pub struct Bidder {
    /// The customer's `P^k` table, shared rather than owned: a datacenter
    /// bids one table for every tenant running the same workload under
    /// the same utility, every epoch.
    pub table: Arc<UtilityTable>,
    /// Their budget per market period.
    pub budget: f64,
}

/// One bidder's cleared allocation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Allocation {
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
    /// Per-bidder allocations, in bidder order.
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

    /// Runs the tâtonnement: prices move with excess demand until both
    /// resources are within `tolerance` of supply (relative) or
    /// `max_iterations` pass. Demand is discrete in configurations, so
    /// exact clearing is not always possible; the returned prices are the
    /// closest fixed point found.
    ///
    /// # Panics
    ///
    /// Panics if there are no bidders, `tolerance` is not positive,
    /// `max_iterations` is zero, or a budget is not positive and finite.
    #[must_use]
    pub fn clear(&self, max_iterations: usize, tolerance: f64) -> Clearing {
        assert!(!self.bidders.is_empty(), "auction needs bidders");
        assert!(tolerance > 0.0 && max_iterations > 0);
        // Start from equal-area prices (Market 2).
        let mut ps = Market::MARKET2.slice_price;
        let mut pb = Market::MARKET2.bank_price;
        let mut best: Option<(f64, Clearing)> = None;
        let mut book = Book::new(&self.bidders);
        let mut allocations = Vec::with_capacity(self.bidders.len());
        for iteration in 1..=max_iterations {
            let (sd, bd) = book.demand_at(ps, pb, &mut allocations);
            // Distance from clearing, in relative excess-demand terms.
            let s_ratio = sd / self.supply_slices;
            let b_ratio = bd / self.supply_banks;
            let err = (s_ratio - 1.0).abs().max((b_ratio - 1.0).abs());
            if best.as_ref().is_none_or(|(e, _)| err < *e) {
                // The kept clearing takes this step's allocations, and the
                // next step refills the buffer it held before.
                let spare = best.take().map_or_else(Vec::new, |(_, c)| c.allocations);
                let clearing = Clearing {
                    slice_price: ps,
                    bank_price: pb,
                    iterations: iteration,
                    slice_demand: sd,
                    bank_demand: bd,
                    allocations: std::mem::replace(&mut allocations, spare),
                };
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

/// Relative width of a table's candidate band below its best
/// `P^k / cost`; see [`TableScan::scan`] for why it is exact.
const CANDIDATE_MARGIN: f64 = 1e-9;
/// How far below another row's `P^k / cost`, at every price, a row
/// must lie to be left out of a table's scan: a thousand times the
/// candidate band, so rounding cannot carry a left-out row into it.
const CONTENDER_MARGIN: f64 = 1e-6;
/// Range of a table's best `P^k / cost` inside which the band applies.
const TAME_Q: std::ops::RangeInclusive<f64> = 1e-270..=1e270;
/// Range of budgets the band applies to.
const TAME_BUDGET: std::ops::RangeInclusive<f64> = 1e-18..=1e18;

/// One clearing's bidders grouped by grid and table, with the buffers
/// every price step refills.
struct Book<'a> {
    grids: Vec<GridCosts<'a>>,
    tables: Vec<TableScan<'a>>,
    /// Per bidder, in bidder order: its table's index, its budget, and
    /// whether the budget lies in [`TAME_BUDGET`].
    bidders: Vec<(usize, f64, bool)>,
}

/// Every shape's cost, and its reciprocal, at the current prices.
struct GridCosts<'a> {
    shapes: &'a [VCoreShape],
    cost: Vec<f64>,
    inv: Vec<f64>,
}

/// One distinct table and the rows of it a bidder may still choose.
struct TableScan<'a> {
    grid: usize,
    pk: &'a [f64],
    /// The table's contenders, the only rows the band can hold.
    rows: &'a [usize],
    /// Each contender's `q_k` at the current prices.
    q: Vec<f64>,
    candidates: Vec<usize>,
}

impl<'a> Book<'a> {
    /// Groups bidders by table and tables by grid, both by `Arc`
    /// identity.
    ///
    /// # Panics
    ///
    /// Panics if a budget is not positive and finite, as
    /// [`crate::optimize::best_utility`] does.
    fn new(bidders: &'a [Bidder]) -> Self {
        let mut grid_ids: HashMap<*const VCoreShape, usize> = HashMap::new();
        let mut table_ids: HashMap<*const UtilityTable, usize> = HashMap::new();
        let mut book = Book {
            grids: Vec::new(),
            tables: Vec::new(),
            bidders: Vec::with_capacity(bidders.len()),
        };
        for b in bidders {
            assert!(
                b.budget > 0.0 && b.budget.is_finite(),
                "budget must be positive and finite"
            );
            let table = *table_ids.entry(Arc::as_ptr(&b.table)).or_insert_with(|| {
                let shapes: &[VCoreShape] = &b.table.grid;
                let grid = *grid_ids.entry(shapes.as_ptr()).or_insert_with(|| {
                    book.grids.push(GridCosts {
                        shapes,
                        cost: vec![0.0; shapes.len()],
                        inv: vec![0.0; shapes.len()],
                    });
                    book.grids.len() - 1
                });
                book.tables.push(TableScan {
                    grid,
                    pk: &b.table.pk,
                    rows: &b.table.contenders,
                    q: Vec::with_capacity(b.table.contenders.len()),
                    candidates: Vec::with_capacity(shapes.len()),
                });
                book.tables.len() - 1
            });
            book.bidders
                .push((table, b.budget, TAME_BUDGET.contains(&b.budget)));
        }
        book
    }

    /// Aggregate demand at posted prices, with every bidder's allocation
    /// written to `out` in bidder order. Each bidder takes the row of
    /// highest `v · P^k`, the last of equals, as `best_utility` does.
    fn demand_at(
        &mut self,
        slice_price: f64,
        bank_price: f64,
        out: &mut Vec<Allocation>,
    ) -> (f64, f64) {
        let market = Market {
            name: "auction",
            slice_price,
            bank_price,
        };
        for g in &mut self.grids {
            for ((c, inv), &shape) in g.cost.iter_mut().zip(&mut g.inv).zip(g.shapes) {
                *c = market.vcore_cost(shape);
                *inv = 1.0 / *c;
            }
        }
        for t in &mut self.tables {
            t.scan(&self.grids[t.grid].inv);
        }
        out.clear();
        let mut slices = 0.0;
        let mut banks = 0.0;
        for &(table, budget, tame) in &self.bidders {
            let t = &self.tables[table];
            let g = &self.grids[t.grid];
            let utility_of = |k: usize| (k, (budget / g.cost[k]).max(0.0) * t.pk[k]);
            let pick = |x: &(usize, f64), y: &(usize, f64)| x.1.total_cmp(&y.1);
            let (k, utility) = if tame {
                t.candidates.iter().map(|&k| utility_of(k)).max_by(pick)
            } else {
                (0..t.pk.len()).map(utility_of).max_by(pick)
            }
            .expect("surfaces are non-empty");
            let shape = g.shapes[k];
            let v = budget / g.cost[k];
            slices += v * shape.slices as f64;
            banks += v * shape.l2_banks as f64;
            out.push(Allocation {
                shape,
                vcores: v,
                utility,
            });
        }
        (slices, banks)
    }
}

impl TableScan<'_> {
    /// Keeps the rows whose `q_k = P^k · (1 / c_k)` lies within
    /// [`CANDIDATE_MARGIN`] of the table's best, or every row when that
    /// best is outside [`TAME_Q`] (an all-zero table, say).
    ///
    /// Why no other row can win or tie for a bidder with a budget `B` in
    /// [`TAME_BUDGET`]: prices are clamped to `[1e-3, 1e6]` and a shape
    /// has at most 8 Slices and 128 banks, so every cost `c_k` lies in
    /// `[1e-3, 1.4e8]` and every quotient `B / c_k` is a normal number.
    /// With `r_k = P^k / c_k` exactly and ε = 2⁻⁵³, `q_k` is within
    /// about 2ε of `r_k`, and so is the bidder's `u_k = (B / c_k) · P^k`
    /// of `B · r_k`, while the best row's `u*` is a normal number
    /// (`B · r*` lies in about `[1e-288, 1e288]`). A row below the band
    /// has `r_k < r* (1 − 1e-9 + 6ε)`, so `u_k < u*` strictly: the
    /// margin is over a million times the rounding. A row whose `q_k`
    /// underflows has `B · r_k` below `1e-289`, under `u*` again. So the
    /// last of the bidder's best rows in row order is always a candidate,
    /// and scanning candidates alone, in row order, picks it.
    ///
    /// Only the contenders are scanned. A row left out lies
    /// [`CONTENDER_MARGIN`] below some row at these prices, and that row
    /// is a contender or lies below one in turn, so the best row is a
    /// contender, `q_max` is the one a scan of every row finds, and no
    /// row left out reaches the band.
    ///
    /// Each `q_k` is computed once, and its maximum is folded over four
    /// lanes, which the compiler can vectorize. The order does not move
    /// the result: `>` orders every `q_k` but a NaN, and a NaN, which
    /// fails every `>`, is passed over as `f64::max` passes it over. Only
    /// the sign of a zero maximum could differ, and zero lies outside
    /// [`TAME_Q`] either way.
    fn scan(&mut self, inv: &[f64]) {
        self.q.clear();
        self.q
            .extend(self.rows.iter().map(|&k| self.pk[k] * inv[k]));
        let mut lanes = [f64::NEG_INFINITY; 4];
        let mut quads = self.q.chunks_exact(4);
        for quad in &mut quads {
            for (m, &q) in lanes.iter_mut().zip(quad) {
                *m = if q > *m { q } else { *m };
            }
        }
        let q_max = quads
            .remainder()
            .iter()
            .chain(&lanes)
            .fold(f64::NEG_INFINITY, |m, &q| if q > m { q } else { m });
        self.candidates.clear();
        if TAME_Q.contains(&q_max) {
            let floor = q_max - q_max * CANDIDATE_MARGIN;
            self.candidates.extend(
                self.rows
                    .iter()
                    .zip(&self.q)
                    .filter(|&(_, &q)| q >= floor)
                    .map(|(&k, _)| k),
            );
        } else {
            self.candidates.extend(0..self.pk.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize::best_utility;
    use crate::utility::ALL_UTILITIES;
    use sharing_trace::rng::Rng64;

    fn grid() -> Arc<[VCoreShape]> {
        VCoreShape::sweep_grid().collect()
    }

    fn surface(slice_love: f64, cache_love: f64) -> PerfSurface {
        PerfSurface::from_fn("syn", move |s| {
            (1.0 + slice_love * (s.slices as f64).ln())
                * (1.0 + cache_love * (1.0 + s.l2_banks as f64).ln() / 4.0)
        })
    }

    fn bidder(slice_love: f64, cache_love: f64, budget: f64) -> Bidder {
        let table = UtilityTable::new(
            &grid(),
            &surface(slice_love, cache_love),
            UtilityFn::Balanced,
        );
        Bidder {
            table: Arc::new(table),
            budget,
        }
    }

    #[test]
    fn auction_converges_near_clearing() {
        let mut a = Auction::new(64.0, 64.0);
        a.add_bidder(bidder(1.5, 0.2, 100.0));
        a.add_bidder(bidder(0.2, 2.5, 100.0));
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
            a.add_bidder(bidder(1.5, 0.2, 100.0));
            a.add_bidder(bidder(1.2, 0.3, 100.0));
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
        a.add_bidder(bidder(1.0, 1.0, 50.0));
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
        let bidders = [bidder(1.0, 1.0, 100.0)];
        let mut book = Book::new(&bidders);
        let mut out = Vec::new();
        // At slice-heavy prices the bidder buys relatively more banks.
        let (s_cheap_slices, b_cheap_slices) = book.demand_at(1.0, 8.0, &mut out);
        let (s_dear_slices, b_dear_slices) = book.demand_at(8.0, 1.0, &mut out);
        let ratio_cheap = s_cheap_slices / b_cheap_slices.max(1e-9);
        let ratio_dear = s_dear_slices / b_dear_slices.max(1e-9);
        assert!(
            ratio_dear <= ratio_cheap,
            "slice:bank mix should fall when slices are dear: {ratio_dear} vs {ratio_cheap}"
        );
    }

    /// A bidder as the reference sees it, next to the bid it makes.
    struct Case {
        surface: Arc<PerfSurface>,
        utility: UtilityFn,
        bidder: Bidder,
    }

    /// Clears `cases` at each price pair and checks every bidder's shape,
    /// VCore count and utility against `best_utility`, bit for bit.
    /// Returns how many (table, prices) pairs kept two or more candidate
    /// rows.
    fn assert_matches_best_utility(cases: &[Case], prices: &[(f64, f64)]) -> usize {
        let bidders: Vec<Bidder> = cases.iter().map(|c| c.bidder.clone()).collect();
        let mut book = Book::new(&bidders);
        let mut out = Vec::new();
        let mut multi = 0;
        for &(ps, pb) in prices {
            let market = Market {
                name: "auction",
                slice_price: ps,
                bank_price: pb,
            };
            book.demand_at(ps, pb, &mut out);
            multi += book
                .tables
                .iter()
                .filter(|t| t.candidates.len() >= 2)
                .count();
            for (case, alloc) in cases.iter().zip(&out) {
                let budget = case.bidder.budget;
                let chosen = best_utility(&case.surface, case.utility, &market, budget);
                let at = format!(
                    "{} {:?} budget {budget} at ({ps}, {pb})",
                    case.surface.name(),
                    case.utility
                );
                assert_eq!(alloc.shape, chosen.shape, "{at}");
                assert_eq!(alloc.utility.to_bits(), chosen.value.to_bits(), "{at}");
                let v = market.affordable_cores(chosen.shape, budget);
                assert_eq!(alloc.vcores.to_bits(), v.to_bits(), "{at}");
            }
        }
        multi
    }

    /// Bids `surface` under `utility` once per budget, sharing one table.
    fn cases_for(
        grid: &Arc<[VCoreShape]>,
        surface: PerfSurface,
        utility: UtilityFn,
        budgets: &[f64],
    ) -> Vec<Case> {
        let surface = Arc::new(surface);
        let table = Arc::new(UtilityTable::new(grid, &surface, utility));
        budgets
            .iter()
            .map(|&budget| Case {
                surface: Arc::clone(&surface),
                utility,
                bidder: Bidder {
                    table: Arc::clone(&table),
                    budget,
                },
            })
            .collect()
    }

    #[test]
    fn table_demand_is_best_utility_to_the_bit() {
        let grid = grid();
        let mut cases = Vec::new();
        for (i, utility) in ALL_UTILITIES.into_iter().enumerate() {
            let f = i as f64;
            let s = surface(0.4 + f, 2.0 - f * 0.7);
            cases.extend(cases_for(&grid, s, utility, &[37.5 + 40.0 * f]));
        }
        // A bidder whose surface is zero or negative: every shape is worth
        // exactly 0, so the tie rule alone picks the shape.
        let idle = PerfSurface::from_fn("idle", |s| if s.slices > 6 { -1.0 } else { 0.0 });
        cases.extend(cases_for(&grid, idle, UtilityFn::LatencyCritical, &[64.0]));
        let prices = [
            (2.0, 1.0),
            (8.0, 1.0),
            (2.0, 4.0),
            (0.37, 11.3),
            (1e-3, 1e6),
        ];
        assert_matches_best_utility(&cases, &prices);
    }

    /// On smooth surfaces the scan leaves most rows out, and every row
    /// the band holds at some price, found by brute force over prices
    /// across the clamp range, is a contender.
    #[test]
    fn contenders_hold_every_row_the_band_can_reach() {
        let grid = grid();
        let mut rng = Rng64::seed_from_u64(0xC0_7E4D);
        for round in 0..24 {
            let utility = ALL_UTILITIES[round % 3];
            let s = surface(0.1 + 2.0 * rng.f64(), 0.1 + 3.0 * rng.f64());
            let table = UtilityTable::new(&grid, &s, utility);
            assert!(
                table.contenders.len() < grid.len() / 2,
                "{} of {} rows kept",
                table.contenders.len(),
                grid.len()
            );
            for _ in 0..500 {
                let market = Market {
                    name: "probe",
                    slice_price: log_uniform(&mut rng, 1e-3, 1e6),
                    bank_price: log_uniform(&mut rng, 1e-3, 1e6),
                };
                let q: Vec<f64> = grid
                    .iter()
                    .zip(&table.pk)
                    .map(|(&shape, p)| p / market.vcore_cost(shape))
                    .collect();
                let best = q.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                for (k, &qk) in q.iter().enumerate() {
                    if qk >= best * (1.0 - CANDIDATE_MARGIN) {
                        assert!(table.contenders.contains(&k), "row {k} at {market:?}");
                    }
                }
            }
        }
    }

    /// A log-uniform draw from `[lo, hi]`.
    fn log_uniform(rng: &mut Rng64, lo: f64, hi: f64) -> f64 {
        (lo.ln() + rng.f64() * (hi.ln() - lo.ln())).exp()
    }

    /// Seeded differential test of the candidate band: plateaus, zero and
    /// negative surfaces, rows built to tie within the margin, surfaces
    /// whose utilities overflow or underflow, several budgets per table,
    /// and prices across the whole clamp range.
    #[test]
    fn candidate_band_matches_best_utility_on_seeded_surfaces() {
        let grid = grid();
        let shapes: Vec<VCoreShape> = grid.to_vec();
        let mut rng = Rng64::seed_from_u64(0x5EED_A0C7);
        let mut compared = 0;
        let mut multi = 0;
        for round in 0..40 {
            let prices: Vec<(f64, f64)> = (0..6)
                .map(|i| match i {
                    0 => (2.0, 1.0),
                    1 => (1e-3, 1e6),
                    2 => (1e6, 1e-3),
                    _ => (
                        log_uniform(&mut rng, 1e-3, 1e6),
                        log_uniform(&mut rng, 1e-3, 1e6),
                    ),
                })
                .collect();
            // Near ties are tuned to one of the drawn price pairs.
            let (tps, tpb) = prices[rng.usize_inclusive(0, prices.len() - 1)];
            let tuned = Market {
                name: "tuned",
                slice_price: tps,
                bank_price: tpb,
            };
            let mut cases = Vec::new();
            for kind in 0..8 {
                let utility = ALL_UTILITIES[rng.usize_inclusive(0, 2)];
                let k = utility.exponent() as i32;
                let slice_love = 0.1 + 2.0 * rng.f64();
                let cache_love = 0.1 + 3.0 * rng.f64();
                let smooth = move |s: VCoreShape| {
                    (1.0 + slice_love * (s.slices as f64).ln())
                        * (1.0 + cache_love * (1.0 + s.l2_banks as f64).ln() / 4.0)
                };
                let name = format!("r{round}k{kind}");
                let s = match kind {
                    0 => PerfSurface::from_fn(name, smooth),
                    // Plateaus: a handful of perf levels shared by many
                    // shapes, so equal costs tie exactly.
                    1 => {
                        let step = 0.25 + rng.f64();
                        PerfSurface::from_fn(name, move |s| (smooth(s) / step).floor() * step)
                    }
                    2 => PerfSurface::from_fn(name, |_| 0.0),
                    3 => PerfSurface::from_fn(name, move |s| -smooth(s)),
                    // `q` above and below the band's range: utilities
                    // overflow to ∞ or lose precision to underflow.
                    6 => PerfSurface::from_fn(name, move |s| smooth(s) * 1e100),
                    7 => PerfSurface::from_fn(name, move |s| smooth(s) * 1e-104),
                    // Two or three rows whose `P^k / cost` at the tuned
                    // prices sit within the margin of the best row's.
                    _ => {
                        let base = PerfSurface::from_fn(name.clone(), smooth);
                        let ratio = |s: VCoreShape, p: f64| p.powi(k) / tuned.vcore_cost(s);
                        let best = shapes
                            .iter()
                            .copied()
                            .max_by(|&a, &b| {
                                ratio(a, base.perf(a)).total_cmp(&ratio(b, base.perf(b)))
                            })
                            .expect("grid is non-empty");
                        let target = ratio(best, base.perf(best));
                        let mut points: std::collections::BTreeMap<_, _> = base.iter().collect();
                        for _ in 0..rng.usize_inclusive(1, 2) {
                            let other = shapes[rng.usize_inclusive(0, shapes.len() - 1)];
                            let rel = [0.0, 1e-15, -1e-15, 1e-12, -1e-12, 5e-10, -5e-10]
                                [rng.usize_inclusive(0, 6)];
                            let want = target * (1.0 + rel) * tuned.vcore_cost(other);
                            points.insert(other, want.powf(1.0 / f64::from(k)));
                        }
                        PerfSurface::new(name, points)
                    }
                };
                let budgets: Vec<f64> = (0..rng.usize_inclusive(1, 4))
                    .map(|_| match rng.usize_inclusive(0, 9) {
                        // Budgets outside the band's range take the full
                        // scan; the extremes overflow or underflow `u`.
                        0 => log_uniform(&mut rng, 1e-320, 1e-18),
                        1 => log_uniform(&mut rng, 1e18, 1e307),
                        _ => log_uniform(&mut rng, 1e-3, 1e6),
                    })
                    .collect();
                compared += budgets.len() * prices.len();
                cases.extend(cases_for(&grid, s, utility, &budgets));
            }
            multi += assert_matches_best_utility(&cases, &prices);
        }
        assert!(compared >= 2_000, "only {compared} cases");
        assert!(multi > 0, "no candidate set held two rows");
    }

    #[test]
    #[should_panic(expected = "not laid out on the grid")]
    fn tables_follow_the_surface_order() {
        let mut shapes: Vec<VCoreShape> = VCoreShape::sweep_grid().collect();
        shapes.reverse();
        let _ = UtilityTable::new(&shapes.into(), &surface(1.0, 1.0), UtilityFn::Throughput);
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn non_positive_budgets_are_rejected() {
        let mut a = Auction::new(8.0, 8.0);
        a.add_bidder(bidder(1.0, 1.0, 0.0));
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
