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
//! price step costs, per distinct table, the few rows that can win at
//! the step's price ratio, and a few candidate rows per bidder. The
//! arithmetic and the tie rule are the ones `best_utility` uses, so the
//! choice is the same to the bit.

use crate::market::Market;
use crate::surface::PerfSurface;
use crate::utility::UtilityFn;
use sharing_core::VCoreShape;
use std::ops::Range;
use std::sync::Arc;

/// The price-independent half of a bidder's utility: `P^k` of one
/// surface under one utility function, row by row in surface order.
///
/// Only the ratio `ρ` of the bank price to the Slice price moves the
/// order of the rows' `P^k / cost`, so the table also keeps, for each
/// interval of `ρ` between two cuts, the rows that can win there.
#[derive(Clone, Debug)]
pub struct UtilityTable {
    grid: Arc<[VCoreShape]>,
    pk: Vec<f64>,
    /// Price-ratio cuts, ascending: segment `i` spans the ratios in
    /// `[cuts[i − 1], cuts[i])`, from 0 before the first cut and to ∞
    /// after the last.
    cuts: Vec<f64>,
    /// Segment `i`'s rows, in row order, are `rows[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
    rows: Vec<usize>,
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
        let spans = contender_spans(grid, &pk);
        let mut cuts: Vec<f64> = spans
            .iter()
            .flat_map(|&(_, lo, hi)| [lo, hi])
            .filter(|&c| c > 0.0 && c.is_finite())
            .collect();
        cuts.sort_by(f64::total_cmp);
        cuts.dedup();
        let mut starts = vec![0];
        let mut rows = Vec::new();
        for i in 0..=cuts.len() {
            let from = if i == 0 { 0.0 } else { cuts[i - 1] };
            let to = cuts.get(i).copied().unwrap_or(f64::INFINITY);
            rows.extend(
                spans
                    .iter()
                    .filter(|&&(_, lo, hi)| lo < to && hi > from)
                    .map(|&(k, _, _)| k),
            );
            starts.push(rows.len());
        }
        UtilityTable {
            grid: Arc::clone(grid),
            pk,
            cuts,
            starts,
            rows,
        }
    }

    /// The rows of the segment holding the price ratio `rho`.
    fn rows_at(&self, rho: f64) -> &[usize] {
        let i = self.cuts.partition_point(|&c| c <= rho);
        &self.rows[self.starts[i]..self.starts[i + 1]]
    }

    /// Appends the rows a bidder with a budget in [`TAME_BUDGET`] may
    /// choose at `market`'s prices to `candidates`, in row order: the
    /// rows whose `q_k = P^k · (1 / c_k)` lies within
    /// [`CANDIDATE_MARGIN`] of the table's best, or every row when that
    /// best is outside [`TAME_Q`] (an all-zero table, say). `q` is
    /// scratch.
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
    /// Only the rows of the segment holding `ρ` are costed. A row left
    /// out lies [`CONTENDER_MARGIN`] below some row at `ρ` (see
    /// [`contender_spans`]), and that row is in the segment or lies
    /// below another in turn, so the best row is in the segment, `q_max`
    /// is the one a scan of every row finds, and no row left out
    /// reaches the band.
    ///
    /// `>` orders every `q_k` but a NaN, and a NaN, which fails every
    /// `>`, is passed over as `f64::max` passes it over.
    fn scan(&self, market: &Market, q: &mut Vec<f64>, candidates: &mut Vec<usize>) {
        let rows = self.rows_at(market.bank_price / market.slice_price);
        q.clear();
        q.extend(
            rows.iter()
                .map(|&k| self.pk[k] * (1.0 / market.vcore_cost(self.grid[k]))),
        );
        let q_max = q
            .iter()
            .fold(f64::NEG_INFINITY, |m, &q| if q > m { q } else { m });
        if TAME_Q.contains(&q_max) {
            let floor = q_max - q_max * CANDIDATE_MARGIN;
            candidates.extend(
                rows.iter()
                    .zip(q.iter())
                    .filter(|&(_, &q)| q >= floor)
                    .map(|(&k, _)| k),
            );
        } else {
            candidates.extend(0..self.pk.len());
        }
    }
}

/// Each row of `pk` that no other row beats by [`CONTENDER_MARGIN`] at
/// every price, in row order, with the price ratios where it may hold
/// the band: `(row, lo, hi)`, the open interval `(lo, hi)` holding
/// `[below, above]` widened by a relative [`SEGMENT_SLACK`].
///
/// Only the ratio `ρ` of the bank price to the Slice price moves the
/// order of the rows' `P^k / cost`. Row `j` beats row `k` by the margin
/// where `(1 − margin) P^j (s_k + ρ b_k) − P^k (s_j + ρ b_j) = a + b ρ`
/// is positive: at every `ρ ≥ 0`, below `−a / b`, or above it. Row `k`
/// is beaten on `[0, below)` and on `(above, ∞)`; it is left out when
/// those sets cover every `ρ ≥ 0`. A NaN fails every comparison, so it
/// leaves a row in, over every `ρ`.
///
/// The slack covers the rounding of `ρ = bank price / Slice price` and
/// of each cut, both within a few ε: past a cut by more than that, the
/// row that set the cut beats row `k` by the margin less a few ε, so
/// row `k` stays a thousand times the band below it.
fn contender_spans(grid: &[VCoreShape], pk: &[f64]) -> Vec<(usize, f64, f64)> {
    let keep = 1.0 - CONTENDER_MARGIN;
    let size = |k: usize| (grid[k].slices as f64, grid[k].l2_banks as f64);
    (0..pk.len())
        .filter_map(|k| {
            let (sk, bk) = size(k);
            let mut below = 0.0f64;
            let mut above = f64::INFINITY;
            for (j, &pj) in pk.iter().enumerate() {
                let (sj, bj) = size(j);
                let a = keep * pj * sk - pk[k] * sj;
                let b = keep * pj * bk - pk[k] * bj;
                if a > 0.0 && b >= 0.0 {
                    return None;
                } else if a > 0.0 && b < 0.0 {
                    below = below.max(a / -b);
                } else if b > 0.0 && a <= 0.0 {
                    above = above.min(-a / b);
                }
            }
            (below <= above).then_some((
                k,
                below * (1.0 - SEGMENT_SLACK),
                above * (1.0 + SEGMENT_SLACK),
            ))
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
#[derive(Clone, Debug, Default)]
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
///
/// An auction may clear many times, with its bidders replaced in
/// between (a datacenter clears one every epoch): it keeps its buffers,
/// so a clearing allocates only where its bidders outgrow the last.
#[derive(Clone, Debug)]
pub struct Auction {
    supply_slices: f64,
    supply_banks: f64,
    bidders: Vec<Bidder>,
    book: Book,
    /// The allocations of the price step being tried.
    step: Vec<Allocation>,
    /// The best price step of the last clearing.
    best: Clearing,
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
            book: Book::default(),
            step: Vec::new(),
            best: Clearing::default(),
        }
    }

    /// Adds a bidder.
    pub fn add_bidder(&mut self, bidder: Bidder) -> &mut Self {
        self.bidders.push(bidder);
        self
    }

    /// Removes every bidder, keeping the buffers for the next clearing.
    pub fn remove_bidders(&mut self) {
        self.bidders.clear();
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
    pub fn clear(&mut self, max_iterations: usize, tolerance: f64) -> &Clearing {
        assert!(!self.bidders.is_empty(), "auction needs bidders");
        assert!(tolerance > 0.0 && max_iterations > 0);
        self.book.group(&self.bidders);
        // Start from equal-area prices (Market 2).
        let mut ps = Market::MARKET2.slice_price;
        let mut pb = Market::MARKET2.bank_price;
        let mut best_err: Option<f64> = None;
        for iteration in 1..=max_iterations {
            let (sd, bd) = self.book.demand_at(&self.bidders, ps, pb, &mut self.step);
            // Distance from clearing, in relative excess-demand terms.
            let s_ratio = sd / self.supply_slices;
            let b_ratio = bd / self.supply_banks;
            let err = (s_ratio - 1.0).abs().max((b_ratio - 1.0).abs());
            if best_err.is_none_or(|e| err < e) {
                best_err = Some(err);
                // The kept clearing takes this step's allocations, and the
                // next step refills the buffer it held before.
                std::mem::swap(&mut self.step, &mut self.best.allocations);
                self.best.slice_price = ps;
                self.best.bank_price = pb;
                self.best.iterations = iteration;
                self.best.slice_demand = sd;
                self.best.bank_demand = bd;
            }
            if err <= tolerance {
                break;
            }
            // Multiplicative price adjustment, damped for stability over
            // the discrete demand landscape.
            ps = (ps * s_ratio.powf(0.5)).clamp(1e-3, 1e6);
            pb = (pb * b_ratio.powf(0.5)).clamp(1e-3, 1e6);
        }
        &self.best
    }
}

/// Relative width of a table's candidate band below its best
/// `P^k / cost`; see [`UtilityTable::scan`] for why it is exact.
const CANDIDATE_MARGIN: f64 = 1e-9;
/// How far below another row's `P^k / cost`, at every price, a row
/// must lie to be left out of a table's scan: a thousand times the
/// candidate band, so rounding cannot carry a left-out row into it.
const CONTENDER_MARGIN: f64 = 1e-6;
/// Relative widening of each row's price-ratio interval, over a million
/// times the rounding of a ratio or a cut.
const SEGMENT_SLACK: f64 = 1e-9;
/// Range of a table's best `P^k / cost` inside which the band applies.
const TAME_Q: std::ops::RangeInclusive<f64> = 1e-270..=1e270;
/// Range of budgets the band applies to.
const TAME_BUDGET: std::ops::RangeInclusive<f64> = 1e-18..=1e18;

/// One clearing's bidders grouped by table, with the buffers every
/// price step refills.
#[derive(Clone, Debug, Default)]
struct Book {
    /// Per distinct table: a bidder that bids it, and the range of its
    /// candidates in `candidates`.
    tables: Vec<(usize, Range<usize>)>,
    /// Per bidder, in bidder order: its table's index in `tables`, and
    /// whether its budget lies in [`TAME_BUDGET`].
    bidders: Vec<(usize, bool)>,
    /// Each bidder's table address and index, sorted to group them.
    by_table: Vec<(usize, usize)>,
    /// Every table's candidates at the current prices.
    candidates: Vec<usize>,
    /// Scratch for [`UtilityTable::scan`].
    q: Vec<f64>,
}

impl Book {
    /// Groups `bidders` by table, by `Arc` identity.
    ///
    /// # Panics
    ///
    /// Panics if a budget is not positive and finite, as
    /// [`crate::optimize::best_utility`] does.
    fn group(&mut self, bidders: &[Bidder]) {
        self.by_table.clear();
        self.by_table
            .extend(bidders.iter().enumerate().map(|(i, b)| {
                assert!(
                    b.budget > 0.0 && b.budget.is_finite(),
                    "budget must be positive and finite"
                );
                (Arc::as_ptr(&b.table) as usize, i)
            }));
        self.by_table.sort_unstable();
        self.tables.clear();
        self.bidders.clear();
        self.bidders.resize(bidders.len(), (0, false));
        let mut last = None;
        for &(table, i) in &self.by_table {
            if last != Some(table) {
                last = Some(table);
                self.tables.push((i, 0..0));
            }
            self.bidders[i] = (
                self.tables.len() - 1,
                TAME_BUDGET.contains(&bidders[i].budget),
            );
        }
    }

    /// Aggregate demand of `bidders`, the ones last grouped, at posted
    /// prices, with every bidder's allocation written to `out` in bidder
    /// order. Each bidder takes the row of highest `v · P^k`, the last of
    /// equals, as `best_utility` does.
    fn demand_at(
        &mut self,
        bidders: &[Bidder],
        slice_price: f64,
        bank_price: f64,
        out: &mut Vec<Allocation>,
    ) -> (f64, f64) {
        let market = Market {
            name: "auction",
            slice_price,
            bank_price,
        };
        self.candidates.clear();
        for (bidder, range) in &mut self.tables {
            let start = self.candidates.len();
            bidders[*bidder]
                .table
                .scan(&market, &mut self.q, &mut self.candidates);
            *range = start..self.candidates.len();
        }
        out.clear();
        let mut slices = 0.0;
        let mut banks = 0.0;
        for (b, &(table, tame)) in bidders.iter().zip(&self.bidders) {
            let t = &b.table;
            let utility_of = |k: usize| {
                let cost = market.vcore_cost(t.grid[k]);
                (k, cost, (b.budget / cost).max(0.0) * t.pk[k])
            };
            let pick = |x: &(usize, f64, f64), y: &(usize, f64, f64)| x.2.total_cmp(&y.2);
            let (k, cost, utility) = if tame {
                let range = self.tables[table].1.clone();
                self.candidates[range]
                    .iter()
                    .map(|&k| utility_of(k))
                    .max_by(pick)
            } else {
                (0..t.pk.len()).map(utility_of).max_by(pick)
            }
            .expect("surfaces are non-empty");
            let shape = t.grid[k];
            let v = b.budget / cost;
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
            a.clear(200, 0.05).clone()
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
        let mut book = Book::default();
        book.group(&bidders);
        let mut out = Vec::new();
        // At slice-heavy prices the bidder buys relatively more banks.
        let (s_cheap_slices, b_cheap_slices) = book.demand_at(&bidders, 1.0, 8.0, &mut out);
        let (s_dear_slices, b_dear_slices) = book.demand_at(&bidders, 8.0, 1.0, &mut out);
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
        let mut book = Book::default();
        book.group(&bidders);
        let mut out = Vec::new();
        let mut multi = 0;
        for &(ps, pb) in prices {
            let market = Market {
                name: "auction",
                slice_price: ps,
                bank_price: pb,
            };
            book.demand_at(&bidders, ps, pb, &mut out);
            multi += book.tables.iter().filter(|(_, c)| c.len() >= 2).count();
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

    /// On smooth surfaces the segments leave most rows out, and every row
    /// the band holds at some price, found by brute force over prices
    /// across the clamp range, lies in some segment.
    #[test]
    fn contenders_hold_every_row_the_band_can_reach() {
        let grid = grid();
        let mut rng = Rng64::seed_from_u64(0xC0_7E4D);
        for round in 0..24 {
            let utility = ALL_UTILITIES[round % 3];
            let s = surface(0.1 + 2.0 * rng.f64(), 0.1 + 3.0 * rng.f64());
            let table = UtilityTable::new(&grid, &s, utility);
            let contenders: std::collections::BTreeSet<usize> =
                table.rows.iter().copied().collect();
            assert!(
                contenders.len() < grid.len() / 2,
                "{} of {} rows kept",
                contenders.len(),
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
                        assert!(contenders.contains(&k), "row {k} at {market:?}");
                    }
                }
            }
        }
    }

    /// Seeded differential test of the price-ratio segments on tame
    /// surfaces, smooth and plateaued: at log-uniform price pairs across
    /// the clamp range, and at every cut, one ulp either side of it and a
    /// relative 1e-8 either side, the segment holding `ρ` holds every row
    /// whose `q_k` lies within the band of the best over all rows, and the
    /// scan's candidates are exactly the band a scan of every row keeps.
    /// The segment also holds every row no other row beats by
    /// [`CONTENDER_MARGIN`], less a thousandth of it: a segment narrower
    /// than its rows' intervals fails here long before the band does.
    #[test]
    fn segments_hold_the_band_at_every_price_ratio() {
        let grid = grid();
        let mut rng = Rng64::seed_from_u64(0x5E6_0E47);
        let (mut probes, mut segments, mut segment_rows) = (0usize, 0usize, 0usize);
        for round in 0..24 {
            let utility = ALL_UTILITIES[round % 3];
            let (slice_love, cache_love) = (0.1 + 2.0 * rng.f64(), 0.1 + 3.0 * rng.f64());
            let smooth = move |s: VCoreShape| {
                (1.0 + slice_love * (s.slices as f64).ln())
                    * (1.0 + cache_love * (1.0 + s.l2_banks as f64).ln() / 4.0)
            };
            let step = 0.25 + rng.f64();
            let s = if round % 2 == 0 {
                PerfSurface::from_fn("smooth", smooth)
            } else {
                PerfSurface::from_fn("plateau", move |s| (smooth(s) / step).ceil() * step)
            };
            let table = UtilityTable::new(&grid, &s, utility);
            segments += table.starts.len() - 1;
            segment_rows += table.rows.len();
            // A Slice price of 1 makes the bank price the ratio itself.
            let mut markets: Vec<Market> = table
                .cuts
                .iter()
                .filter(|&&c| (1e-9..=1e9).contains(&c))
                .flat_map(|&c| {
                    [
                        c * (1.0 - 1e-8),
                        c.next_down(),
                        c,
                        c.next_up(),
                        c * (1.0 + 1e-8),
                    ]
                })
                .map(|rho| Market {
                    name: "cut",
                    slice_price: 1.0,
                    bank_price: rho,
                })
                .collect();
            markets.extend((0..200).map(|_| Market {
                name: "drawn",
                slice_price: log_uniform(&mut rng, 1e-3, 1e6),
                bank_price: log_uniform(&mut rng, 1e-3, 1e6),
            }));
            let (mut q, mut candidates) = (Vec::new(), Vec::new());
            for market in &markets {
                let q_all: Vec<f64> = grid
                    .iter()
                    .zip(&table.pk)
                    .map(|(&shape, p)| p * (1.0 / market.vcore_cost(shape)))
                    .collect();
                let best = q_all.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let floor = best - best * CANDIDATE_MARGIN;
                let band: Vec<usize> = (0..q_all.len()).filter(|&k| q_all[k] >= floor).collect();
                let rows = table.rows_at(market.bank_price / market.slice_price);
                let unbeaten = best - best * CONTENDER_MARGIN * 0.999;
                for k in (0..q_all.len()).filter(|&k| q_all[k] >= unbeaten) {
                    assert!(rows.contains(&k), "round {round} row {k} at {market:?}");
                }
                candidates.clear();
                table.scan(market, &mut q, &mut candidates);
                assert_eq!(candidates, band, "round {round} at {market:?}");
                probes += 1;
            }
        }
        assert!(probes > 24 * 200, "only {probes} prices probed");
        let per_segment = segment_rows as f64 / segments as f64;
        assert!(per_segment < 2.0, "{per_segment:.2} rows per segment");
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
