//! Provider-side revenue accounting.
//!
//! The paper's economic argument runs both ways: customers pay less *and*
//! "the Cloud provider can make additional revenue" (§2) because idle
//! sub-core resources become rentable ("enables the reuse and resale of
//! resources on a per ALU or per KB of cache basis", abstract). This
//! module is the provider's ledger: each lease is metered per period at
//! the market's per-Slice / per-bank prices, idle capacity is visible, and
//! the ledger can be compared against a fixed-instance provider that can
//! only bill whole cores.

use crate::hypervisor::Hypervisor;
use sharing_core::VCoreShape;

/// Prices per billing period (abstract currency, matching
/// `sharing_market::Market`'s units).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tariff {
    /// Price of one Slice for one period.
    pub slice_price: f64,
    /// Price of one 64 KB bank for one period.
    pub bank_price: f64,
}

impl Tariff {
    /// The equal-area tariff (one Slice bills like two banks).
    #[must_use]
    pub fn equal_area() -> Self {
        Tariff {
            slice_price: 2.0,
            bank_price: 1.0,
        }
    }

    /// Revenue for one VCore shape for one period.
    #[must_use]
    pub fn rate(&self, shape: VCoreShape) -> f64 {
        self.slice_price * shape.slices as f64 + self.bank_price * shape.l2_banks as f64
    }
}

/// A metered billing period.
#[derive(Clone, Debug, PartialEq)]
pub struct BillingPeriod {
    /// Period index.
    pub period: u64,
    /// Revenue collected this period.
    pub revenue: f64,
    /// Revenue the same tenants would have produced under whole-core
    /// (fixed-instance) billing, where every lease is rounded up to the
    /// given fixed instance shape.
    pub fixed_instance_revenue: f64,
    /// Slice utilization during the period.
    pub slice_utilization: f64,
    /// Bank utilization during the period.
    pub bank_utilization: f64,
}

/// The provider's ledger over a sequence of metered periods.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ledger {
    periods: Vec<BillingPeriod>,
}

impl Ledger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Meters one billing period from the hypervisor's live leases.
    ///
    /// `fixed_instance` is the counterfactual: the single instance shape a
    /// conventional provider sells, with each live lease occupying (and
    /// paying for) as many fixed instances as needed to cover its
    /// resources.
    pub fn meter(&mut self, hv: &Hypervisor, tariff: Tariff, fixed_instance: VCoreShape) {
        let mut revenue = 0.0;
        let mut fixed_revenue = 0.0;
        let fixed_rate = tariff.rate(fixed_instance);
        for lease in hv.leases() {
            revenue += tariff.rate(lease.shape);
            // How many fixed instances does this lease's resource demand
            // round up to?
            let by_slices = lease.shape.slices.div_ceil(fixed_instance.slices);
            let by_banks = if fixed_instance.l2_banks == 0 {
                if lease.shape.l2_banks > 0 {
                    usize::MAX
                } else {
                    0
                }
            } else {
                lease.shape.l2_banks.div_ceil(fixed_instance.l2_banks)
            };
            let instances = by_slices.max(by_banks).max(1);
            fixed_revenue += fixed_rate * instances as f64;
        }
        self.periods.push(BillingPeriod {
            period: self.periods.len() as u64,
            revenue,
            fixed_instance_revenue: fixed_revenue,
            slice_utilization: hv.slice_utilization(),
            bank_utilization: hv.bank_utilization(),
        });
    }

    /// Metered periods so far.
    #[must_use]
    pub fn periods(&self) -> &[BillingPeriod] {
        &self.periods
    }

    /// Total sub-core revenue.
    #[must_use]
    pub fn total_revenue(&self) -> f64 {
        self.periods.iter().map(|p| p.revenue).sum()
    }

    /// Total counterfactual fixed-instance revenue.
    #[must_use]
    pub fn total_fixed_revenue(&self) -> f64 {
        self.periods.iter().map(|p| p.fixed_instance_revenue).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::Chip;

    fn shape(s: usize, b: usize) -> VCoreShape {
        VCoreShape::new(s, b).unwrap()
    }

    #[test]
    fn tariff_rates_are_linear() {
        let t = Tariff::equal_area();
        assert_eq!(t.rate(shape(1, 0)), 2.0);
        assert_eq!(t.rate(shape(2, 4)), 8.0);
    }

    #[test]
    fn metering_bills_live_leases() {
        let mut hv = Hypervisor::new(Chip::new(4, 8));
        hv.lease(shape(2, 2)).unwrap(); // rate 6
        hv.lease(shape(1, 0)).unwrap(); // rate 2
        let mut ledger = Ledger::new();
        ledger.meter(&hv, Tariff::equal_area(), shape(2, 4));
        let p = &ledger.periods()[0];
        assert_eq!(p.revenue, 8.0);
        // Fixed instance (2s, 4b) rate 8: each lease needs one instance.
        assert_eq!(p.fixed_instance_revenue, 16.0);
        assert!(p.slice_utilization > 0.0);
    }

    #[test]
    fn sub_core_billing_undercuts_fixed_instances_for_small_tenants() {
        // Customers paying only for what they use pay less than rounding
        // up to a big fixed instance — the paper's "customer pays less"
        // half of market efficiency.
        let mut hv = Hypervisor::new(Chip::new(4, 16));
        for _ in 0..4 {
            hv.lease(shape(1, 1)).unwrap(); // tiny tenants, rate 3 each
        }
        let mut ledger = Ledger::new();
        ledger.meter(&hv, Tariff::equal_area(), shape(4, 8)); // big instance, rate 16
        assert_eq!(ledger.total_revenue(), 12.0);
        assert_eq!(ledger.total_fixed_revenue(), 64.0);
        assert!(ledger.total_revenue() < ledger.total_fixed_revenue());
    }

    #[test]
    fn big_tenants_round_up_to_several_fixed_instances() {
        let mut hv = Hypervisor::new(Chip::new(8, 16));
        hv.lease(shape(8, 16)).unwrap();
        let mut ledger = Ledger::new();
        ledger.meter(&hv, Tariff::equal_area(), shape(2, 4));
        // 8 slices / 2 = 4 instances; 16 banks / 4 = 4 → 4 instances.
        assert_eq!(ledger.periods()[0].fixed_instance_revenue, 4.0 * 8.0);
    }

    #[test]
    fn ledger_accumulates_over_periods() {
        let mut hv = Hypervisor::new(Chip::new(4, 8));
        let id = hv.lease(shape(2, 2)).unwrap();
        let mut ledger = Ledger::new();
        let t = Tariff::equal_area();
        ledger.meter(&hv, t, shape(2, 2));
        hv.release(id).unwrap();
        ledger.meter(&hv, t, shape(2, 2));
        assert_eq!(ledger.periods().len(), 2);
        assert_eq!(ledger.total_revenue(), 6.0, "second period is idle");
        assert_eq!(ledger.periods()[1].revenue, 0.0);
    }
}
