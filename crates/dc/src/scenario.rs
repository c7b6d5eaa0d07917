//! Scenario files: the JSON schema describing one datacenter run.
//!
//! A scenario bundles everything a [`crate::DcSim`] needs — fleet shape,
//! epoch count, the tenant arrival process, budgets, how performance
//! surfaces are sourced, and the two billing regimes under comparison
//! (spot-market vs fixed-instance). Scenarios are plain JSON objects so
//! they can be checked into a repo, posted to ssimd, or generated by
//! scripts; every field except `name` has a default, so the minimal
//! scenario is `{"name": "smoke"}`.

use sharing_core::VCoreShape;
use sharing_hv::billing::Tariff;
use sharing_hv::cloud::PlacementPolicy;
use sharing_json::{FromJson, Json, JsonError, ToJson};
use sharing_trace::{ALL_BENCHMARKS, MAX_TRACE_LEN};

/// Most chips a scenario may ask for.
pub const MAX_CHIPS: usize = 256;
/// Most tile rows per chip.
pub const MAX_ROWS: usize = 256;
/// Most tile columns per chip.
pub const MAX_COLS: usize = 256;
/// Most market epochs one run may simulate.
pub const MAX_EPOCHS: usize = 10_000;
/// Highest mean arrival rate, in tenants per epoch (base and burst).
pub const MAX_ARRIVAL_RATE: f64 = 100.0;
/// Most VCores one tenant may hold.
pub const MAX_TENANT_VCORES: usize = 1_024;
/// Most names `tenants.benchmarks` may list, duplicates included: a
/// catalog builds one surface and one table per utility for each. The
/// suite has 15 benchmarks.
pub const MAX_TENANT_BENCHMARKS: usize = 64;
/// Longest name `tenants.benchmarks` may list, in bytes: the catalog
/// memo keeps every name of up to eight scenarios. The suite's longest
/// is 10.
pub const MAX_BENCHMARK_NAME_BYTES: usize = 64;
/// Most tâtonnement iterations per clearing.
pub const MAX_AUCTION_ITERATIONS: usize = 10_000;
/// Most auction work one run may ask for, in bidder price steps:
/// `epochs × max(base_rate, burst_rate) × min(mean_residence, epochs) ×
/// auction.max_iterations`, the expected resident population at the
/// peak rate bidding every iteration of every epoch.
pub const MAX_DC_WORK: f64 = 40_000_000.0;

/// Implements `ToJson`/`FromJson` where every listed field is optional in
/// the input and falls back to the *struct's* `Default` value (unlike
/// `json_struct!`, whose defaults use the field type's zero value).
macro_rules! spec_json {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::Obj(vec![
                    $( (stringify!($field).to_string(), self.$field.to_json()), )*
                ])
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                if v.as_obj().is_none() {
                    return Err(JsonError::msg(format!(
                        "expected {} object, got {v}",
                        stringify!($ty)
                    )));
                }
                let mut out = <$ty>::default();
                $( if let Some(f) = v.get(stringify!($field)) {
                    out.$field = FromJson::from_json(f).map_err(|e| {
                        JsonError::msg(format!(
                            "{}.{}: {}", stringify!($ty), stringify!($field), e.0
                        ))
                    })?;
                } )*
                Ok(out)
            }
        }
    };
}

/// A VCore shape as written in scenario JSON.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShapeSpec {
    /// Slice count (1–8).
    pub slices: usize,
    /// 64 KB bank count (0–128).
    pub banks: usize,
}

impl ShapeSpec {
    /// Converts to a validated [`VCoreShape`].
    ///
    /// # Errors
    ///
    /// Returns a message when the shape is outside the paper's bounds.
    pub fn to_shape(self) -> Result<VCoreShape, String> {
        VCoreShape::new(self.slices, self.banks)
            .map_err(|e| format!("bad shape {}s/{}b: {e:?}", self.slices, self.banks))
    }
}

impl Default for ShapeSpec {
    fn default() -> Self {
        ShapeSpec {
            slices: 2,
            banks: 4,
        }
    }
}

spec_json!(ShapeSpec { slices, banks });

/// The tenant arrival process: Poisson arrivals per epoch with one
/// higher-rate burst window (the "flash crowd" every IaaS study needs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArrivalSpec {
    /// Mean arrivals per epoch outside the burst window.
    pub base_rate: f64,
    /// Mean arrivals per epoch inside the burst window.
    pub burst_rate: f64,
    /// First epoch of the burst window.
    pub burst_start: usize,
    /// Burst window length in epochs (0 disables the burst).
    pub burst_len: usize,
    /// Mean tenant residence in epochs (geometric distribution, ≥ 1).
    pub mean_residence: f64,
}

impl Default for ArrivalSpec {
    fn default() -> Self {
        ArrivalSpec {
            base_rate: 1.0,
            burst_rate: 6.0,
            burst_start: 16,
            burst_len: 8,
            mean_residence: 10.0,
        }
    }
}

spec_json!(ArrivalSpec {
    base_rate,
    burst_rate,
    burst_start,
    burst_len,
    mean_residence
});

/// How tenants are drawn: budgets, scale caps, and workload mix.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantSpec {
    /// Minimum per-epoch budget.
    pub budget_min: f64,
    /// Maximum per-epoch budget.
    pub budget_max: f64,
    /// Most VCores one tenant may hold at once.
    pub max_vcores: usize,
    /// Benchmark names tenants draw from; empty means the whole suite.
    pub benchmarks: Vec<String>,
}

impl TenantSpec {
    /// The effective benchmark-name pool (the whole suite when empty).
    #[must_use]
    pub fn benchmark_names(&self) -> Vec<String> {
        if self.benchmarks.is_empty() {
            ALL_BENCHMARKS
                .iter()
                .map(|b| b.name().to_string())
                .collect()
        } else {
            self.benchmarks.clone()
        }
    }
}

impl Default for TenantSpec {
    fn default() -> Self {
        TenantSpec {
            budget_min: 40.0,
            budget_max: 160.0,
            max_vcores: 4,
            benchmarks: Vec::new(),
        }
    }
}

spec_json!(TenantSpec {
    budget_min,
    budget_max,
    max_vcores,
    benchmarks
});

/// Where per-config IPC surfaces come from.
///
/// `"synthetic"` derives a smooth P(c, s) per workload name from a hash —
/// instant, used by tests and examples. `"calibrated"` runs real
/// `sharing-core` sweeps through `sharing-market::SuiteSurfaces` (cached
/// up front, so the event loop never blocks on cycle-level simulation).
#[derive(Clone, Debug, PartialEq)]
pub struct SurfaceSpec {
    /// `"synthetic"` or `"calibrated"`.
    pub source: String,
    /// Trace length per shape for calibrated sweeps.
    pub trace_len: usize,
    /// Trace-generation seed for calibrated sweeps.
    pub sweep_seed: u64,
}

impl Default for SurfaceSpec {
    fn default() -> Self {
        SurfaceSpec {
            source: "synthetic".to_string(),
            trace_len: 6_000,
            sweep_seed: 0x00A5_2014,
        }
    }
}

spec_json!(SurfaceSpec {
    source,
    trace_len,
    sweep_seed
});

/// Fixed-tariff prices used by the fixed-instance counterfactual.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TariffSpec {
    /// Price of one Slice per epoch.
    pub slice_price: f64,
    /// Price of one 64 KB bank per epoch.
    pub bank_price: f64,
}

impl TariffSpec {
    /// Converts to an hv-level [`Tariff`].
    #[must_use]
    pub fn to_tariff(self) -> Tariff {
        Tariff {
            slice_price: self.slice_price,
            bank_price: self.bank_price,
        }
    }
}

impl Default for TariffSpec {
    fn default() -> Self {
        let t = Tariff::equal_area();
        TariffSpec {
            slice_price: t.slice_price,
            bank_price: t.bank_price,
        }
    }
}

spec_json!(TariffSpec {
    slice_price,
    bank_price
});

/// Tâtonnement parameters for the per-epoch auction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AuctionSpec {
    /// Iteration cap per clearing.
    pub max_iterations: usize,
    /// Relative excess-demand tolerance.
    pub tolerance: f64,
}

impl Default for AuctionSpec {
    fn default() -> Self {
        AuctionSpec {
            max_iterations: 60,
            tolerance: 0.05,
        }
    }
}

spec_json!(AuctionSpec {
    max_iterations,
    tolerance
});

/// One complete datacenter scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Scenario name (the only required field).
    pub name: String,
    /// Chips in the fleet.
    pub chips: usize,
    /// Tile rows per chip.
    pub rows: usize,
    /// Tile columns per chip (half are Slices, half banks).
    pub cols: usize,
    /// Placement policy: `"first-fit"`, `"best-fit"`, or `"worst-fit"`.
    pub placement: String,
    /// Market epochs to simulate.
    pub epochs: usize,
    /// Cycles per epoch (the billing/clearing period).
    pub epoch_cycles: u64,
    /// Tenant arrival process.
    pub arrivals: ArrivalSpec,
    /// Tenant population parameters.
    pub tenants: TenantSpec,
    /// Performance-surface sourcing.
    pub surfaces: SurfaceSpec,
    /// The fixed-instance shape the conventional provider sells.
    pub fixed_instance: ShapeSpec,
    /// The fixed provider's tariff.
    pub fixed_tariff: TariffSpec,
    /// Auction parameters.
    pub auction: AuctionSpec,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            name: "default".to_string(),
            chips: 4,
            rows: 8,
            cols: 16,
            placement: "best-fit".to_string(),
            epochs: 48,
            epoch_cycles: 100_000,
            arrivals: ArrivalSpec::default(),
            tenants: TenantSpec::default(),
            surfaces: SurfaceSpec::default(),
            fixed_instance: ShapeSpec::default(),
            fixed_tariff: TariffSpec::default(),
            auction: AuctionSpec::default(),
        }
    }
}

spec_json!(Scenario {
    name,
    chips,
    rows,
    cols,
    placement,
    epochs,
    epoch_cycles,
    arrivals,
    tenants,
    surfaces,
    fixed_instance,
    fixed_tariff,
    auction
});

impl Scenario {
    /// Parses scenario JSON, requiring the `name` field (everything else
    /// falls back to its default).
    ///
    /// # Errors
    ///
    /// Returns the parse error, or a message when `name` is missing.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e| e.0)?;
        if v.get("name").is_none() {
            return Err("scenario needs a `name` field".to_string());
        }
        Scenario::from_json(&v).map_err(|e| e.0)
    }
}

impl Scenario {
    /// The bursty reference scenario used by the example, the bench, and
    /// the determinism tests: a small fleet with a mid-run flash crowd.
    #[must_use]
    pub fn example_bursty() -> Self {
        Scenario {
            name: "bursty-flash-crowd".to_string(),
            chips: 4,
            rows: 8,
            cols: 16,
            epochs: 48,
            arrivals: ArrivalSpec {
                base_rate: 1.0,
                burst_rate: 6.0,
                burst_start: 16,
                burst_len: 8,
                mean_residence: 10.0,
            },
            ..Scenario::default()
        }
    }

    /// Parses the placement policy string.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown policies.
    pub fn placement_policy(&self) -> Result<PlacementPolicy, String> {
        match self.placement.as_str() {
            "first-fit" => Ok(PlacementPolicy::FirstFit),
            "best-fit" => Ok(PlacementPolicy::BestFit),
            "worst-fit" => Ok(PlacementPolicy::WorstFit),
            other => Err(format!(
                "unknown placement policy `{other}` (expected first-fit, best-fit or worst-fit)"
            )),
        }
    }

    /// Whether the arrival process has a burst window.
    #[must_use]
    pub fn is_bursty(&self) -> bool {
        self.arrivals.burst_len > 0 && self.arrivals.burst_rate != self.arrivals.base_rate
    }

    /// Slices per chip under the alternating-column layout.
    #[must_use]
    pub fn slices_per_chip(&self) -> usize {
        self.rows * self.cols.div_ceil(2)
    }

    /// Banks per chip under the alternating-column layout.
    #[must_use]
    pub fn banks_per_chip(&self) -> usize {
        self.rows * (self.cols / 2)
    }

    /// Validates every field, returning the first problem found.
    ///
    /// Every size has a const cap (`MAX_CHIPS`, `MAX_EPOCHS`, …), so a
    /// scenario that passes cannot ask a run for unbounded memory, and
    /// its auction work is capped by [`MAX_DC_WORK`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("scenario needs a non-empty `name`".to_string());
        }
        if !(1..=MAX_CHIPS).contains(&self.chips) {
            return Err(format!("`chips` must be in 1..={MAX_CHIPS}"));
        }
        if !(1..=MAX_ROWS).contains(&self.rows) {
            return Err(format!("`rows` must be in 1..={MAX_ROWS}"));
        }
        if !(2..=MAX_COLS).contains(&self.cols) {
            return Err(format!("`cols` must be in 2..={MAX_COLS}"));
        }
        if !(1..=MAX_EPOCHS).contains(&self.epochs) {
            return Err(format!("`epochs` must be in 1..={MAX_EPOCHS}"));
        }
        if self.epoch_cycles < 2 {
            return Err("`epoch_cycles` must be at least 2".to_string());
        }
        let a = &self.arrivals;
        for (field, rate) in [("base_rate", a.base_rate), ("burst_rate", a.burst_rate)] {
            // `contains` is false for NaN, so this also refuses it.
            if !(0.0..=MAX_ARRIVAL_RATE).contains(&rate) {
                return Err(format!(
                    "`{field}` must be in 0..={MAX_ARRIVAL_RATE} arrivals per epoch"
                ));
            }
        }
        if a.base_rate == 0.0 && (a.burst_rate == 0.0 || a.burst_len == 0) {
            return Err("arrival process never produces a tenant".to_string());
        }
        if !(a.mean_residence >= 1.0 && a.mean_residence.is_finite()) {
            return Err("`mean_residence` must be finite and >= 1 epoch".to_string());
        }
        let t = &self.tenants;
        if !(t.budget_min > 0.0 && t.budget_max >= t.budget_min && t.budget_max.is_finite()) {
            return Err("tenant budgets need 0 < budget_min <= budget_max, finite".to_string());
        }
        if !(1..=MAX_TENANT_VCORES).contains(&t.max_vcores) {
            return Err(format!("`max_vcores` must be in 1..={MAX_TENANT_VCORES}"));
        }
        if t.benchmarks.len() > MAX_TENANT_BENCHMARKS {
            return Err(format!(
                "`benchmarks` may list at most {MAX_TENANT_BENCHMARKS} names"
            ));
        }
        if t.benchmarks
            .iter()
            .any(|n| n.len() > MAX_BENCHMARK_NAME_BYTES)
        {
            return Err(format!(
                "`benchmarks` names may be at most {MAX_BENCHMARK_NAME_BYTES} bytes"
            ));
        }
        match self.surfaces.source.as_str() {
            "synthetic" => {}
            "calibrated" => {
                if !(1..=MAX_TRACE_LEN).contains(&self.surfaces.trace_len) {
                    return Err(format!(
                        "calibrated surfaces need `trace_len` in 1..={MAX_TRACE_LEN}"
                    ));
                }
                for name in self.tenants.benchmark_names() {
                    if sharing_trace::Benchmark::from_name(&name).is_none() {
                        return Err(format!(
                            "calibrated surfaces need suite benchmarks; `{name}` is unknown"
                        ));
                    }
                }
            }
            other => {
                return Err(format!(
                    "unknown surface source `{other}` (expected synthetic or calibrated)"
                ))
            }
        }
        let fixed = self.fixed_instance.to_shape()?;
        if !VCoreShape::sweep_grid().any(|s| s == fixed) {
            return Err(format!(
                "`fixed_instance` {fixed} is not on the sweep grid (banks must be a power of two <= 128)"
            ));
        }
        if self.fixed_tariff.slice_price <= 0.0 || self.fixed_tariff.bank_price < 0.0 {
            return Err("fixed tariff needs slice_price > 0 and bank_price >= 0".to_string());
        }
        if !(1..=MAX_AUCTION_ITERATIONS).contains(&self.auction.max_iterations) {
            return Err(format!(
                "auction `max_iterations` must be in 1..={MAX_AUCTION_ITERATIONS}"
            ));
        }
        if self.auction.tolerance.is_nan() || self.auction.tolerance <= 0.0 {
            return Err("auction needs `tolerance` > 0".to_string());
        }
        let work = self.epochs as f64
            * a.base_rate.max(a.burst_rate)
            * a.mean_residence.min(self.epochs as f64)
            * self.auction.max_iterations as f64;
        if work > MAX_DC_WORK {
            return Err(format!(
                "scenario asks for {work:.0} bidder price steps (epochs × peak arrival rate × \
                 min(mean_residence, epochs) × auction max_iterations); the cap is \
                 MAX_DC_WORK = {MAX_DC_WORK}"
            ));
        }
        self.placement_policy()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let sc = Scenario::parse("{\"name\": \"smoke\"}").unwrap();
        assert_eq!(sc.name, "smoke");
        assert_eq!(sc.chips, 4);
        assert_eq!(sc.fixed_instance, ShapeSpec::default());
        sc.validate().unwrap();
    }

    #[test]
    fn scenario_json_round_trips() {
        let sc = Scenario::example_bursty();
        let text = sharing_json::to_string_pretty(&sc);
        let back: Scenario = sharing_json::from_str(&text).unwrap();
        assert_eq!(sc, back);
    }

    #[test]
    fn missing_name_is_rejected() {
        assert!(Scenario::parse("{\"chips\": 2}").is_err());
        assert!(Scenario::parse("not json").is_err());
    }

    #[test]
    fn validation_catches_bad_fields() {
        type Mutation = Box<dyn Fn(&mut Scenario)>;
        let cases: Vec<(&str, Mutation)> = vec![
            ("chips", Box::new(|s| s.chips = 0)),
            ("epochs", Box::new(|s| s.epochs = 0)),
            ("epoch_cycles", Box::new(|s| s.epoch_cycles = 1)),
            ("budget", Box::new(|s| s.tenants.budget_min = 0.0)),
            ("max_vcores", Box::new(|s| s.tenants.max_vcores = 0)),
            ("residence", Box::new(|s| s.arrivals.mean_residence = 0.5)),
            ("placement", Box::new(|s| s.placement = "random".into())),
            ("source", Box::new(|s| s.surfaces.source = "oracle".into())),
            ("fixed shape", Box::new(|s| s.fixed_instance.banks = 3)),
            (
                "fixed shape bounds",
                Box::new(|s| s.fixed_instance.slices = 9),
            ),
            ("tariff", Box::new(|s| s.fixed_tariff.slice_price = 0.0)),
            ("auction", Box::new(|s| s.auction.tolerance = 0.0)),
            (
                "benchmarks",
                Box::new(|s| s.tenants.benchmarks = vec!["gcc".into(); MAX_TENANT_BENCHMARKS + 1]),
            ),
            (
                "work",
                Box::new(|s| {
                    s.epochs = MAX_EPOCHS;
                    s.auction.max_iterations = MAX_AUCTION_ITERATIONS;
                }),
            ),
            (
                "no arrivals",
                Box::new(|s| {
                    s.arrivals.base_rate = 0.0;
                    s.arrivals.burst_len = 0;
                }),
            ),
        ];
        for (what, mutate) in cases {
            let mut sc = Scenario::example_bursty();
            mutate(&mut sc);
            assert!(sc.validate().is_err(), "{what} should fail validation");
        }
        Scenario::example_bursty().validate().unwrap();
    }

    #[test]
    fn calibrated_source_requires_suite_benchmarks() {
        let mut sc = Scenario::example_bursty();
        sc.surfaces.source = "calibrated".to_string();
        sc.tenants.benchmarks = vec!["not-a-benchmark".to_string()];
        assert!(sc.validate().is_err());
        sc.tenants.benchmarks = vec!["gcc".to_string(), "mcf".to_string()];
        sc.validate().unwrap();
    }

    #[test]
    fn benchmark_names_are_capped_in_bytes() {
        let mut sc = Scenario::example_bursty();
        sc.tenants.benchmarks = vec!["é".repeat(MAX_BENCHMARK_NAME_BYTES / 2)];
        sc.validate().unwrap();
        sc.tenants
            .benchmarks
            .push("x".repeat(MAX_BENCHMARK_NAME_BYTES + 1));
        let err = sc.validate().unwrap_err();
        assert!(err.contains("benchmarks"), "{err}");
        assert!(err.contains(&MAX_BENCHMARK_NAME_BYTES.to_string()), "{err}");
    }

    #[test]
    fn benchmark_list_is_capped_duplicates_included() {
        let mut sc = Scenario::example_bursty();
        sc.tenants.benchmarks = vec!["gcc".into(); MAX_TENANT_BENCHMARKS];
        sc.validate().unwrap();
        sc.tenants.benchmarks.push("mcf".into());
        assert!(sc.validate().unwrap_err().contains("benchmarks"));
    }

    #[test]
    fn fleet_geometry_helpers() {
        let sc = Scenario::example_bursty();
        assert_eq!(sc.slices_per_chip(), 64);
        assert_eq!(sc.banks_per_chip(), 64);
        assert!(sc.is_bursty());
    }
}
