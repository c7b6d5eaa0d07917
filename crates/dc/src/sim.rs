//! The discrete-event datacenter engine.
//!
//! A [`DcSim`] replays a seeded tenant trace against a [`Cloud`] of
//! Sharing Architecture chips. Every `epoch_cycles` cycles the market
//! clears: under [`BillingMode::Sharing`] the resident tenants bid in a
//! tâtonnement auction (`sharing-market`), take the shapes and VCore
//! counts their budgets buy at the clearing prices, and pay the paper's
//! reconfiguration costs when the market moves them; under
//! [`BillingMode::Fixed`] every tenant rents as many copies of one fixed
//! instance shape as its budget covers at a flat tariff. Both modes share
//! the *same* arrival trace for a given seed, so their revenue, utility,
//! and fragmentation series are directly comparable.
//!
//! Per-config performance comes from a [`SurfaceCatalog`] built once up
//! front — calibrated `sharing-core` sweeps or synthetic surfaces — so
//! the event loop never blocks on cycle-level simulation. Catalogs are
//! memoized per surface spec, so a scenario run again in the same
//! process reuses the one it built before.

use crate::events::{EventKind, EventQueue, TenantSpawn};
use crate::scenario::Scenario;
use sharing_core::par;
use sharing_core::{ReconfigCosts, VCoreShape};
use sharing_hv::billing::{Ledger, Tariff};
use sharing_hv::cloud::{Cloud, CloudLease};
use sharing_hv::hypervisor::Hypervisor;
use sharing_json::json_struct;
use sharing_market::auction::{Auction, Bidder, UtilityTable};
use sharing_market::utility::{UtilityFn, ALL_UTILITIES};
use sharing_market::{ExperimentSpec, Market, PerfSurface, SuiteSurfaces};
use sharing_trace::rng::Rng64;
use sharing_trace::Benchmark;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::{self, Write as _};
use std::panic::resume_unwind;
use std::sync::{Arc, Mutex, OnceLock};

/// FNV-1a over bytes; used for synthetic surface shaping and log hashing.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Event-log bytes reserved per queued event: its own line, an
/// arrival's departure line and the reconfiguration lines of a typical
/// run. A longer log grows as a `String` does.
const LOG_BYTES_PER_EVENT: usize = 256;
/// Bytes reserved per epoch-CSV row.
const CSV_ROW_BYTES: usize = 128;

/// `10^places` for every precision [`Fixed`] writes itself.
const POW10: [u64; 7] = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000];

/// A float written to a fixed number of decimal places: byte for byte
/// what `{:.places$}` writes, including width and alignment, without
/// `core::fmt`'s exact float path.
///
/// A finite `x` is exactly `m·2^e` with `m < 2^53`, so `x·10^places` is
/// the exact ratio `m·10^places / 2^−e`. For `e ≤ 40` and `places ≤ 6`
/// the numerator fits a `u128`: the quotient is the digits and the
/// remainder, against half of `2^−e`, rounds them, ties to even, as
/// `{:.N}` does. A negative `x` keeps its sign even when it rounds to
/// zero (`-0.0000`). NaN, ±∞, `e > 40` and wider precisions are written
/// by `{:.N}` itself.
struct Fixed(f64, usize);

impl Fixed {
    /// The digits in the tail of `buf`, or `None` where `{:.N}` writes them.
    fn digits(&self, buf: &mut [u8; 40]) -> Option<usize> {
        let Fixed(x, places) = *self;
        let bits = x.to_bits();
        let biased = ((bits >> 52) & 0x7ff) as i32;
        let fraction = bits & ((1 << 52) - 1);
        let (m, e) = match biased {
            0x7ff => return None,
            0 => (fraction, -1074),
            _ => (fraction | 1 << 52, biased - 1075),
        };
        if e > 40 || places >= POW10.len() {
            return None;
        }
        let p = POW10[places];
        let scaled = u128::from(m) * u128::from(p);
        let q = if e >= 0 {
            scaled << e
        } else if e > -128 {
            let s = e.unsigned_abs();
            let q = scaled >> s;
            let r = scaled & ((1 << s) - 1);
            let half = 1 << (s - 1);
            q + u128::from(r > half || (r == half && q & 1 == 1))
        } else {
            // `scaled < 2^73`, short of half of `2^128`: rounds to zero.
            0
        };
        let int = q / u128::from(p);
        let end = buf.len();
        let mut at = put_digits(buf, end, (q % u128::from(p)) as u64, places);
        if places > 0 {
            at -= 1;
            buf[at] = b'.';
        }
        // `int < 2^113`: past `u64`, the low 19 digits and then the rest.
        const E19: u128 = 10_000_000_000_000_000_000;
        at = match u64::try_from(int) {
            Ok(int) => put_digits(buf, at, int, 1),
            Err(_) => {
                let at = put_digits(buf, at, (int % E19) as u64, 19);
                put_digits(buf, at, (int / E19) as u64, 1)
            }
        };
        if bits >> 63 == 1 {
            at -= 1;
            buf[at] = b'-';
        }
        Some(at)
    }
}

/// Writes `v` in decimal, zero-padded to `width` digits, so that it ends
/// just before `buf[end]`; returns where it starts.
fn put_digits(buf: &mut [u8], mut end: usize, mut v: u64, width: usize) -> usize {
    let stop = end - width;
    while v > 0 || end > stop {
        end -= 1;
        buf[end] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    end
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = [0u8; 40];
        match self.digits(&mut buf) {
            Some(at) => f.pad(std::str::from_utf8(&buf[at..]).expect("ASCII digits")),
            None => f.pad(&format!("{:.*}", self.1, self.0)),
        }
    }
}

/// Appends `x` to `places` decimals: the bytes of `{:.places$}`.
fn push_fixed(out: &mut String, x: f64, places: usize) {
    let mut buf = [0u8; 40];
    match Fixed(x, places).digits(&mut buf) {
        Some(at) => out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits")),
        None => {
            let _ = write!(out, "{x:.places$}");
        }
    }
}

/// Appends `v` in decimal, right-aligned in `width` columns: the bytes
/// of `{:>width$}`.
fn push_uint(out: &mut String, v: u64, width: usize) {
    let mut buf = [0u8; 20];
    let at = put_digits(&mut buf, 20, v, 1);
    for _ in buf.len() - at..width {
        out.push(' ');
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// Appends each integer of `fields` after its label, e.g.
/// `[(" tenant=", 7)]` as ` tenant=7`.
fn push_ints(out: &mut String, fields: &[(&str, u64)]) {
    for &(label, v) in fields {
        out.push_str(label);
        push_uint(out, v, 0);
    }
}

/// Appends each float of `fields` after its label, to `places`
/// decimals.
fn push_floats(out: &mut String, fields: &[(&str, f64)], places: usize) {
    for &(label, x) in fields {
        out.push_str(label);
        push_fixed(out, x, places);
    }
}

/// Starts an event-log line: `[t=` and the time right-aligned in 12
/// columns, then `] ` and `event`.
fn push_event(out: &mut String, time: u64, event: &str) {
    out.push_str("[t=");
    push_uint(out, time, 12);
    out.push_str("] ");
    out.push_str(event);
}

/// Appends a shape as its `Display` writes it (`4s/256KB`).
fn push_shape(out: &mut String, shape: VCoreShape) {
    push_uint(out, shape.slices as u64, 0);
    out.push_str("s/");
    push_uint(out, shape.l2_kb(), 0);
    out.push_str("KB");
}

/// Per-workload performance surfaces, resolved before the event loop
/// starts, with each surface's `P^k` table under every utility function.
/// Every epoch's auction bids the tables by reference count, never by
/// copy, and they all share one shape grid.
#[derive(Clone, Debug)]
pub struct SurfaceCatalog {
    entries: Vec<Arc<PerfSurface>>,
    /// Per entry, one table per utility in [`ALL_UTILITIES`] order.
    tables: Vec<[Arc<UtilityTable>; ALL_UTILITIES.len()]>,
}

impl SurfaceCatalog {
    /// Builds the catalog a scenario asks for.
    ///
    /// # Errors
    ///
    /// Returns a message when the scenario names an unknown source or,
    /// for calibrated surfaces, an unknown benchmark.
    pub fn build(sc: &Scenario) -> Result<Self, String> {
        let names = sc.tenants.benchmark_names();
        let entries: Vec<Arc<PerfSurface>> = match sc.surfaces.source.as_str() {
            "synthetic" => names.iter().map(|n| Arc::new(Self::synthetic(n))).collect(),
            "calibrated" => {
                let benches: Vec<Benchmark> = names
                    .iter()
                    .map(|n| {
                        Benchmark::from_name(n).ok_or_else(|| format!("unknown benchmark `{n}`"))
                    })
                    .collect::<Result<_, String>>()?;
                let spec = ExperimentSpec {
                    trace_len: sc.surfaces.trace_len,
                    seed: sc.surfaces.sweep_seed,
                    calibration: sharing_trace::CALIBRATION_VERSION,
                };
                let suite = SuiteSurfaces::build_subset(spec, &benches);
                benches
                    .iter()
                    .map(|&b| Arc::new(suite.surface(b).clone()))
                    .collect()
            }
            other => return Err(format!("unknown surface source `{other}`")),
        };
        // Synthetic surfaces come from `PerfSurface::from_fn` and
        // calibrated ones from a `SuiteSurfaces` sweep: both cover the
        // sweep grid in grid order, which `UtilityTable::new` asserts.
        let grid: Arc<[VCoreShape]> = VCoreShape::sweep_grid().collect();
        let tables = entries
            .iter()
            .map(|s| ALL_UTILITIES.map(|u| Arc::new(UtilityTable::new(&grid, s, u))))
            .collect();
        Ok(SurfaceCatalog { entries, tables })
    }

    /// A smooth synthetic `P(c, s)` whose Slice- and cache-affinity are
    /// derived from the workload's name, so different names yield
    /// differently shaped tenants (which is what gives the market
    /// something to arbitrage).
    #[must_use]
    pub fn synthetic(name: &str) -> PerfSurface {
        let h = fnv64(name.as_bytes());
        let slice_love = 0.3 + 1.7 * ((h >> 8) & 0xFFFF) as f64 / 65535.0;
        let cache_love = 0.3 + 2.2 * ((h >> 24) & 0xFFFF) as f64 / 65535.0;
        PerfSurface::from_fn(name, move |s| {
            (1.0 + slice_love * (s.slices as f64).ln())
                * (1.0 + cache_love * (1.0 + s.l2_banks as f64).ln() / 4.0)
        })
    }

    /// The surface at a catalog index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[must_use]
    pub fn surface(&self, index: usize) -> &Arc<PerfSurface> {
        &self.entries[index]
    }

    /// The `P^k` table of the surface at a catalog index under `utility`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[must_use]
    pub fn table(&self, index: usize, utility: UtilityFn) -> &Arc<UtilityTable> {
        let u = ALL_UTILITIES
            .iter()
            .position(|&x| x == utility)
            .expect("ALL_UTILITIES lists every utility");
        &self.tables[index][u]
    }

    /// The workload name at a catalog index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[must_use]
    pub fn name(&self, index: usize) -> &str {
        self.entries[index].name()
    }

    /// Number of workloads.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Everything [`SurfaceCatalog::build`] reads from a scenario: two
/// scenarios with equal keys get equal catalogs.
#[derive(Clone, Debug, PartialEq, Eq)]
struct CatalogKey {
    source: String,
    names: Vec<String>,
    /// `(trace_len, sweep_seed)` for calibrated surfaces; synthetic
    /// ones read neither.
    sweep: Option<(usize, u64)>,
}

impl CatalogKey {
    fn of(sc: &Scenario) -> Self {
        let s = &sc.surfaces;
        CatalogKey {
            source: s.source.clone(),
            names: sc.tenants.benchmark_names(),
            sweep: (s.source == "calibrated").then_some((s.trace_len, s.sweep_seed)),
        }
    }
}

/// Most catalogs [`CATALOGS`] holds.
const CATALOG_MEMO_CAP: usize = 8;

/// Catalogs already built, oldest first, at most `cap` of them.
struct CatalogMemo {
    cap: usize,
    held: Mutex<VecDeque<(CatalogKey, Arc<SurfaceCatalog>)>>,
}

/// The process-wide memo [`DcSim::new`] takes its catalogs from: every
/// run of a repeated scenario after the first skips the build.
static CATALOGS: CatalogMemo = CatalogMemo::new(CATALOG_MEMO_CAP);

impl CatalogMemo {
    const fn new(cap: usize) -> Self {
        CatalogMemo {
            cap,
            held: Mutex::new(VecDeque::new()),
        }
    }

    fn lookup(&self, key: &CatalogKey) -> Option<Arc<SurfaceCatalog>> {
        let held = self.held.lock().expect("catalog memo lock");
        held.iter()
            .find(|(k, _)| k == key)
            .map(|(_, c)| Arc::clone(c))
    }

    /// The scenario's catalog, built outside the lock on a miss. A
    /// failed build is returned and not kept; past `cap` catalogs the
    /// oldest goes.
    fn get(&self, sc: &Scenario) -> Result<Arc<SurfaceCatalog>, String> {
        let key = CatalogKey::of(sc);
        if let Some(hit) = self.lookup(&key) {
            return Ok(hit);
        }
        let built = Arc::new(SurfaceCatalog::build(sc)?);
        let mut held = self.held.lock().expect("catalog memo lock");
        // Another thread may have built the same catalog meanwhile.
        if let Some((_, c)) = held.iter().find(|(k, _)| *k == key) {
            return Ok(Arc::clone(c));
        }
        if held.len() == self.cap {
            held.pop_front();
        }
        held.push_back((key, Arc::clone(&built)));
        Ok(built)
    }
}

/// Which billing regime a run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BillingMode {
    /// Epoch auctions over Slices and banks (the paper's market).
    Sharing,
    /// One fixed instance shape at a flat tariff.
    Fixed,
}

impl BillingMode {
    /// The mode's lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BillingMode::Sharing => "sharing",
            BillingMode::Fixed => "fixed",
        }
    }

    /// Parses a mode name.
    ///
    /// # Errors
    ///
    /// Returns a message for anything but `sharing` / `fixed`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "sharing" => Ok(BillingMode::Sharing),
            "fixed" => Ok(BillingMode::Fixed),
            other => Err(format!(
                "unknown mode `{other}` (expected sharing or fixed)"
            )),
        }
    }
}

/// One epoch's metered outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochRecord {
    /// Epoch index.
    pub epoch: usize,
    /// Residents at clearing time.
    pub tenants: usize,
    /// Per-Slice price this epoch.
    pub slice_price: f64,
    /// Per-bank price this epoch.
    pub bank_price: f64,
    /// Revenue metered this epoch.
    pub revenue: f64,
    /// Counterfactual fixed-instance revenue for the same leases.
    pub fixed_instance_revenue: f64,
    /// Aggregate tenant utility realized this epoch.
    pub utility: f64,
    /// VCores placed.
    pub placed_vcores: usize,
    /// VCores wanted but denied by placement.
    pub denied_vcores: usize,
    /// Tenants whose budget bought less than one VCore.
    pub priced_out: usize,
    /// Reconfiguration cycles charged this epoch.
    pub reconfig_cycles: u64,
    /// Mean Slice utilization across chips.
    pub slice_utilization: f64,
    /// Mean Slice fragmentation across chips.
    pub fragmentation: f64,
}

/// Whole-run totals (the server's reply payload for dc jobs).
#[derive(Clone, Debug, PartialEq)]
pub struct Totals {
    /// Billing mode name.
    pub mode: String,
    /// Epochs simulated.
    pub epochs: usize,
    /// Tenant arrivals processed.
    pub arrivals: u64,
    /// Tenant departures processed.
    pub departures: u64,
    /// Peak resident population.
    pub peak_tenants: usize,
    /// Σ per-epoch utility.
    pub aggregate_utility: f64,
    /// Σ metered revenue.
    pub revenue: f64,
    /// Σ fixed-instance counterfactual revenue.
    pub fixed_instance_revenue: f64,
    /// Σ reconfiguration cycles charged.
    pub reconfig_cycles: u64,
    /// Σ VCore placement denials.
    pub denied_vcores: u64,
    /// Σ priced-out tenant-epochs.
    pub priced_out: u64,
    /// Mean fragmentation over epochs.
    pub mean_fragmentation: f64,
    /// Highest clearing Slice price seen.
    pub peak_slice_price: f64,
    /// FNV-1a of the event log, for remote determinism checks.
    pub log_hash: String,
}

json_struct!(Totals {
    mode,
    epochs,
    arrivals,
    departures,
    peak_tenants,
    aggregate_utility,
    revenue,
    fixed_instance_revenue,
    reconfig_cycles,
    denied_vcores,
    priced_out,
    mean_fragmentation,
    peak_slice_price,
    log_hash
});

/// The result of one run: the epoch series plus the replayable event log.
#[derive(Clone, Debug)]
pub struct DcOutcome {
    /// Billing mode of the run.
    pub mode: BillingMode,
    /// Scenario name.
    pub scenario: String,
    /// Per-epoch records, one per scenario epoch.
    pub records: Vec<EpochRecord>,
    /// Human-readable, deterministic event log.
    log: String,
    /// FNV-1a of `log`, hashed once when the run returns.
    log_hash: u64,
    /// Arrivals processed.
    pub arrivals: u64,
    /// Departures processed.
    pub departures: u64,
    /// Peak resident population.
    pub peak_tenants: usize,
}

impl DcOutcome {
    /// Whole-run totals.
    #[must_use]
    pub fn totals(&self) -> Totals {
        let epochs = self.records.len();
        let mean_frag = if epochs == 0 {
            0.0
        } else {
            self.records.iter().map(|r| r.fragmentation).sum::<f64>() / epochs as f64
        };
        Totals {
            mode: self.mode.name().to_string(),
            epochs,
            arrivals: self.arrivals,
            departures: self.departures,
            peak_tenants: self.peak_tenants,
            aggregate_utility: self.records.iter().map(|r| r.utility).sum(),
            revenue: self.records.iter().map(|r| r.revenue).sum(),
            fixed_instance_revenue: self.records.iter().map(|r| r.fixed_instance_revenue).sum(),
            reconfig_cycles: self.records.iter().map(|r| r.reconfig_cycles).sum(),
            denied_vcores: self.records.iter().map(|r| r.denied_vcores as u64).sum(),
            priced_out: self.records.iter().map(|r| r.priced_out as u64).sum(),
            mean_fragmentation: mean_frag,
            peak_slice_price: self
                .records
                .iter()
                .map(|r| r.slice_price)
                .fold(0.0, f64::max),
            log_hash: self.log_hash(),
        }
    }

    /// The human-readable, deterministic event log.
    #[must_use]
    pub fn log(&self) -> &str {
        &self.log
    }

    /// FNV-1a hash of the event log, hex-encoded.
    #[must_use]
    pub fn log_hash(&self) -> String {
        format!("{:016x}", self.log_hash)
    }

    /// The epoch series as CSV (deterministic formatting).
    #[must_use]
    pub fn csv(&self) -> String {
        const HEADER: &str = "epoch,tenants,slice_price,bank_price,revenue,\
            fixed_instance_revenue,utility,placed_vcores,denied_vcores,priced_out,\
            reconfig_cycles,slice_utilization,fragmentation\n";
        let mut out = String::with_capacity(HEADER.len() + CSV_ROW_BYTES * self.records.len());
        out.push_str(HEADER);
        for r in &self.records {
            for v in [r.epoch as u64, r.tenants as u64] {
                push_uint(&mut out, v, 0);
                out.push(',');
            }
            for x in [
                r.slice_price,
                r.bank_price,
                r.revenue,
                r.fixed_instance_revenue,
                r.utility,
            ] {
                push_fixed(&mut out, x, 6);
                out.push(',');
            }
            for v in [
                r.placed_vcores as u64,
                r.denied_vcores as u64,
                r.priced_out as u64,
                r.reconfig_cycles,
            ] {
                push_uint(&mut out, v, 0);
                out.push(',');
            }
            push_fixed(&mut out, r.slice_utilization, 6);
            out.push(',');
            push_fixed(&mut out, r.fragmentation, 6);
            out.push('\n');
        }
        out
    }

    /// A short human summary of the run.
    #[must_use]
    pub fn summary(&self) -> String {
        let t = self.totals();
        format!(
            "{} [{}]: {} epochs, {} arrivals ({} peak residents), \
             utility {}, revenue {}, {} denied VCores, \
             {} reconfig cycles, mean fragmentation {}",
            self.scenario,
            t.mode,
            t.epochs,
            t.arrivals,
            t.peak_tenants,
            Fixed(t.aggregate_utility, 1),
            Fixed(t.revenue, 1),
            t.denied_vcores,
            t.reconfig_cycles,
            Fixed(t.mean_fragmentation, 3),
        )
    }
}

/// Sharing-vs-fixed outcomes over the *same* seeded arrival trace.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// The spot-market run.
    pub sharing: DcOutcome,
    /// The fixed-instance run.
    pub fixed: DcOutcome,
}

/// Aggregate-utility ratio of two runs' totals, `s` over `f`.
fn utility_gain(s: &Totals, f: &Totals) -> f64 {
    let (s, f) = (s.aggregate_utility, f.aggregate_utility);
    if f > 0.0 {
        s / f
    } else if s > 0.0 {
        f64::INFINITY
    } else {
        1.0
    }
}

/// Revenue ratio of two runs' totals, `s` over `f`.
fn revenue_ratio(s: &Totals, f: &Totals) -> f64 {
    if f.revenue > 0.0 {
        s.revenue / f.revenue
    } else {
        1.0
    }
}

impl Comparison {
    /// Aggregate-utility ratio, sharing over fixed.
    #[must_use]
    pub fn utility_gain(&self) -> f64 {
        utility_gain(&self.sharing.totals(), &self.fixed.totals())
    }

    /// Revenue ratio, sharing over fixed.
    #[must_use]
    pub fn revenue_ratio(&self) -> f64 {
        revenue_ratio(&self.sharing.totals(), &self.fixed.totals())
    }

    /// A side-by-side text summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let s = self.sharing.totals();
        let f = self.fixed.totals();
        let mut out = String::new();
        let _ = writeln!(out, "{:<24} {:>14} {:>14}", "metric", "sharing", "fixed");
        let mut row = |name: &str, a: f64, b: f64| {
            let _ = writeln!(out, "{name:<24} {:>14} {:>14}", Fixed(a, 2), Fixed(b, 2));
        };
        row(
            "aggregate utility",
            s.aggregate_utility,
            f.aggregate_utility,
        );
        row("revenue", s.revenue, f.revenue);
        row(
            "fixed counterfactual",
            s.fixed_instance_revenue,
            f.fixed_instance_revenue,
        );
        row(
            "denied vcores",
            s.denied_vcores as f64,
            f.denied_vcores as f64,
        );
        row(
            "priced-out epochs",
            s.priced_out as f64,
            f.priced_out as f64,
        );
        row(
            "reconfig cycles",
            s.reconfig_cycles as f64,
            f.reconfig_cycles as f64,
        );
        row(
            "mean fragmentation",
            s.mean_fragmentation,
            f.mean_fragmentation,
        );
        row("peak slice price", s.peak_slice_price, f.peak_slice_price);
        let _ = writeln!(
            out,
            "utility gain {}x, revenue ratio {}x",
            Fixed(utility_gain(&s, &f), 3),
            Fixed(revenue_ratio(&s, &f), 3)
        );
        out
    }
}

/// A resident tenant.
#[derive(Clone, Debug)]
struct Tenant {
    spawn: TenantSpawn,
    arrived_epoch: usize,
    shape: Option<VCoreShape>,
    leases: Vec<CloudLease>,
}

/// Poisson sample via Knuth's product method (fine for the per-epoch
/// rates scenarios use).
fn poisson(rng: &mut Rng64, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let limit = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.f64();
        if p <= limit || k > 10_000 {
            return k;
        }
        k += 1;
    }
}

/// Geometric residence with the given mean, capped at `cap` epochs.
fn geometric(rng: &mut Rng64, mean: f64, cap: usize) -> usize {
    let p = 1.0 / mean.max(1.0);
    let mut r = 1usize;
    while r < cap && !rng.bool(p) {
        r += 1;
    }
    r
}

/// The datacenter simulator: a validated scenario plus its resolved
/// surface catalog.
///
/// # Example
///
/// ```
/// use sharing_dc::{BillingMode, DcSim, Scenario};
///
/// let mut sc = Scenario::example_bursty();
/// sc.epochs = 8; // keep the doctest fast
/// let sim = DcSim::new(sc)?;
/// let outcome = sim.run(BillingMode::Sharing, 42);
/// assert_eq!(outcome.records.len(), 8);
/// # Ok::<(), String>(())
/// ```
#[derive(Clone, Debug)]
pub struct DcSim {
    scenario: Scenario,
    catalog: Arc<SurfaceCatalog>,
}

impl DcSim {
    /// Validates the scenario and resolves its performance surfaces
    /// (calibrated sweeps run here, once, not inside the event loop). A
    /// scenario whose surface spec the process has built recently shares
    /// that catalog.
    ///
    /// # Errors
    ///
    /// Returns the first validation or catalog problem.
    pub fn new(scenario: Scenario) -> Result<Self, String> {
        scenario.validate()?;
        let catalog = CATALOGS.get(&scenario)?;
        let fixed = scenario.fixed_instance.to_shape()?;
        for i in 0..catalog.len() {
            if catalog.surface(i).get(fixed).is_none() {
                return Err(format!(
                    "surface `{}` does not cover the fixed instance {fixed}",
                    catalog.name(i)
                ));
            }
        }
        Ok(DcSim { scenario, catalog })
    }

    /// The validated scenario.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The resolved surface catalog.
    #[must_use]
    pub fn catalog(&self) -> &SurfaceCatalog {
        &self.catalog
    }

    /// Pre-generates the seeded event trace. All randomness is consumed
    /// here, before the clock starts, so [`BillingMode::Sharing`] and
    /// [`BillingMode::Fixed`] replay the *same* tenant population.
    fn build_events(&self, seed: u64) -> EventQueue {
        let sc = &self.scenario;
        let e = sc.epoch_cycles;
        let mut rng = Rng64::seed_from_u64(seed);
        let mut queue = EventQueue::new();
        for epoch in 0..sc.epochs {
            queue.push(epoch as u64 * e, EventKind::EpochClear { epoch });
        }
        let a = &sc.arrivals;
        let burst_end = a.burst_start.saturating_add(a.burst_len);
        let mut next_id = 1u64;
        for epoch in 0..sc.epochs {
            let in_burst = epoch >= a.burst_start && epoch < burst_end;
            let rate = if in_burst { a.burst_rate } else { a.base_rate };
            for _ in 0..poisson(&mut rng, rate) {
                // Strictly inside the epoch: after this epoch's clearing,
                // before the next one.
                let offset = 1 + rng.below(e - 1);
                let spawn = TenantSpawn {
                    id: next_id,
                    bench: rng.below(self.catalog.len() as u64) as usize,
                    utility: ALL_UTILITIES[rng.below(ALL_UTILITIES.len() as u64) as usize],
                    budget: sc.tenants.budget_min
                        + rng.f64() * (sc.tenants.budget_max - sc.tenants.budget_min),
                    residence: geometric(&mut rng, a.mean_residence, sc.epochs),
                };
                next_id += 1;
                queue.push(epoch as u64 * e + offset, EventKind::Arrive(spawn));
            }
        }
        queue.push(sc.epochs as u64 * e, EventKind::End);
        queue
    }

    /// Runs the scenario under one billing mode.
    ///
    /// Bit-for-bit deterministic: the same `(scenario, mode, seed)` always
    /// produces byte-identical [`DcOutcome::log`] and [`DcOutcome::csv`].
    #[must_use]
    pub fn run(&self, mode: BillingMode, seed: u64) -> DcOutcome {
        self.run_traced(mode, seed, None)
    }

    /// [`DcSim::run`] with optional tracing: when `obs` is given, every
    /// epoch emits *logical-cycle* spans — an epoch-wide span plus one
    /// span per clearing phase (auction, placement, billing) — whose
    /// timestamps are simulated cycles and whose durations are
    /// deterministic work counts (bidders, VCores touched, chips
    /// metered). Tracing reads no clock and consumes no randomness, so
    /// the outcome (log, CSV, hash) is byte-identical with or without it.
    #[must_use]
    pub fn run_traced(
        &self,
        mode: BillingMode,
        seed: u64,
        obs: Option<&sharing_obs::TraceBuffer>,
    ) -> DcOutcome {
        let sc = &self.scenario;
        let policy = sc.placement_policy().expect("scenario validated");
        let mut queue = self.build_events(seed);
        let mut engine = Engine {
            sim: self,
            mode,
            cloud: Cloud::new(sc.chips, sc.rows as u16, sc.cols as u16, policy),
            ledgers: (0..sc.chips).map(|_| Ledger::new()).collect(),
            residents: BTreeMap::new(),
            fixed_shape: sc.fixed_instance.to_shape().expect("scenario validated"),
            fixed_tariff: sc.fixed_tariff.to_tariff(),
            costs: ReconfigCosts::paper(),
            last_prices: (Market::MARKET2.slice_price, Market::MARKET2.bank_price),
            auction: Auction::new(
                (sc.chips * sc.slices_per_chip()) as f64,
                (sc.chips * sc.banks_per_chip()).max(1) as f64,
            ),
            plans: Vec::new(),
            log: String::with_capacity(LOG_BYTES_PER_EVENT * queue.len()),
            records: Vec::with_capacity(sc.epochs),
            arrivals: 0,
            departures: 0,
            peak_tenants: 0,
            obs,
        };
        let _ = writeln!(
            engine.log,
            "# scenario={} mode={} seed={} chips={} slices/chip={} banks/chip={}",
            sc.name,
            mode.name(),
            seed,
            sc.chips,
            sc.slices_per_chip(),
            sc.banks_per_chip(),
        );
        while let Some(ev) = queue.pop() {
            match ev.kind {
                EventKind::Arrive(spawn) => engine.on_arrive(ev.time, spawn, &mut queue),
                EventKind::Depart { tenant } => engine.on_depart(ev.time, tenant),
                EventKind::EpochClear { epoch } => engine.on_clear(ev.time, epoch),
                EventKind::End => {
                    push_event(&mut engine.log, ev.time, "end:");
                    push_ints(
                        &mut engine.log,
                        &[
                            (" arrivals=", engine.arrivals),
                            (" departures=", engine.departures),
                            (" peak_tenants=", engine.peak_tenants as u64),
                        ],
                    );
                    engine.log.push('\n');
                    break;
                }
            }
        }
        DcOutcome {
            mode,
            scenario: sc.name.clone(),
            records: engine.records,
            log_hash: fnv64(engine.log.as_bytes()),
            log: engine.log,
            arrivals: engine.arrivals,
            departures: engine.departures,
            peak_tenants: engine.peak_tenants,
        }
    }

    /// Runs both billing modes over the same seeded trace.
    #[must_use]
    pub fn run_comparison(&self, seed: u64) -> Comparison {
        self.run_comparison_traced(seed, None)
    }

    /// [`DcSim::run_comparison`] with optional tracing; each mode's
    /// spans land on its own track pair (see [`DcSim::run_traced`]).
    ///
    /// The two modes share nothing but the scenario and catalog, so on a
    /// host with a second CPU the fixed mode runs on a scoped thread
    /// beside the sharing mode. Each records into a buffer of its own,
    /// and the sharing mode's spans are appended to `obs` before the
    /// fixed mode's, the order a run of one after the other leaves.
    #[must_use]
    pub fn run_comparison_traced(
        &self,
        seed: u64,
        obs: Option<&sharing_obs::TraceBuffer>,
    ) -> Comparison {
        static WORKERS: OnceLock<usize> = OnceLock::new();
        let traced = |mode| {
            let buf = obs.map(|_| sharing_obs::TraceBuffer::new());
            (self.run_traced(mode, seed, buf.as_ref()), buf)
        };
        let ((sharing, sharing_spans), (fixed, fixed_spans)) =
            if *WORKERS.get_or_init(|| par::resolve_jobs(None).min(2)) == 2 {
                std::thread::scope(|s| {
                    let fixed = s.spawn(|| traced(BillingMode::Fixed));
                    let sharing = traced(BillingMode::Sharing);
                    (sharing, fixed.join().unwrap_or_else(|p| resume_unwind(p)))
                })
            } else {
                (traced(BillingMode::Sharing), traced(BillingMode::Fixed))
            };
        if let Some(obs) = obs {
            for buf in [sharing_spans, fixed_spans].into_iter().flatten() {
                for ev in buf.snapshot() {
                    obs.record(ev);
                }
            }
        }
        Comparison { sharing, fixed }
    }
}

/// Mutable state of one run.
struct Engine<'a> {
    sim: &'a DcSim,
    mode: BillingMode,
    cloud: Cloud,
    ledgers: Vec<Ledger>,
    residents: BTreeMap<u64, Tenant>,
    fixed_shape: VCoreShape,
    fixed_tariff: Tariff,
    costs: ReconfigCosts,
    last_prices: (f64, f64),
    /// The sharing mode's auction, its bidders replaced every epoch.
    auction: Auction,
    /// The epoch's plans, refilled by every clearing.
    plans: Vec<Plan>,
    log: String,
    records: Vec<EpochRecord>,
    arrivals: u64,
    departures: u64,
    peak_tenants: usize,
    obs: Option<&'a sharing_obs::TraceBuffer>,
}

/// One tenant's cleared plan for an epoch.
struct Plan {
    tenant: u64,
    shape: VCoreShape,
    want: usize,
}

impl Engine<'_> {
    fn on_arrive(&mut self, time: u64, spawn: TenantSpawn, queue: &mut EventQueue) {
        let sc = &self.sim.scenario;
        let epoch = (time / sc.epoch_cycles) as usize;
        let departs = epoch + spawn.residence;
        if departs < sc.epochs {
            queue.push(
                departs as u64 * sc.epoch_cycles,
                EventKind::Depart { tenant: spawn.id },
            );
        }
        let log = &mut self.log;
        push_event(log, time, "arrive");
        push_ints(log, &[(" tenant=", spawn.id)]);
        log.push_str(" bench=");
        log.push_str(self.sim.catalog.name(spawn.bench));
        log.push_str(" utility=");
        log.push_str(spawn.utility.name());
        push_floats(log, &[(" budget=", spawn.budget)], 2);
        push_ints(log, &[(" residence=", spawn.residence as u64)]);
        log.push('\n');
        self.arrivals += 1;
        self.residents.insert(
            spawn.id,
            Tenant {
                spawn,
                arrived_epoch: epoch,
                shape: None,
                leases: Vec::new(),
            },
        );
        self.peak_tenants = self.peak_tenants.max(self.residents.len());
    }

    fn on_depart(&mut self, time: u64, tenant: u64) {
        let Some(t) = self.residents.remove(&tenant) else {
            return;
        };
        for lease in t.leases {
            let _ = self.cloud.release(lease);
        }
        self.departures += 1;
        let epoch = (time / self.sim.scenario.epoch_cycles) as usize;
        push_event(&mut self.log, time, "depart");
        push_ints(
            &mut self.log,
            &[
                (" tenant=", tenant),
                (
                    " held_epochs=",
                    epoch.saturating_sub(t.arrived_epoch) as u64,
                ),
            ],
        );
        self.log.push('\n');
    }

    /// Clears the market for one epoch: price, place, charge, meter.
    fn on_clear(&mut self, time: u64, epoch: usize) {
        let mut rec = EpochRecord {
            epoch,
            tenants: self.residents.len(),
            slice_price: 0.0,
            bank_price: 0.0,
            revenue: 0.0,
            fixed_instance_revenue: 0.0,
            utility: 0.0,
            placed_vcores: 0,
            denied_vcores: 0,
            priced_out: 0,
            reconfig_cycles: 0,
            slice_utilization: 0.0,
            fragmentation: 0.0,
        };
        let tariff = self.clear_prices(&mut rec);
        let plans = std::mem::take(&mut self.plans);
        for plan in &plans {
            self.apply_plan(time, plan, &mut rec);
        }
        self.plans = plans;
        for (i, ledger) in self.ledgers.iter_mut().enumerate() {
            ledger.meter(self.cloud.hypervisor(i), tariff, self.fixed_shape);
            let p = ledger.periods().last().expect("just metered");
            rec.revenue += p.revenue;
            rec.fixed_instance_revenue += p.fixed_instance_revenue;
        }
        let chips = || (0..self.cloud.chip_count()).map(|i| self.cloud.hypervisor(i));
        let n = self.cloud.chip_count() as f64;
        rec.slice_utilization = chips().map(Hypervisor::slice_utilization).sum::<f64>() / n;
        rec.fragmentation = chips()
            .map(|hv| hv.chip().slice_fragmentation())
            .sum::<f64>()
            / n;
        let log = &mut self.log;
        push_event(log, time, "epoch ");
        push_uint(log, epoch as u64, 3);
        push_ints(log, &[(" clear: tenants=", rec.tenants as u64)]);
        push_floats(
            log,
            &[
                (" slice_price=", rec.slice_price),
                (" bank_price=", rec.bank_price),
            ],
            4,
        );
        push_ints(
            log,
            &[
                (" placed=", rec.placed_vcores as u64),
                (" denied=", rec.denied_vcores as u64),
                (" priced_out=", rec.priced_out as u64),
                (" reconfig=", rec.reconfig_cycles),
            ],
        );
        push_floats(
            log,
            &[
                (" revenue=", rec.revenue),
                (" utility=", rec.utility),
                (" slice_util=", rec.slice_utilization),
                (" frag=", rec.fragmentation),
            ],
            4,
        );
        log.push('\n');
        self.observe_epoch(time, epoch, &rec);
        self.records.push(rec);
    }

    /// Emits the epoch's logical-cycle spans, when tracing is on.
    ///
    /// Durations are deterministic work counts — bidders priced, VCores
    /// touched, chips metered — laid end to end from the clearing
    /// instant, so a trace of the run is itself replayable. Each billing
    /// mode gets its own track pair (epoch row + phase row).
    fn observe_epoch(&self, time: u64, epoch: usize, rec: &EpochRecord) {
        let Some(obs) = self.obs else { return };
        use sharing_json::Json;
        let base = match self.mode {
            BillingMode::Sharing => 0,
            BillingMode::Fixed => 10,
        };
        let d_auction = (rec.tenants as u64).max(1);
        let d_place = ((rec.placed_vcores + rec.denied_vcores) as u64).max(1);
        let d_bill = (self.ledgers.len() as u64).max(1);
        obs.record_logical(
            format!("epoch {epoch} ({})", self.mode.name()),
            "dc",
            base,
            time,
            self.sim.scenario.epoch_cycles,
            vec![
                ("mode".into(), Json::Str(self.mode.name().into())),
                ("tenants".into(), Json::Int(rec.tenants as i128)),
                ("revenue".into(), Json::Float(rec.revenue)),
                ("utility".into(), Json::Float(rec.utility)),
                ("slice_price".into(), Json::Float(rec.slice_price)),
            ],
        );
        obs.record_logical(
            "auction",
            "dc",
            base + 1,
            time,
            d_auction,
            vec![
                ("bidders".into(), Json::Int(rec.tenants as i128)),
                ("slice_price".into(), Json::Float(rec.slice_price)),
                ("bank_price".into(), Json::Float(rec.bank_price)),
            ],
        );
        obs.record_logical(
            "placement",
            "dc",
            base + 1,
            time + d_auction,
            d_place,
            vec![
                ("placed".into(), Json::Int(rec.placed_vcores as i128)),
                ("denied".into(), Json::Int(rec.denied_vcores as i128)),
                ("priced_out".into(), Json::Int(rec.priced_out as i128)),
                (
                    "reconfig_cycles".into(),
                    Json::Int(i128::from(rec.reconfig_cycles)),
                ),
            ],
        );
        obs.record_logical(
            "billing",
            "dc",
            base + 1,
            time + d_auction + d_place,
            d_bill,
            vec![
                ("chips".into(), Json::Int(self.ledgers.len() as i128)),
                ("revenue".into(), Json::Float(rec.revenue)),
            ],
        );
    }

    /// Prices the epoch, fills `plans` with each resident's (shape,
    /// vcores) plan and returns the epoch's tariff.
    fn clear_prices(&mut self, rec: &mut EpochRecord) -> Tariff {
        let sc = &self.sim.scenario;
        let max_v = sc.tenants.max_vcores;
        self.plans.clear();
        let tariff = match self.mode {
            BillingMode::Fixed => {
                let rate = self.fixed_tariff.rate(self.fixed_shape);
                self.plans.extend(self.residents.values().map(|t| Plan {
                    tenant: t.spawn.id,
                    shape: self.fixed_shape,
                    want: ((t.spawn.budget / rate).floor() as usize).min(max_v),
                }));
                self.fixed_tariff
            }
            BillingMode::Sharing if self.residents.is_empty() => Tariff {
                slice_price: self.last_prices.0,
                bank_price: self.last_prices.1,
            },
            BillingMode::Sharing => {
                self.auction.remove_bidders();
                for t in self.residents.values() {
                    self.auction.add_bidder(Bidder {
                        table: Arc::clone(self.sim.catalog.table(t.spawn.bench, t.spawn.utility)),
                        budget: t.spawn.budget,
                    });
                }
                let clearing = self
                    .auction
                    .clear(sc.auction.max_iterations, sc.auction.tolerance);
                self.last_prices = (clearing.slice_price, clearing.bank_price);
                // Allocations come back in bidder insertion order, which is
                // resident id order (BTreeMap iteration).
                self.plans
                    .extend(self.residents.values().zip(&clearing.allocations).map(
                        |(t, alloc)| Plan {
                            tenant: t.spawn.id,
                            shape: alloc.shape,
                            want: (alloc.vcores.floor() as usize).min(max_v),
                        },
                    ));
                Tariff {
                    slice_price: clearing.slice_price,
                    bank_price: clearing.bank_price,
                }
            }
        };
        rec.slice_price = tariff.slice_price;
        rec.bank_price = tariff.bank_price;
        tariff
    }

    /// Applies one tenant's plan: reconfigure, place, and score utility.
    fn apply_plan(&mut self, time: u64, plan: &Plan, rec: &mut EpochRecord) {
        let sc = &self.sim.scenario;
        let t = self
            .residents
            .get_mut(&plan.tenant)
            .expect("plans come from residents");
        if plan.want == 0 {
            for lease in t.leases.drain(..) {
                let _ = self.cloud.release(lease);
            }
            t.shape = None;
            rec.priced_out += 1;
            push_event(&mut self.log, time, "priced-out");
            push_ints(&mut self.log, &[(" tenant=", plan.tenant)]);
            push_floats(&mut self.log, &[(" budget=", t.spawn.budget)], 2);
            self.log.push('\n');
            return;
        }
        let mut reconfig = 0u64;
        if t.shape == Some(plan.shape) {
            // Same shape: trim or top up without disturbing placed VCores.
            while t.leases.len() > plan.want {
                let lease = t.leases.pop().expect("len checked");
                let _ = self.cloud.release(lease);
            }
            while t.leases.len() < plan.want {
                match self.cloud.lease(plan.shape) {
                    Ok(lease) => t.leases.push(lease),
                    Err(_) => break,
                }
            }
        } else {
            if let Some(old) = t.shape {
                if !t.leases.is_empty() {
                    reconfig = self.costs.cost(old, plan.shape);
                    let log = &mut self.log;
                    push_event(log, time, "reconfig");
                    push_ints(log, &[(" tenant=", plan.tenant)]);
                    log.push(' ');
                    push_shape(log, old);
                    log.push_str(" -> ");
                    push_shape(log, plan.shape);
                    push_ints(log, &[(" cost=", reconfig)]);
                    log.push('\n');
                }
            }
            for lease in t.leases.drain(..) {
                let _ = self.cloud.release(lease);
            }
            t.shape = Some(plan.shape);
            while t.leases.len() < plan.want {
                match self.cloud.lease(plan.shape) {
                    Ok(lease) => t.leases.push(lease),
                    Err(_) => break,
                }
            }
        }
        let placed = t.leases.len();
        if placed < plan.want {
            rec.denied_vcores += plan.want - placed;
            let log = &mut self.log;
            push_event(log, time, "deny");
            push_ints(log, &[(" tenant=", plan.tenant)]);
            log.push_str(" shape=");
            push_shape(log, plan.shape);
            push_ints(
                log,
                &[(" placed=", placed as u64), (" of ", plan.want as u64)],
            );
            log.push('\n');
        }
        rec.placed_vcores += placed;
        rec.reconfig_cycles += reconfig;
        // Reconfiguration eats into the epoch the tenant can actually run.
        let active = 1.0 - (reconfig as f64 / sc.epoch_cycles as f64).min(1.0);
        let perf = self.sim.catalog.surface(t.spawn.bench).perf(plan.shape);
        rec.utility += t.spawn.utility.evaluate(perf, placed as f64) * active;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_scenario() -> Scenario {
        let mut sc = Scenario::example_bursty();
        sc.name = "test-small".to_string();
        sc.chips = 2;
        sc.rows = 4;
        sc.cols = 8; // 16 slices + 16 banks per chip
        sc.epochs = 12;
        sc.epoch_cycles = 10_000;
        sc.arrivals.base_rate = 1.0;
        sc.arrivals.burst_rate = 4.0;
        sc.arrivals.burst_start = 4;
        sc.arrivals.burst_len = 4;
        sc.arrivals.mean_residence = 4.0;
        sc.tenants.budget_min = 30.0;
        sc.tenants.budget_max = 90.0;
        sc.tenants.max_vcores = 2;
        sc
    }

    /// `Fixed` against `{:.N}`, byte for byte, at every precision the
    /// writer handles and one past it, for both signs of every value:
    /// random bit patterns over every exponent (subnormals, NaN and ±∞
    /// included), each side of the `e = 40` fallback, exact ties
    /// `k/2^(N+1)`, and values an ulp either side of `k/10^N` and of the
    /// decimal midpoints `(k + ½)/10^N`.
    #[test]
    fn fixed_writes_the_bytes_of_the_std_formatter() {
        let check = |x: f64, n: usize| {
            for x in [x, -x] {
                let want = format!("{x:.n$}");
                let got = Fixed(x, n).to_string();
                assert_eq!(got, want, "{x:e} to {n} places, bits {:#x}", x.to_bits());
                let mut pushed = String::new();
                push_fixed(&mut pushed, x, n);
                assert_eq!(pushed, want, "{x:e} to {n} places, bits {:#x}", x.to_bits());
                assert_eq!(format!("{:>12}", Fixed(x, n)), format!("{x:>12.n$}"));
            }
        };
        // Every neighbour one ulp away, within the finite non-negatives.
        let around = |x: f64| {
            let b = x.to_bits();
            [b.saturating_sub(1), b, b + 1].map(f64::from_bits)
        };
        let bits = |e: i64, mantissa: u64| f64::from_bits(((e + 1075) as u64) << 52 | mantissa);
        let mut rng = Rng64::seed_from_u64(27);
        for n in 0..=POW10.len() {
            let scale = 10f64.powi(n as i32);
            for x in [
                0.0,
                f64::NAN,
                f64::INFINITY,
                f64::MAX,
                f64::MIN_POSITIVE,
                5e-324,
            ] {
                check(x, n);
            }
            for _ in 0..4_000 {
                // Any bit pattern, then any exponent up to past the fallback.
                check(f64::from_bits(rng.next_u64()), n);
                let mantissa = rng.next_u64() & ((1 << 52) - 1);
                let biased = rng.below(1075 + 48);
                check(f64::from_bits(biased << 52 | mantissa), n);
            }
            for e in 38..=42 {
                for mantissa in [0, 1, (1 << 52) - 1, rng.next_u64() & ((1 << 52) - 1)] {
                    check(bits(e, mantissa), n);
                }
            }
            for _ in 0..2_000 {
                let k = rng.below(1 << 40) | 1;
                check(k as f64 / f64::powi(2.0, n as i32 + 1), n);
                let bound = if rng.bool(0.5) { 1_000 } else { 1 << 50 };
                let k = rng.below(bound);
                for x in around(k as f64 / scale)
                    .into_iter()
                    .chain(around((k as f64 + 0.5) / scale))
                {
                    check(x, n);
                }
            }
        }
    }

    /// `push_uint` against `{:>width$}`, byte for byte: every digit count
    /// of a `u64`, each at widths below, at and above it.
    #[test]
    fn integers_write_the_bytes_of_the_std_formatter() {
        let mut rng = Rng64::seed_from_u64(33);
        let mut values = vec![0, 1, 9, 10, 99, 100, u64::MAX];
        for digits in 1..20 {
            let low = 10u64.pow(digits - 1);
            values.extend([low, 10 * low - 1, low + rng.below(9 * low)]);
        }
        for v in values {
            for width in [0, 1, 3, 12, 19, 20, 24] {
                let mut got = String::new();
                push_uint(&mut got, v, width);
                assert_eq!(got, format!("{v:>width$}"), "{v} in {width} columns");
            }
        }
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let sim = DcSim::new(small_scenario()).unwrap();
        for mode in [BillingMode::Sharing, BillingMode::Fixed] {
            let a = sim.run(mode, 2014);
            let b = sim.run(mode, 2014);
            assert_eq!(a.log(), b.log(), "{} log must replay", mode.name());
            assert_eq!(a.csv(), b.csv(), "{} csv must replay", mode.name());
            assert_eq!(a.log_hash(), b.log_hash());
        }
    }

    #[test]
    fn tracing_leaves_outputs_byte_identical() {
        let sim = DcSim::new(small_scenario()).unwrap();
        let obs = sharing_obs::TraceBuffer::new();
        for mode in [BillingMode::Sharing, BillingMode::Fixed] {
            let plain = sim.run(mode, 2014);
            let traced = sim.run_traced(mode, 2014, Some(&obs));
            assert_eq!(
                plain.log(),
                traced.log(),
                "{} log must not move",
                mode.name()
            );
            assert_eq!(
                plain.csv(),
                traced.csv(),
                "{} csv must not move",
                mode.name()
            );
        }
    }

    #[test]
    fn traced_run_spans_every_epoch_phase() {
        let sim = DcSim::new(small_scenario()).unwrap();
        let obs = sharing_obs::TraceBuffer::new();
        let out = sim.run_traced(BillingMode::Sharing, 5, Some(&obs));
        let events = obs.snapshot();
        for phase in ["auction", "placement", "billing"] {
            let spans: Vec<_> = events.iter().filter(|e| e.name == phase).collect();
            assert_eq!(spans.len(), out.records.len(), "one {phase} span per epoch");
            assert!(spans
                .iter()
                .all(|e| e.clock == sharing_obs::Clock::Logical && e.dur >= 1));
        }
        // Epoch spans carry cycle timestamps on the logical clock.
        let epochs: Vec<_> = events
            .iter()
            .filter(|e| e.name.starts_with("epoch "))
            .collect();
        assert_eq!(epochs.len(), out.records.len());
        for (i, e) in epochs.iter().enumerate() {
            assert_eq!(e.ts, i as u64 * sim.scenario().epoch_cycles);
        }
        // The trace exports as valid Chrome trace JSON.
        let json = sharing_json::Json::parse(&obs.to_chrome_json()).unwrap();
        assert!(json.get("traceEvents").and_then(|t| t.as_arr()).is_some());
    }

    /// Scenarios the side-by-side tests sweep: the small fleet, the
    /// bursty reference scenario cut short, and the small fleet under
    /// worst-fit with three workloads.
    fn seeded_scenarios() -> Vec<Scenario> {
        let mut bursty = Scenario::example_bursty();
        bursty.epochs = 24;
        let mut worst = small_scenario();
        worst.placement = "worst-fit".into();
        worst.tenants.benchmarks = vec!["gcc".into(), "mcf".into(), "swaptions".into()];
        vec![small_scenario(), bursty, worst]
    }

    #[test]
    fn comparison_matches_each_mode_run_alone() {
        for sc in seeded_scenarios() {
            let sim = DcSim::new(sc).unwrap();
            for seed in [1, 7, 2014, 0xDEAD_BEEF] {
                let c = sim.run_comparison(seed);
                for (pair, mode) in [
                    (&c.sharing, BillingMode::Sharing),
                    (&c.fixed, BillingMode::Fixed),
                ] {
                    let alone = sim.run(mode, seed);
                    let what = format!("{} {} seed {seed}", sim.scenario().name, mode.name());
                    assert_eq!(pair.mode, mode, "{what}");
                    assert_eq!(pair.totals(), alone.totals(), "{what}");
                    assert_eq!(pair.csv(), alone.csv(), "{what}");
                    assert_eq!(pair.log(), alone.log(), "{what}");
                }
            }
        }
    }

    #[test]
    fn traced_comparison_keeps_the_sequential_span_order() {
        for sc in seeded_scenarios() {
            let sim = DcSim::new(sc).unwrap();
            let side_by_side = sharing_obs::TraceBuffer::new();
            let _ = sim.run_comparison_traced(42, Some(&side_by_side));
            let one_then_other = sharing_obs::TraceBuffer::new();
            let _ = sim.run_traced(BillingMode::Sharing, 42, Some(&one_then_other));
            let _ = sim.run_traced(BillingMode::Fixed, 42, Some(&one_then_other));
            assert!(!side_by_side.is_empty());
            assert_eq!(
                side_by_side.to_chrome_json(),
                one_then_other.to_chrome_json(),
                "{}",
                sim.scenario().name
            );
        }
    }

    #[test]
    fn one_surface_spec_shares_one_catalog() {
        let a = DcSim::new(small_scenario()).unwrap();
        let mut other = Scenario::example_bursty();
        other.name = "another-name".into();
        other.chips = 3;
        let b = DcSim::new(other).unwrap();
        assert!(Arc::ptr_eq(&a.catalog, &b.catalog));
    }

    /// A synthetic scenario whose catalog is keyed by `names`.
    fn with_names(names: &[&str]) -> Scenario {
        let mut sc = small_scenario();
        sc.tenants.benchmarks = names.iter().map(|n| (*n).to_string()).collect();
        sc
    }

    #[test]
    fn another_name_list_misses_the_memo() {
        let memo = CatalogMemo::new(CATALOG_MEMO_CAP);
        let ab = memo.get(&with_names(&["gcc", "mcf"])).unwrap();
        assert!(Arc::ptr_eq(
            &ab,
            &memo.get(&with_names(&["gcc", "mcf"])).unwrap()
        ));
        for names in [&["mcf", "gcc"][..], &["gcc"], &["gcc", "mcf", "gcc"]] {
            let other = memo.get(&with_names(names)).unwrap();
            assert!(!Arc::ptr_eq(&ab, &other), "{names:?}");
            assert_eq!(other.len(), names.len());
        }
        // Synthetic surfaces read neither calibration field.
        let mut sc = with_names(&["gcc", "mcf"]);
        sc.surfaces.trace_len += 1;
        sc.surfaces.sweep_seed += 1;
        assert!(Arc::ptr_eq(&ab, &memo.get(&sc).unwrap()));
        assert_eq!(memo.held.lock().unwrap().len(), 4);
    }

    #[test]
    fn the_memo_holds_at_most_its_bound_oldest_out_first() {
        let memo = CatalogMemo::new(CATALOG_MEMO_CAP);
        let names: Vec<String> = (0..CATALOG_MEMO_CAP + 3).map(|i| format!("w{i}")).collect();
        let built: Vec<_> = names
            .iter()
            .map(|n| memo.get(&with_names(&[n])).unwrap())
            .collect();
        assert_eq!(memo.held.lock().unwrap().len(), CATALOG_MEMO_CAP);
        let newest = memo.get(&with_names(&[&names[names.len() - 1]])).unwrap();
        assert!(Arc::ptr_eq(&built[built.len() - 1], &newest));
        let oldest = memo.get(&with_names(&[&names[0]])).unwrap();
        assert!(!Arc::ptr_eq(&built[0], &oldest), "the oldest was dropped");
        assert_eq!(memo.held.lock().unwrap().len(), CATALOG_MEMO_CAP);
    }

    #[test]
    fn a_refused_scenario_leaves_nothing_behind() {
        let mut sc = with_names(&["refused-scenario-only"]);
        sc.chips = 0;
        assert!(DcSim::new(sc.clone()).is_err());
        assert!(CATALOGS.lookup(&CatalogKey::of(&sc)).is_none());
        // A build that fails is not kept either.
        let memo = CatalogMemo::new(CATALOG_MEMO_CAP);
        sc.surfaces.source = "oracle".into();
        assert!(memo.get(&sc).is_err());
        assert!(memo.held.lock().unwrap().is_empty());
    }

    #[test]
    fn reconfig_and_deny_lines_write_shapes_as_display_does() {
        let shapes =
            (1..=8).flat_map(|s| (0..=128).filter_map(move |b| VCoreShape::new(s, b).ok()));
        for shape in shapes {
            let mut written = String::new();
            push_shape(&mut written, shape);
            assert_eq!(written, shape.to_string());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let sim = DcSim::new(small_scenario()).unwrap();
        let a = sim.run(BillingMode::Sharing, 1);
        let b = sim.run(BillingMode::Sharing, 2);
        assert_ne!(a.log(), b.log());
    }

    #[test]
    fn both_modes_replay_the_same_tenant_trace() {
        let sim = DcSim::new(small_scenario()).unwrap();
        let c = sim.run_comparison(7);
        assert_eq!(c.sharing.arrivals, c.fixed.arrivals);
        assert_eq!(c.sharing.departures, c.fixed.departures);
        assert_eq!(c.sharing.peak_tenants, c.fixed.peak_tenants);
        // Same arrival/departure lines; only clearing lines differ.
        let tenant_lines = |log: &str| -> Vec<String> {
            log.lines()
                .filter(|l| l.contains("arrive") || l.contains("depart"))
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(tenant_lines(c.sharing.log()), tenant_lines(c.fixed.log()));
    }

    #[test]
    fn records_cover_every_epoch() {
        let sim = DcSim::new(small_scenario()).unwrap();
        let out = sim.run(BillingMode::Sharing, 3);
        assert_eq!(out.records.len(), 12);
        for (i, r) in out.records.iter().enumerate() {
            assert_eq!(r.epoch, i);
        }
        assert!(out.arrivals > 0, "the trace should produce tenants");
        assert!(out.peak_tenants > 0);
        assert!(out.departures <= out.arrivals);
    }

    #[test]
    fn fixed_mode_revenue_equals_its_own_counterfactual() {
        // Every fixed-mode lease is exactly the fixed instance, so the
        // fixed-instance counterfactual must equal the metered revenue.
        let sim = DcSim::new(small_scenario()).unwrap();
        let out = sim.run(BillingMode::Fixed, 11);
        let t = out.totals();
        assert!(t.revenue > 0.0);
        assert!(
            (t.revenue - t.fixed_instance_revenue).abs() < 1e-6,
            "{} vs {}",
            t.revenue,
            t.fixed_instance_revenue
        );
    }

    #[test]
    fn sharing_market_beats_fixed_instances_on_bursty_utility() {
        // The acceptance scenario: heterogeneous tenants on a bursty
        // trace. The market lets cache-lovers buy banks and slice-lovers
        // buy Slices; the fixed provider sells everyone the same box.
        let sim = DcSim::new(Scenario::example_bursty()).unwrap();
        let c = sim.run_comparison(2014);
        let gain = c.utility_gain();
        assert!(
            gain > 1.0,
            "sharing must beat fixed on aggregate utility, got {gain:.3}x\n{}",
            c.summary()
        );
    }

    #[test]
    fn market_reconfigures_tenants_as_prices_move() {
        let sim = DcSim::new(Scenario::example_bursty()).unwrap();
        let out = sim.run(BillingMode::Sharing, 2014);
        let t = out.totals();
        assert!(
            t.reconfig_cycles > 0,
            "a bursty market should move at least one tenant between shapes"
        );
        assert!(out.log().contains("reconfig tenant="));
        // Fixed mode never reconfigures.
        let f = sim.run(BillingMode::Fixed, 2014).totals();
        assert_eq!(f.reconfig_cycles, 0);
    }

    #[test]
    fn csv_has_a_row_per_epoch_and_parses_numerically() {
        let sim = DcSim::new(small_scenario()).unwrap();
        let out = sim.run(BillingMode::Sharing, 5);
        let csv = out.csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 13, "header + 12 epochs");
        assert!(lines[0].starts_with("epoch,tenants,slice_price"));
        for line in &lines[1..] {
            for field in line.split(',') {
                field.parse::<f64>().expect("numeric field");
            }
        }
    }

    #[test]
    fn totals_round_trip_through_json() {
        let sim = DcSim::new(small_scenario()).unwrap();
        let t = sim.run(BillingMode::Sharing, 9).totals();
        let text = sharing_json::to_string(&t);
        let back: Totals = sharing_json::from_str(&text).unwrap();
        assert_eq!(t.mode, back.mode);
        assert_eq!(t.log_hash, back.log_hash);
        assert_eq!(t.arrivals, back.arrivals);
        assert!((t.aggregate_utility - back.aggregate_utility).abs() < 1e-9);
    }

    #[test]
    fn synthetic_surfaces_are_monotone_in_slices() {
        let s = SurfaceCatalog::synthetic("gcc");
        let p1 = s.perf(VCoreShape::new(1, 4).unwrap());
        let p8 = s.perf(VCoreShape::new(8, 4).unwrap());
        assert!(p8 > p1);
    }

    #[test]
    fn catalog_defaults_to_the_whole_suite() {
        let sc = small_scenario();
        let catalog = SurfaceCatalog::build(&sc).unwrap();
        assert_eq!(catalog.len(), sharing_trace::ALL_BENCHMARKS.len());
    }
}
