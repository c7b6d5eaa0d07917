//! The process-global metric registry: named counters and gauges.
//!
//! Lookup by name takes a short mutex (registration is rare); updates are
//! single relaxed atomics. Hot loops should look a metric up once and
//! keep the `&'static` handle:
//!
//! ```
//! use sharing_obs::counter;
//!
//! let cycles = counter("ssim_cycles_total"); // once, outside the loop
//! for _ in 0..4 {
//!     cycles.add(10_000);
//! }
//! assert!(cycles.get() >= 40_000);
//! ```

use crate::prom::PromWriter;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh, unregistered counter (registered ones come from
    /// [`counter`]).
    #[must_use]
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh, unregistered gauge (registered ones come from [`gauge`]).
    #[must_use]
    pub const fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<Vec<(&'static str, &'static Counter)>>,
    gauges: Mutex<Vec<(&'static str, &'static Gauge)>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Returns the process-global counter with this name, registering it on
/// first use. The handle is `'static`; cache it outside hot loops.
#[must_use]
pub fn counter(name: &'static str) -> &'static Counter {
    let mut table = registry().counters.lock().expect("registry lock");
    if let Some((_, c)) = table.iter().find(|(n, _)| *n == name) {
        return c;
    }
    let c: &'static Counter = Box::leak(Box::new(Counter::new()));
    table.push((name, c));
    c
}

/// Returns the process-global gauge with this name, registering it on
/// first use. The handle is `'static`; cache it outside hot loops.
#[must_use]
pub fn gauge(name: &'static str) -> &'static Gauge {
    let mut table = registry().gauges.lock().expect("registry lock");
    if let Some((_, g)) = table.iter().find(|(n, _)| *n == name) {
        return g;
    }
    let g: &'static Gauge = Box::leak(Box::new(Gauge::new()));
    table.push((name, g));
    g
}

/// Renders every registered counter and gauge as Prometheus text
/// exposition, sorted by metric name for deterministic output.
#[must_use]
pub fn prometheus_text() -> String {
    let mut w = PromWriter::new();
    let mut counters: Vec<(&str, u64)> = registry()
        .counters
        .lock()
        .expect("registry lock")
        .iter()
        .map(|(n, c)| (*n, c.get()))
        .collect();
    counters.sort_unstable_by_key(|(n, _)| *n);
    for (name, value) in counters {
        w.counter(name, "registered process-global counter", value);
    }
    let mut gauges: Vec<(&str, i64)> = registry()
        .gauges
        .lock()
        .expect("registry lock")
        .iter()
        .map(|(n, g)| (*n, g.get()))
        .collect();
    gauges.sort_unstable_by_key(|(n, _)| *n);
    for (name, value) in gauges {
        w.gauge_i64(name, "registered process-global gauge", value);
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_once_and_accumulate() {
        let a = counter("obs_test_counter_total");
        let b = counter("obs_test_counter_total");
        assert!(std::ptr::eq(a, b), "same name, same counter");
        let before = a.get();
        b.add(3);
        assert_eq!(a.get(), before + 3);
    }

    #[test]
    fn gauges_move_both_ways() {
        let g = gauge("obs_test_gauge");
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        g.set(0);
    }

    #[test]
    fn prometheus_text_lists_registered_metrics() {
        counter("obs_test_exposed_total").add(1);
        gauge("obs_test_exposed_gauge").set(7);
        let text = prometheus_text();
        assert!(text.contains("# TYPE obs_test_exposed_total counter"));
        assert!(text.contains("obs_test_exposed_total "));
        assert!(text.contains("# TYPE obs_test_exposed_gauge gauge"));
        assert!(text.contains("obs_test_exposed_gauge 7"));
    }
}
