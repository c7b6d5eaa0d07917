//! Server-wide metrics, queryable via the `stats` and `metrics` requests.
//!
//! Counters are atomics (lock-free on the hot path); completed-job
//! latencies land twice: in bounded rings — queue wait and execute
//! time are tracked separately — whose windowed p50/p99 feed the JSON
//! `stats` reply, and in fixed log-scale [`Histogram`]s that back the
//! Prometheus export (`*_bucket`/`*_sum`/`*_count` families a scraper
//! can aggregate across daemons). Percentile reads snapshot the ring
//! under the lock and sort *outside* it, so a `stats` poll never
//! stalls the workers recording completions.

use sharing_json::Json;
use sharing_obs::{percentile, Histogram, PromWriter};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How many recent job latencies each percentile window keeps.
const LATENCY_WINDOW: usize = 1024;

/// The unit of work a completed job counts as, for per-kind accounting.
/// A streamed sweep completes as 72 `SweepPoint` units, not one job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobClass {
    /// One single-configuration simulation (`run`).
    Simulate,
    /// One shape within a grid sweep (`sweep` streams 72 of these).
    SweepPoint,
    /// One market evaluation (`market`).
    Market,
    /// One datacenter scenario (`dc`).
    Dc,
}

impl JobClass {
    /// Every class, in exposition order.
    pub const ALL: [JobClass; 4] = [
        JobClass::Simulate,
        JobClass::SweepPoint,
        JobClass::Market,
        JobClass::Dc,
    ];

    /// The wire/exposition name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JobClass::Simulate => "simulate",
            JobClass::SweepPoint => "sweep_point",
            JobClass::Market => "market",
            JobClass::Dc => "dc",
        }
    }

    fn index(self) -> usize {
        match self {
            JobClass::Simulate => 0,
            JobClass::SweepPoint => 1,
            JobClass::Market => 2,
            JobClass::Dc => 3,
        }
    }
}

/// Shared server metrics.
#[derive(Debug)]
pub struct Metrics {
    /// Jobs admitted to the queue.
    pub jobs_submitted: AtomicU64,
    /// Jobs fully executed.
    pub jobs_completed: AtomicU64,
    /// Jobs refused by admission control (queue full).
    pub jobs_rejected: AtomicU64,
    /// Requests that failed to parse or execute.
    pub errors: AtomicU64,
    /// Result-cache hits.
    pub cache_hits: AtomicU64,
    /// Result-cache misses.
    pub cache_misses: AtomicU64,
    /// Workers currently executing a job.
    pub busy_workers: AtomicUsize,
    /// Total worker count (fixed at startup).
    pub workers: usize,
    /// Jobs executed on remote workers (coordinator mode).
    pub dispatched_jobs: AtomicU64,
    /// Dispatch retries: re-sends after a failed or refused exchange,
    /// including points re-queued when a worker died mid-grid.
    pub dispatch_retries: AtomicU64,
    /// Remote workers registered at startup (0 in single-node mode).
    pub workers_configured: AtomicUsize,
    /// Remote workers currently passing health probes.
    pub workers_healthy: AtomicUsize,
    /// When this daemon's metrics came up; backs `ssimd_uptime_seconds`.
    started: Instant,
    /// Work units completed, indexed by [`JobClass::index`].
    completed_by_kind: [AtomicU64; 4],
    /// End-to-end (queue wait + execute) latency window.
    latencies: Mutex<LatencyRing>,
    /// Time-in-queue window.
    queue_waits: Mutex<LatencyRing>,
    /// Execute-time window.
    execs: Mutex<LatencyRing>,
    /// End-to-end latency distribution (Prometheus export path).
    latency_hist: Histogram,
    /// Time-in-queue distribution.
    queue_wait_hist: Histogram,
    /// Execute-time distribution.
    exec_hist: Histogram,
}

#[derive(Debug)]
struct LatencyRing {
    samples: Vec<u64>,
    next: usize,
}

impl LatencyRing {
    fn new() -> Self {
        LatencyRing {
            samples: Vec::with_capacity(LATENCY_WINDOW),
            next: 0,
        }
    }

    fn push(&mut self, us: u64) {
        if self.samples.len() < LATENCY_WINDOW {
            self.samples.push(us);
        } else {
            let i = self.next;
            self.samples[i] = us;
        }
        self.next = (self.next + 1) % LATENCY_WINDOW;
    }
}

/// Snapshots the ring under the lock, then sorts and ranks outside it.
fn ring_percentiles(ring: &Mutex<LatencyRing>) -> (u64, u64) {
    let mut samples = ring.lock().expect("latency lock").samples.clone();
    if samples.is_empty() {
        return (0, 0);
    }
    samples.sort_unstable();
    (percentile(&samples, 0.50), percentile(&samples, 0.99))
}

impl Metrics {
    /// Fresh metrics for a pool of `workers` workers.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Metrics {
            jobs_submitted: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            busy_workers: AtomicUsize::new(0),
            workers,
            dispatched_jobs: AtomicU64::new(0),
            dispatch_retries: AtomicU64::new(0),
            workers_configured: AtomicUsize::new(0),
            workers_healthy: AtomicUsize::new(0),
            started: Instant::now(),
            completed_by_kind: Default::default(),
            latencies: Mutex::new(LatencyRing::new()),
            queue_waits: Mutex::new(LatencyRing::new()),
            execs: Mutex::new(LatencyRing::new()),
            latency_hist: Histogram::log_scale_us(),
            queue_wait_hist: Histogram::log_scale_us(),
            exec_hist: Histogram::log_scale_us(),
        }
    }

    /// Records one completed job: its class (scaled by `units` — a sweep
    /// completes 72 `SweepPoint` units), its time in queue, and its
    /// execute time. End-to-end latency is their sum.
    pub fn record_job(&self, class: JobClass, units: u64, queue_wait_us: u64, exec_us: u64) {
        self.completed_by_kind[class.index()].fetch_add(units, Ordering::Relaxed);
        self.queue_waits
            .lock()
            .expect("latency lock")
            .push(queue_wait_us);
        self.queue_wait_hist.observe(queue_wait_us);
        self.execs.lock().expect("latency lock").push(exec_us);
        self.exec_hist.observe(exec_us);
        self.record_latency_us(queue_wait_us.saturating_add(exec_us));
    }

    /// Records one end-to-end job latency in microseconds (window and
    /// histogram).
    pub fn record_latency_us(&self, us: u64) {
        self.latencies.lock().expect("latency lock").push(us);
        self.latency_hist.observe(us);
    }

    /// Work units completed for one class.
    #[must_use]
    pub fn completed_for(&self, class: JobClass) -> u64 {
        self.completed_by_kind[class.index()].load(Ordering::Relaxed)
    }

    /// The (p50, p99) of the recent end-to-end latency window, in
    /// microseconds. Zeros until the first job completes.
    #[must_use]
    pub fn latency_percentiles_us(&self) -> (u64, u64) {
        ring_percentiles(&self.latencies)
    }

    /// The (p50, p99) of the recent queue-wait window, in microseconds.
    #[must_use]
    pub fn queue_wait_percentiles_us(&self) -> (u64, u64) {
        ring_percentiles(&self.queue_waits)
    }

    /// The (p50, p99) of the recent execute-time window, in microseconds.
    #[must_use]
    pub fn exec_percentiles_us(&self) -> (u64, u64) {
        ring_percentiles(&self.execs)
    }

    /// The cache hit rate in `[0, 1]` (zero before any lookup).
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let h = self.cache_hits.load(Ordering::Relaxed) as f64;
        let m = self.cache_misses.load(Ordering::Relaxed) as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// A JSON snapshot for the `stats` reply. `queue_depth` and
    /// `cache_entries` are gauges owned elsewhere, passed in.
    #[must_use]
    pub fn snapshot(&self, queue_depth: usize, cache_entries: usize) -> Json {
        let (p50, p99) = self.latency_percentiles_us();
        let (qw50, qw99) = self.queue_wait_percentiles_us();
        let (ex50, ex99) = self.exec_percentiles_us();
        let busy = self.busy_workers.load(Ordering::Relaxed);
        let by_kind = JobClass::ALL
            .iter()
            .map(|&c| (c.name(), Json::Int(i128::from(self.completed_for(c)))))
            .collect();
        Json::obj(vec![
            ("queue_depth", Json::Int(queue_depth as i128)),
            (
                "jobs_submitted",
                Json::Int(i128::from(self.jobs_submitted.load(Ordering::Relaxed))),
            ),
            (
                "jobs_completed",
                Json::Int(i128::from(self.jobs_completed.load(Ordering::Relaxed))),
            ),
            ("completed_by_kind", Json::obj(by_kind)),
            (
                "jobs_rejected",
                Json::Int(i128::from(self.jobs_rejected.load(Ordering::Relaxed))),
            ),
            (
                "errors",
                Json::Int(i128::from(self.errors.load(Ordering::Relaxed))),
            ),
            (
                "cache_hits",
                Json::Int(i128::from(self.cache_hits.load(Ordering::Relaxed))),
            ),
            (
                "cache_misses",
                Json::Int(i128::from(self.cache_misses.load(Ordering::Relaxed))),
            ),
            ("cache_hit_rate", Json::Float(self.cache_hit_rate())),
            ("cache_entries", Json::Int(cache_entries as i128)),
            ("workers", Json::Int(self.workers as i128)),
            ("busy_workers", Json::Int(busy as i128)),
            (
                "dispatched_jobs",
                Json::Int(i128::from(self.dispatched_jobs.load(Ordering::Relaxed))),
            ),
            (
                "dispatch_retries",
                Json::Int(i128::from(self.dispatch_retries.load(Ordering::Relaxed))),
            ),
            (
                "workers_configured",
                Json::Int(self.workers_configured.load(Ordering::Relaxed) as i128),
            ),
            (
                "workers_healthy",
                Json::Int(self.workers_healthy.load(Ordering::Relaxed) as i128),
            ),
            (
                "worker_utilization",
                Json::Float(if self.workers == 0 {
                    0.0
                } else {
                    busy as f64 / self.workers as f64
                }),
            ),
            ("latency_p50_us", Json::Int(i128::from(p50))),
            ("latency_p99_us", Json::Int(i128::from(p99))),
            ("queue_wait_p50_us", Json::Int(i128::from(qw50))),
            ("queue_wait_p99_us", Json::Int(i128::from(qw99))),
            ("exec_p50_us", Json::Int(i128::from(ex50))),
            ("exec_p99_us", Json::Int(i128::from(ex99))),
        ])
    }

    /// The Prometheus text exposition (format 0.0.4) of every metric,
    /// for the `metrics` request and scrape endpoints.
    #[must_use]
    pub fn prometheus_text(
        &self,
        queue_depth: usize,
        queue_capacity: usize,
        cache_entries: usize,
    ) -> String {
        let by_kind: Vec<(&str, u64)> = JobClass::ALL
            .iter()
            .map(|&c| (c.name(), self.completed_for(c)))
            .collect();
        let mut w = PromWriter::new();
        // The info-gauge idiom: identity in the labels, value pinned at
        // 1, so dashboards can join any family against the build that
        // produced it.
        w.info(
            "ssimd_build_info",
            "Build identity of this daemon (constant 1).",
            &[("version", env!("CARGO_PKG_VERSION"))],
        );
        w.gauge_f64(
            "ssimd_uptime_seconds",
            "Seconds since this daemon came up.",
            self.started.elapsed().as_secs_f64(),
        );
        w.counter(
            "ssimd_jobs_submitted_total",
            "Jobs admitted to the queue.",
            self.jobs_submitted.load(Ordering::Relaxed),
        );
        w.counter_family(
            "ssimd_jobs_completed_total",
            "Work units completed, by job kind (a sweep counts one unit per shape).",
            "kind",
            &by_kind,
        );
        w.counter(
            "ssimd_jobs_rejected_total",
            "Jobs refused by admission control.",
            self.jobs_rejected.load(Ordering::Relaxed),
        );
        w.counter(
            "ssimd_errors_total",
            "Requests that failed to parse or execute.",
            self.errors.load(Ordering::Relaxed),
        );
        w.counter_family(
            "ssimd_cache_lookups_total",
            "Result-cache lookups, by outcome.",
            "outcome",
            &[
                ("hit", self.cache_hits.load(Ordering::Relaxed)),
                ("miss", self.cache_misses.load(Ordering::Relaxed)),
            ],
        );
        w.gauge_i64(
            "ssimd_queue_depth",
            "Jobs waiting in the bounded queue.",
            queue_depth as i64,
        );
        w.gauge_i64(
            "ssimd_queue_capacity",
            "Bounded queue capacity (admission-control threshold).",
            queue_capacity as i64,
        );
        w.gauge_i64(
            "ssimd_cache_entries",
            "Entries resident in the result cache.",
            cache_entries as i64,
        );
        w.gauge_i64("ssimd_workers", "Worker pool size.", self.workers as i64);
        w.gauge_i64(
            "ssimd_busy_workers",
            "Workers currently executing a job.",
            self.busy_workers.load(Ordering::Relaxed) as i64,
        );
        w.counter(
            "ssimd_dispatched_total",
            "Jobs executed on remote workers (coordinator mode).",
            self.dispatched_jobs.load(Ordering::Relaxed),
        );
        w.counter(
            "ssimd_dispatch_retries_total",
            "Dispatch retries, including points re-queued off a dead worker.",
            self.dispatch_retries.load(Ordering::Relaxed),
        );
        w.gauge_i64(
            "ssimd_workers_configured",
            "Remote workers registered at startup (0 in single-node mode).",
            self.workers_configured.load(Ordering::Relaxed) as i64,
        );
        w.gauge_i64(
            "ssimd_workers_healthy",
            "Remote workers currently passing health probes.",
            self.workers_healthy.load(Ordering::Relaxed) as i64,
        );
        // Histograms, not summaries: a scraper can aggregate buckets
        // across daemons and derive any quantile, where pre-computed
        // p50/p99 (still in the JSON `stats` reply) cannot be merged.
        w.histogram(
            "ssimd_queue_wait_us",
            "Time jobs spent queued before a worker picked them up.",
            &self.queue_wait_hist,
        );
        w.histogram(
            "ssimd_exec_us",
            "Time workers spent executing jobs.",
            &self.exec_hist,
        );
        w.histogram(
            "ssimd_latency_us",
            "End-to-end job latency (queue wait + execute).",
            &self.latency_hist,
        );
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_empty_window_are_zero() {
        assert_eq!(Metrics::new(2).latency_percentiles_us(), (0, 0));
        assert_eq!(Metrics::new(2).queue_wait_percentiles_us(), (0, 0));
        assert_eq!(Metrics::new(2).exec_percentiles_us(), (0, 0));
    }

    #[test]
    fn percentiles_order_correctly() {
        let m = Metrics::new(2);
        for us in 1..=100 {
            m.record_latency_us(us);
        }
        let (p50, p99) = m.latency_percentiles_us();
        assert!((49..=51).contains(&p50), "p50 {p50}");
        assert!((98..=100).contains(&p99), "p99 {p99}");
        assert!(p50 <= p99);
    }

    #[test]
    fn latency_window_is_bounded() {
        let m = Metrics::new(1);
        for us in 0..5_000 {
            m.record_latency_us(us);
        }
        // Window holds the most recent LATENCY_WINDOW samples only.
        let (p50, _) = m.latency_percentiles_us();
        assert!(p50 >= 5_000 - LATENCY_WINDOW as u64, "old samples evicted");
    }

    #[test]
    fn record_job_splits_wait_and_exec() {
        let m = Metrics::new(1);
        for _ in 0..10 {
            m.record_job(JobClass::Simulate, 1, 100, 900);
        }
        m.record_job(JobClass::SweepPoint, 72, 50, 400);
        m.record_job(JobClass::Dc, 1, 7, 3);
        assert_eq!(m.completed_for(JobClass::Simulate), 10);
        assert_eq!(m.completed_for(JobClass::SweepPoint), 72);
        assert_eq!(m.completed_for(JobClass::Market), 0);
        assert_eq!(m.completed_for(JobClass::Dc), 1);
        let (qw50, _) = m.queue_wait_percentiles_us();
        let (ex50, _) = m.exec_percentiles_us();
        let (p50, _) = m.latency_percentiles_us();
        assert_eq!(qw50, 100);
        assert_eq!(ex50, 900);
        assert_eq!(p50, 1000, "end-to-end = wait + exec");
    }

    #[test]
    fn hit_rate_tracks_counters() {
        let m = Metrics::new(1);
        assert_eq!(m.cache_hit_rate(), 0.0);
        m.cache_hits.store(3, Ordering::Relaxed);
        m.cache_misses.store(1, Ordering::Relaxed);
        assert!((m.cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn snapshot_is_well_formed() {
        let m = Metrics::new(4);
        m.record_job(JobClass::Market, 1, 4, 6);
        let v = m.snapshot(3, 7);
        assert_eq!(v.get("queue_depth").and_then(Json::as_int), Some(3));
        assert_eq!(v.get("cache_entries").and_then(Json::as_int), Some(7));
        assert_eq!(v.get("workers").and_then(Json::as_int), Some(4));
        assert!(v.get("worker_utilization").and_then(Json::as_f64).is_some());
        assert_eq!(v.get("queue_wait_p50_us").and_then(Json::as_int), Some(4));
        assert_eq!(v.get("exec_p99_us").and_then(Json::as_int), Some(6));
        let by_kind = v.get("completed_by_kind").expect("kind breakdown");
        assert_eq!(by_kind.get("market").and_then(Json::as_int), Some(1));
        assert_eq!(by_kind.get("simulate").and_then(Json::as_int), Some(0));
    }

    #[test]
    fn prometheus_text_exposes_required_families() {
        let m = Metrics::new(2);
        m.jobs_submitted.store(5, Ordering::Relaxed);
        m.jobs_completed.store(5, Ordering::Relaxed);
        m.record_job(JobClass::Simulate, 1, 120, 880);
        let text = m.prometheus_text(2, 64, 9);
        assert!(text.contains("# TYPE ssimd_build_info gauge"));
        let build_info = format!(
            "ssimd_build_info{{version=\"{}\"}} 1\n",
            env!("CARGO_PKG_VERSION")
        );
        assert!(text.contains(&build_info), "{text}");
        assert!(text.contains("# TYPE ssimd_uptime_seconds gauge"));
        assert!(text.contains("ssimd_queue_capacity 64"));
        assert!(text.contains("# TYPE ssimd_jobs_completed_total counter"));
        assert!(text.contains("ssimd_jobs_completed_total{kind=\"simulate\"} 1"));
        assert!(text.contains("ssimd_jobs_completed_total{kind=\"sweep_point\"} 0"));
        assert!(text.contains("# TYPE ssimd_queue_wait_us histogram"));
        // 120µs lands in the le="200" bucket of the 1-2-5 log scale.
        assert!(text.contains("ssimd_queue_wait_us_bucket{le=\"200\"} 1"));
        assert!(text.contains("ssimd_queue_wait_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("ssimd_queue_wait_us_count 1"));
        assert!(text.contains("ssimd_queue_wait_us_sum 120"));
        assert!(text.contains("# TYPE ssimd_exec_us histogram"));
        assert!(text.contains("ssimd_exec_us_bucket{le=\"1000\"} 1"));
        assert!(text.contains("# TYPE ssimd_latency_us histogram"));
        // 120 + 880 = 1000µs end to end: exactly on the le="1000" bound.
        assert!(text.contains("ssimd_latency_us_bucket{le=\"1000\"} 1"));
        assert!(text.contains("ssimd_latency_us_sum 1000"));
        assert!(text.contains("ssimd_queue_depth 2"));
        assert!(text.contains("ssimd_cache_entries 9"));
        assert!(text.contains("ssimd_cache_lookups_total{outcome=\"hit\"} 0"));
        assert!(text.contains("# TYPE ssimd_dispatch_retries_total counter"));
        assert!(text.contains("ssimd_dispatched_total 0"));
        assert!(text.contains("ssimd_workers_configured 0"));
        assert!(text.contains("ssimd_workers_healthy 0"));
    }

    #[test]
    fn dispatch_metrics_land_in_snapshot_and_prometheus() {
        let m = Metrics::new(2);
        m.dispatched_jobs.store(40, Ordering::Relaxed);
        m.dispatch_retries.store(3, Ordering::Relaxed);
        m.workers_configured.store(2, Ordering::Relaxed);
        m.workers_healthy.store(1, Ordering::Relaxed);
        let snap = m.snapshot(0, 0);
        assert_eq!(snap.get("dispatched_jobs").and_then(Json::as_int), Some(40));
        assert_eq!(snap.get("dispatch_retries").and_then(Json::as_int), Some(3));
        assert_eq!(
            snap.get("workers_configured").and_then(Json::as_int),
            Some(2)
        );
        assert_eq!(snap.get("workers_healthy").and_then(Json::as_int), Some(1));
        let text = m.prometheus_text(0, 0, 0);
        assert!(text.contains("ssimd_dispatched_total 40"));
        assert!(text.contains("ssimd_dispatch_retries_total 3"));
        assert!(text.contains("ssimd_workers_configured 2"));
        assert!(text.contains("ssimd_workers_healthy 1"));
    }

    #[test]
    fn snapshots_stay_consistent_under_concurrent_recording() {
        // 8 threads hammer the metrics while the main thread snapshots;
        // nothing should tear, panic, or go backwards.
        let m = std::sync::Arc::new(Metrics::new(8));
        let mut threads = Vec::new();
        for t in 0..8u64 {
            let m = std::sync::Arc::clone(&m);
            threads.push(std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    m.jobs_submitted.fetch_add(1, Ordering::Relaxed);
                    let class = JobClass::ALL[(t as usize + i as usize) % 4];
                    m.record_job(class, 1, i % 97, i % 31);
                    m.jobs_completed.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        let mut last_completed = 0i128;
        for _ in 0..200 {
            let snap = m.snapshot(1, 1);
            let completed = snap.get("jobs_completed").and_then(Json::as_int).unwrap();
            assert!(
                completed >= last_completed,
                "completed must not go backwards"
            );
            last_completed = completed;
            let _ = m.prometheus_text(1, 1, 1);
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(m.jobs_completed.load(Ordering::Relaxed), 16_000);
        let total: u64 = JobClass::ALL.iter().map(|&c| m.completed_for(c)).sum();
        assert_eq!(total, 16_000, "every unit lands in exactly one kind");
        let (qw50, qw99) = m.queue_wait_percentiles_us();
        assert!(qw50 <= qw99);
        assert!(qw99 <= 96);
    }
}
