//! Multi-node dispatch: the coordinator's pool of remote workers.
//!
//! ```text
//!  coordinator ssimd ──Client──▶ worker ssimd (same protocol, same sim)
//!        │                          ▲
//!        ├── health pings ──────────┤   fresh connection per probe
//!        └── job dispatch ──────────┘   persistent connection per worker
//! ```
//!
//! A [`WorkerPool`] holds one persistent connection per remote worker
//! daemon plus a background health thread that pings every worker on an
//! interval over *fresh* connections (a draining daemon still answers
//! pings on established connections, so only a new connect detects that
//! it stopped accepting). Jobs dispatch to healthy workers with a
//! per-job read timeout, bounded retries with exponential backoff, and
//! re-queue onto another healthy worker when one dies mid-job.
//!
//! Workers run the same deterministic simulator, and result payloads are
//! spliced out of the worker's reply *verbatim* (never re-serialized),
//! so coordinator results are byte-identical to single-node execution.
//!
//! Registration is strict: every listed worker must accept a connection
//! and pass [`Client::hello`] version negotiation, so a mismatched or
//! dead worker fails the coordinator's startup instead of a sweep.

use crate::client::Client;
use crate::metrics::Metrics;
use crate::protocol::{Envelope, ErrorCode, Job, Request, RunJob, ServerError, PROTO_VERSION};
use crate::server::TraceOut;
use sharing_chaos::IoFault;
use sharing_json::Json;
use sharing_obs::{PromWriter, SpanEvent};
use sharing_trace::Rng64;
use std::collections::VecDeque;
use std::io::{Error, ErrorKind};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Trace tracks for dispatch spans start here, clear of the local worker
/// pool's per-thread tracks (one per remote worker: `BASE + index`).
const DISPATCH_TRACK_BASE: u64 = 1000;

/// Trace tracks for *relayed* worker spans — execution spans a worker
/// returned with its reply — one track per remote worker, clear of the
/// dispatch tracks above.
const WORKER_TRACK_BASE: u64 = 2000;

/// Hard cap on `"spans"` reply lines accepted per exchange; a worker
/// that streams more is treated as desynced.
const MAX_SPAN_LINES: usize = 64;

/// Tunables for the dispatch layer.
#[derive(Clone, Debug)]
pub struct DispatchOpts {
    /// Per-job reply timeout on worker connections.
    pub job_timeout: Duration,
    /// Extra attempts after a failed dispatch (0 = try once).
    pub retries: u32,
    /// Health-ping cadence.
    pub ping_interval: Duration,
    /// First retry backoff; doubles per attempt, jittered by
    /// `backoff_seed`.
    pub backoff_base: Duration,
    /// Connect timeout for registration, reconnects, and health probes.
    pub connect_timeout: Duration,
    /// Seed for retry-backoff jitter. Each delay is the exponential
    /// step scaled into `[50%, 100%]` by an `Rng64` draw that is pure
    /// in `(backoff_seed, attempt, draw index)`, so chaos replays see
    /// the same delays instead of clock-dependent randomness.
    pub backoff_seed: u64,
    /// Hard cap on the total time one job may spend in retry backoff;
    /// once the next delay would cross it, the job stops retrying and
    /// surfaces its last error.
    pub max_retry_time: Duration,
}

impl Default for DispatchOpts {
    fn default() -> Self {
        DispatchOpts {
            job_timeout: Duration::from_secs(30),
            retries: 3,
            ping_interval: Duration::from_secs(2),
            backoff_base: Duration::from_millis(50),
            connect_timeout: Duration::from_secs(2),
            backoff_seed: 2014,
            max_retry_time: Duration::from_secs(60),
        }
    }
}

/// One remote worker daemon: its address, the persistent job connection,
/// and health/accounting state.
struct RemoteWorker {
    addr: String,
    index: usize,
    /// The persistent job connection; `None` until (re)connected. Held
    /// locked for a whole request/reply exchange, which also serializes
    /// jobs per worker (the wire protocol answers in order).
    conn: Mutex<Option<Client>>,
    healthy: AtomicBool,
    dispatched: AtomicU64,
    failures: AtomicU64,
}

impl RemoteWorker {
    /// Marks the worker unusable and drops its connection; the health
    /// thread will re-admit it once a fresh ping succeeds.
    fn mark_broken(&self) {
        self.healthy.store(false, Ordering::SeqCst);
        *self.conn.lock().expect("worker conn lock") = None;
    }
}

/// How one dispatch attempt failed.
enum TryError {
    /// The worker answered but can't take work right now (`queue_full`);
    /// its connection is still good — back off and retry.
    Busy(ServerError),
    /// The connection is gone or the worker is draining; give the job to
    /// another worker.
    Broken(ServerError),
    /// The job itself is bad (`exec_failed`, `bad_request`, …); no
    /// worker will do better, propagate to the client.
    Fatal(ServerError),
}

/// Shared state of one in-flight grid fan-out.
struct GridState {
    /// Per-point results; `Some` once resolved (payload, was-cached).
    results: Vec<Option<(String, bool)>>,
    /// Indices not yet claimed by a worker thread.
    pending: VecDeque<usize>,
    /// Points still unresolved (claimed or pending).
    remaining: usize,
    /// Worker threads still running.
    live_threads: usize,
    /// First unrecoverable failure; stops everything.
    fatal: Option<ServerError>,
    /// Set when the client disconnected; stops everything quietly.
    cancelled: bool,
}

/// The coordinator's pool of remote workers.
pub struct WorkerPool {
    workers: Vec<Arc<RemoteWorker>>,
    opts: DispatchOpts,
    metrics: Arc<Metrics>,
    closed: Arc<AtomicBool>,
    next: AtomicUsize,
    /// Jitter draws consumed so far; each backoff sleep takes the next
    /// index so concurrent retries spread instead of thundering.
    backoff_draws: AtomicU64,
    health_thread: Mutex<Option<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Connects to every worker, negotiates the protocol version with
    /// each ([`Client::hello`]), and starts the health thread.
    ///
    /// # Errors
    ///
    /// Fails if any listed worker is unreachable or speaks an
    /// incompatible protocol version — a coordinator with a bad roster
    /// should not come up.
    pub fn connect(
        addrs: &[String],
        opts: DispatchOpts,
        metrics: Arc<Metrics>,
    ) -> std::io::Result<Arc<WorkerPool>> {
        if addrs.is_empty() {
            return Err(Error::new(ErrorKind::InvalidInput, "no workers listed"));
        }
        let mut workers = Vec::with_capacity(addrs.len());
        for (index, addr) in addrs.iter().enumerate() {
            let client = register(addr, &opts)
                .map_err(|e| Error::new(e.kind(), format!("worker {addr}: {e}")))?;
            workers.push(Arc::new(RemoteWorker {
                addr: addr.clone(),
                index,
                conn: Mutex::new(Some(client)),
                healthy: AtomicBool::new(true),
                dispatched: AtomicU64::new(0),
                failures: AtomicU64::new(0),
            }));
        }
        metrics
            .workers_configured
            .store(workers.len(), Ordering::SeqCst);
        metrics
            .workers_healthy
            .store(workers.len(), Ordering::SeqCst);
        let pool = Arc::new(WorkerPool {
            workers,
            opts,
            metrics,
            closed: Arc::new(AtomicBool::new(false)),
            next: AtomicUsize::new(0),
            backoff_draws: AtomicU64::new(0),
            health_thread: Mutex::new(None),
        });
        let hpool = Arc::clone(&pool);
        let handle = std::thread::Builder::new()
            .name("ssimd-health".into())
            .spawn(move || health_loop(&hpool))
            .expect("spawn health thread");
        *pool.health_thread.lock().expect("health handle lock") = Some(handle);
        Ok(pool)
    }

    /// Worker addresses, in registration order.
    #[must_use]
    pub fn worker_addrs(&self) -> Vec<String> {
        self.workers.iter().map(|w| w.addr.clone()).collect()
    }

    /// Workers currently marked healthy.
    #[must_use]
    pub fn healthy_count(&self) -> usize {
        self.workers
            .iter()
            .filter(|w| w.healthy.load(Ordering::SeqCst))
            .count()
    }

    /// Stops the health thread. Idempotent; called on coordinator
    /// shutdown.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        if let Some(t) = self
            .health_thread
            .lock()
            .expect("health handle lock")
            .take()
        {
            let _ = t.join();
        }
    }

    /// Dispatches one single-reply job (`run` or `dc`) to a healthy
    /// worker and returns its result payload, spliced verbatim from the
    /// worker's reply.
    ///
    /// # Errors
    ///
    /// A fatal [`ServerError`] from the worker propagates as-is (the job
    /// is bad everywhere); transport failures and busy workers retry up
    /// to `opts.retries` times with exponential backoff, then surface as
    /// [`ErrorCode::WorkerUnavailable`].
    ///
    /// With `trace_id` set the worker envelope carries the distributed
    /// trace id: the worker answers with its execution spans ahead of
    /// the result, and those spans land in `trace` on this worker's
    /// relay track.
    pub(crate) fn dispatch_one(
        &self,
        job: &Job,
        trace_id: Option<u64>,
        trace: &TraceOut,
    ) -> Result<String, ServerError> {
        let Some(expect) = job.result_type() else {
            // Grid jobs fan out point-by-point; see `dispatch_grid`.
            return Err(ServerError::new(
                ErrorCode::ExecFailed,
                "grid jobs dispatch via dispatch_grid",
            ));
        };
        let env = job_envelope(job, trace_id);
        let mut last: Option<ServerError> = None;
        let retry_deadline = Instant::now() + self.opts.max_retry_time;
        for attempt in 0..=self.opts.retries {
            if attempt > 0 {
                let delay = self.backoff_delay(attempt);
                if Instant::now() + delay > retry_deadline {
                    break; // total per-job retry time is capped
                }
                self.metrics
                    .dispatch_retries
                    .fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(delay);
            }
            let Some(worker) = self.pick_worker() else {
                last.get_or_insert_with(|| {
                    ServerError::new(ErrorCode::WorkerUnavailable, "no healthy workers")
                });
                continue;
            };
            match self.try_worker(&worker, &env, expect, trace) {
                Ok(payload) => return Ok(payload),
                Err(TryError::Fatal(e)) => return Err(e),
                Err(TryError::Busy(e)) => last = Some(e),
                Err(TryError::Broken(e)) => {
                    self.note_broken(&worker);
                    last = Some(e);
                }
            }
        }
        Err(unavailable(last))
    }

    /// Fans a grid of independent run jobs out over every healthy
    /// worker, streaming results back **in grid order** through `emit`
    /// (`emit(index, payload, was_cached)`; return `false` to cancel,
    /// e.g. when the requesting client disconnected).
    ///
    /// Cached points are served locally; misses go to a shared work
    /// queue that one thread per healthy worker drains over its
    /// persistent connection, inserting fresh payloads into `cache`.
    /// When a worker dies mid-grid its claimed point is re-queued for
    /// the survivors ([`Metrics::dispatch_retries`] counts each
    /// re-queue). Returns the number of points emitted.
    ///
    /// # Errors
    ///
    /// A fatal worker error propagates; if every worker dies with points
    /// outstanding, [`ErrorCode::WorkerUnavailable`].
    pub(crate) fn dispatch_grid(
        &self,
        jobs: &[RunJob],
        cache: &crate::cache::ResultCache,
        trace_id: Option<u64>,
        trace: &TraceOut,
        mut emit: impl FnMut(usize, &str, bool) -> bool,
    ) -> Result<u64, ServerError> {
        let n = jobs.len();
        let mut results: Vec<Option<(String, bool)>> = Vec::with_capacity(n);
        let mut pending = VecDeque::new();
        for (i, job) in jobs.iter().enumerate() {
            if let Some(hit) = cache.get(&job.cache_key()) {
                self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                results.push(Some((hit, true)));
            } else {
                self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
                results.push(None);
                pending.push_back(i);
            }
        }
        let remaining = pending.len();
        let threads: Vec<Arc<RemoteWorker>> = self
            .workers
            .iter()
            .filter(|w| w.healthy.load(Ordering::SeqCst))
            .cloned()
            .collect();
        if remaining > 0 && threads.is_empty() {
            return Err(ServerError::new(
                ErrorCode::WorkerUnavailable,
                "no healthy workers",
            ));
        }
        let shared = Mutex::new(GridState {
            results,
            pending,
            remaining,
            live_threads: threads.len(),
            fatal: None,
            cancelled: false,
        });
        let cv = Condvar::new();
        std::thread::scope(|s| {
            for worker in &threads {
                s.spawn(|| self.grid_worker(worker, jobs, cache, trace_id, trace, &shared, &cv));
            }
            // The coordinator thread emits results in grid order as they
            // resolve, so a sweep streams through the coordinator exactly
            // like it streams from a single node.
            let mut emitted = 0u64;
            let mut guard = shared.lock().expect("grid lock");
            while (emitted as usize) < n {
                let next = match guard.results[emitted as usize].take() {
                    Some(point) => point,
                    None => {
                        if guard.fatal.is_some() {
                            return Err(guard.fatal.take().expect("checked"));
                        }
                        guard = cv.wait(guard).expect("grid lock");
                        continue;
                    }
                };
                drop(guard);
                let keep_going = emit(emitted as usize, &next.0, next.1);
                emitted += 1;
                guard = shared.lock().expect("grid lock");
                if !keep_going {
                    guard.cancelled = true;
                    cv.notify_all();
                    return Ok(emitted);
                }
            }
            Ok(emitted)
        })
    }

    /// One grid worker thread: claim a point, execute it on this
    /// worker's connection, publish the result; on a broken worker,
    /// re-queue the claimed point for the survivors and exit.
    #[allow(clippy::too_many_arguments)]
    fn grid_worker(
        &self,
        worker: &RemoteWorker,
        jobs: &[RunJob],
        cache: &crate::cache::ResultCache,
        trace_id: Option<u64>,
        trace: &TraceOut,
        shared: &Mutex<GridState>,
        cv: &Condvar,
    ) {
        loop {
            let i = {
                let mut guard = shared.lock().expect("grid lock");
                loop {
                    if guard.fatal.is_some() || guard.cancelled || guard.remaining == 0 {
                        guard.live_threads -= 1;
                        return;
                    }
                    if let Some(i) = guard.pending.pop_front() {
                        break i;
                    }
                    guard = cv.wait(guard).expect("grid lock");
                }
            };
            match self.grid_attempt(worker, &jobs[i], trace_id, trace) {
                Ok(payload) => {
                    cache.insert(&jobs[i].cache_key(), &payload);
                    let mut guard = shared.lock().expect("grid lock");
                    guard.results[i] = Some((payload, false));
                    guard.remaining -= 1;
                    cv.notify_all();
                }
                Err(TryError::Fatal(e)) => {
                    let mut guard = shared.lock().expect("grid lock");
                    guard.fatal.get_or_insert(e);
                    guard.live_threads -= 1;
                    cv.notify_all();
                    return;
                }
                Err(TryError::Busy(e)) | Err(TryError::Broken(e)) => {
                    // This worker is out: grid_attempt already burned the
                    // per-worker retry budget on it. Hand the point to
                    // the survivors; if there are none, the grid is stuck.
                    self.note_broken(worker);
                    self.metrics
                        .dispatch_retries
                        .fetch_add(1, Ordering::Relaxed);
                    let mut guard = shared.lock().expect("grid lock");
                    guard.pending.push_front(i);
                    guard.live_threads -= 1;
                    if guard.live_threads == 0 && guard.remaining > 0 {
                        guard.fatal.get_or_insert(ServerError::new(
                            ErrorCode::WorkerUnavailable,
                            format!("every worker failed; last: {e}"),
                        ));
                    }
                    cv.notify_all();
                    return;
                }
            }
        }
    }

    /// One point on one worker, retrying `queue_full` *and* transport
    /// failures in place with backoff — the next attempt reconnects, so
    /// a chaos-dropped connection to a live worker heals here instead
    /// of evicting the worker from the grid. Only a worker that keeps
    /// failing past the retry budget (or the retry-time cap) hands the
    /// point to the survivors.
    fn grid_attempt(
        &self,
        worker: &RemoteWorker,
        job: &RunJob,
        trace_id: Option<u64>,
        trace: &TraceOut,
    ) -> Result<String, TryError> {
        let env = job_envelope(&Job::Run(job.clone()), trace_id);
        let mut last: Option<TryError> = None;
        let retry_deadline = Instant::now() + self.opts.max_retry_time;
        for attempt in 0..=self.opts.retries {
            if attempt > 0 {
                let delay = self.backoff_delay(attempt);
                if Instant::now() + delay > retry_deadline {
                    break; // total per-job retry time is capped
                }
                self.metrics
                    .dispatch_retries
                    .fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(delay);
            }
            match self.try_worker(worker, &env, "result", trace) {
                Ok(payload) => return Ok(payload),
                Err(fatal @ TryError::Fatal(_)) => return Err(fatal),
                Err(retryable) => last = Some(retryable),
            }
        }
        Err(last.unwrap_or_else(|| TryError::Busy(unavailable(None))))
    }

    /// One request/reply exchange on one worker's persistent connection.
    fn try_worker(
        &self,
        worker: &RemoteWorker,
        env: &Envelope,
        expect: &str,
        trace: &TraceOut,
    ) -> Result<String, TryError> {
        let broken = |addr: &str, e: &dyn std::fmt::Display| {
            TryError::Broken(ServerError::new(
                ErrorCode::WorkerUnavailable,
                format!("worker {addr}: {e}"),
            ))
        };
        let mut conn = worker.conn.lock().expect("worker conn lock");
        match sharing_chaos::hooks().on_dispatch_exchange(&worker.addr) {
            IoFault::Pass => {}
            IoFault::Drop => {
                *conn = None;
                return Err(broken(&worker.addr, &"chaos: connection dropped"));
            }
            IoFault::Delay(d) => std::thread::sleep(d),
        }
        if conn.is_none() {
            *conn = Some(register(&worker.addr, &self.opts).map_err(|e| broken(&worker.addr, &e))?);
        }
        let start_us = trace.now_us();
        let t0 = Instant::now();
        // A traced worker answers with `"spans"` lines (its execution
        // spans for this job) *before* the final reply line; keep them
        // parsed so the final line splices exactly as before. Each line
        // is parsed once, here.
        let mut span_batches: Vec<Json> = Vec::new();
        let exchanged = {
            let client = conn.as_mut().expect("just connected");
            client.send(env).and_then(|()| loop {
                let line = client.recv_line()?;
                let parsed = Json::parse(&line);
                match parsed {
                    Ok(v)
                        if span_batches.len() < MAX_SPAN_LINES
                            && v.get("type").and_then(Json::as_str) == Some("spans") =>
                    {
                        span_batches.push(v);
                    }
                    _ => break Ok((line, parsed)),
                }
            })
        };
        let (line, parsed) = match exchanged {
            Ok(reply) => reply,
            Err(e) => {
                // The connection is desynced or gone; force a reconnect.
                *conn = None;
                return Err(broken(&worker.addr, &e));
            }
        };
        let exec_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        drop(conn);
        let v = parsed.map_err(|e| broken(&worker.addr, &e))?;
        let outcome = if let Some(err) = ServerError::from_reply(&v) {
            worker.failures.fetch_add(1, Ordering::Relaxed);
            match err.code {
                ErrorCode::QueueFull => Err(TryError::Busy(err)),
                ErrorCode::ShuttingDown | ErrorCode::WorkerUnavailable => {
                    Err(TryError::Broken(err))
                }
                _ => Err(TryError::Fatal(err)),
            }
        } else if v.get("type").and_then(Json::as_str) != Some(expect) {
            worker.failures.fetch_add(1, Ordering::Relaxed);
            Err(broken(
                &worker.addr,
                &format!("unexpected reply type (wanted {expect})"),
            ))
        } else {
            match splice_payload(&line) {
                Some(payload) => {
                    worker.dispatched.fetch_add(1, Ordering::Relaxed);
                    self.metrics.dispatched_jobs.fetch_add(1, Ordering::Relaxed);
                    Ok(payload.to_string())
                }
                None => {
                    worker.failures.fetch_add(1, Ordering::Relaxed);
                    Err(broken(&worker.addr, &"reply carried no result payload"))
                }
            }
        };
        trace.record(|| {
            let mut args = vec![
                ("worker".to_string(), Json::Str(worker.addr.clone())),
                ("ok".to_string(), Json::Bool(outcome.is_ok())),
            ];
            if let Some(t) = env.trace {
                args.push(("trace".to_string(), Json::Int(i128::from(t))));
            }
            SpanEvent::wall(
                format!("dispatch {expect}"),
                "dispatch",
                DISPATCH_TRACK_BASE + worker.index as u64,
                start_us,
                exec_us,
                args,
            )
        });
        relay_worker_spans(worker, &span_batches, start_us, trace);
        outcome
    }

    /// Round-robin over healthy workers.
    fn pick_worker(&self) -> Option<Arc<RemoteWorker>> {
        let n = self.workers.len();
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        (0..n)
            .map(|i| &self.workers[(start + i) % n])
            .find(|w| w.healthy.load(Ordering::SeqCst))
            .cloned()
    }

    /// The next retry delay: exponential step for `attempt`, jittered
    /// by the pool-wide draw counter so concurrent retries spread out.
    fn backoff_delay(&self, attempt: u32) -> Duration {
        let draw = self.backoff_draws.fetch_add(1, Ordering::Relaxed);
        backoff(&self.opts, attempt, draw)
    }

    /// Marks a worker broken and refreshes the healthy gauge.
    fn note_broken(&self, worker: &RemoteWorker) {
        worker.mark_broken();
        self.metrics
            .workers_healthy
            .store(self.healthy_count(), Ordering::SeqCst);
    }

    /// Per-worker Prometheus families, appended after the server-wide
    /// exposition (`ssimd_worker_*{worker="addr"}`).
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        let mut w = PromWriter::new();
        let healthy: Vec<(&str, u64)> = self
            .workers
            .iter()
            .map(|wk| {
                (
                    wk.addr.as_str(),
                    u64::from(wk.healthy.load(Ordering::SeqCst)),
                )
            })
            .collect();
        let dispatched: Vec<(&str, u64)> = self
            .workers
            .iter()
            .map(|wk| (wk.addr.as_str(), wk.dispatched.load(Ordering::Relaxed)))
            .collect();
        let failures: Vec<(&str, u64)> = self
            .workers
            .iter()
            .map(|wk| (wk.addr.as_str(), wk.failures.load(Ordering::Relaxed)))
            .collect();
        w.gauge_family(
            "ssimd_worker_healthy",
            "Per-worker health (1 healthy, 0 not) from the last probe or dispatch.",
            "worker",
            &healthy
                .iter()
                .map(|&(a, v)| (a, v as i64))
                .collect::<Vec<_>>(),
        );
        w.counter_family(
            "ssimd_worker_dispatched_total",
            "Jobs completed per remote worker.",
            "worker",
            &dispatched,
        );
        w.counter_family(
            "ssimd_worker_failures_total",
            "Failed dispatch exchanges per remote worker.",
            "worker",
            &failures,
        );
        w.finish()
    }

    /// Pulls every healthy worker's own Prometheus exposition over a
    /// fresh connection (the persistent job connection stays free for
    /// jobs). Returns `(worker index, document)` pairs; the caller
    /// stamps each document with `instance="worker:<k>"` via
    /// [`sharing_obs::inject_label`] and appends it to its own scrape —
    /// one federated `/metrics` answer for the whole fleet. A worker
    /// that fails to answer is skipped and counted in
    /// `ssimd_federation_errors_total`.
    #[must_use]
    pub fn federate(&self) -> Vec<(usize, String)> {
        let mut docs = Vec::new();
        for worker in &self.workers {
            if !worker.healthy.load(Ordering::SeqCst) {
                continue;
            }
            let fetched = Client::connect_timeout(&worker.addr, self.opts.connect_timeout)
                .and_then(|mut c| {
                    c.set_read_timeout(Some(self.opts.connect_timeout))?;
                    c.metrics()
                });
            match fetched {
                Ok(doc) => docs.push((worker.index, doc)),
                Err(_) => sharing_obs::counter("ssimd_federation_errors_total").inc(),
            }
        }
        docs
    }
}

/// Seeded jittered backoff: the exponential step `base * 2^(attempt-1)`
/// scaled into `[50%, 100%]` by an `Rng64` draw pure in
/// `(backoff_seed, attempt, draw)` — replayable, unlike clock- or
/// thread-id-derived jitter.
fn backoff(opts: &DispatchOpts, attempt: u32, draw: u64) -> Duration {
    let step = opts.backoff_base.saturating_mul(1 << (attempt - 1).min(16));
    let mut rng = Rng64::seed_from_u64(
        opts.backoff_seed ^ draw.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(attempt),
    );
    step.mul_f64(0.5 + 0.5 * rng.f64())
}

fn unavailable(last: Option<ServerError>) -> ServerError {
    last.unwrap_or_else(|| ServerError::new(ErrorCode::WorkerUnavailable, "no healthy workers"))
}

fn job_envelope(job: &Job, trace_id: Option<u64>) -> Envelope {
    Envelope {
        id: None,
        proto: Some(PROTO_VERSION),
        trace: trace_id,
        req: Request::Job(job.clone()),
    }
}

/// Re-records the execution spans a worker returned with its reply onto
/// this worker's relay track. Worker timestamps are measured against the
/// *worker's* trace epoch, which the coordinator cannot translate, so
/// each span is rebased to the start of the dispatch exchange that
/// carried it — durations (the honest part) are preserved verbatim.
fn relay_worker_spans(
    worker: &RemoteWorker,
    span_batches: &[Json],
    start_us: u64,
    trace: &TraceOut,
) {
    for batch in span_batches {
        let Some(spans) = batch.get("spans").and_then(Json::as_arr) else {
            continue;
        };
        for sv in spans {
            let Some(mut ev) = SpanEvent::from_json(sv) else {
                continue;
            };
            ev.ts = start_us;
            ev.track = WORKER_TRACK_BASE + worker.index as u64;
            ev.args
                .push(("worker".to_string(), Json::Str(worker.addr.clone())));
            trace.record(|| ev);
        }
    }
}

/// Connect + version-negotiate + arm the per-job read timeout: the full
/// worker registration handshake, also used for reconnects.
fn register(addr: &str, opts: &DispatchOpts) -> std::io::Result<Client> {
    if sharing_chaos::hooks().connect_fault(addr) {
        return Err(Error::new(
            ErrorKind::ConnectionRefused,
            "chaos: partitioned",
        ));
    }
    let mut client = Client::connect_timeout(addr, opts.connect_timeout)?;
    client.set_read_timeout(Some(opts.job_timeout))?;
    client.hello()?;
    Ok(client)
}

/// Splices the result payload out of a worker's reply line *verbatim*.
/// Worker replies put `"result"` last (`…,"result":{…}}`), and the
/// coordinator sends worker requests without an `id`, so the first
/// occurrence is the envelope's own key and the payload runs to the
/// line's closing brace.
fn splice_payload(line: &str) -> Option<&str> {
    const KEY: &str = "\"result\":";
    let idx = line.find(KEY)?;
    if !line.ends_with('}') {
        return None;
    }
    Some(&line[idx + KEY.len()..line.len() - 1])
}

/// Pings every worker over a fresh connection on the configured
/// interval, updating per-worker health and the `workers_healthy` gauge.
fn health_loop(pool: &WorkerPool) {
    while !pool.closed.load(Ordering::SeqCst) {
        let mut healthy = 0usize;
        for worker in &pool.workers {
            // A chaos partition window makes the worker look dead to
            // probes without consuming an injection-schedule slot.
            let alive = !sharing_chaos::hooks().partitioned(&worker.addr)
                && Client::connect_timeout(&worker.addr, pool.opts.connect_timeout)
                    .and_then(|mut c| {
                        c.set_read_timeout(Some(pool.opts.connect_timeout))?;
                        c.ping()
                    })
                    .unwrap_or(false);
            if alive {
                healthy += 1;
            } else {
                // Drop the job connection too: a worker that refuses new
                // connections is draining or dead, and an exchange on the
                // old connection would only stall until the job timeout.
                worker.mark_broken();
            }
            worker.healthy.store(alive, Ordering::SeqCst);
        }
        pool.metrics
            .workers_healthy
            .store(healthy, Ordering::SeqCst);
        // Sleep in short slices so close() is prompt.
        let mut slept = Duration::ZERO;
        while slept < pool.opts.ping_interval && !pool.closed.load(Ordering::SeqCst) {
            let slice = Duration::from_millis(50).min(pool.opts.ping_interval - slept);
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splice_extracts_the_exact_payload_bytes() {
        let line =
            r#"{"ok":true,"type":"result","cached":false,"result":{"cycles":10,"instructions":7}}"#;
        assert_eq!(
            splice_payload(line),
            Some(r#"{"cycles":10,"instructions":7}"#)
        );
        // Nested `"result":` keys inside the payload don't confuse the
        // splice — the envelope's key comes first.
        let nested = r#"{"ok":true,"type":"result","cached":true,"result":{"result":1}}"#;
        assert_eq!(splice_payload(nested), Some(r#"{"result":1}"#));
        assert_eq!(splice_payload(r#"{"ok":true}"#), None);
    }

    #[test]
    fn backoff_jitter_is_seeded_and_bounded() {
        let opts = DispatchOpts::default();
        for attempt in 1..=4 {
            let step = opts.backoff_base.saturating_mul(1 << (attempt - 1));
            for draw in 0..8 {
                let d = backoff(&opts, attempt, draw);
                assert!(
                    d >= step / 2 && d <= step,
                    "attempt {attempt} draw {draw}: {d:?} outside [{:?}, {step:?}]",
                    step / 2
                );
            }
        }
        // Pure in (seed, attempt, draw): replays sleep identically.
        assert_eq!(backoff(&opts, 2, 7), backoff(&opts, 2, 7));
        let other = DispatchOpts {
            backoff_seed: opts.backoff_seed + 1,
            ..opts.clone()
        };
        let same_everywhere = (0..16).all(|d| backoff(&opts, 2, d) == backoff(&other, 2, d));
        assert!(!same_everywhere, "the seed must matter");
        // Huge attempt counts must not overflow the shift.
        let _ = backoff(&opts, 40, 0);
    }

    #[test]
    fn registration_refuses_a_dead_worker() {
        // Nothing listens here: bind, learn the port, drop the listener.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let opts = DispatchOpts {
            connect_timeout: Duration::from_millis(200),
            ..DispatchOpts::default()
        };
        let metrics = Arc::new(Metrics::new(1));
        let err = match WorkerPool::connect(&[format!("127.0.0.1:{port}")], opts, metrics) {
            Ok(_) => panic!("dead worker must fail registration"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("worker 127.0.0.1"));
    }
}
