//! The ssimd daemon: TCP listener, connection handlers, worker pool.
//!
//! ```text
//!  clients ──TCP──▶ connection threads ──try_push──▶ bounded JobQueue
//!                        ▲    │ backpressure reply          │ pop
//!                        │    ▼                             ▼
//!                   reply mpsc  ◀───── lines ─────── worker pool (N threads)
//!                                                           │
//!                                               ResultCache + Metrics
//!                                                           │
//!                                            (coordinator mode only)
//!                                                           ▼
//!                                              WorkerPool ──▶ remote ssimds
//! ```
//!
//! Each connection thread reads requests in order; control requests
//! (`ping`, `hello`, `stats`, `shutdown`) are answered inline, simulation
//! jobs go through admission control into the shared queue and their
//! reply lines stream back through a per-job channel. Shutdown closes
//! admission, drains every in-flight job, answers the requester, then
//! stops the listener.
//!
//! In **coordinator mode** (`ServerConfig::remote_workers` non-empty)
//! the queue and cache work exactly as in single-node mode, but job
//! execution dispatches to remote worker daemons through a
//! [`WorkerPool`] instead of the local simulator — with health checks,
//! per-job timeouts, and retry/re-queue (see [`crate::dispatch`]).
//! Workers run the same deterministic simulator and payloads are spliced
//! verbatim, so results stay byte-identical to single-node execution.

use crate::cache::ResultCache;
use crate::dispatch::{DispatchOpts, WorkerPool};
use crate::exec;
use crate::http;
use crate::jobs::JobsTable;
use crate::metrics::{JobClass, Metrics};
use crate::protocol::{
    self, Envelope, ErrorCode, Job, JobWorkload, Request, RunJob, ServerError, MIN_PROTO,
    PROTO_VERSION,
};
use crate::queue::{JobQueue, PushError};
use sharing_core::VCoreShape;
use sharing_json::Json;
use sharing_market::{optimize, PerfSurface};
use sharing_obs::{SpanEvent, SpanSink};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon tunables.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (use port 0 for an ephemeral port in tests).
    pub addr: String,
    /// Worker pool size.
    pub workers: usize,
    /// Bounded queue capacity (admission control threshold).
    pub queue_capacity: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// When set, the result cache is loaded from this file at startup and
    /// saved back on graceful shutdown, so cached results (and their
    /// byte-identical replays) survive daemon restarts.
    pub cache_path: Option<String>,
    /// When set, every job's spans (per-worker wall-clock spans with
    /// queue-wait and execute timings, plus dispatch spans in
    /// coordinator mode) stream here as JSON Lines, one Chrome event per
    /// line, through a bounded-buffer writer thread. Memory stays
    /// bounded however long the daemon runs, and a SIGKILL still leaves
    /// every completed line on disk; re-wrap with `ssim trace-pack` /
    /// [`sharing_obs::jsonl_to_chrome`]. Unset, the daemon keeps no
    /// spans at all.
    pub trace_path: Option<String>,
    /// Remote worker daemon addresses. Non-empty turns this daemon into
    /// a coordinator: jobs dispatch to these workers instead of the
    /// local simulator. Every worker must be reachable and speak a
    /// compatible protocol version at startup.
    pub remote_workers: Vec<String>,
    /// Per-job reply timeout on worker connections (coordinator mode).
    pub job_timeout_ms: u64,
    /// Extra dispatch attempts after a failure (coordinator mode).
    pub dispatch_retries: u32,
    /// Worker health-ping cadence (coordinator mode).
    pub ping_interval_ms: u64,
    /// When set, an HTTP/1.1 front door binds here alongside the TCP
    /// listener: `GET /health`, `GET /metrics`, `GET /status`,
    /// `POST /jobs` + `GET /jobs/<id>`. Use port 0 for an ephemeral
    /// port; [`ServerHandle::http_addr`] resolves it.
    pub http_addr: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: format!("127.0.0.1:{}", protocol::DEFAULT_PORT),
            workers: std::thread::available_parallelism().map_or(2, |n| n.get().min(8)),
            queue_capacity: 64,
            cache_capacity: 1024,
            cache_path: None,
            trace_path: None,
            remote_workers: Vec::new(),
            job_timeout_ms: 30_000,
            dispatch_retries: 3,
            ping_interval_ms: 2_000,
            http_addr: None,
        }
    }
}

/// One queued job: the request plus the channel its reply lines go to.
pub(crate) struct Queued {
    pub(crate) id: Option<u64>,
    pub(crate) job: Job,
    /// Distributed trace id from the envelope. Every span this job
    /// produces — queue wait, dispatch, remote execution — carries it,
    /// and single-reply jobs answer with a `"spans"` line ahead of the
    /// result so the submitter (a coordinator, or `ssim submit
    /// --trace`) can merge them into one end-to-end trace.
    pub(crate) trace: Option<u64>,
    pub(crate) reply: mpsc::Sender<String>,
    pub(crate) enqueued: Instant,
}

/// The daemon's span stream: wall timestamps in microseconds since one
/// epoch (the daemon's start), and the `--trace-out` writer when one is
/// open. Traced jobs' `"spans"` reply lines read the epoch whether or
/// not a file is written; without a file no span is built or kept.
pub(crate) struct TraceOut {
    epoch: Instant,
    sink: Mutex<Option<SpanSink>>,
}

impl TraceOut {
    fn open(path: Option<&str>) -> std::io::Result<TraceOut> {
        let sink = path
            .map(|p| {
                SpanSink::create(p)
                    .map_err(|e| std::io::Error::new(e.kind(), format!("trace file {p}: {e}")))
            })
            .transpose()?;
        Ok(TraceOut {
            epoch: Instant::now(),
            sink: Mutex::new(sink),
        })
    }

    /// Microseconds of wall time since the daemon started.
    pub(crate) fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Streams the span `make` builds; `make` runs only while a trace
    /// file is open.
    pub(crate) fn record(&self, make: impl FnOnce() -> SpanEvent) {
        if let Some(sink) = self.sink.lock().expect("trace sink lock").as_ref() {
            sink.emit(make());
        }
    }

    /// Drains the writer and flushes the file; later spans are dropped.
    fn close(&self) {
        if let Some(sink) = self.sink.lock().expect("trace sink lock").take() {
            let _ = sink.close();
        }
    }
}

/// Shared daemon state.
pub(crate) struct State {
    pub(crate) queue: JobQueue<Queued>,
    pub(crate) cache: ResultCache,
    cache_path: Option<String>,
    pub(crate) metrics: Arc<Metrics>,
    trace: TraceOut,
    stopping: AtomicBool,
    /// Set the moment a shutdown begins, *before* the drain completes,
    /// so `GET /health` flips to 503 while in-flight jobs finish.
    pub(crate) draining: AtomicBool,
    /// Jobs submitted over HTTP, held for polling.
    pub(crate) jobs: JobsTable,
    /// The HTTP front door's handle; taken (and stopped) at shutdown.
    http: Mutex<Option<sharing_http::HttpHandle>>,
    /// Remote dispatch pool; `Some` only in coordinator mode.
    pub(crate) pool: Option<Arc<WorkerPool>>,
}

impl State {
    fn new(
        cfg: &ServerConfig,
        trace: TraceOut,
        metrics: Arc<Metrics>,
        pool: Option<Arc<WorkerPool>>,
    ) -> State {
        State {
            queue: JobQueue::new(cfg.queue_capacity),
            cache: ResultCache::new(cfg.cache_capacity),
            cache_path: cfg.cache_path.clone(),
            metrics,
            trace,
            stopping: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            jobs: JobsTable::new(),
            http: Mutex::new(None),
            pool,
        }
    }
}

/// The full Prometheus exposition for one daemon: queue/cache/latency
/// families (now histogram-backed), per-worker families in coordinator
/// mode, and the process-global registry. Shared verbatim by the TCP
/// `metrics` request and HTTP `GET /metrics`.
///
/// In coordinator mode the answer is **federated**: every healthy
/// worker's own exposition is pulled over the protocol and appended
/// under `instance="worker:<k>"` labels, so one scrape of the
/// coordinator reads the whole fleet. The coordinator's own samples
/// stay unlabelled.
pub(crate) fn metrics_text(state: &State) -> String {
    let mut text = state.metrics.prometheus_text(
        state.queue.depth(),
        state.queue.capacity(),
        state.cache.len(),
    );
    if let Some(pool) = &state.pool {
        text.push_str(&pool.prometheus_text());
        for (k, doc) in pool.federate() {
            text.push_str(&sharing_obs::inject_label(
                &doc,
                "instance",
                &format!("worker:{k}"),
            ));
        }
    }
    text.push_str(&sharing_obs::prometheus_text());
    text
}

/// A running daemon; dropping the handle does *not* stop it — call
/// [`ServerHandle::shutdown`] or send a `shutdown` request.
pub struct Server;

/// Handle to a started daemon.
pub struct ServerHandle {
    local: SocketAddr,
    http_local: Option<SocketAddr>,
    state: Arc<State>,
    listener_thread: Option<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the daemon: listener thread plus a fixed worker
    /// pool. With `remote_workers` set, registers every remote worker
    /// (connect + `hello` version negotiation) before accepting clients.
    ///
    /// # Errors
    ///
    /// Propagates a trace file that cannot be created and socket bind
    /// errors, and in coordinator mode any unreachable or
    /// protocol-mismatched worker.
    pub fn start(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
        // The trace file opens first, so a bad `--trace-out` path fails
        // startup before anything binds or spawns.
        let trace = TraceOut::open(cfg.trace_path.as_deref())?;
        let listener = TcpListener::bind(&cfg.addr)?;
        let local = listener.local_addr()?;
        let metrics = Arc::new(Metrics::new(cfg.workers));
        let pool = if cfg.remote_workers.is_empty() {
            None
        } else {
            Some(WorkerPool::connect(
                &cfg.remote_workers,
                DispatchOpts {
                    job_timeout: Duration::from_millis(cfg.job_timeout_ms.max(1)),
                    retries: cfg.dispatch_retries,
                    ping_interval: Duration::from_millis(cfg.ping_interval_ms.max(1)),
                    ..DispatchOpts::default()
                },
                Arc::clone(&metrics),
            )?)
        };
        let state = Arc::new(State::new(&cfg, trace, metrics, pool));
        if let Some(path) = &state.cache_path {
            // An armed corrupt_cache_file rule mangles the persisted
            // bytes here, before we trust them.
            let _ = sharing_chaos::hooks().mangle_cache_file(path);
            // A missing file is a cold start, and so is a corrupt or
            // truncated one: warn and drop whatever half-loaded rather
            // than refusing to come up over a damaged cache.
            if let Err(e) = state.cache.load_from_file(path) {
                eprintln!("ssimd: cache file {path}: {e}; starting with a cold cache");
                sharing_obs::counter("ssimd_cache_load_failures_total").inc();
                state.cache.clear();
            }
        }
        // The HTTP front door binds before the workers spawn so a bind
        // failure aborts startup cleanly (nothing to drain yet).
        let http_local = match &cfg.http_addr {
            Some(addr) => {
                let handle = http::start(addr, &state)?;
                let http_local = handle.local_addr();
                *state.http.lock().expect("http handle lock") = Some(handle);
                Some(http_local)
            }
            None => None,
        };
        let worker_threads = (0..cfg.workers.max(1))
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("ssimd-worker-{i}"))
                    .spawn(move || worker_loop(&state, i as u64))
                    .expect("spawn worker")
            })
            .collect();
        let lstate = Arc::clone(&state);
        let listener_thread = std::thread::Builder::new()
            .name("ssimd-listener".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if lstate.stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn.and_then(accepted) else {
                        continue;
                    };
                    let cstate = Arc::clone(&lstate);
                    let _ = std::thread::Builder::new()
                        .name("ssimd-conn".into())
                        .spawn(move || handle_connection(stream, &cstate, local));
                }
            })
            .expect("spawn listener");
        Ok(ServerHandle {
            local,
            http_local,
            state,
            listener_thread: Some(listener_thread),
            worker_threads,
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// The HTTP front door's bound address, when one was configured.
    #[must_use]
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_local
    }

    /// Whether the daemon has finished shutting down (drain complete,
    /// listener kicked). Lets signal-driven mains poll for exit without
    /// consuming the handle.
    #[must_use]
    pub fn is_stopped(&self) -> bool {
        self.state.stopping.load(Ordering::SeqCst)
    }

    /// Programmatic graceful shutdown: drain, then stop the listener.
    /// Idempotent.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.state, self.local);
    }

    /// Waits for the daemon to exit (after a shutdown from any source).
    ///
    /// # Panics
    ///
    /// Panics if a daemon thread panicked.
    pub fn join(mut self) {
        if let Some(t) = self.listener_thread.take() {
            t.join().expect("listener thread");
        }
        for t in self.worker_threads.drain(..) {
            t.join().expect("worker thread");
        }
    }

    /// Shuts down and waits; the one-call teardown for tests and examples.
    pub fn stop(self) {
        self.shutdown();
        self.join();
    }
}

/// Closes admission, waits for in-flight jobs, then unblocks `accept`.
fn initiate_shutdown(state: &State, local: SocketAddr) {
    // Draining flips first so `GET /health` answers 503 while the
    // in-flight jobs below finish.
    state.draining.store(true, Ordering::SeqCst);
    state.queue.close();
    state.queue.wait_drained();
    if !state.stopping.swap(true, Ordering::SeqCst) {
        // Exactly-once on the first shutdown path: persist the cache and
        // flush the span stream (all jobs have drained, so both are
        // quiescent), stop the dispatch pool's health thread, then kick
        // the listener out of accept() with a throwaway connection.
        if let Some(path) = &state.cache_path {
            let _ = state.cache.save_to_file(path);
        }
        state.trace.close();
        if let Some(pool) = &state.pool {
            pool.close();
        }
        // Stop the HTTP front door last: it kept answering (503s on
        // /health, polls on /jobs) throughout the drain above.
        if let Some(http) = state.http.lock().expect("http handle lock").take() {
            http.stop();
        }
        let _ = TcpStream::connect(local);
    }
}

fn ok_head(id: Option<u64>, ty: &str) -> String {
    let mut s = String::from("{");
    if let Some(id) = id {
        s.push_str(&format!("\"id\":{id},"));
    }
    s.push_str(&format!("\"ok\":true,\"type\":\"{ty}\""));
    s
}

/// The streamed per-shape sweep line, shared by the local and
/// coordinator execution paths so both produce identical bytes.
fn sweep_point_line(id: Option<u64>, shape: VCoreShape, payload: &str, cached: bool) -> String {
    let ipc = payload_ipc(payload).unwrap_or(0.0);
    format!(
        "{},\"shape\":{{\"slices\":{},\"l2_banks\":{}}},\"ipc\":{},\"cached\":{cached}}}",
        ok_head(id, "sweep_point"),
        shape.slices,
        shape.l2_banks,
        Json::Float(ipc)
    )
}

/// The 72 per-shape run jobs behind one sweep or market grid.
fn grid_jobs(
    benchmark: sharing_trace::Benchmark,
    len: usize,
    seed: u64,
) -> Vec<(VCoreShape, RunJob)> {
    VCoreShape::sweep_grid()
        .map(|shape| {
            (
                shape,
                RunJob {
                    workload: JobWorkload::Benchmark(benchmark),
                    slices: shape.slices,
                    banks: shape.l2_banks,
                    len,
                    seed,
                },
            )
        })
        .collect()
}

/// Readies an accepted connection for the line protocol: `TCP_NODELAY`
/// on, so each reply line, written whole by [`protocol::write_line`],
/// leaves at once instead of waiting on the client's delayed ACK.
fn accepted(stream: TcpStream) -> std::io::Result<TcpStream> {
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn handle_connection(stream: TcpStream, state: &Arc<State>, local: SocketAddr) {
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    loop {
        let line = match protocol::read_line(&mut reader) {
            Ok(Some(line)) => line,
            Ok(None) | Err(_) => return,
        };
        if line.is_empty() {
            continue;
        }
        let env = match parse_request(state, &line) {
            Ok(env) => env,
            Err(refusal) => {
                if protocol::write_line(&mut writer, &refusal).is_err() {
                    return;
                }
                continue;
            }
        };
        let job = match env.req {
            Request::Hello { proto } => {
                let reply = format!(
                    "{},\"proto\":{PROTO_VERSION},\"min_proto\":{MIN_PROTO},\
                     \"client_proto\":{proto}}}",
                    ok_head(env.id, "hello")
                );
                if protocol::write_line(&mut writer, &reply).is_err() {
                    return;
                }
                continue;
            }
            Request::Ping => {
                let reply = ok_head(env.id, "pong") + "}";
                if protocol::write_line(&mut writer, &reply).is_err() {
                    return;
                }
                continue;
            }
            Request::Stats => {
                let snap = state
                    .metrics
                    .snapshot(state.queue.depth(), state.cache.len());
                let reply = format!("{},\"stats\":{snap}}}", ok_head(env.id, "stats"));
                if protocol::write_line(&mut writer, &reply).is_err() {
                    return;
                }
                continue;
            }
            Request::Metrics => {
                // Prometheus text is multi-line; it ships as one JSON
                // string field so the one-line-per-reply protocol holds.
                // Same document as HTTP `GET /metrics`.
                let text = metrics_text(state);
                let reply = format!(
                    "{},\"metrics\":{}}}",
                    ok_head(env.id, "metrics"),
                    Json::Str(text)
                );
                if protocol::write_line(&mut writer, &reply).is_err() {
                    return;
                }
                continue;
            }
            Request::Shutdown => {
                // Drain first, then answer, and only then unblock the
                // listener: once `accept` returns the daemon may exit, and
                // nothing joins this connection thread — replying after
                // the kick races with process teardown.
                state.draining.store(true, Ordering::SeqCst);
                state.queue.close();
                state.queue.wait_drained();
                let done = state.metrics.jobs_completed.load(Ordering::Relaxed);
                let reply = format!(
                    "{},\"jobs_completed\":{done}}}",
                    ok_head(env.id, "shutdown")
                );
                let _ = protocol::write_line(&mut writer, &reply);
                initiate_shutdown(state, local);
                return;
            }
            Request::Job(job) => job,
        };
        match admit(state, env.id, job, env.trace) {
            Ok(rx) => {
                // Stream every reply line for this job; the channel closes
                // when the worker drops the sender.
                for reply_line in rx {
                    if protocol::write_line(&mut writer, &reply_line).is_err() {
                        // Client is gone; keep draining so the worker's
                        // sends fail fast instead of blocking.
                        return;
                    }
                }
            }
            Err(refusal) => {
                if protocol::write_line(&mut writer, &refusal).is_err() {
                    return;
                }
            }
        }
    }
}

/// Parses one request line and applies the version gate: the first
/// steps of both front doors (TCP lines and `POST /jobs` bodies). A
/// refusal comes back as its error reply line and counts in `errors`. A
/// request from a protocol this server does not speak gets a structured
/// refusal, never a guess; `hello` from a newer client lands here too,
/// and the error *is* the negotiation answer.
pub(crate) fn parse_request(state: &State, line: &str) -> Result<Envelope, String> {
    let env = Envelope::parse(line).map_err(|e| {
        state.metrics.errors.fetch_add(1, Ordering::Relaxed);
        e.to_line(None)
    })?;
    if !env.proto_supported() {
        state.metrics.errors.fetch_add(1, Ordering::Relaxed);
        return Err(ServerError::version_mismatch(env.proto.unwrap_or(0)).to_line(env.id));
    }
    Ok(env)
}

/// Admits one job into the shared queue, for both front doors: returns
/// the job's reply channel, or the refusal line (`queue_full` with the
/// backpressure hint and queue depth, or `shutting_down` once draining).
/// Counts the job as submitted or rejected. A chaos `queue_full_storm`
/// answers `queue_full` for a window regardless of actual depth; clients
/// must treat it exactly like organic backpressure.
pub(crate) fn admit(
    state: &State,
    id: Option<u64>,
    job: Job,
    trace: Option<u64>,
) -> Result<mpsc::Receiver<String>, String> {
    let (reply, rx) = mpsc::channel();
    let admitted = if sharing_chaos::hooks().admission_fault() {
        Err(PushError::Full {
            capacity: state.queue.capacity(),
        })
    } else {
        state.queue.try_push(Queued {
            id,
            job,
            trace,
            reply,
            enqueued: Instant::now(),
        })
    };
    match admitted {
        Ok(_) => {
            state.metrics.jobs_submitted.fetch_add(1, Ordering::Relaxed);
            Ok(rx)
        }
        Err(e) => {
            state.metrics.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            let code = match e {
                PushError::Full { .. } => ErrorCode::QueueFull,
                PushError::Closed => ErrorCode::ShuttingDown,
            };
            let backpressure = matches!(e, PushError::Full { .. });
            Err(ServerError::new(code, e.to_string()).to_line_with(
                id,
                vec![
                    ("backpressure", Json::Bool(backpressure)),
                    ("queue_depth", Json::Int(state.queue.depth() as i128)),
                ],
            ))
        }
    }
}

fn worker_loop(state: &Arc<State>, track: u64) {
    while let Some(job) = state.queue.pop() {
        let queue_wait_us = u64::try_from(job.enqueued.elapsed().as_micros()).unwrap_or(u64::MAX);
        state.metrics.busy_workers.fetch_add(1, Ordering::Relaxed);
        let start_us = state.trace.now_us();
        let t0 = Instant::now();
        let report = execute_job(state, &job);
        let exec_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        // Completion metrics are recorded before `job_done()` so that a
        // shutdown drain (which waits on `job_done`) always observes them.
        state.metrics.jobs_completed.fetch_add(1, Ordering::Relaxed);
        state
            .metrics
            .record_job(report.class, report.units, queue_wait_us, exec_us);
        state.metrics.busy_workers.fetch_sub(1, Ordering::Relaxed);
        observe_job(
            state,
            &job,
            &report,
            track,
            start_us,
            queue_wait_us,
            exec_us,
        );
        drop(job);
        state.queue.job_done();
    }
}

/// One executed job's accounting: what it counted as, how many work
/// units it completed, and whether a cache hit served it.
struct JobReport {
    class: JobClass,
    units: u64,
    cached: Option<bool>,
    ok: bool,
}

/// Streams one job's wall-clock span (this worker's track) with its
/// structured record: request id, kind, queue wait, execute time, and
/// cache outcome. Nothing is built without a trace file.
#[allow(clippy::too_many_arguments)]
fn observe_job(
    state: &State,
    job: &Queued,
    report: &JobReport,
    track: u64,
    start_us: u64,
    queue_wait_us: u64,
    exec_us: u64,
) {
    state.trace.record(|| {
        let mut args = vec![
            ("kind".to_string(), Json::Str(report.class.name().into())),
            ("units".to_string(), Json::Int(i128::from(report.units))),
            (
                "queue_wait_us".to_string(),
                Json::Int(i128::from(queue_wait_us)),
            ),
            ("exec_us".to_string(), Json::Int(i128::from(exec_us))),
            ("ok".to_string(), Json::Bool(report.ok)),
        ];
        if let Some(id) = job.id {
            args.push(("id".to_string(), Json::Int(i128::from(id))));
        }
        if let Some(trace_id) = job.trace {
            args.push(("trace".to_string(), Json::Int(i128::from(trace_id))));
        }
        if let Some(cached) = report.cached {
            args.push(("cached".to_string(), Json::Bool(cached)));
        }
        SpanEvent::wall(
            format!("{} job", report.class.name()),
            "ssimd",
            track,
            start_us,
            exec_us,
            args,
        )
    });
}

/// Extracts IPC from a serialized `SimResult` payload.
fn payload_ipc(payload: &str) -> Option<f64> {
    let v = Json::parse(payload).ok()?;
    let cycles = v.get("cycles")?.as_f64()?;
    let insts = v.get("instructions")?.as_f64()?;
    if cycles > 0.0 {
        Some(insts / cycles)
    } else {
        None
    }
}

/// A single-reply job's (`run` or `dc`) payload: a result-cache hit,
/// or else computed — through the dispatch pool in coordinator mode, on
/// the local simulator otherwise — and inserted. Returns
/// `(payload, was_cached)`. `trace_id` rides the worker envelope in
/// coordinator mode so the remote execution joins the job's trace.
/// Failures are not cached.
fn cached_payload(
    state: &State,
    job: &Job,
    trace_id: Option<u64>,
) -> Result<(String, bool), ServerError> {
    let key = job
        .cache_key()
        .ok_or_else(|| ServerError::exec_failed("grid jobs run point by point"))?;
    if let Some(hit) = state.cache.get(&key) {
        state.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
        return Ok((hit, true));
    }
    state.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
    let payload = match (&state.pool, job) {
        (Some(pool), _) => pool.dispatch_one(job, trace_id, &state.trace)?,
        (None, Job::Run(run)) => exec::simulate(run)
            .map(|r| sharing_json::to_string(&r))
            .map_err(ServerError::exec_failed)?,
        (None, Job::Dc(dc)) => exec::run_dc(dc).map_err(ServerError::exec_failed)?,
        (None, Job::Sweep(_) | Job::Market(_)) => unreachable!("grid jobs have no cache key"),
    };
    state.cache.insert(&key, &payload);
    Ok((payload, false))
}

/// Resolves one grid of run jobs (a sweep or a market surface), calling
/// `each(index, payload, was_cached) -> keep_going` **in grid order** —
/// fanned out over the dispatch pool in coordinator mode, computed
/// point-by-point locally otherwise. Returns the points resolved.
fn grid_payloads(
    state: &State,
    jobs: &[(VCoreShape, RunJob)],
    trace_id: Option<u64>,
    mut each: impl FnMut(usize, &str, bool) -> bool,
) -> Result<u64, ServerError> {
    match &state.pool {
        Some(pool) => {
            let runs: Vec<RunJob> = jobs.iter().map(|(_, r)| r.clone()).collect();
            pool.dispatch_grid(
                &runs,
                &state.cache,
                trace_id,
                &state.trace,
                |i, payload, cached| each(i, payload, cached),
            )
        }
        None => {
            let mut points = 0u64;
            for (i, (_, run)) in jobs.iter().enumerate() {
                let (payload, cached) = cached_payload(state, &Job::Run(run.clone()), trace_id)?;
                points += 1;
                if !each(i, &payload, cached) {
                    break;
                }
            }
            Ok(points)
        }
    }
}

/// Answers a traced job's `"spans"` reply line: this daemon's execution
/// span for the job, sent **before** the final reply line so the final
/// line's bytes (and the coordinator's verbatim splice of them) are
/// identical to an untraced job's. A non-traced job sends nothing.
fn send_spans_line(job: &Queued, kind: &str, started: (u64, Instant), cached: bool) {
    let Some(trace_id) = job.trace else { return };
    let (start_us, t0) = started;
    let exec_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
    let queue_wait = job.enqueued.elapsed().saturating_sub(t0.elapsed());
    let queue_wait_us = u64::try_from(queue_wait.as_micros()).unwrap_or(u64::MAX);
    let span = SpanEvent::wall(
        format!("{kind} exec"),
        "ssimd",
        0,
        start_us,
        exec_us,
        vec![
            ("trace".to_string(), Json::Int(i128::from(trace_id))),
            ("kind".to_string(), Json::Str(kind.into())),
            (
                "queue_wait_us".to_string(),
                Json::Int(i128::from(queue_wait_us)),
            ),
            ("cached".to_string(), Json::Bool(cached)),
        ],
    );
    let line = format!(
        "{},\"trace\":{trace_id},\"spans\":[{}]}}",
        ok_head(job.id, "spans"),
        span.to_json()
    );
    let _ = job.reply.send(line);
}

fn execute_job(state: &Arc<State>, job: &Queued) -> JobReport {
    match &job.job {
        Job::Run(_) | Job::Dc(_) => {
            let class = if let Job::Run(_) = job.job {
                JobClass::Simulate
            } else {
                JobClass::Dc
            };
            let started = (state.trace.now_us(), Instant::now());
            match cached_payload(state, &job.job, job.trace) {
                Ok((payload, cached)) => {
                    send_spans_line(job, job.job.kind(), started, cached);
                    // The payload is spliced verbatim so cache hits (and
                    // coordinator dispatches, and reloads from a persisted
                    // cache file) are byte-identical to the fresh run
                    // that filled them.
                    let ty = job.job.result_type().expect("run and dc reply once");
                    let line = format!(
                        "{},\"cached\":{cached},\"result\":{payload}}}",
                        ok_head(job.id, ty)
                    );
                    let _ = job.reply.send(line);
                    JobReport {
                        class,
                        units: 1,
                        cached: Some(cached),
                        ok: true,
                    }
                }
                Err(e) => {
                    state.metrics.errors.fetch_add(1, Ordering::Relaxed);
                    let _ = job.reply.send(e.to_line(job.id));
                    JobReport {
                        class,
                        units: 0,
                        cached: None,
                        ok: false,
                    }
                }
            }
        }
        Job::Sweep(sweep) => {
            let jobs = grid_jobs(sweep.benchmark, sweep.len, sweep.seed);
            let report = |points, ok| JobReport {
                class: JobClass::SweepPoint,
                units: points,
                cached: None,
                ok,
            };
            let streamed = grid_payloads(state, &jobs, job.trace, |i, payload, cached| {
                let line = sweep_point_line(job.id, jobs[i].0, payload, cached);
                // A failed send means the client disconnected; stop the
                // grid early but still account for points already swept.
                job.reply.send(line).is_ok()
            });
            match streamed {
                Ok(points) if points == jobs.len() as u64 => {
                    let line = format!("{},\"points\":{points}}}", ok_head(job.id, "sweep_done"));
                    let _ = job.reply.send(line);
                    report(points, true)
                }
                Ok(points) => report(points, true), // client went away
                Err(e) => {
                    state.metrics.errors.fetch_add(1, Ordering::Relaxed);
                    let _ = job.reply.send(e.to_line(job.id));
                    report(0, false)
                }
            }
        }
        Job::Market(market) => {
            let jobs = grid_jobs(market.benchmark, market.len, market.seed);
            let mut points: BTreeMap<VCoreShape, f64> = BTreeMap::new();
            let gathered = grid_payloads(state, &jobs, job.trace, |i, payload, _| {
                points.insert(jobs[i].0, payload_ipc(payload).unwrap_or(0.0));
                true
            });
            if let Err(e) = gathered {
                state.metrics.errors.fetch_add(1, Ordering::Relaxed);
                let _ = job.reply.send(e.to_line(job.id));
                return JobReport {
                    class: JobClass::Market,
                    units: 0,
                    cached: None,
                    ok: false,
                };
            }
            let surface = PerfSurface::new(market.benchmark.name(), points);
            let chosen =
                optimize::best_utility(&surface, market.utility, &market.market, market.budget);
            let cores = market.market.affordable_cores(chosen.shape, market.budget);
            let line = format!(
                "{},\"benchmark\":\"{}\",\"utility\":\"{}\",\"market\":\"{}\",\
                 \"budget\":{},\"shape\":{{\"slices\":{},\"l2_banks\":{}}},\
                 \"cores\":{},\"perf\":{},\"value\":{}}}",
                ok_head(job.id, "market_result"),
                market.benchmark.name(),
                market.utility.name(),
                market.market.name,
                Json::Float(market.budget),
                chosen.shape.slices,
                chosen.shape.l2_banks,
                Json::Float(cores),
                Json::Float(chosen.perf),
                Json::Float(chosen.value),
            );
            let _ = job.reply.send(line);
            JobReport {
                class: JobClass::Market,
                units: 1,
                cached: None,
                ok: true,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::DcJob;
    use sharing_trace::Benchmark;

    fn state() -> State {
        let cfg = ServerConfig {
            cache_capacity: 16,
            ..ServerConfig::default()
        };
        State::new(
            &cfg,
            TraceOut::open(None).unwrap(),
            Arc::new(Metrics::new(1)),
            None,
        )
    }

    fn run(len: usize, seed: u64) -> Job {
        Job::Run(RunJob {
            workload: JobWorkload::Benchmark(Benchmark::Gcc),
            slices: 2,
            banks: 2,
            len,
            seed,
        })
    }

    #[test]
    fn accepted_connections_run_with_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        assert!(!stream.nodelay().unwrap(), "Nagle is on by default");
        assert!(accepted(stream).unwrap().nodelay().unwrap());
    }

    #[test]
    fn cached_payload_is_byte_identical_to_fresh() {
        let state = state();
        let (fresh, was_cached) = cached_payload(&state, &run(500, 9), None).unwrap();
        assert!(!was_cached);
        let (hit, was_cached) = cached_payload(&state, &run(500, 9), None).unwrap();
        assert!(was_cached);
        assert_eq!(fresh, hit, "cache replay must be byte-identical");
        assert_eq!(state.metrics.cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(state.metrics.cache_misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn dc_payload_is_deterministic_and_cached() {
        let state = state();
        let mut scenario = sharing_dc::Scenario::example_bursty();
        scenario.chips = 2;
        scenario.epochs = 8;
        scenario.epoch_cycles = 10_000;
        let job = Job::Dc(Box::new(DcJob {
            scenario,
            seed: 5,
            mode: None,
        }));
        let (fresh, c0) = cached_payload(&state, &job, None).unwrap();
        assert!(!c0);
        let (hit, c1) = cached_payload(&state, &job, None).unwrap();
        assert!(c1);
        assert_eq!(fresh, hit, "cache replay must be byte-identical");
        let v = Json::parse(&fresh).unwrap();
        assert!(v.get("sharing").is_some(), "comparison carries sharing");
        assert!(v.get("fixed").is_some(), "comparison carries fixed");
    }

    #[test]
    fn different_jobs_do_not_alias() {
        let state = state();
        let (a, _) = cached_payload(&state, &run(500, 1), None).unwrap();
        let (b, _) = cached_payload(&state, &run(500, 2), None).unwrap();
        assert_ne!(a, b, "different seeds are different cache entries");
        assert_eq!(state.metrics.cache_misses.load(Ordering::Relaxed), 2);
    }
}
