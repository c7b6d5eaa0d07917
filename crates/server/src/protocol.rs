//! The ssimd wire protocol: newline-delimited JSON over TCP.
//!
//! Every request is one JSON object on one line; every reply is one JSON
//! object on one line. A request may produce several reply lines (sweeps
//! stream one line per shape before their final line). Replies always
//! carry `"ok"` and echo the request's `"id"` when one was given, so
//! clients can pipeline.
//!
//! # Versioning
//!
//! The protocol is versioned. A request may carry a `"proto"` field; the
//! server rejects versions outside `[MIN_PROTO, PROTO_VERSION]` with a
//! structured `version_mismatch` error instead of guessing. A `hello`
//! request negotiates up front: the reply names the server's current and
//! minimum versions, so a coordinator can refuse a mismatched worker at
//! registration time rather than mid-sweep. Requests without `"proto"`
//! are treated as the oldest supported dialect (v1 predates the field).
//!
//! Request shapes:
//!
//! ```text
//! {"type":"hello","proto":2}
//! {"type":"ping"}
//! {"type":"stats"}
//! {"type":"metrics"}
//! {"type":"shutdown"}
//! {"type":"run","benchmark":"gcc","slices":4,"banks":8,"len":60000,"seed":7}
//! {"type":"run","profile":{...WorkloadProfile...},"slices":2,...}
//! {"type":"sweep","benchmark":"mcf","len":30000,"seed":7}
//! {"type":"market","benchmark":"gcc","utility":"throughput",
//!  "market":"Market2","budget":100.0,"len":30000,"seed":7}
//! {"type":"dc","scenario":{"name":"bursty",...},"seed":7,"mode":"sharing"}
//! ```
//!
//! A `len` outside 1..=[`MAX_TRACE_LEN`](sharing_trace::MAX_TRACE_LEN)
//! is refused with `bad_request` before any trace is generated, and so
//! is a `run` job whose profile's `threads × len` passes
//! [`MAX_JOB_INSTRUCTIONS`](sharing_trace::MAX_JOB_INSTRUCTIONS).
//!
//! Error replies are structured: `{"ok":false,"code":"queue_full",
//! "error":"..."}` — assert on [`ErrorCode`]s, not message substrings.

use sharing_dc::{BillingMode, Scenario};
use sharing_json::{Json, JsonError};
use sharing_market::{Market, UtilityFn};
use sharing_trace::{Benchmark, TraceSpec, WorkloadProfile};
use std::io::{BufRead, Read, Write};

/// Default TCP port (`0xA5` + `2014`, the paper's year).
pub const DEFAULT_PORT: u16 = 42014;

/// The protocol version this build speaks (and advertises in `hello`).
///
/// v1 was the unversioned PR 1–3 dialect; v2 added `proto`, `hello`,
/// and structured error codes.
pub const PROTO_VERSION: u64 = 2;

/// The oldest protocol version the server still accepts. Requests
/// without a `"proto"` field are treated as this version.
pub const MIN_PROTO: u64 = 1;

/// Maximum accepted request line length (1 MiB) — bounds memory per
/// connection against hostile input.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// What a `run` job simulates: the simulator's own workload type, under
/// the name the wire types have always used.
pub use sharing_trace::Workload as JobWorkload;

/// A single-configuration simulation job.
#[derive(Clone, Debug, PartialEq)]
pub struct RunJob {
    /// The workload.
    pub workload: JobWorkload,
    /// Slice count.
    pub slices: usize,
    /// L2 bank count.
    pub banks: usize,
    /// Trace length.
    pub len: usize,
    /// Trace seed.
    pub seed: u64,
}

/// A full-grid sweep job (72 shapes, streamed).
#[derive(Clone, Debug, PartialEq)]
pub struct SweepJob {
    /// The benchmark to sweep.
    pub benchmark: Benchmark,
    /// Trace length.
    pub len: usize,
    /// Trace seed.
    pub seed: u64,
}

/// A market-evaluation job: sweep the grid, then pick the
/// budget-constrained utility-optimal shape (paper §5.6).
#[derive(Clone, Debug, PartialEq)]
pub struct MarketJob {
    /// The benchmark whose surface is evaluated.
    pub benchmark: Benchmark,
    /// The customer's utility function.
    pub utility: UtilityFn,
    /// The pricing market.
    pub market: Market,
    /// The customer's budget.
    pub budget: f64,
    /// Trace length.
    pub len: usize,
    /// Trace seed.
    pub seed: u64,
}

/// A datacenter-scenario job: run the discrete-event simulator over a
/// full scenario (see `sharing-dc`), in one billing mode or both.
#[derive(Clone, Debug, PartialEq)]
pub struct DcJob {
    /// The scenario to simulate.
    pub scenario: Scenario,
    /// Event seed.
    pub seed: u64,
    /// Billing mode; `None` runs both and reports the comparison.
    pub mode: Option<BillingMode>,
}

/// One simulation job, unifying every kind the daemon executes.
///
/// This is the payload of [`Request::Job`] and the argument to
/// `Client::submit`; control requests (`ping`, `stats`, …) are *not*
/// jobs — they never enter the queue.
#[derive(Clone, Debug, PartialEq)]
pub enum Job {
    /// A single simulation.
    Run(RunJob),
    /// A grid sweep (streams one line per shape).
    Sweep(SweepJob),
    /// A market evaluation.
    Market(MarketJob),
    /// A datacenter scenario simulation.
    Dc(Box<DcJob>),
}

impl Job {
    /// The canonical cache key of a single-reply job (`run` or `dc`; see
    /// [`RunJob::cache_key`] and [`DcJob::cache_key`]); `None` for grid
    /// jobs, which are cached per point under each point's run key.
    #[must_use]
    pub fn cache_key(&self) -> Option<String> {
        match self {
            Job::Run(job) => Some(job.cache_key()),
            Job::Dc(job) => Some(job.cache_key()),
            Job::Sweep(_) | Job::Market(_) => None,
        }
    }

    /// The reply type of a single-reply job's result line (`result` or
    /// `dc_result`); `None` for grid jobs, which stream one line per
    /// point.
    #[must_use]
    pub fn result_type(&self) -> Option<&'static str> {
        match self {
            Job::Run(_) => Some("result"),
            Job::Dc(_) => Some("dc_result"),
            Job::Sweep(_) | Job::Market(_) => None,
        }
    }

    /// The wire name of this job kind (`run`, `sweep`, `market`, `dc`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Job::Run(_) => "run",
            Job::Sweep(_) => "sweep",
            Job::Market(_) => "market",
            Job::Dc(_) => "dc",
        }
    }
}

/// A parsed request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Version negotiation: the reply advertises the server's
    /// `[MIN_PROTO, PROTO_VERSION]` range.
    Hello {
        /// The protocol version the client speaks.
        proto: u64,
    },
    /// Liveness check.
    Ping,
    /// Server-wide metrics as a JSON snapshot.
    Stats,
    /// Server-wide metrics as Prometheus text exposition.
    Metrics,
    /// Graceful shutdown: drain in-flight jobs, then exit.
    Shutdown,
    /// A simulation job (run, sweep, market, or dc).
    Job(Job),
}

/// A request plus its optional client-chosen correlation id and
/// protocol version.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Echoed verbatim in every reply line for this request.
    pub id: Option<u64>,
    /// The protocol version the sender speaks; `None` means the v1
    /// dialect, which predates the field.
    pub proto: Option<u64>,
    /// Distributed-trace correlation id. A coordinator stamps every job
    /// it fans out with the submitting job's trace id; a worker that
    /// sees one returns its execution spans (a `"spans"` reply line)
    /// ahead of the result so the coordinator can merge one fleet-wide
    /// trace. Absent on v1/v2 clients and ignored by cache keys.
    pub trace: Option<u64>,
    /// The request itself.
    pub req: Request,
}

/// Machine-readable failure class, carried in every error reply's
/// `"code"` field. Tests and clients dispatch on these, never on
/// message text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line failed to parse or validate.
    BadRequest,
    /// The request `type` is not one the server knows.
    UnknownRequest,
    /// The envelope's `proto` is outside the supported range.
    VersionMismatch,
    /// Admission control refused the job (bounded queue at capacity).
    QueueFull,
    /// The server is draining and admits no new work.
    ShuttingDown,
    /// No healthy remote worker could take the job (coordinator mode).
    WorkerUnavailable,
    /// The job was admitted but failed to execute.
    ExecFailed,
}

impl ErrorCode {
    /// Every code, in exposition order.
    pub const ALL: [ErrorCode; 7] = [
        ErrorCode::BadRequest,
        ErrorCode::UnknownRequest,
        ErrorCode::VersionMismatch,
        ErrorCode::QueueFull,
        ErrorCode::ShuttingDown,
        ErrorCode::WorkerUnavailable,
        ErrorCode::ExecFailed,
    ];

    /// The wire name of this code.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownRequest => "unknown_request",
            ErrorCode::VersionMismatch => "version_mismatch",
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::WorkerUnavailable => "worker_unavailable",
            ErrorCode::ExecFailed => "exec_failed",
        }
    }

    /// Parses a wire name back to a code.
    #[must_use]
    pub fn parse(name: &str) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|c| c.name() == name)
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed server-side failure: a machine-readable [`ErrorCode`] plus a
/// human-readable message. Serializes into the response envelope as
/// `{"ok":false,"code":...,"error":...}`.
#[derive(Clone, Debug, PartialEq)]
pub struct ServerError {
    /// The failure class.
    pub code: ErrorCode,
    /// Human-readable detail; never dispatch on this.
    pub message: String,
}

impl ServerError {
    /// A new error.
    #[must_use]
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ServerError {
            code,
            message: message.into(),
        }
    }

    /// Shorthand for [`ErrorCode::BadRequest`].
    #[must_use]
    pub fn bad_request(message: impl Into<String>) -> Self {
        ServerError::new(ErrorCode::BadRequest, message)
    }

    /// Shorthand for [`ErrorCode::ExecFailed`].
    #[must_use]
    pub fn exec_failed(message: impl Into<String>) -> Self {
        ServerError::new(ErrorCode::ExecFailed, message)
    }

    /// Shorthand for [`ErrorCode::VersionMismatch`], naming the
    /// offending version and the supported range.
    #[must_use]
    pub fn version_mismatch(got: u64) -> Self {
        ServerError::new(
            ErrorCode::VersionMismatch,
            format!("protocol version {got} unsupported (speaks {MIN_PROTO}..={PROTO_VERSION})"),
        )
    }

    /// The error reply line for this failure, echoing `id` when given.
    #[must_use]
    pub fn to_line(&self, id: Option<u64>) -> String {
        self.to_line_with(id, vec![])
    }

    /// [`ServerError::to_line`] plus extra reply fields (e.g. the
    /// backpressure hint on `queue_full`).
    #[must_use]
    pub fn to_line_with(&self, id: Option<u64>, extra: Vec<(&str, Json)>) -> String {
        let mut pairs: Vec<(&str, Json)> = Vec::new();
        if let Some(id) = id {
            pairs.push(("id", Json::Int(i128::from(id))));
        }
        pairs.push(("ok", Json::Bool(false)));
        pairs.push(("code", Json::Str(self.code.name().into())));
        pairs.push(("error", Json::Str(self.message.clone())));
        pairs.extend(extra);
        Json::obj(pairs).to_string()
    }

    /// Extracts the typed error from a parsed reply line, if the line is
    /// an error reply. Replies predating v2 (no `"code"`) map to
    /// [`ErrorCode::ExecFailed`].
    #[must_use]
    pub fn from_reply(v: &Json) -> Option<ServerError> {
        if v.get("ok").and_then(Json::as_bool) != Some(false) {
            return None;
        }
        let code = v
            .get("code")
            .and_then(Json::as_str)
            .and_then(ErrorCode::parse)
            .unwrap_or(ErrorCode::ExecFailed);
        let message = v
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("request failed")
            .to_string();
        Some(ServerError { code, message })
    }
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.name(), self.message)
    }
}

impl std::error::Error for ServerError {}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, JsonError> {
    v.get(key)
        .ok_or_else(|| JsonError(format!("request missing field `{key}`")))
}

fn num_field<T: sharing_json::FromJson>(v: &Json, key: &str, default: T) -> Result<T, JsonError> {
    match v.get(key) {
        Some(x) => T::from_json(x),
        None => Ok(default),
    }
}

/// A job's `len`, checked by [`TraceSpec::check_len`] before anything is
/// generated.
fn len_field(v: &Json, default: usize) -> Result<usize, JsonError> {
    TraceSpec::check_len(num_field(v, "len", default)?).map_err(|e| JsonError(format!("`len` {e}")))
}

fn parse_benchmark(v: &Json) -> Result<Benchmark, JsonError> {
    let name = field(v, "benchmark")?
        .as_str()
        .ok_or_else(|| JsonError("`benchmark` must be a string".into()))?;
    Benchmark::from_name(name).ok_or_else(|| JsonError(format!("unknown benchmark `{name}`")))
}

/// A `run` job's `benchmark` field resolves against the paper suite
/// first, then the extra seeded profiles (`bursty`, `phaseshift`) —
/// which ship as inline profiles so the cache key carries their full
/// calibration, exactly as if the client had sent `profile`.
fn parse_run_workload(v: &Json) -> Result<JobWorkload, JsonError> {
    let name = field(v, "benchmark")?
        .as_str()
        .ok_or_else(|| JsonError("`benchmark` must be a string".into()))?;
    JobWorkload::from_name(name).ok_or_else(|| JsonError(format!("unknown benchmark `{name}`")))
}

fn parse_utility(name: &str) -> Result<UtilityFn, JsonError> {
    match name.to_ascii_lowercase().as_str() {
        "throughput" | "utility1" => Ok(UtilityFn::Throughput),
        "balanced" | "utility2" => Ok(UtilityFn::Balanced),
        "latency" | "latencycritical" | "latency-critical" | "utility3" => {
            Ok(UtilityFn::LatencyCritical)
        }
        other => Err(JsonError(format!("unknown utility `{other}`"))),
    }
}

fn parse_market(name: &str) -> Result<Market, JsonError> {
    Market::ALL
        .into_iter()
        .find(|m| m.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| JsonError(format!("unknown market `{name}`")))
}

impl Envelope {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ServerError`] — [`ErrorCode::UnknownRequest`]
    /// for an unrecognized `type`, [`ErrorCode::BadRequest`] for
    /// everything else; the server turns either into an `"ok": false`
    /// reply rather than dropping the connection. Version checking is
    /// the *server's* job (it knows what it speaks); parse only requires
    /// `proto`, when present, to be a u64.
    pub fn parse(line: &str) -> Result<Envelope, ServerError> {
        let v = Json::parse(line).map_err(|e| ServerError::bad_request(e.to_string()))?;
        let id = match v.get("id") {
            Some(x) => Some(
                u64::from_json(x).map_err(|_| ServerError::bad_request("`id` must be a u64"))?,
            ),
            None => None,
        };
        let proto = match v.get("proto") {
            Some(x) => Some(
                u64::from_json(x).map_err(|_| ServerError::bad_request("`proto` must be a u64"))?,
            ),
            None => None,
        };
        let trace = match v.get("trace") {
            Some(x) => Some(
                u64::from_json(x).map_err(|_| ServerError::bad_request("`trace` must be a u64"))?,
            ),
            None => None,
        };
        let ty = field(&v, "type")
            .and_then(|t| {
                t.as_str()
                    .ok_or_else(|| JsonError("`type` must be a string".into()))
            })
            .map_err(|e| ServerError::bad_request(e.to_string()))?;
        let req = Envelope::parse_request(ty, &v, proto)
            .map_err(|e| ServerError::bad_request(e.to_string()))?
            .ok_or_else(|| {
                ServerError::new(
                    ErrorCode::UnknownRequest,
                    format!("unknown request type `{ty}`"),
                )
            })?;
        Ok(Envelope {
            id,
            proto,
            trace,
            req,
        })
    }

    /// Parses the typed request body; `Ok(None)` means an unknown type.
    fn parse_request(ty: &str, v: &Json, proto: Option<u64>) -> Result<Option<Request>, JsonError> {
        let req = match ty {
            "hello" => Request::Hello {
                proto: num_field(v, "proto", proto.unwrap_or(PROTO_VERSION))?,
            },
            "ping" => Request::Ping,
            "stats" => Request::Stats,
            "metrics" => Request::Metrics,
            "shutdown" => Request::Shutdown,
            "run" => {
                let workload = if let Some(p) = v.get("profile") {
                    let profile = WorkloadProfile::from_json(p)?;
                    profile.validate().map_err(JsonError)?;
                    JobWorkload::Profile(Box::new(profile))
                } else {
                    parse_run_workload(v)?
                };
                let len = len_field(v, 60_000)?;
                // A built-in workload lies within the cap at any `len`.
                if let JobWorkload::Profile(p) = &workload {
                    TraceSpec::check_job(p.threads, len).map_err(JsonError)?;
                }
                Request::Job(Job::Run(RunJob {
                    workload,
                    slices: num_field(v, "slices", 1usize)?,
                    banks: num_field(v, "banks", 2usize)?,
                    len,
                    seed: num_field(v, "seed", 0xA5_2014u64)?,
                }))
            }
            "sweep" => Request::Job(Job::Sweep(SweepJob {
                benchmark: parse_benchmark(v)?,
                len: len_field(v, 30_000)?,
                seed: num_field(v, "seed", 0xA5_2014u64)?,
            })),
            "market" => Request::Job(Job::Market(MarketJob {
                benchmark: parse_benchmark(v)?,
                utility: parse_utility(
                    field(v, "utility")?
                        .as_str()
                        .ok_or_else(|| JsonError("`utility` must be a string".into()))?,
                )?,
                market: parse_market(
                    field(v, "market")?
                        .as_str()
                        .ok_or_else(|| JsonError("`market` must be a string".into()))?,
                )?,
                budget: num_field(v, "budget", 100.0f64)?,
                len: len_field(v, 30_000)?,
                seed: num_field(v, "seed", 0xA5_2014u64)?,
            })),
            "dc" => {
                let scenario_json = field(v, "scenario")?;
                if scenario_json.get("name").is_none() {
                    return Err(JsonError("`scenario` must carry a `name`".into()));
                }
                let scenario = Scenario::from_json(scenario_json)?;
                scenario.validate().map_err(JsonError)?;
                let mode = match v.get("mode") {
                    Some(m) => {
                        let name = m
                            .as_str()
                            .ok_or_else(|| JsonError("`mode` must be a string".into()))?;
                        Some(BillingMode::parse(name).map_err(JsonError)?)
                    }
                    None => None,
                };
                Request::Job(Job::Dc(Box::new(DcJob {
                    scenario,
                    seed: num_field(v, "seed", 0xA5_2014u64)?,
                    mode,
                })))
            }
            _ => return Ok(None),
        };
        Ok(Some(req))
    }

    /// Serializes the envelope back to its wire line (the client side of
    /// [`Envelope::parse`]).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut pairs: Vec<(&str, Json)> = Vec::new();
        if let Some(id) = self.id {
            pairs.push(("id", Json::Int(i128::from(id))));
        }
        // `hello` owns the `proto` key below; writing the envelope-level
        // copy too would duplicate it.
        if let (Some(proto), false) = (self.proto, matches!(self.req, Request::Hello { .. })) {
            pairs.push(("proto", Json::Int(i128::from(proto))));
        }
        if let Some(trace) = self.trace {
            pairs.push(("trace", Json::Int(i128::from(trace))));
        }
        match &self.req {
            Request::Hello { proto } => {
                pairs.push(("type", Json::Str("hello".into())));
                pairs.push(("proto", Json::Int(i128::from(*proto))));
            }
            Request::Ping => pairs.push(("type", Json::Str("ping".into()))),
            Request::Stats => pairs.push(("type", Json::Str("stats".into()))),
            Request::Metrics => pairs.push(("type", Json::Str("metrics".into()))),
            Request::Shutdown => pairs.push(("type", Json::Str("shutdown".into()))),
            Request::Job(Job::Run(job)) => {
                pairs.push(("type", Json::Str("run".into())));
                match &job.workload {
                    JobWorkload::Benchmark(b) => {
                        pairs.push(("benchmark", Json::Str(b.name().into())));
                    }
                    JobWorkload::Profile(p) => pairs.push(("profile", p.to_json())),
                }
                pairs.push(("slices", Json::Int(job.slices as i128)));
                pairs.push(("banks", Json::Int(job.banks as i128)));
                pairs.push(("len", Json::Int(job.len as i128)));
                pairs.push(("seed", Json::Int(i128::from(job.seed))));
            }
            Request::Job(Job::Sweep(job)) => {
                pairs.push(("type", Json::Str("sweep".into())));
                pairs.push(("benchmark", Json::Str(job.benchmark.name().into())));
                pairs.push(("len", Json::Int(job.len as i128)));
                pairs.push(("seed", Json::Int(i128::from(job.seed))));
            }
            Request::Job(Job::Market(job)) => {
                pairs.push(("type", Json::Str("market".into())));
                pairs.push(("benchmark", Json::Str(job.benchmark.name().into())));
                pairs.push(("utility", Json::Str(job.utility.name().into())));
                pairs.push(("market", Json::Str(job.market.name.into())));
                pairs.push(("budget", Json::Float(job.budget)));
                pairs.push(("len", Json::Int(job.len as i128)));
                pairs.push(("seed", Json::Int(i128::from(job.seed))));
            }
            Request::Job(Job::Dc(job)) => {
                pairs.push(("type", Json::Str("dc".into())));
                pairs.push(("scenario", job.scenario.to_json()));
                pairs.push(("seed", Json::Int(i128::from(job.seed))));
                if let Some(mode) = job.mode {
                    pairs.push(("mode", Json::Str(mode.name().into())));
                }
            }
        }
        Json::obj(pairs).to_string()
    }

    /// Whether this envelope's declared protocol version is one the
    /// server speaks (`None` is treated as [`MIN_PROTO`]).
    #[must_use]
    pub fn proto_supported(&self) -> bool {
        proto_supported(self.proto.unwrap_or(MIN_PROTO))
    }
}

/// Whether `proto` is within the supported `[MIN_PROTO, PROTO_VERSION]`
/// range.
#[must_use]
pub fn proto_supported(proto: u64) -> bool {
    (MIN_PROTO..=PROTO_VERSION).contains(&proto)
}

impl RunJob {
    /// The canonical cache key for this job: a compact JSON string with a
    /// fixed field order, independent of how the request spelled it.
    /// Identical keys mean identical simulations (trace generation and the
    /// simulator are deterministic), so cached payloads replay
    /// byte-identically.
    #[must_use]
    pub fn cache_key(&self) -> String {
        let workload = match &self.workload {
            JobWorkload::Benchmark(b) => Json::Str(b.name().into()),
            JobWorkload::Profile(p) => p.to_json(),
        };
        Json::obj(vec![
            ("workload", workload),
            ("slices", Json::Int(self.slices as i128)),
            ("banks", Json::Int(self.banks as i128)),
            ("len", Json::Int(self.len as i128)),
            ("seed", Json::Int(i128::from(self.seed))),
        ])
        .to_string()
    }
}

impl DcJob {
    /// The canonical cache key for this job (see [`RunJob::cache_key`]):
    /// the scenario's canonical JSON plus seed and mode. The simulator is
    /// fully deterministic in `(scenario, seed, mode)`, so identical keys
    /// replay byte-identical results.
    #[must_use]
    pub fn cache_key(&self) -> String {
        let mode = match self.mode {
            Some(m) => Json::Str(m.name().into()),
            None => Json::Str("both".into()),
        };
        Json::obj(vec![
            ("dc", self.scenario.to_json()),
            ("seed", Json::Int(i128::from(self.seed))),
            ("mode", mode),
        ])
        .to_string()
    }
}

/// Reads one protocol line. Returns `Ok(None)` on a clean EOF.
///
/// # Errors
///
/// I/O errors propagate; an over-long line is reported as
/// [`std::io::ErrorKind::InvalidData`].
pub fn read_line(reader: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut line = String::new();
    let n = reader
        .by_ref()
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_line(&mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if n > MAX_LINE_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "request line exceeds 1 MiB",
        ));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

/// Writes one protocol line, `line` and its `\n` in a single `write`,
/// and flushes it.
///
/// One write per line is the framing invariant: with the line split
/// over two writes, Nagle's algorithm holds the `\n` until the peer
/// acknowledges the payload, and a peer that delays its ACK (~40 ms on
/// Linux) stalls every reply by that much. Every ssimd socket also runs
/// with `TCP_NODELAY` (see [`crate::client::Client`] and the daemon's
/// accept loop), so a line leaves as soon as it is written.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_line(writer: &mut impl Write, line: &str) -> std::io::Result<()> {
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    writer.write_all(&framed)?;
    writer.flush()
}

use sharing_json::{FromJson, ToJson};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_round_trips() {
        let env = Envelope {
            id: Some(7),
            proto: Some(PROTO_VERSION),
            trace: None,
            req: Request::Job(Job::Run(RunJob {
                workload: JobWorkload::Benchmark(Benchmark::Gcc),
                slices: 4,
                banks: 8,
                len: 1000,
                seed: 42,
            })),
        };
        let back = Envelope::parse(&env.to_line()).unwrap();
        assert_eq!(env, back);
    }

    #[test]
    fn every_job_kind_round_trips_through_the_job_enum() {
        let jobs = [
            Job::Run(RunJob {
                workload: JobWorkload::Benchmark(Benchmark::Gcc),
                slices: 2,
                banks: 4,
                len: 900,
                seed: 3,
            }),
            Job::Sweep(SweepJob {
                benchmark: Benchmark::Mcf,
                len: 500,
                seed: 1,
            }),
            Job::Market(MarketJob {
                benchmark: Benchmark::Astar,
                utility: UtilityFn::Balanced,
                market: Market::MARKET3,
                budget: 64.0,
                len: 500,
                seed: 1,
            }),
            Job::Dc(Box::new(DcJob {
                scenario: Scenario::example_bursty(),
                seed: 99,
                mode: None,
            })),
        ];
        for job in jobs {
            let env = Envelope {
                id: Some(5),
                proto: Some(PROTO_VERSION),
                trace: None,
                req: Request::Job(job.clone()),
            };
            let back = Envelope::parse(&env.to_line()).unwrap();
            assert_eq!(env, back, "{} must round-trip", job.kind());
            match back.req {
                Request::Job(j) => assert_eq!(j.cache_key(), job.cache_key()),
                other => panic!("expected job, got {other:?}"),
            }
        }
    }

    #[test]
    fn trace_id_rides_the_envelope() {
        let env = Envelope {
            id: Some(3),
            proto: Some(PROTO_VERSION),
            trace: Some(0xBEEF),
            req: Request::Job(Job::Run(RunJob {
                workload: JobWorkload::Benchmark(Benchmark::Mcf),
                slices: 2,
                banks: 2,
                len: 500,
                seed: 1,
            })),
        };
        let line = env.to_line();
        assert!(line.contains(r#""trace":48879"#), "wire form: {line}");
        let back = Envelope::parse(&line).unwrap();
        assert_eq!(back, env);
        // Absent on old clients; a non-integer is a typed rejection.
        let bare = Envelope::parse(r#"{"type":"ping"}"#).unwrap();
        assert_eq!(bare.trace, None);
        assert_eq!(
            Envelope::parse(r#"{"type":"ping","trace":"abc"}"#)
                .unwrap_err()
                .code,
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn cache_key_ignores_trace_id() {
        let job = RunJob {
            workload: JobWorkload::Benchmark(Benchmark::Gcc),
            slices: 1,
            banks: 2,
            len: 100,
            seed: 5,
        };
        let traced = Envelope {
            id: Some(1),
            proto: Some(2),
            trace: Some(777),
            req: Request::Job(Job::Run(job.clone())),
        };
        match Envelope::parse(&traced.to_line()).unwrap().req {
            Request::Job(j) => assert_eq!(j.cache_key(), Some(job.cache_key())),
            other => panic!("expected job, got {other:?}"),
        }
    }

    #[test]
    fn control_requests_round_trip() {
        for env in [
            Envelope {
                id: None,
                proto: None,
                trace: None,
                req: Request::Ping,
            },
            Envelope {
                id: Some(0),
                proto: None,
                trace: None,
                req: Request::Stats,
            },
            Envelope {
                id: Some(12),
                proto: Some(2),
                trace: None,
                req: Request::Metrics,
            },
            Envelope {
                id: None,
                proto: None,
                trace: None,
                req: Request::Shutdown,
            },
        ] {
            let back = Envelope::parse(&env.to_line()).unwrap();
            assert_eq!(env, back);
        }
    }

    #[test]
    fn hello_round_trips_and_negotiates() {
        let env = Envelope {
            id: Some(1),
            proto: None,
            trace: None,
            req: Request::Hello {
                proto: PROTO_VERSION,
            },
        };
        // `hello` writes its version into the top-level `proto` field, so
        // the parse reads it back into both places.
        let back = Envelope::parse(&env.to_line()).unwrap();
        assert_eq!(back.proto, Some(PROTO_VERSION));
        assert_eq!(
            back.req,
            Request::Hello {
                proto: PROTO_VERSION
            }
        );
        // A bare hello defaults to the current version.
        let bare = Envelope::parse(r#"{"type":"hello"}"#).unwrap();
        assert_eq!(
            bare.req,
            Request::Hello {
                proto: PROTO_VERSION
            }
        );
    }

    #[test]
    fn proto_support_window() {
        assert!(proto_supported(MIN_PROTO));
        assert!(proto_supported(PROTO_VERSION));
        assert!(!proto_supported(PROTO_VERSION + 1));
        assert!(!proto_supported(0));
        let v1 = Envelope::parse(r#"{"type":"ping"}"#).unwrap();
        assert!(v1.proto_supported(), "missing proto means v1, supported");
        let future = Envelope::parse(r#"{"type":"ping","proto":99}"#).unwrap();
        assert!(!future.proto_supported());
    }

    #[test]
    fn profile_workload_round_trips() {
        let profile = WorkloadProfile::builder("svc")
            .chains(3)
            .mem_frac(0.2)
            .build();
        let env = Envelope {
            id: None,
            proto: None,
            trace: None,
            req: Request::Job(Job::Run(RunJob {
                workload: JobWorkload::Profile(Box::new(profile)),
                slices: 2,
                banks: 2,
                len: 700,
                seed: 9,
            })),
        };
        let back = Envelope::parse(&env.to_line()).unwrap();
        assert_eq!(env, back);
    }

    #[test]
    fn defaults_fill_missing_fields() {
        let env = Envelope::parse(r#"{"type":"run","benchmark":"gcc"}"#).unwrap();
        match env.req {
            Request::Job(Job::Run(job)) => {
                assert_eq!(job.slices, 1);
                assert_eq!(job.banks, 2);
                assert_eq!(job.len, 60_000);
                assert_eq!(job.seed, 0xA5_2014);
            }
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_requests_with_typed_codes() {
        let code = |line: &str| Envelope::parse(line).unwrap_err().code;
        assert_eq!(code("not json"), ErrorCode::BadRequest);
        assert_eq!(code(r#"{"no":"type"}"#), ErrorCode::BadRequest);
        assert_eq!(code(r#"{"type":"explode"}"#), ErrorCode::UnknownRequest);
        assert_eq!(code(r#"{"type":"run"}"#), ErrorCode::BadRequest);
        assert_eq!(
            code(r#"{"type":"run","benchmark":"doom"}"#),
            ErrorCode::BadRequest
        );
        assert_eq!(
            code(r#"{"type":"market","benchmark":"gcc","utility":"x","market":"Market1"}"#),
            ErrorCode::BadRequest
        );
        assert_eq!(
            code(r#"{"type":"ping","proto":"two"}"#),
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn cache_key_ignores_request_id_and_proto() {
        let job = RunJob {
            workload: JobWorkload::Benchmark(Benchmark::Gcc),
            slices: 1,
            banks: 2,
            len: 100,
            seed: 5,
        };
        let a = Envelope {
            id: Some(1),
            proto: Some(1),
            trace: None,
            req: Request::Job(Job::Run(job.clone())),
        };
        let b = Envelope {
            id: Some(99),
            proto: Some(2),
            trace: None,
            req: Request::Job(Job::Run(job.clone())),
        };
        match (
            Envelope::parse(&a.to_line()).unwrap().req,
            Envelope::parse(&b.to_line()).unwrap().req,
        ) {
            (Request::Job(x), Request::Job(y)) => {
                assert_eq!(x.cache_key(), y.cache_key());
                assert_eq!(x.cache_key(), Some(job.cache_key()));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn job_cache_keys_are_distinct_across_kinds() {
        let sweep = Job::Sweep(SweepJob {
            benchmark: Benchmark::Gcc,
            len: 100,
            seed: 5,
        });
        let market = Job::Market(MarketJob {
            benchmark: Benchmark::Gcc,
            utility: UtilityFn::Throughput,
            market: Market::MARKET2,
            budget: 100.0,
            len: 100,
            seed: 5,
        });
        let run = Job::Run(RunJob {
            workload: JobWorkload::Benchmark(Benchmark::Gcc),
            slices: 1,
            banks: 2,
            len: 100,
            seed: 5,
        });
        let dc = Job::Dc(Box::new(DcJob {
            scenario: Scenario::example_bursty(),
            seed: 5,
            mode: None,
        }));
        // Grid jobs are cached per point, so only single-reply jobs key.
        assert_eq!(sweep.cache_key(), None);
        assert_eq!(market.cache_key(), None);
        assert_ne!(run.cache_key().unwrap(), dc.cache_key().unwrap());
    }

    #[test]
    fn dc_round_trips_and_validates() {
        for mode in [None, Some(BillingMode::Sharing), Some(BillingMode::Fixed)] {
            let env = Envelope {
                id: Some(11),
                proto: None,
                trace: None,
                req: Request::Job(Job::Dc(Box::new(DcJob {
                    scenario: Scenario::example_bursty(),
                    seed: 99,
                    mode,
                }))),
            };
            let back = Envelope::parse(&env.to_line()).unwrap();
            assert_eq!(env, back);
        }
        // A scenario without a name is rejected, as is a bad mode.
        assert!(Envelope::parse(r#"{"type":"dc","scenario":{}}"#).is_err());
        assert!(Envelope::parse(r#"{"type":"dc"}"#).is_err());
        let line = Envelope {
            id: None,
            proto: None,
            trace: None,
            req: Request::Job(Job::Dc(Box::new(DcJob {
                scenario: Scenario::example_bursty(),
                seed: 1,
                mode: None,
            }))),
        }
        .to_line()
        .replace(r#""seed":1"#, r#""seed":1,"mode":"weird""#);
        assert!(Envelope::parse(&line).is_err());
    }

    #[test]
    fn dc_cache_key_distinguishes_seed_and_mode() {
        let base = DcJob {
            scenario: Scenario::example_bursty(),
            seed: 7,
            mode: None,
        };
        let other_seed = DcJob {
            seed: 8,
            ..base.clone()
        };
        let other_mode = DcJob {
            mode: Some(BillingMode::Fixed),
            ..base.clone()
        };
        assert_ne!(base.cache_key(), other_seed.cache_key());
        assert_ne!(base.cache_key(), other_mode.cache_key());
        assert_eq!(base.cache_key(), base.clone().cache_key());
    }

    #[test]
    fn error_line_is_parseable_and_typed() {
        let err = ServerError::new(ErrorCode::QueueFull, "queue full");
        let line = err.to_line(Some(5));
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("id").and_then(Json::as_int), Some(5));
        assert_eq!(v.get("code").and_then(Json::as_str), Some("queue_full"));
        let back = ServerError::from_reply(&v).unwrap();
        assert_eq!(back.code, ErrorCode::QueueFull);

        // Extra fields ride along without disturbing the code.
        let line = err.to_line_with(None, vec![("backpressure", Json::Bool(true))]);
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("backpressure").and_then(Json::as_bool), Some(true));
        assert_eq!(
            ServerError::from_reply(&v).unwrap().code,
            ErrorCode::QueueFull
        );

        // Success replies are not errors.
        let okv = Json::parse(r#"{"ok":true,"type":"pong"}"#).unwrap();
        assert!(ServerError::from_reply(&okv).is_none());
    }

    #[test]
    fn error_codes_round_trip_by_name() {
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::parse(code.name()), Some(code));
        }
        assert_eq!(ErrorCode::parse("explode"), None);
    }

    /// A `Write` that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
        flushes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn write_line_sends_each_line_in_one_write() {
        let line = Envelope {
            id: Some(3),
            proto: Some(PROTO_VERSION),
            trace: None,
            req: Request::Ping,
        }
        .to_line();
        for line in [line.as_str(), "", "{\"ok\":true,\"note\":\"µs\"}"] {
            let mut w = CountingWriter::default();
            write_line(&mut w, line).unwrap();
            assert_eq!(w.writes.len(), 1, "one write per line for {line:?}");
            assert_eq!(w.writes[0], format!("{line}\n").into_bytes());
            assert_eq!(w.flushes, 1);
            // The frame reads back as the line it carried.
            let mut reader = std::io::BufReader::new(&w.writes[0][..]);
            assert_eq!(read_line(&mut reader).unwrap().as_deref(), Some(line));
        }
    }
}
