//! ssimd — simulation-as-a-service for the Sharing Architecture.
//!
//! The sweep and market studies behind the paper's figures each run the
//! simulator hundreds of times over the same `(benchmark, shape, trace)`
//! grid. This crate turns the simulator into a long-lived daemon so that
//! cost is paid once and shared:
//!
//! * [`protocol`] — versioned newline-delimited JSON over TCP: `run`,
//!   `sweep`, `market`, `dc` (datacenter scenarios via `sharing-dc`),
//!   `stats`, `metrics` (Prometheus text exposition), `ping`, `hello`
//!   (version negotiation), `shutdown`; failures carry typed
//!   [`protocol::ErrorCode`]s;
//! * [`queue`] — a bounded job queue with non-blocking admission control
//!   (a full queue answers with an explicit backpressure reply);
//! * [`server`] — the daemon: listener, per-connection threads, a fixed
//!   worker pool, and an optional HTTP/1.1 front door
//!   (`ServerConfig::http_addr`) serving `GET /health` / `GET /metrics`
//!   / `GET /status` and `POST /jobs` + `GET /jobs/<id>` polling, built
//!   on `sharing-http`;
//! * [`cache`] — a result cache keyed by the canonical job JSON; hits
//!   replay the exact bytes of the fresh run (the simulator and trace
//!   generation are deterministic), and it can persist to a plain file
//!   across restarts (`ServerConfig::cache_path`);
//! * [`metrics`] — queue depth, cache hit rate, worker utilization,
//!   per-kind completion counters, and p50/p99 queue-wait / execute /
//!   end-to-end latency, served as JSON by `stats` and as Prometheus
//!   text by `metrics`; per-job wall-clock spans stream to a JSONL
//!   trace file when `ServerConfig::trace_path` is set;
//! * [`client`] — a blocking client used by `ssim submit` and the tests;
//!   all job kinds go through one [`Client::submit`] door;
//! * [`dispatch`] — coordinator mode: `ServerConfig::remote_workers`
//!   turns the daemon into a front-end that fans jobs out to remote
//!   worker daemons with health pings, per-job timeouts, and bounded
//!   retry/re-queue, while results stay byte-identical to single-node.
//!
//! `ssim serve` (crate `sharing-ssim`) is the command that runs the
//! daemon; this crate has no binary of its own.
//!
//! # Example
//!
//! ```
//! use sharing_server::protocol::{Job, JobWorkload, RunJob};
//! use sharing_server::{Client, Server, ServerConfig};
//! use sharing_trace::Benchmark;
//!
//! let handle = Server::start(ServerConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     workers: 2,
//!     queue_capacity: 8,
//!     cache_capacity: 64,
//!     ..ServerConfig::default()
//! })?;
//! let mut client = Client::connect(handle.local_addr())?;
//! assert_eq!(client.hello()?, sharing_server::PROTO_VERSION);
//! let reply = client.submit(Job::Run(RunJob {
//!     workload: JobWorkload::Benchmark(Benchmark::Gcc),
//!     slices: 2,
//!     banks: 2,
//!     len: 400,
//!     seed: 7,
//! }))?;
//! assert_eq!(reply.get("ok").and_then(|v| v.as_bool()), Some(true));
//! client.shutdown()?;
//! handle.join();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod dispatch;
pub mod exec;
mod http;
mod jobs;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;

pub use cache::ResultCache;
pub use client::Client;
pub use dispatch::{DispatchOpts, WorkerPool};
pub use metrics::{JobClass, Metrics};
pub use protocol::{
    DcJob, Envelope, ErrorCode, Job, JobWorkload, MarketJob, Request, RunJob, ServerError,
    SweepJob, DEFAULT_PORT, MIN_PROTO, PROTO_VERSION,
};
pub use queue::{JobQueue, PushError};
pub use server::{Server, ServerConfig, ServerHandle};
