//! sharing-obs — the workspace's observability substrate.
//!
//! The paper's SSim exists to *explain* where cycles go; this crate is
//! the measurement layer that lets every long-running path in the
//! reproduction say the same thing about itself, with no external
//! dependencies:
//!
//! * [`registry`] — a process-global table of named [`Counter`]s and
//!   [`Gauge`]s behind atomics, cheap enough for per-job accounting and
//!   rendered as Prometheus text exposition by
//!   [`registry::prometheus_text`];
//! * [`span`] — [`TraceBuffer`], an explicit, caller-owned buffer of
//!   [`SpanEvent`]s on **two clocks**: wall-clock spans (microseconds
//!   since the buffer was created) for daemons and CLI phases, and
//!   *logical-cycle* spans (simulated cycles) for the deterministic
//!   simulators, so tracing can never perturb bit-for-bit replay;
//! * [`chrome`] — exports a buffer as Chrome `trace_event` JSON,
//!   loadable in Perfetto (<https://ui.perfetto.dev>) or
//!   `about://tracing`;
//! * [`prom`] — a small Prometheus text-exposition writer plus the
//!   percentile helper the ssimd metrics endpoint uses;
//! * [`hist`] — [`Histogram`], fixed log-scale buckets behind atomic
//!   counters, exposed as Prometheus `*_bucket`/`*_sum`/`*_count`
//!   families by [`PromWriter::histogram`](prom::PromWriter::histogram);
//! * [`sink`] — [`SpanSink`], a bounded-buffer JSONL writer thread a
//!   daemon streams its spans into (one Chrome event per line, flushed
//!   per line), so long daemon runs and killed processes still yield
//!   usable traces; overflow drops are counted in
//!   `obs_spans_dropped_total`, never blocking the emitter.
//!
//! # The two-clock model
//!
//! Wall-clock spans answer "where did the *real* time go" (ssimd
//! queue-wait vs execute, sweep throughput). Logical spans answer
//! "where did the *simulated* time go" (datacenter epoch phases at
//! their cycle timestamps). Both land in the same [`TraceBuffer`] and
//! the Chrome exporter places them under two separate process tracks,
//! so a single trace file shows both timelines without conflating them.
//!
//! # Example
//!
//! ```
//! use sharing_obs::{counter, TraceBuffer};
//!
//! let jobs = counter("demo_jobs_total");
//! jobs.inc();
//!
//! let trace = TraceBuffer::new();
//! {
//!     let _span = trace.span("phase-one", "demo", 0);
//!     // ... timed work ...
//! }
//! trace.record_logical("epoch 0", "sim", 0, 0, 10_000, Vec::new());
//! let json = trace.to_chrome_json();
//! assert!(json.contains("traceEvents"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod hist;
pub mod prom;
pub mod registry;
pub mod sink;
pub mod span;

pub use hist::Histogram;
pub use prom::{escape_label, inject_label, percentile, PromWriter};
pub use registry::{counter, gauge, prometheus_text, Counter, Gauge};
pub use sink::{jsonl_to_chrome, SpanSink, SPANS_DROPPED_COUNTER};
pub use span::{Clock, Phase, SpanEvent, SpanGuard, TraceBuffer};
