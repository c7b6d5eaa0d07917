//! # SSim — cycle-level simulator of the Sharing Architecture
//!
//! This crate is the reproduction of the paper's primary contribution: a
//! manycore fabric whose *Virtual Cores* are composed at run time from
//! Slices (minimal out-of-order pipelines) and 64 KB L2 cache banks, plus
//! the trace-driven simulator (SSim) the paper evaluates it with.
//!
//! * [`SimConfig`] / [`VCoreShape`] — the paper's Tables 2/3 parameters and
//!   the `(slices, cache)` configuration space of Equation 3;
//! * [`Simulator`] — run one trace on one VCore via
//!   [`Simulator::run_with`] and [`RunOptions`];
//! * [`VmSimulator`] — multi-VCore VMs sharing a coherent L2 (PARSEC);
//! * [`run_workload`] — the one runner that picks between the two for a
//!   [`sharing_trace::Workload`] (§5.3);
//! * [`ReconfigurableVCore`] — a live VCore resized between program
//!   phases with the paper's 500/10 000-cycle costs (§3.8, §5.10);
//! * [`engine`] — the underlying timing model, exposed for composition;
//! * [`profile`] — conservation-exact cycle attribution: every simulated
//!   cycle of every Slice binned into fetch/issue/FU-busy/DRAM-stall/
//!   ROB-full/idle;
//! * [`structures`] — Table 1's replicated-vs-partitioned encoding.
//!
//! # Example
//!
//! ```
//! use sharing_core::{SimConfig, Simulator};
//! use sharing_trace::{Benchmark, TraceSpec};
//!
//! // Compare a 1-Slice and a 4-Slice VCore on the same workload.
//! use sharing_core::RunOptions;
//! let trace = Benchmark::H264ref.generate(&TraceSpec::new(4_000, 42));
//! let sim = |s| Simulator::new(SimConfig::with_shape(s, 2).unwrap()).unwrap();
//! let small = sim(1).run_with(&trace, RunOptions::new()).result;
//! let big = sim(4).run_with(&trace, RunOptions::new()).result;
//! assert!(big.ipc() > small.ipc());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod event;
pub mod multi;
pub mod par;
pub mod predictor;
pub mod profile;
pub mod reconfig;
pub mod reconfigurable;
pub mod run;
pub mod sim;
pub mod stats;
pub mod structures;
pub mod timeline;

pub use config::{
    ConfigError, MemParams, ModelKnobs, PredictorKind, SimConfig, SliceParams, VCoreShape,
    MAX_L2_BANKS, MAX_SLICES,
};
pub use engine::{InstTiming, MemAccess, MemorySystem, VCoreEngine};
pub use event::WakeHeap;
pub use multi::VmSimulator;
pub use profile::{CycleProfile, SliceCycles};
pub use reconfig::ReconfigCosts;
pub use reconfigurable::ReconfigurableVCore;
pub use run::run_workload;
pub use sim::{RunOptions, RunOutput, Simulator};
pub use stats::{MemCounters, SimResult, SliceStats, StallBreakdown};
pub use structures::{Distribution, Structure};
