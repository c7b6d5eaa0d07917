//! Trace substrate for the Sharing Architecture simulator.
//!
//! The paper drives SSim with full-system traces generated by the Alpha
//! version of GEM5, running SPEC CINT2006, an Apache web-serving workload,
//! and a subset of PARSEC. SPEC is proprietary and GEM5 full-system traces
//! are not shippable, so this crate substitutes a **deterministic synthetic
//! workload generator**: every benchmark the paper evaluates is modeled as a
//! seeded program generator parameterized by the microarchitectural features
//! that drive the paper's results — intrinsic ILP, branch density and
//! predictability, memory intensity, working-set structure, pointer-chasing
//! serialization, and thread-level structure for the PARSEC workloads.
//!
//! The simulator consumes only the resulting [`Trace`] (a committed-path
//! dynamic-instruction stream), exactly as it would consume a converted GEM5
//! trace, so the substitution exercises the same code paths.
//!
//! # Quick start
//!
//! ```
//! use sharing_trace::{Benchmark, TraceSpec};
//!
//! let trace = Benchmark::Gcc.generate(&TraceSpec::new(10_000, 42));
//! assert_eq!(trace.len(), 10_000);
//! let stats = trace.stats();
//! assert!(stats.branch_frac > 0.05 && stats.mem_frac > 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmarks;
pub mod cache;
pub mod generator;
pub mod profile;
pub mod reuse;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workload;

pub use benchmarks::{
    bursty_profile, extra_profile, gcc_phase_profile, gcc_phase_trace, phase_shift_profile,
    Benchmark, ALL_BENCHMARKS, EXTRA_PROFILES, PARSEC_BENCHMARKS, SPEC_BENCHMARKS,
};

/// Bumped whenever benchmark profile calibration changes, so downstream
/// result caches (e.g. the suite-sweep JSON) invalidate themselves.
pub const CALIBRATION_VERSION: u32 = 5;
pub use cache::TraceCache;
pub use generator::ProgramGenerator;
pub use profile::{
    AccessPattern, MemRegion, WorkloadProfile, MAX_LOOP_BODY, MAX_LOOP_ITERS, MAX_PROFILE_LOOPS,
    MAX_PROFILE_REGIONS, MAX_PROFILE_THREADS, MAX_REGION_BYTES,
};
pub use reuse::ReuseProfile;
pub use rng::Rng64;
pub use stats::TraceStats;
pub use trace::{ThreadedTrace, Trace, TraceSpec, MAX_JOB_INSTRUCTIONS, MAX_TRACE_LEN};
pub use workload::Workload;
