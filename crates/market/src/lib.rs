//! The IaaS economic model of the Sharing Architecture (paper §2, §5.6–5.10).
//!
//! The Sharing Architecture's pitch is economic: by pricing Slices and
//! cache banks individually, a cloud provider creates a finer, more
//! efficient market than fixed-instance pricing. This crate implements that
//! model end to end:
//!
//! * [`UtilityFn`] — the paper's three customer utility functions
//!   (Table 5): throughput `v·P`, balanced `v·P²`, and latency-critical
//!   `v·P³`, where `v` cores are bought under a budget constraint;
//! * [`Market`] — resource pricing; Markets 1–3 of §5.7 (Slices at 4× the
//!   equal-area price, equal-area, cache at 4×);
//! * [`PerfSurface`] / [`SuiteSurfaces`] — measured performance over the
//!   `(slices, cache)` grid for every benchmark, built by running the
//!   simulator (in parallel, with JSON caching);
//! * [`optimize`] — budget-constrained utility maximization and the
//!   `perf^k/area` metrics of Table 4;
//! * [`efficiency`] — the market-efficiency permutation studies behind
//!   Figures 15 and 16 (Sharing vs best-static-fixed and vs per-utility
//!   heterogeneous baselines);
//! * [`datacenter`] — the big/small-core datacenter mix study (Figure 17);
//! * [`phases`] — the dynamic-phase study of Table 7.
//!
//! # Example
//!
//! ```
//! use sharing_market::{Market, UtilityFn, PerfSurface};
//! use sharing_core::VCoreShape;
//!
//! // A synthetic performance surface: perf grows with slices, saturating.
//! let surface = PerfSurface::from_fn("demo", |shape| {
//!     1.0 - 0.5f64.powi(shape.slices as i32)
//! });
//! let best = sharing_market::optimize::best_utility(
//!     &surface, UtilityFn::Throughput, &Market::MARKET2, 100.0);
//! // A throughput buyer never pays for more slices than they help.
//! assert!(best.shape.slices <= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auction;
pub mod autotuner;
pub mod datacenter;
pub mod efficiency;
pub mod market;
pub mod optimize;
pub mod phases;
pub mod surface;
pub mod utility;

pub use auction::{Auction, Bidder, Clearing, UtilityTable};
pub use autotuner::{AutoTuner, Objective};
pub use efficiency::{EfficiencyStudy, PairGain};
pub use market::Market;
pub use optimize::{best_metric, best_utility, Chosen};
pub use surface::{ExperimentSpec, PerfSurface, SuiteSurfaces};
pub use utility::UtilityFn;
