//! sharing-chaos — seeded, replayable fault injection for the ssimd fleet.
//!
//! The core engine already meets a bit-for-bit replay bar: same trace,
//! same shape, same bytes out. This crate holds the *fleet* code
//! (coordinator dispatch, job queue admission, cache persistence, the
//! HTTP front door) to the same standard under failure: every fault a
//! run injects is drawn from a [`FaultPlan`] — a seed plus a list of
//! rules — and the decision for any injection point is a pure function
//! of `(plan seed, rule index, call index)`. Two runs of the same
//! workload under the same plan therefore produce the same injection
//! schedule, no matter how threads interleave.
//!
//! ```text
//!  FaultPlan (JSON) ──arm──▶ ChaosHooks (process-global)
//!        │                        │
//!        │        dispatch.rs ────┤ drop_conn / slow_read / slow_write
//!        │        register() ─────┤ partition (connects refused)
//!        │        server.rs ──────┤ queue_full_storm (admission refused)
//!        │        cache load ─────┤ corrupt_cache_file (bit-flip/truncate)
//!        │        http accept ────┤ drop_conn
//!        │        http read ──────┤ slow_read / drop_conn
//!        └──────▶ `ssim chaos` ───┘ sigkill_worker (driver kills a child)
//! ```
//!
//! # Example
//!
//! ```
//! use sharing_chaos::{FaultKind, FaultPlan};
//!
//! let text = r#"{"seed":7,"rules":[
//!     {"target":"*","kind":"drop_conn","nth":10}
//! ]}"#;
//! let plan = FaultPlan::parse(text).unwrap();
//! assert_eq!(plan.rules[0].kind, FaultKind::DropConn);
//! // Printable back out, so any run is reproducible from its plan.
//! let round = FaultPlan::parse(&plan.to_json_string()).unwrap();
//! assert_eq!(plan, round);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hooks;
mod plan;

pub use hooks::{hooks, ChaosHooks, Injection, IoFault, PLAN_ENV, SCHEDULE_ENV};
pub use plan::{FaultKind, FaultPlan, FaultRule};
