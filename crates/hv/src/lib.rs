//! Hypervisor-level chip resource management for the Sharing Architecture.
//!
//! The paper's hypervisor runs time-sliced on single-Slice VCores and
//! programs the interconnect to compose client VCores out of Slices and
//! cache banks (§3.8). A full chip has hundreds of each (§3); Slices of a
//! VCore must be **contiguous** for operand-latency reasons, while banks
//! may live anywhere. Because all Slices are interchangeable, fragmentation
//! is repaired "as simply as rescheduling Slices to VCores".
//!
//! This crate models that layer:
//!
//! * [`Chip`] — the tile grid (alternating Slice and bank columns, like the
//!   paper's Figure 3) with allocation state;
//! * [`Hypervisor`] — lease/release of VCores with contiguity, bank
//!   placement by proximity, reconfiguration cost accounting, compaction,
//!   and utilization/fragmentation statistics.
//!
//! # Example
//!
//! ```
//! use sharing_hv::{Chip, Hypervisor};
//! use sharing_core::VCoreShape;
//!
//! let mut hv = Hypervisor::new(Chip::new(8, 8));
//! let lease = hv.lease(VCoreShape::new(3, 4)?)?;
//! assert_eq!(hv.stats().live_vcores, 1);
//! hv.release(lease)?;
//! assert_eq!(hv.stats().live_vcores, 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod billing;
pub mod chip;
pub mod cloud;
pub mod hypervisor;

pub use billing::{BillingPeriod, Ledger, Tariff};
pub use chip::{Chip, Tile, TileKind};
pub use cloud::{Cloud, CloudLease, CloudStats, PlacementPolicy};
pub use hypervisor::{HvError, HvStats, Hypervisor, Lease, LeaseId};
