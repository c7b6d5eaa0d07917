//! Area model of the Sharing Architecture, calibrated to the paper's
//! synthesis results (§5.1, Figures 10 and 11).
//!
//! The paper implemented a Slice in synthesizable Verilog, took it through
//! Synopsys Design Compiler / IC Compiler on TSMC 45 nm, and sized SRAMs
//! with CACTI. We cannot ship that flow, so this crate substitutes an
//! analytic model **fitted to the published breakdown**: each Slice
//! component's share of area matches Figure 10, a 64 KB L2 bank matches
//! Figure 11's 35 % share (i.e. one Slice ≈ two banks ≈ 128 KB of cache —
//! exactly the equal-area pricing the paper's Market 2 uses), and a
//! CACTI-like scaling law covers non-default SRAM sizes.
//!
//! # Example
//!
//! ```
//! use sharing_area::{AreaModel, SliceComponent};
//!
//! let model = AreaModel::paper();
//! // One Slice has the same area as two 64 KB banks (Market2's 1:128KB).
//! assert!((model.slice_mm2() - 2.0 * model.bank_mm2()).abs() < 1e-9);
//! // The sharing overhead is ≈8 % of a Slice (Figure 10).
//! let overhead = model.sharing_overhead_mm2();
//! assert!((overhead / model.slice_mm2() - 0.08).abs() < 0.005);
//! # let _ = SliceComponent::ALL;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cacti;
pub mod model;

pub use cacti::sram_area_mm2;
pub use model::{AreaModel, SliceComponent};
