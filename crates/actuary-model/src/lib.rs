//! The cost engine of the *Chiplet Actuary* model (DAC 2022).
//!
//! This crate implements the paper's equations on top of the technology
//! library ([`actuary_tech`]):
//!
//! * **RE (recurring engineering) cost** — [`re_cost`] computes the
//!   five-component breakdown of §3.2 (cost of raw chips, chip defects, raw
//!   package, package defects, and wasted known-good dies) for any die set
//!   and packaging technology, under either assembly flow of Eq. (5)
//!   ([`AssemblyFlow::ChipFirst`] / [`AssemblyFlow::ChipLast`]); the
//!   interposer/bonding yield algebra follows Eq. (4).
//! * **NRE (non-recurring engineering) cost** — the primitives of Eq. (6):
//!   [`module_design_cost`], [`chip_level_nre`], [`package_nre`] and
//!   [`d2d_nre`], from which portfolio-level NRE (Eq. (7)/(8)) is assembled
//!   by the `actuary-arch` crate, which also amortizes NRE over the
//!   production quantity into a system's total cost (§2.3).
//!
//! # Examples
//!
//! Compare a monolithic 800 mm² SoC at 5 nm with a two-chiplet MCM:
//!
//! ```
//! use actuary_model::{re_cost, AssemblyFlow, DiePlacement};
//! use actuary_tech::{IntegrationKind, TechLibrary};
//! use actuary_units::Area;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = TechLibrary::paper_defaults()?;
//! let n5 = lib.node("5nm")?;
//!
//! let soc = re_cost(
//!     &[DiePlacement::new(n5, Area::from_mm2(800.0)?, 1)],
//!     lib.packaging(IntegrationKind::Soc)?,
//!     AssemblyFlow::ChipLast,
//! )?;
//! // Two chiplets of 400 mm² modules each + 10 % D2D overhead:
//! let die = n5.d2d().inflate_module_area(Area::from_mm2(400.0)?)?;
//! let mcm = re_cost(
//!     &[DiePlacement::new(n5, die, 2)],
//!     lib.packaging(IntegrationKind::Mcm)?,
//!     AssemblyFlow::ChipLast,
//! )?;
//! assert!(mcm.total() < soc.total(), "two chiplets must beat the 800 mm² SoC at 5 nm");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod breakdown;
mod error;
mod nre;
mod re;

pub use breakdown::{NreBreakdown, ReCostBreakdown};
pub use error::ModelError;
pub use nre::{chip_level_nre, d2d_nre, module_design_cost, package_nre, package_nre_for_silicon};
pub use re::{
    equal_split_re_cost, overall_soc_yield, re_cost, re_cost_sized, AssemblyFlow, DiePlacement,
};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, ModelError>;
