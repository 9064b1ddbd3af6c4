//! Architecture abstractions of the *Chiplet Actuary* model (DAC 2022):
//! modules, chips, packages, systems and portfolios, plus the chiplet-reuse
//! schemes and partitioning utilities of §5.
//!
//! The paper abstracts every VLSI system into three levels (Eq. (3)):
//!
//! * a [`Module`] — "an indivisible group of functional units", designed
//!   once at a particular process node;
//! * a [`Chip`] — a monolithic SoC die formed directly from modules, or a
//!   chiplet formed from modules plus the D2D interface;
//! * a [`System`] — a package (SoC / MCM / InFO / 2.5D) carrying one or
//!   more chips at a production quantity.
//!
//! A [`Portfolio`] is a *group* of systems; its cost method implements the
//! NRE sharing of Eq. (7)/(8): module designs are paid once per distinct
//! module, chip designs once per distinct chip, package designs once per
//! distinct package design (optionally shared — "package reuse"), and D2D
//! interfaces once per node. The result reports both portfolio totals and
//! per-system amortized breakdowns, which is exactly the data behind
//! Figures 6, 8, 9 and 10 of the paper.
//!
//! The reuse schemes of §5 ship as ready-made portfolio generators in
//! [`reuse`]: [`reuse::ScmsSpec`] (single chiplet, multiple systems),
//! [`reuse::OcmeSpec`] (one center, multiple extensions) and
//! [`reuse::FsmcSpec`] (a few sockets, multiple collocations). The
//! partitioning question ("how many chiplets?") is served by
//! [`partition`].
//!
//! # Examples
//!
//! ```
//! use actuary_arch::{Chip, Module, Portfolio, System};
//! use actuary_model::AssemblyFlow;
//! use actuary_tech::{IntegrationKind, TechLibrary};
//! use actuary_units::{Area, Quantity};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = TechLibrary::paper_defaults()?;
//! let core = Module::new("core-cluster", "7nm", Area::from_mm2(180.0)?);
//! let chiplet = Chip::chiplet("compute-die", "7nm", vec![core]);
//! let system = System::builder("dual-compute", IntegrationKind::Mcm)
//!     .chip(chiplet, 2)
//!     .quantity(Quantity::new(500_000))
//!     .build()?;
//! let portfolio = Portfolio::new(vec![system]);
//! let cost = portfolio.cost(&lib, AssemblyFlow::ChipLast)?;
//! assert_eq!(cost.systems().len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chip;
mod error;
mod module;
pub mod partition;
mod portfolio;
pub mod reuse;
mod system;

pub use chip::Chip;
pub use error::ArchError;
pub use module::Module;
pub use portfolio::{
    NreEntity, NreEntityKind, Portfolio, PortfolioCore, PortfolioCost, SystemCost,
};
pub use system::{System, SystemBuilder};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, ArchError>;
