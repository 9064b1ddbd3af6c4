//! **chiplet-actuary** — a quantitative cost model and multi-chiplet
//! architecture exploration toolkit, reproducing *Chiplet Actuary*
//! (Feng & Ma, DAC 2022) as a production-grade Rust workspace.
//!
//! The facade re-exports the whole workspace under stable module names:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`units`] | `actuary-units` | [`Area`], [`Money`], [`Prob`], [`Quantity`] newtypes |
//! | [`yield_model`] | `actuary-yield` | Eq. (1) yield models, wafer geometry, reticle |
//! | [`tech`] | `actuary-tech` | process nodes, packaging, D2D, [`TechLibrary`] |
//! | [`model`] | `actuary-model` | RE (Eq. 4/5) and NRE (Eq. 6–8) cost engine |
//! | [`arch`] | `actuary-arch` | modules/chips/systems/portfolios, reuse schemes, partitioning |
//! | [`mc`] | `actuary-mc` | Monte-Carlo assembly-flow validation |
//! | [`dse`] | `actuary-dse` | crossovers, Pareto, sensitivity, maturity, optimizer |
//! | [`report`] | `actuary-report` | ASCII charts/tables, CSV, Markdown |
//! | [`figures`] | `actuary-figures` | reproduction of the paper's Figures 2–10 |
//!
//! # Quickstart
//!
//! ```
//! use chiplet_actuary::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = TechLibrary::paper_defaults()?;
//! let n5 = lib.node("5nm")?;
//!
//! // Monolithic 800 mm² SoC vs two chiplets on an MCM:
//! let soc = re_cost(
//!     &[DiePlacement::new(n5, Area::from_mm2(800.0)?, 1)],
//!     lib.packaging(IntegrationKind::Soc)?,
//!     AssemblyFlow::ChipLast,
//! )?;
//! let die = n5.d2d().inflate_module_area(Area::from_mm2(400.0)?)?;
//! let mcm = re_cost(
//!     &[DiePlacement::new(n5, die, 2)],
//!     lib.packaging(IntegrationKind::Mcm)?,
//!     AssemblyFlow::ChipLast,
//! )?;
//! assert!(mcm.total() < soc.total());
//! # Ok(())
//! # }
//! ```
//!
//! [`Area`]: units::Area
//! [`Money`]: units::Money
//! [`Prob`]: units::Prob
//! [`Quantity`]: units::Quantity
//! [`TechLibrary`]: tech::TechLibrary

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Unit and money newtypes ([`actuary_units`]).
pub mod units {
    pub use actuary_units::*;
}

/// Yield models and wafer geometry ([`actuary_yield`]).
pub mod yield_model {
    pub use actuary_yield::*;
}

/// Technology library ([`actuary_tech`]).
pub mod tech {
    pub use actuary_tech::*;
}

/// RE / NRE cost engine ([`actuary_model`]).
pub mod model {
    pub use actuary_model::*;
}

/// Architecture abstractions and reuse schemes ([`actuary_arch`]).
pub mod arch {
    pub use actuary_arch::*;
}

/// Declarative scenario files ([`actuary_scenario`]).
pub mod scenario {
    pub use actuary_scenario::*;
}

/// Monte-Carlo assembly simulation ([`actuary_mc`]).
pub mod mc {
    pub use actuary_mc::*;
}

/// Design-space exploration ([`actuary_dse`]).
pub mod dse {
    pub use actuary_dse::*;
}

/// Reporting: charts, tables, CSV ([`actuary_report`]).
pub mod report {
    pub use actuary_report::*;
}

/// Paper figure reproduction ([`actuary_figures`]).
pub mod figures {
    pub use actuary_figures::*;
}

/// The most common imports in one place.
pub mod prelude {
    pub use actuary_arch::{
        partition, reuse, Chip, Module, Portfolio, PortfolioCost, System, SystemCost,
    };
    pub use actuary_model::{
        equal_split_re_cost, re_cost, re_cost_sized, AssemblyFlow, DiePlacement, NreBreakdown,
        ReCostBreakdown,
    };
    pub use actuary_tech::{
        D2dSpec, IntegrationKind, NodeId, PackagingTech, ProcessNode, TechLibrary,
    };
    pub use actuary_units::{Area, Money, Prob, Quantity};
    pub use actuary_yield::{DefectDensity, NegativeBinomial, Reticle, WaferSpec, YieldModel};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_the_full_pipeline() {
        let lib = TechLibrary::paper_defaults().unwrap();
        let chip = Chip::chiplet(
            "c",
            "7nm",
            vec![Module::new("m", "7nm", Area::from_mm2(100.0).unwrap())],
        );
        let system = System::builder("s", IntegrationKind::Mcm)
            .chip(chip, 2)
            .quantity(Quantity::new(1_000_000))
            .build()
            .unwrap();
        let cost = Portfolio::new(vec![system])
            .cost(&lib, AssemblyFlow::ChipLast)
            .unwrap();
        assert!(cost.systems()[0].per_unit_total().usd() > 0.0);
    }
}
