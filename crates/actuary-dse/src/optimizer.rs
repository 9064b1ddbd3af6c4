//! The single-system configuration: one system split into equal
//! chiplets under one integration, priced quantity-independently once
//! ([`candidate_core`]) and amortized per quantity
//! ([`CandidateCore::at_quantity`]).
//!
//! The paper's §6 question ("which integration, how many chiplets") is
//! the `none` slice of [`crate::portfolio::explore_portfolio`], which
//! prices its cells from this core; one operating point is a one-point
//! exploration.

use std::fmt;

use actuary_arch::{partition::equal_chiplets, ArchError, Portfolio, PortfolioCore, System};
use actuary_model::AssemblyFlow;
use actuary_tech::{IntegrationKind, TechLibrary};
use actuary_units::{Area, Money, Quantity};

/// One evaluated configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Integration scheme.
    pub integration: IntegrationKind,
    /// Number of chiplets (1 for the monolithic SoC).
    pub chiplets: u32,
    /// Per-unit total cost (RE + amortized NRE).
    pub per_unit: Money,
    /// Per-unit RE only.
    pub re_per_unit: Money,
}

impl fmt::Display for Candidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} × {} chiplets: {} / unit (RE {})",
            self.integration, self.chiplets, self.per_unit, self.re_per_unit
        )
    }
}

/// The quantity-independent part of one candidate evaluation: the RE
/// breakdown and NRE entity totals of the configured system, computed once
/// and re-amortizable over any production quantity.
///
/// This is the expensive half of an evaluation (building the system,
/// resolving its chip designs, RE and NRE artifacts);
/// [`CandidateCore::at_quantity`] is the cheap half.
/// Exploration grids cache cores keyed on geometry, which removes the
/// quantity axis from the evaluation cost entirely.
#[derive(Debug, Clone)]
pub struct CandidateCore {
    integration: IntegrationKind,
    chiplets: u32,
    core: PortfolioCore,
}

impl CandidateCore {
    /// Amortizes the cached core at `quantity`: the [`Candidate`] the
    /// exploration grid reports for this configuration, byte for byte,
    /// because both read the identical [`PortfolioCore::member_at`]
    /// arithmetic.
    pub fn at_quantity(&self, quantity: Quantity) -> Candidate {
        let (per_unit, re_per_unit) = self.core.member_at(0, quantity);
        Candidate {
            integration: self.integration,
            chiplets: self.chiplets,
            per_unit,
            re_per_unit,
        }
    }
}

/// Computes the quantity-independent [`CandidateCore`] of one
/// (integration, chiplet count) configuration of a single system with
/// `module_area` of logic at `node_id`.
///
/// # Errors
///
/// Propagates architecture and cost-engine errors.
pub fn candidate_core(
    lib: &TechLibrary,
    node_id: &str,
    module_area: Area,
    integration: IntegrationKind,
    chiplets: u32,
    flow: AssemblyFlow,
) -> Result<CandidateCore, ArchError> {
    Ok(CandidateCore {
        integration,
        chiplets,
        core: single_system_core(lib, node_id, module_area, integration, chiplets, flow)?,
    })
}

/// The one-member [`PortfolioCore`] behind [`candidate_core`]: the single
/// system split into `chiplets` equal chiplets, its one member at index
/// 0. The exploration grid prices its `none`-scheme cells from it.
pub(crate) fn single_system_core(
    lib: &TechLibrary,
    node_id: &str,
    module_area: Area,
    integration: IntegrationKind,
    chiplets: u32,
    flow: AssemblyFlow,
) -> Result<PortfolioCore, ArchError> {
    let chips = equal_chiplets("opt", node_id, module_area, chiplets)?;
    let mut builder = System::builder("opt-sys", integration);
    for chip in chips {
        builder = builder.chip(chip, 1);
    }
    Portfolio::new(vec![builder.build()?]).core(lib, flow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::{explore_portfolio, PortfolioSpace, ReuseScheme};

    fn lib() -> TechLibrary {
        TechLibrary::paper_defaults().unwrap()
    }

    fn area(mm2: f64) -> Area {
        Area::from_mm2(mm2).unwrap()
    }

    /// One operating point × every integration × 1–5 chiplets, no reuse:
    /// the `partition` command's grid.
    fn point(node: &str, mm2: f64, quantity: u64) -> PortfolioSpace {
        PortfolioSpace {
            nodes: vec![node.to_string()],
            areas_mm2: vec![mm2],
            quantities: vec![quantity],
            schemes: vec![ReuseScheme::None],
            ..PortfolioSpace::default()
        }
    }

    /// The cheapest configuration of one operating point.
    fn cheapest(node: &str, mm2: f64, quantity: u64) -> Candidate {
        let result = explore_portfolio(&lib(), &point(node, mm2, quantity), 1).unwrap();
        let winner = result.winners(ReuseScheme::None).remove(0);
        winner.best.expect("a feasible configuration").0
    }

    #[test]
    fn small_low_volume_system_stays_monolithic() {
        // §6: "For a single system, monolithic SoC is a better choice unless
        // the production quantity is large enough."
        let best = cheapest("14nm", 150.0, 100_000);
        assert_eq!((best.integration, best.chiplets), (IntegrationKind::Soc, 1));
    }

    #[test]
    fn huge_advanced_high_volume_system_splits() {
        let best = cheapest("5nm", 800.0, 10_000_000);
        assert!(best.chiplets >= 2, "got {best}");
        let soc = cheapest_soc("5nm", 800.0, 10_000_000);
        assert!(best.per_unit.usd() < 0.95 * soc.usd(), "{best} vs {soc}");
    }

    /// The monolithic baseline's per-unit cost at one operating point.
    fn cheapest_soc(node: &str, mm2: f64, quantity: u64) -> Money {
        candidate_core(
            &lib(),
            node,
            area(mm2),
            IntegrationKind::Soc,
            1,
            AssemblyFlow::ChipLast,
        )
        .unwrap()
        .at_quantity(Quantity::new(quantity))
        .per_unit
    }

    #[test]
    fn beyond_reticle_system_has_no_monolithic_option() {
        // 1,200 mm² of modules is one die only at catastrophic yield.
        assert!(cheapest("5nm", 1_200.0, 2_000_000).chiplets >= 2);
    }

    #[test]
    fn granularity_has_marginal_utility() {
        // §4.1: "the cost benefits from smaller chiplet granularity have a
        // marginal utility" — the RE saving of 3→5 chiplets is smaller than
        // that of 1→2 at 5 nm / 800 mm² MCM.
        let lib = lib();
        let re_for = |n: u32| {
            let kind = if n == 1 {
                IntegrationKind::Soc
            } else {
                IntegrationKind::Mcm
            };
            candidate_core(&lib, "5nm", area(800.0), kind, n, AssemblyFlow::ChipLast)
                .unwrap()
                .at_quantity(Quantity::new(1))
                .re_per_unit
                .usd()
        };
        let first_split_saving = re_for(1) - re_for(2);
        let granularity_saving = re_for(3) - re_for(5);
        assert!(
            granularity_saving < 0.35 * first_split_saving,
            "3→5 saving {granularity_saving} must be marginal vs 1→2 {first_split_saving}"
        );
    }

    #[test]
    fn candidate_core_amortizes_identically_to_direct_evaluation() {
        let lib = lib();
        let core = candidate_core(
            &lib,
            "5nm",
            area(800.0),
            IntegrationKind::Mcm,
            3,
            AssemblyFlow::ChipLast,
        )
        .unwrap();
        for qty in [1u64, 500_000, 10_000_000] {
            let chips = equal_chiplets("opt", "5nm", area(800.0), 3).unwrap();
            let mut builder =
                System::builder("opt-sys", IntegrationKind::Mcm).quantity(Quantity::new(qty));
            for chip in chips {
                builder = builder.chip(chip, 1);
            }
            let cost = Portfolio::new(vec![builder.build().unwrap()])
                .cost(&lib, AssemblyFlow::ChipLast)
                .unwrap();
            let cached = core.at_quantity(Quantity::new(qty));
            assert_eq!(cached.per_unit, cost.systems()[0].per_unit_total(), "{qty}");
            assert_eq!(cached.re_per_unit, cost.systems()[0].re().total(), "{qty}");
        }
    }

    #[test]
    fn candidates_are_sorted_and_complete() {
        let result = explore_portfolio(&lib(), &point("7nm", 600.0, 2_000_000), 1).unwrap();
        // 1 SoC baseline + 3 multi-chip kinds × 4 counts = 13 candidates,
        // and the winner is the cheapest of them.
        let costs: Vec<f64> = result
            .feasible()
            .map(|cell| cell.outcome.candidate().unwrap().per_unit.usd())
            .collect();
        assert_eq!(costs.len(), 13);
        let winner = result.winners(ReuseScheme::None).remove(0);
        let best = winner.best.unwrap().0.per_unit.usd();
        assert!(costs.iter().all(|&c| best <= c));
        assert!(
            winner.saving_vs_soc_frac.is_some(),
            "the SoC baseline is priced"
        );
    }

    #[test]
    fn empty_space_is_rejected() {
        let space = PortfolioSpace {
            integrations: vec![],
            chiplet_counts: vec![],
            ..point("7nm", 100.0, 1_000)
        };
        assert!(explore_portfolio(&lib(), &space, 1).is_err());
    }

    #[test]
    fn one_sided_empty_space_is_rejected() {
        // Each axis is validated on its own: one empty axis must not
        // collapse the search to whatever the other one holds.
        let counts_only = PortfolioSpace {
            integrations: vec![],
            ..point("7nm", 100.0, 1_000)
        };
        let err = explore_portfolio(&lib(), &counts_only, 1).unwrap_err();
        assert!(err.to_string().contains("integration"), "{err}");
        let kinds_only = PortfolioSpace {
            chiplet_counts: vec![],
            ..point("7nm", 100.0, 1_000)
        };
        let err = explore_portfolio(&lib(), &kinds_only, 1).unwrap_err();
        assert!(err.to_string().contains("chiplet count"), "{err}");
    }

    #[test]
    fn multi_chip_space_with_single_chiplet_count_is_searchable() {
        // Multi-chip × 1 chiplet has no D2D interface: the grid records
        // those cells as incompatible instead of failing the search.
        let space = PortfolioSpace {
            chiplet_counts: vec![1, 2, 3],
            ..point("7nm", 400.0, 2_000_000)
        };
        let result = explore_portfolio(&lib(), &space, 1).unwrap();
        // The SoC baseline + 3 kinds × {2, 3}: the ×1 cells add nothing.
        assert_eq!(result.feasible_count(), 1 + 3 * 2);
    }

    #[test]
    fn a_zero_quantity_is_rejected_not_ranked_on_re_alone() {
        let err = explore_portfolio(&lib(), &point("7nm", 400.0, 0), 1).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid architecture: production quantity must be at least 1, got 0"
        );
    }

    #[test]
    fn display_formats() {
        let s = cheapest("7nm", 400.0, 1_000_000).to_string();
        assert!(s.contains("chiplets"), "{s}");
    }
}
