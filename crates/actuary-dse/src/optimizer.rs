//! Single-system architecture optimizer: which integration scheme, how many
//! chiplets.
//!
//! Answers §6's first takeaway mechanically for a single system (no reuse):
//! evaluate every (integration kind, chiplet count) configuration of a
//! monolithic module area and return the cheapest per-unit total.

use std::fmt;

use actuary_arch::{partition::equal_chiplets, ArchError, Portfolio, PortfolioCore, System};
use actuary_model::AssemblyFlow;
use actuary_tech::{IntegrationKind, TechLibrary};
use actuary_units::{Area, Money, Quantity};

/// The search space of [`recommend`].
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    /// Chiplet counts to consider for multi-chip schemes (the paper's §6
    /// advice: "two or three chiplets is usually sufficient", so the
    /// default probes 2–5).
    pub chiplet_counts: Vec<u32>,
    /// Integration kinds to consider (all multi-chip kinds by default; the
    /// monolithic SoC is always evaluated as the baseline).
    pub integrations: Vec<IntegrationKind>,
    /// Assembly flow (chip-last by default, the paper's choice).
    pub flow: AssemblyFlow,
}

impl Default for SearchSpace {
    fn default() -> Self {
        SearchSpace {
            chiplet_counts: vec![2, 3, 4, 5],
            integrations: IntegrationKind::MULTI_CHIP.to_vec(),
            flow: AssemblyFlow::ChipLast,
        }
    }
}

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

/// The optimizer's output: the winner plus every evaluated candidate
/// (sorted by per-unit cost ascending) for transparency.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// Winning integration scheme.
    pub integration: IntegrationKind,
    /// Winning chiplet count (1 = stay monolithic).
    pub chiplets: u32,
    /// Winning per-unit cost.
    pub per_unit: Money,
    /// All evaluated candidates, cheapest first.
    pub candidates: Vec<Candidate>,
}

impl Recommendation {
    /// The monolithic baseline candidate.
    pub fn soc_baseline(&self) -> Option<&Candidate> {
        self.candidates
            .iter()
            .find(|c| c.integration == IntegrationKind::Soc)
    }

    /// Relative saving of the winner vs the monolithic baseline
    /// (`0.25` = 25 % cheaper). Zero when the baseline wins.
    pub fn saving_vs_soc(&self) -> f64 {
        match self.soc_baseline() {
            Some(soc) if soc.per_unit.usd() > 0.0 => {
                (soc.per_unit.usd() - self.per_unit.usd()) / soc.per_unit.usd()
            }
            _ => 0.0,
        }
    }
}

impl fmt::Display for Recommendation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "build {} chiplet(s) on {} at {} / unit ({:.1}% vs monolithic)",
            self.chiplets,
            self.integration,
            self.per_unit,
            self.saving_vs_soc() * 100.0
        )
    }
}

/// The quantity-independent part of one candidate evaluation: the RE
/// breakdown and NRE entity totals of the configured system, computed once
/// and re-amortizable over any production quantity.
///
/// This is the expensive half of [`evaluate_candidate`] (building the
/// system, resolving its chip designs, RE and NRE artifacts);
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
    /// Amortizes the cached core at `quantity`, producing the same
    /// [`Candidate`] as [`evaluate_candidate`] — byte for byte, because
    /// both read the identical [`PortfolioCore::member_at`] arithmetic.
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

/// Evaluates one (integration, chiplet count) configuration of a single
/// system with `module_area` of logic at `node_id`, producing its per-unit
/// total cost at `quantity`.
///
/// Implemented as [`candidate_core`] followed by
/// [`CandidateCore::at_quantity`], so grids that cache the core across
/// quantities reproduce this function exactly.
///
/// # Errors
///
/// Propagates architecture and cost-engine errors.
pub fn evaluate_candidate(
    lib: &TechLibrary,
    node_id: &str,
    module_area: Area,
    quantity: Quantity,
    integration: IntegrationKind,
    chiplets: u32,
    flow: AssemblyFlow,
) -> Result<Candidate, ArchError> {
    Ok(
        candidate_core(lib, node_id, module_area, integration, chiplets, flow)?
            .at_quantity(quantity),
    )
}

/// Searches the space and returns the cheapest configuration for a single
/// system of `module_area` at `node_id`, produced `quantity` times.
///
/// Configurations whose dies exceed the wafer or whose interposer cannot be
/// manufactured are skipped silently (they are simply infeasible).
///
/// # Errors
///
/// Returns [`ArchError::InvalidArchitecture`] if the search space is empty
/// or no configuration is feasible; propagates unexpected engine errors.
pub fn recommend(
    lib: &TechLibrary,
    node_id: &str,
    module_area: Area,
    quantity: Quantity,
    space: &SearchSpace,
) -> Result<Recommendation, ArchError> {
    // Each axis is validated independently: with only one axis empty the
    // Cartesian search degenerates to the SoC baseline alone, which used to
    // be returned as a "recommendation" without any search having happened.
    if space.integrations.is_empty() {
        return Err(ArchError::InvalidArchitecture {
            reason: "search space has no integration kinds".to_string(),
        });
    }
    if space.chiplet_counts.is_empty() {
        return Err(ArchError::InvalidArchitecture {
            reason: "search space has no chiplet counts".to_string(),
        });
    }
    // NRE is amortized over the quantity: at 0 units every candidate
    // would be ranked on its RE alone.
    if quantity.is_zero() {
        return Err(ArchError::InvalidArchitecture {
            reason: "production quantity must be at least 1, got 0".to_string(),
        });
    }
    let mut candidates = Vec::new();
    // Monolithic baseline.
    match evaluate_candidate(
        lib,
        node_id,
        module_area,
        quantity,
        IntegrationKind::Soc,
        1,
        space.flow,
    ) {
        Ok(c) => candidates.push(c),
        Err(ArchError::Model(_)) | Err(ArchError::Yield(_)) => {}
        Err(e) => return Err(e),
    }
    for &kind in &space.integrations {
        for &n in &space.chiplet_counts {
            // Incompatible axis combinations are skipped the way the
            // exploration grid records them: a monolithic kind holds
            // exactly one die, and a multi-chip kind needs at least two (a
            // single die has no D2D interface — `equal_chiplets` would hand
            // the system builder a D2D-less chip and the whole search used
            // to hard-error).
            let compatible = if kind.is_multi_chip() { n >= 2 } else { n == 1 };
            if !compatible {
                continue;
            }
            match evaluate_candidate(lib, node_id, module_area, quantity, kind, n, space.flow) {
                Ok(c) => candidates.push(c),
                // Infeasible geometry (die too large, zero yield): skip.
                Err(ArchError::Model(_)) | Err(ArchError::Yield(_)) => {}
                Err(e) => return Err(e),
            }
        }
    }
    if candidates.is_empty() {
        return Err(ArchError::InvalidArchitecture {
            reason: format!("no feasible configuration for {module_area} at {node_id}"),
        });
    }
    candidates.sort_by(|a, b| {
        a.per_unit
            .partial_cmp(&b.per_unit)
            .expect("costs are finite")
    });
    let best = candidates[0].clone();
    Ok(Recommendation {
        integration: best.integration,
        chiplets: best.chiplets,
        per_unit: best.per_unit,
        candidates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> TechLibrary {
        TechLibrary::paper_defaults().unwrap()
    }

    fn area(mm2: f64) -> Area {
        Area::from_mm2(mm2).unwrap()
    }

    #[test]
    fn small_low_volume_system_stays_monolithic() {
        // §6: "For a single system, monolithic SoC is a better choice unless
        // the production quantity is large enough."
        let rec = recommend(
            &lib(),
            "14nm",
            area(150.0),
            Quantity::new(100_000),
            &SearchSpace::default(),
        )
        .unwrap();
        assert_eq!(rec.integration, IntegrationKind::Soc);
        assert_eq!(rec.chiplets, 1);
        assert_eq!(rec.saving_vs_soc(), 0.0);
    }

    #[test]
    fn huge_advanced_high_volume_system_splits() {
        let rec = recommend(
            &lib(),
            "5nm",
            area(800.0),
            Quantity::new(10_000_000),
            &SearchSpace::default(),
        )
        .unwrap();
        assert!(rec.chiplets >= 2, "got {rec}");
        assert!(
            rec.saving_vs_soc() > 0.05,
            "saving {:.3}",
            rec.saving_vs_soc()
        );
    }

    #[test]
    fn beyond_reticle_system_has_no_monolithic_option() {
        // 1,200 mm² of modules cannot be one die; only multi-chip
        // candidates are feasible... the wafer still accepts 1,200 mm²
        // though, so enforce via candidates: best must be multi-chip
        // because monolithic yield is catastrophically low.
        let rec = recommend(
            &lib(),
            "5nm",
            area(1_200.0),
            Quantity::new(2_000_000),
            &SearchSpace::default(),
        )
        .unwrap();
        assert!(rec.chiplets >= 2);
    }

    #[test]
    fn candidates_are_sorted_and_complete() {
        let space = SearchSpace::default();
        let rec = recommend(&lib(), "7nm", area(600.0), Quantity::new(2_000_000), &space).unwrap();
        // 1 SoC baseline + 3 kinds × 4 counts = 13 candidates.
        assert_eq!(rec.candidates.len(), 13);
        for pair in rec.candidates.windows(2) {
            assert!(pair[0].per_unit <= pair[1].per_unit);
        }
        assert!(rec.soc_baseline().is_some());
    }

    #[test]
    fn granularity_has_marginal_utility() {
        // §4.1: "the cost benefits from smaller chiplet granularity have a
        // marginal utility" — the RE saving of 3→5 chiplets is smaller than
        // that of 1→2 at 5 nm / 800 mm² MCM.
        let lib = lib();
        let re_for = |n: u32| {
            evaluate_candidate(
                &lib,
                "5nm",
                area(800.0),
                Quantity::new(1),
                if n == 1 {
                    IntegrationKind::Soc
                } else {
                    IntegrationKind::Mcm
                },
                n,
                AssemblyFlow::ChipLast,
            )
            .unwrap()
            .re_per_unit
            .usd()
        };
        let one = re_for(1);
        let two = re_for(2);
        let three = re_for(3);
        let five = re_for(5);
        let first_split_saving = one - two;
        let granularity_saving = three - five;
        assert!(
            granularity_saving < 0.35 * first_split_saving,
            "3→5 saving {granularity_saving} must be marginal vs 1→2 {first_split_saving}"
        );
    }

    #[test]
    fn empty_space_is_rejected() {
        let space = SearchSpace {
            chiplet_counts: vec![],
            integrations: vec![],
            flow: AssemblyFlow::ChipLast,
        };
        assert!(recommend(&lib(), "7nm", area(100.0), Quantity::new(1_000), &space).is_err());
    }

    #[test]
    fn one_sided_empty_space_is_rejected() {
        // Regression: the guard used `&&`, so a space with one empty axis
        // slipped through and silently returned an SoC-only
        // "recommendation" that never searched anything.
        let counts_only = SearchSpace {
            chiplet_counts: vec![2, 3],
            integrations: vec![],
            flow: AssemblyFlow::ChipLast,
        };
        let err = recommend(
            &lib(),
            "7nm",
            area(100.0),
            Quantity::new(1_000),
            &counts_only,
        )
        .expect_err("empty integrations axis must be rejected");
        assert!(err.to_string().contains("integration"), "{err}");

        let kinds_only = SearchSpace {
            chiplet_counts: vec![],
            integrations: vec![IntegrationKind::Mcm],
            flow: AssemblyFlow::ChipLast,
        };
        let err = recommend(
            &lib(),
            "7nm",
            area(100.0),
            Quantity::new(1_000),
            &kinds_only,
        )
        .expect_err("empty chiplet-count axis must be rejected");
        assert!(err.to_string().contains("chiplet count"), "{err}");
    }

    #[test]
    fn multi_chip_space_with_single_chiplet_count_is_searchable() {
        // Regression: a search space listing 1 among the chiplet counts of
        // a multi-chip kind used to hard-error the whole `recommend` call
        // (`equal_chiplets` produced a D2D-less die the system builder
        // rejected). The exploration grid records such cells as
        // incompatible; the optimizer now skips them the same way.
        let space = SearchSpace {
            chiplet_counts: vec![1, 2, 3],
            integrations: IntegrationKind::MULTI_CHIP.to_vec(),
            flow: AssemblyFlow::ChipLast,
        };
        let rec = recommend(&lib(), "7nm", area(400.0), Quantity::new(2_000_000), &space)
            .expect("multi-chip × 1 cells must be skipped, not fatal");
        // The SoC baseline + 3 kinds × {2, 3}: the ×1 cells add nothing.
        assert_eq!(rec.candidates.len(), 1 + 3 * 2);
        assert!(rec
            .candidates
            .iter()
            .all(|c| c.integration == IntegrationKind::Soc || c.chiplets >= 2));
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
            let cached = core.at_quantity(Quantity::new(qty));
            let direct = evaluate_candidate(
                &lib,
                "5nm",
                area(800.0),
                Quantity::new(qty),
                IntegrationKind::Mcm,
                3,
                AssemblyFlow::ChipLast,
            )
            .unwrap();
            assert_eq!(cached, direct, "quantity {qty}");
        }
    }

    #[test]
    fn a_zero_quantity_is_rejected_not_ranked_on_re_alone() {
        let err = recommend(
            &lib(),
            "7nm",
            area(400.0),
            Quantity::new(0),
            &SearchSpace::default(),
        )
        .expect_err("0 units amortize no NRE");
        assert_eq!(
            err.to_string(),
            "invalid architecture: production quantity must be at least 1, got 0"
        );
    }

    #[test]
    fn display_formats() {
        let rec = recommend(
            &lib(),
            "7nm",
            area(400.0),
            Quantity::new(1_000_000),
            &SearchSpace::default(),
        )
        .unwrap();
        let s = rec.to_string();
        assert!(s.contains("chiplet"), "{s}");
    }
}
