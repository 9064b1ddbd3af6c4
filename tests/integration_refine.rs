//! Integration tests of coarse-to-fine refinement against the full model
//! stack: on tier-1-sized grids the refined path must reproduce the
//! exhaustive winner tables and both Pareto fronts byte for byte — across
//! area and quantity strides, across 1 vs 4 threads, and across the
//! reuse-scheme axes — while evaluating strictly fewer cells than
//! exhaustion. The crossover test anchors the quantity axis to the
//! committed §4.2 scenario: 2-D refinement must find the same
//! MCM-under-SoC crossover quantity that exhaustion finds.

use chiplet_actuary::dse::portfolio::{
    explore_portfolio, PortfolioResult, PortfolioSpace, ReuseScheme,
};
use chiplet_actuary::dse::refine::{explore_portfolio_refined_with, ExploreMode, RefineOptions};
use chiplet_actuary::prelude::*;
use chiplet_actuary::scenario::{Job, Scenario, SweepAxis};

fn lib() -> TechLibrary {
    TechLibrary::paper_defaults().unwrap()
}

/// A tier-1-sized reference grid with a long strictly increasing area
/// ramp (the original refinement axis) crossed with every reuse scheme:
/// 2 nodes × 24 areas × 2 quantities × 4 integrations × 5 chiplet counts
/// × 6 scheme variants = 11,520 cells of mixed feasibility.
fn reference_space() -> PortfolioSpace {
    PortfolioSpace {
        nodes: vec!["14nm".to_string(), "5nm".to_string()],
        areas_mm2: (1..=24).map(|i| f64::from(i) * 45.0).collect(),
        quantities: vec![500_000, 10_000_000],
        integrations: IntegrationKind::ALL.to_vec(),
        chiplet_counts: vec![1, 2, 3, 4, 5],
        flows: vec![AssemblyFlow::ChipLast],
        schemes: ReuseScheme::ALL.to_vec(),
        ..PortfolioSpace::default()
    }
}

/// A quantity-swept reference grid: the quantity axis is long enough
/// (16 points crossing the §4.2 amortization band) for coarse sampling
/// and bisection to have real gaps to skip on that axis.
fn quantity_swept_space() -> PortfolioSpace {
    PortfolioSpace {
        nodes: vec!["7nm".to_string()],
        areas_mm2: (1..=10).map(|i| f64::from(i) * 90.0).collect(),
        quantities: (1..=16).map(|i| i * 750_000).collect(),
        integrations: IntegrationKind::ALL.to_vec(),
        chiplet_counts: vec![1, 2, 3, 4],
        flows: vec![AssemblyFlow::ChipLast],
        schemes: vec![ReuseScheme::None, ReuseScheme::Scms],
        ..PortfolioSpace::default()
    }
}

fn area_strides(stride: usize) -> RefineOptions {
    RefineOptions {
        area_stride: stride,
        quantity_stride: 0,
    }
}

#[test]
fn refined_portfolio_matches_exhaustion_across_strides_and_threads() {
    let lib = lib();
    let space = reference_space();
    let exhaustive = explore_portfolio(&lib, &space, 1).unwrap();
    for (stride, threads) in [(4, 1), (4, 4), (8, 1), (8, 4)] {
        let refined =
            explore_portfolio_refined_with(&lib, &space, threads, area_strides(stride)).unwrap();
        assert_eq!(refined.len(), exhaustive.len());
        assert_eq!(
            refined.winners_artifact().csv(),
            exhaustive.winners_artifact().csv(),
            "stride={stride} threads={threads}: winner tables must be byte-identical"
        );
        assert_eq!(
            refined.pareto_artifact().csv(),
            exhaustive.pareto_artifact().csv(),
            "stride={stride} threads={threads}: per-unit fronts must be byte-identical"
        );
        assert_eq!(
            refined.pareto_program_artifact().csv(),
            exhaustive.pareto_program_artifact().csv(),
            "stride={stride} threads={threads}: program fronts must be byte-identical"
        );
        assert_eq!(
            refined.feasible_count()
                + refined.infeasible_count()
                + refined.incompatible_count()
                + refined.pruned_count(),
            refined.len(),
            "stride={stride} threads={threads}: no cell may be silently dropped"
        );
        // Refinement must visit strictly fewer cells than exhaustion.
        // (Core-evaluation counts can exceed cached exhaustion on grids
        // this small — each refinement pass re-derives the cores it
        // touches — so the ≥10× evaluation reduction is pinned by the
        // 10⁷-cell benchmark, not here.)
        assert!(
            refined.len() - refined.pruned_count() < exhaustive.len(),
            "stride={stride} threads={threads}: refinement must actually skip cells"
        );
    }
}

#[test]
fn quantity_refined_portfolio_matches_exhaustion_across_strides_and_threads() {
    let lib = lib();
    let space = quantity_swept_space();
    let exhaustive = explore_portfolio(&lib, &space, 1).unwrap();
    for (quantity_stride, threads) in [(4, 1), (4, 4), (8, 1), (8, 4)] {
        let options = RefineOptions {
            area_stride: 4,
            quantity_stride,
        };
        let refined = explore_portfolio_refined_with(&lib, &space, threads, options).unwrap();
        assert_eq!(
            refined.winners_artifact().csv(),
            exhaustive.winners_artifact().csv(),
            "quantity_stride={quantity_stride} threads={threads}: winner tables must match"
        );
        assert_eq!(
            refined.pareto_artifact().csv(),
            exhaustive.pareto_artifact().csv(),
            "quantity_stride={quantity_stride} threads={threads}: per-unit fronts must match"
        );
        assert_eq!(
            refined.pareto_program_artifact().csv(),
            exhaustive.pareto_program_artifact().csv(),
            "quantity_stride={quantity_stride} threads={threads}: program fronts must match"
        );
        assert!(
            refined.pruned_count() > 0,
            "quantity_stride={quantity_stride} threads={threads}: 2-D refinement must prune"
        );
        assert_eq!(
            refined.feasible_count()
                + refined.infeasible_count()
                + refined.incompatible_count()
                + refined.pruned_count(),
            refined.len(),
            "quantity_stride={quantity_stride} threads={threads}: no cell silently dropped"
        );
    }
}

#[test]
fn refined_decisions_do_not_depend_on_the_thread_count() {
    let lib = lib();
    let space = reference_space();
    let serial = explore_portfolio_refined_with(&lib, &space, 1, area_strides(8)).unwrap();
    let parallel = explore_portfolio_refined_with(&lib, &space, 4, area_strides(8)).unwrap();
    // Not just the headline tables: the entire evaluated/pruned cell set
    // and the evaluation count must be identical, or refinement decisions
    // leaked a dependence on work scheduling.
    assert_eq!(serial.grid_artifact().csv(), parallel.grid_artifact().csv());
    assert_eq!(serial.pruned_count(), parallel.pruned_count());
    assert_eq!(serial.core_evaluations(), parallel.core_evaluations());
}

/// The first swept quantity at which the scheme-free winner is the MCM —
/// the §4.2 "reuse payback" point the crossover scenario plots.
fn mcm_crossover_quantity(result: &PortfolioResult) -> Option<u64> {
    result
        .winners(ReuseScheme::None)
        .into_iter()
        .find(|w| matches!(&w.best, Some((c, _)) if c.integration == IntegrationKind::Mcm))
        .map(|w| w.quantity)
}

#[test]
fn two_d_refinement_finds_the_crossover_quantity_of_the_committed_scenario() {
    // Anchor the quantity axis to the committed §4.2 scenario rather than
    // an ad-hoc grid: read crossover.toml's sweep and grid the same
    // (node, area, quantities) with SoC vs the 2-chiplet MCM.
    let path = format!(
        "{}/examples/scenarios/crossover.toml",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let scenario = Scenario::from_toml(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let sweep = scenario
        .jobs
        .iter()
        .find_map(|j| match j {
            Job::Sweep(s) => Some(s),
            _ => None,
        })
        .expect("crossover.toml carries the §4.2 sweep job");
    let SweepAxis::Quantity {
        area_mm2,
        quantities,
    } = &sweep.axis
    else {
        panic!("the crossover sweep is quantity-swept");
    };

    let space = PortfolioSpace {
        nodes: vec![sweep.node.clone()],
        areas_mm2: vec![*area_mm2],
        quantities: quantities.clone(),
        integrations: vec![IntegrationKind::Soc, IntegrationKind::Mcm],
        chiplet_counts: vec![1, sweep.chiplets],
        flows: vec![sweep.flow],
        schemes: vec![ReuseScheme::None],
        ..PortfolioSpace::default()
    };
    let exhaustive = explore_portfolio(&lib(), &space, 1).unwrap();
    let refined = explore_portfolio_refined_with(
        &lib(),
        &space,
        1,
        RefineOptions {
            area_stride: 1,
            quantity_stride: 4,
        },
    )
    .unwrap();

    let anchor = mcm_crossover_quantity(&exhaustive)
        .expect("§4.2: the MCM must undercut the SoC at some swept quantity");
    // The §4.2 shape: the SoC wins the low-volume end (its single mask
    // set amortizes first), so the crossover sits strictly inside the
    // sweep.
    assert!(anchor > quantities[0], "the SoC must win at low volume");
    assert_eq!(
        mcm_crossover_quantity(&refined),
        Some(anchor),
        "2-D refinement must find the same MCM-under-SoC crossover quantity as exhaustion"
    );
    assert_eq!(
        refined.winners_artifact().csv(),
        exhaustive.winners_artifact().csv()
    );
}

#[test]
fn single_system_refinement_matches_explore_through_the_facade() {
    let lib = lib();
    let space = PortfolioSpace {
        nodes: vec!["7nm".to_string(), "5nm".to_string()],
        areas_mm2: (1..=30).map(|i| f64::from(i) * 40.0).collect(),
        quantities: vec![500_000, 10_000_000],
        integrations: IntegrationKind::ALL.to_vec(),
        chiplet_counts: vec![1, 2, 3, 4, 5],
        flows: vec![AssemblyFlow::ChipLast],
        schemes: vec![ReuseScheme::None],
        ..PortfolioSpace::default()
    };
    let exhaustive = explore_portfolio(&lib, &space, 2).unwrap();
    let refined =
        explore_portfolio_refined_with(&lib, &space, 2, RefineOptions::default()).unwrap();
    assert_eq!(
        refined.winners_artifact().csv(),
        exhaustive.winners_artifact().csv()
    );
    assert_eq!(
        refined.pareto_artifact().csv(),
        exhaustive.pareto_artifact().csv()
    );
    assert_eq!(
        refined.pareto_program_artifact().csv(),
        exhaustive.pareto_program_artifact().csv()
    );
}

#[test]
fn explore_mode_parses_the_scenario_spelling() {
    assert_eq!("refine".parse::<ExploreMode>(), Ok(ExploreMode::Refine));
    assert_eq!(
        "EXHAUSTIVE".parse::<ExploreMode>(),
        Ok(ExploreMode::Exhaustive)
    );
    assert!("adaptive".parse::<ExploreMode>().is_err());
}
