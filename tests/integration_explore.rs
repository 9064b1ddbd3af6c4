//! Integration tests of the multi-axis exploration engine's single-system
//! slice (the `none` reuse scheme under one flow) against the full model
//! stack: the parallel grid must agree with the serial grid byte for byte,
//! with one-point explorations, and with the paper's §6 shape.

use chiplet_actuary::dse::explore::CellOutcome;
use chiplet_actuary::dse::portfolio::{explore_portfolio, PortfolioSpace, ReuseScheme};
use chiplet_actuary::prelude::*;

fn lib() -> TechLibrary {
    TechLibrary::paper_defaults().unwrap()
}

/// The fixed grid the determinism tests run on: two nodes, five areas
/// from 150 mm² past the 900 mm² Figure 4 ceiling to 1,200 mm², two
/// quantities, 1–9 chiplets — 720 cells of mixed feasibility.
fn fixed_space() -> PortfolioSpace {
    PortfolioSpace {
        nodes: vec!["14nm".to_string(), "5nm".to_string()],
        areas_mm2: vec![150.0, 300.0, 600.0, 900.0, 1_200.0],
        quantities: vec![500_000, 10_000_000],
        integrations: IntegrationKind::ALL.to_vec(),
        chiplet_counts: vec![1, 2, 3, 4, 5, 6, 7, 8, 9],
        flows: vec![AssemblyFlow::ChipLast],
        schemes: vec![ReuseScheme::None],
        ..PortfolioSpace::default()
    }
}

#[test]
fn serial_and_parallel_exploration_agree_on_a_fixed_grid() {
    let lib = lib();
    let space = fixed_space();
    assert_eq!(space.len(), 2 * 5 * 2 * 4 * 9);
    let serial = explore_portfolio(&lib, &space, 1).unwrap();
    assert_eq!(serial.threads(), 1);
    for threads in [2, 3, 8] {
        let parallel = explore_portfolio(&lib, &space, threads).unwrap();
        assert_eq!(serial.cells(), parallel.cells(), "threads={threads}");
        assert_eq!(
            serial.grid_artifact().csv(),
            parallel.grid_artifact().csv(),
            "threads={threads}: the CSV must be byte-identical"
        );
        assert_eq!(
            serial.winners_artifact().csv(),
            parallel.winners_artifact().csv()
        );
    }
    // threads = 0 resolves to the machine's parallelism and still agrees.
    let auto = explore_portfolio(&lib, &space, 0).unwrap();
    assert!(auto.threads() >= 1);
    assert_eq!(serial.grid_artifact().csv(), auto.grid_artifact().csv());
}

#[test]
fn every_cell_is_accounted_for() {
    let result = explore_portfolio(&lib(), &fixed_space(), 4).unwrap();
    assert_eq!(result.len(), fixed_space().len());
    assert_eq!(
        result.feasible_count() + result.infeasible_count() + result.incompatible_count(),
        result.len(),
        "no cell may be silently dropped"
    );
    // The grid deliberately includes infeasible geometry (a 1,200 mm²
    // monolithic die at 14 nm exceeds no wafer, but 9-way 14nm splits of
    // 150 mm² produce dies below the engine's floor, and SoC × >1 cells
    // are incompatible) — all of it must be recorded with a reason.
    assert!(result.incompatible_count() > 0);
    for cell in result.cells() {
        match &cell.outcome {
            CellOutcome::Feasible(c) => assert!(c.per_unit.usd() > 0.0),
            CellOutcome::Infeasible(reason) => assert!(!reason.is_empty()),
            CellOutcome::Incompatible(reason) => {
                assert!(!reason.to_string().is_empty())
            }
            CellOutcome::Pruned => panic!("exhaustive exploration never prunes"),
        }
    }
}

#[test]
fn grid_winners_match_the_single_point_optimizer() {
    let lib = lib();
    let space = PortfolioSpace {
        nodes: vec!["7nm".to_string(), "5nm".to_string()],
        areas_mm2: vec![400.0, 800.0],
        quantities: vec![2_000_000, 10_000_000],
        chiplet_counts: vec![1, 2, 3, 4, 5],
        ..fixed_space()
    };
    let result = explore_portfolio(&lib, &space, 2).unwrap();
    for w in result.winners(ReuseScheme::None) {
        // The operating point alone: the `partition` command's grid.
        let point = PortfolioSpace {
            nodes: vec![w.node.clone()],
            areas_mm2: vec![w.area_mm2],
            quantities: vec![w.quantity],
            ..space.clone()
        };
        let alone = explore_portfolio(&lib, &point, 1)
            .unwrap()
            .winners(ReuseScheme::None)
            .remove(0);
        assert!(w.best.is_some(), "these operating points cost fine");
        assert_eq!(w, alone, "{}/{}/{}", w.node, w.area_mm2, w.quantity);
    }
}

#[test]
fn the_grid_reproduces_the_section_6_takeaways() {
    // §6 at grid scale: small cheap-node low-volume systems stay
    // monolithic; huge advanced-node high-volume systems split.
    let result = explore_portfolio(
        &lib(),
        &PortfolioSpace {
            areas_mm2: vec![150.0, 800.0],
            quantities: vec![100_000, 10_000_000],
            chiplet_counts: vec![1, 2, 3, 4, 5],
            ..fixed_space()
        },
        0,
    )
    .unwrap();
    let winners = result.winners(ReuseScheme::None);
    let winner_of = |node: &str, area: f64, quantity: u64| {
        winners
            .iter()
            .find(|w| w.node == node && w.area_mm2 == area && w.quantity == quantity)
            .and_then(|w| w.best.as_ref())
            .map(|(candidate, _flow)| candidate)
            .expect("operating point must have a winner")
    };
    let small = winner_of("14nm", 150.0, 100_000);
    assert_eq!(small.integration, IntegrationKind::Soc, "{small}");
    let big = winner_of("5nm", 800.0, 10_000_000);
    assert!(big.chiplets >= 2, "{big}");
}

#[test]
fn pareto_front_over_the_fixed_grid_is_non_dominated() {
    let result = explore_portfolio(&lib(), &fixed_space(), 4).unwrap();
    let front = result.pareto_front(ReuseScheme::None);
    assert!(!front.is_empty());
    for (i, a) in front.iter().enumerate() {
        let ca = a.outcome.candidate().unwrap();
        for b in front.iter().skip(i + 1) {
            let cb = b.outcome.candidate().unwrap();
            let a_dom = ca.per_unit <= cb.per_unit && a.chiplets <= b.chiplets;
            let b_dom = cb.per_unit <= ca.per_unit && b.chiplets <= a.chiplets;
            assert!(
                !(a_dom || b_dom),
                "front points must be mutually non-dominated"
            );
        }
    }
}
