//! Integration tests of the portfolio exploration engine against the full
//! model stack: determinism across thread counts, byte-identity of the
//! cached RE core against the evaluate-every-cell reference path, and —
//! the load-bearing part — agreement of the per-scheme grid cells and
//! winners with the `actuary-figures` Fig. 8/9/10 reproductions on their
//! exact operating points.

use chiplet_actuary::dse::portfolio::{
    explore_portfolio, explore_portfolio_with, CorePolicy, PortfolioSpace, ReuseScheme,
};
use chiplet_actuary::figures::{fig10, fig8, fig9};
use chiplet_actuary::prelude::reuse::{multiset_count, FsmcSpec, OcmeSpec, ScmsSpec};
use chiplet_actuary::prelude::*;

fn lib() -> TechLibrary {
    TechLibrary::paper_defaults().unwrap()
}

fn close(a: f64, b: f64, what: &str) {
    assert!(
        (a - b).abs() <= 1e-9 * b.abs().max(1.0),
        "{what}: grid {a} vs anchor {b}"
    );
}

#[test]
fn portfolio_grid_is_deterministic_across_thread_counts() {
    let lib = lib();
    let space = PortfolioSpace {
        nodes: vec!["14nm".to_string(), "7nm".to_string()],
        areas_mm2: vec![160.0, 400.0, 800.0],
        quantities: vec![500_000, 10_000_000],
        integrations: IntegrationKind::ALL.to_vec(),
        chiplet_counts: vec![1, 2, 3, 4, 5],
        flows: vec![AssemblyFlow::ChipLast, AssemblyFlow::ChipFirst],
        schemes: ReuseScheme::ALL.to_vec(),
        ..PortfolioSpace::default()
    };
    let serial = explore_portfolio(&lib, &space, 1).unwrap();
    assert_eq!(serial.len(), space.len());
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
    let auto = explore_portfolio(&lib, &space, 0).unwrap();
    assert_eq!(serial.grid_artifact().csv(), auto.grid_artifact().csv());
}

#[test]
fn cached_core_is_byte_identical_and_at_least_halves_the_evaluations() {
    // The acceptance bar of the RE-core cache, asserted with the engine's
    // own evaluation counter on both default grids.
    let lib = lib();

    let single = PortfolioSpace {
        schemes: vec![ReuseScheme::None],
        ..PortfolioSpace::default()
    };
    let cached = explore_portfolio_with(&lib, &single, 4, CorePolicy::Cached).unwrap();
    let uncached = explore_portfolio_with(&lib, &single, 4, CorePolicy::Uncached).unwrap();
    assert_eq!(cached.cells(), uncached.cells());
    assert_eq!(cached.grid_artifact().csv(), uncached.grid_artifact().csv());
    assert_eq!(
        cached.winners_artifact().csv(),
        uncached.winners_artifact().csv()
    );
    assert!(
        cached.core_evaluations() * 2 <= uncached.core_evaluations(),
        "single-system grid: {} cached vs {} uncached evaluations",
        cached.core_evaluations(),
        uncached.core_evaluations()
    );
    // The quantity axis has 3 points and nothing else varies per core, so
    // the reduction is exactly 3x on the default grid.
    assert_eq!(cached.core_evaluations() * 3, uncached.core_evaluations());

    let portfolio = PortfolioSpace::default();
    let cached = explore_portfolio_with(&lib, &portfolio, 4, CorePolicy::Cached).unwrap();
    let uncached = explore_portfolio_with(&lib, &portfolio, 4, CorePolicy::Uncached).unwrap();
    assert_eq!(cached.cells(), uncached.cells());
    assert_eq!(cached.grid_artifact().csv(), uncached.grid_artifact().csv());
    assert!(
        cached.core_evaluations() * 2 <= uncached.core_evaluations(),
        "portfolio grid: {} cached vs {} uncached evaluations",
        cached.core_evaluations(),
        uncached.core_evaluations()
    );
}

/// The SCMS anchor grid: member areas 200·m so every cell's chiplet module
/// area is the paper's 200 mm² (7 nm, 500 k units, Figure 8's config).
fn scms_anchor_grid(lib: &TechLibrary) -> chiplet_actuary::dse::portfolio::PortfolioResult {
    let space = PortfolioSpace {
        nodes: vec!["7nm".to_string()],
        areas_mm2: vec![200.0, 400.0, 800.0],
        quantities: vec![500_000],
        integrations: vec![IntegrationKind::Soc, IntegrationKind::Mcm],
        chiplet_counts: vec![1, 2, 4],
        flows: vec![AssemblyFlow::ChipLast],
        schemes: vec![ReuseScheme::Scms],
        ..PortfolioSpace::default()
    };
    explore_portfolio(lib, &space, 2).unwrap()
}

#[test]
fn scms_grid_cells_match_the_fig8_anchors() {
    let lib = lib();
    let result = scms_anchor_grid(&lib);
    let fig = fig8::compute(&lib).unwrap();
    // Figure 8 normalizes to the RE of the 4X MCM system; reconstruct the
    // basis from the same spec the figure module uses.
    let basis = ScmsSpec::paper_example()
        .unwrap()
        .portfolio()
        .unwrap()
        .cost(&lib, AssemblyFlow::ChipLast)
        .unwrap()
        .system("4X")
        .unwrap()
        .re()
        .total()
        .usd();

    let cells = result.cells();
    for m in [1u32, 2, 4] {
        let area = 200.0 * f64::from(m);
        let grid = |integration: IntegrationKind| {
            cells
                .iter()
                .find(|c| c.area_mm2 == area && c.chiplets == m && c.integration == integration)
                .and_then(|c| c.outcome.candidate())
                .unwrap_or_else(|| panic!("{m}X {integration} cell must be feasible"))
        };
        let mcm = fig.cell(m, fig8::Fig8Variant::Mcm).unwrap();
        close(
            grid(IntegrationKind::Mcm).per_unit.usd(),
            mcm.total() * basis,
            &format!("{m}X MCM total"),
        );
        close(
            grid(IntegrationKind::Mcm).re_per_unit.usd(),
            mcm.re_norm * basis,
            &format!("{m}X MCM RE"),
        );
        let soc = fig.cell(m, fig8::Fig8Variant::Soc).unwrap();
        close(
            grid(IntegrationKind::Soc).per_unit.usd(),
            soc.total() * basis,
            &format!("{m}X SoC total"),
        );
    }
}

#[test]
fn scms_winners_reproduce_the_fig8_takeaway() {
    // §5.1 at grid scale: with the chiplet design shared across 1X/2X/4X,
    // the multi-chip build beats the monolithic implementation of the same
    // system, and the advantage grows with multiplicity.
    let lib = lib();
    let result = scms_anchor_grid(&lib);
    let winners = result.winners(ReuseScheme::Scms);
    assert_eq!(winners.len(), 3);
    let mut savings = Vec::new();
    for w in &winners {
        let (best, _) = w.best.as_ref().expect("anchor grid is feasible");
        assert_eq!(best.integration, IntegrationKind::Mcm, "{w}");
        let saving = w.saving_vs_soc_frac.expect("SoC baseline is on the grid");
        assert!(saving > 0.0, "{w}");
        savings.push((w.area_mm2, saving));
    }
    savings.sort_by(|a, b| a.0.total_cmp(&b.0));
    assert!(
        savings[2].1 > savings[0].1,
        "the 4X member must save more than the 1X member: {savings:?}"
    );
}

#[test]
fn ocme_grid_cells_match_the_fig9_anchors() {
    let lib = lib();
    let space = PortfolioSpace {
        nodes: vec!["7nm".to_string()],
        areas_mm2: vec![160.0, 320.0, 480.0, 800.0],
        quantities: vec![500_000],
        integrations: vec![IntegrationKind::Soc, IntegrationKind::Mcm],
        chiplet_counts: vec![1, 2, 3, 5],
        flows: vec![AssemblyFlow::ChipLast],
        schemes: vec![ReuseScheme::Ocme],
        ..PortfolioSpace::default()
    };
    let result = explore_portfolio(&lib, &space, 2).unwrap();
    let fig = fig9::compute(&lib).unwrap();
    let basis = OcmeSpec::paper_example()
        .unwrap()
        .portfolio()
        .unwrap()
        .cost(&lib, AssemblyFlow::ChipLast)
        .unwrap()
        .system("C+2X+2Y")
        .unwrap()
        .re()
        .total()
        .usd();

    let cells = result.cells();
    for (chips, name) in [(1u32, "C"), (2, "C+1X"), (3, "C+1X+1Y"), (5, "C+2X+2Y")] {
        let area = 160.0 * f64::from(chips);
        let grid = |integration: IntegrationKind| {
            cells
                .iter()
                .find(|c| c.area_mm2 == area && c.chiplets == chips && c.integration == integration)
                .and_then(|c| c.outcome.candidate())
                .unwrap_or_else(|| panic!("{name} {integration} cell must be feasible"))
        };
        let mcm = fig.cell(name, fig9::Fig9Variant::Mcm).unwrap();
        close(
            grid(IntegrationKind::Mcm).per_unit.usd(),
            mcm.total() * basis,
            &format!("{name} MCM total"),
        );
        let soc = fig.cell(name, fig9::Fig9Variant::Soc).unwrap();
        close(
            grid(IntegrationKind::Soc).per_unit.usd(),
            soc.total() * basis,
            &format!("{name} SoC total"),
        );
    }
}

#[test]
fn fsmc_grid_cells_reconstruct_the_fig10_average() {
    // Figure 10 reports the *average* normalized cost over every
    // collocation of (k=4, n=4). Same-size collocations cost the same
    // (identical footprints, symmetric usage weights), so the grid's four
    // size cells weighted by the multiset counts must reconstruct the
    // figure's average exactly.
    let lib = lib();
    let space = PortfolioSpace {
        nodes: vec!["7nm".to_string()],
        areas_mm2: vec![160.0, 320.0, 480.0, 640.0],
        quantities: vec![500_000],
        integrations: vec![IntegrationKind::Mcm],
        chiplet_counts: vec![1, 2, 3, 4],
        flows: vec![AssemblyFlow::ChipLast],
        schemes: vec![ReuseScheme::Fsmc],
        ..PortfolioSpace::default()
    };
    let result = explore_portfolio(&lib, &space, 2).unwrap();

    // First: every size cell must equal the directly-costed `sA` member.
    let direct = FsmcSpec::paper_example(4, 4)
        .unwrap()
        .portfolio()
        .unwrap()
        .cost(&lib, AssemblyFlow::ChipLast)
        .unwrap();
    let cells = result.cells();
    let mut weighted = 0.0;
    let mut weight = 0.0;
    for s in [1u32, 2, 3, 4] {
        let area = 160.0 * f64::from(s);
        let cell = cells
            .iter()
            .find(|c| c.area_mm2 == area && c.chiplets == s)
            .and_then(|c| c.outcome.candidate())
            .unwrap_or_else(|| panic!("size-{s} cell must be feasible"));
        let label = format!("{s}A");
        let member = direct.system(&label).unwrap();
        close(
            cell.per_unit.usd(),
            member.per_unit_total().usd(),
            &format!("size-{s} member"),
        );
        let count = multiset_count(4, s) as f64;
        weighted += cell.per_unit.usd() * count;
        weight += count;
    }

    // Second: the count-weighted grid cells reconstruct the figure's bar.
    let fig = fig10::compute(&lib).unwrap();
    let first_soc = FsmcSpec::paper_example(2, 2)
        .unwrap()
        .soc_portfolio()
        .unwrap()
        .cost(&lib, AssemblyFlow::ChipLast)
        .unwrap();
    let basis = first_soc.average_per_unit().usd();
    let bar = fig.cell(4, 4, IntegrationKind::Mcm).unwrap();
    let grid_average = weighted / weight;
    assert!(
        (grid_average - bar.total() * basis).abs() <= 1e-6 * basis,
        "grid average {grid_average} vs Figure 10 bar {}",
        bar.total() * basis
    );
}

#[test]
fn fsmc_situation_axis_reproduces_all_five_fig10_bars() {
    // ROADMAP follow-up closed by this PR: the (k, n) situations are a
    // grid axis, so ONE exploration run sweeps Figure 10's x-axis. Every
    // situation's bar is reconstructed from its size cells weighted by the
    // multiset counts and pinned against the figure to 1e-9.
    let lib = lib();
    let space = PortfolioSpace {
        nodes: vec!["7nm".to_string()],
        areas_mm2: vec![160.0, 320.0, 480.0, 640.0],
        quantities: vec![500_000],
        integrations: vec![
            IntegrationKind::Soc,
            IntegrationKind::Mcm,
            IntegrationKind::TwoPointFiveD,
        ],
        chiplet_counts: vec![1, 2, 3, 4],
        flows: vec![AssemblyFlow::ChipLast],
        schemes: vec![ReuseScheme::Fsmc],
        fsmc_situations: PortfolioSpace::FSMC_PAPER_SITUATIONS.to_vec(),
        ..PortfolioSpace::default()
    };
    assert_eq!(space.scheme_variants().len(), 5);
    let result = explore_portfolio(&lib, &space, 2).unwrap();
    let cells = result.cells();
    let fig = fig10::compute(&lib).unwrap();
    let first_soc = FsmcSpec::paper_example(2, 2)
        .unwrap()
        .soc_portfolio()
        .unwrap()
        .cost(&lib, AssemblyFlow::ChipLast)
        .unwrap();
    let basis = first_soc.average_per_unit().usd();

    for (k, n) in fig10::SITUATIONS {
        let params = format!("k={k},n={n}");
        for kind in [
            IntegrationKind::Soc,
            IntegrationKind::Mcm,
            IntegrationKind::TwoPointFiveD,
        ] {
            let mut weighted = 0.0;
            let mut weight = 0.0;
            for size in 1..=k {
                let area = 160.0 * f64::from(size);
                let cell = cells
                    .iter()
                    .find(|c| {
                        c.area_mm2 == area
                            && c.chiplets == size
                            && c.integration == kind
                            && c.scheme_params == params
                    })
                    .and_then(|c| c.outcome.candidate())
                    .unwrap_or_else(|| panic!("({k},{n}) {kind} size-{size} must be feasible"));
                let count = multiset_count(n, size) as f64;
                weighted += cell.per_unit.usd() * count;
                weight += count;
            }
            let bar = fig.cell(k, n, kind).unwrap();
            let anchor = bar.total() * basis;
            let grid_average = weighted / weight;
            assert!(
                (grid_average - anchor).abs() <= 1e-6 * basis,
                "(k={k},n={n}) {kind}: grid average {grid_average} vs Figure 10 bar {anchor}"
            );
        }
        // Oversized collocations of this situation are incompatible cells.
        for size in (k + 1)..=4 {
            let cell = cells
                .iter()
                .find(|c| {
                    c.chiplets == size
                        && c.scheme_params == params
                        && c.integration == IntegrationKind::Mcm
                        && c.area_mm2 == 160.0 * f64::from(size)
                })
                .unwrap();
            assert!(
                matches!(
                    cell.outcome,
                    chiplet_actuary::dse::explore::CellOutcome::Incompatible(_)
                ),
                "size {size} must not fit a {k}-socket package"
            );
        }
    }
}

#[test]
fn ocme_center_axis_reproduces_the_fig9_hetero_bars() {
    // ROADMAP follow-up closed by this PR: the mature-node OCME centre is
    // a grid axis. With package reuse on, the homogeneous variant pins the
    // Figure 9 "MCM+pkg-reuse" bars and the 14nm-centre variant the
    // "hetero" bars, to 1e-9.
    let lib = lib();
    let space = PortfolioSpace {
        nodes: vec!["7nm".to_string()],
        areas_mm2: vec![160.0, 320.0, 480.0, 800.0],
        quantities: vec![500_000],
        integrations: vec![IntegrationKind::Mcm],
        chiplet_counts: vec![1, 2, 3, 5],
        flows: vec![AssemblyFlow::ChipLast],
        schemes: vec![ReuseScheme::Ocme],
        ocme_center_nodes: vec![None, Some("14nm".to_string())],
        package_reuse: true,
        ..PortfolioSpace::default()
    };
    let result = explore_portfolio(&lib, &space, 2).unwrap();
    let fig = fig9::compute(&lib).unwrap();
    let basis = OcmeSpec::paper_example()
        .unwrap()
        .portfolio()
        .unwrap()
        .cost(&lib, AssemblyFlow::ChipLast)
        .unwrap()
        .system("C+2X+2Y")
        .unwrap()
        .re()
        .total()
        .usd();

    let cells = result.cells();
    for (chips, name) in [(1u32, "C"), (2, "C+1X"), (3, "C+1X+1Y"), (5, "C+2X+2Y")] {
        let area = 160.0 * f64::from(chips);
        let grid = |params: &str| {
            cells
                .iter()
                .find(|c| c.area_mm2 == area && c.chiplets == chips && c.scheme_params == params)
                .and_then(|c| c.outcome.candidate())
                .unwrap_or_else(|| panic!("{name} ({params:?}) cell must be feasible"))
        };
        let homo = fig.cell(name, fig9::Fig9Variant::McmPackageReuse).unwrap();
        close(
            grid("").per_unit.usd(),
            homo.total() * basis,
            &format!("{name} pkg-reuse total"),
        );
        let hetero = fig
            .cell(name, fig9::Fig9Variant::McmPackageReuseHetero)
            .unwrap();
        close(
            grid("center=14nm").per_unit.usd(),
            hetero.total() * basis,
            &format!("{name} hetero total"),
        );
    }
}

#[test]
fn streaming_csv_matches_the_materialized_string() {
    let lib = lib();
    let space = PortfolioSpace {
        nodes: vec!["7nm".to_string()],
        areas_mm2: vec![400.0],
        quantities: vec![500_000],
        ..PortfolioSpace::default()
    };
    let result = explore_portfolio(&lib, &space, 1).unwrap();
    let mut streamed = String::new();
    result.grid_artifact().write_csv_to(&mut streamed).unwrap();
    assert_eq!(streamed, result.grid_artifact().csv());

    let single_space = PortfolioSpace {
        schemes: vec![ReuseScheme::None],
        ..PortfolioSpace::default()
    };
    let single = explore_portfolio(&lib, &single_space, 2).unwrap();
    let mut streamed = String::new();
    single.grid_artifact().write_csv_to(&mut streamed).unwrap();
    assert_eq!(streamed, single.grid_artifact().csv());
}

#[test]
fn program_pareto_point_matches_the_fig8_anchor() {
    // A one-cell SCMS grid at the Figure 8 operating point: the program
    // Pareto front must contain exactly that cell, and its program total
    // must be the figure-anchored per-unit cost times the quantity.
    let lib = lib();
    let space = PortfolioSpace {
        nodes: vec!["7nm".to_string()],
        areas_mm2: vec![400.0], // 2 chiplets × the paper's 200 mm² module
        quantities: vec![500_000],
        integrations: vec![IntegrationKind::Mcm],
        chiplet_counts: vec![2],
        flows: vec![AssemblyFlow::ChipLast],
        schemes: vec![ReuseScheme::Scms],
        ..PortfolioSpace::default()
    };
    let result = explore_portfolio(&lib, &space, 1).unwrap();
    let front = result.pareto_program(ReuseScheme::Scms);
    assert_eq!(front.len(), 1);
    let cell = &front[0];
    let candidate = cell.outcome.candidate().unwrap();

    // The anchor: the 2X member of the paper's SCMS MCM portfolio.
    let anchor = ScmsSpec::paper_example()
        .unwrap()
        .portfolio()
        .unwrap()
        .cost(&lib, AssemblyFlow::ChipLast)
        .unwrap()
        .system("2X")
        .unwrap()
        .per_unit_total()
        .usd();
    close(
        candidate.per_unit.usd(),
        anchor,
        "2X per-unit vs fig8 anchor",
    );
    close(
        candidate.per_unit.usd() * cell.quantity as f64,
        anchor * 500_000.0,
        "2X program total vs fig8 anchor",
    );
    // The artifact reports the same point.
    let csv = result.pareto_program_artifact().csv();
    assert_eq!(csv.lines().count(), 2, "{csv}");
    assert!(csv.lines().nth(1).unwrap().starts_with("scms,"), "{csv}");
}
