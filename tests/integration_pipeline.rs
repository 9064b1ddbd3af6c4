//! End-to-end pipeline tests: custom technology definition → architecture →
//! analytic cost → Monte-Carlo agreement → DSE, all through the facade.

use chiplet_actuary::dse::crossover::{find_area_crossover, find_quantity_payback};
use chiplet_actuary::dse::portfolio::{explore_portfolio, PortfolioSpace, ReuseScheme};
use chiplet_actuary::mc::{simulate_system, DefectProcess, McConfig};
use chiplet_actuary::prelude::*;
use chiplet_actuary::tech::D2dSpec;

/// Builds a miniature custom library (one node, SoC + MCM) from scratch —
/// nothing taken from the presets.
fn custom_library() -> TechLibrary {
    let mut lib = TechLibrary::new();
    lib.insert_node(
        ProcessNode::builder("test-node")
            .defect_density(0.10)
            .cluster(8.0)
            .wafer_price(Money::from_usd(8_000.0).unwrap())
            .k_module(Money::from_usd(400_000.0).unwrap())
            .k_chip(Money::from_usd(250_000.0).unwrap())
            .mask_set(Money::from_musd(8.0).unwrap())
            .ip_license(Money::from_musd(2.0).unwrap())
            .relative_density(2.0)
            .d2d(D2dSpec::new(0.08, Money::from_musd(7.0).unwrap()).unwrap())
            .build()
            .unwrap(),
    );
    lib.insert_packaging(
        PackagingTech::builder(IntegrationKind::Soc)
            .substrate_cost_per_mm2(Money::from_usd(0.004).unwrap())
            .package_body_factor(3.5)
            .chip_bond_yield(Prob::new(0.995).unwrap())
            .package_test_yield(Prob::new(0.99).unwrap())
            .bond_cost_per_chip(Money::from_usd(0.4).unwrap())
            .assembly_cost(Money::from_usd(4.0).unwrap())
            .k_package_per_mm2(Money::from_usd(4_000.0).unwrap())
            .fixed_package_nre(Money::from_musd(1.5).unwrap())
            .build()
            .unwrap(),
    );
    lib.insert_packaging(
        PackagingTech::builder(IntegrationKind::Mcm)
            .substrate_cost_per_mm2(Money::from_usd(0.004).unwrap())
            .substrate_layer_factor(1.8)
            .package_body_factor(3.5)
            .chip_bond_yield(Prob::new(0.99).unwrap())
            .package_test_yield(Prob::new(0.99).unwrap())
            .bond_cost_per_chip(Money::from_usd(0.4).unwrap())
            .assembly_cost(Money::from_usd(4.0).unwrap())
            .k_package_per_mm2(Money::from_usd(6_000.0).unwrap())
            .fixed_package_nre(Money::from_musd(2.0).unwrap())
            .build()
            .unwrap(),
    );
    lib
}

#[test]
fn custom_library_runs_the_whole_stack() {
    let lib = custom_library();
    let node = lib.node("test-node").unwrap();

    // Analytic RE on the custom node.
    let module_area = Area::from_mm2(500.0).unwrap();
    let soc = re_cost(
        &[DiePlacement::new(node, module_area, 1)],
        lib.packaging(IntegrationKind::Soc).unwrap(),
        AssemblyFlow::ChipLast,
    )
    .unwrap();
    let die = node.d2d().inflate_module_area(module_area / 2.0).unwrap();
    let mcm = re_cost(
        &[DiePlacement::new(node, die, 2)],
        lib.packaging(IntegrationKind::Mcm).unwrap(),
        AssemblyFlow::ChipLast,
    )
    .unwrap();
    assert!(soc.is_non_negative() && mcm.is_non_negative());
    assert!(
        mcm.total() < soc.total(),
        "500 mm² at D=0.10 should favour two chiplets: {} vs {}",
        mcm.total(),
        soc.total()
    );

    // Portfolio NRE on the custom node.
    let chip = Chip::chiplet(
        "custom-chip",
        "test-node",
        vec![Module::new("custom-m", "test-node", module_area / 2.0)],
    );
    let system = System::builder("custom-sys", IntegrationKind::Mcm)
        .chip(chip, 2)
        .quantity(Quantity::new(1_000_000))
        .build()
        .unwrap();
    let cost = Portfolio::new(vec![system.clone()])
        .cost(&lib, AssemblyFlow::ChipLast)
        .unwrap();
    assert!(cost.nre_total().total().usd() > 0.0);
    assert_eq!(cost.nre_total().d2d, Money::from_musd(7.0).unwrap());

    // Monte-Carlo agreement on the custom node.
    let cfg = McConfig {
        systems: 4_000,
        seed: 11,
        defect_process: DefectProcess::Bernoulli,
    };
    let mc = simulate_system(&system, &lib, AssemblyFlow::ChipLast, &cfg).unwrap();
    assert!(
        mc.agrees_with(mcm.total(), 4.0),
        "MC {mc} vs analytic {}",
        mcm.total()
    );

    // DSE on the custom node: a one-point exploration.
    let space = PortfolioSpace {
        nodes: vec!["test-node".to_string()],
        areas_mm2: vec![module_area.mm2()],
        quantities: vec![20_000_000],
        integrations: vec![IntegrationKind::Soc, IntegrationKind::Mcm],
        chiplet_counts: vec![1, 2, 3],
        schemes: vec![ReuseScheme::None],
        ..PortfolioSpace::default()
    };
    let winner = explore_portfolio(&lib, &space, 1)
        .unwrap()
        .winners(ReuseScheme::None)
        .remove(0);
    assert!(
        winner.best.as_ref().is_some_and(|(c, _)| c.chiplets >= 2),
        "high volume on a leaky node must split: {winner}"
    );
}

#[test]
fn area_crossover_exists_and_is_reasonable_at_5nm() {
    let lib = TechLibrary::paper_defaults().unwrap();
    let node = lib.node("5nm").unwrap();
    let soc_pkg = lib.packaging(IntegrationKind::Soc).unwrap();
    let mcm_pkg = lib.packaging(IntegrationKind::Mcm).unwrap();
    let crossover = find_area_crossover(
        |area| {
            let soc = re_cost(
                &[DiePlacement::new(node, area, 1)],
                soc_pkg,
                AssemblyFlow::ChipLast,
            )?;
            let die = node.d2d().inflate_module_area(area / 2.0)?;
            let mcm = re_cost(
                &[DiePlacement::new(node, die, 2)],
                mcm_pkg,
                AssemblyFlow::ChipLast,
            )?;
            Ok(mcm.total().usd() - soc.total().usd())
        },
        50.0,
        900.0,
        0.5,
    )
    .unwrap()
    .expect("a 5 nm crossover must exist between 50 and 900 mm²");
    // The paper's Figure 4: the 5 nm turning point is small (well before
    // mid-range areas).
    assert!(
        crossover.mm2() < 500.0,
        "5 nm crossover at {crossover} is implausibly late"
    );
}

#[test]
fn quantity_payback_for_5nm_mcm_is_near_two_million() {
    let lib = TechLibrary::paper_defaults().unwrap();
    let module_area = Area::from_mm2(800.0).unwrap();
    let per_unit = |kind: IntegrationKind,
                    n: u32,
                    q: Quantity|
     -> Result<f64, chiplet_actuary::arch::ArchError> {
        let chips = partition::equal_chiplets("pp", "5nm", module_area, n)?;
        let mut builder = System::builder("pp-sys", kind).quantity(q);
        for chip in chips {
            builder = builder.chip(chip, 1);
        }
        let cost = Portfolio::new(vec![builder.build()?]).cost(&lib, AssemblyFlow::ChipLast)?;
        Ok(cost.systems()[0].per_unit_total().usd())
    };
    let payback = find_quantity_payback(
        |q| Ok(per_unit(IntegrationKind::Mcm, 2, q)? - per_unit(IntegrationKind::Soc, 1, q)?),
        Quantity::new(100_000),
        Quantity::new(50_000_000),
    )
    .unwrap()
    .expect("the 5 nm 800 mm² MCM must pay back at some quantity");
    // §4.2: "when the quantity reaches two million, multi-chip architecture
    // starts to pay back" — accept a broad band around 2 M.
    assert!(
        (300_000..=4_000_000).contains(&payback.count()),
        "payback at {payback} is out of the paper's band"
    );
}

#[test]
fn reticle_forces_multi_chip_beyond_858mm2() {
    let reticle = Reticle::standard();
    let too_big = Area::from_mm2(1_000.0).unwrap();
    assert!(reticle.check_area(too_big).is_err());
    // Two chiplets of 500 mm² each fit fine.
    let half = Area::from_mm2(500.0).unwrap();
    assert!(reticle.check_area(half).is_ok());
}

#[test]
fn chip_first_vs_chip_last_matches_paper_preference() {
    // §3.2: "chip-last packaging is the priority selection for multi-chip
    // systems" — verified across all advanced packaging kinds and sizes.
    let lib = TechLibrary::paper_defaults().unwrap();
    let node = lib.node("7nm").unwrap();
    for kind in [IntegrationKind::Info, IntegrationKind::TwoPointFiveD] {
        let packaging = lib.packaging(kind).unwrap();
        for mm2 in [100.0, 300.0, 500.0] {
            for n in [2u32, 4] {
                let dies = [DiePlacement::new(node, Area::from_mm2(mm2).unwrap(), n)];
                let last = re_cost(&dies, packaging, AssemblyFlow::ChipLast).unwrap();
                let first = re_cost(&dies, packaging, AssemblyFlow::ChipFirst).unwrap();
                assert!(
                    last.total() <= first.total(),
                    "{kind} {mm2}mm² ×{n}: chip-last must win"
                );
            }
        }
    }
}
