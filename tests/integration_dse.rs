//! Integration tests of the design-space-exploration layer against the
//! full model stack: the optimizer, the crossover finders, sensitivity and
//! the maturity ramp must tell one consistent story.

use chiplet_actuary::dse::crossover::find_area_crossover;
use chiplet_actuary::dse::maturity::{library_at_age, DefectRamp};
use chiplet_actuary::dse::optimizer::{candidate_core, Candidate};
use chiplet_actuary::dse::pareto::pareto_min_indices;
use chiplet_actuary::dse::portfolio::{explore_portfolio, PortfolioSpace, ReuseScheme};
use chiplet_actuary::dse::sensitivity::elasticity;
use chiplet_actuary::prelude::*;

fn lib() -> TechLibrary {
    TechLibrary::paper_defaults().unwrap()
}

/// Every feasible configuration of one operating point, cheapest first:
/// a one-point exploration of the SoC and `integrations` × `chiplets`
/// under chip-last.
fn one_point(
    lib: &TechLibrary,
    node: &str,
    area: Area,
    quantity: Quantity,
    integrations: &[IntegrationKind],
    chiplets: &[u32],
) -> Vec<Candidate> {
    let space = PortfolioSpace {
        nodes: vec![node.to_string()],
        areas_mm2: vec![area.mm2()],
        quantities: vec![quantity.count()],
        integrations: [&[IntegrationKind::Soc], integrations].concat(),
        chiplet_counts: [&[1], chiplets].concat(),
        schemes: vec![ReuseScheme::None],
        ..PortfolioSpace::default()
    };
    let result = explore_portfolio(lib, &space, 1).unwrap();
    let mut feasible: Vec<Candidate> = (result.feasible())
        .filter_map(|cell| cell.outcome.candidate().cloned())
        .collect();
    feasible.sort_by(|a, b| a.per_unit.usd().total_cmp(&b.per_unit.usd()));
    assert!(
        !feasible.is_empty(),
        "{node} / {area}: no feasible configuration"
    );
    feasible
}

/// The optimizer's RE-driven preference at huge volume must agree with the
/// explicit area-crossover finder: below the crossover the SoC wins, above
/// it the 2-chiplet MCM wins.
#[test]
fn optimizer_agrees_with_crossover_finder() {
    let lib = lib();
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
        1.0,
    )
    .unwrap()
    .expect("a 5 nm RE crossover exists");

    // Far below: RE-only comparison favours the SoC; far above: the MCM.
    let huge_quantity = Quantity::new(1_000_000_000); // NRE negligible
    let mcm = [IntegrationKind::Mcm];
    let below = one_point(
        &lib,
        "5nm",
        Area::from_mm2(crossover.mm2() * 0.5).unwrap(),
        huge_quantity,
        &mcm,
        &[2],
    )
    .remove(0);
    assert_eq!(
        below.integration,
        IntegrationKind::Soc,
        "below the crossover: {below}"
    );
    let above = one_point(
        &lib,
        "5nm",
        Area::from_mm2((crossover.mm2() * 2.0).min(900.0)).unwrap(),
        huge_quantity,
        &mcm,
        &[2],
    )
    .remove(0);
    assert_eq!(
        above.integration,
        IntegrationKind::Mcm,
        "above the crossover: {above}"
    );
}

/// Chiplets hedge yield risk: the elasticity of RE cost with respect to
/// defect density is markedly lower for the 2-chiplet MCM than for the
/// monolithic SoC at the same module area.
#[test]
fn chiplets_reduce_defect_density_elasticity() {
    let base = lib();
    let module_area = Area::from_mm2(800.0).unwrap();
    let cost_at = |d: f64, chiplets: u32| -> Result<f64, chiplet_actuary::arch::ArchError> {
        let snapshot = base.with_modified_node("5nm", |n| {
            ProcessNode::builder(n.id().clone())
                .defect_density(d)
                .cluster(n.cluster())
                .wafer_price(n.wafer_price())
                .k_module(n.nre().k_module)
                .k_chip(n.nre().k_chip)
                .mask_set(n.nre().mask_set)
                .ip_license(n.nre().ip_license)
                .relative_density(n.relative_density())
                .d2d(*n.d2d())
                .build()
        })?;
        let node = snapshot.node("5nm")?;
        let (placements, kind) = if chiplets > 1 {
            let die = node
                .d2d()
                .inflate_module_area(module_area / chiplets as f64)?;
            (
                vec![DiePlacement::new(node, die, chiplets)],
                IntegrationKind::Mcm,
            )
        } else {
            (
                vec![DiePlacement::new(node, module_area, 1)],
                IntegrationKind::Soc,
            )
        };
        Ok(re_cost(
            &placements,
            snapshot.packaging(kind)?,
            AssemblyFlow::ChipLast,
        )?
        .total()
        .usd())
    };
    let soc_elasticity = elasticity(0.11, 0.01, |d| cost_at(d, 1)).unwrap();
    let mcm_elasticity = elasticity(0.11, 0.01, |d| cost_at(d, 2)).unwrap();
    assert!(
        mcm_elasticity < 0.7 * soc_elasticity,
        "splitting must hedge defect risk: SoC {soc_elasticity:.3} vs MCM {mcm_elasticity:.3}"
    );
    assert!(
        soc_elasticity > 0.5,
        "a big 5 nm die must be yield-dominated"
    );
}

/// Process maturity flips the optimizer's decision: a 500 mm² 7 nm system
/// at volume wants chiplets on launch-day yield but goes monolithic once
/// the process matures.
#[test]
fn maturity_flips_the_partitioning_decision() {
    let base = lib();
    let ramp = DefectRamp::new(0.15, 0.04, 12.0).unwrap();
    let mcm = [IntegrationKind::Mcm];
    // Enormous volume: the decision is RE-driven.
    let quantity = Quantity::new(1_000_000_000);
    let area = Area::from_mm2(500.0).unwrap();

    let early = library_at_age(&base, "7nm", &ramp, 0.0).unwrap();
    let early_rec = one_point(&early, "7nm", area, quantity, &mcm, &[2, 3]).remove(0);
    assert!(
        early_rec.chiplets >= 2,
        "launch-day yield must favour chiplets: {early_rec}"
    );

    let mature = library_at_age(&base, "7nm", &ramp, 60.0).unwrap();
    let mature_rec = one_point(&mature, "7nm", area, quantity, &mcm, &[2, 3]).remove(0);
    assert_eq!(
        mature_rec.integration,
        IntegrationKind::Soc,
        "mature yield must favour the monolithic die: {mature_rec}"
    );
}

/// The candidate list forms a meaningful (chiplets, cost) trade-off: the
/// Pareto frontier over (chiplet count, per-unit cost) keeps the cheapest
/// configuration and drops dominated ones.
#[test]
fn candidate_pareto_frontier_is_consistent() {
    let lib = lib();
    let candidates = one_point(
        &lib,
        "5nm",
        Area::from_mm2(800.0).unwrap(),
        Quantity::new(5_000_000),
        &IntegrationKind::MULTI_CHIP,
        &[2, 3, 4, 5],
    );
    let points: Vec<(f64, f64)> = candidates
        .iter()
        .map(|c| (c.chiplets as f64, c.per_unit.usd()))
        .collect();
    let frontier = pareto_min_indices(&points);
    assert!(!frontier.is_empty());
    // The overall winner appears on the frontier.
    let winner_idx = 0;
    assert!(
        frontier.contains(&winner_idx),
        "the cheapest candidate must be Pareto-optimal"
    );
}

/// Candidate evaluation is deterministic and matches a hand-built system.
#[test]
fn evaluate_candidate_matches_manual_portfolio() {
    let lib = lib();
    let quantity = Quantity::new(2_000_000);
    let area = Area::from_mm2(600.0).unwrap();
    let candidate = candidate_core(
        &lib,
        "7nm",
        area,
        IntegrationKind::Mcm,
        3,
        AssemblyFlow::ChipLast,
    )
    .unwrap()
    .at_quantity(quantity);

    let chips = partition::equal_chiplets("opt", "7nm", area, 3).unwrap();
    let mut builder = System::builder("opt-sys", IntegrationKind::Mcm).quantity(quantity);
    for chip in chips {
        builder = builder.chip(chip, 1);
    }
    let manual = Portfolio::new(vec![builder.build().unwrap()])
        .cost(&lib, AssemblyFlow::ChipLast)
        .unwrap();
    let manual_per_unit = manual.systems()[0].per_unit_total();
    assert!(
        (candidate.per_unit.usd() - manual_per_unit.usd()).abs() < 1e-9,
        "{} vs {}",
        candidate.per_unit,
        manual_per_unit
    );
}
