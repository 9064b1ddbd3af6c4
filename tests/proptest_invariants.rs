//! Cross-crate property tests: invariants that must hold for *any* system
//! configuration, not just the paper's.

use chiplet_actuary::dse::explore::CellOutcome;
use chiplet_actuary::dse::portfolio::explore_portfolio;
use chiplet_actuary::prelude::*;
use chiplet_actuary::scenario::{Job, Scenario};
use proptest::prelude::*;

fn lib() -> TechLibrary {
    TechLibrary::paper_defaults().unwrap()
}

const NODE_IDS: [&str; 4] = ["5nm", "7nm", "12nm", "14nm"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every feasible configuration yields a non-negative, internally
    /// consistent breakdown, and the total is at least the raw silicon.
    #[test]
    fn re_breakdown_invariants(
        node_idx in 0usize..NODE_IDS.len(),
        mm2 in 30.0f64..700.0,
        count in 1u32..7,
        kind_idx in 0usize..3,
        chip_first in proptest::bool::ANY,
    ) {
        let lib = lib();
        let node = lib.node(NODE_IDS[node_idx]).unwrap();
        let kind = IntegrationKind::MULTI_CHIP[kind_idx];
        let packaging = lib.packaging(kind).unwrap();
        let flow = if chip_first { AssemblyFlow::ChipFirst } else { AssemblyFlow::ChipLast };
        let area = Area::from_mm2(mm2).unwrap();
        let b = re_cost(&[DiePlacement::new(node, area, count)], packaging, flow).unwrap();
        prop_assert!(b.is_non_negative());
        let component_sum: Money = b.components().iter().map(|(_, m)| *m).sum();
        prop_assert!((component_sum.usd() - b.total().usd()).abs() < 1e-6);
        let raw = node.raw_die_cost(area).unwrap() * count as f64;
        prop_assert!(b.total().usd() >= raw.usd());
    }

    /// Splitting a die always improves die-defect cost but adds packaging
    /// cost — both directions of the paper's §4.1 trade-off.
    #[test]
    fn splitting_tradeoff(
        node_idx in 0usize..NODE_IDS.len(),
        mm2 in 200.0f64..800.0,
        n in 2u32..6,
    ) {
        let lib = lib();
        let node = lib.node(NODE_IDS[node_idx]).unwrap();
        let total = Area::from_mm2(mm2).unwrap();
        let soc = re_cost(
            &[DiePlacement::new(node, total, 1)],
            lib.packaging(IntegrationKind::Soc).unwrap(),
            AssemblyFlow::ChipLast,
        ).unwrap();
        let die = node.d2d().inflate_module_area(total / n as f64).unwrap();
        let mcm = re_cost(
            &[DiePlacement::new(node, die, n)],
            lib.packaging(IntegrationKind::Mcm).unwrap(),
            AssemblyFlow::ChipLast,
        ).unwrap();
        prop_assert!(
            mcm.chip_defects.usd() < soc.chip_defects.usd(),
            "defect cost must fall: {} vs {}", mcm.chip_defects, soc.chip_defects
        );
        prop_assert!(
            mcm.packaging_total().usd() > soc.packaging_total().usd(),
            "packaging cost must rise"
        );
    }

    /// Portfolio NRE allocations always recover the entity totals exactly
    /// (no money invented or lost by the sharing machinery).
    #[test]
    fn portfolio_allocation_conserves_money(
        mm2 in 50.0f64..300.0,
        count_a in 1u32..4,
        count_b in 1u32..4,
        qty_a in 100_000u64..2_000_000,
        qty_b in 100_000u64..2_000_000,
        share_chip in proptest::bool::ANY,
    ) {
        let lib = lib();
        let chip = |name: &str| Chip::chiplet(
            name.to_string(),
            "7nm",
            vec![Module::new(format!("{name}-m"), "7nm", Area::from_mm2(mm2).unwrap())],
        );
        let chip_a = chip("shared");
        let chip_b = if share_chip { chip_a.clone() } else { chip("other") };
        let sys_a = System::builder("a", IntegrationKind::Mcm)
            .chip(chip_a, count_a)
            .quantity(Quantity::new(qty_a))
            .build()
            .unwrap();
        let sys_b = System::builder("b", IntegrationKind::Mcm)
            .chip(chip_b, count_b)
            .quantity(Quantity::new(qty_b))
            .build()
            .unwrap();
        let cost = Portfolio::new(vec![sys_a, sys_b])
            .cost(&lib, AssemblyFlow::ChipLast)
            .unwrap();

        // Reconstruct the NRE total from per-system allocations × quantity.
        let recovered: f64 = cost
            .systems()
            .iter()
            .map(|s| s.nre_per_unit().total().usd() * s.quantity().as_f64())
            .sum();
        let total = cost.nre_total().total().usd();
        prop_assert!(
            (recovered - total).abs() <= total * 1e-9 + 1e-3,
            "allocations {recovered} must equal NRE total {total}"
        );
    }

    /// Per-unit total cost is monotone non-increasing in production
    /// quantity (amortization can only help).
    #[test]
    fn per_unit_cost_monotone_in_quantity(
        mm2 in 100.0f64..600.0,
        n in 1u32..4,
        q in 100_000u64..5_000_000,
    ) {
        let lib = lib();
        let per_unit = |quantity: u64| -> f64 {
            let kind = if n == 1 { IntegrationKind::Soc } else { IntegrationKind::Mcm };
            let chips = partition::equal_chiplets(
                "prop", "7nm", Area::from_mm2(mm2).unwrap(), n).unwrap();
            let mut builder = System::builder("prop-sys", kind)
                .quantity(Quantity::new(quantity));
            for chip in chips {
                builder = builder.chip(chip, 1);
            }
            let cost = Portfolio::new(vec![builder.build().unwrap()])
                .cost(&lib, AssemblyFlow::ChipLast)
                .unwrap();
            cost.systems()[0].per_unit_total().usd()
        };
        prop_assert!(per_unit(q * 2) <= per_unit(q) + 1e-9);
    }

    /// The D2D overhead always hurts pure RE: a chiplet die costs more to
    /// manufacture than the bare module area it carries.
    #[test]
    fn d2d_overhead_costs_silicon(
        node_idx in 0usize..NODE_IDS.len(),
        mm2 in 50.0f64..400.0,
    ) {
        let lib = lib();
        let node = lib.node(NODE_IDS[node_idx]).unwrap();
        let bare = Area::from_mm2(mm2).unwrap();
        let inflated = node.d2d().inflate_module_area(bare).unwrap();
        prop_assert!(inflated.mm2() > bare.mm2());
        let bare_cost = node.yielded_die_cost(bare).unwrap();
        let inflated_cost = node.yielded_die_cost(inflated).unwrap();
        prop_assert!(inflated_cost > bare_cost);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Refinement's proof obligation (see `actuary_dse::refine`): under any
    /// technology overlay the builders accept, every scheme variant ×
    /// integration × chiplet count × flow at a fixed node and quantity
    /// prices per-unit cost non-decreasing in area, and never turns
    /// feasible again at a larger area once infeasible.
    #[test]
    fn per_unit_cost_is_monotone_in_area_for_every_configuration(
        node_idx in 0usize..3,
        first_area in 10.0f64..300.0,
        area_step in 5.0f64..100.0,
        wafer_price in 0.0f64..40_000.0,
        defect in 0.0f64..0.4,
        cluster in 0.5f64..30.0,
        mask_set in 0.0f64..6e7,
        k_module in 0.0f64..3e6,
        d2d_fraction in 0.0f64..0.5,
        assembly in 0.0f64..30.0,
        bond_cost in 0.0f64..5.0,
        bond_yield in 0.9f64..1.0,
        interposer_defect in 0.0f64..0.3,
    ) {
        let node = ["5nm", "7nm", "14nm"][node_idx];
        let doc = format!(
            "name = \"premise\"\nextends = \"preset\"\n\
             [nodes.{node}]\nwafer_price_usd = {wafer_price}\ndefect_density = {defect}\n\
             cluster = {cluster}\nmask_set_usd = {mask_set}\nk_module_usd = {k_module}\n\
             [nodes.{node}.d2d]\narea_fraction = {d2d_fraction}\n\
             [packaging.mcm]\nassembly_cost_usd = {assembly}\n\
             bond_cost_per_chip_usd = {bond_cost}\nchip_bond_yield = {bond_yield}\n\
             [packaging.\"2.5d\".interposer]\ndefect_density = {interposer_defect}\n\
             [explore]\nnodes = [\"{node}\"]\nareas_mm2 = [{areas}]\n\
             quantities = [200000, 20000000]\nchiplets = [1, 2, 3, 4, 5]\n\
             flows = [\"chip-first\", \"chip-last\"]\n\
             schemes = [\"none\", \"scms\", \"ocme\", \"fsmc\"]\n\
             ocme_center_nodes = [\"none\", \"14nm\"]\n",
            areas = (0..10)
                .map(|i| (first_area + f64::from(i) * area_step).to_string())
                .collect::<Vec<_>>()
                .join(", "),
        );
        let scenario = Scenario::from_toml(&doc).unwrap();
        let Some(Job::Explore(job)) = scenario.jobs.first() else {
            panic!("the document has one explore job");
        };
        let space = &job.space;
        let cells = explore_portfolio(&scenario.library, space, 1).unwrap().cells();
        // One node: cells run area-major, so each (quantity, configuration)
        // series strides through the grid by one area's worth of cells.
        let stride = cells.len() / space.areas_mm2.len();
        for series in 0..stride {
            let mut cheapest_so_far: Option<f64> = None;
            let mut infeasible_at: Option<f64> = None;
            for cell in cells.iter().skip(series).step_by(stride) {
                match &cell.outcome {
                    CellOutcome::Feasible(c) => {
                        prop_assert!(
                            infeasible_at.is_none(),
                            "{cell:?} is feasible above an infeasible area {infeasible_at:?}"
                        );
                        let cost = c.per_unit.usd();
                        if let Some(previous) = cheapest_so_far {
                            prop_assert!(
                                cost >= previous,
                                "{cell:?}: per-unit cost fell from {previous} with area"
                            );
                        }
                        cheapest_so_far = Some(cost);
                    }
                    CellOutcome::Infeasible(_) => {
                        infeasible_at = infeasible_at.or(Some(cell.area_mm2));
                    }
                    CellOutcome::Incompatible(_) | CellOutcome::Pruned => {}
                }
            }
        }
    }
}
