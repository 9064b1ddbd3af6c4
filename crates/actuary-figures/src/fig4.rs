//! Figure 4: normalized RE cost breakdowns for SoC/MCM/InFO/2.5D across
//! die areas (100–900 mm²), chiplet counts (2/3/5) and nodes (14/7/5 nm),
//! with 10 % D2D overhead and no reuse, normalized to the 100 mm² SoC of
//! each node.

use actuary_model::{equal_split_re_cost, AssemblyFlow, ReCostBreakdown};
use actuary_report::{StackedBarChart, Table};
use actuary_tech::{IntegrationKind, TechLibrary};
use actuary_units::Area;

use crate::common::{pct, ShapeCheck};
use crate::Result;

/// Nodes of the three panel rows, in the paper's order.
pub const NODES: [&str; 3] = ["14nm", "7nm", "5nm"];
/// Chiplet counts of the three panel columns.
pub const CHIPLET_COUNTS: [u32; 3] = [2, 3, 5];
/// Module-area grid (mm²).
pub const AREAS_MM2: [f64; 9] = [
    100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0, 900.0,
];

/// One bar of Figure 4: a (node, chiplet count, integration, area) cell
/// with its five-component breakdown normalized to the node's 100 mm² SoC.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Cell {
    /// Process node of the panel row.
    pub node: String,
    /// Chiplet count of the panel column (irrelevant for the SoC bars).
    pub chiplets: u32,
    /// Integration scheme of the bar.
    pub integration: IntegrationKind,
    /// Total module area (the x axis).
    pub area_mm2: f64,
    /// RE breakdown normalized to the node's 100 mm² SoC total.
    pub breakdown: ReCostBreakdown,
}

impl Fig4Cell {
    /// Normalized total of this bar.
    pub fn total(&self) -> f64 {
        self.breakdown.total().usd()
    }
}

/// The full Figure 4 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4 {
    /// Every bar of the 3×3 panel grid.
    pub cells: Vec<Fig4Cell>,
}

/// Computes one raw (un-normalized) RE breakdown.
fn raw_cell(
    lib: &TechLibrary,
    node_id: &str,
    integration: IntegrationKind,
    module_area: Area,
    chiplets: u32,
) -> Result<ReCostBreakdown> {
    Ok(equal_split_re_cost(
        lib.node(node_id)?,
        lib.packaging(integration)?,
        module_area,
        chiplets,
        AssemblyFlow::ChipLast,
    )?)
}

/// Computes the Figure 4 dataset.
///
/// # Errors
///
/// Propagates library and cost-engine errors.
pub fn compute(lib: &TechLibrary) -> Result<Fig4> {
    let mut cells = Vec::new();
    for node_id in NODES {
        // Per-panel normalization basis: the node's 100 mm² SoC.
        let basis = raw_cell(
            lib,
            node_id,
            IntegrationKind::Soc,
            Area::from_mm2(100.0)?,
            1,
        )?
        .total();
        for &chiplets in &CHIPLET_COUNTS {
            for &area_mm2 in &AREAS_MM2 {
                let area = Area::from_mm2(area_mm2)?;
                for kind in IntegrationKind::ALL {
                    let raw = raw_cell(lib, node_id, kind, area, chiplets)?;
                    cells.push(Fig4Cell {
                        node: node_id.to_string(),
                        chiplets,
                        integration: kind,
                        area_mm2,
                        breakdown: raw.scaled(1.0 / basis.usd()),
                    });
                }
            }
        }
    }
    Ok(Fig4 { cells })
}

impl Fig4 {
    /// Looks up one bar.
    pub fn cell(
        &self,
        node: &str,
        chiplets: u32,
        integration: IntegrationKind,
        area_mm2: f64,
    ) -> Option<&Fig4Cell> {
        self.cells.iter().find(|c| {
            c.node == node
                && c.chiplets == chiplets
                && c.integration == integration
                && (c.area_mm2 - area_mm2).abs() < 1e-9
        })
    }

    /// Smallest module area at which `integration` beats the monolithic SoC
    /// at `node` with `chiplets` chiplets (the "turning point" of §4.1).
    pub fn turning_point(
        &self,
        node: &str,
        chiplets: u32,
        integration: IntegrationKind,
    ) -> Option<f64> {
        AREAS_MM2.iter().copied().find(|&a| {
            match (
                self.cell(node, chiplets, integration, a),
                self.cell(node, chiplets, IntegrationKind::Soc, a),
            ) {
                (Some(multi), Some(soc)) => multi.total() < soc.total(),
                _ => false,
            }
        })
    }

    /// Renders one panel (node × chiplet count) as a stacked bar chart.
    pub fn render_panel(&self, node: &str, chiplets: u32) -> String {
        let mut chart = StackedBarChart::new(format!(
            "Figure 4 panel: {node}, {chiplets} chiplets (normalized to 100 mm² SoC)"
        ));
        for &area in &AREAS_MM2 {
            for kind in IntegrationKind::ALL {
                if let Some(cell) = self.cell(node, chiplets, kind, area) {
                    let segs: Vec<(&str, f64)> = cell
                        .breakdown
                        .components()
                        .iter()
                        .map(|(l, m)| (*l, m.usd()))
                        .collect();
                    chart.push_bar(format!("{area:>4.0} {kind}"), &segs);
                }
            }
        }
        chart.render(48)
    }

    /// Renders every panel.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for node in NODES {
            for &chiplets in &CHIPLET_COUNTS {
                out.push_str(&self.render_panel(node, chiplets));
                out.push('\n');
            }
        }
        out
    }

    /// The dataset as a flat table.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(vec![
            "node",
            "chiplets",
            "integration",
            "area_mm2",
            "raw_chips",
            "chip_defects",
            "raw_package",
            "package_defects",
            "wasted_kgd",
            "total",
        ]);
        for c in &self.cells {
            table.push_row(vec![
                c.node.clone(),
                c.chiplets.to_string(),
                c.integration.to_string(),
                format!("{:.0}", c.area_mm2),
                format!("{:.4}", c.breakdown.raw_chips.usd()),
                format!("{:.4}", c.breakdown.chip_defects.usd()),
                format!("{:.4}", c.breakdown.raw_package.usd()),
                format!("{:.4}", c.breakdown.package_defects.usd()),
                format!("{:.4}", c.breakdown.wasted_kgd.usd()),
                format!("{:.4}", c.total()),
            ]);
        }
        table
    }

    /// The paper's qualitative claims about Figure 4 (§4.1).
    pub fn checks(&self) -> Vec<ShapeCheck> {
        let mut checks = Vec::new();

        // 1. 5 nm / 800 mm²: die-defect cost > 50 % of the monolithic total.
        if let Some(soc) = self.cell("5nm", 2, IntegrationKind::Soc, 800.0) {
            let share = soc.breakdown.chip_defects.usd() / soc.total();
            checks.push(ShapeCheck::new(
                "at 5nm/800mm² die defects exceed 50% of the monolithic cost",
                "> 50%",
                pct(share),
                share > 0.50,
            ));
        }

        // 2. 14 nm: up to ~35 % savings from yield improvement.
        {
            let mut best = 0.0f64;
            for &a in &AREAS_MM2 {
                if let (Some(soc), Some(mcm)) = (
                    self.cell("14nm", 3, IntegrationKind::Soc, a),
                    self.cell("14nm", 3, IntegrationKind::Mcm, a),
                ) {
                    let saving = (soc.breakdown.chip_defects.usd()
                        - mcm.breakdown.chip_defects.usd())
                        / soc.total();
                    best = best.max(saving);
                }
            }
            checks.push(ShapeCheck::new(
                "at 14nm yield-improvement savings reach up to ~35%",
                "~35% (25-45%)",
                pct(best),
                (0.25..=0.45).contains(&best),
            ));
        }

        // 3. Overhead shares at 14 nm / 900 mm²: > 25 % for MCM, > 50 % for
        //    2.5D (D2D + packaging overhead of the multi-chip total).
        for (kind, bound) in [
            (IntegrationKind::Mcm, 0.25),
            (IntegrationKind::TwoPointFiveD, 0.50),
        ] {
            if let Some(cell) = self.cell("14nm", 2, kind, 900.0) {
                let d2d_die_cost = cell.breakdown.die_total().usd() * 0.10;
                let overhead =
                    (cell.breakdown.packaging_total().usd() + d2d_die_cost) / cell.total();
                checks.push(ShapeCheck::new(
                    format!(
                        "14nm {kind} D2D+packaging overhead exceeds {:.0}%",
                        bound * 100.0
                    ),
                    format!("> {:.0}%", bound * 100.0),
                    pct(overhead),
                    overhead > bound,
                ));
            }
        }

        // 4. The turning point comes earlier for advanced technology.
        {
            let tp_5nm = self.turning_point("5nm", 2, IntegrationKind::Mcm);
            let tp_14nm = self.turning_point("14nm", 2, IntegrationKind::Mcm);
            let (m5, m14) = (
                tp_5nm.map_or("none".to_string(), |a| format!("{a:.0} mm²")),
                tp_14nm.map_or("none".to_string(), |a| format!("{a:.0} mm²")),
            );
            let pass = match (tp_5nm, tp_14nm) {
                (Some(a5), Some(a14)) => a5 <= a14,
                (Some(_), None) => true,
                _ => false,
            };
            checks.push(ShapeCheck::new(
                "the MCM turning point comes earlier at 5nm than at 14nm",
                "area(5nm) ≤ area(14nm)",
                format!("5nm: {m5}, 14nm: {m14}"),
                pass,
            ));
        }

        // 5. 2.5D packaging ≈ 50 % of total at 7 nm / 900 mm².
        if let Some(cell) = self.cell("7nm", 2, IntegrationKind::TwoPointFiveD, 900.0) {
            let share = cell.breakdown.packaging_total().usd() / cell.total();
            checks.push(ShapeCheck::new(
                "2.5D packaging is ~50% of total at 7nm/900mm²",
                "~50% (35-60%)",
                pct(share),
                (0.35..=0.60).contains(&share),
            ));
        }

        // 6. Granularity has marginal utility: the extra die-defect saving
        //    of 3→5 chiplets is < 10 % at 5 nm / 800 mm² MCM (measured in
        //    the panel's normalized units, i.e. relative to the SoC bar at
        //    the same area, which is how the figure is read).
        if let (Some(three), Some(five), Some(soc)) = (
            self.cell("5nm", 3, IntegrationKind::Mcm, 800.0),
            self.cell("5nm", 5, IntegrationKind::Mcm, 800.0),
            self.cell("5nm", 3, IntegrationKind::Soc, 800.0),
        ) {
            let saving = (three.breakdown.chip_defects.usd() - five.breakdown.chip_defects.usd())
                / soc.total();
            checks.push(ShapeCheck::new(
                "extra defect saving from 3→5 chiplets is <10% at 5nm/800mm² MCM",
                "< 10%",
                pct(saving),
                saving < 0.10,
            ));
        }

        // 7. Benefits increase with area (5 nm, 2-chiplet MCM).
        {
            let saving_at = |a: f64| -> Option<f64> {
                let soc = self.cell("5nm", 2, IntegrationKind::Soc, a)?;
                let mcm = self.cell("5nm", 2, IntegrationKind::Mcm, a)?;
                Some((soc.total() - mcm.total()) / soc.total())
            };
            if let (Some(small), Some(large)) = (saving_at(300.0), saving_at(900.0)) {
                checks.push(ShapeCheck::new(
                    "multi-chip benefits increase with area (5nm MCM, 300→900mm²)",
                    "saving(900) > saving(300)",
                    format!("{} → {}", pct(small), pct(large)),
                    large > small,
                ));
            }
        }
        checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Fig4 {
        compute(&TechLibrary::paper_defaults().unwrap()).unwrap()
    }

    #[test]
    fn dataset_dimensions() {
        let f = fig();
        // 3 nodes × 3 chiplet counts × 9 areas × 4 integrations.
        assert_eq!(f.cells.len(), 3 * 3 * 9 * 4);
    }

    #[test]
    fn normalization_basis_is_one() {
        let f = fig();
        for node in NODES {
            let basis = f.cell(node, 2, IntegrationKind::Soc, 100.0).unwrap();
            assert!(
                (basis.total() - 1.0).abs() < 1e-9,
                "{node}: basis {}",
                basis.total()
            );
        }
    }

    #[test]
    fn all_shape_checks_pass() {
        for c in fig().checks() {
            assert!(c.pass, "{c}");
        }
    }

    #[test]
    fn soc_bars_do_not_depend_on_chiplet_count() {
        let f = fig();
        let a = f.cell("7nm", 2, IntegrationKind::Soc, 500.0).unwrap();
        let b = f.cell("7nm", 5, IntegrationKind::Soc, 500.0).unwrap();
        assert!((a.total() - b.total()).abs() < 1e-12);
    }

    #[test]
    fn totals_grow_with_area() {
        let f = fig();
        for kind in IntegrationKind::ALL {
            let small = f.cell("7nm", 2, kind, 100.0).unwrap().total();
            let large = f.cell("7nm", 2, kind, 900.0).unwrap().total();
            assert!(large > small, "{kind}: {large} vs {small}");
        }
    }

    #[test]
    fn render_produces_panels() {
        let f = fig();
        let text = f.render_panel("5nm", 2);
        assert!(text.contains("5nm"));
        assert!(text.contains("SoC"));
        assert!(text.contains("2.5D"));
        let table = f.to_table();
        assert_eq!(table.row_count(), f.cells.len());
    }
}
