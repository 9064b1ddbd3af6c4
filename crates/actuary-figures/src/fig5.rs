//! Figure 5: validation against AMD's chiplet architecture — 7 nm CCDs plus
//! a 12 nm IOD on an MCM, vs a hypothetical monolithic 7 nm die, for 16–64
//! cores.
//!
//! Model choices (documented in `DESIGN.md` §4):
//!
//! * CCD: 74 mm² die at 7 nm with early-ramp defect density 0.13 /cm² (the
//!   paper's stated assumption), 8 cores per CCD, 10 % of the die being the
//!   D2D (IFOP) interface.
//! * IOD: 416 mm² at 12 nm, defect density 0.12 /cm².
//! * The chiplet package is the constant server socket: its substrate is
//!   sized for the largest (64-core) configuration for every core count,
//!   which is why the paper's packaging share *grows* as core count
//!   shrinks.
//! * The hypothetical monolithic die carries the CCD logic without D2D plus
//!   the IOD ported to 7 nm by relative transistor density.

use actuary_model::{re_cost, re_cost_sized, AssemblyFlow, DiePlacement, ReCostBreakdown};
use actuary_report::{StackedBarChart, Table};
use actuary_tech::{IntegrationKind, TechLibrary};
use actuary_units::Area;

use crate::common::{pct, ShapeCheck};
use crate::Result;

/// Core counts of the five product configurations.
pub const CORES: [u32; 5] = [16, 24, 32, 48, 64];
/// CCD die area (mm²) including the D2D interface.
pub const CCD_AREA_MM2: f64 = 74.0;
/// Cores per CCD.
pub const CORES_PER_CCD: u32 = 8;
/// IOD die area at 12 nm (mm²).
pub const IOD_AREA_MM2: f64 = 416.0;
/// Early-ramp defect densities the paper uses for this validation.
pub const D_7NM: f64 = 0.13;
/// Early-ramp 12 nm defect density.
pub const D_12NM: f64 = 0.12;

/// One core-count row of Figure 5.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Number of cores.
    pub cores: u32,
    /// Number of CCDs.
    pub ccds: u32,
    /// Chiplet (MCM) RE breakdown, normalized.
    pub chiplet: ReCostBreakdown,
    /// Hypothetical monolithic 7 nm RE breakdown, normalized.
    pub monolithic: ReCostBreakdown,
    /// Monolithic die area in mm².
    pub monolithic_area_mm2: f64,
}

impl Fig5Row {
    /// Packaging share of the chiplet bar.
    pub fn chiplet_packaging_share(&self) -> f64 {
        self.chiplet.packaging_total().usd() / self.chiplet.total().usd()
    }

    /// Packaging share of the monolithic bar.
    pub fn soc_packaging_share(&self) -> f64 {
        self.monolithic.packaging_total().usd() / self.monolithic.total().usd()
    }

    /// Die-cost saving of the chiplet version vs monolithic.
    pub fn die_cost_saving(&self) -> f64 {
        let mono = self.monolithic.die_total().usd();
        (mono - self.chiplet.die_total().usd()) / mono
    }
}

/// The full Figure 5 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5 {
    /// One row per core count, normalized to the 16-core monolithic total.
    pub rows: Vec<Fig5Row>,
}

/// Builds the validation library: paper defaults with the early-ramp defect
/// densities (7 nm → 0.13, 12 nm → 0.12).
///
/// # Errors
///
/// Propagates library errors.
pub fn validation_library(base: &TechLibrary) -> Result<TechLibrary> {
    let with7 = base.with_modified_node("7nm", |n| n.to_builder().defect_density(D_7NM).build())?;
    Ok(with7.with_modified_node("12nm", |n| n.to_builder().defect_density(D_12NM).build())?)
}

/// Computes the Figure 5 dataset.
///
/// # Errors
///
/// Propagates library and cost-engine errors.
pub fn compute(base: &TechLibrary) -> Result<Fig5> {
    let lib = validation_library(base)?;
    let n7 = lib.node("7nm")?;
    let n12 = lib.node("12nm")?;
    let mcm = lib.packaging(IntegrationKind::Mcm)?;
    let soc = lib.packaging(IntegrationKind::Soc)?;

    let ccd = Area::from_mm2(CCD_AREA_MM2)?;
    let iod = Area::from_mm2(IOD_AREA_MM2)?;
    // The socket substrate is sized for the 64-core configuration.
    let max_ccds = CORES[CORES.len() - 1] / CORES_PER_CCD;
    let socket_silicon = Area::from_mm2(CCD_AREA_MM2 * max_ccds as f64 + IOD_AREA_MM2)?;
    // Monolithic: CCD logic without D2D + IOD ported 12 nm → 7 nm.
    let ccd_logic = ccd * (1.0 - n7.d2d().area_fraction());
    let iod_at_7nm = n7.port_area_from(iod, n12)?;

    let mut raw_rows = Vec::new();
    for &cores in &CORES {
        let ccds = cores / CORES_PER_CCD;
        let chiplet = re_cost_sized(
            &[
                DiePlacement::new(n7, ccd, ccds),
                DiePlacement::new(n12, iod, 1),
            ],
            mcm,
            AssemblyFlow::ChipLast,
            Some(socket_silicon),
        )
        .map_err(actuary_arch::ArchError::from)?;
        let mono_area = Area::from_mm2(ccd_logic.mm2() * ccds as f64 + iod_at_7nm.mm2())?;
        let monolithic = re_cost(
            &[DiePlacement::new(n7, mono_area, 1)],
            soc,
            AssemblyFlow::ChipLast,
        )
        .map_err(actuary_arch::ArchError::from)?;
        raw_rows.push((cores, ccds, chiplet, monolithic, mono_area.mm2()));
    }

    // Normalize to the 16-core monolithic total.
    let basis = raw_rows[0].3.total().usd();
    let rows = raw_rows
        .into_iter()
        .map(|(cores, ccds, chiplet, monolithic, area)| Fig5Row {
            cores,
            ccds,
            chiplet: chiplet.scaled(1.0 / basis),
            monolithic: monolithic.scaled(1.0 / basis),
            monolithic_area_mm2: area,
        })
        .collect();
    Ok(Fig5 { rows })
}

impl Fig5 {
    /// Looks up the row for a core count.
    pub fn row(&self, cores: u32) -> Option<&Fig5Row> {
        self.rows.iter().find(|r| r.cores == cores)
    }

    /// Renders the paired bars.
    pub fn render(&self) -> String {
        let mut chart = StackedBarChart::new(
            "Figure 5: AMD validation (normalized to the 16-core monolithic SoC)",
        );
        for r in &self.rows {
            let chiplet_segs: Vec<(&str, f64)> = r
                .chiplet
                .components()
                .iter()
                .map(|(l, m)| (*l, m.usd()))
                .collect();
            chart.push_bar(format!("{:>2} cores chiplet", r.cores), &chiplet_segs);
            let mono_segs: Vec<(&str, f64)> = r
                .monolithic
                .components()
                .iter()
                .map(|(l, m)| (*l, m.usd()))
                .collect();
            chart.push_bar(format!("{:>2} cores mono7nm", r.cores), &mono_segs);
        }
        chart.render(48)
    }

    /// The dataset as a table.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(vec![
            "cores",
            "ccds",
            "chiplet_total",
            "chiplet_pkg_share",
            "mono_total",
            "mono_pkg_share",
            "die_cost_saving",
            "mono_area_mm2",
        ]);
        for r in &self.rows {
            table.push_row(vec![
                r.cores.to_string(),
                r.ccds.to_string(),
                format!("{:.3}", r.chiplet.total().usd()),
                pct(r.chiplet_packaging_share()),
                format!("{:.3}", r.monolithic.total().usd()),
                pct(r.soc_packaging_share()),
                pct(r.die_cost_saving()),
                format!("{:.0}", r.monolithic_area_mm2),
            ]);
        }
        table
    }

    /// The paper's qualitative claims about Figure 5 (§4.1).
    pub fn checks(&self) -> Vec<ShapeCheck> {
        let mut checks = Vec::new();
        if let Some(r64) = self.row(64) {
            checks.push(ShapeCheck::new(
                "multi-chip saves up to ~50% of the die cost at 64 cores",
                "~50% (35-60%)",
                pct(r64.die_cost_saving()),
                (0.35..=0.60).contains(&r64.die_cost_saving()),
            ));
            checks.push(ShapeCheck::new(
                "the 64-core chiplet system is cheaper than monolithic",
                "chiplet < monolithic",
                format!(
                    "{:.2} vs {:.2}",
                    r64.chiplet.total().usd(),
                    r64.monolithic.total().usd()
                ),
                r64.chiplet.total() < r64.monolithic.total(),
            ));
        }
        // Chiplet packaging share ≈ 24-30 % (we accept 20-45 % given the
        // public-data substrate calibration), growing as cores shrink.
        let mut shares = Vec::new();
        for &cores in &CORES {
            if let Some(r) = self.row(cores) {
                shares.push((cores, r.chiplet_packaging_share()));
            }
        }
        if let (Some(&(_, s16)), Some(&(_, s64))) = (shares.first(), shares.last()) {
            checks.push(ShapeCheck::new(
                "chiplet packaging share is in the ~24-30% band",
                "24-30% (accept 20-45%)",
                shares
                    .iter()
                    .map(|(c, s)| format!("{c}:{}", pct(*s)))
                    .collect::<Vec<_>>()
                    .join(" "),
                shares.iter().all(|(_, s)| (0.20..=0.45).contains(s)),
            ));
            checks.push(ShapeCheck::new(
                "packaging share grows as the core count shrinks",
                "share(16) > share(64)",
                format!("{} vs {}", pct(s16), pct(s64)),
                s16 > s64,
            ));
        }
        // Monolithic packaging share ≈ 5-6 %.
        if let Some(r64) = self.row(64) {
            checks.push(ShapeCheck::new(
                "monolithic packaging share stays small (~5-6%)",
                "5-6% (accept <12%)",
                pct(r64.soc_packaging_share()),
                r64.soc_packaging_share() < 0.12,
            ));
        }
        // The chiplet advantage shrinks at lower core counts.
        if let (Some(r16), Some(r64)) = (self.row(16), self.row(64)) {
            let ratio16 = r16.chiplet.total().usd() / r16.monolithic.total().usd();
            let ratio64 = r64.chiplet.total().usd() / r64.monolithic.total().usd();
            checks.push(ShapeCheck::new(
                "the chiplet advantage shrinks for smaller systems",
                "cost ratio at 16 cores > ratio at 64 cores",
                format!("{ratio16:.2} vs {ratio64:.2}"),
                ratio16 > ratio64,
            ));
        }
        checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Fig5 {
        compute(&TechLibrary::paper_defaults().unwrap()).unwrap()
    }

    #[test]
    fn five_core_counts() {
        let f = fig();
        assert_eq!(f.rows.len(), 5);
        assert_eq!(f.row(64).unwrap().ccds, 8);
        assert_eq!(f.row(16).unwrap().ccds, 2);
    }

    #[test]
    fn normalization_basis() {
        let f = fig();
        assert!((f.row(16).unwrap().monolithic.total().usd() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn monolithic_area_stays_under_reticle() {
        let f = fig();
        for r in &f.rows {
            assert!(
                r.monolithic_area_mm2 < 858.0,
                "{} cores: {} mm²",
                r.cores,
                r.monolithic_area_mm2
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
    fn validation_library_overrides_defects() {
        let lib = validation_library(&TechLibrary::paper_defaults().unwrap()).unwrap();
        assert_eq!(lib.node("7nm").unwrap().defect_density().value(), 0.13);
        assert_eq!(lib.node("12nm").unwrap().defect_density().value(), 0.12);
        // 5 nm untouched.
        assert_eq!(lib.node("5nm").unwrap().defect_density().value(), 0.11);
    }

    #[test]
    fn render_and_table() {
        let f = fig();
        assert!(f.render().contains("64 cores chiplet"));
        assert_eq!(f.to_table().row_count(), 5);
    }
}
