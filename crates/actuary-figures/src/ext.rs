//! Extension studies beyond the paper's figures.
//!
//! Two analyses the paper motivates in prose but does not plot:
//!
//! * [`maturity_study`] — §4.1: "As the yield of 7 nm technology improves
//!   in recent years, the advantage is further smaller." We sweep a
//!   defect-density learning curve and track the chiplet saving over
//!   process age.
//! * [`harvest_study`] — the industry practice the paper's EPYC reference
//!   relies on: partial-good die salvage (binning), which the base model's
//!   all-or-nothing yield ignores. We quantify how salvage changes the
//!   effective cost of both the chiplet and the monolithic option.

use actuary_dse::maturity::{library_at_age, DefectRamp};
use actuary_model::{equal_split_re_cost, AssemblyFlow};
use actuary_report::Table;
use actuary_tech::{IntegrationKind, ProcessNode, TechLibrary};
use actuary_units::Area;
use actuary_yield::HarvestSpec;

use crate::common::{pct, ShapeCheck};
use crate::Result;

/// One sampled age of the maturity study.
#[derive(Debug, Clone, PartialEq)]
pub struct MaturityRow {
    /// Process age in months.
    pub age_months: f64,
    /// Defect density at this age (/cm²).
    pub defect_density: f64,
    /// Monolithic SoC RE cost (USD/unit).
    pub soc_cost_usd: f64,
    /// Two-chiplet MCM RE cost (USD/unit).
    pub mcm_cost_usd: f64,
}

impl MaturityRow {
    /// Relative chiplet saving vs monolithic at this age.
    pub fn saving(&self) -> f64 {
        (self.soc_cost_usd - self.mcm_cost_usd) / self.soc_cost_usd
    }
}

/// The maturity study result.
#[derive(Debug, Clone, PartialEq)]
pub struct MaturityStudy {
    /// Sampled rows in age order.
    pub rows: Vec<MaturityRow>,
}

/// Sweeps a 7 nm defect ramp (0.13 → 0.05, τ = 12 months) over the first
/// four years of the process and compares a 600 mm² monolithic die with two
/// chiplets on MCM.
///
/// # Errors
///
/// Propagates library and cost-engine errors.
pub fn maturity_study(lib: &TechLibrary) -> Result<MaturityStudy> {
    let ramp = DefectRamp::new(0.13, 0.05, 12.0)?;
    let module_area = Area::from_mm2(600.0)?;
    let mut rows = Vec::new();
    for age in [0.0, 6.0, 12.0, 18.0, 24.0, 36.0, 48.0] {
        let snapshot = library_at_age(lib, "7nm", &ramp, age)?;
        let node = snapshot.node("7nm")?;
        rows.push(MaturityRow {
            age_months: age,
            defect_density: node.defect_density().value(),
            soc_cost_usd: two_chiplet_re_usd(&snapshot, node, IntegrationKind::Soc, module_area)?,
            mcm_cost_usd: two_chiplet_re_usd(&snapshot, node, IntegrationKind::Mcm, module_area)?,
        });
    }
    Ok(MaturityStudy { rows })
}

/// Per-unit RE cost, chip-last, of `module_area` on `kind`: one die on a
/// monolithic kind, two D2D-inflated chiplets on a multi-chip one.
fn two_chiplet_re_usd(
    lib: &TechLibrary,
    node: &ProcessNode,
    kind: IntegrationKind,
    module_area: Area,
) -> Result<f64> {
    let packaging = lib.packaging(kind)?;
    let re = equal_split_re_cost(node, packaging, module_area, 2, AssemblyFlow::ChipLast)?;
    Ok(re.total().usd())
}

impl MaturityStudy {
    /// The study as a table.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(vec![
            "age_months",
            "defect_density",
            "soc_usd",
            "mcm_usd",
            "saving",
        ]);
        for r in &self.rows {
            table.push_row(vec![
                format!("{:.0}", r.age_months),
                format!("{:.3}", r.defect_density),
                format!("{:.2}", r.soc_cost_usd),
                format!("{:.2}", r.mcm_cost_usd),
                pct(r.saving()),
            ]);
        }
        table
    }

    /// The §4.1 claims about process maturity.
    pub fn checks(&self) -> Vec<ShapeCheck> {
        let mut checks = Vec::new();
        if let (Some(first), Some(last)) = (self.rows.first(), self.rows.last()) {
            checks.push(ShapeCheck::new(
                "the chiplet advantage shrinks as the process matures",
                "saving(48mo) < saving(0mo)",
                format!("{} → {}", pct(first.saving()), pct(last.saving())),
                last.saving() < first.saving(),
            ));
            checks.push(ShapeCheck::new(
                "chiplets win on the immature process",
                "saving(0mo) > 0",
                pct(first.saving()),
                first.saving() > 0.0,
            ));
        }
        let monotone = self
            .rows
            .windows(2)
            .all(|w| w[1].saving() <= w[0].saving() + 1e-9);
        checks.push(ShapeCheck::new(
            "the saving declines monotonically with age",
            "monotone decreasing",
            if monotone { "monotone" } else { "non-monotone" }.to_string(),
            monotone,
        ));
        checks
    }
}

/// One bin requirement of the harvest study.
#[derive(Debug, Clone, PartialEq)]
pub struct HarvestRow {
    /// Minimum good cores out of 8 for the die to be sellable.
    pub min_good: u32,
    /// Sellable yield of the 74 mm² CCD.
    pub ccd_yield: f64,
    /// Effective cost per sellable CCD (USD).
    pub ccd_cost_usd: f64,
    /// Sellable yield of the ~700 mm² monolithic 64-core die (same core
    /// fraction salvaged).
    pub mono_yield: f64,
    /// Effective cost per sellable monolithic die (USD).
    pub mono_cost_usd: f64,
}

/// The harvest study result.
#[derive(Debug, Clone, PartialEq)]
pub struct HarvestStudy {
    /// One row per bin requirement (8-of-8 down to 4-of-8 equivalents).
    pub rows: Vec<HarvestRow>,
}

/// Compares salvage on an EPYC-style 74 mm² 8-core CCD against a ~700 mm²
/// monolithic 64-core die at early-ramp 7 nm (D = 0.13), for a range of
/// bin requirements (same fraction of cores required on both).
///
/// # Errors
///
/// Propagates library and yield-model errors.
pub fn harvest_study(lib: &TechLibrary) -> Result<HarvestStudy> {
    let node = lib.node("7nm")?;
    let d = actuary_yield::DefectDensity::per_cm2(0.13)?;
    let cluster = node.cluster();
    let ccd = Area::from_mm2(74.0)?;
    let mono = Area::from_mm2(700.0)?;
    let ccd_raw = node.wafer().raw_die_cost(node.wafer_price(), ccd)?;
    let mono_raw = node.wafer().raw_die_cost(node.wafer_price(), mono)?;

    let mut rows = Vec::new();
    for min_good in [8u32, 7, 6, 5, 4] {
        let ccd_spec = HarvestSpec::new(8, min_good, 0.60)?;
        let mono_spec = HarvestSpec::new(64, min_good * 8, 0.60)?;
        let ccd_yield = ccd_spec.sellable_yield(d, ccd, cluster)?;
        let mono_yield = mono_spec.sellable_yield(d, mono, cluster)?;
        rows.push(HarvestRow {
            min_good,
            ccd_yield: ccd_yield.value(),
            ccd_cost_usd: ccd_spec
                .cost_per_sellable_die(ccd_raw, d, ccd, cluster)?
                .usd(),
            mono_yield: mono_yield.value(),
            mono_cost_usd: mono_spec
                .cost_per_sellable_die(mono_raw, d, mono, cluster)?
                .usd(),
        });
    }
    Ok(HarvestStudy { rows })
}

impl HarvestStudy {
    /// The study as a table.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(vec![
            "bin (of 8)",
            "ccd_yield",
            "ccd_cost_usd",
            "mono_yield",
            "mono_cost_usd",
            "8xccd_vs_mono",
        ]);
        for r in &self.rows {
            table.push_row(vec![
                format!("≥{}", r.min_good),
                pct(r.ccd_yield),
                format!("{:.2}", r.ccd_cost_usd),
                pct(r.mono_yield),
                format!("{:.2}", r.mono_cost_usd),
                format!("{:.2}x", 8.0 * r.ccd_cost_usd / r.mono_cost_usd),
            ]);
        }
        table
    }

    /// Claims about salvage economics.
    pub fn checks(&self) -> Vec<ShapeCheck> {
        let mut checks = Vec::new();
        if let (Some(strict), Some(loose)) = (self.rows.first(), self.rows.last()) {
            checks.push(ShapeCheck::new(
                "salvage raises the sellable yield of both options",
                "yield(≥4) > yield(≥8)",
                format!(
                    "ccd {} → {}, mono {} → {}",
                    pct(strict.ccd_yield),
                    pct(loose.ccd_yield),
                    pct(strict.mono_yield),
                    pct(loose.mono_yield)
                ),
                loose.ccd_yield > strict.ccd_yield && loose.mono_yield > strict.mono_yield,
            ));
            checks.push(ShapeCheck::new(
                "salvage helps the monolithic die more (it has more to lose)",
                "mono cost reduction > ccd cost reduction",
                format!(
                    "mono {} vs ccd {}",
                    pct(1.0 - loose.mono_cost_usd / strict.mono_cost_usd),
                    pct(1.0 - loose.ccd_cost_usd / strict.ccd_cost_usd)
                ),
                (1.0 - loose.mono_cost_usd / strict.mono_cost_usd)
                    > (1.0 - loose.ccd_cost_usd / strict.ccd_cost_usd),
            ));
            checks.push(ShapeCheck::new(
                "even with salvage, eight chiplets stay cheaper than the monolith",
                "8 × ccd cost < mono cost at every bin",
                format!(
                    "{:.2}x at the loosest bin",
                    8.0 * loose.ccd_cost_usd / loose.mono_cost_usd
                ),
                self.rows
                    .iter()
                    .all(|r| 8.0 * r.ccd_cost_usd < r.mono_cost_usd),
            ));
        }
        checks
    }
}

/// One yield-model variant of the ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldModelRow {
    /// Variant label ("poisson-like", "paper (c=10)", "max clustering").
    pub label: String,
    /// Cluster parameter used.
    // lint:allow(unit-suffix): the negative-binomial clustering α is dimensionless
    pub cluster: f64,
    /// Yield of an 800 mm² 5 nm die under this model.
    pub yield_800mm2_frac: f64,
    /// Smallest Figure 4 grid area where the 2-chiplet MCM beats the SoC.
    pub crossover_mm2: Option<f64>,
}

/// The yield-model ablation result.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldModelAblation {
    /// One row per model variant.
    pub rows: Vec<YieldModelRow>,
}

/// Ablates the yield-model choice: the negative-binomial cluster parameter
/// interpolates between Poisson (`c → ∞`, no clustering, pessimistic for
/// big dies) and heavy clustering (`c = 1`). The paper picks `c = 10`; this
/// study shows how the pick moves the multi-chip turning point.
///
/// # Errors
///
/// Propagates library and cost-engine errors.
pub fn yield_model_ablation(lib: &TechLibrary) -> Result<YieldModelAblation> {
    let variants: [(&str, f64); 3] = [
        ("poisson-like (c=1e6)", 1.0e6),
        ("paper (c=10)", 10.0),
        ("max clustering (c=1)", 1.0),
    ];
    let mut rows = Vec::new();
    for (label, cluster) in variants {
        let snapshot =
            lib.with_modified_node("5nm", |n| n.to_builder().cluster(cluster).build())?;
        let node = snapshot.node("5nm")?;
        let yield_800mm2_frac = node.die_yield(Area::from_mm2(800.0)?).value();
        // Discrete crossover on the Figure 4 grid.
        let mut crossover = None;
        for step in 1..=18 {
            let area = Area::from_mm2(step as f64 * 50.0)?;
            let soc = two_chiplet_re_usd(&snapshot, node, IntegrationKind::Soc, area)?;
            if two_chiplet_re_usd(&snapshot, node, IntegrationKind::Mcm, area)? < soc {
                crossover = Some(area.mm2());
                break;
            }
        }
        rows.push(YieldModelRow {
            label: label.to_string(),
            cluster,
            yield_800mm2_frac,
            crossover_mm2: crossover,
        });
    }
    Ok(YieldModelAblation { rows })
}

impl YieldModelAblation {
    /// The ablation as a table.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(vec!["model", "cluster", "yield@800mm2", "mcm crossover"]);
        for r in &self.rows {
            table.push_row(vec![
                r.label.clone(),
                format!("{:.0}", r.cluster),
                pct(r.yield_800mm2_frac),
                r.crossover_mm2
                    .map_or("none".to_string(), |a| format!("{a:.0} mm²")),
            ]);
        }
        table
    }

    /// Claims about the yield-model choice.
    pub fn checks(&self) -> Vec<ShapeCheck> {
        let mut checks = Vec::new();
        if self.rows.len() == 3 {
            let (poisson, paper, clustered) = (&self.rows[0], &self.rows[1], &self.rows[2]);
            checks.push(ShapeCheck::new(
                "clustering raises large-die yield (Poisson < NB(10) < NB(1))",
                "monotone in clustering",
                format!(
                    "{} < {} < {}",
                    pct(poisson.yield_800mm2_frac),
                    pct(paper.yield_800mm2_frac),
                    pct(clustered.yield_800mm2_frac)
                ),
                poisson.yield_800mm2_frac < paper.yield_800mm2_frac
                    && paper.yield_800mm2_frac < clustered.yield_800mm2_frac,
            ));
            let cross = |r: &YieldModelRow| r.crossover_mm2.unwrap_or(f64::INFINITY);
            checks.push(ShapeCheck::new(
                "a pessimistic yield model moves the multi-chip turning point earlier",
                "crossover(poisson) ≤ crossover(paper) ≤ crossover(clustered)",
                format!(
                    "{:.0} / {:.0} / {:.0} mm²",
                    cross(poisson),
                    cross(paper),
                    cross(clustered)
                ),
                cross(poisson) <= cross(paper) && cross(paper) <= cross(clustered),
            ));
        }
        checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> TechLibrary {
        TechLibrary::paper_defaults().unwrap()
    }

    #[test]
    fn maturity_study_claims_hold() {
        let study = maturity_study(&lib()).unwrap();
        assert_eq!(study.rows.len(), 7);
        for c in study.checks() {
            assert!(c.pass, "{c}");
        }
        assert!(study.to_table().row_count() == 7);
    }

    #[test]
    fn maturity_defect_density_follows_ramp() {
        let study = maturity_study(&lib()).unwrap();
        assert!((study.rows[0].defect_density - 0.13).abs() < 1e-9);
        assert!(study.rows.last().unwrap().defect_density < 0.06);
    }

    #[test]
    fn harvest_study_claims_hold() {
        let study = harvest_study(&lib()).unwrap();
        assert_eq!(study.rows.len(), 5);
        for c in study.checks() {
            assert!(c.pass, "{c}");
        }
        assert_eq!(study.to_table().row_count(), 5);
    }

    #[test]
    fn harvest_costs_decrease_with_looser_bins() {
        let study = harvest_study(&lib()).unwrap();
        for pair in study.rows.windows(2) {
            assert!(pair[1].ccd_cost_usd <= pair[0].ccd_cost_usd + 1e-9);
            assert!(pair[1].mono_cost_usd <= pair[0].mono_cost_usd + 1e-9);
        }
    }

    #[test]
    fn yield_model_ablation_claims_hold() {
        let ablation = yield_model_ablation(&lib()).unwrap();
        assert_eq!(ablation.rows.len(), 3);
        for c in ablation.checks() {
            assert!(c.pass, "{c}");
        }
        assert_eq!(ablation.to_table().row_count(), 3);
    }

    #[test]
    fn yield_model_ablation_poisson_limit() {
        let ablation = yield_model_ablation(&lib()).unwrap();
        // c = 1e6 ≈ Poisson: e^(−0.88) ≈ 0.4148 at 800 mm², D = 0.11.
        let poisson_row = &ablation.rows[0];
        assert!(
            (poisson_row.yield_800mm2_frac - (-0.88f64).exp()).abs() < 1e-3,
            "{}",
            poisson_row.yield_800mm2_frac
        );
    }
}
