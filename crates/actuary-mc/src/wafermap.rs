//! ASCII wafer maps: a visual rendering of the simulated defect process.
//!
//! Under the compound Gamma-Poisson process ([`DefectProcess::CompoundGamma`])
//! defects cluster — some wafers are nearly clean, others are riddled. A
//! wafer map makes that visible and gives the tests something mechanical to
//! assert: the per-wafer good-die variance must exceed the independent
//! (Bernoulli) case.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use actuary_model::ModelError;
use actuary_tech::ProcessNode;
use actuary_units::Area;
use actuary_yield::DieFootprint;

use crate::factory::DefectProcess;
use crate::sampling::{gamma, poisson};

/// One die site on the wafer map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DieSite {
    /// Off the usable wafer (edge or outside the disc).
    Edge,
    /// A die that passed wafer sort.
    Good,
    /// A die with at least one killer defect.
    Bad,
}

/// A simulated wafer: the rectangular grid of die sites.
#[derive(Debug, Clone, PartialEq)]
pub struct WaferMap {
    columns: usize,
    rows: usize,
    sites: Vec<DieSite>,
    defect_multiplier: f64,
}

impl WaferMap {
    /// Simulates one wafer of dies of `die_area` on `node`, drawing defects
    /// per `process`. Deterministic for a given `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Yield`] if the die does not fit the wafer.
    pub fn simulate(
        node: &ProcessNode,
        die_area: Area,
        process: DefectProcess,
        seed: u64,
    ) -> Result<WaferMap, ModelError> {
        let footprint = DieFootprint::square_of_area(die_area)?;
        let wafer = node.wafer();
        let radius = wafer.usable_diameter_mm() / 2.0;
        let pitch_x = footprint.width_mm() + wafer.scribe_lane_mm();
        let pitch_y = footprint.height_mm() + wafer.scribe_lane_mm();
        if footprint.width_mm() * std::f64::consts::SQRT_2 > wafer.usable_diameter_mm() {
            // Reuse the geometry error path for impossible dies.
            wafer.dies_per_wafer(die_area)?;
        }

        let mut rng = StdRng::seed_from_u64(seed);
        let lambda = node.defect_density().expected_defects(die_area);
        let multiplier = match process {
            DefectProcess::Bernoulli => 1.0,
            DefectProcess::CompoundGamma => gamma(&mut rng, node.cluster()) / node.cluster(),
        };
        let marginal = node.die_yield(die_area).value();

        let half_cols = (radius / pitch_x).ceil() as i64;
        let half_rows = (radius / pitch_y).ceil() as i64;
        let columns = (2 * half_cols) as usize;
        let rows = (2 * half_rows) as usize;
        let r2 = radius * radius;
        let mut sites = Vec::with_capacity(columns * rows);
        for j in -half_rows..half_rows {
            let y1 = j as f64 * pitch_y;
            let y2 = y1 + footprint.height_mm();
            let y_extent = y1.abs().max(y2.abs());
            for i in -half_cols..half_cols {
                let x1 = i as f64 * pitch_x;
                let x2 = x1 + footprint.width_mm();
                let x_extent = x1.abs().max(x2.abs());
                if x_extent * x_extent + y_extent * y_extent > r2 {
                    sites.push(DieSite::Edge);
                    continue;
                }
                let good = match process {
                    DefectProcess::Bernoulli => rng.gen::<f64>() < marginal,
                    DefectProcess::CompoundGamma => poisson(&mut rng, lambda * multiplier) == 0,
                };
                sites.push(if good { DieSite::Good } else { DieSite::Bad });
            }
        }
        Ok(WaferMap {
            columns,
            rows,
            sites,
            defect_multiplier: multiplier,
        })
    }

    /// Grid width in dies.
    pub fn columns(&self) -> usize {
        self.columns
    }

    /// Grid height in dies.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The site at `(column, row)`, or `None` out of range.
    pub fn site(&self, column: usize, row: usize) -> Option<DieSite> {
        if column < self.columns && row < self.rows {
            Some(self.sites[row * self.columns + column])
        } else {
            None
        }
    }

    /// Number of placed dies (non-edge sites).
    pub fn dies(&self) -> usize {
        self.sites.iter().filter(|s| **s != DieSite::Edge).count()
    }

    /// Number of good dies.
    pub fn good_dies(&self) -> usize {
        self.sites.iter().filter(|s| **s == DieSite::Good).count()
    }

    /// Wafer-level yield: good / placed.
    pub fn wafer_yield(&self) -> f64 {
        let dies = self.dies();
        if dies == 0 {
            0.0
        } else {
            self.good_dies() as f64 / dies as f64
        }
    }

    /// The wafer's Gamma defect-rate multiplier (1.0 under Bernoulli).
    pub fn defect_multiplier(&self) -> f64 {
        self.defect_multiplier
    }

    /// Renders the map: `.` good, `X` bad, space off-wafer.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity((self.columns + 1) * self.rows + 64);
        for row in 0..self.rows {
            for col in 0..self.columns {
                out.push(match self.sites[row * self.columns + col] {
                    DieSite::Edge => ' ',
                    DieSite::Good => '.',
                    DieSite::Bad => 'X',
                });
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "{} dies, {} good ({:.1}% wafer yield)\n",
            self.dies(),
            self.good_dies(),
            self.wafer_yield() * 100.0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actuary_tech::TechLibrary;

    fn node() -> actuary_tech::ProcessNode {
        TechLibrary::paper_defaults()
            .unwrap()
            .node("7nm")
            .unwrap()
            .clone()
    }

    fn area(mm2: f64) -> Area {
        Area::from_mm2(mm2).unwrap()
    }

    #[test]
    fn map_die_count_close_to_analytic() {
        let n = node();
        let map = WaferMap::simulate(&n, area(100.0), DefectProcess::Bernoulli, 1).unwrap();
        let analytic = n.wafer().dies_per_wafer(area(100.0)).unwrap();
        let ratio = map.dies() as f64 / analytic;
        assert!(
            (0.85..=1.1).contains(&ratio),
            "map {} vs analytic {analytic} ({ratio})",
            map.dies()
        );
    }

    #[test]
    fn map_yield_close_to_marginal() {
        let n = node();
        // Average many wafers so the estimate is tight.
        let mut good = 0usize;
        let mut total = 0usize;
        for seed in 0..30 {
            let map = WaferMap::simulate(&n, area(200.0), DefectProcess::Bernoulli, seed).unwrap();
            good += map.good_dies();
            total += map.dies();
        }
        let empirical = good as f64 / total as f64;
        let marginal = n.die_yield(area(200.0)).value();
        assert!(
            (empirical - marginal).abs() < 0.02,
            "empirical {empirical} vs marginal {marginal}"
        );
    }

    #[test]
    fn clustered_wafers_vary_more() {
        let n = node();
        let yields = |process: DefectProcess| -> Vec<f64> {
            (0..60)
                .map(|seed| {
                    WaferMap::simulate(&n, area(300.0), process, seed)
                        .unwrap()
                        .wafer_yield()
                })
                .collect()
        };
        let var = |xs: &[f64]| {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64
        };
        let v_bernoulli = var(&yields(DefectProcess::Bernoulli));
        let v_clustered = var(&yields(DefectProcess::CompoundGamma));
        assert!(
            v_clustered > 3.0 * v_bernoulli,
            "clustering must dominate wafer-to-wafer variance: {v_clustered} vs {v_bernoulli}"
        );
    }

    #[test]
    fn render_shape() {
        let n = node();
        let map = WaferMap::simulate(&n, area(400.0), DefectProcess::Bernoulli, 7).unwrap();
        let text = map.render();
        assert!(text.contains('.'));
        assert!(text.contains("wafer yield"));
        assert_eq!(text.lines().count(), map.rows() + 1);
    }

    #[test]
    fn site_accessor_bounds() {
        let n = node();
        let map = WaferMap::simulate(&n, area(400.0), DefectProcess::Bernoulli, 7).unwrap();
        assert!(map.site(0, 0).is_some());
        assert!(map.site(map.columns(), 0).is_none());
        assert!(map.site(0, map.rows()).is_none());
        // Corners of the square grid lie outside the disc.
        assert_eq!(map.site(0, 0), Some(DieSite::Edge));
    }

    #[test]
    fn determinism() {
        let n = node();
        let a = WaferMap::simulate(&n, area(250.0), DefectProcess::CompoundGamma, 5).unwrap();
        let b = WaferMap::simulate(&n, area(250.0), DefectProcess::CompoundGamma, 5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn oversized_die_rejected() {
        let n = node();
        assert!(WaferMap::simulate(&n, area(80_000.0), DefectProcess::Bernoulli, 1).is_err());
    }
}
