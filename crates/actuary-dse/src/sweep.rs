//! The result type of a parameter sweep: one swept axis (area or
//! quantity), one named series per curve, one sampled point per axis
//! value. The scenario layer's `[[sweep]]` job samples the points and
//! builds the [`Sweep`]; this module reads it back (crossovers, series,
//! the CSV [`Artifact`]).

use actuary_units::Artifact;

/// One sampled point of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The swept parameter value (mm² or units, depending on the sweep).
    // lint:allow(unit-suffix): the axis unit is the sweep's own, named by x_label
    pub x: f64,
    /// One value per configured series, in series order.
    pub values: Vec<f64>,
}

/// A completed sweep: series names plus sampled points.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    series: Vec<String>,
    points: Vec<SweepPoint>,
    x_label: String,
}

impl Sweep {
    /// A sweep over the axis named `x_label`, with one value per series
    /// at every point, in series order.
    ///
    /// # Examples
    ///
    /// ```
    /// use actuary_dse::sweep::{Sweep, SweepPoint};
    ///
    /// let points = [100.0, 200.0, 300.0]
    ///     .map(|x| SweepPoint { x, values: vec![x, x * x] })
    ///     .to_vec();
    /// let sweep = Sweep::new("area_mm2", vec!["linear".into(), "quadratic".into()], points);
    /// assert_eq!(sweep.series_values("quadratic").unwrap()[1], (200.0, 40_000.0));
    /// ```
    pub fn new(x_label: impl Into<String>, series: Vec<String>, points: Vec<SweepPoint>) -> Self {
        debug_assert!(points.iter().all(|p| p.values.len() == series.len()));
        Sweep {
            series,
            points,
            x_label: x_label.into(),
        }
    }

    /// The series names.
    pub fn series(&self) -> &[String] {
        &self.series
    }

    /// The sampled points in x order.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// The label of the swept parameter.
    pub fn x_label(&self) -> &str {
        &self.x_label
    }

    /// The values of one series across the sweep.
    ///
    /// Returns `None` if the series name is unknown.
    pub fn series_values(&self, name: &str) -> Option<Vec<(f64, f64)>> {
        let idx = self.series.iter().position(|s| s == name)?;
        Some(self.points.iter().map(|p| (p.x, p.values[idx])).collect())
    }

    /// The first point (in x order) where series `a` drops below series
    /// `b` *after* having been at or above it — a discrete sign-change
    /// detector.
    ///
    /// A series that simply starts below the other never crossed it, so no
    /// point is reported (use [`Sweep::first_below`] for the weaker "first
    /// point where `a < b`" question). Returns `None` if either series name
    /// is unknown or no sign change occurs on the grid.
    pub fn first_crossover(&self, a: &str, b: &str) -> Option<f64> {
        let ia = self.series.iter().position(|s| s == a)?;
        let ib = self.series.iter().position(|s| s == b)?;
        let mut was_at_or_above = false;
        for p in &self.points {
            if p.values[ia] < p.values[ib] {
                if was_at_or_above {
                    return Some(p.x);
                }
            } else {
                was_at_or_above = true;
            }
        }
        None
    }

    /// The first point (in x order) where series `a` is below series `b`,
    /// whether or not `a` was ever at or above `b` before it.
    ///
    /// Returns `None` if either series name is unknown or `a` never drops
    /// below `b`.
    pub fn first_below(&self, a: &str, b: &str) -> Option<f64> {
        let ia = self.series.iter().position(|s| s == a)?;
        let ib = self.series.iter().position(|s| s == b)?;
        self.points
            .iter()
            .find(|p| p.values[ia] < p.values[ib])
            .map(|p| p.x)
    }

    /// The sweep as a streaming [`Artifact`] (kind `"sweep"`): the x
    /// column plus one column per series, one row per sampled point.
    pub fn artifact(&self, name: impl Into<String>) -> Artifact<'_> {
        let mut columns: Vec<&str> = Vec::with_capacity(1 + self.series.len());
        columns.push(self.x_label.as_str());
        columns.extend(self.series.iter().map(String::as_str));
        Artifact::new(name, "sweep", &columns, move |emit| {
            for p in &self.points {
                let mut row = Vec::with_capacity(1 + p.values.len());
                row.push(format!("{}", p.x));
                row.extend(p.values.iter().map(|v| format!("{v:.6}")));
                emit(&row.iter().map(String::as_str).collect::<Vec<_>>())?;
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actuary_model::{equal_split_re_cost, AssemblyFlow};
    use actuary_tech::{IntegrationKind, TechLibrary};
    use actuary_units::Area;

    /// A sweep over `xs` with one series per `(name, f)` pair.
    fn sampled(x_label: &str, xs: &[f64], series: &[(&str, &dyn Fn(f64) -> f64)]) -> Sweep {
        let points = xs
            .iter()
            .map(|&x| SweepPoint {
                x,
                values: series.iter().map(|(_, f)| f(x)).collect(),
            })
            .collect();
        let names = series.iter().map(|(name, _)| name.to_string()).collect();
        Sweep::new(x_label, names, points)
    }

    #[test]
    fn area_sweep_basics() {
        let sweep = sampled("area_mm2", &[10.0, 20.0], &[("id", &|a| a)]);
        assert_eq!(sweep.points().len(), 2);
        assert_eq!(
            sweep.series_values("id").unwrap(),
            vec![(10.0, 10.0), (20.0, 20.0)]
        );
        assert!(sweep.series_values("nope").is_none());
        assert_eq!(sweep.x_label(), "area_mm2");
    }

    #[test]
    fn csv_output_shape() {
        let sweep = sampled("quantity", &[100.0, 200.0], &[("cost", &|q| 1.0e6 / q)]);
        let artifact = sweep.artifact("s");
        assert_eq!(artifact.name(), "s");
        assert_eq!(artifact.kind(), "sweep");
        let csv = artifact.csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines,
            ["quantity,cost", "100,10000.000000", "200,5000.000000"]
        );
    }

    /// `falling` drops below `flat` at 300 (1000 − 600 = 400 < 500).
    fn falling_and_flat() -> Sweep {
        sampled(
            "area_mm2",
            &[100.0, 200.0, 300.0, 400.0],
            &[("falling", &|a| 1000.0 - 2.0 * a), ("flat", &|_| 500.0)],
        )
    }

    #[test]
    fn crossover_detection() {
        let sweep = falling_and_flat();
        assert_eq!(sweep.first_crossover("falling", "flat"), Some(300.0));
        assert_eq!(sweep.first_crossover("flat", "nope"), None);
        // `first_below` keeps the old "first point where a < b" semantics.
        assert_eq!(sweep.first_below("falling", "flat"), Some(300.0));
        assert_eq!(sweep.first_below("flat", "falling"), Some(100.0));
        assert_eq!(sweep.first_below("flat", "nope"), None);
    }

    #[test]
    fn no_crossover_without_a_sign_change() {
        // Regression: `first_crossover` used to report a "crossover" at the
        // very first grid point when series `a` started below `b`, even
        // though no sign change ever happened.
        let sweep = falling_and_flat();
        // flat starts below falling (500 < 800) and only moves further
        // ahead — flat never drops below falling *after* having been at or
        // above it, so there is no flat-under-falling crossover.
        assert_eq!(sweep.first_crossover("flat", "falling"), None);
        assert_eq!(sweep.first_below("flat", "falling"), Some(100.0));
    }

    /// The paper's Figure 4 turning point, rediscovered with the sweep's
    /// crossover detector.
    #[test]
    fn soc_vs_mcm_sweep_reproduces_turning_point() {
        let lib = TechLibrary::paper_defaults().unwrap();
        let node = lib.node("5nm").unwrap();
        let re = |kind: IntegrationKind| {
            let packaging = lib.packaging(kind).unwrap();
            move |mm2: f64| {
                let area = Area::from_mm2(mm2).unwrap();
                equal_split_re_cost(node, packaging, area, 2, AssemblyFlow::ChipLast)
                    .unwrap()
                    .total()
                    .usd()
            }
        };
        let grid: Vec<f64> = (1..=9).map(|i| i as f64 * 100.0).collect();
        let sweep = sampled(
            "area_mm2",
            &grid,
            &[
                ("mcm2", &re(IntegrationKind::Mcm)),
                ("soc", &re(IntegrationKind::Soc)),
            ],
        );
        let crossover = sweep
            .first_crossover("mcm2", "soc")
            .expect("5nm must cross");
        assert!(
            crossover <= 400.0,
            "5nm MCM should win early, got {crossover}"
        );
    }
}
