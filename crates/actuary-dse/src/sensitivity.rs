//! Parameter sensitivity: elasticities of cost with respect to model knobs.
//!
//! The paper stresses that "applying the model to other cases makes it
//! necessary to include the latest relevant data" (§4); elasticities tell
//! the user *which* data matter. An elasticity of `ε` means a 1 % increase
//! in the parameter moves the cost by about `ε` %.

use actuary_arch::ArchError;

/// Estimates the elasticity `d(ln cost) / d(ln param)` of `cost_at` around
/// `base_value` by central finite differences with relative step `rel_step`
/// (e.g. `0.01` for ±1 %).
///
/// # Errors
///
/// Propagates errors from `cost_at`; rejects non-positive base values,
/// non-positive steps, and non-positive costs (logarithms must exist).
///
/// # Examples
///
/// ```
/// use actuary_dse::sensitivity::elasticity;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // cost = param²  →  elasticity 2.
/// let e = elasticity(3.0, 0.01, |p| Ok(p * p))?;
/// assert!((e - 2.0).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
pub fn elasticity<F>(base_value: f64, rel_step: f64, mut cost_at: F) -> Result<f64, ArchError>
where
    F: FnMut(f64) -> Result<f64, ArchError>,
{
    if !base_value.is_finite() || base_value <= 0.0 {
        return Err(ArchError::InvalidArchitecture {
            reason: format!("elasticity base value {base_value} must be positive"),
        });
    }
    if !rel_step.is_finite() || rel_step <= 0.0 || rel_step >= 1.0 {
        return Err(ArchError::InvalidArchitecture {
            reason: format!("elasticity step {rel_step} must be in (0, 1)"),
        });
    }
    let up = cost_at(base_value * (1.0 + rel_step))?;
    let down = cost_at(base_value * (1.0 - rel_step))?;
    if up <= 0.0 || down <= 0.0 {
        return Err(ArchError::InvalidArchitecture {
            reason: "elasticity requires positive costs".to_string(),
        });
    }
    let dln_cost = up.ln() - down.ln();
    let dln_param = (1.0 + rel_step).ln() - (1.0 - rel_step).ln();
    Ok(dln_cost / dln_param)
}

/// A labelled elasticity, for sensitivity tables.
#[derive(Debug, Clone, PartialEq)]
pub struct Sensitivity {
    /// Parameter name (e.g. `"defect density 5nm"`).
    pub parameter: String,
    /// Base value of the parameter, in whatever unit the parameter itself
    /// carries (USD for wafer prices, /cm² for defect densities, …).
    // lint:allow(unit-suffix): the unit varies with the swept parameter
    pub base_value: f64,
    /// Estimated elasticity at the base value.
    // lint:allow(unit-suffix): elasticities are dimensionless log-log slopes
    pub elasticity: f64,
}

/// Ranks a set of labelled cost functions by the magnitude of their
/// elasticity (largest first).
///
/// # Errors
///
/// Propagates [`elasticity`] errors.
pub fn rank_sensitivities<F>(
    params: Vec<(String, f64)>,
    rel_step: f64,
    mut cost_at: F,
) -> Result<Vec<Sensitivity>, ArchError>
where
    F: FnMut(&str, f64) -> Result<f64, ArchError>,
{
    let mut out = Vec::with_capacity(params.len());
    for (name, base) in params {
        let e = elasticity(base, rel_step, |v| cost_at(&name, v))?;
        out.push(Sensitivity {
            parameter: name,
            base_value: base,
            elasticity: e,
        });
    }
    out.sort_by(|a, b| {
        b.elasticity
            .abs()
            .partial_cmp(&a.elasticity.abs())
            .expect("elasticities are finite")
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use actuary_model::{re_cost, AssemblyFlow, DiePlacement};
    use actuary_tech::{IntegrationKind, TechLibrary};
    use actuary_units::Area;

    #[test]
    fn power_law_elasticities() {
        for k in [0.5, 1.0, 2.0, 3.0] {
            let e = elasticity(2.0, 0.005, |p| Ok(p.powf(k))).unwrap();
            assert!((e - k).abs() < 1e-3, "k={k}: got {e}");
        }
    }

    #[test]
    fn constant_cost_has_zero_elasticity() {
        let e = elasticity(5.0, 0.01, |_| Ok(42.0)).unwrap();
        assert!(e.abs() < 1e-12);
    }

    #[test]
    fn validation() {
        assert!(elasticity(0.0, 0.01, Ok).is_err());
        assert!(elasticity(1.0, 0.0, Ok).is_err());
        assert!(elasticity(1.0, 1.5, Ok).is_err());
        assert!(elasticity(1.0, 0.01, |_| Ok(-1.0)).is_err());
    }

    /// Changing the defect density must matter more for a large 5 nm die
    /// than a small one — the core intuition of the whole paper.
    #[test]
    fn defect_density_elasticity_grows_with_area() {
        let lib = TechLibrary::paper_defaults().unwrap();
        let cost_at = |area_mm2: f64, d: f64| -> Result<f64, ArchError> {
            let modified =
                lib.with_modified_node("5nm", |n| n.to_builder().defect_density(d).build())?;
            let node = modified.node("5nm")?;
            let b = re_cost(
                &[DiePlacement::new(node, Area::from_mm2(area_mm2)?, 1)],
                modified.packaging(IntegrationKind::Soc)?,
                AssemblyFlow::ChipLast,
            )?;
            Ok(b.total().usd())
        };
        let small = elasticity(0.11, 0.01, |d| cost_at(100.0, d)).unwrap();
        let large = elasticity(0.11, 0.01, |d| cost_at(800.0, d)).unwrap();
        assert!(
            large > 2.0 * small,
            "defect sensitivity must grow with area: {small} vs {large}"
        );
        assert!(small > 0.0);
    }

    #[test]
    fn ranking_orders_by_magnitude() {
        let ranked = rank_sensitivities(
            vec![("linear".to_string(), 2.0), ("cubic".to_string(), 2.0)],
            0.005,
            |name, v| Ok(if name == "cubic" { v.powi(3) } else { v }),
        )
        .unwrap();
        assert_eq!(ranked[0].parameter, "cubic");
        assert!((ranked[0].elasticity - 3.0).abs() < 1e-3);
        assert!((ranked[1].elasticity - 1.0).abs() < 1e-3);
    }
}
