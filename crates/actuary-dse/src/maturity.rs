//! Defect-density maturity ramps (yield learning curves).
//!
//! The paper notes that its AMD validation used "relatively high defect
//! density parameters" because 7 nm had "just been massive-produced" when
//! Zen 3 started, and that "as the yield of 7 nm technology improves in
//! recent years, the advantage [of chiplets] is further smaller" (§4.1).
//! This module models that effect: an exponential learning curve
//! `D(t) = D_∞ + (D₀ − D_∞) · exp(−t/τ)` and a helper that replays any
//! study against a library snapshot at process age `t`.

use actuary_arch::ArchError;
use actuary_tech::TechLibrary;
use actuary_yield::DefectDensity;

/// An exponential defect-density learning curve.
///
/// # Examples
///
/// ```
/// use actuary_dse::maturity::DefectRamp;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Early 7 nm (0.13 /cm²) maturing to 0.07 with a 12-month constant.
/// let ramp = DefectRamp::new(0.13, 0.07, 12.0)?;
/// assert!((ramp.density_at(0.0)?.value() - 0.13).abs() < 1e-12);
/// assert!(ramp.density_at(24.0)?.value() < 0.085);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefectRamp {
    initial: f64,
    mature: f64,
    time_constant: f64,
}

impl DefectRamp {
    /// Creates a ramp from `initial` to `mature` defects/cm² with time
    /// constant `time_constant` (same unit as the ages passed to
    /// [`DefectRamp::density_at`], typically months).
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidArchitecture`] if densities are negative,
    /// `mature > initial`, or the time constant is not positive.
    pub fn new(initial: f64, mature: f64, time_constant: f64) -> Result<Self, ArchError> {
        if !initial.is_finite() || initial < 0.0 || !mature.is_finite() || mature < 0.0 {
            return Err(ArchError::InvalidArchitecture {
                reason: format!("ramp densities ({initial}, {mature}) must be non-negative"),
            });
        }
        if mature > initial {
            return Err(ArchError::InvalidArchitecture {
                reason: format!(
                    "mature density {mature} must not exceed initial density {initial}"
                ),
            });
        }
        if !time_constant.is_finite() || time_constant <= 0.0 {
            return Err(ArchError::InvalidArchitecture {
                reason: format!("time constant {time_constant} must be positive"),
            });
        }
        Ok(DefectRamp {
            initial,
            mature,
            time_constant,
        })
    }

    /// Defect density at process age `t`.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidArchitecture`] for a negative age.
    pub fn density_at(&self, t: f64) -> Result<DefectDensity, ArchError> {
        if !t.is_finite() || t < 0.0 {
            return Err(ArchError::InvalidArchitecture {
                reason: format!("process age {t} must be non-negative"),
            });
        }
        let d = self.mature + (self.initial - self.mature) * (-t / self.time_constant).exp();
        Ok(DefectDensity::per_cm2(d)?)
    }

    /// The initial (process-launch) density.
    pub fn initial(&self) -> f64 {
        self.initial
    }

    /// The asymptotic mature density.
    pub fn mature(&self) -> f64 {
        self.mature
    }
}

/// Returns a library snapshot with `node_id`'s defect density replaced by
/// the ramp value at age `t` — everything else untouched.
///
/// # Errors
///
/// Propagates ramp and library errors.
pub fn library_at_age(
    lib: &TechLibrary,
    node_id: &str,
    ramp: &DefectRamp,
    t: f64,
) -> Result<TechLibrary, ArchError> {
    let d = ramp.density_at(t)?;
    Ok(lib.with_modified_node(node_id, |n| {
        n.to_builder().defect_density(d.value()).build()
    })?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use actuary_model::{equal_split_re_cost, AssemblyFlow};
    use actuary_tech::IntegrationKind;
    use actuary_units::Area;

    #[test]
    fn ramp_validates() {
        assert!(DefectRamp::new(0.13, 0.07, 12.0).is_ok());
        assert!(DefectRamp::new(-0.1, 0.07, 12.0).is_err());
        assert!(
            DefectRamp::new(0.07, 0.13, 12.0).is_err(),
            "mature above initial"
        );
        assert!(DefectRamp::new(0.13, 0.07, 0.0).is_err());
        let ramp = DefectRamp::new(0.13, 0.07, 12.0).unwrap();
        assert!(ramp.density_at(-1.0).is_err());
    }

    #[test]
    fn ramp_is_monotone_decreasing_to_mature() {
        let ramp = DefectRamp::new(0.13, 0.07, 12.0).unwrap();
        let mut last = f64::INFINITY;
        for month in 0..60 {
            let d = ramp.density_at(month as f64).unwrap().value();
            assert!(d <= last);
            assert!(d >= 0.07);
            last = d;
        }
        // Far in the future the density approaches the mature value.
        let end = ramp.density_at(600.0).unwrap().value();
        assert!((end - 0.07).abs() < 1e-6);
        assert_eq!(ramp.initial(), 0.13);
        assert_eq!(ramp.mature(), 0.07);
    }

    #[test]
    fn chiplet_advantage_shrinks_as_process_matures() {
        // The paper's §4.1 observation, reproduced mechanically: the
        // relative saving of 2 chiplets vs monolithic at 7 nm / 600 mm²
        // shrinks as D(t) falls.
        let lib = TechLibrary::paper_defaults().unwrap();
        let ramp = DefectRamp::new(0.13, 0.05, 12.0).unwrap();
        let saving_at = |t: f64| -> f64 {
            let snapshot = library_at_age(&lib, "7nm", &ramp, t).unwrap();
            let node = snapshot.node("7nm").unwrap();
            let re = |kind| {
                let packaging = snapshot.packaging(kind).unwrap();
                let area = Area::from_mm2(600.0).unwrap();
                equal_split_re_cost(node, packaging, area, 2, AssemblyFlow::ChipLast)
                    .unwrap()
                    .total()
                    .usd()
            };
            let (soc, mcm) = (re(IntegrationKind::Soc), re(IntegrationKind::Mcm));
            (soc - mcm) / soc
        };
        let early = saving_at(0.0);
        let late = saving_at(36.0);
        assert!(
            late < early,
            "chiplet saving must shrink with maturity: {early:.3} → {late:.3}"
        );
        assert!(early > 0.0, "chiplets must win on an immature process");
    }
}
