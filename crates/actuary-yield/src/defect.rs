use std::fmt;

use actuary_units::Area;

use crate::error::YieldError;

/// Manufacturing defect density in defects per cm² — the `D` of the paper's
/// Eq. (1).
///
/// The paper quotes (Figure 2): 3 nm → 0.20, 5 nm → 0.11, 7 nm → 0.09,
/// 14 nm → 0.08, fan-out RDL → 0.05, silicon interposer → 0.06; and for the
/// AMD validation of Figure 5: early 7 nm → 0.13, GF 12 nm → 0.12.
///
/// # Examples
///
/// ```
/// use actuary_units::Area;
/// use actuary_yield::DefectDensity;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d = DefectDensity::per_cm2(0.09)?;
/// let expected = d.expected_defects(Area::from_mm2(800.0)?);
/// assert!((expected - 0.72).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct DefectDensity(f64);

impl DefectDensity {
    /// A perfect process with zero defects.
    pub const ZERO: DefectDensity = DefectDensity(0.0);

    /// Creates a defect density from a defects/cm² figure.
    ///
    /// # Errors
    ///
    /// Returns [`YieldError::InvalidDefectDensity`] if `d` is negative, NaN
    /// or infinite.
    pub fn per_cm2(d: f64) -> Result<Self, YieldError> {
        if d.is_finite() && d >= 0.0 {
            Ok(DefectDensity(d))
        } else {
            Err(YieldError::InvalidDefectDensity { value: d })
        }
    }

    /// The density in defects/cm².
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// The dimensionless expected defect count `D · S` for a die of the given
    /// area — the exponent of every classical yield model.
    #[inline]
    pub fn expected_defects(self, die: Area) -> f64 {
        self.0 * die.cm2()
    }

    /// Scales the density by a non-negative factor (used by maturity ramps
    /// where `D` decreases as a process ages).
    ///
    /// # Errors
    ///
    /// Returns [`YieldError::InvalidDefectDensity`] if the scaled value is
    /// negative or not finite.
    pub fn scaled(self, factor: f64) -> Result<Self, YieldError> {
        Self::per_cm2(self.0 * factor)
    }
}

impl fmt::Display for DefectDensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prec = f.precision().unwrap_or(2);
        write!(f, "{:.*} /cm²", prec, self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn validation() {
        assert!(DefectDensity::per_cm2(0.0).is_ok());
        assert!(DefectDensity::per_cm2(0.2).is_ok());
        assert!(DefectDensity::per_cm2(-0.01).is_err());
        assert!(DefectDensity::per_cm2(f64::NAN).is_err());
    }

    #[test]
    fn expected_defects_uses_cm2() {
        let d = DefectDensity::per_cm2(0.11).unwrap();
        let s = Area::from_mm2(100.0).unwrap(); // 1 cm²
        assert!((d.expected_defects(s) - 0.11).abs() < 1e-15);
    }

    #[test]
    fn display() {
        let d = DefectDensity::per_cm2(0.09).unwrap();
        assert_eq!(d.to_string(), "0.09 /cm²");
    }

    #[test]
    fn scaling_for_maturity_ramp() {
        let d = DefectDensity::per_cm2(0.13).unwrap();
        let matured = d.scaled(0.5).unwrap();
        assert!((matured.value() - 0.065).abs() < 1e-15);
        assert!(d.scaled(-1.0).is_err());
    }

    proptest! {
        #[test]
        fn expected_defects_linear_in_area(d in 0.0f64..2.0, s in 0.0f64..2000.0) {
            let dd = DefectDensity::per_cm2(d).unwrap();
            let a1 = Area::from_mm2(s).unwrap();
            let a2 = Area::from_mm2(2.0 * s).unwrap();
            let e1 = dd.expected_defects(a1);
            let e2 = dd.expected_defects(a2);
            prop_assert!((e2 - 2.0 * e1).abs() < 1e-9);
        }
    }
}
