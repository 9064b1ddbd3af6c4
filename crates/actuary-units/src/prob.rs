use std::fmt;
use std::ops::Mul;

use crate::error::UnitError;

/// A probability in `[0, 1]`, used for yields of dies, bonds and packages.
///
/// Multiplying two probabilities models independent serial process steps,
/// exactly the continuous multiplication of the paper's Eq. (2):
/// `Y_overall = Y_wafer × Y_die × Y_packaging × Y_test`.
///
/// # Examples
///
/// ```
/// use actuary_units::Prob;
///
/// # fn main() -> Result<(), actuary_units::UnitError> {
/// let bond = Prob::new(0.99)?;
/// // Bonding four chips in series:
/// let all_four = bond.powi(4);
/// assert!((all_four.value() - 0.99f64.powi(4)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Prob(f64);

impl Prob {
    /// The certain event (yield 100 %).
    pub const ONE: Prob = Prob(1.0);

    /// The impossible event (yield 0 %).
    pub const ZERO: Prob = Prob(0.0);

    /// Creates a probability.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::InvalidProbability`] if `p` is outside `[0, 1]`
    /// or not finite.
    pub fn new(p: f64) -> Result<Self, UnitError> {
        if p.is_finite() && (0.0..=1.0).contains(&p) {
            Ok(Prob(p))
        } else {
            Err(UnitError::InvalidProbability { value: p })
        }
    }

    /// Creates a probability from a percentage (e.g. `99.0` → `0.99`).
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::InvalidProbability`] if the percentage is outside
    /// `[0, 100]` or not finite.
    pub fn from_percent(pct: f64) -> Result<Self, UnitError> {
        Self::new(pct / 100.0)
    }

    /// The raw probability value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// The probability as a percentage.
    #[inline]
    pub fn percent(self) -> f64 {
        self.0 * 100.0
    }

    /// Complementary probability `1 - p` (e.g. the defect rate of a yield).
    #[inline]
    pub fn complement(self) -> Prob {
        Prob(1.0 - self.0)
    }

    /// Raises the probability to a non-negative integer power, modelling `n`
    /// independent serial steps (e.g. bonding `n` chips: `y₂ⁿ` in Eq. (4)).
    #[inline]
    pub fn powi(self, n: u32) -> Prob {
        Prob(self.0.powi(n as i32))
    }

    /// Reciprocal `1 / p`, the expected number of attempts until success.
    ///
    /// This is the factor that inflates a raw cost into a yielded cost
    /// (`Cost / Y` in Eq. (5)).
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::DivisionByZero`] if the probability is zero.
    pub fn reciprocal(self) -> Result<f64, UnitError> {
        if self.0 == 0.0 {
            Err(UnitError::DivisionByZero {
                context: "inverting a zero yield",
            })
        } else {
            Ok(1.0 / self.0)
        }
    }

    /// The yielded-cost inflation factor `1/p − 1`, i.e. the *extra* cost per
    /// good unit caused by failing units (the defect terms of Eq. (4)).
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::DivisionByZero`] if the probability is zero.
    pub fn waste_factor(self) -> Result<f64, UnitError> {
        Ok(self.reciprocal()? - 1.0)
    }

    /// Returns `true` if the probability is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl fmt::Display for Prob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prec = f.precision().unwrap_or(2);
        write!(f, "{:.*}%", prec, self.0 * 100.0)
    }
}

impl Mul for Prob {
    type Output = Prob;

    fn mul(self, rhs: Prob) -> Prob {
        Prob(self.0 * rhs.0)
    }
}

impl Mul<f64> for Prob {
    type Output = f64;

    fn mul(self, rhs: f64) -> f64 {
        self.0 * rhs
    }
}

impl Default for Prob {
    /// Defaults to the certain event, the identity of serial composition.
    fn default() -> Self {
        Prob::ONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_validate() {
        assert!(Prob::new(0.0).is_ok());
        assert!(Prob::new(1.0).is_ok());
        assert!(Prob::new(0.5).is_ok());
        assert!(Prob::new(-0.1).is_err());
        assert!(Prob::new(1.1).is_err());
        assert!(Prob::new(f64::NAN).is_err());
        assert_eq!(Prob::from_percent(99.0).unwrap().value(), 0.99);
        assert!(Prob::from_percent(150.0).is_err());
    }

    #[test]
    fn serial_composition() {
        let y_die = Prob::new(0.9).unwrap();
        let y_pkg = Prob::new(0.95).unwrap();
        let overall = y_die * y_pkg;
        assert!((overall.value() - 0.855).abs() < 1e-12);
    }

    #[test]
    fn powi_models_repeated_bonding() {
        let bond = Prob::new(0.99).unwrap();
        assert!((bond.powi(4).value() - 0.960596_01).abs() < 1e-8);
        assert_eq!(bond.powi(0), Prob::ONE);
    }

    #[test]
    fn waste_factor_matches_reciprocal() {
        let y = Prob::new(0.8).unwrap();
        assert!((y.reciprocal().unwrap() - 1.25).abs() < 1e-12);
        assert!((y.waste_factor().unwrap() - 0.25).abs() < 1e-12);
        assert!(Prob::ZERO.reciprocal().is_err());
        assert!(Prob::ZERO.waste_factor().is_err());
    }

    #[test]
    fn complement() {
        let y = Prob::new(0.97).unwrap();
        assert!((y.complement().value() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn display_as_percent() {
        let y = Prob::new(0.876).unwrap();
        assert_eq!(format!("{y}"), "87.60%");
        assert_eq!(format!("{y:.0}"), "88%");
    }

    #[test]
    fn default_is_identity() {
        let y = Prob::new(0.42).unwrap();
        assert_eq!((y * Prob::default()).value(), y.value());
    }

    proptest! {
        #[test]
        fn product_stays_in_range(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
            let p = Prob::new(a).unwrap() * Prob::new(b).unwrap();
            prop_assert!((0.0..=1.0).contains(&p.value()));
        }

        #[test]
        fn powi_monotone_decreasing(a in 0.01f64..1.0, n in 1u32..50) {
            let p = Prob::new(a).unwrap();
            prop_assert!(p.powi(n + 1).value() <= p.powi(n).value());
        }

        #[test]
        fn complement_involution(a in 0.0f64..=1.0) {
            let p = Prob::new(a).unwrap();
            prop_assert!((p.complement().complement().value() - a).abs() < 1e-12);
        }
    }
}
