use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::error::UnitError;
use crate::fmt::fmt_thousands;
use crate::quantity::Quantity;

/// A monetary amount in US dollars.
///
/// Wafer prices, mask-set prices, NRE budgets and per-system costs are all
/// [`Money`]. The value is a finite `f64`; negative amounts are permitted
/// because cost *differences* (savings) are meaningful, but constructors
/// reject NaN and infinities.
///
/// Most figures in the paper are *normalized* costs; [`Money::normalized_to`]
/// produces the dimensionless ratio used for reporting.
///
/// # Examples
///
/// ```
/// use actuary_units::{Money, Quantity};
///
/// # fn main() -> Result<(), actuary_units::UnitError> {
/// let nre = Money::from_usd(30_000_000.0)?;
/// let per_unit = nre.amortize(Quantity::new(2_000_000))?;
/// assert_eq!(per_unit.usd(), 15.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Money(f64);

impl Money {
    /// The zero amount.
    pub const ZERO: Money = Money(0.0);

    /// Creates an amount from US dollars.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::InvalidMoney`] if `usd` is NaN or infinite.
    pub fn from_usd(usd: f64) -> Result<Self, UnitError> {
        if usd.is_finite() {
            Ok(Money(usd))
        } else {
            Err(UnitError::InvalidMoney { value: usd })
        }
    }

    /// Creates an amount from millions of US dollars.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::InvalidMoney`] if the value is NaN or infinite.
    pub fn from_musd(millions: f64) -> Result<Self, UnitError> {
        Self::from_usd(millions * 1.0e6)
    }

    /// The amount in US dollars.
    #[inline]
    pub fn usd(self) -> f64 {
        self.0
    }

    /// The amount in millions of US dollars.
    #[inline]
    pub fn musd(self) -> f64 {
        self.0 / 1.0e6
    }

    /// Returns `true` if the amount is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Returns `true` if the amount is negative (a saving).
    #[inline]
    pub fn is_negative(self) -> bool {
        self.0 < 0.0
    }

    /// Returns the smaller of two amounts.
    #[inline]
    pub fn min(self, other: Money) -> Money {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two amounts.
    #[inline]
    pub fn max(self, other: Money) -> Money {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Dimensionless ratio `self / reference`, the normalization used in all
    /// of the paper's figures.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::DivisionByZero`] if `reference` is zero.
    pub fn normalized_to(self, reference: Money) -> Result<f64, UnitError> {
        if reference.is_zero() {
            Err(UnitError::DivisionByZero {
                context: "normalizing a cost",
            })
        } else {
            Ok(self.0 / reference.0)
        }
    }

    /// Spreads a one-time (NRE) cost over a production quantity, yielding the
    /// per-unit amortized amount (§2.3 of the paper).
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::DivisionByZero`] if `quantity` is zero.
    pub fn amortize(self, quantity: Quantity) -> Result<Money, UnitError> {
        if quantity.is_zero() {
            Err(UnitError::DivisionByZero {
                context: "amortizing NRE over zero units",
            })
        } else {
            Ok(Money(self.0 / quantity.count() as f64))
        }
    }

    /// Scales the amount by a dimensionless factor.
    #[inline]
    pub fn scaled(self, factor: f64) -> Money {
        Money(self.0 * factor)
    }
}

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (sign, magnitude) = if self.0 < 0.0 {
            ("-", -self.0)
        } else {
            ("", self.0)
        };
        let cents = (magnitude * 100.0).round() / 100.0;
        let whole = cents.trunc();
        let frac = ((cents - whole) * 100.0).round() as u64;
        write!(f, "{sign}${}", fmt_thousands(whole as u64))?;
        if frac > 0 {
            write!(f, ".{frac:02}")?;
        }
        Ok(())
    }
}

impl Add for Money {
    type Output = Money;

    fn add(self, rhs: Money) -> Money {
        Money(self.0 + rhs.0)
    }
}

impl AddAssign for Money {
    fn add_assign(&mut self, rhs: Money) {
        self.0 += rhs.0;
    }
}

impl Sub for Money {
    type Output = Money;

    fn sub(self, rhs: Money) -> Money {
        Money(self.0 - rhs.0)
    }
}

impl SubAssign for Money {
    fn sub_assign(&mut self, rhs: Money) {
        self.0 -= rhs.0;
    }
}

impl Neg for Money {
    type Output = Money;

    fn neg(self) -> Money {
        Money(-self.0)
    }
}

impl Mul<f64> for Money {
    type Output = Money;

    fn mul(self, rhs: f64) -> Money {
        Money(self.0 * rhs)
    }
}

impl Mul<Money> for f64 {
    type Output = Money;

    fn mul(self, rhs: Money) -> Money {
        Money(self * rhs.0)
    }
}

impl Div<f64> for Money {
    type Output = Money;

    fn div(self, rhs: f64) -> Money {
        Money(self.0 / rhs)
    }
}

impl Div<Money> for Money {
    type Output = f64;

    fn div(self, rhs: Money) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        iter.fold(Money::ZERO, |acc, m| acc + m)
    }
}

impl<'a> Sum<&'a Money> for Money {
    fn sum<I: Iterator<Item = &'a Money>>(iter: I) -> Money {
        iter.copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_validate() {
        assert!(Money::from_usd(0.0).is_ok());
        assert!(Money::from_usd(-5.0).is_ok(), "savings are negative money");
        assert!(Money::from_usd(f64::NAN).is_err());
        assert!(Money::from_usd(f64::NEG_INFINITY).is_err());
        assert_eq!(Money::from_musd(2.5).unwrap().usd(), 2_500_000.0);
    }

    #[test]
    fn amortization_divides_by_quantity() {
        let nre = Money::from_usd(1_000_000.0).unwrap();
        let per_unit = nre.amortize(Quantity::new(500_000)).unwrap();
        assert_eq!(per_unit.usd(), 2.0);
        assert!(nre.amortize(Quantity::new(0)).is_err());
    }

    #[test]
    fn normalization() {
        let a = Money::from_usd(150.0).unwrap();
        let b = Money::from_usd(100.0).unwrap();
        assert_eq!(a.normalized_to(b).unwrap(), 1.5);
        assert!(a.normalized_to(Money::ZERO).is_err());
    }

    #[test]
    fn display_with_thousands_separator() {
        assert_eq!(Money::from_usd(16_988.0).unwrap().to_string(), "$16,988");
        assert_eq!(
            Money::from_usd(1234567.5).unwrap().to_string(),
            "$1,234,567.50"
        );
        assert_eq!(Money::from_usd(-42.0).unwrap().to_string(), "-$42");
        assert_eq!(Money::ZERO.to_string(), "$0");
    }

    #[test]
    fn arithmetic() {
        let a = Money::from_usd(10.0).unwrap();
        let b = Money::from_usd(4.0).unwrap();
        assert_eq!((a + b).usd(), 14.0);
        assert_eq!((a - b).usd(), 6.0);
        assert_eq!((a * 3.0).usd(), 30.0);
        assert_eq!((3.0 * a).usd(), 30.0);
        assert_eq!((a / 2.0).usd(), 5.0);
        assert_eq!(a / b, 2.5);
        assert_eq!((-a).usd(), -10.0);
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
        assert!((a - a).is_zero());
        assert!((b - a).is_negative());
    }

    #[test]
    fn sum_over_iterator() {
        let parts = [1.0, 2.0, 3.5]
            .iter()
            .map(|&v| Money::from_usd(v).unwrap())
            .collect::<Vec<_>>();
        let total: Money = parts.iter().sum();
        assert_eq!(total.usd(), 6.5);
    }

    proptest! {
        #[test]
        fn amortize_then_multiply_recovers_total(usd in 0.0f64..1e12, q in 1u64..10_000_000) {
            let m = Money::from_usd(usd).unwrap();
            let per_unit = m.amortize(Quantity::new(q)).unwrap();
            let recovered = per_unit * q as f64;
            prop_assert!((recovered.usd() - usd).abs() <= usd.abs() * 1e-9 + 1e-6);
        }

        #[test]
        fn amortized_cost_decreases_with_quantity(usd in 1.0f64..1e12, q in 1u64..1_000_000) {
            let m = Money::from_usd(usd).unwrap();
            let small = m.amortize(Quantity::new(q)).unwrap();
            let large = m.amortize(Quantity::new(q * 10)).unwrap();
            prop_assert!(large < small);
        }
    }
}
