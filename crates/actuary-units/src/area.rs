use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use crate::error::UnitError;

/// Silicon area in square millimetres.
///
/// All areas in the cost model — module areas, die areas, interposer areas,
/// package body areas — are carried by this type. Internally the value is a
/// finite, non-negative `f64` in mm²; the constructors enforce the invariant.
///
/// The defect-density figures of the yield model are quoted per cm² in the
/// literature, so [`Area::cm2`] is provided for that conversion.
///
/// # Examples
///
/// ```
/// use actuary_units::Area;
///
/// # fn main() -> Result<(), actuary_units::UnitError> {
/// let die = Area::from_mm2(800.0)?;
/// assert_eq!(die.cm2(), 8.0);
/// let half = die / 2.0;
/// assert_eq!(half.mm2(), 400.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Area(f64);

impl Area {
    /// The zero area.
    pub const ZERO: Area = Area(0.0);

    /// Creates an area from a value in mm².
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::InvalidArea`] if `mm2` is negative, NaN or
    /// infinite.
    pub fn from_mm2(mm2: f64) -> Result<Self, UnitError> {
        if mm2.is_finite() && mm2 >= 0.0 {
            Ok(Area(mm2))
        } else {
            Err(UnitError::InvalidArea { value: mm2 })
        }
    }

    /// Creates an area from a value in cm².
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::InvalidArea`] if the value is negative, NaN or
    /// infinite.
    pub fn from_cm2(cm2: f64) -> Result<Self, UnitError> {
        Self::from_mm2(cm2 * 100.0)
    }

    /// Creates an area from a rectangle given as width × height in mm.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::InvalidArea`] if either side is negative or the
    /// product is not finite.
    pub fn from_rect_mm(width_mm: f64, height_mm: f64) -> Result<Self, UnitError> {
        if width_mm < 0.0 || height_mm < 0.0 {
            return Err(UnitError::InvalidArea {
                value: width_mm * height_mm,
            });
        }
        Self::from_mm2(width_mm * height_mm)
    }

    /// The area in mm².
    #[inline]
    pub fn mm2(self) -> f64 {
        self.0
    }

    /// The area in cm² (the unit used for defect densities).
    #[inline]
    pub fn cm2(self) -> f64 {
        self.0 / 100.0
    }

    /// Side length in mm of a square with this area.
    #[inline]
    pub fn square_side_mm(self) -> f64 {
        self.0.sqrt()
    }

    /// Returns `true` if the area is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Returns the smaller of two areas.
    #[inline]
    pub fn min(self, other: Area) -> Area {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two areas.
    #[inline]
    pub fn max(self, other: Area) -> Area {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Scales the area by a dimensionless non-negative factor.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::InvalidArea`] if `factor` is negative or the
    /// product overflows to a non-finite value.
    pub fn scaled(self, factor: f64) -> Result<Self, UnitError> {
        Self::from_mm2(self.0 * factor)
    }

    /// Subtracts `other`, saturating at zero instead of going negative.
    #[inline]
    pub fn saturating_sub(self, other: Area) -> Area {
        Area((self.0 - other.0).max(0.0))
    }

    /// Dimensionless ratio `self / other`.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::DivisionByZero`] if `other` is zero.
    pub fn ratio(self, other: Area) -> Result<f64, UnitError> {
        if other.is_zero() {
            Err(UnitError::DivisionByZero {
                context: "computing an area ratio",
            })
        } else {
            Ok(self.0 / other.0)
        }
    }
}

impl fmt::Display for Area {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*} mm²", prec, self.0)
        } else {
            write!(f, "{} mm²", self.0)
        }
    }
}

impl Add for Area {
    type Output = Area;

    fn add(self, rhs: Area) -> Area {
        Area(self.0 + rhs.0)
    }
}

impl AddAssign for Area {
    fn add_assign(&mut self, rhs: Area) {
        self.0 += rhs.0;
    }
}

impl Sub for Area {
    type Output = Area;

    /// Computes `self - rhs`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the result would be negative; use
    /// [`Area::saturating_sub`] when the difference may underflow.
    fn sub(self, rhs: Area) -> Area {
        debug_assert!(
            self.0 >= rhs.0,
            "area subtraction underflow: {} - {}",
            self.0,
            rhs.0
        );
        Area((self.0 - rhs.0).max(0.0))
    }
}

impl SubAssign for Area {
    fn sub_assign(&mut self, rhs: Area) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Area {
    type Output = Area;

    fn mul(self, rhs: f64) -> Area {
        Area(self.0 * rhs)
    }
}

impl Mul<Area> for f64 {
    type Output = Area;

    fn mul(self, rhs: Area) -> Area {
        Area(self * rhs.0)
    }
}

impl Div<f64> for Area {
    type Output = Area;

    fn div(self, rhs: f64) -> Area {
        Area(self.0 / rhs)
    }
}

impl Div<Area> for Area {
    type Output = f64;

    fn div(self, rhs: Area) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Area {
    fn sum<I: Iterator<Item = Area>>(iter: I) -> Area {
        iter.fold(Area::ZERO, |acc, a| acc + a)
    }
}

impl<'a> Sum<&'a Area> for Area {
    fn sum<I: Iterator<Item = &'a Area>>(iter: I) -> Area {
        iter.copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_validate() {
        assert!(Area::from_mm2(0.0).is_ok());
        assert!(Area::from_mm2(850.5).is_ok());
        assert!(Area::from_mm2(-1.0).is_err());
        assert!(Area::from_mm2(f64::NAN).is_err());
        assert!(Area::from_mm2(f64::INFINITY).is_err());
        assert!(Area::from_cm2(-0.5).is_err());
        assert!(Area::from_rect_mm(-2.0, 3.0).is_err());
    }

    #[test]
    fn unit_conversions_round_trip() {
        let a = Area::from_cm2(8.0).unwrap();
        assert_eq!(a.mm2(), 800.0);
        assert_eq!(a.cm2(), 8.0);
        let r = Area::from_rect_mm(26.0, 33.0).unwrap();
        assert_eq!(r.mm2(), 858.0);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = Area::from_mm2(100.0).unwrap();
        let b = Area::from_mm2(50.0).unwrap();
        assert_eq!((a + b).mm2(), 150.0);
        assert_eq!((a - b).mm2(), 50.0);
        assert_eq!((a * 2.0).mm2(), 200.0);
        assert_eq!((2.0 * a).mm2(), 200.0);
        assert_eq!((a / 4.0).mm2(), 25.0);
        assert_eq!(a / b, 2.0);
        assert_eq!(b.saturating_sub(a), Area::ZERO);
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn ratio_guards_division_by_zero() {
        let a = Area::from_mm2(10.0).unwrap();
        assert_eq!(a.ratio(Area::from_mm2(5.0).unwrap()).unwrap(), 2.0);
        assert!(a.ratio(Area::ZERO).is_err());
    }

    #[test]
    fn sum_of_areas() {
        let parts = [10.0, 20.0, 30.0]
            .iter()
            .map(|&v| Area::from_mm2(v).unwrap())
            .collect::<Vec<_>>();
        let total: Area = parts.iter().sum();
        assert_eq!(total.mm2(), 60.0);
    }

    #[test]
    fn display_formats_with_unit() {
        let a = Area::from_mm2(123.456).unwrap();
        assert_eq!(format!("{a:.1}"), "123.5 mm²");
        assert_eq!(format!("{a}"), "123.456 mm²");
    }

    #[test]
    fn square_side() {
        let a = Area::from_mm2(64.0).unwrap();
        assert_eq!(a.square_side_mm(), 8.0);
    }

    proptest! {
        #[test]
        fn construction_accepts_all_non_negative_finite(v in 0.0f64..1e12) {
            let a = Area::from_mm2(v).unwrap();
            prop_assert_eq!(a.mm2(), v);
        }

        #[test]
        fn add_is_commutative(x in 0.0f64..1e6, y in 0.0f64..1e6) {
            let a = Area::from_mm2(x).unwrap();
            let b = Area::from_mm2(y).unwrap();
            prop_assert_eq!((a + b).mm2(), (b + a).mm2());
        }

        #[test]
        fn scaled_matches_mul(x in 0.0f64..1e6, f in 0.0f64..100.0) {
            let a = Area::from_mm2(x).unwrap();
            prop_assert_eq!(a.scaled(f).unwrap().mm2(), (a * f).mm2());
        }

        #[test]
        fn saturating_sub_never_negative(x in 0.0f64..1e6, y in 0.0f64..1e6) {
            let a = Area::from_mm2(x).unwrap();
            let b = Area::from_mm2(y).unwrap();
            prop_assert!(a.saturating_sub(b).mm2() >= 0.0);
        }
    }
}
