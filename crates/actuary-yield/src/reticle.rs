use std::fmt;

use actuary_units::Area;

use crate::error::YieldError;
use crate::gridding::DieFootprint;

/// The lithographic reticle (exposure field) limit.
///
/// A monolithic die cannot exceed the scanner's maximum field; the standard
/// full field is 26 × 33 mm = 858 mm². The paper calls the largest die at the
/// most advanced node the "Moore Limit" — systems near it are exactly where
/// multi-chip integration pays off most (§6).
///
/// # Examples
///
/// ```
/// use actuary_units::Area;
/// use actuary_yield::Reticle;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let reticle = Reticle::standard();
/// assert_eq!(reticle.max_area().mm2(), 858.0);
/// assert!(reticle.fits_area(Area::from_mm2(800.0)?));
/// assert!(!reticle.fits_area(Area::from_mm2(900.0)?));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reticle {
    width_mm: f64,
    height_mm: f64,
}

impl Reticle {
    /// The standard full-field reticle: 26 × 33 mm.
    pub fn standard() -> Self {
        Reticle {
            width_mm: 26.0,
            height_mm: 33.0,
        }
    }

    /// Creates a custom reticle field.
    ///
    /// # Errors
    ///
    /// Returns [`YieldError::InvalidWaferGeometry`] if either side is not
    /// finite and positive.
    pub fn new(width_mm: f64, height_mm: f64) -> Result<Self, YieldError> {
        if !width_mm.is_finite() || width_mm <= 0.0 || !height_mm.is_finite() || height_mm <= 0.0 {
            return Err(YieldError::InvalidWaferGeometry {
                reason: format!("reticle field {width_mm} × {height_mm} mm must be positive"),
            });
        }
        Ok(Reticle {
            width_mm,
            height_mm,
        })
    }

    /// Field width in mm.
    #[inline]
    pub fn width_mm(self) -> f64 {
        self.width_mm
    }

    /// Field height in mm.
    #[inline]
    pub fn height_mm(self) -> f64 {
        self.height_mm
    }

    /// Maximum exposable area (the "Moore Limit" for a monolithic die).
    pub fn max_area(self) -> Area {
        Area::from_mm2(self.width_mm * self.height_mm)
            .expect("reticle sides are positive and finite by construction")
    }

    /// Whether a die *area* can possibly fit (area comparison only; a long
    /// thin die of smaller area may still violate a side limit — use
    /// [`Reticle::fits_footprint`] for the exact check).
    pub fn fits_area(self, die: Area) -> bool {
        die.mm2() <= self.max_area().mm2()
    }

    /// Whether the exact die footprint fits the field, allowing 90°
    /// rotation.
    pub fn fits_footprint(self, die: DieFootprint) -> bool {
        let fits =
            |d: DieFootprint| d.width_mm() <= self.width_mm && d.height_mm() <= self.height_mm;
        fits(die) || fits(die.rotated())
    }

    /// Checks a die area against the limit, returning an error suitable for
    /// propagation out of cost pipelines.
    ///
    /// # Errors
    ///
    /// Returns [`YieldError::DieTooLarge`] when the area exceeds the field.
    pub fn check_area(self, die: Area) -> Result<(), YieldError> {
        if self.fits_area(die) {
            Ok(())
        } else {
            Err(YieldError::DieTooLarge {
                die_mm2: die.mm2(),
                limit_mm2: self.max_area().mm2(),
            })
        }
    }

    /// Number of exposure fields needed to pattern the given area with
    /// reticle stitching — how large silicon interposers beyond the single
    /// field limit are made (§6: "with a monolithic interposer, advanced
    /// packaging technologies still suffer from poor yield and area limit").
    ///
    /// Returns 1 for anything that fits one field; never returns 0.
    pub fn fields_required(self, area: Area) -> u32 {
        let fields = (area.mm2() / self.max_area().mm2()).ceil();
        (fields as u32).max(1)
    }
}

impl Default for Reticle {
    fn default() -> Self {
        Reticle::standard()
    }
}

impl fmt::Display for Reticle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} × {} mm reticle ({} mm² max)",
            self.width_mm,
            self.height_mm,
            self.width_mm * self.height_mm
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn area(mm2: f64) -> Area {
        Area::from_mm2(mm2).unwrap()
    }

    #[test]
    fn standard_field_is_858mm2() {
        let r = Reticle::standard();
        assert_eq!(r.max_area().mm2(), 858.0);
        assert_eq!(Reticle::default(), r);
    }

    #[test]
    fn construction_validates() {
        assert!(Reticle::new(26.0, 33.0).is_ok());
        assert!(Reticle::new(0.0, 33.0).is_err());
        assert!(Reticle::new(26.0, -1.0).is_err());
    }

    #[test]
    fn area_checks() {
        let r = Reticle::standard();
        assert!(r.fits_area(area(858.0)));
        assert!(!r.fits_area(area(858.1)));
        assert!(r.check_area(area(500.0)).is_ok());
        assert!(matches!(
            r.check_area(area(900.0)),
            Err(YieldError::DieTooLarge { .. })
        ));
    }

    #[test]
    fn footprint_checks_allow_rotation() {
        let r = Reticle::standard();
        // 30 × 20 fits only after rotating to 20 × 30.
        let die = DieFootprint::new(30.0, 20.0).unwrap();
        assert!(r.fits_footprint(die));
        // 34 mm side can never fit.
        let too_long = DieFootprint::new(34.0, 5.0).unwrap();
        assert!(!r.fits_footprint(too_long));
        // Small area but exceeding both sides in one dimension.
        let sliver = DieFootprint::new(40.0, 1.0).unwrap();
        assert!(r.fits_area(sliver.area()));
        assert!(!r.fits_footprint(sliver));
    }

    #[test]
    fn display() {
        assert_eq!(
            Reticle::standard().to_string(),
            "26 × 33 mm reticle (858 mm² max)"
        );
    }

    #[test]
    fn stitching_field_counts() {
        let r = Reticle::standard();
        assert_eq!(r.fields_required(area(100.0)), 1);
        assert_eq!(r.fields_required(area(858.0)), 1);
        assert_eq!(r.fields_required(area(859.0)), 2);
        assert_eq!(r.fields_required(area(1716.0)), 2);
        assert_eq!(r.fields_required(area(2000.0)), 3);
        assert_eq!(
            r.fields_required(Area::ZERO),
            1,
            "degenerate areas still take a field"
        );
    }
}
