//! Exact die placement on a circular wafer.
//!
//! The analytic dies-per-wafer formula is an approximation; this module
//! computes the exact number of `w × h` rectangles (plus scribe lanes) that
//! fit inside a disc, trying the four standard grid alignments (die grid
//! centered on the wafer center, or offset by half a pitch in either axis).

use std::fmt;

use actuary_units::Area;

use crate::error::YieldError;

/// The rectangular outline of a die in mm, excluding scribe lanes.
///
/// # Examples
///
/// ```
/// use actuary_units::Area;
/// use actuary_yield::DieFootprint;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let square = DieFootprint::square_of_area(Area::from_mm2(100.0)?)?;
/// assert_eq!(square.width_mm(), 10.0);
/// let wide = DieFootprint::of_area_with_aspect(Area::from_mm2(100.0)?, 4.0)?;
/// assert!((wide.width_mm() - 20.0).abs() < 1e-12);
/// assert!((wide.height_mm() - 5.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DieFootprint {
    width_mm: f64,
    height_mm: f64,
}

impl DieFootprint {
    /// Creates a footprint from explicit width and height in mm.
    ///
    /// # Errors
    ///
    /// Returns [`YieldError::InvalidWaferGeometry`] if either side is not
    /// finite and positive.
    pub fn new(width_mm: f64, height_mm: f64) -> Result<Self, YieldError> {
        if !width_mm.is_finite() || width_mm <= 0.0 || !height_mm.is_finite() || height_mm <= 0.0 {
            return Err(YieldError::InvalidWaferGeometry {
                reason: format!("die footprint {width_mm} × {height_mm} mm must be positive"),
            });
        }
        Ok(DieFootprint {
            width_mm,
            height_mm,
        })
    }

    /// A square die of the given area.
    ///
    /// # Errors
    ///
    /// Returns [`YieldError::InvalidWaferGeometry`] if the area is zero.
    pub fn square_of_area(area: Area) -> Result<Self, YieldError> {
        let side = area.square_side_mm();
        Self::new(side, side)
    }

    /// A die of the given area with `aspect = width / height`.
    ///
    /// # Errors
    ///
    /// Returns [`YieldError::InvalidWaferGeometry`] if the area is zero or
    /// the aspect ratio is not finite and positive.
    pub fn of_area_with_aspect(area: Area, aspect: f64) -> Result<Self, YieldError> {
        if !aspect.is_finite() || aspect <= 0.0 {
            return Err(YieldError::InvalidWaferGeometry {
                reason: format!("aspect ratio {aspect} must be positive"),
            });
        }
        let height = (area.mm2() / aspect).sqrt();
        let width = height * aspect;
        Self::new(width, height)
    }

    /// Die width in mm.
    #[inline]
    pub fn width_mm(self) -> f64 {
        self.width_mm
    }

    /// Die height in mm.
    #[inline]
    pub fn height_mm(self) -> f64 {
        self.height_mm
    }

    /// Die area.
    pub fn area(self) -> Area {
        Area::from_mm2(self.width_mm * self.height_mm)
            .expect("footprint sides are positive and finite by construction")
    }

    /// The footprint rotated by 90°.
    #[inline]
    pub fn rotated(self) -> DieFootprint {
        DieFootprint {
            width_mm: self.height_mm,
            height_mm: self.width_mm,
        }
    }

    /// Aspect ratio `width / height`.
    #[inline]
    pub fn aspect(self) -> f64 {
        self.width_mm / self.height_mm
    }
}

impl fmt::Display for DieFootprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} × {:.2} mm", self.width_mm, self.height_mm)
    }
}

/// Grid alignment offset (as a fraction of the die pitch) that produced a
/// particular placement count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridOffset {
    /// Horizontal offset of the grid origin, as a fraction of the x pitch.
    pub dx_frac: f64,
    /// Vertical offset of the grid origin, as a fraction of the y pitch.
    pub dy_frac: f64,
}

impl fmt::Display for GridOffset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "offset ({:.2}, {:.2}) pitch", self.dx_frac, self.dy_frac)
    }
}

/// Result of an exact die-placement count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridCount {
    count: u32,
    offset: GridOffset,
}

impl GridCount {
    /// Number of whole dies placed.
    #[inline]
    pub fn count(self) -> u32 {
        self.count
    }

    /// The grid alignment that achieved the count.
    #[inline]
    pub fn offset(self) -> GridOffset {
        self.offset
    }
}

impl fmt::Display for GridCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} dies ({})", self.count, self.offset)
    }
}

/// Counts how many `die` rectangles (inflated by the scribe lane) fit fully
/// inside a disc of the given radius, trying the four standard alignments.
///
/// # Errors
///
/// Returns [`YieldError::InvalidWaferGeometry`] if the radius is not positive
/// or the scribe lane is negative.
pub fn count_dies_in_circle(
    radius_mm: f64,
    die: DieFootprint,
    scribe_lane_mm: f64,
) -> Result<GridCount, YieldError> {
    if !radius_mm.is_finite() || radius_mm <= 0.0 {
        return Err(YieldError::InvalidWaferGeometry {
            reason: format!("circle radius {radius_mm} mm must be positive"),
        });
    }
    if !scribe_lane_mm.is_finite() || scribe_lane_mm < 0.0 {
        return Err(YieldError::InvalidWaferGeometry {
            reason: format!("scribe lane {scribe_lane_mm} mm must be non-negative"),
        });
    }
    let pitch_x = die.width_mm() + scribe_lane_mm;
    let pitch_y = die.height_mm() + scribe_lane_mm;

    let offsets = [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)];
    let mut best = GridCount {
        count: 0,
        offset: GridOffset {
            dx_frac: 0.0,
            dy_frac: 0.0,
        },
    };
    for (fx, fy) in offsets {
        let count = count_for_offset(radius_mm, die, pitch_x, pitch_y, fx, fy);
        if count > best.count {
            best = GridCount {
                count,
                offset: GridOffset {
                    dx_frac: fx,
                    dy_frac: fy,
                },
            };
        }
    }
    Ok(best)
}

/// Counts dies for a single grid alignment. The grid origin is the wafer
/// center shifted by `(fx·pitch_x, fy·pitch_y)`; die `(i, j)` occupies
/// `[x0 + i·px, x0 + i·px + w] × [y0 + j·py, y0 + j·py + h]` and counts when
/// all four corners lie inside the disc.
fn count_for_offset(
    radius_mm: f64,
    die: DieFootprint,
    pitch_x: f64,
    pitch_y: f64,
    fx: f64,
    fy: f64,
) -> u32 {
    let r2 = radius_mm * radius_mm;
    let x0 = fx * pitch_x;
    let y0 = fy * pitch_y;
    let max_i = (radius_mm / pitch_x).ceil() as i64 + 1;
    let max_j = (radius_mm / pitch_y).ceil() as i64 + 1;
    let mut count = 0u32;
    for j in -max_j..=max_j {
        let y1 = y0 + j as f64 * pitch_y;
        let y2 = y1 + die.height_mm();
        let y_extent = y1.abs().max(y2.abs());
        if y_extent * y_extent > r2 {
            continue;
        }
        for i in -max_i..=max_i {
            let x1 = x0 + i as f64 * pitch_x;
            let x2 = x1 + die.width_mm();
            let x_extent = x1.abs().max(x2.abs());
            // The farthest corner from the center decides whether the
            // rectangle fits inside the disc.
            if x_extent * x_extent + y_extent * y_extent <= r2 {
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn footprint_construction_validates() {
        assert!(DieFootprint::new(10.0, 10.0).is_ok());
        assert!(DieFootprint::new(0.0, 10.0).is_err());
        assert!(DieFootprint::new(10.0, -1.0).is_err());
        assert!(DieFootprint::new(f64::NAN, 1.0).is_err());
        assert!(DieFootprint::of_area_with_aspect(Area::from_mm2(100.0).unwrap(), 0.0).is_err());
    }

    #[test]
    fn footprint_geometry() {
        let d = DieFootprint::new(20.0, 5.0).unwrap();
        assert_eq!(d.area().mm2(), 100.0);
        assert_eq!(d.aspect(), 4.0);
        let r = d.rotated();
        assert_eq!(r.width_mm(), 5.0);
        assert_eq!(r.height_mm(), 20.0);
        assert_eq!(r.area().mm2(), 100.0);
    }

    #[test]
    fn tiny_die_on_big_circle_matches_area_ratio() {
        // 1×1 mm dies on a 100 mm radius circle: packing efficiency is high.
        let die = DieFootprint::new(1.0, 1.0).unwrap();
        let got = count_dies_in_circle(100.0, die, 0.0).unwrap().count();
        let disc_area = std::f64::consts::PI * 100.0 * 100.0;
        let ratio = got as f64 / disc_area;
        assert!(ratio > 0.97 && ratio <= 1.0, "packing ratio {ratio}");
    }

    #[test]
    fn die_larger_than_circle_counts_zero() {
        let die = DieFootprint::new(300.0, 300.0).unwrap();
        assert_eq!(count_dies_in_circle(100.0, die, 0.0).unwrap().count(), 0);
    }

    #[test]
    fn single_die_exactly_fits() {
        // A square of side s fits a circle of radius s·√2/2.
        let die = DieFootprint::new(10.0, 10.0).unwrap();
        let r_fit = 10.0 * std::f64::consts::SQRT_2 / 2.0 + 1e-9;
        let c = count_dies_in_circle(r_fit, die, 0.0).unwrap();
        assert!(c.count() >= 1, "die must fit at offset (0.5, 0.5): {c}");
        let r_too_small = 10.0 * std::f64::consts::SQRT_2 / 2.0 - 0.1;
        assert_eq!(
            count_dies_in_circle(r_too_small, die, 0.0).unwrap().count(),
            0
        );
    }

    #[test]
    fn invalid_inputs_rejected() {
        let die = DieFootprint::new(10.0, 10.0).unwrap();
        assert!(count_dies_in_circle(0.0, die, 0.0).is_err());
        assert!(count_dies_in_circle(-5.0, die, 0.0).is_err());
        assert!(count_dies_in_circle(100.0, die, -0.1).is_err());
    }

    #[test]
    fn offset_search_helps() {
        // For a die about as big as the circle, the centered grid places 0
        // but the half-offset grid places 1. The search must find it.
        let die = DieFootprint::new(10.0, 10.0).unwrap();
        let r = 7.2; // between s/√2 ≈ 7.07 (1 die centered on origin) and 10
        let best = count_dies_in_circle(r, die, 0.0).unwrap();
        assert_eq!(best.count(), 1);
        assert_eq!(best.offset().dx_frac, 0.5);
        assert_eq!(best.offset().dy_frac, 0.5);
    }

    #[test]
    fn rotation_can_matter_for_rectangles() {
        let die = DieFootprint::new(30.0, 10.0).unwrap();
        let a = count_dies_in_circle(50.0, die, 0.0).unwrap().count();
        let b = count_dies_in_circle(50.0, die.rotated(), 0.0)
            .unwrap()
            .count();
        // Same area and symmetric disc: counts must match under rotation.
        assert_eq!(a, b);
    }

    proptest! {
        #[test]
        fn count_bounded_by_area(
            r in 20.0f64..160.0,
            w in 2.0f64..40.0,
            h in 2.0f64..40.0,
            scribe in 0.0f64..0.5,
        ) {
            let die = DieFootprint::new(w, h).unwrap();
            let count = count_dies_in_circle(r, die, scribe).unwrap().count();
            let bound = std::f64::consts::PI * r * r / (w * h);
            prop_assert!((count as f64) <= bound + 1e-9);
        }

        #[test]
        fn count_monotone_in_radius(
            r in 20.0f64..100.0,
            w in 2.0f64..30.0,
            h in 2.0f64..30.0,
        ) {
            let die = DieFootprint::new(w, h).unwrap();
            let small = count_dies_in_circle(r, die, 0.1).unwrap().count();
            let large = count_dies_in_circle(r * 1.3, die, 0.1).unwrap().count();
            prop_assert!(large >= small);
        }

        #[test]
        fn scribe_lane_never_increases_count(
            r in 20.0f64..120.0,
            w in 2.0f64..30.0,
            h in 2.0f64..30.0,
        ) {
            let die = DieFootprint::new(w, h).unwrap();
            let no_scribe = count_dies_in_circle(r, die, 0.0).unwrap().count();
            let with_scribe = count_dies_in_circle(r, die, 0.3).unwrap().count();
            prop_assert!(with_scribe <= no_scribe);
        }
    }
}
