use std::fmt;

use actuary_units::{Area, Money};

use crate::error::YieldError;
use crate::gridding::{count_dies_in_circle, DieFootprint, GridCount};

/// Physical wafer geometry: diameter, edge exclusion and scribe-lane width.
///
/// Two dies-per-wafer estimators are provided:
///
/// * [`WaferSpec::dies_per_wafer`] — the standard analytic approximation
///   `DPW = π·(d/2)²/S − π·d/√(2·S)` over the usable diameter, which is what
///   cost models (including the paper's) typically use; and
/// * [`WaferSpec::dies_per_wafer_grid`] — an exact rectangular-grid placement
///   count that actually tiles dies onto the usable disc, for checking the
///   approximation and for aspect-ratio studies.
///
/// # Examples
///
/// ```
/// use actuary_units::Area;
/// use actuary_yield::WaferSpec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let wafer = WaferSpec::mm300()?;
/// let dpw = wafer.dies_per_wafer(Area::from_mm2(100.0)?)?;
/// assert!(dpw > 550.0 && dpw < 650.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaferSpec {
    diameter_mm: f64,
    edge_exclusion_mm: f64,
    scribe_lane_mm: f64,
}

impl WaferSpec {
    /// Creates a wafer specification.
    ///
    /// # Errors
    ///
    /// Returns [`YieldError::InvalidWaferGeometry`] if the diameter is not
    /// positive, any parameter is not finite, the edge exclusion consumes the
    /// whole wafer, or the scribe lane is negative.
    pub fn new(
        diameter_mm: f64,
        edge_exclusion_mm: f64,
        scribe_lane_mm: f64,
    ) -> Result<Self, YieldError> {
        if !diameter_mm.is_finite() || diameter_mm <= 0.0 {
            return Err(YieldError::InvalidWaferGeometry {
                reason: format!("diameter {diameter_mm} mm must be positive"),
            });
        }
        if !edge_exclusion_mm.is_finite() || edge_exclusion_mm < 0.0 {
            return Err(YieldError::InvalidWaferGeometry {
                reason: format!("edge exclusion {edge_exclusion_mm} mm must be non-negative"),
            });
        }
        if 2.0 * edge_exclusion_mm >= diameter_mm {
            return Err(YieldError::InvalidWaferGeometry {
                reason: format!(
                    "edge exclusion {edge_exclusion_mm} mm leaves no usable area on a \
                     {diameter_mm} mm wafer"
                ),
            });
        }
        if !scribe_lane_mm.is_finite() || scribe_lane_mm < 0.0 {
            return Err(YieldError::InvalidWaferGeometry {
                reason: format!("scribe lane {scribe_lane_mm} mm must be non-negative"),
            });
        }
        Ok(WaferSpec {
            diameter_mm,
            edge_exclusion_mm,
            scribe_lane_mm,
        })
    }

    /// The standard 300 mm production wafer: 3 mm edge exclusion and a
    /// 0.1 mm scribe lane.
    ///
    /// # Errors
    ///
    /// Never fails in practice; the signature is kept fallible for symmetry
    /// with [`WaferSpec::new`].
    pub fn mm300() -> Result<Self, YieldError> {
        Self::new(300.0, 3.0, 0.1)
    }

    /// A 200 mm wafer (legacy processes), 3 mm edge exclusion, 0.1 mm scribe.
    ///
    /// # Errors
    ///
    /// Never fails in practice; kept fallible for symmetry with
    /// [`WaferSpec::new`].
    pub fn mm200() -> Result<Self, YieldError> {
        Self::new(200.0, 3.0, 0.1)
    }

    /// Wafer diameter in mm.
    #[inline]
    pub fn diameter_mm(self) -> f64 {
        self.diameter_mm
    }

    /// Edge exclusion in mm.
    #[inline]
    pub fn edge_exclusion_mm(self) -> f64 {
        self.edge_exclusion_mm
    }

    /// Scribe lane (saw street) width in mm.
    #[inline]
    pub fn scribe_lane_mm(self) -> f64 {
        self.scribe_lane_mm
    }

    /// Usable diameter after edge exclusion, in mm.
    #[inline]
    pub fn usable_diameter_mm(self) -> f64 {
        self.diameter_mm - 2.0 * self.edge_exclusion_mm
    }

    /// Usable wafer area after edge exclusion.
    pub fn usable_area(self) -> Area {
        let r = self.usable_diameter_mm() / 2.0;
        Area::from_mm2(std::f64::consts::PI * r * r)
            .expect("usable radius is positive by construction")
    }

    /// Gross area of the full wafer disc (before edge exclusion).
    pub fn gross_area(self) -> Area {
        let r = self.diameter_mm / 2.0;
        Area::from_mm2(std::f64::consts::PI * r * r)
            .expect("wafer radius is positive by construction")
    }

    /// Analytic dies-per-wafer estimate for a (square-ish) die of the given
    /// area, including the scribe-lane overhead:
    ///
    /// `DPW = π·(d/2)² / S_eff − π·d / √(2·S_eff)`
    ///
    /// where `d` is the usable diameter and `S_eff` is the die area inflated
    /// by the scribe lane. The result is clamped at zero; it is fractional by
    /// design (cost models divide wafer cost by it).
    ///
    /// # Errors
    ///
    /// Returns [`YieldError::DieTooLarge`] if the die cannot fit the usable
    /// disc at all, or [`YieldError::InvalidWaferGeometry`] if `die` is zero.
    pub fn dies_per_wafer(self, die: Area) -> Result<f64, YieldError> {
        if die.is_zero() {
            return Err(YieldError::InvalidWaferGeometry {
                reason: "cannot compute dies per wafer for a zero-area die".to_string(),
            });
        }
        let side = die.square_side_mm() + self.scribe_lane_mm;
        let s_eff = side * side;
        let d = self.usable_diameter_mm();
        // The die's diagonal must fit within the usable disc.
        if (2.0 * s_eff).sqrt() > d {
            return Err(YieldError::DieTooLarge {
                die_mm2: die.mm2(),
                limit_mm2: self.largest_die_mm2(),
            });
        }
        let gross = std::f64::consts::PI * (d / 2.0) * (d / 2.0) / s_eff;
        let edge_loss = std::f64::consts::PI * d / (2.0 * s_eff).sqrt();
        Ok((gross - edge_loss).max(0.0))
    }

    /// Exact dies-per-wafer count by tiling `die` rectangles (plus scribe
    /// lanes) onto the usable disc, trying the four standard grid alignments
    /// and returning the best.
    ///
    /// # Errors
    ///
    /// Returns [`YieldError::InvalidWaferGeometry`] if the footprint has a
    /// non-positive side.
    pub fn dies_per_wafer_grid(self, die: DieFootprint) -> Result<GridCount, YieldError> {
        count_dies_in_circle(self.usable_diameter_mm() / 2.0, die, self.scribe_lane_mm)
    }

    /// Raw wafer cost per mm² of usable area — the normalization basis of
    /// the paper's Figure 2 ("normalized to the cost per area of the raw
    /// wafer").
    pub fn cost_per_usable_mm2(self, wafer_price: Money) -> Money {
        wafer_price / self.usable_area().mm2()
    }

    /// Cost of one (unyielded) die: `wafer_price / DPW`.
    ///
    /// # Errors
    ///
    /// Propagates [`WaferSpec::dies_per_wafer`] errors.
    pub fn raw_die_cost(self, wafer_price: Money, die: Area) -> Result<Money, YieldError> {
        let dpw = self.dies_per_wafer(die)?;
        if dpw <= 0.0 {
            return Err(YieldError::DieTooLarge {
                die_mm2: die.mm2(),
                limit_mm2: self.largest_die_mm2(),
            });
        }
        Ok(wafer_price / dpw)
    }

    /// The largest die area, in mm², with a positive analytic
    /// dies-per-wafer: `π·d²/(4·S) > π·d/√(2·S)` holds exactly while
    /// `S_eff < d²/8`, i.e. while the die side plus the scribe lane stays
    /// under `d/√8`. Both `DieTooLarge` errors report this bound.
    fn largest_die_mm2(self) -> f64 {
        let side = (self.usable_diameter_mm() / 8f64.sqrt() - self.scribe_lane_mm).max(0.0);
        side * side
    }
}

impl fmt::Display for WaferSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} mm wafer (edge exclusion {} mm, scribe {} mm)",
            self.diameter_mm, self.edge_exclusion_mm, self.scribe_lane_mm
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn area(mm2: f64) -> Area {
        Area::from_mm2(mm2).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(WaferSpec::new(300.0, 3.0, 0.1).is_ok());
        assert!(WaferSpec::new(0.0, 3.0, 0.1).is_err());
        assert!(WaferSpec::new(-300.0, 3.0, 0.1).is_err());
        assert!(WaferSpec::new(300.0, -1.0, 0.1).is_err());
        assert!(WaferSpec::new(300.0, 150.0, 0.1).is_err());
        assert!(WaferSpec::new(300.0, 3.0, -0.1).is_err());
        assert!(WaferSpec::new(f64::NAN, 3.0, 0.1).is_err());
    }

    #[test]
    fn usable_geometry() {
        let w = WaferSpec::mm300().unwrap();
        assert_eq!(w.usable_diameter_mm(), 294.0);
        let expected = std::f64::consts::PI * 147.0 * 147.0;
        assert!((w.usable_area().mm2() - expected).abs() < 1e-9);
        assert!(w.gross_area().mm2() > w.usable_area().mm2());
    }

    #[test]
    fn analytic_dpw_matches_hand_computation() {
        // No scribe, no edge exclusion: the classic textbook numbers.
        let w = WaferSpec::new(300.0, 0.0, 0.0).unwrap();
        let dpw = w.dies_per_wafer(area(100.0)).unwrap();
        let expected = std::f64::consts::PI * 150.0 * 150.0 / 100.0
            - std::f64::consts::PI * 300.0 / (200.0f64).sqrt();
        assert!(
            (dpw - expected).abs() < 1e-9,
            "got {dpw}, expected {expected}"
        );
        assert!((expected - 640.2).abs() < 0.5);
    }

    #[test]
    fn scribe_lane_reduces_count() {
        let tight = WaferSpec::new(300.0, 3.0, 0.0).unwrap();
        let loose = WaferSpec::new(300.0, 3.0, 0.2).unwrap();
        let d = area(64.0);
        assert!(
            loose.dies_per_wafer(d).unwrap() < tight.dies_per_wafer(d).unwrap(),
            "scribe lanes must cost dies"
        );
    }

    #[test]
    fn oversized_die_is_rejected() {
        let w = WaferSpec::mm300().unwrap();
        assert!(matches!(
            w.dies_per_wafer(area(80_000.0)),
            Err(YieldError::DieTooLarge { .. })
        ));
        assert!(w.dies_per_wafer(Area::ZERO).is_err());
    }

    #[test]
    fn die_too_large_names_the_largest_die_the_formula_prices() {
        let w = WaferSpec::mm300().unwrap();
        let price = Money::from_usd(9_346.0).unwrap();
        let limit = w.largest_die_mm2();
        assert!((limit - (294.0 / 8f64.sqrt() - 0.1).powi(2)).abs() < 1e-9);
        assert!(limit > 10_700.0 && limit < 10_800.0, "{limit}");
        assert!(w.raw_die_cost(price, area(limit - 0.01)).is_ok());
        for die in [limit + 0.01, 12_000.0, 80_000.0] {
            let err = w.raw_die_cost(price, area(die)).unwrap_err();
            assert_eq!(
                err,
                YieldError::DieTooLarge {
                    die_mm2: die,
                    limit_mm2: limit,
                }
            );
            assert!(err.to_string().contains(&format!("the {limit} mm² limit")));
        }
    }

    #[test]
    fn grid_count_close_to_analytic() {
        let w = WaferSpec::mm300().unwrap();
        let die = DieFootprint::square_of_area(area(100.0)).unwrap();
        let grid = w.dies_per_wafer_grid(die).unwrap();
        let analytic = w.dies_per_wafer(area(100.0)).unwrap();
        let ratio = grid.count() as f64 / analytic;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "grid {} vs analytic {analytic} (ratio {ratio})",
            grid.count()
        );
    }

    #[test]
    fn raw_die_cost_divides_wafer_price() {
        let w = WaferSpec::mm300().unwrap();
        let price = Money::from_usd(9_346.0).unwrap();
        let cost = w.raw_die_cost(price, area(100.0)).unwrap();
        let dpw = w.dies_per_wafer(area(100.0)).unwrap();
        assert!((cost.usd() - 9_346.0 / dpw).abs() < 1e-9);
    }

    #[test]
    fn cost_per_usable_mm2_is_normalization_basis() {
        let w = WaferSpec::mm300().unwrap();
        let price = Money::from_usd(16_988.0).unwrap();
        let per_mm2 = w.cost_per_usable_mm2(price);
        assert!((per_mm2.usd() * w.usable_area().mm2() - 16_988.0).abs() < 1e-6);
    }

    #[test]
    fn display() {
        let w = WaferSpec::mm300().unwrap();
        assert_eq!(
            w.to_string(),
            "300 mm wafer (edge exclusion 3 mm, scribe 0.1 mm)"
        );
    }

    proptest! {
        #[test]
        fn dpw_monotone_decreasing_in_area(s in 10.0f64..2000.0) {
            let w = WaferSpec::mm300().unwrap();
            let small = w.dies_per_wafer(area(s)).unwrap();
            let big = w.dies_per_wafer(area(s * 1.2)).unwrap();
            prop_assert!(big <= small);
        }

        #[test]
        fn dpw_bounded_by_area_ratio(s in 10.0f64..2000.0) {
            let w = WaferSpec::mm300().unwrap();
            let dpw = w.dies_per_wafer(area(s)).unwrap();
            let bound = w.usable_area().mm2() / s;
            prop_assert!(dpw <= bound + 1e-9);
        }

        #[test]
        fn grid_never_beats_area_bound(s in 20.0f64..2000.0, aspect in 0.5f64..2.0) {
            let w = WaferSpec::mm300().unwrap();
            let die = DieFootprint::of_area_with_aspect(area(s), aspect).unwrap();
            let grid = w.dies_per_wafer_grid(die).unwrap();
            let bound = w.usable_area().mm2() / s;
            prop_assert!((grid.count() as f64) <= bound + 1.0);
        }
    }
}
