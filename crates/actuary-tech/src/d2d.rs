use std::fmt;

use actuary_units::{Area, Money};

use crate::error::TechError;

/// Die-to-die interface parameters for one process node.
///
/// The paper treats the D2D interface as "a particular module shared by all
/// chiplets" (§3.1) that "takes a certain percentage of the chip area"
/// (§3.2); the experiments assume 10 % per chiplet, referencing AMD EPYC.
/// Designing the interface once per node costs `C_D2D` of NRE (Eq. (8)).
///
/// `area_fraction` is the fraction of the *chip* area occupied by the D2D
/// interface, so a chiplet carrying `m` mm² of functional modules has die
/// area `m / (1 − area_fraction)`.
///
/// # Examples
///
/// ```
/// use actuary_units::{Area, Money};
/// use actuary_tech::D2dSpec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d2d = D2dSpec::new(0.10, Money::from_musd(10.0)?)?;
/// let die = d2d.inflate_module_area(Area::from_mm2(90.0)?)?;
/// assert!((die.mm2() - 100.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct D2dSpec {
    area_fraction: f64,
    nre_cost: Money,
}

impl D2dSpec {
    /// Creates a D2D spec.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::InvalidSpec`] if `area_fraction` is outside
    /// `[0, 1)` or the NRE cost is negative.
    pub fn new(area_fraction: f64, nre_cost: Money) -> Result<Self, TechError> {
        if !area_fraction.is_finite() || !(0.0..1.0).contains(&area_fraction) {
            return Err(TechError::InvalidSpec {
                reason: format!("d2d area fraction {area_fraction} must be within [0, 1)"),
            });
        }
        if nre_cost.is_negative() {
            return Err(TechError::InvalidSpec {
                reason: "d2d NRE cost must be non-negative".to_string(),
            });
        }
        Ok(D2dSpec {
            area_fraction,
            nre_cost,
        })
    }

    /// A D2D interface with zero overhead and zero NRE (what a monolithic
    /// SoC effectively has).
    pub fn none() -> Self {
        D2dSpec {
            area_fraction: 0.0,
            nre_cost: Money::ZERO,
        }
    }

    /// Fraction of the chip area occupied by the D2D interface.
    #[inline]
    pub fn area_fraction(self) -> f64 {
        self.area_fraction
    }

    /// One-time NRE cost of designing this node's D2D interface (`C_D2D`).
    #[inline]
    pub fn nre_cost(self) -> Money {
        self.nre_cost
    }

    /// Die area of a chiplet that carries `module_area` of functional logic
    /// plus this D2D interface: `module / (1 − fraction)`.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::Unit`] if the inflated area is invalid.
    pub fn inflate_module_area(self, module_area: Area) -> Result<Area, TechError> {
        Ok(module_area.scaled(1.0 / (1.0 - self.area_fraction))?)
    }

    /// The D2D interface area on a chip of the given total die area.
    pub fn interface_area(self, die_area: Area) -> Area {
        die_area * self.area_fraction
    }
}

impl Default for D2dSpec {
    /// Defaults to the paper's experimental assumption: 10 % area overhead,
    /// zero NRE (NRE is configured per node in the presets).
    fn default() -> Self {
        D2dSpec {
            area_fraction: 0.10,
            nre_cost: Money::ZERO,
        }
    }
}

impl fmt::Display for D2dSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "D2D {:.0}% area, {} NRE",
            self.area_fraction * 100.0,
            self.nre_cost
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn validation() {
        assert!(D2dSpec::new(0.0, Money::ZERO).is_ok());
        assert!(D2dSpec::new(0.5, Money::ZERO).is_ok());
        assert!(D2dSpec::new(1.0, Money::ZERO).is_err());
        assert!(D2dSpec::new(-0.1, Money::ZERO).is_err());
        assert!(D2dSpec::new(0.1, Money::from_usd(-1.0).unwrap()).is_err());
    }

    #[test]
    fn inflation_matches_paper_convention() {
        // 10% of the *chip* area is D2D: 90 mm² of modules → 100 mm² die.
        let d2d = D2dSpec::new(0.10, Money::ZERO).unwrap();
        let die = d2d
            .inflate_module_area(Area::from_mm2(90.0).unwrap())
            .unwrap();
        assert!((die.mm2() - 100.0).abs() < 1e-9);
        assert!((d2d.interface_area(die).mm2() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn none_is_identity() {
        let d2d = D2dSpec::none();
        let a = Area::from_mm2(123.0).unwrap();
        assert_eq!(d2d.inflate_module_area(a).unwrap(), a);
        assert_eq!(d2d.interface_area(a), Area::ZERO);
    }

    #[test]
    fn default_is_ten_percent() {
        assert_eq!(D2dSpec::default().area_fraction(), 0.10);
    }

    #[test]
    fn display() {
        let d2d = D2dSpec::new(0.10, Money::from_musd(10.0).unwrap()).unwrap();
        assert_eq!(d2d.to_string(), "D2D 10% area, $10,000,000 NRE");
    }

    proptest! {
        #[test]
        fn inflate_then_extract_is_consistent(
            frac in 0.0f64..0.9,
            mm2 in 1.0f64..1000.0,
        ) {
            let d2d = D2dSpec::new(frac, Money::ZERO).unwrap();
            let module = Area::from_mm2(mm2).unwrap();
            let die = d2d.inflate_module_area(module).unwrap();
            let iface = d2d.interface_area(die);
            // modules + interface = die
            prop_assert!((module.mm2() + iface.mm2() - die.mm2()).abs() < 1e-6);
        }
    }
}
