use std::fmt;
use std::ops::Add;

use actuary_units::Money;

/// The five-component RE cost breakdown of the paper's §3.2.
///
/// > "The RE cost in our model consists of five parts: 1) cost of raw chips,
/// > 2) cost of chip defects, 3) cost of raw packages, 4) cost of package
/// > defects, 5) cost of wasted known good dies (KGDs) resulting from
/// > packaging defects."
///
/// Every figure-4-style stacked bar in the paper plots exactly these five
/// components; [`ReCostBreakdown::components`] returns them in the paper's
/// legend order.
///
/// # Examples
///
/// ```
/// use actuary_model::ReCostBreakdown;
/// use actuary_units::Money;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let b = ReCostBreakdown {
///     raw_chips: Money::from_usd(100.0)?,
///     chip_defects: Money::from_usd(40.0)?,
///     raw_package: Money::from_usd(20.0)?,
///     package_defects: Money::from_usd(5.0)?,
///     wasted_kgd: Money::from_usd(3.0)?,
/// };
/// assert_eq!(b.total().usd(), 168.0);
/// assert_eq!(b.packaging_total().usd(), 28.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReCostBreakdown {
    /// 1) Cost of raw chips (dies at perfect yield).
    pub raw_chips: Money,
    /// 2) Cost of chip defects (die yield loss).
    pub chip_defects: Money,
    /// 3) Cost of the raw package (substrate, interposer, bumps, assembly).
    pub raw_package: Money,
    /// 4) Cost of package defects (packaging yield loss on package
    ///    materials).
    pub package_defects: Money,
    /// 5) Cost of known-good dies wasted by packaging defects.
    pub wasted_kgd: Money,
}

impl ReCostBreakdown {
    /// The component labels, in the paper's legend order.
    pub const COMPONENT_LABELS: [&'static str; 5] = [
        "Cost of Raw Chips",
        "Cost of Chip Defects",
        "Cost of Raw Package",
        "Cost of Package Defects",
        "Cost of Wasted KGD",
    ];

    /// Total RE cost (sum of all five components).
    pub fn total(&self) -> Money {
        self.raw_chips
            + self.chip_defects
            + self.raw_package
            + self.package_defects
            + self.wasted_kgd
    }

    /// The paper's "cost of packaging": raw package + package defects +
    /// wasted KGD (Figure 5, footnote 2).
    pub fn packaging_total(&self) -> Money {
        self.raw_package + self.package_defects + self.wasted_kgd
    }

    /// Die-related cost: raw chips + chip defects.
    pub fn die_total(&self) -> Money {
        self.raw_chips + self.chip_defects
    }

    /// Components paired with their labels, in legend order.
    pub fn components(&self) -> [(&'static str, Money); 5] {
        [
            (Self::COMPONENT_LABELS[0], self.raw_chips),
            (Self::COMPONENT_LABELS[1], self.chip_defects),
            (Self::COMPONENT_LABELS[2], self.raw_package),
            (Self::COMPONENT_LABELS[3], self.package_defects),
            (Self::COMPONENT_LABELS[4], self.wasted_kgd),
        ]
    }

    /// Scales every component by a dimensionless factor (used for
    /// normalization).
    pub fn scaled(&self, factor: f64) -> ReCostBreakdown {
        ReCostBreakdown {
            raw_chips: self.raw_chips * factor,
            chip_defects: self.chip_defects * factor,
            raw_package: self.raw_package * factor,
            package_defects: self.package_defects * factor,
            wasted_kgd: self.wasted_kgd * factor,
        }
    }

    /// `true` when every component is non-negative — an invariant of every
    /// cost the engine produces, asserted by the property suite.
    pub fn is_non_negative(&self) -> bool {
        !self.raw_chips.is_negative()
            && !self.chip_defects.is_negative()
            && !self.raw_package.is_negative()
            && !self.package_defects.is_negative()
            && !self.wasted_kgd.is_negative()
    }
}

impl Add for ReCostBreakdown {
    type Output = ReCostBreakdown;

    fn add(self, rhs: ReCostBreakdown) -> ReCostBreakdown {
        ReCostBreakdown {
            raw_chips: self.raw_chips + rhs.raw_chips,
            chip_defects: self.chip_defects + rhs.chip_defects,
            raw_package: self.raw_package + rhs.raw_package,
            package_defects: self.package_defects + rhs.package_defects,
            wasted_kgd: self.wasted_kgd + rhs.wasted_kgd,
        }
    }
}

impl fmt::Display for ReCostBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RE {} (chips {} + defects {} + package {} + pkg defects {} + wasted KGD {})",
            self.total(),
            self.raw_chips,
            self.chip_defects,
            self.raw_package,
            self.package_defects,
            self.wasted_kgd
        )
    }
}

/// NRE cost breakdown used by the total-cost figures (Figure 6, 8, 9, 10):
/// module design, chip-level design (incl. masks/IP), package design and D2D
/// interface design.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NreBreakdown {
    /// `Σ K_m·S_m` — module design and block verification.
    pub modules: Money,
    /// `Σ (K_c·S_c + C)` — system verification, physical design, masks, IP.
    pub chips: Money,
    /// `Σ (K_p·S_p + C_p)` — package/interposer design.
    pub packages: Money,
    /// `Σ C_D2D` — D2D interface design per node.
    pub d2d: Money,
}

impl NreBreakdown {
    /// The component labels, in the paper's Figure 6 legend order.
    pub const COMPONENT_LABELS: [&'static str; 4] = [
        "NRE Cost of Modules",
        "NRE Cost of Chips",
        "NRE Cost of Packages",
        "NRE Cost of D2D Interface",
    ];

    /// Total NRE.
    pub fn total(&self) -> Money {
        self.modules + self.chips + self.packages + self.d2d
    }

    /// Components paired with their labels.
    pub fn components(&self) -> [(&'static str, Money); 4] {
        [
            (Self::COMPONENT_LABELS[0], self.modules),
            (Self::COMPONENT_LABELS[1], self.chips),
            (Self::COMPONENT_LABELS[2], self.packages),
            (Self::COMPONENT_LABELS[3], self.d2d),
        ]
    }

    /// Scales every component (e.g. per-unit amortization).
    pub fn scaled(&self, factor: f64) -> NreBreakdown {
        NreBreakdown {
            modules: self.modules * factor,
            chips: self.chips * factor,
            packages: self.packages * factor,
            d2d: self.d2d * factor,
        }
    }

    /// `true` when every component is non-negative.
    pub fn is_non_negative(&self) -> bool {
        !self.modules.is_negative()
            && !self.chips.is_negative()
            && !self.packages.is_negative()
            && !self.d2d.is_negative()
    }
}

impl Add for NreBreakdown {
    type Output = NreBreakdown;

    fn add(self, rhs: NreBreakdown) -> NreBreakdown {
        NreBreakdown {
            modules: self.modules + rhs.modules,
            chips: self.chips + rhs.chips,
            packages: self.packages + rhs.packages,
            d2d: self.d2d + rhs.d2d,
        }
    }
}

impl fmt::Display for NreBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NRE {} (modules {} + chips {} + packages {} + D2D {})",
            self.total(),
            self.modules,
            self.chips,
            self.packages,
            self.d2d
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usd(v: f64) -> Money {
        Money::from_usd(v).unwrap()
    }

    fn sample() -> ReCostBreakdown {
        ReCostBreakdown {
            raw_chips: usd(100.0),
            chip_defects: usd(40.0),
            raw_package: usd(20.0),
            package_defects: usd(5.0),
            wasted_kgd: usd(3.0),
        }
    }

    #[test]
    fn totals() {
        let b = sample();
        assert_eq!(b.total().usd(), 168.0);
        assert_eq!(b.packaging_total().usd(), 28.0);
        assert_eq!(b.die_total().usd(), 140.0);
    }

    #[test]
    fn components_sum_to_total() {
        let b = sample();
        let sum: Money = b.components().iter().map(|(_, m)| *m).sum();
        assert_eq!(sum, b.total());
        assert_eq!(b.components()[0].0, "Cost of Raw Chips");
        assert_eq!(b.components()[4].0, "Cost of Wasted KGD");
    }

    #[test]
    fn scaling_and_adding() {
        let b = sample();
        let doubled = b.scaled(2.0);
        assert_eq!(doubled.total().usd(), 336.0);
        let sum = b + b;
        assert_eq!(sum.total(), doubled.total());
        assert!(b.is_non_negative());
    }

    #[test]
    fn negative_detection() {
        let mut b = sample();
        b.wasted_kgd = usd(-1.0);
        assert!(!b.is_non_negative());
    }

    #[test]
    fn nre_breakdown_totals() {
        let n = NreBreakdown {
            modules: usd(800.0),
            chips: usd(450.0),
            packages: usd(50.0),
            d2d: usd(10.0),
        };
        assert_eq!(n.total().usd(), 1310.0);
        let sum: Money = n.components().iter().map(|(_, m)| *m).sum();
        assert_eq!(sum, n.total());
        assert_eq!((n + n).total().usd(), 2620.0);
        assert_eq!(n.scaled(0.5).total().usd(), 655.0);
        assert!(n.is_non_negative());
    }

    #[test]
    fn display_mentions_every_component() {
        let b = sample();
        let s = b.to_string();
        assert!(s.contains("wasted KGD"), "{s}");
        let n = NreBreakdown::default();
        assert!(n.to_string().contains("D2D"));
    }
}
