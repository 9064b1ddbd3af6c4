use std::fmt;

use actuary_units::{Money, Quantity};

use crate::breakdown::{NreBreakdown, ReCostBreakdown};
use crate::error::ModelError;

/// Total engineering cost of one system: per-unit RE plus NRE amortized
/// over the production quantity (§2.3).
///
/// > "For one VLSI system, its final engineering cost consists of the RE and
/// > the amortized NRE cost."
///
/// # Examples
///
/// ```
/// use actuary_model::{NreBreakdown, ReCostBreakdown, TotalCost};
/// use actuary_units::{Money, Quantity};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let re = ReCostBreakdown { raw_chips: Money::from_usd(100.0)?, ..Default::default() };
/// let nre = NreBreakdown { chips: Money::from_musd(50.0)?, ..Default::default() };
/// let cost = TotalCost::new(re, nre, Quantity::new(500_000));
/// assert_eq!(cost.amortized_nre_per_unit()?.usd(), 100.0);
/// assert_eq!(cost.per_unit()?.usd(), 200.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TotalCost {
    re: ReCostBreakdown,
    nre: NreBreakdown,
    quantity: Quantity,
}

impl TotalCost {
    /// Bundles a per-unit RE breakdown with a total NRE breakdown amortized
    /// over `quantity` units.
    pub fn new(re: ReCostBreakdown, nre: NreBreakdown, quantity: Quantity) -> Self {
        TotalCost { re, nre, quantity }
    }

    /// The per-unit RE breakdown.
    pub fn re(&self) -> &ReCostBreakdown {
        &self.re
    }

    /// The total (un-amortized) NRE breakdown.
    pub fn nre(&self) -> &NreBreakdown {
        &self.nre
    }

    /// The production quantity the NRE is spread over.
    pub fn quantity(&self) -> Quantity {
        self.quantity
    }

    /// Per-unit RE cost.
    pub fn re_per_unit(&self) -> Money {
        self.re.total()
    }

    /// Per-unit amortized NRE.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Unit`] if the quantity is zero.
    pub fn amortized_nre_per_unit(&self) -> Result<Money, ModelError> {
        Ok(self.nre.total().amortize(self.quantity)?)
    }

    /// Per-unit amortized NRE breakdown (each component divided by the
    /// quantity).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Unit`] if the quantity is zero.
    pub fn amortized_nre_breakdown(&self) -> Result<NreBreakdown, ModelError> {
        if self.quantity.is_zero() {
            // Reuse Money::amortize's error for a consistent message.
            self.nre.total().amortize(self.quantity)?;
        }
        Ok(self.nre.scaled(1.0 / self.quantity.as_f64()))
    }

    /// Total per-unit engineering cost: RE + amortized NRE.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Unit`] if the quantity is zero.
    pub fn per_unit(&self) -> Result<Money, ModelError> {
        Ok(self.re_per_unit() + self.amortized_nre_per_unit()?)
    }

    /// Program cost for the entire production run: `quantity × RE + NRE`.
    pub fn program_total(&self) -> Money {
        self.re.total() * self.quantity.as_f64() + self.nre.total()
    }

    /// Fraction of the per-unit cost that is RE (the paper's Figure 6 prints
    /// this percentage under each bar).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Unit`] if the quantity is zero or the total is
    /// zero.
    pub fn re_share(&self) -> Result<f64, ModelError> {
        let total = self.per_unit()?;
        Ok(self.re_per_unit().normalized_to(total)?)
    }
}

impl fmt::Display for TotalCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total cost over {} units: RE {} / unit, NRE {}",
            self.quantity,
            self.re.total(),
            self.nre.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn usd(v: f64) -> Money {
        Money::from_usd(v).unwrap()
    }

    fn sample() -> TotalCost {
        TotalCost::new(
            ReCostBreakdown {
                raw_chips: usd(60.0),
                chip_defects: usd(25.0),
                raw_package: usd(10.0),
                package_defects: usd(3.0),
                wasted_kgd: usd(2.0),
            },
            NreBreakdown {
                modules: usd(160.0e6),
                chips: usd(96.0e6),
                packages: usd(16.0e6),
                d2d: usd(6.0e6),
            },
            Quantity::new(2_000_000),
        )
    }

    #[test]
    fn per_unit_math() {
        let t = sample();
        assert_eq!(t.re_per_unit().usd(), 100.0);
        assert_eq!(t.amortized_nre_per_unit().unwrap().usd(), 139.0);
        assert_eq!(t.per_unit().unwrap().usd(), 239.0);
        assert!((t.re_share().unwrap() - 100.0 / 239.0).abs() < 1e-12);
    }

    #[test]
    fn program_total() {
        let t = sample();
        let expected = 100.0 * 2.0e6 + 278.0e6;
        assert!((t.program_total().usd() - expected).abs() < 1.0);
    }

    #[test]
    fn amortized_breakdown_sums_to_amortized_total() {
        let t = sample();
        let b = t.amortized_nre_breakdown().unwrap();
        assert!((b.total().usd() - t.amortized_nre_per_unit().unwrap().usd()).abs() < 1e-9);
        assert_eq!(b.modules.usd(), 80.0);
    }

    #[test]
    fn zero_quantity_errors() {
        let mut t = sample();
        t = TotalCost::new(*t.re(), *t.nre(), Quantity::ZERO);
        assert!(t.amortized_nre_per_unit().is_err());
        assert!(t.per_unit().is_err());
        assert!(t.amortized_nre_breakdown().is_err());
    }

    #[test]
    fn display() {
        let t = sample();
        let s = t.to_string();
        assert!(s.contains("2,000,000"), "{s}");
    }

    proptest! {
        #[test]
        fn re_share_increases_with_quantity(q in 1u64..100_000_000) {
            let base = sample();
            let small = TotalCost::new(*base.re(), *base.nre(), Quantity::new(q));
            let large = TotalCost::new(*base.re(), *base.nre(), Quantity::new(q * 10));
            prop_assert!(large.re_share().unwrap() >= small.re_share().unwrap());
        }

        #[test]
        fn per_unit_approaches_re_at_scale(q in 1_000_000_000u64..10_000_000_000) {
            let base = sample();
            let t = TotalCost::new(*base.re(), *base.nre(), Quantity::new(q));
            let per_unit = t.per_unit().unwrap().usd();
            prop_assert!((per_unit - 100.0) < 1.0, "per-unit {per_unit} must approach RE");
        }
    }
}
