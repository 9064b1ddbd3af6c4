use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

use crate::fmt::fmt_thousands;

/// A production quantity (number of systems, chips or packages built).
///
/// NRE amortization (§2.3 of the paper) divides one-time costs by a
/// [`Quantity`]; the experiments in §4–5 use 500 k, 2 M and 10 M.
///
/// # Examples
///
/// ```
/// use actuary_units::Quantity;
///
/// let q = Quantity::new(500_000);
/// assert_eq!(q.to_string(), "500,000");
/// assert_eq!((q * 4).count(), 2_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Quantity(u64);

impl Quantity {
    /// The zero quantity.
    pub const ZERO: Quantity = Quantity(0);

    /// Creates a quantity of `count` units.
    pub const fn new(count: u64) -> Self {
        Quantity(count)
    }

    /// The number of units.
    #[inline]
    pub const fn count(self) -> u64 {
        self.0
    }

    /// Returns `true` if the quantity is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The quantity as a floating point number, for cost arithmetic.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Saturating addition of two quantities.
    #[inline]
    pub const fn saturating_add(self, other: Quantity) -> Quantity {
        Quantity(self.0.saturating_add(other.0))
    }
}

impl fmt::Display for Quantity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_thousands(self.0))
    }
}

impl From<u64> for Quantity {
    fn from(count: u64) -> Self {
        Quantity(count)
    }
}

impl From<Quantity> for u64 {
    fn from(q: Quantity) -> u64 {
        q.0
    }
}

impl Add for Quantity {
    type Output = Quantity;

    fn add(self, rhs: Quantity) -> Quantity {
        Quantity(self.0 + rhs.0)
    }
}

impl AddAssign for Quantity {
    fn add_assign(&mut self, rhs: Quantity) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for Quantity {
    type Output = Quantity;

    fn mul(self, rhs: u64) -> Quantity {
        Quantity(self.0 * rhs)
    }
}

impl Sum for Quantity {
    fn sum<I: Iterator<Item = Quantity>>(iter: I) -> Quantity {
        iter.fold(Quantity::ZERO, |acc, q| acc + q)
    }
}

impl<'a> Sum<&'a Quantity> for Quantity {
    fn sum<I: Iterator<Item = &'a Quantity>>(iter: I) -> Quantity {
        iter.copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let q = Quantity::new(42);
        assert_eq!(q.count(), 42);
        assert_eq!(q.as_f64(), 42.0);
        assert!(!q.is_zero());
        assert!(Quantity::ZERO.is_zero());
    }

    #[test]
    fn display_uses_thousand_separators() {
        assert_eq!(Quantity::new(10_000_000).to_string(), "10,000,000");
        assert_eq!(Quantity::new(999).to_string(), "999");
        assert_eq!(Quantity::ZERO.to_string(), "0");
    }

    #[test]
    fn conversions() {
        let q: Quantity = 7u64.into();
        let raw: u64 = q.into();
        assert_eq!(raw, 7);
    }

    #[test]
    fn arithmetic() {
        assert_eq!((Quantity::new(2) + Quantity::new(3)).count(), 5);
        assert_eq!((Quantity::new(2) * 3).count(), 6);
        let total: Quantity = [1u64, 2, 3].iter().map(|&v| Quantity::new(v)).sum();
        assert_eq!(total.count(), 6);
        assert_eq!(
            Quantity::new(u64::MAX)
                .saturating_add(Quantity::new(1))
                .count(),
            u64::MAX
        );
    }

    #[test]
    fn ordering_and_hash_derive() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Quantity::new(1));
        set.insert(Quantity::new(1));
        assert_eq!(set.len(), 1);
        assert!(Quantity::new(1) < Quantity::new(2));
    }
}
