use std::fmt::Debug;

use actuary_units::{Area, Prob};

use crate::defect::DefectDensity;
use crate::error::YieldError;

/// A die-yield model: maps defect density and die area to a probability that
/// a die is good.
///
/// The paper (§2.2) adopts the negative-binomial form of Eq. (1); the other
/// classical models are provided so that the *choice of model* can itself be
/// explored (see the `yield_model_ablation` bench).
///
/// Implementations must be monotone: yield never increases with area or with
/// defect density. The property suite in this module asserts this for every
/// shipped model.
pub trait YieldModel: Debug {
    /// Yield of a die of area `die` under defect density `density`.
    ///
    /// Implementations must return a valid probability for any non-negative
    /// inputs; zero-area dies yield 1.
    fn die_yield(&self, density: DefectDensity, die: Area) -> Prob;

    /// A short human-readable name for reports ("negative binomial", …).
    fn name(&self) -> &'static str;
}

/// The negative-binomial / Seed's model of the paper's Eq. (1):
///
/// `Y = (1 + D·S / c)^(−c)`
///
/// where `c` is the cluster parameter (negative binomial) or the number of
/// critical mask levels (Seed's interpretation). The paper uses `c = 10` for
/// logic processes, `c = 3` for fan-out RDL and `c = 6` for silicon
/// interposers.
///
/// # Examples
///
/// ```
/// use actuary_units::Area;
/// use actuary_yield::{DefectDensity, NegativeBinomial, YieldModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let m = NegativeBinomial::new(10.0)?;
/// let y = m.die_yield(DefectDensity::per_cm2(0.09)?, Area::from_mm2(100.0)?);
/// assert!((y.value() - (1.0 + 0.09 / 10.0f64).powi(-10)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NegativeBinomial {
    cluster: f64,
}

impl NegativeBinomial {
    /// Creates the model with cluster parameter `c`.
    ///
    /// # Errors
    ///
    /// Returns [`YieldError::InvalidModelParameter`] if `c` is not finite and
    /// positive.
    pub fn new(cluster: f64) -> Result<Self, YieldError> {
        if cluster.is_finite() && cluster > 0.0 {
            Ok(NegativeBinomial { cluster })
        } else {
            Err(YieldError::InvalidModelParameter {
                name: "cluster",
                value: cluster,
            })
        }
    }

    /// The cluster parameter `c`.
    #[inline]
    pub fn cluster(self) -> f64 {
        self.cluster
    }
}

impl YieldModel for NegativeBinomial {
    fn die_yield(&self, density: DefectDensity, die: Area) -> Prob {
        let ds = density.expected_defects(die);
        let y = (1.0 + ds / self.cluster).powf(-self.cluster);
        // The formula is mathematically confined to (0, 1] for ds >= 0.
        Prob::new(y).expect("negative-binomial yield is always within [0, 1]")
    }

    fn name(&self) -> &'static str {
        "negative binomial"
    }
}

/// The Poisson yield model `Y = e^(−D·S)`, the `c → ∞` limit of
/// [`NegativeBinomial`]. Pessimistic for large dies because it ignores defect
/// clustering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Poisson;

impl Poisson {
    /// Creates the Poisson model.
    pub fn new() -> Self {
        Poisson
    }
}

impl YieldModel for Poisson {
    fn die_yield(&self, density: DefectDensity, die: Area) -> Prob {
        let ds = density.expected_defects(die);
        Prob::new((-ds).exp()).expect("poisson yield is always within [0, 1]")
    }

    fn name(&self) -> &'static str {
        "poisson"
    }
}

/// Murphy's model `Y = ((1 − e^(−D·S)) / (D·S))²`, a classical compromise
/// between Poisson and uniform defect distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Murphy;

impl Murphy {
    /// Creates Murphy's model.
    pub fn new() -> Self {
        Murphy
    }
}

impl YieldModel for Murphy {
    fn die_yield(&self, density: DefectDensity, die: Area) -> Prob {
        let ds = density.expected_defects(die);
        // lint:allow(determinism): removable singularity of (1 - e^-x)/x at exactly zero
        if ds == 0.0 {
            return Prob::ONE;
        }
        let base = (1.0 - (-ds).exp()) / ds;
        Prob::new(base * base).expect("murphy yield is always within [0, 1]")
    }

    fn name(&self) -> &'static str {
        "murphy"
    }
}

/// The exponential (Seeds) model `Y = 1 / (1 + D·S)`, the most optimistic of
/// the classical models for very large dies (maximum clustering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SeedsExponential;

impl SeedsExponential {
    /// Creates the exponential model.
    pub fn new() -> Self {
        SeedsExponential
    }
}

impl YieldModel for SeedsExponential {
    fn die_yield(&self, density: DefectDensity, die: Area) -> Prob {
        let ds = density.expected_defects(die);
        Prob::new(1.0 / (1.0 + ds)).expect("exponential yield is always within [0, 1]")
    }

    fn name(&self) -> &'static str {
        "seeds exponential"
    }
}

/// The Bose-Einstein model `Y = (1 + D·S)^(−n)` for `n` critical mask
/// levels; equivalent to [`SeedsExponential`] at `n = 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoseEinstein {
    levels: f64,
}

impl BoseEinstein {
    /// Creates the model with `levels` critical mask levels.
    ///
    /// # Errors
    ///
    /// Returns [`YieldError::InvalidModelParameter`] if `levels` is not
    /// finite and positive.
    pub fn new(levels: f64) -> Result<Self, YieldError> {
        if levels.is_finite() && levels > 0.0 {
            Ok(BoseEinstein { levels })
        } else {
            Err(YieldError::InvalidModelParameter {
                name: "levels",
                value: levels,
            })
        }
    }

    /// The number of critical mask levels.
    #[inline]
    pub fn levels(self) -> f64 {
        self.levels
    }
}

impl YieldModel for BoseEinstein {
    fn die_yield(&self, density: DefectDensity, die: Area) -> Prob {
        let ds = density.expected_defects(die);
        Prob::new((1.0 + ds).powf(-self.levels))
            .expect("bose-einstein yield is always within [0, 1]")
    }

    fn name(&self) -> &'static str {
        "bose-einstein"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn area(mm2: f64) -> Area {
        Area::from_mm2(mm2).unwrap()
    }

    fn dd(v: f64) -> DefectDensity {
        DefectDensity::per_cm2(v).unwrap()
    }

    /// Anchor points read off the paper's Figure 2 (±1 % yield tolerance).
    #[test]
    fn paper_figure2_anchor_points() {
        let nb10 = NegativeBinomial::new(10.0).unwrap();
        let cases = [
            (0.20, 800.0, 0.2267), // 3 nm
            (0.11, 800.0, 0.4303), // 5 nm
            (0.09, 800.0, 0.4991), // 7 nm
            (0.08, 800.0, 0.5377), // 14 nm
        ];
        for (d, s, expected) in cases {
            let y = nb10.die_yield(dd(d), area(s)).value();
            assert!(
                (y - expected).abs() < 0.01,
                "D={d} S={s}: got {y}, expected {expected}"
            );
        }
        let rdl = NegativeBinomial::new(3.0).unwrap();
        let y = rdl.die_yield(dd(0.05), area(800.0)).value();
        assert!((y - 0.687).abs() < 0.01, "RDL: got {y}");
        let si = NegativeBinomial::new(6.0).unwrap();
        let y = si.die_yield(dd(0.06), area(800.0)).value();
        assert!((y - 0.630).abs() < 0.01, "SI: got {y}");
    }

    #[test]
    fn construction_validates_parameters() {
        assert!(NegativeBinomial::new(0.0).is_err());
        assert!(NegativeBinomial::new(-3.0).is_err());
        assert!(NegativeBinomial::new(f64::NAN).is_err());
        assert!(BoseEinstein::new(0.0).is_err());
        assert!(NegativeBinomial::new(10.0).is_ok());
    }

    #[test]
    fn zero_area_and_zero_defects_yield_one() {
        let models: Vec<Box<dyn YieldModel>> = vec![
            Box::new(NegativeBinomial::new(10.0).unwrap()),
            Box::new(Poisson::new()),
            Box::new(Murphy::new()),
            Box::new(SeedsExponential::new()),
            Box::new(BoseEinstein::new(5.0).unwrap()),
        ];
        for m in &models {
            assert_eq!(m.die_yield(dd(0.2), Area::ZERO), Prob::ONE, "{}", m.name());
            assert_eq!(
                m.die_yield(DefectDensity::ZERO, area(500.0)),
                Prob::ONE,
                "{}",
                m.name()
            );
        }
    }

    #[test]
    fn negative_binomial_limits() {
        // c → ∞ approaches Poisson.
        let nb = NegativeBinomial::new(1e7).unwrap();
        let p = Poisson::new();
        let y_nb = nb.die_yield(dd(0.1), area(400.0)).value();
        let y_p = p.die_yield(dd(0.1), area(400.0)).value();
        assert!((y_nb - y_p).abs() < 1e-5);
        // c = 1 equals the exponential model.
        let nb1 = NegativeBinomial::new(1.0).unwrap();
        let se = SeedsExponential::new();
        let y1 = nb1.die_yield(dd(0.1), area(400.0)).value();
        let y2 = se.die_yield(dd(0.1), area(400.0)).value();
        assert!((y1 - y2).abs() < 1e-12);
    }

    #[test]
    fn model_ordering_for_large_dies() {
        // With clustering, large dies yield better than Poisson predicts.
        let nb = NegativeBinomial::new(10.0).unwrap();
        let p = Poisson::new();
        let se = SeedsExponential::new();
        let d = dd(0.2);
        let s = area(800.0);
        let y_p = p.die_yield(d, s).value();
        let y_nb = nb.die_yield(d, s).value();
        let y_se = se.die_yield(d, s).value();
        assert!(y_p < y_nb, "poisson must be most pessimistic");
        assert!(y_nb < y_se, "exponential must be most optimistic");
    }

    #[test]
    fn murphy_between_poisson_and_exponential() {
        let d = dd(0.15);
        let s = area(600.0);
        let y_p = Poisson::new().die_yield(d, s).value();
        let y_m = Murphy::new().die_yield(d, s).value();
        let y_e = SeedsExponential::new().die_yield(d, s).value();
        assert!(y_p < y_m && y_m < y_e);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            NegativeBinomial::new(10.0).unwrap().name(),
            "negative binomial"
        );
        assert_eq!(Poisson::new().name(), "poisson");
        assert_eq!(Murphy::new().name(), "murphy");
        assert_eq!(SeedsExponential::new().name(), "seeds exponential");
        assert_eq!(BoseEinstein::new(2.0).unwrap().name(), "bose-einstein");
    }

    #[test]
    fn trait_is_object_safe() {
        let m: &dyn YieldModel = &Poisson::new();
        assert!(m.die_yield(dd(0.1), area(100.0)).value() > 0.0);
    }

    proptest! {
        #[test]
        fn all_models_return_valid_probabilities(
            d in 0.0f64..5.0,
            s in 0.0f64..2000.0,
            c in 0.5f64..50.0,
        ) {
            let models: Vec<Box<dyn YieldModel>> = vec![
                Box::new(NegativeBinomial::new(c).unwrap()),
                Box::new(Poisson::new()),
                Box::new(Murphy::new()),
                Box::new(SeedsExponential::new()),
                Box::new(BoseEinstein::new(c).unwrap()),
            ];
            for m in &models {
                let y = m.die_yield(dd(d), area(s)).value();
                prop_assert!((0.0..=1.0).contains(&y), "{} returned {y}", m.name());
            }
        }

        #[test]
        fn yield_monotone_decreasing_in_area(
            d in 0.01f64..2.0,
            s in 1.0f64..1000.0,
            c in 1.0f64..30.0,
        ) {
            let models: Vec<Box<dyn YieldModel>> = vec![
                Box::new(NegativeBinomial::new(c).unwrap()),
                Box::new(Poisson::new()),
                Box::new(Murphy::new()),
                Box::new(SeedsExponential::new()),
                Box::new(BoseEinstein::new(c).unwrap()),
            ];
            for m in &models {
                let y_small = m.die_yield(dd(d), area(s)).value();
                let y_big = m.die_yield(dd(d), area(s * 1.5)).value();
                prop_assert!(y_big <= y_small + 1e-12, "{} not monotone in area", m.name());
            }
        }

        #[test]
        fn yield_monotone_decreasing_in_density(
            d in 0.01f64..2.0,
            s in 1.0f64..1000.0,
        ) {
            let nb = NegativeBinomial::new(10.0).unwrap();
            let y_low = nb.die_yield(dd(d), area(s)).value();
            let y_high = nb.die_yield(dd(d * 2.0), area(s)).value();
            prop_assert!(y_high <= y_low + 1e-12);
        }

        #[test]
        fn clustering_helps_yield(
            d in 0.01f64..1.0,
            s in 10.0f64..1000.0,
            c_small in 1.0f64..5.0,
        ) {
            // Smaller cluster parameter = more clustering = better yield.
            let c_large = c_small * 4.0;
            let m_small = NegativeBinomial::new(c_small).unwrap();
            let m_large = NegativeBinomial::new(c_large).unwrap();
            let y_small = m_small.die_yield(dd(d), area(s)).value();
            let y_large = m_large.die_yield(dd(d), area(s)).value();
            prop_assert!(y_small >= y_large - 1e-12);
        }
    }
}
