//! Die harvesting (partial-good salvage / binning).
//!
//! Real chiplet products rarely scrap a die over one defect: a CCD with one
//! bad core out of eight is sold as a 6-core part. This module extends the
//! paper's all-or-nothing yield with a salvage model: a die is divided into
//! `units` identical redundant units (cores) plus an unrepairable common
//! region (uncore); the die is *sellable* when the common region is clean
//! and at least `min_good_units` units are clean.
//!
//! With the negative-binomial model the per-wafer defect rate is a shared
//! Gamma multiplier, so unit outcomes are correlated; the closed form below
//! integrates the binomial over the Gamma mixture by Gauss-Laguerre-free
//! binomial expansion: conditional on rate `λ·G`, each unit is clean with
//! probability `exp(−λ_u·G)` and the common region with `exp(−λ_c·G)`, so
//!
//! `P(sellable) = Σ_{k=min}^{n} C(n,k) Σ_{j=0}^{n−k} C(n−k,j) (−1)^j ·
//!  E[exp(−(λ_c + (k+j)·λ_u)·G)]`
//!
//! where `E[exp(−s·G)] = (1 + s/c)^(−c)` is the Gamma Laplace transform —
//! i.e. every term is an Eq. (1) evaluation. No sampling required.

use actuary_units::{Area, Money, Prob};

use crate::defect::DefectDensity;
use crate::error::YieldError;

/// A salvage (binning) scheme for a die with redundant units.
///
/// # Examples
///
/// ```
/// use actuary_units::Area;
/// use actuary_yield::{DefectDensity, HarvestSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // An 8-core CCD sold down to 6 cores; 60% of the die is core area.
/// let spec = HarvestSpec::new(8, 6, 0.60)?;
/// let d = DefectDensity::per_cm2(0.13)?;
/// let die = Area::from_mm2(74.0)?;
/// let strict = spec.full_yield(d, die, 10.0)?;
/// let salvaged = spec.sellable_yield(d, die, 10.0)?;
/// assert!(salvaged.value() > strict.value());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarvestSpec {
    units: u32,
    min_good_units: u32,
    unit_area_fraction: f64,
}

impl HarvestSpec {
    /// Creates a salvage scheme: `units` redundant units of which
    /// `min_good_units` must be clean; `unit_area_fraction` of the die is
    /// covered by the units (the rest is the unrepairable common region).
    ///
    /// # Errors
    ///
    /// Returns [`YieldError::InvalidModelParameter`] if `units` is zero,
    /// `min_good_units` is zero or exceeds `units`, or the area fraction is
    /// outside `(0, 1]`.
    pub fn new(
        units: u32,
        min_good_units: u32,
        unit_area_fraction: f64,
    ) -> Result<Self, YieldError> {
        if units == 0 {
            return Err(YieldError::InvalidModelParameter {
                name: "units",
                value: units as f64,
            });
        }
        if min_good_units == 0 || min_good_units > units {
            return Err(YieldError::InvalidModelParameter {
                name: "min_good_units",
                value: min_good_units as f64,
            });
        }
        if !unit_area_fraction.is_finite()
            || !(0.0..=1.0).contains(&unit_area_fraction)
            // lint:allow(determinism): rejecting exactly-zero input is validation, not comparison drift
            || unit_area_fraction == 0.0
        {
            return Err(YieldError::InvalidModelParameter {
                name: "unit_area_fraction",
                value: unit_area_fraction,
            });
        }
        Ok(HarvestSpec {
            units,
            min_good_units,
            unit_area_fraction,
        })
    }

    /// Number of redundant units on the die.
    pub fn units(self) -> u32 {
        self.units
    }

    /// Minimum clean units for the die to be sellable.
    pub fn min_good_units(self) -> u32 {
        self.min_good_units
    }

    /// Fraction of the die area covered by the redundant units.
    pub fn unit_area_fraction(self) -> f64 {
        self.unit_area_fraction
    }

    /// Gamma Laplace transform `E[exp(−s·G)] = (1 + s/c)^(−c)` — the
    /// negative-binomial kernel of Eq. (1).
    fn laplace(s: f64, cluster: f64) -> f64 {
        (1.0 + s / cluster).powf(-cluster)
    }

    /// Probability that *every* unit and the common region are clean —
    /// identical to the plain Eq. (1) yield of the whole die.
    ///
    /// # Errors
    ///
    /// Returns [`YieldError::InvalidModelParameter`] if `cluster` is not
    /// positive.
    pub fn full_yield(
        self,
        density: DefectDensity,
        die: Area,
        cluster: f64,
    ) -> Result<Prob, YieldError> {
        if !cluster.is_finite() || cluster <= 0.0 {
            return Err(YieldError::InvalidModelParameter {
                name: "cluster",
                value: cluster,
            });
        }
        let lambda = density.expected_defects(die);
        Ok(Prob::new(Self::laplace(lambda, cluster)).expect("laplace transform is within [0, 1]"))
    }

    /// Probability that the die is sellable: clean common region and at
    /// least `min_good_units` clean units.
    ///
    /// Uses the exact inclusion-exclusion closed form for up to 20 units;
    /// beyond that the alternating binomial sums cancel catastrophically in
    /// `f64`, so a stable Simpson quadrature over the Gamma mixture is used
    /// instead (relative error below 1e-6 for practical parameters).
    ///
    /// # Errors
    ///
    /// Returns [`YieldError::InvalidModelParameter`] if `cluster` is not
    /// positive.
    pub fn sellable_yield(
        self,
        density: DefectDensity,
        die: Area,
        cluster: f64,
    ) -> Result<Prob, YieldError> {
        if !cluster.is_finite() || cluster <= 0.0 {
            return Err(YieldError::InvalidModelParameter {
                name: "cluster",
                value: cluster,
            });
        }
        let lambda = density.expected_defects(die);
        let lambda_unit = lambda * self.unit_area_fraction / self.units as f64;
        let lambda_common = lambda * (1.0 - self.unit_area_fraction);
        let p = if self.units <= 20 {
            self.sellable_closed_form(lambda_unit, lambda_common, cluster)
        } else {
            self.sellable_quadrature(lambda_unit, lambda_common, cluster)
        };
        // Guard against floating point dust outside [0, 1].
        Ok(Prob::new(p.clamp(0.0, 1.0)).expect("clamped probability is valid"))
    }

    /// Exact inclusion-exclusion form (small unit counts):
    /// `Σ_{k=min}^{n} C(n,k) Σ_{j=0}^{n−k} C(n−k,j) (−1)^j L(λc+(k+j)λu)`.
    fn sellable_closed_form(self, lambda_unit: f64, lambda_common: f64, cluster: f64) -> f64 {
        let n = self.units as i64;
        let mut p = 0.0f64;
        for k in self.min_good_units as i64..=n {
            let c_nk = binomial_f64(n, k);
            let mut inner = 0.0f64;
            for j in 0..=(n - k) {
                let sign = if j % 2 == 0 { 1.0 } else { -1.0 };
                let s = lambda_common + (k + j) as f64 * lambda_unit;
                inner += sign * binomial_f64(n - k, j) * Self::laplace(s, cluster);
            }
            p += c_nk * inner;
        }
        p
    }

    /// Stable Simpson quadrature over the Gamma(c, 1/c) mixture:
    /// `∫ f_G(g) · e^(−λc·g) · P(Binom(n, e^(−λu·g)) ≥ m) dg`.
    fn sellable_quadrature(self, lambda_unit: f64, lambda_common: f64, cluster: f64) -> f64 {
        // Integrate to the far tail of Gamma(c, 1/c): mean 1, sd 1/√c.
        let upper = 1.0 + 12.0 / cluster.sqrt();
        let steps = 512usize; // even
        let h = upper / steps as f64;
        let ln_norm = cluster * cluster.ln() - ln_gamma(cluster);
        let integrand = |g: f64| -> f64 {
            if g <= 0.0 {
                return 0.0;
            }
            let ln_pdf = ln_norm + (cluster - 1.0) * g.ln() - cluster * g;
            let p_unit = (-lambda_unit * g).exp();
            ln_pdf.exp()
                * (-lambda_common * g).exp()
                * binomial_tail(self.units, self.min_good_units, p_unit)
        };
        let mut sum = integrand(0.0) + integrand(upper);
        for i in 1..steps {
            let weight = if i % 2 == 1 { 4.0 } else { 2.0 };
            sum += weight * integrand(i as f64 * h);
        }
        sum * h / 3.0
    }

    /// Effective cost per *sellable* die: `raw / sellable_yield`. Compare
    /// with `raw / full_yield` to quantify the salvage benefit.
    ///
    /// # Errors
    ///
    /// Returns [`YieldError::InvalidModelParameter`] for a bad cluster or a
    /// zero sellable yield.
    pub fn cost_per_sellable_die(
        self,
        raw_die_cost: Money,
        density: DefectDensity,
        die: Area,
        cluster: f64,
    ) -> Result<Money, YieldError> {
        let y = self.sellable_yield(density, die, cluster)?;
        if y.is_zero() {
            return Err(YieldError::InvalidModelParameter {
                name: "sellable_yield",
                value: 0.0,
            });
        }
        Ok(raw_die_cost * (1.0 / y.value()))
    }
}

/// Binomial coefficient as f64 (exact for the small `n` used here).
fn binomial_f64(n: i64, k: i64) -> f64 {
    if k < 0 || k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut result = 1.0f64;
    for i in 0..k {
        result = result * (n - i) as f64 / (i + 1) as f64;
    }
    result
}

/// `P(Binom(n, p) ≥ m)` computed by a stable multiplicative term
/// recurrence seeded in log space.
fn binomial_tail(n: u32, m: u32, p: f64) -> f64 {
    if m == 0 {
        return 1.0;
    }
    if p <= 0.0 {
        return 0.0;
    }
    if p >= 1.0 {
        return 1.0;
    }
    let n_f = n as f64;
    let q = 1.0 - p;
    // Seed at k = m: ln C(n,m) + m ln p + (n−m) ln q.
    let ln_term = ln_gamma(n_f + 1.0) - ln_gamma(m as f64 + 1.0) - ln_gamma((n - m) as f64 + 1.0)
        + m as f64 * p.ln()
        + (n - m) as f64 * q.ln();
    let mut term = ln_term.exp();
    let mut sum = term;
    for k in m..n {
        term *= (n - k) as f64 / (k + 1) as f64 * (p / q);
        sum += term;
    }
    sum.min(1.0)
}

/// Natural log of the Gamma function (Lanczos approximation, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 8] = [
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = 0.999_999_999_999_809_9_f64;
    for (i, &c) in COEFFS.iter().enumerate() {
        acc += c / (x + (i + 1) as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dd(v: f64) -> DefectDensity {
        DefectDensity::per_cm2(v).unwrap()
    }

    fn area(mm2: f64) -> Area {
        Area::from_mm2(mm2).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(HarvestSpec::new(8, 6, 0.6).is_ok());
        assert!(HarvestSpec::new(0, 1, 0.6).is_err());
        assert!(HarvestSpec::new(8, 0, 0.6).is_err());
        assert!(HarvestSpec::new(8, 9, 0.6).is_err());
        assert!(HarvestSpec::new(8, 6, 0.0).is_err());
        assert!(HarvestSpec::new(8, 6, 1.2).is_err());
    }

    #[test]
    fn requiring_all_units_equals_plain_yield() {
        // min = n and the whole die covered by units ⇒ exactly Eq. (1).
        let spec = HarvestSpec::new(8, 8, 1.0).unwrap();
        let y_salvage = spec.sellable_yield(dd(0.13), area(74.0), 10.0).unwrap();
        let y_plain = spec.full_yield(dd(0.13), area(74.0), 10.0).unwrap();
        assert!(
            (y_salvage.value() - y_plain.value()).abs() < 1e-10,
            "{} vs {}",
            y_salvage,
            y_plain
        );
    }

    #[test]
    fn salvage_always_helps() {
        let strict = HarvestSpec::new(8, 8, 0.6).unwrap();
        let salvage = HarvestSpec::new(8, 6, 0.6).unwrap();
        let d = dd(0.13);
        let s = area(74.0);
        let y_strict = strict.sellable_yield(d, s, 10.0).unwrap();
        let y_salvage = salvage.sellable_yield(d, s, 10.0).unwrap();
        assert!(y_salvage.value() > y_strict.value());
    }

    #[test]
    fn epyc_style_numbers_are_plausible() {
        // 8-core 74 mm² CCD at early 7 nm (D = 0.13): plain yield ≈ 91 %;
        // with 6-of-8 salvage the sellable rate approaches the
        // common-region (uncore) bound of ≈ 96.2 %.
        let spec = HarvestSpec::new(8, 6, 0.60).unwrap();
        let plain = spec.full_yield(dd(0.13), area(74.0), 10.0).unwrap();
        let sellable = spec.sellable_yield(dd(0.13), area(74.0), 10.0).unwrap();
        assert!((plain.value() - 0.909).abs() < 0.01, "plain {plain}");
        let lambda_common = dd(0.13).expected_defects(area(74.0)) * 0.40;
        let uncore_bound = (1.0 + lambda_common / 10.0).powf(-10.0);
        assert!(sellable.value() > 0.955, "sellable {sellable}");
        assert!(
            (sellable.value() - uncore_bound).abs() < 0.005,
            "salvage should approach the uncore bound: {sellable} vs {uncore_bound:.4}"
        );
    }

    #[test]
    fn cost_per_sellable_die() {
        let spec = HarvestSpec::new(8, 6, 0.60).unwrap();
        let raw = Money::from_usd(12.0).unwrap();
        let cost = spec
            .cost_per_sellable_die(raw, dd(0.13), area(74.0), 10.0)
            .unwrap();
        assert!(cost > raw);
        let strict = HarvestSpec::new(8, 8, 0.60).unwrap();
        let strict_cost = strict
            .cost_per_sellable_die(raw, dd(0.13), area(74.0), 10.0)
            .unwrap();
        assert!(cost < strict_cost, "salvage must cut the effective cost");
    }

    #[test]
    fn monte_carlo_cross_check() {
        // Verify the closed form against direct simulation of the
        // Gamma-Poisson process.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let spec = HarvestSpec::new(8, 6, 0.60).unwrap();
        let d = dd(0.20);
        let s = area(80.0);
        let cluster = 10.0;
        let analytic = spec.sellable_yield(d, s, cluster).unwrap().value();

        let lambda = d.expected_defects(s);
        let lambda_unit = lambda * 0.60 / 8.0;
        let lambda_common = lambda * 0.40;
        let mut rng = StdRng::seed_from_u64(99);
        let trials = 200_000;
        let mut sellable = 0u32;
        for _ in 0..trials {
            // Gamma(c, 1/c) via sum of exponentials is wrong for non-integer
            // c; use the Marsaglia-Tsang-free approach: for c = 10 (integer)
            // the sum of 10 Exp(1) / 10 is exact.
            let g: f64 = (0..10)
                .map(|_| -rng.gen::<f64>().max(f64::MIN_POSITIVE).ln())
                .sum::<f64>()
                / 10.0;
            let common_clean = rng.gen::<f64>() < (-lambda_common * g).exp();
            if !common_clean {
                continue;
            }
            let p_unit = (-lambda_unit * g).exp();
            let good_units = (0..8).filter(|_| rng.gen::<f64>() < p_unit).count();
            if good_units >= 6 {
                sellable += 1;
            }
        }
        let empirical = sellable as f64 / trials as f64;
        assert!(
            (empirical - analytic).abs() < 0.005,
            "closed form {analytic} vs simulation {empirical}"
        );
    }

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(1) = Γ(2) = 1; Γ(5) = 24; Γ(0.5) = √π.
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
        assert!((ln_gamma(10.0) - 362_880.0f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn binomial_tail_basics() {
        assert_eq!(binomial_tail(8, 0, 0.5), 1.0);
        assert_eq!(binomial_tail(8, 3, 0.0), 0.0);
        assert_eq!(binomial_tail(8, 3, 1.0), 1.0);
        // P(Binom(2, 0.5) >= 1) = 0.75.
        assert!((binomial_tail(2, 1, 0.5) - 0.75).abs() < 1e-12);
        // P(Binom(8, 0.9) >= 8) = 0.9^8.
        assert!((binomial_tail(8, 8, 0.9) - 0.9f64.powi(8)).abs() < 1e-12);
    }

    #[test]
    fn quadrature_agrees_with_closed_form_on_small_n() {
        // Force both paths on the same n=8 configuration and compare.
        let spec = HarvestSpec::new(8, 6, 0.60).unwrap();
        let lambda = dd(0.20).expected_defects(area(100.0));
        let lambda_unit = lambda * 0.60 / 8.0;
        let lambda_common = lambda * 0.40;
        let exact = spec.sellable_closed_form(lambda_unit, lambda_common, 10.0);
        let quad = spec.sellable_quadrature(lambda_unit, lambda_common, 10.0);
        assert!(
            (exact - quad).abs() < 1e-5,
            "closed form {exact} vs quadrature {quad}"
        );
    }

    #[test]
    fn large_unit_counts_are_stable() {
        // 64 harvestable cores: the inclusion-exclusion form collapses here;
        // the quadrature must return a sane probability.
        let spec = HarvestSpec::new(64, 48, 0.60).unwrap();
        let y = spec.sellable_yield(dd(0.13), area(700.0), 10.0).unwrap();
        assert!(y.value() > 0.0 && y.value() <= 1.0, "{y}");
        // Bounded by the uncore yield.
        let lambda_common = dd(0.13).expected_defects(area(700.0)) * 0.40;
        let bound = (1.0 + lambda_common / 10.0).powf(-10.0);
        assert!(y.value() <= bound + 1e-6, "{y} vs bound {bound:.4}");
        // And salvage helps: well above the all-64-cores-perfect yield.
        let strict = HarvestSpec::new(64, 64, 0.60).unwrap();
        let y_strict = strict.sellable_yield(dd(0.13), area(700.0), 10.0).unwrap();
        assert!(y.value() > y_strict.value());
    }

    proptest! {
        #[test]
        fn sellable_yield_is_valid_probability(
            d in 0.01f64..1.0,
            mm2 in 20.0f64..400.0,
            units in 2u32..12,
            frac in 0.1f64..1.0,
        ) {
            let min = units.max(2) - 1;
            let spec = HarvestSpec::new(units, min, frac).unwrap();
            let y = spec.sellable_yield(dd(d), area(mm2), 10.0).unwrap();
            prop_assert!((0.0..=1.0).contains(&y.value()));
        }

        #[test]
        fn lower_bin_requirements_never_hurt(
            d in 0.01f64..0.6,
            mm2 in 20.0f64..300.0,
        ) {
            let tight = HarvestSpec::new(8, 8, 0.6).unwrap();
            let mid = HarvestSpec::new(8, 7, 0.6).unwrap();
            let loose = HarvestSpec::new(8, 6, 0.6).unwrap();
            let y_tight = tight.sellable_yield(dd(d), area(mm2), 10.0).unwrap().value();
            let y_mid = mid.sellable_yield(dd(d), area(mm2), 10.0).unwrap().value();
            let y_loose = loose.sellable_yield(dd(d), area(mm2), 10.0).unwrap().value();
            prop_assert!(y_loose + 1e-12 >= y_mid && y_mid + 1e-12 >= y_tight);
        }

        #[test]
        fn sellable_bounded_by_common_region_yield(
            d in 0.01f64..0.6,
            mm2 in 20.0f64..300.0,
            frac in 0.2f64..0.9,
        ) {
            let spec = HarvestSpec::new(8, 4, frac).unwrap();
            let y = spec.sellable_yield(dd(d), area(mm2), 10.0).unwrap().value();
            // The common region alone yields (1 + λc/c)^(−c); salvage can
            // never beat that bound.
            let lambda_common = dd(d).expected_defects(area(mm2)) * (1.0 - frac);
            let bound = (1.0 + lambda_common / 10.0).powf(-10.0);
            prop_assert!(y <= bound + 1e-9);
        }
    }
}
