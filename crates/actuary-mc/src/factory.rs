//! Simulated die production: wafers, defects, wafer sort.

use std::fmt;

use rand::Rng;

use actuary_model::ModelError;
use actuary_tech::ProcessNode;
use actuary_units::{Area, Money};

use crate::sampling::{gamma, poisson};

/// How the simulator draws die defects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DefectProcess {
    /// Each die is independently good with the marginal negative-binomial
    /// yield of Eq. (1). Fast; exact in the mean.
    #[default]
    Bernoulli,
    /// The compound process that *derives* Eq. (1): each wafer draws a
    /// Gamma(c, 1/c) defect-rate multiplier `G`, and each die on it suffers
    /// Poisson(D·S·G) defects. Same marginal yield, but reproduces
    /// wafer-to-wafer clustering (higher variance).
    CompoundGamma,
}

impl fmt::Display for DefectProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DefectProcess::Bernoulli => f.write_str("bernoulli"),
            DefectProcess::CompoundGamma => f.write_str("compound gamma-poisson"),
        }
    }
}

/// A simulated production line for one die design: draws dies wafer by
/// wafer, spends wafer money, and reports known-good dies.
///
/// The cost per die attempt is `wafer price / analytic dies-per-wafer`, so
/// the simulated expected cost per KGD converges exactly to the analytic
/// `raw / yield`.
#[derive(Debug, Clone)]
pub struct DieFactory {
    cost_per_attempt: Money,
    marginal_yield: f64,
    lambda: f64,
    cluster: f64,
    process: DefectProcess,
    dies_per_wafer: u32,
    dies_left_in_wafer: u32,
    wafer_multiplier: f64,
    attempts: u64,
    good: u64,
}

impl DieFactory {
    /// Creates a factory for dies of `area` on `node`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Yield`] if the die does not fit the node's
    /// wafer, or [`ModelError::ZeroYield`] if the marginal yield is zero.
    pub fn new(node: &ProcessNode, area: Area, process: DefectProcess) -> Result<Self, ModelError> {
        let dpw = node.wafer().dies_per_wafer(area)?;
        let cost_per_attempt = node.raw_die_cost(area)?;
        let marginal_yield = node.die_yield(area);
        if marginal_yield.is_zero() {
            return Err(ModelError::ZeroYield {
                step: "die manufacturing",
            });
        }
        Ok(DieFactory {
            cost_per_attempt,
            marginal_yield: marginal_yield.value(),
            lambda: node.defect_density().expected_defects(area),
            cluster: node.cluster(),
            process,
            dies_per_wafer: dpw.floor().max(1.0) as u32,
            dies_left_in_wafer: 0,
            wafer_multiplier: 1.0,
            attempts: 0,
            good: 0,
        })
    }

    /// Money spent per die attempt (good or bad).
    pub fn cost_per_attempt(&self) -> Money {
        self.cost_per_attempt
    }

    /// The marginal per-die yield (Eq. (1)).
    pub fn marginal_yield(&self) -> f64 {
        self.marginal_yield
    }

    /// Total die attempts so far.
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Total good dies produced so far.
    pub fn good_dies(&self) -> u64 {
        self.good
    }

    /// Draws one die; returns `true` if it passes wafer sort.
    pub fn draw_die<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        self.attempts += 1;
        let good = match self.process {
            DefectProcess::Bernoulli => rng.gen::<f64>() < self.marginal_yield,
            DefectProcess::CompoundGamma => {
                if self.dies_left_in_wafer == 0 {
                    // Start a new wafer: draw its defect-rate multiplier.
                    self.wafer_multiplier = gamma(rng, self.cluster) / self.cluster;
                    self.dies_left_in_wafer = self.dies_per_wafer;
                }
                self.dies_left_in_wafer -= 1;
                poisson(rng, self.lambda * self.wafer_multiplier) == 0
            }
        };
        if good {
            self.good += 1;
        }
        good
    }

    /// Draws dies until one passes wafer sort; returns the money spent.
    pub fn draw_known_good_die<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Money {
        let mut spend = Money::ZERO;
        loop {
            spend += self.cost_per_attempt;
            if self.draw_die(rng) {
                return spend;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actuary_tech::TechLibrary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn factory(process: DefectProcess) -> DieFactory {
        let lib = TechLibrary::paper_defaults().unwrap();
        let n5 = lib.node("5nm").unwrap();
        DieFactory::new(n5, Area::from_mm2(400.0).unwrap(), process).unwrap()
    }

    #[test]
    fn bernoulli_yield_converges_to_marginal() {
        let mut f = factory(DefectProcess::Bernoulli);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..100_000 {
            f.draw_die(&mut rng);
        }
        let empirical = f.good_dies() as f64 / f.attempts() as f64;
        assert!(
            (empirical - f.marginal_yield()).abs() < 0.005,
            "empirical {empirical} vs marginal {}",
            f.marginal_yield()
        );
    }

    #[test]
    fn compound_gamma_matches_marginal_yield_too() {
        let mut f = factory(DefectProcess::CompoundGamma);
        let mut rng = StdRng::seed_from_u64(43);
        for _ in 0..200_000 {
            f.draw_die(&mut rng);
        }
        let empirical = f.good_dies() as f64 / f.attempts() as f64;
        assert!(
            (empirical - f.marginal_yield()).abs() < 0.01,
            "empirical {empirical} vs marginal {}",
            f.marginal_yield()
        );
    }

    #[test]
    fn kgd_cost_converges_to_analytic() {
        let lib = TechLibrary::paper_defaults().unwrap();
        let n5 = lib.node("5nm").unwrap();
        let area = Area::from_mm2(400.0).unwrap();
        let mut f = DieFactory::new(n5, area, DefectProcess::Bernoulli).unwrap();
        let mut rng = StdRng::seed_from_u64(44);
        let trials = 20_000;
        let mut total = Money::ZERO;
        for _ in 0..trials {
            total += f.draw_known_good_die(&mut rng);
        }
        let empirical = total / trials as f64;
        let analytic = n5.yielded_die_cost(area).unwrap();
        let rel = (empirical.usd() - analytic.usd()).abs() / analytic.usd();
        assert!(
            rel < 0.02,
            "empirical {empirical} vs analytic {analytic} ({rel})"
        );
    }

    #[test]
    fn compound_mode_has_wafer_correlation() {
        // Within a wafer, die outcomes share the gamma multiplier; the
        // variance of per-wafer good counts must exceed the Bernoulli case.
        let mut fb = factory(DefectProcess::Bernoulli);
        let mut fc = factory(DefectProcess::CompoundGamma);
        let wafer_size = fb.dies_per_wafer as usize;
        let mut rng = StdRng::seed_from_u64(45);
        let wafer_goods = |f: &mut DieFactory, rng: &mut StdRng| -> Vec<f64> {
            (0..400)
                .map(|_| (0..wafer_size).filter(|_| f.draw_die(rng)).count() as f64)
                .collect()
        };
        let var = |xs: &[f64]| {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64
        };
        let vb = var(&wafer_goods(&mut fb, &mut rng));
        let vc = var(&wafer_goods(&mut fc, &mut rng));
        assert!(
            vc > 1.5 * vb,
            "clustered variance {vc} must exceed bernoulli {vb}"
        );
    }

    #[test]
    fn oversized_die_rejected() {
        let lib = TechLibrary::paper_defaults().unwrap();
        let n5 = lib.node("5nm").unwrap();
        let huge = Area::from_mm2(80_000.0).unwrap();
        assert!(DieFactory::new(n5, huge, DefectProcess::Bernoulli).is_err());
    }
}
