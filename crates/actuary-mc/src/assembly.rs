//! Simulated assembly flows: chip-last and chip-first production of whole
//! systems, spending real money at every step.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use actuary_arch::{ArchError, System};
use actuary_model::AssemblyFlow;
use actuary_tech::TechLibrary;
use actuary_units::Money;

use crate::factory::{DefectProcess, DieFactory};

/// Configuration of a Monte-Carlo run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McConfig {
    /// Number of *good* systems to produce (renewal cycles to sample).
    pub systems: u32,
    /// RNG seed (runs are deterministic given a seed).
    pub seed: u64,
    /// How die defects are drawn.
    pub defect_process: DefectProcess,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            systems: 1_000,
            seed: 0,
            defect_process: DefectProcess::Bernoulli,
        }
    }
}

/// Result of a Monte-Carlo run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McResult {
    mean_cost: Money,
    std_error: Money,
    systems_built: u32,
    dies_consumed: u64,
    interposers_consumed: u64,
    substrates_consumed: u64,
}

impl McResult {
    /// Empirical mean cost per good system.
    pub fn mean_cost(&self) -> Money {
        self.mean_cost
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> Money {
        self.std_error
    }

    /// Number of good systems produced.
    pub fn systems_built(&self) -> u32 {
        self.systems_built
    }

    /// Total die attempts consumed (including scrapped ones).
    pub fn dies_consumed(&self) -> u64 {
        self.dies_consumed
    }

    /// Total interposers consumed.
    pub fn interposers_consumed(&self) -> u64 {
        self.interposers_consumed
    }

    /// Total substrates consumed.
    pub fn substrates_consumed(&self) -> u64 {
        self.substrates_consumed
    }

    /// Whether `analytic` lies within `k` standard errors of the empirical
    /// mean (the agreement criterion used by the validation suite).
    pub fn agrees_with(&self, analytic: Money, k: f64) -> bool {
        (self.mean_cost.usd() - analytic.usd()).abs() <= k * self.std_error.usd().max(1e-12)
    }
}

impl fmt::Display for McResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ± {} per system over {} builds",
            self.mean_cost, self.std_error, self.systems_built
        )
    }
}

/// Simulates producing `cfg.systems` good systems and returns the empirical
/// cost statistics. The mean converges to the analytic
/// [`re_cost`](actuary_model::re_cost) of the same system.
///
/// # Errors
///
/// Returns [`ArchError::InvalidArchitecture`] for a zero-system config and
/// propagates technology/model errors.
pub fn simulate_system(
    system: &System,
    lib: &TechLibrary,
    flow: AssemblyFlow,
    cfg: &McConfig,
) -> Result<McResult, ArchError> {
    if cfg.systems == 0 {
        return Err(ArchError::InvalidArchitecture {
            reason: "monte-carlo run needs at least one system".to_string(),
        });
    }
    let packaging = lib.packaging(system.integration())?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // One factory per die group.
    let mut factories = Vec::new();
    let mut counts = Vec::new();
    for (chip, count) in system.chips() {
        let node = lib.node(chip.node().as_str())?;
        factories.push(DieFactory::new(
            node,
            chip.die_area(lib)?,
            cfg.defect_process,
        )?);
        counts.push(*count);
    }
    let n_total: u32 = counts.iter().sum();

    // Package material prices.
    let total_silicon = system.total_silicon(lib)?;
    let package_area = packaging.package_area(total_silicon)?;
    let substrate_cost = packaging.substrate_cost(package_area);
    let bond_cost = packaging.bond_cost_per_chip();
    let assembly_cost = packaging.assembly_cost();
    let (interposer_cost, y1) = match packaging.interposer() {
        Some(spec) => {
            let ia = spec.interposer_area(total_silicon)?;
            (spec.raw_cost(ia)?, spec.manufacturing_yield(ia).value())
        }
        None => (Money::ZERO, 1.0),
    };
    let y2 = packaging.chip_bond_yield().value();
    let y3 = packaging.substrate_attach_yield().value();
    let yt = packaging.package_test_yield().value();

    let mut cycle_costs: Vec<f64> = Vec::with_capacity(cfg.systems as usize);
    let mut interposers_used = 0u64;
    let mut substrates_used = 0u64;

    for _ in 0..cfg.systems {
        let mut spend = Money::ZERO;
        match flow {
            AssemblyFlow::ChipLast => {
                if packaging.interposer().is_some() {
                    // Outer loop: final test; middle: attach; inner: CoW.
                    'test: loop {
                        // Build one chip-on-wafer assembly.
                        'cow: loop {
                            // Screened interposer: draw until good.
                            loop {
                                spend += interposer_cost;
                                interposers_used += 1;
                                if rng.gen::<f64>() < y1 {
                                    break;
                                }
                            }
                            // Acquire KGDs and bond them one by one.
                            spend += assembly_cost;
                            let mut all_bonded = true;
                            for (f, &count) in factories.iter_mut().zip(&counts) {
                                for _ in 0..count {
                                    spend += f.draw_known_good_die(&mut rng);
                                    spend += bond_cost;
                                    if rng.gen::<f64>() >= y2 {
                                        all_bonded = false;
                                    }
                                }
                            }
                            if all_bonded {
                                break 'cow;
                            }
                            // CoW lost: interposer and dies scrapped; retry.
                        }
                        // Attach the assembled CoW to a substrate.
                        spend += substrate_cost;
                        substrates_used += 1;
                        if rng.gen::<f64>() >= y3 {
                            continue 'test; // everything lost
                        }
                        if rng.gen::<f64>() < yt {
                            break 'test;
                        }
                        // Failed final test: everything lost.
                    }
                } else {
                    // SoC / MCM: dies bond directly onto the substrate.
                    'mcm: loop {
                        spend += substrate_cost + assembly_cost;
                        substrates_used += 1;
                        let mut all_bonded = true;
                        for (f, &count) in factories.iter_mut().zip(&counts) {
                            for _ in 0..count {
                                spend += f.draw_known_good_die(&mut rng);
                                spend += bond_cost;
                                if rng.gen::<f64>() >= y2 {
                                    all_bonded = false;
                                }
                            }
                        }
                        if all_bonded && rng.gen::<f64>() < yt {
                            break 'mcm;
                        }
                    }
                }
            }
            AssemblyFlow::ChipFirst => {
                // The whole packaging chain happens after dies are
                // committed: one success draw per attempt.
                let chain = y1 * y2.powi(n_total as i32) * y3 * yt;
                loop {
                    for (f, &count) in factories.iter_mut().zip(&counts) {
                        for _ in 0..count {
                            spend += f.draw_known_good_die(&mut rng);
                        }
                    }
                    spend += substrate_cost
                        + interposer_cost
                        + assembly_cost
                        + bond_cost * n_total as f64;
                    substrates_used += 1;
                    if !interposer_cost.is_zero() {
                        interposers_used += 1;
                    }
                    if rng.gen::<f64>() < chain {
                        break;
                    }
                }
            }
        }
        cycle_costs.push(spend.usd());
    }

    let n = cycle_costs.len() as f64;
    let mean = cycle_costs.iter().sum::<f64>() / n;
    let var = cycle_costs.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / (n - 1.0).max(1.0);
    let dies_consumed: u64 = factories.iter().map(|f| f.attempts()).sum();

    Ok(McResult {
        mean_cost: Money::from_usd(mean)?,
        std_error: Money::from_usd((var / n).sqrt())?,
        systems_built: cfg.systems,
        dies_consumed,
        interposers_consumed: interposers_used,
        substrates_consumed: substrates_used,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use actuary_arch::{Chip, Module};
    use actuary_model::re_cost;
    use actuary_model::DiePlacement;
    use actuary_tech::IntegrationKind;
    use actuary_units::{Area, Quantity};

    fn lib() -> TechLibrary {
        TechLibrary::paper_defaults().unwrap()
    }

    fn two_chiplet_system(kind: IntegrationKind) -> System {
        let chiplet = Chip::chiplet(
            "c",
            "7nm",
            vec![Module::new("m", "7nm", Area::from_mm2(180.0).unwrap())],
        );
        System::builder("sys", kind)
            .chip(chiplet, 2)
            .quantity(Quantity::new(500_000))
            .build()
            .unwrap()
    }

    fn analytic_total(system: &System, lib: &TechLibrary, flow: AssemblyFlow) -> Money {
        let packaging = lib.packaging(system.integration()).unwrap();
        let mut placements = Vec::new();
        for (chip, count) in system.chips() {
            let node = lib.node(chip.node().as_str()).unwrap();
            placements.push(DiePlacement::new(node, chip.die_area(lib).unwrap(), *count));
        }
        re_cost(&placements, packaging, flow).unwrap().total()
    }

    #[test]
    fn mcm_chip_last_converges_to_analytic() {
        let lib = lib();
        let system = two_chiplet_system(IntegrationKind::Mcm);
        let cfg = McConfig {
            systems: 8_000,
            seed: 1,
            defect_process: DefectProcess::Bernoulli,
        };
        let result = simulate_system(&system, &lib, AssemblyFlow::ChipLast, &cfg).unwrap();
        let analytic = analytic_total(&system, &lib, AssemblyFlow::ChipLast);
        assert!(
            result.agrees_with(analytic, 4.0),
            "MC {result} vs analytic {analytic}"
        );
    }

    #[test]
    fn interposer_chip_last_converges_to_analytic() {
        let lib = lib();
        let system = two_chiplet_system(IntegrationKind::TwoPointFiveD);
        let cfg = McConfig {
            systems: 8_000,
            seed: 2,
            defect_process: DefectProcess::Bernoulli,
        };
        let result = simulate_system(&system, &lib, AssemblyFlow::ChipLast, &cfg).unwrap();
        let analytic = analytic_total(&system, &lib, AssemblyFlow::ChipLast);
        assert!(
            result.agrees_with(analytic, 4.0),
            "MC {result} vs analytic {analytic}"
        );
        assert!(result.interposers_consumed() >= result.systems_built() as u64);
    }

    #[test]
    fn chip_first_converges_to_analytic() {
        let lib = lib();
        let system = two_chiplet_system(IntegrationKind::TwoPointFiveD);
        let cfg = McConfig {
            systems: 8_000,
            seed: 3,
            defect_process: DefectProcess::Bernoulli,
        };
        let result = simulate_system(&system, &lib, AssemblyFlow::ChipFirst, &cfg).unwrap();
        let analytic = analytic_total(&system, &lib, AssemblyFlow::ChipFirst);
        assert!(
            result.agrees_with(analytic, 4.0),
            "MC {result} vs analytic {analytic}"
        );
    }

    #[test]
    fn compound_gamma_also_converges_in_mean() {
        let lib = lib();
        let system = two_chiplet_system(IntegrationKind::Mcm);
        let cfg = McConfig {
            systems: 8_000,
            seed: 4,
            defect_process: DefectProcess::CompoundGamma,
        };
        let result = simulate_system(&system, &lib, AssemblyFlow::ChipLast, &cfg).unwrap();
        let analytic = analytic_total(&system, &lib, AssemblyFlow::ChipLast);
        // Clustered defects raise variance, so allow a wider band.
        assert!(
            result.agrees_with(analytic, 5.0),
            "MC {result} vs analytic {analytic}"
        );
    }

    #[test]
    fn zero_systems_rejected() {
        let lib = lib();
        let system = two_chiplet_system(IntegrationKind::Mcm);
        let cfg = McConfig {
            systems: 0,
            ..Default::default()
        };
        assert!(simulate_system(&system, &lib, AssemblyFlow::ChipLast, &cfg).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let lib = lib();
        let system = two_chiplet_system(IntegrationKind::Mcm);
        let cfg = McConfig {
            systems: 200,
            seed: 9,
            defect_process: DefectProcess::Bernoulli,
        };
        let a = simulate_system(&system, &lib, AssemblyFlow::ChipLast, &cfg).unwrap();
        let b = simulate_system(&system, &lib, AssemblyFlow::ChipLast, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn resource_counters_are_plausible() {
        let lib = lib();
        let system = two_chiplet_system(IntegrationKind::Mcm);
        let cfg = McConfig {
            systems: 500,
            seed: 5,
            defect_process: DefectProcess::Bernoulli,
        };
        let r = simulate_system(&system, &lib, AssemblyFlow::ChipLast, &cfg).unwrap();
        // At least 2 dies per good system.
        assert!(r.dies_consumed() >= 1_000);
        assert!(r.substrates_consumed() >= 500);
        assert_eq!(r.interposers_consumed(), 0, "MCM has no interposer");
    }
}
