use std::fmt;

use actuary_model::{re_cost_sized, AssemblyFlow, DiePlacement, ReCostBreakdown};
use actuary_tech::{IntegrationKind, TechLibrary};
use actuary_units::{Area, Quantity};

use crate::chip::Chip;
use crate::error::ArchError;

/// One packaged VLSI system: an integration scheme carrying chips at a
/// production quantity (the `SoC_j` / `MCM_j` of Eq. (3)).
///
/// Systems are assembled with [`System::builder`]. A system may reference a
/// named shared *package design* (`package_design`); systems sharing the
/// same design split its NRE and the smaller members pay the RE of the
/// oversized package (§5.1's package-reuse trade-off).
///
/// # Examples
///
/// ```
/// use actuary_arch::{Chip, Module, System};
/// use actuary_tech::{IntegrationKind, TechLibrary};
/// use actuary_units::{Area, Quantity};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let chiplet = Chip::chiplet(
///     "ccd",
///     "7nm",
///     vec![Module::new("cores", "7nm", Area::from_mm2(180.0)?)],
/// );
/// let system = System::builder("2x", IntegrationKind::Mcm)
///     .chip(chiplet, 2)
///     .quantity(Quantity::new(500_000))
///     .build()?;
/// assert_eq!(system.chip_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct System {
    name: String,
    integration: IntegrationKind,
    chips: Vec<(Chip, u32)>,
    quantity: Quantity,
    package_design: Option<String>,
}

impl System {
    /// Starts building a system.
    pub fn builder(name: impl Into<String>, integration: IntegrationKind) -> SystemBuilder {
        SystemBuilder {
            name: name.into(),
            integration,
            chips: Vec::new(),
            quantity: Quantity::new(1),
            package_design: None,
        }
    }

    /// The system's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The integration scheme.
    pub fn integration(&self) -> IntegrationKind {
        self.integration
    }

    /// The chip groups `(chip, count)` in the package.
    pub fn chips(&self) -> &[(Chip, u32)] {
        &self.chips
    }

    /// Total number of dies in the package.
    pub fn chip_count(&self) -> u32 {
        self.chips.iter().map(|(_, n)| *n).sum()
    }

    /// Production quantity.
    pub fn quantity(&self) -> Quantity {
        self.quantity
    }

    /// Name of the shared package design, if any.
    pub fn package_design(&self) -> Option<&str> {
        self.package_design.as_deref()
    }

    /// Total silicon area carried by the package.
    ///
    /// # Errors
    ///
    /// Propagates chip-level errors (unknown nodes, node mismatches).
    pub fn total_silicon(&self, lib: &TechLibrary) -> Result<Area, ArchError> {
        let mut total = Area::ZERO;
        for (chip, count) in &self.chips {
            total += chip.die_area(lib)? * *count as f64;
        }
        Ok(total)
    }

    /// Total functional module area (the paper's x-axis in Figure 4).
    pub fn module_area(&self) -> Area {
        self.chips
            .iter()
            .map(|(c, n)| c.module_area() * *n as f64)
            .sum()
    }

    /// Per-unit RE cost breakdown (§3.2), optionally sizing the package for
    /// a reused design's silicon capacity.
    ///
    /// # Errors
    ///
    /// Propagates technology-lookup and cost-engine errors.
    pub fn re_cost(
        &self,
        lib: &TechLibrary,
        flow: AssemblyFlow,
        package_silicon: Option<Area>,
    ) -> Result<ReCostBreakdown, ArchError> {
        let packaging = lib.packaging(self.integration)?;
        let mut placements = Vec::with_capacity(self.chips.len());
        for (chip, count) in &self.chips {
            let node = lib.node(chip.node().as_str())?;
            placements.push(DiePlacement::new(node, chip.die_area(lib)?, *count));
        }
        Ok(re_cost_sized(
            &placements,
            packaging,
            flow,
            package_silicon,
        )?)
    }
}

impl fmt::Display for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} × {} dies, qty {}]",
            self.name,
            self.integration,
            self.chip_count(),
            self.quantity
        )
    }
}

/// Builder for [`System`] (see C-BUILDER).
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    name: String,
    integration: IntegrationKind,
    chips: Vec<(Chip, u32)>,
    quantity: Quantity,
    package_design: Option<String>,
}

impl SystemBuilder {
    /// Adds `count` instances of a chip to the package.
    pub fn chip(mut self, chip: Chip, count: u32) -> Self {
        self.chips.push((chip, count));
        self
    }

    /// Sets the production quantity (default 1).
    pub fn quantity(mut self, quantity: Quantity) -> Self {
        self.quantity = quantity;
        self
    }

    /// Joins a named shared package design (package reuse, §5.1).
    pub fn package_design(mut self, name: impl Into<String>) -> Self {
        self.package_design = Some(name.into());
        self
    }

    /// Finalizes the system.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidArchitecture`] if the system has no
    /// chips, a zero chip count, a zero quantity, mixes chiplets with
    /// monolithic dies, or puts several dies in a SoC package.
    pub fn build(self) -> Result<System, ArchError> {
        if self.chips.is_empty() {
            return Err(ArchError::InvalidArchitecture {
                reason: format!("system {} has no chips", self.name),
            });
        }
        if self.chips.iter().any(|(_, n)| *n == 0) {
            return Err(ArchError::InvalidArchitecture {
                reason: format!("system {} has a chip with zero count", self.name),
            });
        }
        if self.quantity.is_zero() {
            return Err(ArchError::InvalidArchitecture {
                reason: format!("system {} has zero production quantity", self.name),
            });
        }
        let total: u32 = self.chips.iter().map(|(_, n)| *n).sum();
        if !self.integration.is_multi_chip() && total != 1 {
            return Err(ArchError::InvalidArchitecture {
                reason: format!(
                    "system {} uses a SoC package but carries {total} dies",
                    self.name
                ),
            });
        }
        if self.integration.is_multi_chip() {
            if let Some((chip, _)) = self.chips.iter().find(|(c, _)| !c.is_chiplet()) {
                return Err(ArchError::InvalidArchitecture {
                    reason: format!(
                        "system {} integrates multiple chips but {} has no D2D interface",
                        self.name,
                        chip.name()
                    ),
                });
            }
        }
        Ok(System {
            name: self.name,
            integration: self.integration,
            chips: self.chips,
            quantity: self.quantity,
            package_design: self.package_design,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Module;

    fn area(mm2: f64) -> Area {
        Area::from_mm2(mm2).unwrap()
    }

    fn lib() -> TechLibrary {
        TechLibrary::paper_defaults().unwrap()
    }

    fn chiplet(name: &str, mm2: f64) -> Chip {
        Chip::chiplet(
            name,
            "7nm",
            vec![Module::new(format!("{name}-m"), "7nm", area(mm2))],
        )
    }

    #[test]
    fn builder_validates() {
        // No chips.
        assert!(System::builder("s", IntegrationKind::Mcm).build().is_err());
        // Zero count.
        assert!(System::builder("s", IntegrationKind::Mcm)
            .chip(chiplet("c", 100.0), 0)
            .build()
            .is_err());
        // Zero quantity.
        assert!(System::builder("s", IntegrationKind::Mcm)
            .chip(chiplet("c", 100.0), 1)
            .quantity(Quantity::ZERO)
            .build()
            .is_err());
        // SoC with two dies.
        let soc_die = Chip::monolithic("soc", "7nm", vec![Module::new("m", "7nm", area(100.0))]);
        assert!(System::builder("s", IntegrationKind::Soc)
            .chip(soc_die.clone(), 2)
            .build()
            .is_err());
        // Monolithic die in an MCM with 2 dies: no D2D → rejected.
        assert!(System::builder("s", IntegrationKind::Mcm)
            .chip(soc_die.clone(), 2)
            .build()
            .is_err());
        // Valid SoC.
        assert!(System::builder("s", IntegrationKind::Soc)
            .chip(soc_die, 1)
            .quantity(Quantity::new(1))
            .build()
            .is_ok());
    }

    #[test]
    fn silicon_accounting() {
        let lib = lib();
        let sys = System::builder("2x", IntegrationKind::Mcm)
            .chip(chiplet("c", 90.0), 2)
            .quantity(Quantity::new(500_000))
            .build()
            .unwrap();
        assert_eq!(sys.module_area().mm2(), 180.0);
        assert!((sys.total_silicon(&lib).unwrap().mm2() - 200.0).abs() < 1e-9);
        assert_eq!(sys.chip_count(), 2);
    }

    #[test]
    fn re_cost_runs_and_is_positive() {
        let lib = lib();
        let sys = System::builder("2x", IntegrationKind::Mcm)
            .chip(chiplet("c", 180.0), 2)
            .quantity(Quantity::new(500_000))
            .build()
            .unwrap();
        let b = sys.re_cost(&lib, AssemblyFlow::ChipLast, None).unwrap();
        assert!(b.total().usd() > 0.0);
        assert!(b.is_non_negative());
    }

    #[test]
    fn reused_oversized_package_costs_more() {
        let lib = lib();
        let small = System::builder("1x", IntegrationKind::Mcm)
            .chip(chiplet("c", 180.0), 1)
            .quantity(Quantity::new(500_000))
            .build()
            .unwrap();
        let own = small.re_cost(&lib, AssemblyFlow::ChipLast, None).unwrap();
        let reused = small
            .re_cost(&lib, AssemblyFlow::ChipLast, Some(area(800.0)))
            .unwrap();
        assert!(
            reused.raw_package > own.raw_package,
            "the 4x-sized substrate must cost more"
        );
        assert_eq!(reused.raw_chips, own.raw_chips);
    }

    #[test]
    fn display() {
        let sys = System::builder("quad", IntegrationKind::TwoPointFiveD)
            .chip(chiplet("c", 100.0), 4)
            .quantity(Quantity::new(500_000))
            .build()
            .unwrap();
        assert_eq!(sys.to_string(), "quad [2.5D × 4 dies, qty 500,000]");
    }
}
