//! RE (recurring engineering) cost: the paper's §3.2, Eq. (2), (4) and (5).

use std::fmt;

use actuary_tech::{PackagingTech, ProcessNode};
use actuary_units::{Area, Money, Prob};

use crate::breakdown::ReCostBreakdown;
use crate::error::ModelError;

/// A group of identical dies placed in one package: which process node they
/// are built on, the die area, and how many of them the package carries.
///
/// # Examples
///
/// ```
/// use actuary_model::DiePlacement;
/// use actuary_tech::TechLibrary;
/// use actuary_units::Area;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lib = TechLibrary::paper_defaults()?;
/// let ccd = DiePlacement::new(lib.node("7nm")?, Area::from_mm2(74.0)?, 8);
/// assert_eq!(ccd.count(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DiePlacement<'a> {
    node: &'a ProcessNode,
    area: Area,
    count: u32,
}

impl<'a> DiePlacement<'a> {
    /// Creates a placement of `count` identical dies.
    pub fn new(node: &'a ProcessNode, area: Area, count: u32) -> Self {
        DiePlacement { node, area, count }
    }

    /// The process node the dies are manufactured on.
    pub fn node(&self) -> &'a ProcessNode {
        self.node
    }

    /// Area of one die.
    pub fn area(&self) -> Area {
        self.area
    }

    /// Number of identical dies in the package.
    pub fn count(&self) -> u32 {
        self.count
    }
}

/// The two assembly flows of the paper's Eq. (5).
///
/// In the **chip-first** flow the dies are committed to the package before
/// the packaging process completes, so every packaging defect destroys
/// known-good dies. In the **chip-last** (RDL-first) flow the package
/// (interposer) is manufactured and screened first; dies only risk the
/// bonding steps. The paper concludes chip-last "is the priority selection
/// for multi-chip systems" and uses it for all experiments — as does every
/// default in this repository.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum AssemblyFlow {
    /// Dies first, packaging after (cheap flow, wasteful on KGDs).
    ChipFirst,
    /// Packaging first, known-good dies bonded last (the paper's choice).
    #[default]
    ChipLast,
}

impl fmt::Display for AssemblyFlow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssemblyFlow::ChipFirst => f.write_str("chip-first"),
            AssemblyFlow::ChipLast => f.write_str("chip-last"),
        }
    }
}

impl std::str::FromStr for AssemblyFlow {
    type Err = String;

    /// Parses the user-facing flow grammar (`chip-first`/`first`,
    /// `chip-last`/`last`, case-insensitive) — the single definition the
    /// CLI flags and the scenario schema both use.
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "chip-first" | "first" => Ok(AssemblyFlow::ChipFirst),
            "chip-last" | "last" => Ok(AssemblyFlow::ChipLast),
            other => Err(format!("unknown flow {other:?} (chip-first|chip-last)")),
        }
    }
}

/// The overall serial yield of a monolithic SoC, Eq. (2):
/// `Y_overall = Y_die × Y_packaging × Y_test` (wafer yield is folded into
/// the die defect density, as the paper's data does).
pub fn overall_soc_yield(node: &ProcessNode, die: Area, packaging: &PackagingTech) -> Prob {
    node.die_yield(die) * packaging.chip_bond_yield() * packaging.package_test_yield()
}

/// Computes the five-component RE cost of one packaged system (§3.2).
///
/// `dies` lists every die group in the package; `packaging` selects the
/// integration technology; `flow` selects the assembly flow of Eq. (5).
/// The result is the expected cost *per good packaged system*.
///
/// # Errors
///
/// * [`ModelError::InvalidConfiguration`] — empty die set, a zero die
///   count, or more than one die in a [`actuary_tech::IntegrationKind::Soc`]
///   package.
/// * [`ModelError::ZeroYield`] — a die, interposer, bonding or test yield of
///   zero makes the expected cost diverge.
/// * [`ModelError::Yield`] — a die or interposer does not fit its wafer.
///
/// # Examples
///
/// ```
/// use actuary_model::{re_cost, AssemblyFlow, DiePlacement};
/// use actuary_tech::{IntegrationKind, TechLibrary};
/// use actuary_units::Area;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lib = TechLibrary::paper_defaults()?;
/// let n7 = lib.node("7nm")?;
/// let breakdown = re_cost(
///     &[DiePlacement::new(n7, Area::from_mm2(222.2)?, 2)],
///     lib.packaging(IntegrationKind::Mcm)?,
///     AssemblyFlow::ChipLast,
/// )?;
/// assert!(breakdown.total().usd() > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn re_cost(
    dies: &[DiePlacement<'_>],
    packaging: &PackagingTech,
    flow: AssemblyFlow,
) -> Result<ReCostBreakdown, ModelError> {
    re_cost_sized(dies, packaging, flow, None)
}

/// The RE cost of a module of `module_area` split into `chiplets` equal
/// chiplets, the computation behind the paper's Figure 4 and §4's turning
/// points. A monolithic `packaging` kind places one die of the whole area
/// and ignores `chiplets`; a multi-chip kind places `chiplets` dies of
/// `module_area / chiplets`, each grown by the node's D2D overhead.
///
/// # Errors
///
/// [`ModelError::Tech`] if a chiplet's inflated area is invalid (for
/// instance when `chiplets` is 0), otherwise the conditions of
/// [`re_cost`].
pub fn equal_split_re_cost(
    node: &ProcessNode,
    packaging: &PackagingTech,
    module_area: Area,
    chiplets: u32,
    flow: AssemblyFlow,
) -> Result<ReCostBreakdown, ModelError> {
    let placement = if packaging.kind().is_multi_chip() {
        let die = node
            .d2d()
            .inflate_module_area(module_area / f64::from(chiplets))?;
        DiePlacement::new(node, die, chiplets)
    } else {
        DiePlacement::new(node, module_area, 1)
    };
    re_cost(&[placement], packaging, flow)
}

/// Like [`re_cost`], but sizes the package materials (substrate and
/// interposer) for `package_silicon` instead of the actual silicon carried.
///
/// This models *package reuse* (§5.1): when a package designed for a large
/// system is reused by a smaller one, the small system pays for the full
/// oversized substrate/interposer — "package reuse saves amortized NRE cost
/// of package for larger systems but wastes RE cost for smaller systems".
/// `None`, or any value smaller than the carried silicon, falls back to the
/// actual silicon.
///
/// # Errors
///
/// Same conditions as [`re_cost`].
pub fn re_cost_sized(
    dies: &[DiePlacement<'_>],
    packaging: &PackagingTech,
    flow: AssemblyFlow,
    package_silicon: Option<Area>,
) -> Result<ReCostBreakdown, ModelError> {
    if dies.is_empty() {
        return Err(ModelError::InvalidConfiguration {
            reason: "a system needs at least one die".to_string(),
        });
    }
    if dies.iter().any(|d| d.count() == 0) {
        return Err(ModelError::InvalidConfiguration {
            reason: "die placements must have a positive count".to_string(),
        });
    }
    let n_total: u32 = dies.iter().map(|d| d.count()).sum();
    if !packaging.kind().is_multi_chip() && n_total != 1 {
        return Err(ModelError::InvalidConfiguration {
            reason: format!(
                "a {} package carries exactly one die, got {n_total}",
                packaging.kind()
            ),
        });
    }

    // --- Die manufacturing: raw cost, defect cost, KGD cost. -------------
    let mut raw_chips = Money::ZERO;
    let mut chip_defects = Money::ZERO;
    let mut kgd_total = Money::ZERO;
    let mut total_silicon = Area::ZERO;
    for d in dies {
        let raw_one = d.node().raw_die_cost(d.area())?;
        let y = d.node().die_yield(d.area());
        if y.is_zero() {
            return Err(ModelError::ZeroYield {
                step: "die manufacturing",
            });
        }
        let raw = raw_one * d.count() as f64;
        let defects = raw * y.waste_factor()?;
        raw_chips += raw;
        chip_defects += defects;
        kgd_total += raw + defects;
        total_silicon += d.area() * d.count() as f64;
    }

    // --- Package materials. ----------------------------------------------
    // A reused package is sized for the largest member system; smaller
    // systems still pay for the full substrate/interposer.
    let sizing_silicon = match package_silicon {
        Some(s) => s.max(total_silicon),
        None => total_silicon,
    };
    let package_area = packaging.package_area(sizing_silicon)?;
    let substrate_raw = packaging.substrate_cost(package_area);
    let bonds_raw = packaging.bond_cost_per_chip() * n_total as f64;
    let assembly_raw = packaging.assembly_cost();

    let mut interposer_raw = Money::ZERO;
    let mut y1 = Prob::ONE;
    if let Some(spec) = packaging.interposer() {
        let interposer_area = spec.interposer_area(sizing_silicon)?;
        interposer_raw = spec.raw_cost(interposer_area)?;
        y1 = spec.manufacturing_yield(interposer_area);
        if y1.is_zero() {
            return Err(ModelError::ZeroYield {
                step: "interposer manufacturing",
            });
        }
    }
    let raw_package = substrate_raw + interposer_raw + bonds_raw + assembly_raw;

    // --- Yield chains. -----------------------------------------------------
    let y2_all = packaging.chip_bond_yield().powi(n_total);
    let y3 = packaging.substrate_attach_yield();
    let yt = packaging.package_test_yield();
    if y2_all.is_zero() {
        return Err(ModelError::ZeroYield {
            step: "chip bonding",
        });
    }
    if y3.is_zero() {
        return Err(ModelError::ZeroYield {
            step: "substrate attach",
        });
    }
    if yt.is_zero() {
        return Err(ModelError::ZeroYield {
            step: "final package test",
        });
    }

    let (package_defects, wasted_kgd) = match flow {
        AssemblyFlow::ChipLast => {
            if packaging.interposer().is_some() {
                // Chip-on-wafer-on-substrate, Eq. (4) with a final test
                // yield appended to every chain:
                //   interposer: manufactured (y1), chips bonded (y2ⁿ),
                //   attached to substrate (y3), tested (yt);
                //   substrate joins at attach; dies join at bonding.
                let int_chain = (y1 * y2_all * y3 * yt).reciprocal()?;
                let sub_chain = (y3 * yt).reciprocal()?;
                let die_chain = (y2_all * y3 * yt).reciprocal()?;
                let package_defects = interposer_raw * (int_chain - 1.0)
                    + substrate_raw * (sub_chain - 1.0)
                    + (bonds_raw + assembly_raw) * (die_chain - 1.0);
                let wasted_kgd = kgd_total * (die_chain - 1.0);
                (package_defects, wasted_kgd)
            } else {
                // SoC / MCM: dies bond directly onto the substrate.
                let chain = (y2_all * yt).reciprocal()?;
                let package_defects = (substrate_raw + bonds_raw + assembly_raw) * (chain - 1.0);
                let wasted_kgd = kgd_total * (chain - 1.0);
                (package_defects, wasted_kgd)
            }
        }
        AssemblyFlow::ChipFirst => {
            // Eq. (5), first line: the whole packaging chain (including
            // interposer fabrication) happens after the dies are committed,
            // so every packaging defect also destroys the dies.
            let chain = (y1 * y2_all * y3 * yt).reciprocal()?;
            let package_defects = raw_package * (chain - 1.0);
            let wasted_kgd = kgd_total * (chain - 1.0);
            (package_defects, wasted_kgd)
        }
    };

    Ok(ReCostBreakdown {
        raw_chips,
        chip_defects,
        raw_package,
        package_defects,
        wasted_kgd,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use actuary_tech::{IntegrationKind, TechLibrary};
    use proptest::prelude::*;

    fn lib() -> TechLibrary {
        TechLibrary::paper_defaults().unwrap()
    }

    fn area(mm2: f64) -> Area {
        Area::from_mm2(mm2).unwrap()
    }

    #[test]
    fn soc_hand_computation() {
        let lib = lib();
        let n7 = lib.node("7nm").unwrap();
        let soc = lib.packaging(IntegrationKind::Soc).unwrap();
        let die = area(100.0);
        let b = re_cost(
            &[DiePlacement::new(n7, die, 1)],
            soc,
            AssemblyFlow::ChipLast,
        )
        .unwrap();

        let raw = n7.raw_die_cost(die).unwrap();
        assert!((b.raw_chips.usd() - raw.usd()).abs() < 1e-9);

        let y = n7.die_yield(die);
        let expected_defects = raw.usd() * (1.0 / y.value() - 1.0);
        assert!((b.chip_defects.usd() - expected_defects).abs() < 1e-9);

        // Raw package: 400 mm² substrate at $0.005/mm² + $0.5 bond + $5.
        let expected_pkg = 400.0 * 0.005 + 0.5 + 5.0;
        assert!((b.raw_package.usd() - expected_pkg).abs() < 1e-9);

        // Packaging chain: y2·yt = 0.99².
        let chain = 1.0 / (0.99 * 0.99);
        let kgd = raw.usd() / y.value();
        assert!((b.wasted_kgd.usd() - kgd * (chain - 1.0)).abs() < 1e-9);
        assert!((b.package_defects.usd() - expected_pkg * (chain - 1.0)).abs() < 1e-9);
    }

    #[test]
    fn eq4_structure_holds_for_chip_last_interposer() {
        // With the final-test yield set to 1, the chip-last breakdown must
        // reproduce Eq. (4) exactly.
        let mut lib = lib();
        let base = lib
            .packaging(IntegrationKind::TwoPointFiveD)
            .unwrap()
            .clone();
        let rebuilt = PackagingTech::builder(IntegrationKind::TwoPointFiveD)
            .substrate_cost_per_mm2(base.substrate_cost_per_mm2())
            .substrate_layer_factor(base.substrate_layer_factor())
            .package_body_factor(base.package_body_factor())
            .chip_bond_yield(base.chip_bond_yield())
            .substrate_attach_yield(base.substrate_attach_yield())
            .package_test_yield(Prob::ONE)
            .bond_cost_per_chip(Money::ZERO)
            .assembly_cost(Money::ZERO)
            .interposer(*base.interposer().unwrap())
            .build()
            .unwrap();
        lib.insert_packaging(rebuilt);
        let p = lib.packaging(IntegrationKind::TwoPointFiveD).unwrap();
        let n5 = lib.node("5nm").unwrap();

        let die = area(222.2);
        let n = 2u32;
        let b = re_cost(&[DiePlacement::new(n5, die, n)], p, AssemblyFlow::ChipLast).unwrap();

        let total_silicon = area(die.mm2() * n as f64);
        let spec = p.interposer().unwrap();
        let int_area = spec.interposer_area(total_silicon).unwrap();
        let c_int = spec.raw_cost(int_area).unwrap().usd();
        let y1 = spec.manufacturing_yield(int_area).value();
        let c_sub = p
            .substrate_cost(p.package_area(total_silicon).unwrap())
            .usd();
        let y2n = p.chip_bond_yield().value().powi(n as i32);
        let y3 = p.substrate_attach_yield().value();
        let kgd = b.raw_chips.usd() + b.chip_defects.usd();

        // Eq. (4): interposer, substrate and KGD defect terms.
        let expected_pkg_defects = c_int * (1.0 / (y1 * y2n * y3) - 1.0) + c_sub * (1.0 / y3 - 1.0);
        let expected_kgd = kgd * (1.0 / (y2n * y3) - 1.0);
        assert!(
            (b.package_defects.usd() - expected_pkg_defects).abs() < 1e-9,
            "package defects {} vs Eq.(4) {}",
            b.package_defects.usd(),
            expected_pkg_defects
        );
        assert!((b.wasted_kgd.usd() - expected_kgd).abs() < 1e-9);
        assert!((b.raw_package.usd() - (c_int + c_sub)).abs() < 1e-9);
    }

    #[test]
    fn chip_first_wastes_more_kgd_than_chip_last() {
        let lib = lib();
        let n5 = lib.node("5nm").unwrap();
        let p25 = lib.packaging(IntegrationKind::TwoPointFiveD).unwrap();
        let dies = [DiePlacement::new(n5, area(222.2), 2)];
        let first = re_cost(&dies, p25, AssemblyFlow::ChipFirst).unwrap();
        let last = re_cost(&dies, p25, AssemblyFlow::ChipLast).unwrap();
        assert!(
            first.wasted_kgd > last.wasted_kgd,
            "chip-first must waste more KGDs ({} vs {})",
            first.wasted_kgd,
            last.wasted_kgd
        );
        assert!(first.total() > last.total(), "chip-last must win overall");
        // Raw components are identical across flows.
        assert_eq!(first.raw_chips, last.raw_chips);
        assert_eq!(first.raw_package, last.raw_package);
    }

    #[test]
    fn flows_agree_without_interposer() {
        // For MCM the two flows differ only in nothing (no interposer stage),
        // so costs must match.
        let lib = lib();
        let n7 = lib.node("7nm").unwrap();
        let mcm = lib.packaging(IntegrationKind::Mcm).unwrap();
        let dies = [DiePlacement::new(n7, area(200.0), 3)];
        let first = re_cost(&dies, mcm, AssemblyFlow::ChipFirst).unwrap();
        let last = re_cost(&dies, mcm, AssemblyFlow::ChipLast).unwrap();
        assert!((first.total().usd() - last.total().usd()).abs() < 1e-9);
    }

    #[test]
    fn soc_rejects_multiple_dies() {
        let lib = lib();
        let n7 = lib.node("7nm").unwrap();
        let soc = lib.packaging(IntegrationKind::Soc).unwrap();
        let err = re_cost(
            &[DiePlacement::new(n7, area(100.0), 2)],
            soc,
            AssemblyFlow::ChipLast,
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::InvalidConfiguration { .. }));
    }

    #[test]
    fn empty_and_zero_counts_rejected() {
        let lib = lib();
        let mcm = lib.packaging(IntegrationKind::Mcm).unwrap();
        assert!(matches!(
            re_cost(&[], mcm, AssemblyFlow::ChipLast),
            Err(ModelError::InvalidConfiguration { .. })
        ));
        let n7 = lib.node("7nm").unwrap();
        assert!(matches!(
            re_cost(
                &[DiePlacement::new(n7, area(100.0), 0)],
                mcm,
                AssemblyFlow::ChipLast
            ),
            Err(ModelError::InvalidConfiguration { .. })
        ));
    }

    #[test]
    fn single_chiplet_mcm_is_allowed() {
        // SCMS builds a 1X system on an MCM package (Figure 8).
        let lib = lib();
        let n7 = lib.node("7nm").unwrap();
        let mcm = lib.packaging(IntegrationKind::Mcm).unwrap();
        let b = re_cost(
            &[DiePlacement::new(n7, area(222.2), 1)],
            mcm,
            AssemblyFlow::ChipLast,
        );
        assert!(b.is_ok());
    }

    #[test]
    fn more_chiplets_cost_more_packaging() {
        let lib = lib();
        let n5 = lib.node("5nm").unwrap();
        let mcm = lib.packaging(IntegrationKind::Mcm).unwrap();
        // Same total silicon split in 2 vs 5 dies.
        let two = re_cost(
            &[DiePlacement::new(n5, area(400.0), 2)],
            mcm,
            AssemblyFlow::ChipLast,
        )
        .unwrap();
        let five = re_cost(
            &[DiePlacement::new(n5, area(160.0), 5)],
            mcm,
            AssemblyFlow::ChipLast,
        )
        .unwrap();
        assert!(
            five.packaging_total() > two.packaging_total(),
            "more bonds and worse bonding chain must cost more"
        );
        assert!(
            five.chip_defects < two.chip_defects,
            "smaller dies yield better"
        );
    }

    #[test]
    fn equal_split_matches_the_explicit_placements_bit_for_bit() {
        let lib = lib();
        for node_id in ["14nm", "7nm", "5nm"] {
            let node = lib.node(node_id).unwrap();
            for kind in IntegrationKind::ALL {
                let packaging = lib.packaging(kind).unwrap();
                for chiplets in [2u32, 3, 5] {
                    for mm2 in [100.0, 450.0, 900.0] {
                        let module = area(mm2);
                        let die = node
                            .d2d()
                            .inflate_module_area(module / chiplets as f64)
                            .unwrap();
                        let explicit = if kind.is_multi_chip() {
                            DiePlacement::new(node, die, chiplets)
                        } else {
                            DiePlacement::new(node, module, 1)
                        };
                        for flow in [AssemblyFlow::ChipFirst, AssemblyFlow::ChipLast] {
                            assert_eq!(
                                equal_split_re_cost(node, packaging, module, chiplets, flow),
                                re_cost(&[explicit], packaging, flow),
                                "{node_id} {kind} {chiplets} × {mm2} mm² {flow}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn equal_split_monolithic_kind_ignores_the_chiplet_count() {
        let lib = lib();
        let n7 = lib.node("7nm").unwrap();
        let soc = lib.packaging(IntegrationKind::Soc).unwrap();
        let one = equal_split_re_cost(n7, soc, area(400.0), 1, AssemblyFlow::ChipLast).unwrap();
        for chiplets in [0, 2, 5] {
            let b = equal_split_re_cost(n7, soc, area(400.0), chiplets, AssemblyFlow::ChipLast)
                .unwrap();
            assert_eq!(b, one, "{chiplets} chiplets");
        }
        // A multi-chip kind cannot split a module into zero chiplets.
        let mcm = lib.packaging(IntegrationKind::Mcm).unwrap();
        assert!(equal_split_re_cost(n7, mcm, area(400.0), 0, AssemblyFlow::ChipLast).is_err());
    }

    #[test]
    fn overall_soc_yield_is_serial_product() {
        let lib = lib();
        let n7 = lib.node("7nm").unwrap();
        let soc = lib.packaging(IntegrationKind::Soc).unwrap();
        let die = area(400.0);
        let y = overall_soc_yield(n7, die, soc);
        let expected = n7.die_yield(die).value() * 0.99 * 0.99;
        assert!((y.value() - expected).abs() < 1e-12);
    }

    #[test]
    fn advanced_node_large_die_defect_cost_dominates() {
        // Paper §4.1: at 5 nm / 800 mm², die-defect cost exceeds 50 % of the
        // monolithic total.
        let lib = lib();
        let n5 = lib.node("5nm").unwrap();
        let soc = lib.packaging(IntegrationKind::Soc).unwrap();
        let b = re_cost(
            &[DiePlacement::new(n5, area(800.0), 1)],
            soc,
            AssemblyFlow::ChipLast,
        )
        .unwrap();
        let share = b.chip_defects.usd() / b.total().usd();
        assert!(share > 0.5, "defect share {share} must exceed 50%");
    }

    proptest! {
        #[test]
        fn breakdown_always_non_negative_and_consistent(
            mm2 in 20.0f64..800.0,
            count in 1u32..6,
            node_idx in 0usize..3,
            kind_idx in 0usize..3,
            chip_first in proptest::bool::ANY,
        ) {
            let lib = lib();
            let node = lib.node(["5nm", "7nm", "14nm"][node_idx]).unwrap();
            let kind = IntegrationKind::MULTI_CHIP[kind_idx];
            let p = lib.packaging(kind).unwrap();
            let flow = if chip_first { AssemblyFlow::ChipFirst } else { AssemblyFlow::ChipLast };
            let b = re_cost(&[DiePlacement::new(node, area(mm2), count)], p, flow).unwrap();
            prop_assert!(b.is_non_negative());
            let sum: Money = b.components().iter().map(|(_, m)| *m).sum();
            prop_assert!((sum.usd() - b.total().usd()).abs() < 1e-6);
            prop_assert!(b.total() >= b.raw_chips);
        }

        #[test]
        fn chip_last_never_loses_to_chip_first(
            mm2 in 20.0f64..400.0,
            count in 1u32..6,
            kind_idx in 0usize..3,
        ) {
            let lib = lib();
            let node = lib.node("5nm").unwrap();
            let kind = IntegrationKind::MULTI_CHIP[kind_idx];
            let p = lib.packaging(kind).unwrap();
            let dies = [DiePlacement::new(node, area(mm2), count)];
            let first = re_cost(&dies, p, AssemblyFlow::ChipFirst).unwrap();
            let last = re_cost(&dies, p, AssemblyFlow::ChipLast).unwrap();
            prop_assert!(last.total().usd() <= first.total().usd() + 1e-9);
        }
    }
}
