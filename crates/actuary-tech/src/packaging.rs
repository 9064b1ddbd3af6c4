use std::fmt;

use actuary_units::{Area, Money, Prob};
use actuary_yield::{DefectDensity, NegativeBinomial, WaferSpec, YieldModel};

use crate::error::TechError;

/// The four integration schemes compared throughout the paper (Figure 1).
///
/// * [`IntegrationKind::Soc`] — a single monolithic die flip-chipped on an
///   ordinary organic substrate (the baseline).
/// * [`IntegrationKind::Mcm`] — multiple bare dies on a unified organic
///   substrate with extra routing layers (a.k.a. SiP).
/// * [`IntegrationKind::Info`] — integrated fan-out: dies on a
///   redistribution layer (RDL) manufactured in a wafer-level process.
/// * [`IntegrationKind::TwoPointFiveD`] — dies on a silicon interposer
///   (CoWoS-style 2.5D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IntegrationKind {
    /// Monolithic SoC in a single-die package.
    Soc,
    /// Multi-chip module on an organic substrate.
    Mcm,
    /// Integrated fan-out (RDL-based).
    Info,
    /// 2.5D integration on a silicon interposer.
    TwoPointFiveD,
}

impl IntegrationKind {
    /// All four schemes, in the paper's display order.
    pub const ALL: [IntegrationKind; 4] = [
        IntegrationKind::Soc,
        IntegrationKind::Mcm,
        IntegrationKind::Info,
        IntegrationKind::TwoPointFiveD,
    ];

    /// The three multi-chip schemes (everything but SoC).
    pub const MULTI_CHIP: [IntegrationKind; 3] = [
        IntegrationKind::Mcm,
        IntegrationKind::Info,
        IntegrationKind::TwoPointFiveD,
    ];

    /// Whether this scheme integrates more than one die.
    pub fn is_multi_chip(self) -> bool {
        !matches!(self, IntegrationKind::Soc)
    }

    /// Whether this scheme uses a wafer-level interposer (RDL or silicon).
    pub fn has_interposer(self) -> bool {
        matches!(self, IntegrationKind::Info | IntegrationKind::TwoPointFiveD)
    }

    /// Checks a packaging spec of this kind that does (`defined`) or does
    /// not define an interposer: one is required exactly when the kind
    /// [has one](IntegrationKind::has_interposer).
    ///
    /// # Errors
    ///
    /// [`TechError::InvalidSpec`] naming the kind when the two disagree.
    pub fn check_interposer(self, defined: bool) -> Result<(), TechError> {
        let reason = match (self.has_interposer(), defined) {
            (true, false) => format!("{self} packaging requires an interposer spec"),
            (false, true) => format!("{self} packaging must not define an interposer"),
            _ => return Ok(()),
        };
        Err(TechError::InvalidSpec { reason })
    }

    /// Short label used in tables and figures ("SoC", "MCM", "InFO", "2.5D").
    pub fn label(self) -> &'static str {
        match self {
            IntegrationKind::Soc => "SoC",
            IntegrationKind::Mcm => "MCM",
            IntegrationKind::Info => "InFO",
            IntegrationKind::TwoPointFiveD => "2.5D",
        }
    }
}

impl fmt::Display for IntegrationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for IntegrationKind {
    type Err = String;

    /// Parses the user-facing integration grammar (`soc`, `mcm`, `info`,
    /// `2.5d`/`25d`/`interposer`, case-insensitive) — the single
    /// definition the CLI flags and the scenario schema both use.
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "soc" => Ok(IntegrationKind::Soc),
            "mcm" => Ok(IntegrationKind::Mcm),
            "info" => Ok(IntegrationKind::Info),
            "2.5d" | "25d" | "interposer" => Ok(IntegrationKind::TwoPointFiveD),
            other => Err(format!("unknown integration {other:?} (soc|mcm|info|2.5d)")),
        }
    }
}

/// The wafer-level interposer process of an advanced packaging technology:
/// a fan-out RDL (InFO) or a silicon interposer (2.5D).
///
/// The paper's Figure 2 gives the defect parameters: RDL `D = 0.05, c = 3`;
/// silicon interposer `D = 0.06, c = 6`. The interposer is "calculated
/// similarly with the die cost" (§3.2): its raw cost comes from a wafer
/// price and dies-per-wafer, and its yield `y₁` from Eq. (1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterposerSpec {
    defect_density: DefectDensity,
    cluster: f64,
    wafer_price: Money,
    wafer: WaferSpec,
    area_factor: f64,
}

impl InterposerSpec {
    /// Creates an interposer process spec.
    ///
    /// `area_factor` is the ratio of interposer area to the total silicon
    /// area it carries (≥ 1; accounts for inter-die spacing and fan-out).
    ///
    /// # Errors
    ///
    /// Returns [`TechError::InvalidSpec`] if a parameter is out of range.
    pub fn new(
        defect_density: DefectDensity,
        cluster: f64,
        wafer_price: Money,
        wafer: WaferSpec,
        area_factor: f64,
    ) -> Result<Self, TechError> {
        if !cluster.is_finite() || cluster <= 0.0 {
            return Err(TechError::InvalidSpec {
                reason: format!("interposer cluster parameter {cluster} must be positive"),
            });
        }
        if wafer_price.is_negative() {
            return Err(TechError::InvalidSpec {
                reason: "interposer wafer price must be non-negative".to_string(),
            });
        }
        if !area_factor.is_finite() || area_factor < 1.0 {
            return Err(TechError::InvalidSpec {
                reason: format!("interposer area factor {area_factor} must be at least 1"),
            });
        }
        Ok(InterposerSpec {
            defect_density,
            cluster,
            wafer_price,
            wafer,
            area_factor,
        })
    }

    /// Defect density of the interposer process.
    pub fn defect_density(&self) -> DefectDensity {
        self.defect_density
    }

    /// Cluster parameter of the interposer process.
    pub fn cluster(&self) -> f64 {
        self.cluster
    }

    /// Price of one raw interposer wafer.
    pub fn wafer_price(&self) -> Money {
        self.wafer_price
    }

    /// Wafer geometry of the interposer process.
    pub fn wafer(&self) -> WaferSpec {
        self.wafer
    }

    /// Ratio of interposer area to carried silicon area.
    pub fn area_factor(&self) -> f64 {
        self.area_factor
    }

    /// Interposer area needed to carry the given total die area.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::Unit`] if the scaled area is invalid.
    pub fn interposer_area(&self, total_die_area: Area) -> Result<Area, TechError> {
        Ok(total_die_area.scaled(self.area_factor)?)
    }

    /// Raw manufacturing cost of one interposer of the given area.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::Yield`] if the interposer does not fit the wafer.
    pub fn raw_cost(&self, interposer_area: Area) -> Result<Money, TechError> {
        Ok(self.wafer.raw_die_cost(self.wafer_price, interposer_area)?)
    }

    /// Manufacturing yield `y₁` of one interposer of the given area, per the
    /// paper's Eq. (1).
    pub fn manufacturing_yield(&self, interposer_area: Area) -> Prob {
        NegativeBinomial::new(self.cluster)
            .expect("cluster validated at construction")
            .die_yield(self.defect_density, interposer_area)
    }
}

impl fmt::Display for InterposerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "interposer (D={}, c={}, wafer {}, {}x area)",
            self.defect_density, self.cluster, self.wafer_price, self.area_factor
        )
    }
}

/// One packaging / integration technology with its cost and yield
/// parameters.
///
/// Constructed through [`PackagingTech::builder`]; the paper's calibration
/// lives in [`crate::TechLibrary::paper_defaults`].
///
/// # Examples
///
/// ```
/// use actuary_tech::{IntegrationKind, TechLibrary};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lib = TechLibrary::paper_defaults()?;
/// let p25d = lib.packaging(IntegrationKind::TwoPointFiveD)?;
/// assert!(p25d.interposer().is_some());
/// assert!(lib.packaging(IntegrationKind::Mcm)?.interposer().is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PackagingTech {
    kind: IntegrationKind,
    substrate_cost_per_mm2: Money,
    substrate_layer_factor: f64,
    package_body_factor: f64,
    chip_bond_yield: Prob,
    substrate_attach_yield: Prob,
    package_test_yield: Prob,
    bond_cost_per_chip: Money,
    assembly_cost: Money,
    interposer: Option<InterposerSpec>,
    k_package_per_mm2: Money,
    fixed_package_nre: Money,
}

impl PackagingTech {
    /// Starts building a packaging technology of the given kind: no
    /// substrate, bond, assembly or package-NRE cost, a layer factor of 1,
    /// a package body 4× the silicon, every yield 1 and no interposer.
    pub fn builder(kind: IntegrationKind) -> PackagingTechBuilder {
        PackagingTechBuilder {
            tech: PackagingTech {
                kind,
                substrate_cost_per_mm2: Money::ZERO,
                substrate_layer_factor: 1.0,
                package_body_factor: 4.0,
                chip_bond_yield: Prob::ONE,
                substrate_attach_yield: Prob::ONE,
                package_test_yield: Prob::ONE,
                bond_cost_per_chip: Money::ZERO,
                assembly_cost: Money::ZERO,
                interposer: None,
                k_package_per_mm2: Money::ZERO,
                fixed_package_nre: Money::ZERO,
            },
        }
    }

    /// A builder that holds every parameter of this technology, so a
    /// what-if variant sets only what it changes:
    /// `mcm.to_builder().assembly_cost(cost).build()`.
    pub fn to_builder(&self) -> PackagingTechBuilder {
        PackagingTechBuilder { tech: self.clone() }
    }

    /// The integration scheme this technology implements.
    pub fn kind(&self) -> IntegrationKind {
        self.kind
    }

    /// Organic substrate cost per mm² of package body (single routing-layer
    /// pair baseline, before the layer factor).
    pub fn substrate_cost_per_mm2(&self) -> Money {
        self.substrate_cost_per_mm2
    }

    /// Multiplier on substrate cost for extra routing layers (the paper's
    /// "growth factor on substrate RE cost" for MCM; 1.0 for SoC).
    pub fn substrate_layer_factor(&self) -> f64 {
        self.substrate_layer_factor
    }

    /// Ratio of package body area to total carried silicon area.
    pub fn package_body_factor(&self) -> f64 {
        self.package_body_factor
    }

    /// Bonding yield per chip, the `y₂` of Eq. (4) (applied once per die).
    pub fn chip_bond_yield(&self) -> Prob {
        self.chip_bond_yield
    }

    /// Attach yield of the interposer (or of the assembled module) onto the
    /// substrate — the `y₃` of Eq. (4).
    pub fn substrate_attach_yield(&self) -> Prob {
        self.substrate_attach_yield
    }

    /// Final package assembly / test yield.
    pub fn package_test_yield(&self) -> Prob {
        self.package_test_yield
    }

    /// Per-chip bonding cost (`C_bond` in the chip-last flow of Eq. (5)).
    pub fn bond_cost_per_chip(&self) -> Money {
        self.bond_cost_per_chip
    }

    /// Fixed assembly overhead per package.
    pub fn assembly_cost(&self) -> Money {
        self.assembly_cost
    }

    /// The interposer process, if this technology uses one.
    pub fn interposer(&self) -> Option<&InterposerSpec> {
        self.interposer.as_ref()
    }

    /// `K_p`: package design NRE per mm² of package (or interposer) area.
    pub fn k_package_per_mm2(&self) -> Money {
        self.k_package_per_mm2
    }

    /// `C_p`: fixed package NRE (tooling, interposer mask set, …).
    pub fn fixed_package_nre(&self) -> Money {
        self.fixed_package_nre
    }

    /// Package body area for the given total silicon area.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::Unit`] if the scaled area is invalid.
    pub fn package_area(&self, total_die_area: Area) -> Result<Area, TechError> {
        Ok(total_die_area.scaled(self.package_body_factor)?)
    }

    /// Raw substrate cost for a package of the given body area, including
    /// the layer factor.
    pub fn substrate_cost(&self, package_area: Area) -> Money {
        self.substrate_cost_per_mm2 * package_area.mm2() * self.substrate_layer_factor
    }
}

impl fmt::Display for PackagingTech {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} packaging", self.kind)
    }
}

/// Builder for [`PackagingTech`] (see C-BUILDER): the technology it
/// builds, validated by [`PackagingTechBuilder::build`].
#[derive(Debug, Clone)]
pub struct PackagingTechBuilder {
    tech: PackagingTech,
}

impl PackagingTechBuilder {
    /// Sets the substrate cost per mm² of package body.
    pub fn substrate_cost_per_mm2(mut self, cost: Money) -> Self {
        self.tech.substrate_cost_per_mm2 = cost;
        self
    }

    /// Sets the substrate layer growth factor (≥ 1).
    pub fn substrate_layer_factor(mut self, factor: f64) -> Self {
        self.tech.substrate_layer_factor = factor;
        self
    }

    /// Sets the package-body to silicon area ratio (≥ 1).
    pub fn package_body_factor(mut self, factor: f64) -> Self {
        self.tech.package_body_factor = factor;
        self
    }

    /// Sets the per-chip bonding yield `y₂`.
    pub fn chip_bond_yield(mut self, y: Prob) -> Self {
        self.tech.chip_bond_yield = y;
        self
    }

    /// Sets the interposer-to-substrate attach yield `y₃`.
    pub fn substrate_attach_yield(mut self, y: Prob) -> Self {
        self.tech.substrate_attach_yield = y;
        self
    }

    /// Sets the final package assembly/test yield.
    pub fn package_test_yield(mut self, y: Prob) -> Self {
        self.tech.package_test_yield = y;
        self
    }

    /// Sets the per-chip bonding cost `C_bond`.
    pub fn bond_cost_per_chip(mut self, cost: Money) -> Self {
        self.tech.bond_cost_per_chip = cost;
        self
    }

    /// Sets the fixed assembly overhead per package.
    pub fn assembly_cost(mut self, cost: Money) -> Self {
        self.tech.assembly_cost = cost;
        self
    }

    /// Sets the interposer process (required for InFO / 2.5D).
    pub fn interposer(mut self, spec: InterposerSpec) -> Self {
        self.tech.interposer = Some(spec);
        self
    }

    /// Sets `K_p`, the package design NRE per mm².
    pub fn k_package_per_mm2(mut self, k: Money) -> Self {
        self.tech.k_package_per_mm2 = k;
        self
    }

    /// Sets `C_p`, the fixed package NRE.
    pub fn fixed_package_nre(mut self, c: Money) -> Self {
        self.tech.fixed_package_nre = c;
        self
    }

    /// Finalizes the technology.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::InvalidSpec`] if factors are out of range, costs
    /// are negative, or an interposer is missing/superfluous for the kind.
    pub fn build(self) -> Result<PackagingTech, TechError> {
        let tech = self.tech;
        if !tech.substrate_layer_factor.is_finite() || tech.substrate_layer_factor < 1.0 {
            return Err(TechError::InvalidSpec {
                reason: format!(
                    "substrate layer factor {} must be at least 1",
                    tech.substrate_layer_factor
                ),
            });
        }
        if !tech.package_body_factor.is_finite() || tech.package_body_factor < 1.0 {
            return Err(TechError::InvalidSpec {
                reason: format!(
                    "package body factor {} must be at least 1",
                    tech.package_body_factor
                ),
            });
        }
        for (name, m) in [
            ("substrate cost", tech.substrate_cost_per_mm2),
            ("bond cost", tech.bond_cost_per_chip),
            ("assembly cost", tech.assembly_cost),
            ("package NRE factor", tech.k_package_per_mm2),
            ("fixed package NRE", tech.fixed_package_nre),
        ] {
            if m.is_negative() {
                return Err(TechError::InvalidSpec {
                    reason: format!("{name} must be non-negative"),
                });
            }
        }
        tech.kind.check_interposer(tech.interposer.is_some())?;
        Ok(tech)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usd(v: f64) -> Money {
        Money::from_usd(v).unwrap()
    }

    fn sample_interposer() -> InterposerSpec {
        InterposerSpec::new(
            DefectDensity::per_cm2(0.06).unwrap(),
            6.0,
            usd(1_900.0),
            WaferSpec::mm300().unwrap(),
            1.1,
        )
        .unwrap()
    }

    #[test]
    fn kind_predicates() {
        assert!(!IntegrationKind::Soc.is_multi_chip());
        assert!(IntegrationKind::Mcm.is_multi_chip());
        assert!(!IntegrationKind::Mcm.has_interposer());
        assert!(IntegrationKind::Info.has_interposer());
        assert!(IntegrationKind::TwoPointFiveD.has_interposer());
        assert_eq!(IntegrationKind::ALL.len(), 4);
        assert_eq!(IntegrationKind::MULTI_CHIP.len(), 3);
        assert_eq!(IntegrationKind::TwoPointFiveD.to_string(), "2.5D");
    }

    #[test]
    fn kinds_parse_from_the_shared_grammar() {
        for (text, kind) in [
            ("soc", IntegrationKind::Soc),
            ("MCM", IntegrationKind::Mcm),
            ("InFO", IntegrationKind::Info),
            ("2.5d", IntegrationKind::TwoPointFiveD),
            ("25D", IntegrationKind::TwoPointFiveD),
            ("interposer", IntegrationKind::TwoPointFiveD),
        ] {
            assert_eq!(text.parse::<IntegrationKind>(), Ok(kind), "{text}");
        }
        assert_eq!(
            "Cowos".parse::<IntegrationKind>(),
            Err("unknown integration \"cowos\" (soc|mcm|info|2.5d)".to_string())
        );
    }

    #[test]
    fn interposer_spec_validates() {
        let d = DefectDensity::per_cm2(0.06).unwrap();
        let w = WaferSpec::mm300().unwrap();
        assert!(InterposerSpec::new(d, 6.0, usd(1900.0), w, 1.1).is_ok());
        assert!(InterposerSpec::new(d, 0.0, usd(1900.0), w, 1.1).is_err());
        assert!(InterposerSpec::new(d, 6.0, usd(-1.0), w, 1.1).is_err());
        assert!(InterposerSpec::new(d, 6.0, usd(1900.0), w, 0.9).is_err());
    }

    #[test]
    fn interposer_yield_matches_figure2() {
        let si = sample_interposer();
        let y = si.manufacturing_yield(Area::from_mm2(800.0).unwrap());
        assert!((y.value() - 0.630).abs() < 0.01);
    }

    #[test]
    fn interposer_area_and_cost() {
        let si = sample_interposer();
        let carried = Area::from_mm2(800.0).unwrap();
        let area = si.interposer_area(carried).unwrap();
        assert!((area.mm2() - 880.0).abs() < 1e-9);
        let cost = si.raw_cost(area).unwrap();
        assert!(cost.usd() > 0.0);
    }

    #[test]
    fn builder_enforces_interposer_consistency() {
        // 2.5D without interposer fails.
        assert!(PackagingTech::builder(IntegrationKind::TwoPointFiveD)
            .build()
            .is_err());
        // MCM with interposer fails.
        assert!(PackagingTech::builder(IntegrationKind::Mcm)
            .interposer(sample_interposer())
            .build()
            .is_err());
        // Consistent configurations pass.
        assert!(PackagingTech::builder(IntegrationKind::Mcm).build().is_ok());
        assert!(PackagingTech::builder(IntegrationKind::TwoPointFiveD)
            .interposer(sample_interposer())
            .build()
            .is_ok());
    }

    #[test]
    fn builder_validates_ranges() {
        assert!(PackagingTech::builder(IntegrationKind::Soc)
            .substrate_layer_factor(0.5)
            .build()
            .is_err());
        assert!(PackagingTech::builder(IntegrationKind::Soc)
            .package_body_factor(0.0)
            .build()
            .is_err());
        assert!(PackagingTech::builder(IntegrationKind::Soc)
            .assembly_cost(usd(-1.0))
            .build()
            .is_err());
    }

    #[test]
    fn to_builder_rebuilds_every_preset_packaging_unchanged() {
        let lib = crate::TechLibrary::paper_defaults().unwrap();
        for tech in lib.packagings() {
            assert_eq!(&tech.to_builder().build().unwrap(), tech, "{tech}");
        }
        let mcm = lib.packaging(IntegrationKind::Mcm).unwrap();
        let what_if = mcm.to_builder().assembly_cost(usd(13.46)).build().unwrap();
        assert_eq!(what_if.assembly_cost(), usd(13.46));
        assert_eq!(
            what_if
                .to_builder()
                .assembly_cost(mcm.assembly_cost())
                .build(),
            Ok(mcm.clone())
        );
    }

    #[test]
    fn derived_areas_and_costs() {
        let mcm = PackagingTech::builder(IntegrationKind::Mcm)
            .substrate_cost_per_mm2(usd(0.005))
            .substrate_layer_factor(2.0)
            .package_body_factor(4.0)
            .build()
            .unwrap();
        let silicon = Area::from_mm2(200.0).unwrap();
        let pkg = mcm.package_area(silicon).unwrap();
        assert_eq!(pkg.mm2(), 800.0);
        let substrate = mcm.substrate_cost(pkg);
        assert!((substrate.usd() - 0.005 * 800.0 * 2.0).abs() < 1e-12);
    }
}
