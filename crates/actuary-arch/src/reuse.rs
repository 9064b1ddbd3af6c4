//! The chiplet-reuse schemes of the paper's §5: SCMS, OCME and FSMC.
//!
//! Each scheme is a portfolio generator: it produces the multi-chip
//! [`Portfolio`] the paper evaluates plus the monolithic-SoC baseline
//! portfolio it is compared against.
//!
//! * [`ScmsSpec`] — *Single Chiplet Multiple Systems* (§5.1, Figure 8): one
//!   chiplet design builds 1X/2X/4X systems.
//! * [`OcmeSpec`] — *One Center Multiple Extensions* (§5.2, Figure 9): a
//!   reused center die plus extension dies with the same footprint,
//!   optionally heterogeneous (center at a mature node).
//! * [`FsmcSpec`] — *A few Sockets Multiple Collocations* (§5.3,
//!   Figure 10): `n` chiplet types in a `k`-socket package build every
//!   multiset collocation.

use std::fmt::{self, Write};

use actuary_tech::{IntegrationKind, NodeId};
use actuary_units::{Area, Quantity};

use crate::chip::Chip;
use crate::error::ArchError;
use crate::module::Module;
use crate::portfolio::Portfolio;
use crate::system::System;

/// Binomial coefficient `C(n, k)` with saturating arithmetic.
///
/// # Examples
///
/// ```
/// use actuary_arch::reuse::binomial;
///
/// assert_eq!(binomial(9, 4), 126);
/// assert_eq!(binomial(4, 0), 1);
/// assert_eq!(binomial(3, 5), 0);
/// ```
pub fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result: u64 = 1;
    for i in 0..k {
        result = result.saturating_mul(n - i) / (i + 1);
    }
    result
}

/// Number of multisets of size `size` drawn from `types` chiplet types:
/// `C(types + size − 1, size)`.
pub fn multiset_count(types: u32, size: u32) -> u64 {
    binomial((types + size - 1) as u64, size as u64)
}

/// The paper's FSMC system-count formula: `Σᵢ₌₁ᵏ C(n+i−1, i)` distinct
/// systems from `n` chiplet types and a `k`-socket package.
///
/// Note: the paper's prose quotes "up to 119" for `n = 6, k = 4`, while the
/// printed formula evaluates to 209; we implement the formula as printed and
/// record the discrepancy in `EXPERIMENTS.md`.
pub fn fsmc_system_count(types: u32, sockets: u32) -> u64 {
    (1..=sockets).map(|i| multiset_count(types, i)).sum()
}

/// Enumerates every multiset of `size` items over `types` types, as count
/// vectors of length `types` summing to `size`, in lexicographic order.
///
/// # Examples
///
/// ```
/// use actuary_arch::reuse::multisets;
///
/// let ms = multisets(2, 2);
/// assert_eq!(ms, vec![vec![0, 2], vec![1, 1], vec![2, 0]]);
/// ```
pub fn multisets(types: u32, size: u32) -> Vec<Vec<u32>> {
    fn recurse(types: usize, remaining: u32, prefix: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
        if prefix.len() == types - 1 {
            let mut full = prefix.clone();
            full.push(remaining);
            out.push(full);
            return;
        }
        for take in 0..=remaining {
            prefix.push(take);
            recurse(types, remaining - take, prefix, out);
            prefix.pop();
        }
    }
    if types == 0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    recurse(types as usize, size, &mut Vec::new(), &mut out);
    out
}

/// *Single Chiplet Multiple Systems* (§5.1): one chiplet design builds a
/// family of systems with different chiplet counts (the paper's 1X/2X/4X
/// example: a 7 nm chiplet of 200 mm² module area, 500 k units per system).
///
/// # Examples
///
/// ```
/// use actuary_arch::reuse::ScmsSpec;
/// use actuary_model::AssemblyFlow;
/// use actuary_tech::{IntegrationKind, TechLibrary};
/// use actuary_units::{Area, Quantity};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lib = TechLibrary::paper_defaults()?;
/// let spec = ScmsSpec::paper_example()?;
/// let cost = spec.portfolio()?.cost(&lib, AssemblyFlow::ChipLast)?;
/// assert_eq!(cost.systems().len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScmsSpec {
    /// Module area carried by the single chiplet design.
    pub chiplet_module_area: Area,
    /// Process node of the chiplet.
    pub node: NodeId,
    /// Chiplet counts of the member systems (the paper uses `[1, 2, 4]`).
    pub multiplicities: Vec<u32>,
    /// Integration scheme of the multi-chip systems.
    pub integration: IntegrationKind,
    /// Production quantity of each member system.
    pub quantity_each: Quantity,
    /// Whether all systems share one package design (§5.1's trade-off).
    pub package_reuse: bool,
}

impl ScmsSpec {
    /// The paper's Figure 8 configuration: 7 nm, 200 mm² module area,
    /// systems 1X/2X/4X on MCM, 500 k units each, no package reuse.
    ///
    /// # Errors
    ///
    /// Never fails with the shipped constants.
    pub fn paper_example() -> Result<Self, ArchError> {
        Ok(ScmsSpec {
            chiplet_module_area: Area::from_mm2(200.0)?,
            node: NodeId::new("7nm"),
            multiplicities: vec![1, 2, 4],
            integration: IntegrationKind::Mcm,
            quantity_each: Quantity::new(500_000),
            package_reuse: false,
        })
    }

    /// The single shared chiplet design.
    pub fn chiplet(&self) -> Chip {
        Chip::chiplet(
            "scms-chiplet",
            self.node.clone(),
            vec![Module::new(
                "scms-module",
                self.node.clone(),
                self.chiplet_module_area,
            )],
        )
    }

    /// Builds the multi-chip portfolio (`1X`, `2X`, `4X`, …).
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidArchitecture`] for an empty or zero
    /// multiplicity list.
    pub fn portfolio(&self) -> Result<Portfolio, ArchError> {
        if self.multiplicities.is_empty() {
            return Err(ArchError::InvalidArchitecture {
                reason: "SCMS needs at least one system multiplicity".to_string(),
            });
        }
        let chiplet = self.chiplet();
        let mut systems = Vec::with_capacity(self.multiplicities.len());
        for &m in &self.multiplicities {
            let mut builder = System::builder(format!("{m}X"), self.integration)
                .chip(chiplet.clone(), m)
                .quantity(self.quantity_each);
            if self.package_reuse {
                builder = builder.package_design("scms-pkg");
            }
            systems.push(builder.build()?);
        }
        Ok(Portfolio::new(systems))
    }

    /// Builds the monolithic-SoC baseline: one distinct SoC die per system,
    /// each instantiating the shared module `m` times (module reuse only —
    /// "this approach still requires repeating system verification and chip
    /// physics design", §1).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ScmsSpec::portfolio`].
    pub fn soc_portfolio(&self) -> Result<Portfolio, ArchError> {
        if self.multiplicities.is_empty() {
            return Err(ArchError::InvalidArchitecture {
                reason: "SCMS needs at least one system multiplicity".to_string(),
            });
        }
        let module = Module::new("scms-module", self.node.clone(), self.chiplet_module_area);
        let mut systems = Vec::with_capacity(self.multiplicities.len());
        for &m in &self.multiplicities {
            let modules = vec![module.clone(); m as usize];
            let die = Chip::monolithic(format!("scms-soc-{m}x"), self.node.clone(), modules);
            systems.push(
                System::builder(format!("{m}X-soc"), IntegrationKind::Soc)
                    .chip(die, 1)
                    .quantity(self.quantity_each)
                    .build()?,
            );
        }
        Ok(Portfolio::new(systems))
    }
}

/// *One Center Multiple Extensions* (§5.2): a reused center die `C` with
/// extension dies `X`, `Y` of the same footprint placed around it (the
/// paper's 7 nm, 4-socket × 160 mm² example).
///
/// The optional heterogeneous variant designs the center die at a mature
/// node; the center's modules are treated as "unscalable" (same area at the
/// mature node), which is the case the paper says benefits from OCME.
#[derive(Debug, Clone, PartialEq)]
pub struct OcmeSpec {
    /// Module area per socket (center and extensions alike).
    pub socket_module_area: Area,
    /// Process node of the extension dies.
    pub node: NodeId,
    /// Node of the center die; `None` keeps it on `node` (homogeneous).
    pub center_node: Option<NodeId>,
    /// Integration scheme of the multi-chip systems.
    pub integration: IntegrationKind,
    /// Production quantity of each member system.
    pub quantity_each: Quantity,
    /// Whether all systems share one package design.
    pub package_reuse: bool,
}

impl OcmeSpec {
    /// The family's members in portfolio order, as `(name, #X, #Y)`: the
    /// center plus `#X` and `#Y` extensions, `1 + #X + #Y` chips in all.
    pub const MEMBERS: [(&'static str, u32, u32); 4] = [
        ("C", 0, 0),
        ("C+1X", 1, 0),
        ("C+1X+1Y", 1, 1),
        ("C+2X+2Y", 2, 2),
    ];

    /// The index of the member that carries `chips` chips, in the order of
    /// both [`OcmeSpec::portfolio`] and [`OcmeSpec::soc_portfolio`], or
    /// `None` when no member does.
    pub fn member(chips: u32) -> Option<usize> {
        Self::MEMBERS
            .iter()
            .position(|&(_, nx, ny)| 1 + nx + ny == chips)
    }

    /// The paper's Figure 9 configuration: 7 nm, 160 mm² sockets, MCM,
    /// 500 k units each, no package reuse, homogeneous center.
    ///
    /// # Errors
    ///
    /// Never fails with the shipped constants.
    pub fn paper_example() -> Result<Self, ArchError> {
        Ok(OcmeSpec {
            socket_module_area: Area::from_mm2(160.0)?,
            node: NodeId::new("7nm"),
            center_node: None,
            integration: IntegrationKind::Mcm,
            quantity_each: Quantity::new(500_000),
            package_reuse: false,
        })
    }

    /// The center chip `C` (at the heterogeneous node if configured).
    pub fn center_chip(&self) -> Chip {
        let node = self
            .center_node
            .clone()
            .unwrap_or_else(|| self.node.clone());
        Chip::chiplet(
            "ocme-center",
            node.clone(),
            vec![Module::new("ocme-center-m", node, self.socket_module_area)],
        )
    }

    /// An extension chip (`X` or `Y`).
    pub fn extension_chip(&self, label: &str) -> Chip {
        Chip::chiplet(
            format!("ocme-ext-{label}"),
            self.node.clone(),
            vec![Module::new(
                format!("ocme-ext-{label}-m"),
                self.node.clone(),
                self.socket_module_area,
            )],
        )
    }

    /// Builds the paper's four systems, [`OcmeSpec::MEMBERS`]: `C`,
    /// `C+1X`, `C+1X+1Y`, `C+2X+2Y`.
    ///
    /// # Errors
    ///
    /// Propagates system-construction errors.
    pub fn portfolio(&self) -> Result<Portfolio, ArchError> {
        let center = self.center_chip();
        let x = self.extension_chip("X");
        let y = self.extension_chip("Y");
        let mut systems = Vec::with_capacity(Self::MEMBERS.len());
        for (name, nx, ny) in Self::MEMBERS {
            let mut builder = System::builder(name, self.integration)
                .chip(center.clone(), 1)
                .quantity(self.quantity_each);
            if nx > 0 {
                builder = builder.chip(x.clone(), nx);
            }
            if ny > 0 {
                builder = builder.chip(y.clone(), ny);
            }
            if self.package_reuse {
                builder = builder.package_design("ocme-pkg");
            }
            systems.push(builder.build()?);
        }
        Ok(Portfolio::new(systems))
    }

    /// Builds the monolithic-SoC baseline: one distinct SoC per system
    /// carrying the same module mix at the extension node (module reuse
    /// only).
    ///
    /// # Errors
    ///
    /// Propagates system-construction errors.
    pub fn soc_portfolio(&self) -> Result<Portfolio, ArchError> {
        let module = |name: &str| Module::new(name, self.node.clone(), self.socket_module_area);
        let (center, x, y) = (
            module("ocme-center-m"),
            module("ocme-ext-X-m"),
            module("ocme-ext-Y-m"),
        );
        let mut systems = Vec::with_capacity(Self::MEMBERS.len());
        for (name, nx, ny) in Self::MEMBERS {
            let mut modules = vec![center.clone()];
            modules.extend(std::iter::repeat_n(&x, nx as usize).cloned());
            modules.extend(std::iter::repeat_n(&y, ny as usize).cloned());
            let die = Chip::monolithic(format!("ocme-soc-{name}"), self.node.clone(), modules);
            systems.push(
                System::builder(format!("{name}-soc"), IntegrationKind::Soc)
                    .chip(die, 1)
                    .quantity(self.quantity_each)
                    .build()?,
            );
        }
        Ok(Portfolio::new(systems))
    }
}

/// *A few Sockets Multiple Collocations* (§5.3): `n` chiplet types with the
/// same footprint and a `k`-socket package build every multiset collocation
/// of 1 to `k` chiplets (Figure 10 evaluates `(k, n)` from `(2, 2)` to
/// `(4, 6)`).
#[derive(Debug, Clone, PartialEq)]
pub struct FsmcSpec {
    /// Number of package sockets `k`.
    pub sockets: u32,
    /// Number of distinct chiplet types `n`.
    pub chiplet_types: u32,
    /// Module area per socket.
    pub socket_module_area: Area,
    /// Process node of every chiplet type.
    pub node: NodeId,
    /// Integration scheme of the multi-chip systems.
    pub integration: IntegrationKind,
    /// Production quantity of each collocation.
    pub quantity_each: Quantity,
}

impl FsmcSpec {
    /// A Figure 10 configuration: `k` sockets, `n` chiplet types, 7 nm,
    /// 160 mm² sockets, 500 k units per collocation.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidArchitecture`] if `sockets` or
    /// `chiplet_types` is zero.
    pub fn paper_example(sockets: u32, chiplet_types: u32) -> Result<Self, ArchError> {
        if sockets == 0 || chiplet_types == 0 {
            return Err(ArchError::InvalidArchitecture {
                reason: "FSMC needs at least one socket and one chiplet type".to_string(),
            });
        }
        Ok(FsmcSpec {
            sockets,
            chiplet_types,
            socket_module_area: Area::from_mm2(160.0)?,
            node: NodeId::new("7nm"),
            integration: IntegrationKind::Mcm,
            quantity_each: Quantity::new(500_000),
        })
    }

    /// Number of distinct systems the scheme can build (`Σᵢ C(n+i−1, i)`).
    pub fn system_count(&self) -> u64 {
        fsmc_system_count(self.chiplet_types, self.sockets)
    }

    /// The index of the `sA` collocation (`size ≥ 1` chiplets, all of
    /// type `A`) among `types` chiplet types, in the order of both
    /// [`FsmcSpec::portfolio`] and [`FsmcSpec::soc_portfolio`]. The
    /// collocations run by size, each size's in lexicographic count order,
    /// which ends with `sA`, so its index is
    /// `fsmc_system_count(types, size) − 1`.
    pub fn member(types: u32, size: u32) -> usize {
        (fsmc_system_count(types, size) - 1) as usize
    }

    /// The chiplet design for type `t` (0-based; labelled `A`, `B`, …).
    pub fn chiplet(&self, t: u32) -> Chip {
        let label = TypeLabel(t);
        Chip::chiplet(
            format!("fsmc-chip-{label}"),
            self.node.clone(),
            vec![Module::new(
                format!("fsmc-mod-{label}"),
                self.node.clone(),
                self.socket_module_area,
            )],
        )
    }

    /// Builds every collocation as a portfolio; all systems share the
    /// `k`-socket package design (the premise of the scheme).
    ///
    /// # Errors
    ///
    /// Propagates system-construction errors.
    pub fn portfolio(&self) -> Result<Portfolio, ArchError> {
        let chiplets: Vec<Chip> = (0..self.chiplet_types).map(|t| self.chiplet(t)).collect();
        let mut systems = Vec::new();
        for size in 1..=self.sockets {
            for counts in multisets(self.chiplet_types, size) {
                let mut builder = System::builder(collocation_name(&counts), self.integration)
                    .quantity(self.quantity_each)
                    .package_design("fsmc-pkg");
                for (t, &count) in counts.iter().enumerate() {
                    if count > 0 {
                        builder = builder.chip(chiplets[t].clone(), count);
                    }
                }
                systems.push(builder.build()?);
            }
        }
        Ok(Portfolio::new(systems))
    }

    /// Builds the monolithic-SoC baseline: one distinct SoC per collocation
    /// with the same module mix (module reuse only).
    ///
    /// # Errors
    ///
    /// Propagates system-construction errors.
    pub fn soc_portfolio(&self) -> Result<Portfolio, ArchError> {
        let types: Vec<Module> = (0..self.chiplet_types)
            .map(|t| {
                Module::new(
                    format!("fsmc-mod-{}", TypeLabel(t)),
                    self.node.clone(),
                    self.socket_module_area,
                )
            })
            .collect();
        let mut systems = Vec::new();
        for size in 1..=self.sockets {
            for counts in multisets(self.chiplet_types, size) {
                let name = collocation_name(&counts);
                let mut modules = Vec::with_capacity(size as usize);
                for (module, &count) in types.iter().zip(&counts) {
                    modules.extend(std::iter::repeat_n(module, count as usize).cloned());
                }
                let die = Chip::monolithic(format!("fsmc-soc-{name}"), self.node.clone(), modules);
                systems.push(
                    System::builder(format!("{name}-soc"), IntegrationKind::Soc)
                        .chip(die, 1)
                        .quantity(self.quantity_each)
                        .build()?,
                );
            }
        }
        Ok(Portfolio::new(systems))
    }
}

/// Letter label for a chiplet type index: `A`, `B`, …, `Z`, `T26`, ….
struct TypeLabel(u32);

impl fmt::Display for TypeLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            t @ 0..26 => write!(f, "{}", char::from(b'A' + t as u8)),
            t => write!(f, "T{t}"),
        }
    }
}

/// Human-readable collocation name for a count vector, e.g. `[2,0,1]` →
/// `"2A+1C"`.
fn collocation_name(counts: &[u32]) -> String {
    let mut name = String::new();
    for (t, &c) in (0u32..).zip(counts).filter(|&(_, &c)| c > 0) {
        if !name.is_empty() {
            name.push('+');
        }
        write!(name, "{c}{}", TypeLabel(t)).expect("writing to a String cannot fail");
    }
    name
}

#[cfg(test)]
mod tests {
    use super::*;
    use actuary_model::AssemblyFlow;
    use actuary_tech::TechLibrary;

    fn lib() -> TechLibrary {
        TechLibrary::paper_defaults().unwrap()
    }

    #[test]
    fn binomial_basics() {
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(9, 4), 126);
        assert_eq!(binomial(6, 1), 6);
        assert_eq!(binomial(2, 3), 0);
    }

    #[test]
    fn multiset_counts_match_enumeration() {
        for types in 1..=5u32 {
            for size in 1..=4u32 {
                let expected = multiset_count(types, size) as usize;
                assert_eq!(
                    multisets(types, size).len(),
                    expected,
                    "types={types} size={size}"
                );
            }
        }
    }

    #[test]
    fn fsmc_formula_values() {
        // Figure 10's five situations.
        assert_eq!(fsmc_system_count(2, 2), 2 + 3);
        assert_eq!(fsmc_system_count(4, 2), 4 + 10);
        assert_eq!(fsmc_system_count(4, 3), 4 + 10 + 20);
        assert_eq!(fsmc_system_count(4, 4), 4 + 10 + 20 + 35);
        // The paper's n=6, k=4 example: formula gives 209 (prose says 119).
        assert_eq!(fsmc_system_count(6, 4), 6 + 21 + 56 + 126);
    }

    #[test]
    fn scms_portfolio_shape() {
        let spec = ScmsSpec::paper_example().unwrap();
        let p = spec.portfolio().unwrap();
        assert_eq!(p.len(), 3);
        let names: Vec<&str> = p.systems().iter().map(|s| s.name()).collect();
        assert_eq!(names, ["1X", "2X", "4X"]);
        assert_eq!(p.systems()[2].chip_count(), 4);
        // One chiplet design across the whole portfolio.
        let cost = p.cost(&lib(), AssemblyFlow::ChipLast).unwrap();
        let chip_entities = cost
            .entities()
            .iter()
            .filter(|e| e.kind() == crate::portfolio::NreEntityKind::Chip)
            .count();
        assert_eq!(chip_entities, 1);
    }

    #[test]
    fn scms_chip_nre_saving_vs_soc() {
        // §5.1: "due to chiplet reuse, there is vast chip NRE cost-saving
        // (nearly three quarters for 4X system) compared with monolithic".
        let lib = lib();
        let spec = ScmsSpec::paper_example().unwrap();
        let mcm = spec
            .portfolio()
            .unwrap()
            .cost(&lib, AssemblyFlow::ChipLast)
            .unwrap();
        let soc = spec
            .soc_portfolio()
            .unwrap()
            .cost(&lib, AssemblyFlow::ChipLast)
            .unwrap();
        let mcm_chip_nre = mcm.nre_total().chips;
        let soc_chip_nre = soc.nre_total().chips;
        assert!(
            mcm_chip_nre.usd() < 0.5 * soc_chip_nre.usd(),
            "chiplet reuse must save most of the chip NRE: {mcm_chip_nre} vs {soc_chip_nre}"
        );
        // Module NRE identical: same module designed once in both worlds.
        assert!((mcm.nre_total().modules.usd() - soc.nre_total().modules.usd()).abs() < 1.0);
    }

    #[test]
    fn scms_package_reuse_tradeoff() {
        // §5.1: package reuse cuts the 4X package NRE but raises the 1X
        // total by >20 % (for MCM the paper's bound; we assert direction).
        let lib = lib();
        let mut spec = ScmsSpec::paper_example().unwrap();
        let without = spec
            .portfolio()
            .unwrap()
            .cost(&lib, AssemblyFlow::ChipLast)
            .unwrap();
        spec.package_reuse = true;
        let with = spec
            .portfolio()
            .unwrap()
            .cost(&lib, AssemblyFlow::ChipLast)
            .unwrap();
        assert!(with.nre_total().packages < without.nre_total().packages);
        let one_x_without = without.system("1X").unwrap().re().total();
        let one_x_with = with.system("1X").unwrap().re().total();
        assert!(
            one_x_with > one_x_without,
            "the 1X system must pay RE for the oversized package"
        );
        let four_x_without = without.system("4X").unwrap().re().total();
        let four_x_with = with.system("4X").unwrap().re().total();
        assert!((four_x_with.usd() - four_x_without.usd()).abs() < 1e-9);
    }

    #[test]
    fn ocme_portfolio_shape() {
        let spec = OcmeSpec::paper_example().unwrap();
        let p = spec.portfolio().unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.systems()[0].chip_count(), 1); // C
        assert_eq!(p.systems()[3].chip_count(), 5); // C+2X+2Y
        let cost = p.cost(&lib(), AssemblyFlow::ChipLast).unwrap();
        // Three chip designs: center, X, Y.
        let chips = cost
            .entities()
            .iter()
            .filter(|e| e.kind() == crate::portfolio::NreEntityKind::Chip)
            .count();
        assert_eq!(chips, 3);
    }

    #[test]
    fn ocme_heterogeneous_center_is_cheaper() {
        // §5.2: "With heterogeneous integration the total costs are further
        // reduced" for unscalable center modules.
        let lib = lib();
        let mut spec = OcmeSpec::paper_example().unwrap();
        spec.package_reuse = true;
        let homo = spec
            .portfolio()
            .unwrap()
            .cost(&lib, AssemblyFlow::ChipLast)
            .unwrap();
        spec.center_node = Some(NodeId::new("14nm"));
        let hetero = spec
            .portfolio()
            .unwrap()
            .cost(&lib, AssemblyFlow::ChipLast)
            .unwrap();
        assert!(
            hetero.program_total() < homo.program_total(),
            "mature-node center must cut total cost: {} vs {}",
            hetero.program_total(),
            homo.program_total()
        );
        // The single-C system benefits the most (paper: "almost half").
        let c_homo = homo.system("C").unwrap().per_unit_total();
        let c_hetero = hetero.system("C").unwrap().per_unit_total();
        assert!(c_hetero < c_homo);
    }

    #[test]
    fn fsmc_portfolio_enumerates_all_collocations() {
        let spec = FsmcSpec::paper_example(2, 2).unwrap();
        let p = spec.portfolio().unwrap();
        assert_eq!(p.len() as u64, spec.system_count());
        assert_eq!(p.len(), 5); // sizes 1 and 2 over 2 types: 2 + 3.
        let names: Vec<&str> = p.systems().iter().map(|s| s.name()).collect();
        assert!(names.contains(&"1A"));
        assert!(names.contains(&"1A+1B"));
        assert!(names.contains(&"2B"));
    }

    #[test]
    fn fsmc_more_reuse_lowers_average_cost() {
        // §5.3 / Figure 10: "the more chiplets are reused, the more benefits
        // from NRE cost amortization".
        let lib = lib();
        let low = FsmcSpec::paper_example(2, 2).unwrap();
        let high = FsmcSpec::paper_example(4, 4).unwrap();
        let low_cost = low
            .portfolio()
            .unwrap()
            .cost(&lib, AssemblyFlow::ChipLast)
            .unwrap();
        let high_cost = high
            .portfolio()
            .unwrap()
            .cost(&lib, AssemblyFlow::ChipLast)
            .unwrap();
        // Average per-unit NRE share must shrink with more collocations.
        let avg_nre = |c: &crate::portfolio::PortfolioCost| {
            let total: f64 = c
                .systems()
                .iter()
                .map(|s| s.nre_per_unit().total().usd())
                .sum();
            total / c.systems().len() as f64
        };
        assert!(
            avg_nre(&high_cost) < avg_nre(&low_cost),
            "more reuse must amortize NRE further: {} vs {}",
            avg_nre(&high_cost),
            avg_nre(&low_cost)
        );
    }

    #[test]
    fn fsmc_beats_soc_on_average_at_scale() {
        let lib = lib();
        let spec = FsmcSpec::paper_example(3, 4).unwrap();
        let mcm = spec
            .portfolio()
            .unwrap()
            .cost(&lib, AssemblyFlow::ChipLast)
            .unwrap();
        let soc = spec
            .soc_portfolio()
            .unwrap()
            .cost(&lib, AssemblyFlow::ChipLast)
            .unwrap();
        assert!(
            mcm.average_per_unit() < soc.average_per_unit(),
            "full reuse must beat per-system SoCs: {} vs {}",
            mcm.average_per_unit(),
            soc.average_per_unit()
        );
    }

    #[test]
    fn labels() {
        assert_eq!(TypeLabel(0).to_string(), "A");
        assert_eq!(TypeLabel(25).to_string(), "Z");
        assert_eq!(TypeLabel(26).to_string(), "T26");
        assert_eq!(collocation_name(&[2, 0, 1]), "2A+1C");
        assert_eq!(collocation_name(&[0, 1]), "1B");
        let mut wide = vec![0; 28];
        (wide[0], wide[27]) = (1, 2);
        assert_eq!(collocation_name(&wide), "1A+2T27");
    }

    #[test]
    fn fsmc_rejects_degenerate_specs() {
        assert!(FsmcSpec::paper_example(0, 2).is_err());
        assert!(FsmcSpec::paper_example(2, 0).is_err());
    }
}
