use std::collections::BTreeMap;
use std::fmt;

use actuary_model::{
    chip_level_nre, d2d_nre, module_design_cost, package_nre_for_silicon, re_cost_sized,
    AssemblyFlow, DiePlacement, NreBreakdown, ReCostBreakdown,
};
use actuary_tech::{IntegrationKind, ProcessNode, TechError, TechLibrary};
use actuary_units::{Area, Money, Quantity};

use crate::chip::Chip;
use crate::error::ArchError;
use crate::system::System;

/// What kind of design artifact an NRE entity is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NreEntityKind {
    /// A module design (`K_m·S_m`), shared by every chip embedding it.
    Module,
    /// A chip design (`K_c·S_c + C`), shared by every system placing it.
    Chip,
    /// A package design (`K_p·S_p + C_p`), shared under package reuse.
    Package,
    /// A D2D interface design (`C_D2D`), shared per process node.
    D2d,
}

impl fmt::Display for NreEntityKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NreEntityKind::Module => f.write_str("module"),
            NreEntityKind::Chip => f.write_str("chip"),
            NreEntityKind::Package => f.write_str("package"),
            NreEntityKind::D2d => f.write_str("d2d"),
        }
    }
}

/// One shared NRE artifact: its total cost and the per-unit share allocated
/// to each system (proportional to usage × quantity, the paper's
/// "amortized to each system depending on the number of modules and chips
/// included", §4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct NreEntity {
    kind: NreEntityKind,
    name: String,
    cost: Money,
    allocations: BTreeMap<String, Money>,
}

impl NreEntity {
    /// The artifact kind.
    pub fn kind(&self) -> NreEntityKind {
        self.kind
    }

    /// The artifact's identity (module `name@node`, chip name, package
    /// design name, or `d2d@node`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total NRE cost of the artifact (paid once for the portfolio).
    pub fn cost(&self) -> Money {
        self.cost
    }

    /// Per-unit cost allocated to the named system (zero if the system does
    /// not use the artifact).
    pub fn allocation_for(&self, system: &str) -> Money {
        self.allocations.get(system).copied().unwrap_or(Money::ZERO)
    }

    /// All per-unit allocations, keyed by system name.
    pub fn allocations(&self) -> &BTreeMap<String, Money> {
        &self.allocations
    }
}

/// Per-system cost result: RE breakdown plus the per-unit amortized NRE
/// shares.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemCost {
    name: String,
    quantity: Quantity,
    re: ReCostBreakdown,
    nre_per_unit: NreBreakdown,
}

impl SystemCost {
    /// The system's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The production quantity.
    pub fn quantity(&self) -> Quantity {
        self.quantity
    }

    /// Per-unit RE breakdown.
    pub fn re(&self) -> &ReCostBreakdown {
        &self.re
    }

    /// Per-unit amortized NRE breakdown.
    pub fn nre_per_unit(&self) -> &NreBreakdown {
        &self.nre_per_unit
    }

    /// Per-unit total cost (RE + amortized NRE).
    pub fn per_unit_total(&self) -> Money {
        self.re.total() + self.nre_per_unit.total()
    }

    /// Fraction of the per-unit cost that is RE.
    pub fn re_share(&self) -> f64 {
        let total = self.per_unit_total();
        if total.is_zero() {
            0.0
        } else {
            self.re.total() / total
        }
    }
}

impl fmt::Display for SystemCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} / unit (RE {}, NRE {})",
            self.name,
            self.per_unit_total(),
            self.re.total(),
            self.nre_per_unit.total()
        )
    }
}

/// The full cost result of a [`Portfolio`].
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioCost {
    systems: Vec<SystemCost>,
    entities: Vec<NreEntity>,
    nre_total: NreBreakdown,
}

impl PortfolioCost {
    /// Per-system results, in the portfolio's system order.
    pub fn systems(&self) -> &[SystemCost] {
        &self.systems
    }

    /// Looks up a system result by name.
    pub fn system(&self, name: &str) -> Option<&SystemCost> {
        self.systems.iter().find(|s| s.name() == name)
    }

    /// Every NRE artifact with its allocations.
    pub fn entities(&self) -> &[NreEntity] {
        &self.entities
    }

    /// Portfolio-wide NRE totals by component.
    pub fn nre_total(&self) -> &NreBreakdown {
        &self.nre_total
    }

    /// Whole-program cost: `Σ quantity × RE + total NRE`.
    pub fn program_total(&self) -> Money {
        let re: Money = self
            .systems
            .iter()
            .map(|s| s.re().total() * s.quantity().as_f64())
            .sum();
        re + self.nre_total.total()
    }

    /// Unweighted mean of the per-unit totals across systems — the metric of
    /// the paper's Figure 10 ("compared by average normalized cost").
    pub fn average_per_unit(&self) -> Money {
        if self.systems.is_empty() {
            return Money::ZERO;
        }
        let sum: Money = self.systems.iter().map(|s| s.per_unit_total()).sum();
        sum / self.systems.len() as f64
    }
}

impl fmt::Display for PortfolioCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "portfolio of {} systems:", self.systems.len())?;
        for s in &self.systems {
            writeln!(f, "  {s}")?;
        }
        write!(f, "  total NRE: {}", self.nre_total.total())
    }
}

/// One shared NRE artifact before amortization: total cost plus the usage
/// each system contributes (`uses × quantity` is the allocation weight of
/// Eq. (7)/(8)).
#[derive(Debug, Clone, PartialEq)]
struct EntityDraft {
    kind: NreEntityKind,
    name: String,
    cost: Money,
    /// `(system index, uses)` for every system using the artifact, in
    /// system-name order — the order the allocation weight is summed in.
    uses: Vec<(u32, f64)>,
}

impl EntityDraft {
    /// The allocation weight `Σ uses_j × q_j`, summed left to right in
    /// system-name order; `quantity_of(j)` is system `j`'s quantity.
    fn total_weight(&self, quantity_of: impl Fn(usize) -> f64) -> f64 {
        self.uses
            .iter()
            .map(|&(system, uses)| uses * quantity_of(system as usize))
            .sum()
    }

    /// The per-unit share of a system using the artifact `uses` times:
    /// its total share `cost × (uses × q) / Σ`, divided by its `q` units.
    fn share(&self, uses: f64, total_weight: f64) -> Money {
        if total_weight > 0.0 {
            self.cost * (uses / total_weight)
        } else {
            Money::ZERO
        }
    }
}

/// The NRE drafts of a core under construction, looked up by kind and
/// identity string (`name@node`, `d2d@node`, a chip or package design
/// name, `pkg:system`) through one reused key buffer.
#[derive(Default)]
struct DraftTable {
    list: Vec<EntityDraft>,
    /// Per kind, the draft index of each identity string.
    index: [BTreeMap<String, u32>; 4],
    key: String,
}

impl DraftTable {
    /// The key buffer, cleared for the next identity string.
    fn key(&mut self) -> &mut String {
        self.key.clear();
        &mut self.key
    }

    /// The `kind` draft named by the key buffer, created at `cost` on
    /// first sight. A later definition must agree on the cost (geometry).
    fn resolve(&mut self, kind: NreEntityKind, cost: Money) -> Result<u32, ArchError> {
        let index = &mut self.index[kind as usize];
        if let Some(&d) = index.get(self.key.as_str()) {
            if (self.list[d as usize].cost.usd() - cost.usd()).abs() > 1e-6 {
                return Err(ArchError::InvalidArchitecture {
                    reason: format!(
                        "{kind} design {:?} is defined with conflicting geometry across systems",
                        self.key
                    ),
                });
            }
            return Ok(d);
        }
        let d = self.list.len() as u32;
        index.insert(self.key.clone(), d);
        self.list.push(EntityDraft {
            kind,
            name: String::new(),
            cost,
            uses: Vec::new(),
        });
        Ok(d)
    }

    /// Records `uses` of draft `d` by `system`. Systems are added one at a
    /// time, so a system that already uses the draft is its last user:
    /// repeated uses (a module placed twice) add up in place.
    fn add_use(&mut self, d: u32, system: u32, uses: f64) {
        let users = &mut self.list[d as usize].uses;
        match users.last_mut() {
            Some((last, total)) if *last == system => *total += uses,
            _ => users.push((system, uses)),
        }
    }

    /// The drafts in creation order, each named by its identity string.
    fn finish(mut self) -> Vec<EntityDraft> {
        for (name, d) in self.index.into_iter().flatten() {
            self.list[d as usize].name = name;
        }
        self.list
    }
}

/// The distinct chip designs of one core, in first-use order.
#[derive(Default)]
struct ChipDesigns<'a> {
    list: Vec<ChipDesign<'a>>,
    /// The first design of each chip name.
    by_name: BTreeMap<&'a str, u32>,
}

/// One distinct chip design and the lookups every use of it shares.
struct ChipDesign<'a> {
    chip: &'a Chip,
    node: Result<&'a ProcessNode, TechError>,
    die_area: Result<Area, ArchError>,
}

impl<'a> ChipDesigns<'a> {
    /// The design `chip` is a use of, added on first sight.
    fn intern(&mut self, chip: &'a Chip, lib: &'a TechLibrary) -> u32 {
        let d = self.list.len() as u32;
        match self.by_name.get(chip.name()) {
            Some(&first) if self.list[first as usize].chip.same_design(chip) => return first,
            // A name shared by chips of other geometry, which is rare: any
            // earlier design may be the one.
            Some(_) => {
                if let Some(at) = self.list.iter().position(|x| x.chip.same_design(chip)) {
                    return at as u32;
                }
            }
            None => {
                self.by_name.insert(chip.name(), d);
            }
        }
        self.list.push(ChipDesign {
            chip,
            node: lib.node(chip.node()),
            die_area: chip.die_area(lib),
        });
        d
    }
}

impl<'a> ChipDesign<'a> {
    /// The node and die area of every placement of the design, failing as
    /// [`System::re_cost`] does: node lookup first, then the die area.
    fn resolved(&self) -> Result<(&'a ProcessNode, Area), ArchError> {
        Ok((self.node.clone()?, self.die_area.clone()?))
    }

    /// Resolves the design's chip, module and D2D drafts, in that order,
    /// appending their indices to `out`.
    fn resolve_drafts(&self, drafts: &mut DraftTable, out: &mut Vec<u32>) -> Result<(), ArchError> {
        let (node, die_area) = self.resolved()?;
        let chip = self.chip;
        drafts.key().push_str(chip.name());
        out.push(drafts.resolve(NreEntityKind::Chip, chip_level_nre(node, die_area))?);
        for m in chip.modules() {
            let key = drafts.key();
            key.push_str(m.name());
            key.push('@');
            key.push_str(m.node().as_str());
            out.push(drafts.resolve(NreEntityKind::Module, module_design_cost(node, m.area()))?);
        }
        if chip.is_chiplet() {
            let key = drafts.key();
            key.push_str("d2d@");
            key.push_str(chip.node().as_str());
            out.push(drafts.resolve(NreEntityKind::D2d, d2d_nre(node))?);
        }
        Ok(())
    }
}

/// The `kind` component of an NRE breakdown.
fn component(nre: &mut NreBreakdown, kind: NreEntityKind) -> &mut Money {
    match kind {
        NreEntityKind::Module => &mut nre.modules,
        NreEntityKind::Chip => &mut nre.chips,
        NreEntityKind::Package => &mut nre.packages,
        NreEntityKind::D2d => &mut nre.d2d,
    }
}

/// The quantity-independent part of a [`Portfolio::cost`] evaluation:
/// per-system RE breakdowns plus every shared NRE artifact's total cost and
/// usage weights.
///
/// Computing the core is the expensive step; spreading it over production
/// quantities is cheap arithmetic. The die math inside it (yield, dies per
/// wafer) is tens of nanoseconds per die: a core's cost is mostly
/// resolving its designs and recording who uses which NRE artifact, which
/// [`Portfolio::core`] does once per distinct chip design. Exploration
/// engines cache cores keyed on geometry and re-amortize one core per
/// quantity (and per reuse scheme), which is where the quantity axis of a
/// grid stops costing anything.
///
/// The core is compiled into an index-based amortization plan: every
/// artifact lists its `(system, uses)` pairs and every system lists its
/// `(artifact, uses)` pairs, so [`PortfolioCore::member_at`] prices one
/// member without touching a string or allocating.
/// [`PortfolioCore::amortize`] runs the same arithmetic for every member
/// and reproduces [`Portfolio::cost`] exactly — `cost` is implemented as
/// `core` followed by `amortize`, so the two paths cannot drift apart.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioCore {
    names: Vec<String>,
    quantities: Vec<Quantity>,
    re: Vec<ReCostBreakdown>,
    drafts: Vec<EntityDraft>,
    /// Per system, `(draft index, uses)` for every artifact it uses, in
    /// draft order — the order its NRE components are summed in.
    members: Vec<Vec<(u32, f64)>>,
}

impl PortfolioCore {
    /// The member system names, in portfolio order.
    pub fn system_names(&self) -> &[String] {
        &self.names
    }

    /// Number of member systems.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the core has no systems (never true: empty portfolios fail
    /// [`Portfolio::core`]).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Amortizes the NRE over the quantities the systems were built with —
    /// together with [`Portfolio::core`] this *is* [`Portfolio::cost`].
    pub fn amortize(&self) -> PortfolioCost {
        self.amortize_impl(&self.quantities)
    }

    /// Amortizes the NRE with every system at the same production
    /// `quantity`. [`PortfolioCore::member_at`] reads one member's totals
    /// from the same arithmetic without materializing the result.
    pub fn amortize_at(&self, quantity: Quantity) -> PortfolioCost {
        self.amortize_impl(&vec![quantity; self.names.len()])
    }

    /// Amortizes the NRE over caller-supplied per-system quantities (in
    /// portfolio order).
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidArchitecture`] if `quantities` does not
    /// have one entry per system.
    pub fn amortize_with(&self, quantities: &[Quantity]) -> Result<PortfolioCost, ArchError> {
        if quantities.len() != self.names.len() {
            return Err(ArchError::InvalidArchitecture {
                reason: format!(
                    "portfolio has {} systems but {} quantities were supplied",
                    self.names.len(),
                    quantities.len()
                ),
            });
        }
        Ok(self.amortize_impl(quantities))
    }

    /// One member's `(per-unit total, per-unit RE)` with every system at
    /// `quantity`, read straight from the plan without allocating — the
    /// same numbers as `amortize_at(quantity)`'s system `system`
    /// ([`SystemCost::per_unit_total`] and its RE total), bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `system` is not below [`PortfolioCore::len`].
    pub fn member_at(&self, system: usize, quantity: Quantity) -> (Money, Money) {
        let q = quantity.as_f64();
        let nre = self.nre_of(system, |d| self.drafts[d].total_weight(|_| q));
        let re = self.re[system].total();
        (re + nre.total(), re)
    }

    /// System `system`'s per-unit NRE: its share of every artifact it
    /// uses, added per component in draft order. `total_weight(d)` is
    /// draft `d`'s allocation weight. Artifacts the system does not use
    /// would add `+0.0` to accumulators that start at `+0.0`, so skipping
    /// them changes no bit.
    fn nre_of(&self, system: usize, total_weight: impl Fn(usize) -> f64) -> NreBreakdown {
        let mut nre = NreBreakdown::default();
        for &(d, uses) in &self.members[system] {
            let draft = &self.drafts[d as usize];
            *component(&mut nre, draft.kind) += draft.share(uses, total_weight(d as usize));
        }
        nre
    }

    fn amortize_impl(&self, quantities: &[Quantity]) -> PortfolioCost {
        let weights: Vec<f64> = self
            .drafts
            .iter()
            .map(|draft| draft.total_weight(|j| quantities[j].as_f64()))
            .collect();
        let entities = self
            .drafts
            .iter()
            .zip(&weights)
            .map(|(draft, &total_weight)| NreEntity {
                kind: draft.kind,
                name: draft.name.clone(),
                cost: draft.cost,
                allocations: draft
                    .uses
                    .iter()
                    .map(|&(j, uses)| {
                        (
                            self.names[j as usize].clone(),
                            draft.share(uses, total_weight),
                        )
                    })
                    .collect(),
            })
            .collect();
        let systems = self
            .names
            .iter()
            .zip(quantities)
            .zip(&self.re)
            .enumerate()
            .map(|(i, ((name, &quantity), re))| SystemCost {
                name: name.clone(),
                quantity,
                re: *re,
                nre_per_unit: self.nre_of(i, |d| weights[d]),
            })
            .collect();
        let mut nre_total = NreBreakdown::default();
        for draft in &self.drafts {
            *component(&mut nre_total, draft.kind) += draft.cost;
        }
        PortfolioCost {
            systems,
            entities,
            nre_total,
        }
    }
}

/// A group of systems sharing module, chip, package and D2D designs — the
/// `J` of the paper's Eq. (7)/(8).
///
/// # Examples
///
/// See the crate-level example; the reuse schemes in [`crate::reuse`] all
/// produce portfolios.
#[derive(Debug, Clone, PartialEq)]
pub struct Portfolio {
    systems: Vec<System>,
}

impl Portfolio {
    /// Creates a portfolio from systems.
    pub fn new(systems: Vec<System>) -> Self {
        Portfolio { systems }
    }

    /// The member systems.
    pub fn systems(&self) -> &[System] {
        &self.systems
    }

    /// Adds a system.
    pub fn push(&mut self, system: System) {
        self.systems.push(system);
    }

    /// Number of member systems.
    pub fn len(&self) -> usize {
        self.systems.len()
    }

    /// Whether the portfolio has no systems.
    pub fn is_empty(&self) -> bool {
        self.systems.is_empty()
    }

    /// Computes RE for every system and NRE with full sharing (Eq. (7)/(8)).
    ///
    /// Shared package designs are sized for their largest member system;
    /// smaller members pay the oversized package's RE (§5.1).
    ///
    /// Implemented as [`Portfolio::core`] followed by
    /// [`PortfolioCore::amortize`], so cached exploration engines that
    /// re-amortize one core per quantity produce byte-identical results.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidArchitecture`] for duplicate system
    /// names, conflicting design definitions (same module/chip name with
    /// different geometry) or mixed-integration package-design groups;
    /// propagates technology and cost-engine errors.
    pub fn cost(&self, lib: &TechLibrary, flow: AssemblyFlow) -> Result<PortfolioCost, ArchError> {
        Ok(self.core(lib, flow)?.amortize())
    }

    /// Computes the quantity-independent [`PortfolioCore`]: validation,
    /// shared-package sizing, per-system RE and the NRE entity drafts —
    /// everything of [`Portfolio::cost`] except the amortization over
    /// production quantities.
    ///
    /// Each distinct chip design is resolved once per core, at its first
    /// use in portfolio order: its node, die area, chip, module and D2D
    /// NRE costs and the drafts they land in. A later chip that is a clone
    /// of it (recognised by pointer) or equal to it only records its
    /// `(system, uses)`. A chip that shares a name but not the geometry is
    /// a separate design, so the conflicting-geometry check still sees it.
    /// The result, and the error a portfolio fails with first, are those
    /// of resolving every chip occurrence on its own.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Portfolio::cost`].
    pub fn core(&self, lib: &TechLibrary, flow: AssemblyFlow) -> Result<PortfolioCore, ArchError> {
        let systems = &self.systems;
        if systems.is_empty() {
            return Err(ArchError::InvalidArchitecture {
                reason: "portfolio has no systems".to_string(),
            });
        }
        // --- Unique system names, and the systems in name order. ----------
        let name = |j: u32| systems[j as usize].name();
        let mut by_name: Vec<u32> = (0..systems.len() as u32).collect();
        by_name.sort_unstable_by(|&a, &b| name(a).cmp(name(b)).then(a.cmp(&b)));
        // The first system, in portfolio order, whose name an earlier
        // system already has.
        let repeat = by_name
            .windows(2)
            .filter(|w| name(w[0]) == name(w[1]))
            .map(|w| w[1])
            .min();
        if let Some(j) = repeat {
            return Err(ArchError::InvalidArchitecture {
                reason: format!("duplicate system name {:?}", name(j)),
            });
        }

        // --- Distinct chip designs: each system's groups as (design, count). --
        let mut designs = ChipDesigns::default();
        let mut groups: Vec<(u32, u32)> = Vec::new();
        let mut bounds = Vec::with_capacity(systems.len() + 1);
        bounds.push(0);
        for s in systems {
            for (chip, count) in s.chips() {
                groups.push((designs.intern(chip, lib), *count));
            }
            bounds.push(groups.len());
        }
        let groups_of = |j: usize| &groups[bounds[j]..bounds[j + 1]];
        // `System::total_silicon`, from the resolved die areas.
        let silicon = |j: usize| -> Result<Area, ArchError> {
            let mut total = Area::ZERO;
            for &(d, count) in groups_of(j) {
                total += designs.list[d as usize].die_area.clone()? * count as f64;
            }
            Ok(total)
        };

        // --- Shared package designs: group, validate, size. ---------------
        let mut design_silicon: BTreeMap<&str, (Area, IntegrationKind)> = BTreeMap::new();
        for (j, s) in systems.iter().enumerate() {
            if let Some(design) = s.package_design() {
                let silicon = silicon(j)?;
                let (max, kind) = design_silicon
                    .entry(design)
                    .or_insert((Area::ZERO, s.integration()));
                *max = max.max(silicon);
                if *kind != s.integration() {
                    return Err(ArchError::InvalidArchitecture {
                        reason: format!(
                            "package design {design:?} is shared across different \
                             integration kinds ({kind} and {})",
                            s.integration()
                        ),
                    });
                }
            }
        }

        // --- Per-system RE: `System::re_cost` from the resolved designs. ---
        let mut re = Vec::with_capacity(systems.len());
        let mut placements = Vec::new();
        for (j, s) in systems.iter().enumerate() {
            let packaging = lib.packaging(s.integration())?;
            placements.clear();
            for &(d, count) in groups_of(j) {
                let (node, die_area) = designs.list[d as usize].resolved()?;
                placements.push(DiePlacement::new(node, die_area, count));
            }
            let over = s
                .package_design()
                .map(|d| design_silicon[d].0)
                .filter(|a| !a.is_zero());
            re.push(re_cost_sized(&placements, packaging, flow, over)?);
        }

        // --- NRE drafts with usage-weighted allocation. -------------------
        // Each artifact collects (system index, uses); weight = uses × quantity.
        // First every draft is resolved in first-use order, the order the
        // drafts are listed in and the order a conflict is found in: each
        // chip design's chip, module and D2D drafts (one run of
        // `design_drafts` per design) and each system's package.
        let mut drafts = DraftTable::default();
        let mut design_drafts: Vec<u32> = Vec::new();
        let mut runs: Vec<Option<(usize, usize)>> = vec![None; designs.list.len()];
        let mut package_draft = Vec::with_capacity(systems.len());
        for (j, s) in systems.iter().enumerate() {
            for &(d, _) in groups_of(j) {
                if runs[d as usize].is_none() {
                    let start = design_drafts.len();
                    designs.list[d as usize].resolve_drafts(&mut drafts, &mut design_drafts)?;
                    runs[d as usize] = Some((start, design_drafts.len()));
                }
            }
            let packaging = lib.packaging(s.integration())?;
            let silicon_basis = match s.package_design() {
                Some(design) => {
                    drafts.key().push_str(design);
                    design_silicon[design].0
                }
                None => {
                    let key = drafts.key();
                    key.push_str("pkg:");
                    key.push_str(s.name());
                    silicon(j)?
                }
            };
            let cost = package_nre_for_silicon(packaging, silicon_basis)?;
            package_draft.push(drafts.resolve(NreEntityKind::Package, cost)?);
        }
        // Then the uses, system by system in name order, so every artifact
        // lists its users in name order: the order its allocation weight is
        // summed in.
        for &j in &by_name {
            for &(d, count) in groups_of(j as usize) {
                let (start, end) = runs[d as usize].expect("every design was resolved");
                for &draft in &design_drafts[start..end] {
                    drafts.add_use(draft, j, count as f64);
                }
            }
            drafts.add_use(package_draft[j as usize], j, 1.0);
        }

        // Compile the plan: each system's artifacts in draft order.
        let drafts = drafts.finish();
        let mut used = vec![0; systems.len()];
        for &(system, _) in drafts.iter().flat_map(|draft| &draft.uses) {
            used[system as usize] += 1;
        }
        let mut members: Vec<Vec<(u32, f64)>> = used.into_iter().map(Vec::with_capacity).collect();
        for (d, draft) in (0u32..).zip(&drafts) {
            for &(system, uses) in &draft.uses {
                members[system as usize].push((d, uses));
            }
        }

        Ok(PortfolioCore {
            names: systems.iter().map(|s| s.name().to_string()).collect(),
            quantities: systems.iter().map(System::quantity).collect(),
            re,
            drafts,
            members,
        })
    }
}

impl FromIterator<System> for Portfolio {
    fn from_iter<T: IntoIterator<Item = System>>(iter: T) -> Self {
        Portfolio::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::Chip;
    use crate::module::Module;
    use crate::reuse::{FsmcSpec, OcmeSpec, ScmsSpec};
    use crate::system::SystemBuilder;
    use actuary_tech::NodeId;
    use proptest::prelude::*;

    fn area(mm2: f64) -> Area {
        Area::from_mm2(mm2).unwrap()
    }

    fn lib() -> TechLibrary {
        TechLibrary::paper_defaults().unwrap()
    }

    fn chiplet(name: &str, module: &str, mm2: f64) -> Chip {
        Chip::chiplet(name, "7nm", vec![Module::new(module, "7nm", area(mm2))])
    }

    fn simple_system(name: &str, chip: Chip, n: u32, qty: u64) -> System {
        System::builder(name, IntegrationKind::Mcm)
            .chip(chip, n)
            .quantity(Quantity::new(qty))
            .build()
            .unwrap()
    }

    #[test]
    fn empty_portfolio_errors() {
        let p = Portfolio::new(vec![]);
        assert!(p.cost(&lib(), AssemblyFlow::ChipLast).is_err());
        assert!(p.is_empty());
    }

    #[test]
    fn duplicate_names_rejected() {
        let c = chiplet("c", "m", 100.0);
        let p = Portfolio::new(vec![
            simple_system("s", c.clone(), 1, 1000),
            simple_system("s", c, 2, 1000),
        ]);
        let err = p.cost(&lib(), AssemblyFlow::ChipLast).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn shared_chiplet_nre_is_paid_once() {
        let lib = lib();
        let c = chiplet("shared", "m", 180.0);
        // Two systems using the same chiplet vs two distinct chiplets.
        let shared = Portfolio::new(vec![
            simple_system("a", c.clone(), 1, 500_000),
            simple_system("b", c.clone(), 2, 500_000),
        ]);
        let distinct = Portfolio::new(vec![
            simple_system("a", chiplet("c1", "m1", 180.0), 1, 500_000),
            simple_system("b", chiplet("c2", "m2", 180.0), 2, 500_000),
        ]);
        let shared_cost = shared.cost(&lib, AssemblyFlow::ChipLast).unwrap();
        let distinct_cost = distinct.cost(&lib, AssemblyFlow::ChipLast).unwrap();
        assert!(
            shared_cost.nre_total().chips < distinct_cost.nre_total().chips,
            "chip reuse must halve chip NRE"
        );
        assert!(
            shared_cost.nre_total().modules < distinct_cost.nre_total().modules,
            "module reuse must halve module NRE"
        );
        // Chip entity count: 1 shared vs 2 distinct.
        let shared_chips = shared_cost
            .entities()
            .iter()
            .filter(|e| e.kind() == NreEntityKind::Chip)
            .count();
        let distinct_chips = distinct_cost
            .entities()
            .iter()
            .filter(|e| e.kind() == NreEntityKind::Chip)
            .count();
        assert_eq!(shared_chips, 1);
        assert_eq!(distinct_chips, 2);
    }

    #[test]
    fn allocation_proportional_to_usage_and_quantity() {
        let lib = lib();
        let c = chiplet("shared", "m", 100.0);
        // System a uses 1 chip at 1M units; system b uses 3 chips at 1M.
        let p = Portfolio::new(vec![
            simple_system("a", c.clone(), 1, 1_000_000),
            simple_system("b", c, 3, 1_000_000),
        ]);
        let cost = p.cost(&lib, AssemblyFlow::ChipLast).unwrap();
        let chip_entity = cost
            .entities()
            .iter()
            .find(|e| e.kind() == NreEntityKind::Chip)
            .unwrap();
        let a = chip_entity.allocation_for("a").usd();
        let b = chip_entity.allocation_for("b").usd();
        assert!((b / a - 3.0).abs() < 1e-9, "b uses 3x the chips per unit");
        // Total allocated × quantity = entity cost.
        let recovered = a * 1.0e6 + b * 1.0e6;
        assert!((recovered - chip_entity.cost().usd()).abs() < 1.0);
    }

    #[test]
    fn conflicting_chip_geometry_rejected() {
        let lib = lib();
        let p = Portfolio::new(vec![
            simple_system("a", chiplet("c", "m", 100.0), 1, 1000),
            simple_system("b", chiplet("c", "m", 200.0), 1, 1000),
        ]);
        let err = p.cost(&lib, AssemblyFlow::ChipLast).unwrap_err();
        assert!(err.to_string().contains("conflicting"), "{err}");
    }

    #[test]
    fn package_reuse_shares_nre_but_costs_small_system_re() {
        let lib = lib();
        let c = chiplet("c", "m", 180.0);
        let build = |reuse: bool| {
            let mut small = System::builder("1x", IntegrationKind::Mcm)
                .chip(c.clone(), 1)
                .quantity(Quantity::new(500_000));
            let mut large = System::builder("4x", IntegrationKind::Mcm)
                .chip(c.clone(), 4)
                .quantity(Quantity::new(500_000));
            if reuse {
                small = small.package_design("shared-pkg");
                large = large.package_design("shared-pkg");
            }
            Portfolio::new(vec![small.build().unwrap(), large.build().unwrap()])
        };
        let no_reuse = build(false).cost(&lib, AssemblyFlow::ChipLast).unwrap();
        let reuse = build(true).cost(&lib, AssemblyFlow::ChipLast).unwrap();

        // Package NRE: one design instead of two.
        assert!(reuse.nre_total().packages < no_reuse.nre_total().packages);
        // The small system pays more RE on the oversized package.
        let small_re_no = no_reuse.system("1x").unwrap().re().raw_package;
        let small_re_yes = reuse.system("1x").unwrap().re().raw_package;
        assert!(small_re_yes > small_re_no);
        // The large system's RE is unchanged.
        let large_re_no = no_reuse.system("4x").unwrap().re().total();
        let large_re_yes = reuse.system("4x").unwrap().re().total();
        assert!((large_re_no.usd() - large_re_yes.usd()).abs() < 1e-9);
    }

    #[test]
    fn mixed_integration_package_design_rejected() {
        let lib = lib();
        let c = chiplet("c", "m", 100.0);
        let a = System::builder("a", IntegrationKind::Mcm)
            .chip(c.clone(), 1)
            .quantity(Quantity::new(1000))
            .package_design("pkg")
            .build()
            .unwrap();
        let b = System::builder("b", IntegrationKind::TwoPointFiveD)
            .chip(c, 2)
            .quantity(Quantity::new(1000))
            .package_design("pkg")
            .build()
            .unwrap();
        let err = Portfolio::new(vec![a, b])
            .cost(&lib, AssemblyFlow::ChipLast)
            .unwrap_err();
        assert!(err.to_string().contains("integration"), "{err}");
    }

    #[test]
    fn d2d_nre_paid_once_per_node() {
        let lib = lib();
        let c7 = chiplet("c7", "m7", 100.0);
        let c7b = chiplet("c7b", "m7b", 120.0);
        let p = Portfolio::new(vec![
            simple_system("a", c7, 2, 1000),
            simple_system("b", c7b, 2, 1000),
        ]);
        let cost = p.cost(&lib, AssemblyFlow::ChipLast).unwrap();
        let d2d_entities: Vec<_> = cost
            .entities()
            .iter()
            .filter(|e| e.kind() == NreEntityKind::D2d)
            .collect();
        assert_eq!(d2d_entities.len(), 1, "one D2D design for 7nm");
        assert_eq!(cost.nre_total().d2d, d2d_nre(lib.node("7nm").unwrap()));
    }

    #[test]
    fn soc_systems_have_no_d2d_nre() {
        let lib = lib();
        let soc = Chip::monolithic("soc", "7nm", vec![Module::new("m", "7nm", area(400.0))]);
        let s = System::builder("solo", IntegrationKind::Soc)
            .chip(soc, 1)
            .quantity(Quantity::new(1_000_000))
            .build()
            .unwrap();
        let cost = Portfolio::new(vec![s])
            .cost(&lib, AssemblyFlow::ChipLast)
            .unwrap();
        assert_eq!(cost.nre_total().d2d, Money::ZERO);
        assert!(cost.nre_total().chips.usd() > 0.0);
        assert!(cost.nre_total().packages.usd() > 0.0);
    }

    #[test]
    fn per_unit_totals_and_program_total_consistent() {
        let lib = lib();
        let c = chiplet("c", "m", 150.0);
        let p = Portfolio::new(vec![
            simple_system("a", c.clone(), 1, 500_000),
            simple_system("b", c, 4, 2_000_000),
        ]);
        let cost = p.cost(&lib, AssemblyFlow::ChipLast).unwrap();
        // Reconstruct program total from per-system numbers.
        let per_system: f64 = cost
            .systems()
            .iter()
            .map(|s| s.per_unit_total().usd() * s.quantity().as_f64())
            .sum();
        assert!(
            (per_system - cost.program_total().usd()).abs() / cost.program_total().usd() < 1e-9,
            "allocations must exactly cover the NRE total"
        );
        assert!(cost.average_per_unit().usd() > 0.0);
    }

    #[test]
    fn core_amortize_reproduces_cost_exactly() {
        let lib = lib();
        let c = chiplet("shared", "m", 180.0);
        let p = Portfolio::new(vec![
            simple_system("a", c.clone(), 1, 500_000),
            simple_system("b", c, 4, 2_000_000),
        ]);
        let direct = p.cost(&lib, AssemblyFlow::ChipLast).unwrap();
        let core = p.core(&lib, AssemblyFlow::ChipLast).unwrap();
        assert_eq!(core.system_names(), ["a", "b"]);
        assert_eq!(core.len(), 2);
        assert!(!core.is_empty());
        assert_eq!(core.amortize(), direct);
        // amortize_with the same quantities is the same computation.
        let explicit = core
            .amortize_with(&[Quantity::new(500_000), Quantity::new(2_000_000)])
            .unwrap();
        assert_eq!(explicit, direct);
    }

    #[test]
    fn amortize_at_matches_a_rebuilt_portfolio() {
        // The cached-grid contract: one core re-amortized per quantity must
        // be byte-identical to rebuilding and costing the portfolio at that
        // quantity.
        let lib = lib();
        let build = |qty: u64| {
            Portfolio::new(vec![
                simple_system("a", chiplet("c", "m", 150.0), 1, qty),
                simple_system("b", chiplet("c", "m", 150.0), 3, qty),
            ])
        };
        let core = build(1).core(&lib, AssemblyFlow::ChipLast).unwrap();
        for qty in [1_000u64, 500_000, 10_000_000] {
            let cached = core.amortize_at(Quantity::new(qty));
            let rebuilt = build(qty).cost(&lib, AssemblyFlow::ChipLast).unwrap();
            assert_eq!(cached, rebuilt, "quantity {qty}");
        }
    }

    #[test]
    fn amortize_with_rejects_wrong_arity() {
        let lib = lib();
        let p = Portfolio::new(vec![simple_system("a", chiplet("c", "m", 100.0), 1, 1000)]);
        let core = p.core(&lib, AssemblyFlow::ChipLast).unwrap();
        let err = core
            .amortize_with(&[Quantity::new(1), Quantity::new(2)])
            .unwrap_err();
        assert!(err.to_string().contains("quantities"), "{err}");
    }

    #[test]
    fn from_iterator() {
        let c = chiplet("c", "m", 100.0);
        let p: Portfolio = vec![simple_system("a", c, 1, 1000)].into_iter().collect();
        assert_eq!(p.len(), 1);
    }

    /// A string-keyed reference amortization, the differential oracle for
    /// the index plan: per-artifact usage maps keyed by system name, a
    /// name-keyed quantity map, and every system looking up its share of
    /// every artifact — used or not — by name.
    fn oracle_amortize(core: &PortfolioCore, quantities: &[Quantity]) -> PortfolioCost {
        let quantity_of: BTreeMap<&str, Quantity> = core
            .names
            .iter()
            .map(String::as_str)
            .zip(quantities.iter().copied())
            .collect();
        let mut entities = Vec::with_capacity(core.drafts.len());
        for draft in &core.drafts {
            let uses: BTreeMap<String, f64> = draft
                .uses
                .iter()
                .map(|&(system, uses)| (core.names[system as usize].clone(), uses))
                .collect();
            let total_weight: f64 = uses
                .iter()
                .map(|(sys, uses)| uses * quantity_of[sys.as_str()].as_f64())
                .sum();
            let mut allocations = BTreeMap::new();
            for (sys, uses) in &uses {
                let per_unit = if total_weight > 0.0 {
                    draft.cost * (uses / total_weight)
                } else {
                    Money::ZERO
                };
                allocations.insert(sys.clone(), per_unit);
            }
            entities.push(NreEntity {
                kind: draft.kind,
                name: draft.name.clone(),
                cost: draft.cost,
                allocations,
            });
        }
        let mut systems = Vec::with_capacity(core.names.len());
        for ((name, &quantity), re) in core.names.iter().zip(quantities).zip(&core.re) {
            let mut nre = NreBreakdown::default();
            for e in &entities {
                let share = e.allocation_for(name);
                match e.kind() {
                    NreEntityKind::Module => nre.modules += share,
                    NreEntityKind::Chip => nre.chips += share,
                    NreEntityKind::Package => nre.packages += share,
                    NreEntityKind::D2d => nre.d2d += share,
                }
            }
            systems.push(SystemCost {
                name: name.clone(),
                quantity,
                re: *re,
                nre_per_unit: nre,
            });
        }
        let mut nre_total = NreBreakdown::default();
        for e in &entities {
            match e.kind() {
                NreEntityKind::Module => nre_total.modules += e.cost(),
                NreEntityKind::Chip => nre_total.chips += e.cost(),
                NreEntityKind::Package => nre_total.packages += e.cost(),
                NreEntityKind::D2d => nre_total.d2d += e.cost(),
            }
        }
        PortfolioCost {
            systems,
            entities,
            nre_total,
        }
    }

    /// Every number of a cost result, labelled, as raw `f64` bits: bitwise
    /// equality, so `-0.0` and `+0.0` differ and NaN equals itself.
    fn cost_bits(cost: &PortfolioCost) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for e in cost.entities() {
            let entity = format!("{} {}", e.kind(), e.name());
            out.push((format!("{entity} cost"), e.cost().usd().to_bits()));
            for (sys, share) in e.allocations() {
                out.push((format!("{entity} -> {sys}"), share.usd().to_bits()));
            }
        }
        for s in cost.systems() {
            out.push((
                format!("{} quantity", s.name()),
                s.quantity().as_f64().to_bits(),
            ));
            out.push((format!("{} re", s.name()), s.re().total().usd().to_bits()));
            for (label, share) in s.nre_per_unit().components() {
                out.push((format!("{} {label}", s.name()), share.usd().to_bits()));
            }
        }
        for (label, total) in cost.nre_total().components() {
            out.push((format!("total {label}"), total.usd().to_bits()));
        }
        out.push((
            "nre_total".to_string(),
            cost.nre_total().total().usd().to_bits(),
        ));
        out
    }

    /// Fails at the first number where `plan` and `oracle` differ in bits.
    fn same_bits(plan: &PortfolioCost, oracle: &PortfolioCost) -> TestCaseResult {
        let (plan, oracle) = (cost_bits(plan), cost_bits(oracle));
        prop_assert_eq!(plan.len(), oracle.len());
        for (plan, oracle) in plan.iter().zip(&oracle) {
            prop_assert_eq!(plan, oracle);
        }
        Ok(())
    }

    /// One generated reuse family — SCMS, OCME or FSMC by `scheme` — as
    /// its chiplet portfolio or, with `soc`, its monolithic
    /// `soc_portfolio` baseline.
    fn generated_family(
        (scheme, soc, area_mm2, node, integration): (u32, bool, f64, usize, usize),
        (multiplicities, package_reuse, center_14nm): &(Vec<u32>, bool, bool),
        (sockets, chiplet_types): (u32, u32),
    ) -> Result<Portfolio, ArchError> {
        let node = ["14nm", "7nm", "5nm"][node];
        let integration = IntegrationKind::MULTI_CHIP[integration];
        let (package_reuse, center_14nm) = (*package_reuse, *center_14nm);
        let quantity_each = Quantity::new(500_000);
        match scheme {
            0 => {
                // Distinct multiplicities in generated (not sorted) order,
                // so portfolio order and name order ("12X" < "2X") differ.
                let mut distinct: Vec<u32> = Vec::new();
                for &m in multiplicities {
                    if !distinct.contains(&m) {
                        distinct.push(m);
                    }
                }
                let spec = ScmsSpec {
                    chiplet_module_area: area(area_mm2),
                    node: NodeId::new(node),
                    multiplicities: distinct,
                    integration,
                    quantity_each,
                    package_reuse,
                };
                if soc {
                    spec.soc_portfolio()
                } else {
                    spec.portfolio()
                }
            }
            1 => {
                let spec = OcmeSpec {
                    socket_module_area: area(area_mm2),
                    node: NodeId::new(node),
                    center_node: center_14nm.then(|| NodeId::new("14nm")),
                    integration,
                    quantity_each,
                    package_reuse,
                };
                if soc {
                    spec.soc_portfolio()
                } else {
                    spec.portfolio()
                }
            }
            _ => {
                let spec = FsmcSpec {
                    sockets,
                    chiplet_types,
                    socket_module_area: area(area_mm2),
                    node: NodeId::new(node),
                    integration,
                    quantity_each,
                };
                if soc {
                    spec.soc_portfolio()
                } else {
                    spec.portfolio()
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The compiled plan is bit-identical to the string-keyed oracle on
        /// generated SCMS, OCME and FSMC families (and their SoC
        /// baselines), at the built, random per-system and uniform
        /// quantities; `member_at` reads the materialized members exactly.
        #[test]
        fn plan_matches_the_string_keyed_oracle(
            family in (0u32..3, proptest::bool::ANY, 10.0f64..200.0, 0usize..3, 0usize..3),
            reuse in (
                proptest::collection::vec(1u32..13, 1..6),
                proptest::bool::ANY,
                proptest::bool::ANY,
            ),
            fsmc in (1u32..=4, 1u32..=6),
            spread in proptest::collection::vec((0u64..1000, 0u32..6), 256..257),
            uniform in (0u64..1000, 0u32..6),
        ) {
            let portfolio = generated_family(family, &reuse, fsmc)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            // Large 2.5D families can exceed the interposer: out of scope.
            let core = portfolio.core(&lib(), AssemblyFlow::ChipLast);
            prop_assume!(core.is_ok());
            let core = core.map_err(|e| TestCaseError::fail(e.to_string()))?;
            let n = core.len();

            same_bits(&core.amortize(), &oracle_amortize(&core, &core.quantities))?;

            let spread: Vec<Quantity> = spread[..n]
                .iter()
                .map(|&(mantissa, exp)| Quantity::new(mantissa * 10u64.pow(exp)))
                .collect();
            let plan = core
                .amortize_with(&spread)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            same_bits(&plan, &oracle_amortize(&core, &spread))?;

            for q in [Quantity::new(uniform.0 * 10u64.pow(uniform.1)), Quantity::new(0)] {
                let plan = core.amortize_at(q);
                same_bits(&plan, &oracle_amortize(&core, &vec![q; n]))?;
                for (i, system) in plan.systems().iter().enumerate() {
                    let (per_unit, re) = core.member_at(i, q);
                    let read = (per_unit.usd().to_bits(), re.usd().to_bits());
                    let materialized = (
                        system.per_unit_total().usd().to_bits(),
                        system.re().total().usd().to_bits(),
                    );
                    prop_assert!(
                        read == materialized,
                        "member {} at {:?}: {:?} vs {:?}",
                        system.name(),
                        q,
                        read,
                        materialized
                    );
                }
            }
        }
    }

    /// The string-keyed [`Portfolio::core`] from before design interning,
    /// kept as the differential oracle for the interned one: every chip
    /// occurrence looks up its node and die area again, and every artifact
    /// use formats and allocates its key.
    fn oracle_core(
        portfolio: &Portfolio,
        lib: &TechLibrary,
        flow: AssemblyFlow,
    ) -> Result<PortfolioCore, ArchError> {
        if portfolio.systems.is_empty() {
            return Err(ArchError::InvalidArchitecture {
                reason: "portfolio has no systems".to_string(),
            });
        }
        // --- Uniqueness of system names. ---------------------------------
        {
            let mut seen = BTreeMap::new();
            for s in &portfolio.systems {
                if seen.insert(s.name().to_string(), ()).is_some() {
                    return Err(ArchError::InvalidArchitecture {
                        reason: format!("duplicate system name {:?}", s.name()),
                    });
                }
            }
        }

        // --- Shared package designs: group, validate, size. ---------------
        let mut design_silicon: BTreeMap<String, Area> = BTreeMap::new();
        let mut design_kind: BTreeMap<String, actuary_tech::IntegrationKind> = BTreeMap::new();
        for s in &portfolio.systems {
            if let Some(design) = s.package_design() {
                let silicon = s.total_silicon(lib)?;
                let entry = design_silicon
                    .entry(design.to_string())
                    .or_insert(Area::ZERO);
                *entry = entry.max(silicon);
                match design_kind.get(design) {
                    None => {
                        design_kind.insert(design.to_string(), s.integration());
                    }
                    Some(kind) if *kind != s.integration() => {
                        return Err(ArchError::InvalidArchitecture {
                            reason: format!(
                                "package design {design:?} is shared across different \
                                 integration kinds ({kind} and {})",
                                s.integration()
                            ),
                        });
                    }
                    Some(_) => {}
                }
            }
        }

        // --- Per-system RE. -------------------------------------------------
        let mut re_by_system: Vec<ReCostBreakdown> = Vec::with_capacity(portfolio.systems.len());
        for s in &portfolio.systems {
            let over = s
                .package_design()
                .map(|d| design_silicon[d])
                .filter(|a| !a.is_zero());
            re_by_system.push(s.re_cost(lib, flow, over)?);
        }

        // --- NRE entities with usage-weighted allocation. -------------------
        // Each artifact collects (system index, uses); weight = uses × quantity.
        let names: Vec<String> = portfolio
            .systems
            .iter()
            .map(|s| s.name().to_string())
            .collect();
        let mut drafts: Vec<EntityDraft> = Vec::new();
        let mut index: BTreeMap<(NreEntityKind, String), usize> = BTreeMap::new();

        let add_use = |drafts: &mut Vec<EntityDraft>,
                       index: &mut BTreeMap<(NreEntityKind, String), usize>,
                       kind: NreEntityKind,
                       name: String,
                       cost: Money,
                       system: u32,
                       uses: f64|
         -> Result<(), ArchError> {
            let key = (kind, name.clone());
            let idx = match index.get(&key) {
                Some(&i) => {
                    // Same design must have consistent cost (geometry).
                    if (drafts[i].cost.usd() - cost.usd()).abs() > 1e-6 {
                        return Err(ArchError::InvalidArchitecture {
                            reason: format!(
                                "{kind} design {name:?} is defined with conflicting \
                                 geometry across systems"
                            ),
                        });
                    }
                    i
                }
                None => {
                    drafts.push(EntityDraft {
                        kind,
                        name: name.clone(),
                        cost,
                        uses: Vec::new(),
                    });
                    index.insert(key, drafts.len() - 1);
                    drafts.len() - 1
                }
            };
            // Systems are added in order, so a system that already uses
            // the artifact is its last user: repeated uses (a module placed
            // twice) add up in place.
            let users = &mut drafts[idx].uses;
            match users.last_mut() {
                Some((last, total)) if *last == system => *total += uses,
                _ => users.push((system, uses)),
            }
            Ok(())
        };

        for (system, s) in (0u32..).zip(&portfolio.systems) {
            // Module and chip designs.
            for (chip, count) in s.chips() {
                let node = lib.node(chip.node().as_str())?;
                let die_area = chip.die_area(lib)?;
                add_use(
                    &mut drafts,
                    &mut index,
                    NreEntityKind::Chip,
                    chip.name().to_string(),
                    chip_level_nre(node, die_area),
                    system,
                    *count as f64,
                )?;
                for m in chip.modules() {
                    add_use(
                        &mut drafts,
                        &mut index,
                        NreEntityKind::Module,
                        format!("{}@{}", m.name(), m.node()),
                        module_design_cost(node, m.area()),
                        system,
                        *count as f64,
                    )?;
                }
                // D2D interface design, once per node.
                if chip.is_chiplet() {
                    add_use(
                        &mut drafts,
                        &mut index,
                        NreEntityKind::D2d,
                        format!("d2d@{}", chip.node()),
                        d2d_nre(node),
                        system,
                        *count as f64,
                    )?;
                }
            }
            // Package design.
            let packaging = lib.packaging(s.integration())?;
            let (pkg_name, silicon_basis) = match s.package_design() {
                Some(design) => (design.to_string(), design_silicon[design]),
                None => (format!("pkg:{}", s.name()), s.total_silicon(lib)?),
            };
            add_use(
                &mut drafts,
                &mut index,
                NreEntityKind::Package,
                pkg_name,
                package_nre_for_silicon(packaging, silicon_basis)?,
                system,
                1.0,
            )?;
        }

        // Compile the plan: each artifact's users in system-name order,
        // then each system's artifacts in draft order.
        let mut members = vec![Vec::new(); names.len()];
        for (d, draft) in (0u32..).zip(&mut drafts) {
            draft
                .uses
                .sort_unstable_by(|a, b| names[a.0 as usize].cmp(&names[b.0 as usize]));
            for &(system, uses) in &draft.uses {
                members[system as usize].push((d, uses));
            }
        }

        Ok(PortfolioCore {
            names,
            quantities: portfolio.systems.iter().map(System::quantity).collect(),
            re: re_by_system,
            drafts,
            members,
        })
    }
    /// Every number and identity of a core as labelled lines, with `f64`s
    /// as raw bits: names, quantities, RE components, members, and every
    /// draft's kind, name, cost and uses.
    fn core_lines(core: &PortfolioCore) -> Vec<String> {
        let mut out = Vec::new();
        for (j, name) in core.names.iter().enumerate() {
            let q = core.quantities[j].as_f64().to_bits();
            out.push(format!("system {j} {name:?} quantity {q:#x}"));
            for (label, value) in core.re[j].components() {
                out.push(format!(
                    "system {j} re {label} {:#x}",
                    value.usd().to_bits()
                ));
            }
            for &(d, uses) in &core.members[j] {
                out.push(format!("system {j} member {d} {:#x}", uses.to_bits()));
            }
        }
        for (d, draft) in core.drafts.iter().enumerate() {
            let cost = draft.cost.usd().to_bits();
            out.push(format!(
                "draft {d} {} {:?} {cost:#x}",
                draft.kind, draft.name
            ));
            for &(j, uses) in &draft.uses {
                out.push(format!("draft {d} use {j} {:#x}", uses.to_bits()));
            }
        }
        out
    }

    /// The interned core equals the oracle line for line on success, and
    /// fails with the identical error (value and text) otherwise.
    fn same_as_oracle(portfolio: &Portfolio, flow: AssemblyFlow) -> TestCaseResult {
        let lib = lib();
        match (
            portfolio.core(&lib, flow),
            oracle_core(portfolio, &lib, flow),
        ) {
            (Ok(core), Ok(oracle)) => {
                let (core, oracle) = (core_lines(&core), core_lines(&oracle));
                prop_assert_eq!(core.len(), oracle.len());
                for (core, oracle) in core.iter().zip(&oracle) {
                    prop_assert_eq!(core, oracle);
                }
            }
            (Err(err), Err(oracle)) => {
                prop_assert_eq!(err.to_string(), oracle.to_string());
                prop_assert_eq!(err, oracle);
            }
            (core, oracle) => prop_assert!(
                false,
                "core {:?} but oracle {:?}",
                core.map(|c| c.len()),
                oracle.map(|c| c.len())
            ),
        }
        Ok(())
    }

    /// A chip recipe: (name, node, kind, modules as (name, node, area)),
    /// each a selector into the menus below. Kind 0 is a monolithic die,
    /// any other a chiplet.
    type ChipRecipe = (usize, usize, usize, Vec<(usize, usize, usize)>);

    /// Selector 0 is a node the library lacks.
    fn recipe_node(sel: usize) -> &'static str {
        if sel == 0 {
            "9nm"
        } else {
            ["7nm", "14nm", "5nm"][sel % 3]
        }
    }

    /// Selector 0 makes a die too large for the wafer.
    fn recipe_area(sel: usize) -> Area {
        area(if sel == 0 {
            12_000.0
        } else {
            [40.0, 80.0, 120.0, 150.0, 300.0][sel % 5]
        })
    }

    /// Chip `i` of the pool: names `c` and `d` recur across recipes (same
    /// name, maybe other geometry), any other name is the recipe's own.
    /// Modules named `m` recur too; module node selector 0 puts a module
    /// on another node than its chip.
    fn build_chip(i: usize, (name, node, kind, modules): &ChipRecipe) -> Chip {
        let name = match name {
            0 => "c".to_string(),
            1 => "d".to_string(),
            _ => format!("c{i}"),
        };
        let node = recipe_node(*node);
        let modules = modules
            .iter()
            .enumerate()
            .map(|(k, &(m, node_sel, a))| {
                let m_name = if m == 0 {
                    "m".to_string()
                } else {
                    format!("m{i}.{k}")
                };
                let m_node = match (node_sel, node) {
                    (0, "7nm") => "14nm",
                    (0, _) => "7nm",
                    _ => node,
                };
                Module::new(m_name, m_node, recipe_area(a))
            })
            .collect();
        if *kind != 0 {
            Chip::chiplet(name, node, modules)
        } else {
            Chip::monolithic(name, node, modules)
        }
    }

    /// A system recipe: (name selector, integration, package design,
    /// quantity, groups as (chip recipe, shared by clone?, count)).
    type SystemRecipe = (usize, usize, usize, u64, Vec<(usize, bool, u32)>);

    /// Builds a portfolio from recipes: a group either clones the pool's
    /// chip (one shared design) or rebuilds it from its recipe (an equal,
    /// separate chip). Systems the builder rejects (a monolithic die in a
    /// multi-chip package) are left out.
    fn build_portfolio(pool: &[ChipRecipe], systems: &[SystemRecipe]) -> Portfolio {
        let chips: Vec<Chip> = pool
            .iter()
            .enumerate()
            .map(|(i, r)| build_chip(i, r))
            .collect();
        let packages = [
            None,
            None,
            None,
            None,
            Some("pkg-a"),
            Some("pkg-b"),
            Some("pkg:s0"),
        ];
        let mut out = Vec::new();
        for (j, (name_sel, integration, package, quantity, groups)) in systems.iter().enumerate() {
            // Names out of sorted order, and now and then a duplicate.
            let name = if *name_sel == 0 {
                "s0".to_string()
            } else {
                format!("s{}", (j * 7) % 10)
            };
            let integration = IntegrationKind::ALL[*integration];
            let mut builder = System::builder(name, integration).quantity(Quantity::new(*quantity));
            // A SoC package carries exactly one die.
            let groups = if integration.is_multi_chip() {
                &groups[..]
            } else {
                &groups[..1]
            };
            for &(recipe, shared, count) in groups {
                let count = if integration.is_multi_chip() {
                    count
                } else {
                    1
                };
                let recipe = recipe % pool.len();
                let chip = if shared {
                    chips[recipe].clone()
                } else {
                    build_chip(recipe, &pool[recipe])
                };
                builder = builder.chip(chip, count);
            }
            if let Some(design) = packages[*package] {
                builder = builder.package_design(design);
            }
            if let Ok(system) = builder.build() {
                out.push(system);
            }
        }
        Portfolio::new(out)
    }

    #[test]
    fn interned_core_matches_the_oracle_on_each_hand_built_case() {
        let lib = lib();
        let m7 = Module::new("m", "7nm", area(100.0));
        let shared = Chip::chiplet("c", "7nm", vec![m7.clone()]);
        let mcm = |name: &str, chips: Vec<(Chip, u32)>| {
            let mut b = System::builder(name, IntegrationKind::Mcm).quantity(Quantity::new(1000));
            for (chip, n) in chips {
                b = b.chip(chip, n);
            }
            b
        };
        let build = |systems: Vec<SystemBuilder>| {
            Portfolio::new(systems.into_iter().map(|b| b.build().unwrap()).collect())
        };
        let cases: Vec<(&str, Portfolio)> = vec![
            (
                "shared by clone, and equal chips rebuilt separately",
                build(vec![
                    mcm("b", vec![(shared.clone(), 2)]),
                    mcm(
                        "a",
                        vec![(shared.clone(), 1), (chiplet("c", "m", 100.0), 3)],
                    ),
                ]),
            ),
            (
                "same name, different geometry",
                build(vec![
                    mcm("a", vec![(shared.clone(), 1)]),
                    mcm("b", vec![(chiplet("c", "m", 200.0), 1)]),
                ]),
            ),
            (
                "same name and die area, other module",
                build(vec![
                    mcm("a", vec![(shared.clone(), 1)]),
                    mcm("b", vec![(chiplet("c", "m2", 100.0), 2)]),
                ]),
            ),
            (
                "one module name at two nodes",
                build(vec![
                    mcm("a", vec![(shared.clone(), 1)]),
                    mcm(
                        "b",
                        vec![(
                            Chip::chiplet(
                                "c14",
                                "14nm",
                                vec![Module::new("m", "14nm", area(100.0))],
                            ),
                            1,
                        )],
                    ),
                ]),
            ),
            (
                "one module name and node, other area",
                build(vec![
                    mcm("a", vec![(shared.clone(), 1)]),
                    mcm("b", vec![(chiplet("c2", "m", 120.0), 1)]),
                ]),
            ),
            (
                "package designs",
                build(vec![
                    mcm("1x", vec![(shared.clone(), 1)]).package_design("pkg"),
                    mcm("4x", vec![(shared.clone(), 4)]).package_design("pkg"),
                    mcm("solo", vec![(shared.clone(), 2)]),
                ]),
            ),
            (
                "mixed-integration package design",
                build(vec![
                    mcm("a", vec![(shared.clone(), 1)]).package_design("pkg"),
                    System::builder("b", IntegrationKind::TwoPointFiveD)
                        .chip(shared.clone(), 2)
                        .package_design("pkg"),
                ]),
            ),
            (
                "duplicate system names",
                build(vec![
                    mcm("b", vec![(shared.clone(), 1)]),
                    mcm("a", vec![(shared.clone(), 2)]),
                    mcm("a", vec![(shared.clone(), 3)]),
                    mcm("b", vec![(shared.clone(), 4)]),
                ]),
            ),
            (
                "unknown node",
                build(vec![mcm(
                    "a",
                    vec![(
                        Chip::chiplet("x", "9nm", vec![Module::new("m", "9nm", area(50.0))]),
                        1,
                    )],
                )]),
            ),
            (
                "module/chip node mismatch",
                build(vec![mcm(
                    "a",
                    vec![(Chip::chiplet("x", "5nm", vec![m7.clone()]), 1)],
                )]),
            ),
            (
                "die over the wafer limit",
                build(vec![mcm("a", vec![(chiplet("big", "m", 12_000.0), 1)])]),
            ),
        ];
        for (label, portfolio) in &cases {
            for flow in [AssemblyFlow::ChipLast, AssemblyFlow::ChipFirst] {
                if let Err(e) = same_as_oracle(portfolio, flow) {
                    panic!("{label} ({flow}): {e}");
                }
            }
        }
        let core = |label: &str| {
            let (_, p) = cases.iter().find(|(l, _)| *l == label).unwrap();
            p.core(&lib, AssemblyFlow::ChipLast)
        };
        let err = |label: &str| core(label).unwrap_err().to_string();
        // A clone and an equal rebuilt chip are one chip design.
        let both = core("shared by clone, and equal chips rebuilt separately").unwrap();
        let kinds: Vec<_> = both
            .drafts
            .iter()
            .map(|d| (d.kind, d.name.as_str()))
            .collect();
        assert_eq!(
            kinds,
            [
                (NreEntityKind::Chip, "c"),
                (NreEntityKind::Module, "m@7nm"),
                (NreEntityKind::D2d, "d2d@7nm"),
                (NreEntityKind::Package, "pkg:b"),
                (NreEntityKind::Package, "pkg:a"),
            ]
        );
        assert_eq!(both.drafts[0].uses, [(1, 4.0), (0, 2.0)]);
        assert!(err("same name, different geometry").contains("chip design \"c\""));
        // Same chip cost, so one chip draft, but each design keeps its module.
        let other = core("same name and die area, other module").unwrap();
        let names: Vec<_> = other.drafts.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["c", "m@7nm", "d2d@7nm", "pkg:a", "m2@7nm", "pkg:b"]);
        // The same module name at two nodes is two designs, each with the
        // NRE of its own node.
        let two = core("one module name at two nodes").unwrap();
        for node in ["7nm", "14nm"] {
            let draft = two
                .drafts
                .iter()
                .find(|d| d.name == format!("m@{node}"))
                .unwrap();
            assert_eq!(draft.kind, NreEntityKind::Module);
            assert_eq!(
                draft.cost,
                module_design_cost(lib.node(node).unwrap(), area(100.0))
            );
        }
        // Area is not part of a module's identity: the same name and node
        // with another area is a conflicting definition.
        let conflict = err("one module name and node, other area");
        assert!(conflict.contains("module design \"m@7nm\""), "{conflict}");
        // A package design shared by two systems is one artifact.
        let packaged = core("package designs").unwrap();
        let packages: Vec<_> = packaged
            .drafts
            .iter()
            .filter(|d| d.kind == NreEntityKind::Package)
            .map(|d| (d.name.as_str(), d.uses.len()))
            .collect();
        assert_eq!(packages, [("pkg", 2), ("pkg:solo", 1)]);
        assert!(err("mixed-integration package design").contains("integration kinds"));
        assert!(err("duplicate system names").contains("duplicate system name \"a\""));
        assert!(err("unknown node").contains("9nm"));
        assert!(err("module/chip node mismatch").contains("designed at 7nm"));
        let too_large = err("die over the wafer limit");
        assert!(too_large.contains("13333.33"), "{too_large}");
        assert!(too_large.contains("exceeds the 10783."), "{too_large}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The interned core is line-for-line the string-keyed oracle on
        /// generated SCMS, OCME and FSMC families and their SoC baselines,
        /// at both flows; oversized 2.5D families fail with the same error.
        #[test]
        fn interned_core_matches_the_oracle_on_generated_families(
            family in (0u32..3, proptest::bool::ANY, 10.0f64..400.0, 0usize..3, 0usize..3),
            reuse in (
                proptest::collection::vec(1u32..13, 1..6),
                proptest::bool::ANY,
                proptest::bool::ANY,
            ),
            fsmc in (1u32..=4, 1u32..=6),
            variant in (proptest::bool::ANY, 0u32..4),
        ) {
            let (chip_first, oversized) = variant;
            // One case in four scales the area up to 4,800 mm²: SoC dies
            // and 2.5D interposers then outgrow the wafer.
            let (scheme, soc, area_mm2, node, integration) = family;
            let area_mm2 = if oversized == 0 { area_mm2 * 12.0 } else { area_mm2 };
            let family = (scheme, soc, area_mm2, node, integration);
            let portfolio = generated_family(family, &reuse, fsmc)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            let flow = if chip_first { AssemblyFlow::ChipFirst } else { AssemblyFlow::ChipLast };
            same_as_oracle(&portfolio, flow)?;
        }

        /// The same on random hand-built portfolios: chips shared by clone
        /// and equal chips rebuilt, same-name chips of other geometry, one
        /// module name at two nodes, package designs (some shared across
        /// integrations, one named like a system's own package), duplicate
        /// system names, an unknown node, module/chip node mismatches and
        /// dies over the wafer limit.
        #[test]
        fn interned_core_matches_the_oracle_on_random_portfolios(
            pool in proptest::collection::vec(
                (
                    0usize..5,
                    0usize..20,
                    0usize..6,
                    proptest::collection::vec((0usize..4, 0usize..32, 0usize..24), 1..4),
                ),
                1..6,
            ),
            systems in proptest::collection::vec(
                (
                    0usize..16,
                    0usize..4,
                    0usize..7,
                    1u64..2_000_000,
                    proptest::collection::vec((0usize..6, proptest::bool::ANY, 1u32..4), 1..4),
                ),
                1..7,
            ),
            chip_first in proptest::bool::ANY,
        ) {
            let portfolio = build_portfolio(&pool, &systems);
            let flow = if chip_first { AssemblyFlow::ChipFirst } else { AssemblyFlow::ChipLast };
            same_as_oracle(&portfolio, flow)?;
        }
    }
}
