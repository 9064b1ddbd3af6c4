//! Grid exploration: the paper's reuse schemes and assembly flows as
//! search axes next to the single-system ones.
//!
//! This is the one exploration engine. A [`PortfolioSpace`] is the
//! Cartesian product of the §6 single-system axes (node, area, quantity,
//! integration, chiplet count) with two more:
//!
//! * a **reuse-scheme axis** ([`ReuseScheme`]): the standalone baseline
//!   plus the paper's SCMS, OCME and FSMC schemes, built from
//!   [`actuary_arch::reuse`] — each grid cell is one member system of the
//!   scheme's derivative family, with the family's shared module, chip,
//!   package and D2D NRE amortized by [`actuary_arch::Portfolio`];
//! * a **flow axis**: chip-first vs chip-last is a per-cell coordinate
//!   instead of a whole-grid scalar, exposing the §5 flow comparison
//!   mechanically.
//!
//! The paper's §6 question ("which integration, how many chiplets") is
//! the one-scheme slice of its §5 reuse question: a space with
//! `schemes: vec![ReuseScheme::None]` and one flow is the single-system
//! grid (see [`crate::explore`]), and its artifacts without the `flow`,
//! `scheme` and `scheme_params` columns
//! ([`actuary_units::Artifact::without_columns`]) are the single-system
//! tables.
//!
//! # Cell semantics
//!
//! Every cell keeps the single-system reading of its coordinates: `area`
//! is the member system's total module area and `chiplets` its chiplet
//! count. The scheme decides what *family* that member amortizes NRE with:
//!
//! | scheme | family | member selected by `chiplets` |
//! |--------|--------|-------------------------------|
//! | `none` | the member alone (a standalone system) | any count |
//! | `scms` | one chiplet design of `area/chiplets` builds every multiplicity in [`PortfolioSpace::scms_multiplicities`] | a listed multiplicity |
//! | `ocme` | centre + extensions of `area/chiplets` sockets (`C`, `C+1X`, `C+1X+1Y`, `C+2X+2Y`) | 1, 2, 3 or 5 chips |
//! | `fsmc` | every collocation of `n` types in a `k`-socket package, one family per [`PortfolioSpace::fsmc_situations`] entry | a collocation size `1..=k` |
//!
//! A cell whose `chiplets` is not a member of its scheme's family is
//! recorded as incompatible, never dropped. Under the `Soc` integration a
//! scheme cell is the family's *monolithic baseline* member (one SoC die
//! per derivative, module reuse only — the comparison bar of Figs. 8–10).
//!
//! # Sparse grid storage
//!
//! The result stores only the cells that evaluation actually produced
//! (feasible and infeasible ones) as an `(index, outcome)` list that
//! every producer writes once, in grid order;
//! everything else — incompatible cells, and cells a [`crate::refine`] run
//! pruned — is re-derived from its grid coordinates on read through the
//! internal `classify` pass. A family-scheme grid with a wide chiplet-count axis is
//! *mostly* incompatible, so this turns the dominant storage term into
//! nothing at all, and a 10⁸-cell refine run keeps only the cells it
//! priced, not 10⁸ `CellOutcome`s. Readers ([`PortfolioResult::cells`],
//! the artifacts, the winner tables, the fronts) see the identical dense
//! grid in the identical order.
//!
//! # The cached RE core
//!
//! The expensive half of a cell (per-system RE and the NRE entity totals)
//! depends only on (scheme, node, per-socket area, integration, flow and
//! the scheme's own parameters) — not on quantity, and not on which
//! family member the cell reads out. The engine therefore evaluates one
//! [`actuary_arch::PortfolioCore`] per distinct key (a standalone system's
//! core is a one-member portfolio) and re-amortizes it per quantity, which
//! removes the quantity axis (and the member axis of the reuse families)
//! from the evaluation cost: on the default grid this is ~3× fewer full
//! evaluations, with byte-identical output because
//! [`actuary_arch::Portfolio::cost`] itself is core + amortize.
//! [`CorePolicy::Uncached`] keeps the reference path alive for tests.
//!
//! Inside one core the cost is design bookkeeping, not die math (a die's
//! yield and raw cost take tens of nanoseconds). A reuse family's members
//! share a few chip designs — FSMC 4x4 builds 69 systems from 4 chiplets
//! — and [`actuary_arch::Portfolio::core`] resolves each distinct design
//! once per core: node, die area, NRE costs and artifact indices.
//!
//! Each priced (node, area) point keeps its list of `(block offset,
//! core, member)` triples, and the amortization work item is one (point,
//! quantity) block: that list walked at one quantity. A configuration's
//! family member index is planned with the configuration, from the
//! scheme's own member tables ([`actuary_arch::reuse::OcmeSpec::member`],
//! [`actuary_arch::reuse::FsmcSpec::member`], the SCMS multiplicities).
//! Each cell reads its `(per-unit, RE)` pair straight from the core's
//! compiled amortization plan
//! ([`actuary_arch::PortfolioCore::member_at`]). No cell allocates or
//! materializes a whole-family [`actuary_arch::PortfolioCost`].
//!
//! Both passes run on the shared chunked engine: workers claim ranges of
//! the work list from one shared cursor, and results are reassembled in
//! work-list order. A block is one contiguous stretch of the grid (node →
//! area → quantity → integration → chiplet count → flow → scheme) and
//! blocks follow each other in it, so their cells are appended straight
//! to the sparse store — one thread and N threads emit byte-identical
//! CSV.
//!
//! # Examples
//!
//! ```
//! use actuary_dse::portfolio::{explore_portfolio, PortfolioSpace, ReuseScheme};
//! use actuary_tech::TechLibrary;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = TechLibrary::paper_defaults()?;
//! let space = PortfolioSpace {
//!     nodes: vec!["7nm".to_string()],
//!     areas_mm2: vec![400.0, 800.0],
//!     quantities: vec![500_000],
//!     ..PortfolioSpace::default()
//! };
//! let result = explore_portfolio(&lib, &space, 2)?;
//! assert_eq!(result.len(), space.len());
//! assert!(result.core_evaluations() < result.len());
//! for winner in result.winners(ReuseScheme::Scms) {
//!     println!("{winner}");
//! }
//! # Ok(())
//! # }
//! ```

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use actuary_arch::reuse::{FsmcSpec, OcmeSpec, ScmsSpec};
use actuary_arch::{ArchError, PortfolioCore};
use actuary_model::AssemblyFlow;
use actuary_tech::{IntegrationKind, NodeId, TechLibrary};
use actuary_units::{write_fixed, Area, Artifact, Quantity, RowEmit};

use crate::cache::{CacheStats, Lru};
use crate::engine::{resolve_threads, run_chunked, run_chunked_into};
use crate::explore::{CellOutcome, IncompatibleReason, ScmsFamily, PRUNED_DETAIL};
use crate::optimizer::{single_system_core, Candidate};
use crate::pareto::pareto_min_indices;

/// How a grid cell's NRE is shared across derivative systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReuseScheme {
    /// No cross-derivative reuse: the cell is a standalone single system
    /// (the monolithic-portfolio baseline; alone on the scheme axis, the
    /// §6 single-system grid).
    None,
    /// *Single Chiplet Multiple Systems* (§5.1, Figure 8).
    Scms,
    /// *One Center Multiple Extensions* (§5.2, Figure 9).
    Ocme,
    /// *A few Sockets Multiple Collocations* (§5.3, Figure 10).
    Fsmc,
}

impl ReuseScheme {
    /// Every scheme, in display order.
    pub const ALL: [ReuseScheme; 4] = [
        ReuseScheme::None,
        ReuseScheme::Scms,
        ReuseScheme::Ocme,
        ReuseScheme::Fsmc,
    ];

    /// Stable lower-case label (used in CSV and on the CLI).
    pub fn label(self) -> &'static str {
        match self {
            ReuseScheme::None => "none",
            ReuseScheme::Scms => "scms",
            ReuseScheme::Ocme => "ocme",
            ReuseScheme::Fsmc => "fsmc",
        }
    }
}

impl fmt::Display for ReuseScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for ReuseScheme {
    type Err = String;

    /// Parses the user-facing scheme grammar (case-insensitive; `none`
    /// also answers to `single`/`baseline`) — the single definition the
    /// CLI flags and the scenario schema both use.
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "none" | "single" | "baseline" => Ok(ReuseScheme::None),
            "scms" => Ok(ReuseScheme::Scms),
            "ocme" => Ok(ReuseScheme::Ocme),
            "fsmc" => Ok(ReuseScheme::Fsmc),
            other => Err(format!(
                "unknown reuse scheme {other:?} (none|scms|ocme|fsmc)"
            )),
        }
    }
}

/// Parses one FSMC `(sockets k, chiplet types n)` situation written `KxN`
/// (e.g. `4x6`, case-insensitive `x`) — shared by the CLI's
/// `--fsmc-situations` and the scenario schema's `fsmc_situations`.
///
/// # Errors
///
/// Returns a human-readable message naming the malformed part.
///
/// # Examples
///
/// ```
/// use actuary_dse::portfolio::parse_fsmc_situation;
///
/// assert_eq!(parse_fsmc_situation("4x6"), Ok((4, 6)));
/// assert_eq!(parse_fsmc_situation("2X2"), Ok((2, 2)));
/// assert!(parse_fsmc_situation("4by6").is_err());
/// ```
pub fn parse_fsmc_situation(s: &str) -> Result<(u32, u32), String> {
    let Some((k, n)) = s.split_once(['x', 'X']) else {
        return Err(format!(
            "invalid FSMC situation {s:?} (expected KxN, e.g. 4x6)"
        ));
    };
    let k = k
        .trim()
        .parse()
        .map_err(|e| format!("invalid FSMC sockets in {s:?}: {e}"))?;
    let n = n
        .trim()
        .parse()
        .map_err(|e| format!("invalid FSMC chiplet types in {s:?}: {e}"))?;
    Ok((k, n))
}

/// The portfolio exploration grid: the Cartesian product of every axis.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioSpace {
    /// Process-node identifiers to explore (must exist in the library).
    pub nodes: Vec<String>,
    /// Total module areas of the member system, in mm².
    pub areas_mm2: Vec<f64>,
    /// Production quantities (per derivative system).
    pub quantities: Vec<u64>,
    /// Integration schemes (`Soc` selects the reuse family's monolithic
    /// baseline portfolio).
    pub integrations: Vec<IntegrationKind>,
    /// Chiplet counts of the member system.
    pub chiplet_counts: Vec<u32>,
    /// Assembly flows — a per-cell axis, not a scalar.
    pub flows: Vec<AssemblyFlow>,
    /// Reuse schemes.
    pub schemes: Vec<ReuseScheme>,
    /// SCMS family multiplicities (the paper's 1X/2X/4X).
    pub scms_multiplicities: Vec<u32>,
    /// FSMC `(sockets k, chiplet types n)` situations — a scheme-parameter
    /// axis: every entry expands the `fsmc` scheme into one family, so one
    /// run sweeps Figure 10's x-axis (the paper's five situations are
    /// [`PortfolioSpace::FSMC_PAPER_SITUATIONS`]).
    pub fsmc_situations: Vec<(u32, u32)>,
    /// OCME centre nodes — a scheme-parameter axis: `None` keeps the centre
    /// on the cell's node (homogeneous), `Some(id)` designs it at a mature
    /// node (the Figure 9 "hetero" bar).
    pub ocme_center_nodes: Vec<Option<String>>,
    /// Whether the SCMS / OCME families share one package design across
    /// their member systems (§5.1's package-reuse trade-off; FSMC always
    /// shares the `k`-socket package by construction).
    pub package_reuse: bool,
}

impl Default for PortfolioSpace {
    /// The §6 replication grid crossed with all four schemes under the
    /// paper's chip-last flow — 6,480 cells (~4× the single-system grid).
    fn default() -> Self {
        PortfolioSpace {
            nodes: vec!["14nm".to_string(), "7nm".to_string(), "5nm".to_string()],
            areas_mm2: (1..=9).map(|i| i as f64 * 100.0).collect(),
            quantities: vec![500_000, 2_000_000, 10_000_000],
            integrations: IntegrationKind::ALL.to_vec(),
            chiplet_counts: vec![1, 2, 3, 4, 5],
            flows: vec![AssemblyFlow::ChipLast],
            schemes: ReuseScheme::ALL.to_vec(),
            scms_multiplicities: vec![1, 2, 4],
            fsmc_situations: vec![(4, 4)],
            ocme_center_nodes: vec![None],
            package_reuse: false,
        }
    }
}

/// One resolved point of the scheme axis: a scheme plus the family
/// parameters that distinguish it from its siblings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeVariant {
    /// The reuse scheme.
    pub scheme: ReuseScheme,
    /// FSMC `(sockets, chiplet types)`; `None` for other schemes.
    pub fsmc: Option<(u32, u32)>,
    /// OCME centre node; `None` for a homogeneous centre (and for other
    /// schemes).
    pub center_node: Option<String>,
}

impl SchemeVariant {
    /// Stable parameter label used in the CSV `scheme_params` column:
    /// `"k=4,n=6"` for FSMC situations, `"center=14nm"` for heterogeneous
    /// OCME, empty otherwise.
    pub fn params_label(&self) -> String {
        match (self.fsmc, &self.center_node) {
            (Some((k, n)), _) => format!("k={k},n={n}"),
            (None, Some(center)) => format!("center={center}"),
            _ => String::new(),
        }
    }
}

impl PortfolioSpace {
    /// The paper's five Figure 10 `(sockets k, chiplet types n)` situations.
    pub const FSMC_PAPER_SITUATIONS: [(u32, u32); 5] = [(2, 2), (2, 4), (3, 4), (4, 4), (4, 6)];

    /// The scheme axis after parameter expansion: `fsmc` contributes one
    /// variant per [`PortfolioSpace::fsmc_situations`] entry and `ocme` one
    /// per [`PortfolioSpace::ocme_center_nodes`] entry.
    pub fn scheme_variants(&self) -> Vec<SchemeVariant> {
        let mut out = Vec::new();
        for &scheme in &self.schemes {
            match scheme {
                ReuseScheme::Fsmc => {
                    for &(k, n) in &self.fsmc_situations {
                        out.push(SchemeVariant {
                            scheme,
                            fsmc: Some((k, n)),
                            center_node: None,
                        });
                    }
                }
                ReuseScheme::Ocme => {
                    for center in &self.ocme_center_nodes {
                        out.push(SchemeVariant {
                            scheme,
                            fsmc: None,
                            center_node: center.clone(),
                        });
                    }
                }
                ReuseScheme::None | ReuseScheme::Scms => out.push(SchemeVariant {
                    scheme,
                    fsmc: None,
                    center_node: None,
                }),
            }
        }
        out
    }

    /// The number of grid cells (product of the axis lengths, with the
    /// scheme axis expanded into its parameter variants).
    pub fn len(&self) -> usize {
        self.nodes.len()
            * self.areas_mm2.len()
            * self.quantities.len()
            * self.integrations.len()
            * self.chiplet_counts.len()
            * self.flows.len()
            * self.scheme_variants().len()
    }

    /// Whether the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validates every axis independently (an empty axis must error, not
    /// silently collapse the grid) plus the scheme family parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidArchitecture`] naming the offending
    /// axis, or [`ArchError::Unit`] for a non-finite area.
    pub fn validate(&self) -> Result<(), ArchError> {
        let axis_err = |axis: &str| ArchError::InvalidArchitecture {
            reason: format!("portfolio exploration space has no {axis}"),
        };
        if self.nodes.is_empty() {
            return Err(axis_err("nodes"));
        }
        if self.areas_mm2.is_empty() {
            return Err(axis_err("areas"));
        }
        if self.quantities.is_empty() {
            return Err(axis_err("quantities"));
        }
        if self.integrations.is_empty() {
            return Err(axis_err("integration kinds"));
        }
        if self.chiplet_counts.is_empty() {
            return Err(axis_err("chiplet counts"));
        }
        if self.flows.is_empty() {
            return Err(axis_err("assembly flows"));
        }
        if self.schemes.is_empty() {
            return Err(axis_err("reuse schemes"));
        }
        for &mm2 in &self.areas_mm2 {
            Area::from_mm2(mm2)?;
        }
        if self.chiplet_counts.contains(&0) {
            return Err(ArchError::InvalidArchitecture {
                reason: "chiplet count must be at least 1, got 0".to_string(),
            });
        }
        // NRE is amortized over the quantity: a 0-unit cell would price
        // the RE alone.
        if self.quantities.contains(&0) {
            return Err(ArchError::InvalidArchitecture {
                reason: "production quantity must be at least 1, got 0".to_string(),
            });
        }
        if self.schemes.contains(&ReuseScheme::Scms) {
            if self.scms_multiplicities.is_empty() {
                return Err(axis_err("SCMS multiplicities"));
            }
            if self.scms_multiplicities.contains(&0) {
                return Err(ArchError::InvalidArchitecture {
                    reason: "SCMS multiplicity must be at least 1, got 0".to_string(),
                });
            }
            let unique: std::collections::BTreeSet<u32> =
                self.scms_multiplicities.iter().copied().collect();
            if unique.len() != self.scms_multiplicities.len() {
                return Err(ArchError::InvalidArchitecture {
                    reason: format!(
                        "SCMS multiplicities must be distinct, got {:?}",
                        self.scms_multiplicities
                    ),
                });
            }
        }
        if self.schemes.contains(&ReuseScheme::Fsmc) {
            if self.fsmc_situations.is_empty() {
                return Err(axis_err("FSMC situations"));
            }
            if self.fsmc_situations.iter().any(|&(k, n)| k == 0 || n == 0) {
                return Err(ArchError::InvalidArchitecture {
                    reason: "FSMC needs at least one socket and one chiplet type".to_string(),
                });
            }
            let unique: std::collections::BTreeSet<(u32, u32)> =
                self.fsmc_situations.iter().copied().collect();
            if unique.len() != self.fsmc_situations.len() {
                return Err(ArchError::InvalidArchitecture {
                    reason: format!(
                        "FSMC situations must be distinct, got {:?}",
                        self.fsmc_situations
                    ),
                });
            }
        }
        if self.schemes.contains(&ReuseScheme::Ocme) {
            if self.ocme_center_nodes.is_empty() {
                return Err(axis_err("OCME centre nodes"));
            }
            let unique: std::collections::BTreeSet<&Option<String>> =
                self.ocme_center_nodes.iter().collect();
            if unique.len() != self.ocme_center_nodes.len() {
                return Err(ArchError::InvalidArchitecture {
                    reason: format!(
                        "OCME centre nodes must be distinct, got {:?}",
                        self.ocme_center_nodes
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Whether the engine may share one RE/NRE core evaluation across every
/// cell with the same geometry key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorePolicy {
    /// Share cores across cells that differ only in quantity or family
    /// member — the default, ~3× fewer full evaluations on the default
    /// grid with byte-identical output.
    Cached,
    /// Evaluate every cell from scratch. The reference path the cache is
    /// tested against; it exists so the byte-identity claim stays a
    /// mechanical assertion instead of an argument.
    Uncached,
}

/// A cross-call core cache: evaluated cores keyed by the caller-supplied
/// library tag plus *everything an evaluation reads* (scheme, node, area,
/// integration, chiplet key, flow, and the scheme parameters the scheme
/// actually consumes: FSMC situation, OCME centre, SCMS multiplicities,
/// package reuse). Two requests whose grids overlap share the expensive
/// RE/NRE evaluations even when their spaces differ on axes a core never
/// reads (quantities, extra nodes, other schemes).
///
/// The cache is an [`Lru`] bounded at `capacity` entries and safe to share
/// across threads; recoverable per-cell infeasibilities are cached (they
/// are results too), hard engine errors are not. Results are
/// byte-identical to the uncached path because amortization always reruns
/// per request — only the quantity-independent core is reused.
#[derive(Debug)]
pub struct SharedCoreCache {
    lru: Lru<CacheKey, SharedCore>,
}

/// A [`SharedCoreCache`] key: the library tag, then the owned core spec.
type CacheKey = ([u8; 32], CoreSpec<'static>);

/// An evaluated core (or its per-cell infeasibility), shared by every
/// cell that reads it and by the cross-call cache. A standalone system's
/// core is a one-member portfolio.
type SharedCore = Arc<Result<PortfolioCore, String>>;

impl SharedCoreCache {
    /// An empty cache holding at most `capacity` cores. A capacity of `0`
    /// disables storage: every lookup misses and nothing is retained.
    pub fn new(capacity: usize) -> Self {
        SharedCoreCache {
            lru: Lru::new(capacity),
        }
    }

    /// Lifetime hit/miss/eviction counters and current occupancy.
    pub fn stats(&self) -> CacheStats {
        self.lru.stats()
    }
}

/// One evaluated portfolio-grid cell: its coordinates plus the outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioCell {
    /// Process-node identifier.
    pub node: String,
    /// Total module area of the member system in mm².
    pub area_mm2: f64,
    /// Production quantity (per derivative system).
    pub quantity: u64,
    /// Integration scheme.
    pub integration: IntegrationKind,
    /// Chiplet count of the member system.
    pub chiplets: u32,
    /// Assembly flow.
    pub flow: AssemblyFlow,
    /// Reuse scheme.
    pub scheme: ReuseScheme,
    /// Scheme-parameter label of the cell's [`SchemeVariant`] (`"k=4,n=6"`
    /// for an FSMC situation, `"center=14nm"` for heterogeneous OCME, empty
    /// otherwise).
    pub scheme_params: String,
    /// What evaluation produced.
    pub outcome: CellOutcome,
}

/// The cheapest feasible configuration of one (node, area, quantity)
/// operating point *under one reuse scheme* — one row of the per-scheme
/// takeaway tables that replay Figs. 8–10 at grid scale.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeWinner {
    /// The scheme this row summarizes.
    pub scheme: ReuseScheme,
    /// Process-node identifier.
    pub node: String,
    /// Total module area in mm².
    pub area_mm2: f64,
    /// Production quantity.
    pub quantity: u64,
    /// The cheapest feasible candidate and its flow, or `None` when every
    /// configuration of this operating point was infeasible under the
    /// scheme.
    pub best: Option<(Candidate, AssemblyFlow)>,
    /// Relative saving of the winner vs the *monolithic implementation of
    /// the same system* (the scheme's SoC-baseline cell with the winner's
    /// chiplet count — for `none`, the one-die SoC): `0.25` = 25 % cheaper.
    /// `None` when that baseline is absent or infeasible.
    pub saving_vs_soc_frac: Option<f64>,
}

impl SchemeWinner {
    /// The saving rendered as a signed cost-change percentage
    /// (`"-13.6%"` = 13.6 % cheaper than the monolithic baseline).
    pub fn saving_vs_soc_display(&self) -> Option<String> {
        // `+ 0.0` folds the negative zero of a SoC winner to "+0.0%".
        self.saving_vs_soc_frac
            .map(|s| format!("{:+.1}%", -s * 100.0 + 0.0))
    }
}

impl fmt::Display for SchemeWinner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.best {
            Some((c, flow)) => {
                write!(
                    f,
                    "[{}] {} / {:.0} mm² / {} units: {} × {} chiplets ({flow}) at {} / unit",
                    self.scheme,
                    self.node,
                    self.area_mm2,
                    self.quantity,
                    c.integration,
                    c.chiplets,
                    c.per_unit
                )?;
                if let Some(saving) = self.saving_vs_soc_display() {
                    write!(f, " ({saving} vs SoC)")?;
                }
                Ok(())
            }
            None => write!(
                f,
                "[{}] {} / {:.0} mm² / {} units: no feasible configuration",
                self.scheme, self.node, self.area_mm2, self.quantity
            ),
        }
    }
}

/// The dense-grid geometry of a [`PortfolioSpace`]: axis lengths plus the
/// index arithmetic that maps between a flat cell index and its
/// per-axis coordinates. Shared by the engine, the sparse readers and the
/// refinement driver so there is exactly one definition of grid order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GridShape {
    pub(crate) nodes: usize,
    pub(crate) areas: usize,
    pub(crate) quantities: usize,
    pub(crate) integrations: usize,
    pub(crate) chiplets: usize,
    pub(crate) flows: usize,
    pub(crate) variants: usize,
}

/// Per-axis coordinates of one grid cell (indices into the space's axes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CellIdx {
    pub(crate) node: usize,
    pub(crate) area: usize,
    pub(crate) quantity: usize,
    pub(crate) integration: usize,
    pub(crate) chiplets: usize,
    pub(crate) flow: usize,
    pub(crate) variant: usize,
}

impl GridShape {
    pub(crate) fn of(space: &PortfolioSpace, variants: usize) -> Self {
        GridShape {
            nodes: space.nodes.len(),
            areas: space.areas_mm2.len(),
            quantities: space.quantities.len(),
            integrations: space.integrations.len(),
            chiplets: space.chiplet_counts.len(),
            flows: space.flows.len(),
            variants,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.nodes
            * self.areas
            * self.quantities
            * self.integrations
            * self.chiplets
            * self.flows
            * self.variants
    }

    /// Cells per (node, area, quantity) operating point: the
    /// configuration block the winner tables chunk by.
    pub(crate) fn block(&self) -> usize {
        self.integrations * self.chiplets * self.flows * self.variants
    }

    pub(crate) fn coords(&self, index: usize) -> CellIdx {
        let variant = index % self.variants;
        let rest = index / self.variants;
        let flow = rest % self.flows;
        let rest = rest / self.flows;
        let chiplets = rest % self.chiplets;
        let rest = rest / self.chiplets;
        let integration = rest % self.integrations;
        let rest = rest / self.integrations;
        let quantity = rest % self.quantities;
        let rest = rest / self.quantities;
        CellIdx {
            node: rest / self.areas,
            area: rest % self.areas,
            quantity,
            integration,
            chiplets,
            flow,
            variant,
        }
    }
}

/// Classifies one configuration's axis compatibility — the single source
/// of truth shared by the evaluation engine (to skip dead cells), the
/// sparse readers (to re-derive [`CellOutcome::Incompatible`] without
/// storing it) and the refinement driver. Returns `None` for a
/// configuration the scheme can actually build.
pub(crate) fn classify(
    space: &PortfolioSpace,
    variant: &SchemeVariant,
    integration: IntegrationKind,
    chiplets: u32,
) -> Option<IncompatibleReason> {
    match variant.scheme {
        ReuseScheme::None => IncompatibleReason::single_system(integration, chiplets),
        ReuseScheme::Scms => {
            if !space.scms_multiplicities.contains(&chiplets) {
                return Some(IncompatibleReason::ScmsNonMember {
                    family: ScmsFamily::new(&space.scms_multiplicities),
                    chiplets,
                });
            }
            None
        }
        ReuseScheme::Ocme => {
            if OcmeSpec::member(chiplets).is_none() {
                return Some(IncompatibleReason::OcmeNonMember { chiplets });
            }
            None
        }
        ReuseScheme::Fsmc => {
            let (sockets, _) = variant.fsmc.expect("FSMC variants carry a situation");
            if chiplets > sockets {
                return Some(IncompatibleReason::FsmcOverflow { sockets, chiplets });
            }
            None
        }
    }
}

/// The outcome of [`explore_portfolio`]: the sparse store of evaluated
/// cells plus the post-processed per-scheme views, all reading as the
/// dense grid in deterministic order.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioResult {
    pub(crate) space: PortfolioSpace,
    variants: Vec<SchemeVariant>,
    params_labels: Vec<String>,
    len: usize,
    /// Evaluated cells only (feasible and infeasible), sorted by flat grid
    /// index. Incompatible and pruned cells are re-derived on read.
    stored: Vec<(usize, CellOutcome)>,
    pub(crate) threads: usize,
    pub(crate) core_evaluations: usize,
}

impl PortfolioResult {
    /// Assembles a result from the sparse list of evaluated cells, which
    /// every producer writes in strictly ascending grid order.
    pub(crate) fn from_parts(
        space: &PortfolioSpace,
        threads: usize,
        core_evaluations: usize,
        stored: Vec<(usize, CellOutcome)>,
    ) -> Self {
        let len = space.len();
        debug_assert!(
            stored.windows(2).all(|pair| pair[0].0 < pair[1].0),
            "the sparse store must be in strictly ascending grid order"
        );
        debug_assert!(stored.last().is_none_or(|entry| entry.0 < len));
        let variants = space.scheme_variants();
        let params_labels = variants.iter().map(SchemeVariant::params_label).collect();
        PortfolioResult {
            space: space.clone(),
            variants,
            params_labels,
            len,
            stored,
            threads,
            core_evaluations,
        }
    }

    /// The space that was explored.
    pub fn space(&self) -> &PortfolioSpace {
        &self.space
    }

    pub(crate) fn shape(&self) -> GridShape {
        GridShape::of(&self.space, self.variants.len())
    }

    /// Consumes the result into its sparse store, so refinement can move
    /// a wave's cells into its own points instead of cloning them.
    pub(crate) fn into_stored(self) -> Vec<(usize, CellOutcome)> {
        self.stored
    }

    /// Materializes the cell at `idx` with the given outcome.
    fn cell_at(&self, idx: CellIdx, outcome: CellOutcome) -> PortfolioCell {
        PortfolioCell {
            node: self.space.nodes[idx.node].clone(),
            area_mm2: self.space.areas_mm2[idx.area],
            quantity: self.space.quantities[idx.quantity],
            integration: self.space.integrations[idx.integration],
            chiplets: self.space.chiplet_counts[idx.chiplets],
            flow: self.space.flows[idx.flow],
            scheme: self.variants[idx.variant].scheme,
            scheme_params: self.params_labels[idx.variant].clone(),
            outcome,
        }
    }

    /// The outcome of a cell absent from the sparse store: incompatible
    /// (re-derived from its coordinates) or pruned.
    fn unstored_outcome(&self, idx: CellIdx) -> CellOutcome {
        match classify(
            &self.space,
            &self.variants[idx.variant],
            self.space.integrations[idx.integration],
            self.space.chiplet_counts[idx.chiplets],
        ) {
            Some(reason) => CellOutcome::Incompatible(reason),
            None => CellOutcome::Pruned,
        }
    }

    /// Every cell materialized in deterministic grid order (node → area →
    /// quantity → integration → chiplet count → flow → scheme). On huge
    /// grids prefer [`PortfolioResult::iter_cells`] or the artifacts,
    /// which stream out of the sparse store.
    pub fn cells(&self) -> Vec<PortfolioCell> {
        self.iter_cells().collect()
    }

    /// Streams every cell in grid order without materializing the grid.
    pub fn iter_cells(&self) -> impl Iterator<Item = PortfolioCell> + '_ {
        let shape = self.shape();
        let mut cursor = 0usize;
        (0..self.len).map(move |i| {
            while cursor < self.stored.len() && self.stored[cursor].0 < i {
                cursor += 1;
            }
            let outcome = match self.stored.get(cursor) {
                Some((stored_i, outcome)) if *stored_i == i => outcome.clone(),
                _ => self.unstored_outcome(shape.coords(i)),
            };
            self.cell_at(shape.coords(i), outcome)
        })
    }

    /// The number of grid cells.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the grid has no cells (never true for a validated space).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The number of worker threads the evaluation ran on.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How many full RE/NRE core evaluations the run performed — the
    /// denominator of the caching claim: under [`CorePolicy::Cached`] this
    /// is the number of *distinct* geometry keys, under
    /// [`CorePolicy::Uncached`] the number of evaluable cells.
    pub fn core_evaluations(&self) -> usize {
        self.core_evaluations
    }

    /// The cells that were costed successfully, in grid order.
    pub fn feasible(&self) -> impl Iterator<Item = PortfolioCell> + '_ {
        let shape = self.shape();
        self.stored
            .iter()
            .filter(|(_, outcome)| outcome.is_feasible())
            .map(move |(i, outcome)| self.cell_at(shape.coords(*i), outcome.clone()))
    }

    /// How many cells were costed successfully.
    pub fn feasible_count(&self) -> usize {
        self.stored
            .iter()
            .filter(|(_, outcome)| outcome.is_feasible())
            .count()
    }

    /// How many cells were recorded infeasible (their own geometry, or a
    /// sibling of their reuse family, cannot be manufactured).
    pub fn infeasible_count(&self) -> usize {
        self.stored
            .iter()
            .filter(|(_, outcome)| matches!(outcome, CellOutcome::Infeasible(_)))
            .count()
    }

    /// How many cells combined contradictory axes (SoC × several chiplets,
    /// a chiplet count outside the scheme's family). Computed
    /// combinatorially from the axes — incompatible cells are never
    /// stored.
    pub fn incompatible_count(&self) -> usize {
        let mut dead = 0usize;
        for &integration in &self.space.integrations {
            for &chiplets in &self.space.chiplet_counts {
                for variant in &self.variants {
                    if classify(&self.space, variant, integration, chiplets).is_some() {
                        dead += 1;
                    }
                }
            }
        }
        dead * self.space.nodes.len()
            * self.space.areas_mm2.len()
            * self.space.quantities.len()
            * self.space.flows.len()
    }

    /// How many compatible cells a [`crate::refine`] run skipped (always
    /// 0 for exhaustive runs).
    pub fn pruned_count(&self) -> usize {
        self.len - self.stored.len() - self.incompatible_count()
    }

    /// How many cells the run actually priced — the sparse store's size:
    /// feasible and infeasible evaluations, excluding the pruned and
    /// incompatible cells derived on read. The refinement benches compare
    /// engines on this number (cores are deduplicated separately; see
    /// [`PortfolioResult::core_evaluations`]).
    pub fn evaluated_cells(&self) -> usize {
        self.stored.len()
    }

    /// The per-(node, area, quantity) winner table of one scheme; every
    /// operating point is reported, feasible or not.
    pub fn winners(&self, scheme: ReuseScheme) -> Vec<SchemeWinner> {
        let shape = self.shape();
        self.winners_by_index(scheme)
            .into_iter()
            .map(|w| {
                let at = shape.coords(w.at);
                SchemeWinner {
                    scheme,
                    node: self.space.nodes[at.node].clone(),
                    area_mm2: self.space.areas_mm2[at.area],
                    quantity: self.space.quantities[at.quantity],
                    best: w
                        .best
                        .map(|(i, c)| (c.clone(), self.space.flows[shape.coords(i).flow])),
                    saving_vs_soc_frac: w.saving_vs_soc_frac,
                }
            })
            .collect()
    }

    /// [`PortfolioResult::winners`] by flat grid index, borrowing the
    /// winning candidates from the store.
    fn winners_by_index(&self, scheme: ReuseScheme) -> Vec<WinnerAt<'_>> {
        let shape = self.shape();
        let block = shape.block();
        // Per block offset: whether the configuration is of this scheme.
        let in_scheme: Vec<bool> = (0..block)
            .map(|off| self.variants[shape.coords(off).variant].scheme == scheme)
            .collect();
        let ops = shape.nodes * shape.areas * shape.quantities;
        let mut out = Vec::with_capacity(ops);
        let mut rest = self.stored.as_slice();
        for op in 0..ops {
            let start = op * block;
            let (entries, tail) = rest.split_at(rest.partition_point(|(i, _)| *i < start + block));
            rest = tail;
            // The operating point's cells of this scheme, by block offset
            // (which decodes like the first operating point's flat index).
            let cells = entries
                .iter()
                .map(|(i, outcome)| (i - start, outcome))
                .filter(|(off, _)| in_scheme[*off]);
            // First strict minimum in grid order, matching `min_by`'s
            // first-among-equals tie rule on the dense path.
            let mut best: Option<(usize, &Candidate)> = None;
            for (off, outcome) in cells.clone() {
                if let CellOutcome::Feasible(c) = outcome {
                    if best.is_none_or(|(_, b)| c.per_unit < b.per_unit) {
                        best = Some((off, c));
                    }
                }
            }
            let saving_vs_soc_frac = best.and_then(|(off, bc)| {
                let b = shape.coords(off);
                let baseline_chiplets = match scheme {
                    ReuseScheme::None => 1,
                    _ => self.space.chiplet_counts[b.chiplets],
                };
                let soc = cells
                    .clone()
                    .find(|(off, _)| {
                        let idx = shape.coords(*off);
                        self.space.integrations[idx.integration] == IntegrationKind::Soc
                            && self.space.chiplet_counts[idx.chiplets] == baseline_chiplets
                            && self.space.flows[idx.flow] == self.space.flows[b.flow]
                            && self.params_labels[idx.variant] == self.params_labels[b.variant]
                    })
                    .and_then(|(_, outcome)| outcome.candidate());
                match soc {
                    Some(s) if s.per_unit.usd() > 0.0 => {
                        Some((s.per_unit.usd() - bc.per_unit.usd()) / s.per_unit.usd())
                    }
                    _ => None,
                }
            });
            out.push(WinnerAt {
                at: start,
                best: best.map(|(off, c)| (start + off, c)),
                saving_vs_soc_frac,
            });
        }
        out
    }

    /// The winner tables of every scheme in the space, concatenated in
    /// scheme order.
    pub fn all_winners(&self) -> Vec<SchemeWinner> {
        self.space
            .schemes
            .iter()
            .flat_map(|&s| self.winners(s))
            .collect()
    }

    /// The Pareto front of one scheme over (per-unit cost, chiplet count),
    /// minimizing both; ascending per-unit-cost order.
    ///
    /// Computed from one representative per chiplet-axis index: the first
    /// feasible cell, in grid order, with the strictly smallest per-unit
    /// cost. Every other cell of that index has the same chiplet count and
    /// is no cheaper, so it is weakly dominated by the representative and
    /// sorts after it; the front over the representatives is the front
    /// over every feasible cell, cell for cell.
    pub fn pareto_front(&self, scheme: ReuseScheme) -> Vec<PortfolioCell> {
        self.front_cells(self.chiplet_front(scheme))
    }

    /// [`PortfolioResult::pareto_front`] by flat grid index.
    fn chiplet_front(&self, scheme: ReuseScheme) -> Vec<(usize, &Candidate)> {
        let shape = self.shape();
        let stride = shape.variants * shape.flows;
        self.front_of_group_minima(
            scheme,
            shape.chiplets,
            |i| i / stride % shape.chiplets,
            |idx, per_unit| (per_unit, f64::from(self.space.chiplet_counts[idx.chiplets])),
        )
    }

    /// The Pareto front of one scheme over (program total, per-unit
    /// cost), minimizing both: program total is the member system's whole
    /// spend at its quantity (RE plus its amortized NRE share, i.e.
    /// per-unit × units), the ROADMAP's decision-relevant portfolio
    /// trade-off — how much cheaper a unit each extra program dollar
    /// buys. Returned in ascending program-total order.
    ///
    /// Computed from one representative per quantity-axis index: the
    /// first feasible cell, in grid order, with the strictly smallest
    /// per-unit cost. Every other cell of that index has the same quantity
    /// and no lower per-unit cost, hence (`x ↦ x·q` being monotone in
    /// IEEE arithmetic) no lower program total; it is weakly dominated by
    /// the representative and sorts after it, so the front is unchanged.
    pub fn pareto_program(&self, scheme: ReuseScheme) -> Vec<PortfolioCell> {
        self.front_cells(self.program_front(scheme))
    }

    /// [`PortfolioResult::pareto_program`] by flat grid index.
    fn program_front(&self, scheme: ReuseScheme) -> Vec<(usize, &Candidate)> {
        let shape = self.shape();
        let block = shape.block();
        self.front_of_group_minima(
            scheme,
            shape.quantities,
            |i| i / block % shape.quantities,
            |idx, per_unit| {
                (
                    per_unit * self.space.quantities[idx.quantity] as f64,
                    per_unit,
                )
            },
        )
    }

    /// Materializes front members given by flat grid index.
    fn front_cells(&self, cells: Vec<(usize, &Candidate)>) -> Vec<PortfolioCell> {
        let shape = self.shape();
        cells
            .into_iter()
            .map(|(i, c)| self.cell_at(shape.coords(i), CellOutcome::Feasible(c.clone())))
            .collect()
    }

    /// One pass over the sparse store keeps, for each of `groups` axis
    /// indices (`group_of` maps a flat index to one), the first feasible
    /// cell of `scheme` in grid order with the strictly smallest per-unit
    /// cost. [`pareto_min_indices`] then runs on those representatives in
    /// grid order, with `objectives` mapping a representative's
    /// coordinates and per-unit cost to its two minimized objectives. The
    /// front comes back as (flat index, candidate) pairs.
    fn front_of_group_minima(
        &self,
        scheme: ReuseScheme,
        groups: usize,
        group_of: impl Fn(usize) -> usize,
        objectives: impl Fn(CellIdx, f64) -> (f64, f64),
    ) -> Vec<(usize, &Candidate)> {
        let mut span = actuary_obs::span!("dse.fronts");
        let shape = self.shape();
        let in_scheme: Vec<bool> = self.variants.iter().map(|v| v.scheme == scheme).collect();
        let mut minima: Vec<Option<(usize, &Candidate)>> = vec![None; groups];
        for (i, outcome) in &self.stored {
            let CellOutcome::Feasible(c) = outcome else {
                continue;
            };
            if !in_scheme[i % shape.variants] {
                continue;
            }
            let min = &mut minima[group_of(*i)];
            if min.is_none_or(|(_, m)| c.per_unit < m.per_unit) {
                *min = Some((*i, c));
            }
        }
        let mut candidates: Vec<(usize, &Candidate)> = minima.into_iter().flatten().collect();
        candidates.sort_unstable_by_key(|&(i, _)| i);
        let points: Vec<(f64, f64)> = candidates
            .iter()
            .map(|&(i, c)| objectives(shape.coords(i), c.per_unit.usd()))
            .collect();
        let front: Vec<(usize, &Candidate)> = pareto_min_indices(&points)
            .into_iter()
            .map(|k| candidates[k])
            .collect();
        span.record("cells", self.stored.len() as u64);
        span.record("candidates", candidates.len() as u64);
        span.record("front", front.len() as u64);
        front
    }

    /// The column set every grid-shaped artifact shares.
    const GRID_COLUMNS: [&'static str; 12] = [
        "node",
        "area_mm2",
        "quantity",
        "integration",
        "chiplets",
        "flow",
        "scheme",
        "scheme_params",
        "status",
        "per_unit_usd",
        "re_per_unit_usd",
        "detail",
    ];

    /// The full grid as a streaming [`Artifact`] named `"grid"`: one row
    /// per cell in grid order, never materialized as one string;
    /// byte-identical across thread counts.
    pub fn grid_artifact(&self) -> Artifact<'_> {
        self.grid_part_artifact(GridPart::All)
    }

    /// The grid rows of every cell in the sparse store, in grid order, with
    /// the same name, columns and row encoding as
    /// [`PortfolioResult::grid_artifact`] — the segment emitter behind
    /// streamed refinement: each wave's own result renders the cells that
    /// wave priced.
    pub fn grid_stored_artifact(&self) -> Artifact<'_> {
        self.grid_part_artifact(GridPart::Stored)
    }

    /// The grid rows of every cell *absent* from the sparse store — the
    /// pruned and incompatible remainder, in grid order. A streamed
    /// refinement emits this after the per-wave
    /// [`PortfolioResult::grid_stored_artifact`] segments: the segments
    /// plus this artifact's rows cover every grid row exactly once.
    pub fn grid_unstored_artifact(&self) -> Artifact<'_> {
        self.grid_part_artifact(GridPart::Unstored)
    }

    /// The rows of `part` of the grid, through the one grid-row writer
    /// ([`GridRows`]), so the batch grid and the streamed segments can
    /// never drift apart.
    fn grid_part_artifact(&self, part: GridPart) -> Artifact<'_> {
        Artifact::new("grid", "grid", &Self::GRID_COLUMNS, move |emit| {
            let shape = self.shape();
            let mut rows = GridRows::new(self);
            if part == GridPart::Stored {
                for (i, outcome) in &self.stored {
                    rows.emit(emit, shape.coords(*i), Some(outcome))?;
                }
                return Ok(());
            }
            let mut stored = self.stored.iter().peekable();
            for i in 0..self.len {
                let at = shape.coords(i);
                match stored.next_if(|(s, _)| *s == i) {
                    Some((_, outcome)) if part == GridPart::All => {
                        rows.emit(emit, at, Some(outcome))?;
                    }
                    Some(_) => {}
                    None => rows.emit(emit, at, None)?,
                }
            }
            Ok(())
        })
    }

    /// Every scheme's winner table as one [`Artifact`] named `"winners"`,
    /// concatenated in scheme order.
    pub fn winners_artifact(&self) -> Artifact<'_> {
        Artifact::new(
            "winners",
            "winners",
            &[
                "scheme",
                "node",
                "area_mm2",
                "quantity",
                "integration",
                "chiplets",
                "flow",
                "per_unit_usd",
                "saving_vs_soc",
            ],
            move |emit| {
                let shape = self.shape();
                let labels = AxisLabels::of(self);
                let mut numbers = String::new();
                for &scheme in &self.space.schemes {
                    for w in self.winners_by_index(scheme) {
                        let at = shape.coords(w.at);
                        numbers.clear();
                        let (integration, chiplets, flow) = match w.best {
                            Some((i, c)) => {
                                write_fixed(&mut numbers, c.per_unit.usd(), 6)?;
                                let b = shape.coords(i);
                                (
                                    labels.integrations[b.integration].as_str(),
                                    labels.chiplets[b.chiplets].as_str(),
                                    labels.flows[b.flow].as_str(),
                                )
                            }
                            None => ("", "", ""),
                        };
                        let split = numbers.len();
                        if let Some(s) = w.saving_vs_soc_frac {
                            write_fixed(&mut numbers, s, 6)?;
                        }
                        let (per_unit, saving) = numbers.split_at(split);
                        emit(&[
                            scheme.label(),
                            &labels.nodes[at.node],
                            &labels.areas[at.area],
                            &labels.quantities[at.quantity],
                            integration,
                            chiplets,
                            flow,
                            per_unit,
                            saving,
                        ])?;
                    }
                }
                Ok(())
            },
        )
    }

    /// Every scheme's (per-unit cost, chiplet count) Pareto front as one
    /// [`Artifact`] named `"pareto"`, concatenated in scheme order.
    pub fn pareto_artifact(&self) -> Artifact<'_> {
        self.fronts_artifact(false)
    }

    /// Every scheme's [`PortfolioResult::pareto_program`] front as one
    /// [`Artifact`] named `"pareto_program"`, concatenated in scheme
    /// order.
    pub fn pareto_program_artifact(&self) -> Artifact<'_> {
        self.fronts_artifact(true)
    }

    /// The Pareto fronts of every scheme, in scheme order: each member's
    /// coordinates and per-unit cost, plus its program total when
    /// `program` selects the (program total, per-unit cost) fronts.
    fn fronts_artifact(&self, program: bool) -> Artifact<'_> {
        const COLUMNS: [&str; 10] = [
            "scheme",
            "scheme_params",
            "node",
            "area_mm2",
            "quantity",
            "integration",
            "chiplets",
            "flow",
            "program_total_usd",
            "per_unit_usd",
        ];
        let (name, columns) = if program {
            ("pareto_program", COLUMNS.to_vec())
        } else {
            ("pareto", [&COLUMNS[..8], &COLUMNS[9..]].concat())
        };
        Artifact::new(name, name, &columns, move |emit| {
            let shape = self.shape();
            let labels = AxisLabels::of(self);
            let mut numbers = String::new();
            for &scheme in &self.space.schemes {
                let front = if program {
                    self.program_front(scheme)
                } else {
                    self.chiplet_front(scheme)
                };
                for (i, c) in front {
                    let at = shape.coords(i);
                    let mut row = [""; 10];
                    row[..8].copy_from_slice(&labels.coordinates(at));
                    numbers.clear();
                    if program {
                        let units = self.space.quantities[at.quantity] as f64;
                        write_fixed(&mut numbers, c.per_unit.usd() * units, 2)?;
                    }
                    let split = numbers.len();
                    write_fixed(&mut numbers, c.per_unit.usd(), 6)?;
                    let (total, per_unit) = numbers.split_at(split);
                    let last = if program {
                        row[8] = total;
                        9
                    } else {
                        8
                    };
                    row[last] = per_unit;
                    emit(&row[..=last])?;
                }
            }
            Ok(())
        })
    }
}

/// One operating point's winner under one scheme, by flat grid index.
struct WinnerAt<'r> {
    /// The operating point's first cell.
    at: usize,
    /// The cheapest feasible cell and its candidate.
    best: Option<(usize, &'r Candidate)>,
    /// See [`SchemeWinner::saving_vs_soc_frac`].
    saving_vs_soc_frac: Option<f64>,
}

/// Which cells a grid artifact renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GridPart {
    /// Every cell.
    All,
    /// The cells in the sparse store (feasible and infeasible).
    Stored,
    /// The cells absent from it (incompatible and pruned).
    Unstored,
}

/// Every axis value's label, rendered once per artifact and indexed by a
/// cell's coordinates.
struct AxisLabels<'r> {
    nodes: &'r [String],
    areas: Vec<String>,
    quantities: Vec<String>,
    integrations: Vec<String>,
    chiplets: Vec<String>,
    flows: Vec<String>,
    /// Per scheme variant.
    schemes: Vec<&'static str>,
    /// Per scheme variant.
    params: &'r [String],
}

impl<'r> AxisLabels<'r> {
    fn of(result: &'r PortfolioResult) -> Self {
        let space = &result.space;
        AxisLabels {
            nodes: &space.nodes,
            areas: space.areas_mm2.iter().map(f64::to_string).collect(),
            quantities: space.quantities.iter().map(u64::to_string).collect(),
            integrations: space.integrations.iter().map(|i| i.to_string()).collect(),
            chiplets: space.chiplet_counts.iter().map(u32::to_string).collect(),
            flows: space.flows.iter().map(|f| f.to_string()).collect(),
            schemes: result.variants.iter().map(|v| v.scheme.label()).collect(),
            params: &result.params_labels,
        }
    }

    /// A cell's scheme, scheme parameters, node, area, quantity,
    /// integration, chiplet count and flow, in the Pareto artifacts'
    /// column order.
    fn coordinates(&self, at: CellIdx) -> [&str; 8] {
        [
            self.schemes[at.variant],
            &self.params[at.variant],
            &self.nodes[at.node],
            &self.areas[at.area],
            &self.quantities[at.quantity],
            &self.integrations[at.integration],
            &self.chiplets[at.chiplets],
            &self.flows[at.flow],
        ]
    }
}

/// The one grid-row writer: axis labels, each configuration's
/// incompatibility reason and the pruned sentence are rendered once per
/// artifact, stored outcomes are read in place, and every row's two costs
/// share one buffer.
struct GridRows<'r> {
    shape: GridShape,
    labels: AxisLabels<'r>,
    /// Per (integration, chiplet count, variant) configuration, in grid
    /// order: why its cells are incompatible, or `None` when the scheme
    /// builds it (an unstored cell of it was pruned).
    incompatible: Vec<Option<String>>,
    costs: String,
}

impl<'r> GridRows<'r> {
    fn new(result: &'r PortfolioResult) -> Self {
        let space = &result.space;
        let mut incompatible = Vec::new();
        for &integration in &space.integrations {
            for &chiplets in &space.chiplet_counts {
                for variant in &result.variants {
                    let reason = classify(space, variant, integration, chiplets);
                    incompatible.push(reason.map(|r| r.to_string()));
                }
            }
        }
        GridRows {
            shape: result.shape(),
            labels: AxisLabels::of(result),
            incompatible,
            costs: String::new(),
        }
    }

    /// Emits the row of the cell at `at`; `stored` is its entry in the
    /// sparse store, `None` for a cell absent from it.
    fn emit(
        &mut self,
        emit: &mut RowEmit<'_>,
        at: CellIdx,
        stored: Option<&'r CellOutcome>,
    ) -> fmt::Result {
        let config =
            (at.integration * self.shape.chiplets + at.chiplets) * self.shape.variants + at.variant;
        self.costs.clear();
        let mut split = 0;
        let (status, detail) = match (stored, &self.incompatible[config]) {
            (Some(CellOutcome::Feasible(c)), _) => {
                write_fixed(&mut self.costs, c.per_unit.usd(), 6)?;
                split = self.costs.len();
                write_fixed(&mut self.costs, c.re_per_unit.usd(), 6)?;
                ("feasible", "")
            }
            (Some(CellOutcome::Infeasible(reason)), _) => ("infeasible", reason.as_str()),
            (Some(CellOutcome::Incompatible(_)) | None, Some(reason)) => {
                ("incompatible", reason.as_str())
            }
            _ => ("pruned", PRUNED_DETAIL),
        };
        let (per_unit, re_per_unit) = self.costs.split_at(split);
        let l = &self.labels;
        emit(&[
            &l.nodes[at.node],
            &l.areas[at.area],
            &l.quantities[at.quantity],
            &l.integrations[at.integration],
            &l.chiplets[at.chiplets],
            &l.flows[at.flow],
            l.schemes[at.variant],
            &l.params[at.variant],
            status,
            per_unit,
            re_per_unit,
            detail,
        ])
    }
}

impl fmt::Display for PortfolioResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cells ({} feasible, {} infeasible, {} incompatible",
            self.len(),
            self.feasible_count(),
            self.infeasible_count(),
            self.incompatible_count(),
        )?;
        let pruned = self.pruned_count();
        if pruned > 0 {
            write!(f, ", {pruned} pruned")?;
        }
        write!(
            f,
            ") across {} scheme(s) on {} thread(s), {} core evaluation(s)",
            self.space.schemes.len(),
            self.threads,
            self.core_evaluations
        )
    }
}

/// Everything one core evaluation reads, and nothing else: the dedup key
/// of a run and, owned and paired with the library tag, the key of the
/// [`SharedCoreCache`]. `area_bits` carries the exact f64 bits of the
/// per-system (scheme `none`) or per-socket (reuse families) module area,
/// so cells share a core only on *identical* geometry; `chiplets` is the
/// system's chiplet count for `none` and 0 for the families, whose cores
/// cover every member count at once. Parameters a scheme never reads are
/// normalized away (the FSMC situation matters only to FSMC, the centre
/// node only to OCME, multiplicities only to SCMS, package reuse only to
/// SCMS and OCME), so overlapping spaces share cores as often as
/// correctness allows, and never more. The field order is the cache's
/// key order, which its eviction breaks ties by.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct CoreSpec<'a> {
    scheme: ReuseScheme,
    node: Cow<'a, str>,
    area_bits: u64,
    integration: IntegrationKind,
    chiplets: u32,
    flow: AssemblyFlow,
    fsmc: Option<(u32, u32)>,
    center_node: Option<Cow<'a, str>>,
    scms_multiplicities: Cow<'a, [u32]>,
    package_reuse: bool,
}

impl<'a> CoreSpec<'a> {
    /// The core a compatible configuration reads. A standalone system's
    /// core is designed at its total area; a family's at the per-socket
    /// area `area / chiplets`.
    fn of(
        space: &'a PortfolioSpace,
        variant: &'a SchemeVariant,
        node: &'a str,
        area_mm2: f64,
        integration: IntegrationKind,
        chiplets: u32,
        flow: AssemblyFlow,
    ) -> Result<Self, ArchError> {
        let (core_area_mm2, chiplets) = match variant.scheme {
            ReuseScheme::None => (area_mm2, chiplets),
            ReuseScheme::Scms | ReuseScheme::Ocme | ReuseScheme::Fsmc => {
                (area_mm2 / f64::from(chiplets), 0)
            }
        };
        let (scms_multiplicities, package_reuse): (&[u32], bool) = match variant.scheme {
            ReuseScheme::Scms => (&space.scms_multiplicities, space.package_reuse),
            ReuseScheme::Ocme => (&[], space.package_reuse),
            ReuseScheme::None | ReuseScheme::Fsmc => (&[], false),
        };
        Ok(CoreSpec {
            scheme: variant.scheme,
            node: Cow::Borrowed(node),
            area_bits: Area::from_mm2(core_area_mm2)?.mm2().to_bits(),
            integration,
            chiplets,
            flow,
            // A variant carries its FSMC situation and OCME centre only
            // under the scheme that reads them.
            fsmc: variant.fsmc,
            center_node: variant.center_node.as_deref().map(Cow::Borrowed),
            scms_multiplicities: Cow::Borrowed(scms_multiplicities),
            package_reuse,
        })
    }

    /// The same spec owning its data, as the cross-call cache keeps it.
    fn into_owned(self) -> CoreSpec<'static> {
        CoreSpec {
            scheme: self.scheme,
            node: Cow::Owned(self.node.into_owned()),
            area_bits: self.area_bits,
            integration: self.integration,
            chiplets: self.chiplets,
            flow: self.flow,
            fsmc: self.fsmc,
            center_node: self.center_node.map(|c| Cow::Owned(c.into_owned())),
            scms_multiplicities: Cow::Owned(self.scms_multiplicities.into_owned()),
            package_reuse: self.package_reuse,
        }
    }
}

/// One priced (node, area) point. Its cells are every quantity crossed
/// with its configurations, and they occupy one contiguous stretch of
/// the grid; each quantity's block of them is one amortization work item.
struct PointPlan {
    /// Flat index of the point's first cell (first quantity, block
    /// offset 0).
    base: usize,
    /// `(block offset, core index, family member index)` of every
    /// configuration the point prices, in ascending offset order. Under
    /// [`CorePolicy::Uncached`] the core index is the configuration's
    /// first-quantity core, and its other quantities' cores follow it.
    configs: Vec<(usize, usize, usize)>,
}

/// The family member a compatible configuration reads out of its
/// [`PortfolioCore`], at the same index in the family's chiplet portfolio
/// and in its SoC baseline: the position of its chiplet count in the SCMS
/// multiplicities, the OCME member that carries that many chips, or the
/// FSMC `sA` collocation (every size-`s` collocation of identical-footprint
/// types costs the same). A standalone system's one-member core is read
/// at member 0.
fn member_index(space: &PortfolioSpace, variant: &SchemeVariant, chiplets: u32) -> usize {
    match variant.scheme {
        ReuseScheme::None => 0,
        ReuseScheme::Scms => (space.scms_multiplicities.iter())
            .position(|&m| m == chiplets)
            .expect("classified SCMS cells are members"),
        ReuseScheme::Ocme => OcmeSpec::member(chiplets).expect("classified OCME cells are members"),
        ReuseScheme::Fsmc => {
            let (_, types) = variant.fsmc.expect("FSMC variants carry a situation");
            FsmcSpec::member(types, chiplets)
        }
    }
}

/// Evaluates every cell of `space` on `threads` worker threads (`0` = the
/// machine's available parallelism) with core caching enabled.
///
/// # Errors
///
/// See [`explore_portfolio_with`].
pub fn explore_portfolio(
    lib: &TechLibrary,
    space: &PortfolioSpace,
    threads: usize,
) -> Result<PortfolioResult, ArchError> {
    explore_portfolio_with(lib, space, threads, CorePolicy::Cached)
}

/// Evaluates every cell of `space` under an explicit [`CorePolicy`].
///
/// # Errors
///
/// Returns [`ArchError::InvalidArchitecture`] for an invalid space,
/// [`ArchError::Tech`] for an unknown node id, and propagates unexpected
/// engine errors. Per-cell geometric infeasibility and axis contradictions
/// are recorded in the cells, not raised.
pub fn explore_portfolio_with(
    lib: &TechLibrary,
    space: &PortfolioSpace,
    threads: usize,
    policy: CorePolicy,
) -> Result<PortfolioResult, ArchError> {
    explore_portfolio_impl(lib, space, threads, policy, None, None)
}

/// Evaluates every cell of `space` with cores additionally reused *across
/// calls* through `cache`. `tag` names the technology library the caller
/// evaluated under (any collision-resistant fingerprint — the scenario
/// layer uses its canonical library digest); cores computed under one tag
/// are invisible to every other, so a cache can safely serve requests that
/// carry different library overrides.
///
/// Output is byte-identical to [`explore_portfolio`] on the same inputs;
/// only [`PortfolioResult::core_evaluations`] drops, to the number of
/// cores the cache could not supply.
///
/// # Errors
///
/// See [`explore_portfolio_with`]. Hard errors are never cached.
pub fn explore_portfolio_shared(
    lib: &TechLibrary,
    space: &PortfolioSpace,
    threads: usize,
    cache: &SharedCoreCache,
    tag: [u8; 32],
) -> Result<PortfolioResult, ArchError> {
    explore_portfolio_impl(
        lib,
        space,
        threads,
        CorePolicy::Cached,
        Some((cache, tag)),
        None,
    )
}

/// Maps recoverable per-cell failures (infeasible geometry, yield-model
/// domain) into the per-cell `Err` channel and propagates everything else.
fn soften(
    result: Result<PortfolioCore, ArchError>,
) -> Result<Result<PortfolioCore, String>, ArchError> {
    match result {
        Ok(value) => Ok(Ok(value)),
        Err(ArchError::Model(e)) => Ok(Err(e.to_string())),
        Err(ArchError::Yield(e)) => Ok(Err(e.to_string())),
        Err(e) => Err(e),
    }
}

/// The cells one engine call prices: per (node index, area index), a mask
/// over the configuration block (`true` = price that configuration at
/// every quantity). Pairs absent from the map price nothing; incompatible
/// configurations are never priced, whatever their mask says.
pub(crate) type Selection = BTreeMap<(usize, usize), Vec<bool>>;

/// The one engine behind every exploration entry point. `selection`
/// restricts the run to the masked columns (one refinement wave);
/// `None` prices every cell.
pub(crate) fn explore_portfolio_impl(
    lib: &TechLibrary,
    space: &PortfolioSpace,
    threads: usize,
    policy: CorePolicy,
    shared: Option<(&SharedCoreCache, [u8; 32])>,
    selection: Option<&Selection>,
) -> Result<PortfolioResult, ArchError> {
    space.validate()?;
    for id in &space.nodes {
        lib.node(id).map_err(ArchError::Tech)?;
    }
    for center in space.ocme_center_nodes.iter().flatten() {
        lib.node(center).map_err(ArchError::Tech)?;
    }

    // --- Phase A: classify configurations, dedup core keys. --------------
    // Compatibility and geometry depend only on (node, area, integration,
    // chiplets, flow, variant) — never on quantity — so each priced
    // (node, area) point lists its configurations once, and amortization
    // later walks that list per quantity.
    let mut classify_span = actuary_obs::span!("dse.classify");
    let variants = space.scheme_variants();
    let shape = GridShape::of(space, variants.len());
    let block = shape.block();
    let mut specs: Vec<CoreSpec<'_>> = Vec::new();
    let mut key_index: BTreeMap<CoreSpec<'_>, usize> = BTreeMap::new();
    let mut points: Vec<PointPlan> = Vec::new();
    let mut cells = 0usize;
    for (n_i, node) in space.nodes.iter().enumerate() {
        for (a_i, &area_mm2) in space.areas_mm2.iter().enumerate() {
            let mask = match selection.map(|s| s.get(&(n_i, a_i))) {
                None => None,
                Some(None) => continue,
                Some(Some(mask)) => Some(mask),
            };
            let mut configs = Vec::new();
            let mut next_off = 0usize;
            for &integration in &space.integrations {
                for &chiplets in &space.chiplet_counts {
                    for &flow in &space.flows {
                        for variant in &variants {
                            let off = next_off;
                            next_off += 1;
                            if mask.is_some_and(|m| !m[off])
                                || classify(space, variant, integration, chiplets).is_some()
                            {
                                continue;
                            }
                            let spec = CoreSpec::of(
                                space,
                                variant,
                                node,
                                area_mm2,
                                integration,
                                chiplets,
                                flow,
                            )?;
                            let core = match policy {
                                // The reference path evaluates every cell
                                // from scratch, including per quantity.
                                CorePolicy::Uncached => {
                                    specs.extend(std::iter::repeat_n(spec, shape.quantities));
                                    specs.len() - shape.quantities
                                }
                                CorePolicy::Cached => {
                                    *key_index.entry(spec.clone()).or_insert_with(|| {
                                        specs.push(spec);
                                        specs.len() - 1
                                    })
                                }
                            };
                            configs.push((off, core, member_index(space, variant, chiplets)));
                        }
                    }
                }
            }
            cells += configs.len() * shape.quantities;
            points.push(PointPlan {
                base: (n_i * shape.areas + a_i) * shape.quantities * block,
                configs,
            });
        }
    }

    classify_span.record("distinct_cores", specs.len() as u64);
    classify_span.record("cells", cells as u64);
    drop(classify_span);

    let threads = resolve_threads(threads, shape.len());

    // --- Phase B: evaluate each distinct core once, in parallel. With a
    // shared cache, first serve whatever an earlier call (same library tag)
    // already evaluated; either way only the misses run, and
    // `core_evaluations` reports that fresh work.
    let mut evaluate_span = actuary_obs::span!("dse.evaluate");
    let cached: Option<(&SharedCoreCache, Vec<CacheKey>)> = shared.map(|(cache, tag)| {
        let keys = specs
            .iter()
            .map(|spec| (tag, spec.clone().into_owned()))
            .collect();
        (cache, keys)
    });
    let mut cores: Vec<Option<SharedCore>> = match &cached {
        Some((cache, keys)) => cache.lru.get_all(keys),
        None => vec![None; specs.len()],
    };
    let misses: Vec<usize> = (0..specs.len()).filter(|&i| cores[i].is_none()).collect();
    let results = run_chunked(&misses, threads, |_, &i| eval_core(lib, &specs[i]));
    let mut fresh = Vec::new();
    for (&i, result) in misses.iter().zip(results) {
        // A hard error aborts here, before the cache stores anything — it
        // is never cached.
        let value = Arc::new(soften(result)?);
        if let Some((_, keys)) = &cached {
            fresh.push((keys[i].clone(), Arc::clone(&value)));
        }
        cores[i] = Some(value);
    }
    if let Some((cache, _)) = cached {
        cache.lru.insert_all(fresh);
    }
    let cores: Vec<SharedCore> = cores
        .into_iter()
        .map(|core| core.expect("every core is fetched or freshly evaluated"))
        .collect();
    let core_evaluations = misses.len();
    evaluate_span.record("core_evaluations", core_evaluations as u64);
    drop(evaluate_span);

    // --- Phase C: amortization, one (point, quantity) block per work
    // item. A block is one contiguous stretch of the grid, so cells come
    // out in grid order and are appended straight to the store, each
    // reading its `(per-unit, RE)` pair at its planned member out of the
    // core's compiled amortization plan; no cell allocates.
    let mut amortize_span = actuary_obs::span!("dse.amortize");
    amortize_span.record("cells", cells as u64);
    let stride = usize::from(policy == CorePolicy::Uncached);
    let blocks: Vec<(&PointPlan, usize)> = points
        .iter()
        .flat_map(|point| (0..shape.quantities).map(move |q_i| (point, q_i)))
        .collect();
    let stored = run_chunked_into(&blocks, threads, |_, &(point, q_i), out| {
        let quantity = Quantity::new(space.quantities[q_i]);
        for &(off, core, member) in &point.configs {
            let outcome = match &*cores[core + q_i * stride] {
                Err(reason) => CellOutcome::Infeasible(reason.clone()),
                Ok(core) => {
                    let idx = shape.coords(off);
                    let (per_unit, re_per_unit) = core.member_at(member, quantity);
                    CellOutcome::Feasible(Candidate {
                        integration: space.integrations[idx.integration],
                        chiplets: space.chiplet_counts[idx.chiplets],
                        per_unit,
                        re_per_unit,
                    })
                }
            };
            out.push((point.base + q_i * block + off, outcome));
        }
    });

    Ok(PortfolioResult::from_parts(
        space,
        threads,
        core_evaluations,
        stored,
    ))
}

/// Evaluates one core (a standalone system's one-member portfolio or a
/// whole reuse family) at a placeholder quantity of 1: quantity only
/// enters at amortization.
fn eval_core(lib: &TechLibrary, spec: &CoreSpec<'_>) -> Result<PortfolioCore, ArchError> {
    let area = Area::from_mm2(f64::from_bits(spec.area_bits))?;
    let node = NodeId::new(&*spec.node);
    let soc = spec.integration == IntegrationKind::Soc;
    let portfolio = match spec.scheme {
        ReuseScheme::None => {
            return single_system_core(
                lib,
                &spec.node,
                area,
                spec.integration,
                spec.chiplets,
                spec.flow,
            );
        }
        ReuseScheme::Scms => {
            let scms = ScmsSpec {
                chiplet_module_area: area,
                node,
                multiplicities: spec.scms_multiplicities.to_vec(),
                integration: spec.integration,
                quantity_each: Quantity::new(1),
                package_reuse: spec.package_reuse,
            };
            if soc {
                scms.soc_portfolio()?
            } else {
                scms.portfolio()?
            }
        }
        ReuseScheme::Ocme => {
            let ocme = OcmeSpec {
                socket_module_area: area,
                node,
                center_node: spec.center_node.as_deref().map(NodeId::new),
                integration: spec.integration,
                quantity_each: Quantity::new(1),
                package_reuse: spec.package_reuse,
            };
            if soc {
                ocme.soc_portfolio()?
            } else {
                ocme.portfolio()?
            }
        }
        ReuseScheme::Fsmc => {
            let (sockets, chiplet_types) = spec.fsmc.expect("FSMC specs carry a situation");
            let fsmc = FsmcSpec {
                sockets,
                chiplet_types,
                socket_module_area: area,
                node,
                integration: spec.integration,
                quantity_each: Quantity::new(1),
            };
            if soc {
                fsmc.soc_portfolio()?
            } else {
                fsmc.portfolio()?
            }
        }
    };
    portfolio.core(lib, spec.flow)
}

#[cfg(test)]
mod render_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use actuary_model::AssemblyFlow;
    use actuary_units::Money;
    use proptest::prelude::*;

    fn lib() -> TechLibrary {
        TechLibrary::paper_defaults().unwrap()
    }

    fn small_space() -> PortfolioSpace {
        PortfolioSpace {
            nodes: vec!["7nm".to_string()],
            areas_mm2: vec![200.0, 800.0],
            quantities: vec![500_000, 2_000_000],
            integrations: vec![IntegrationKind::Soc, IntegrationKind::Mcm],
            chiplet_counts: vec![1, 2, 3, 4],
            flows: vec![AssemblyFlow::ChipLast, AssemblyFlow::ChipFirst],
            schemes: ReuseScheme::ALL.to_vec(),
            ..PortfolioSpace::default()
        }
    }

    #[test]
    fn planned_member_indices_name_the_systems_cells_read_out() {
        // Per scheme, the member name each compatible cell reads: `{m}X`,
        // the OCME member carrying `m` chips, `{m}A`; `-soc` in the SoC
        // baseline. Multiplicities out of order, the paper's five FSMC
        // situations and a single-type family.
        let lib = lib();
        let space = PortfolioSpace {
            nodes: vec!["7nm".to_string()],
            areas_mm2: vec![400.0],
            quantities: vec![500_000],
            integrations: vec![IntegrationKind::Soc, IntegrationKind::Mcm],
            chiplet_counts: (1..=6).collect(),
            schemes: ReuseScheme::ALL.to_vec(),
            scms_multiplicities: vec![4, 1, 2],
            fsmc_situations: [&PortfolioSpace::FSMC_PAPER_SITUATIONS[..], &[(3, 1)]].concat(),
            ..PortfolioSpace::default()
        };
        let mut checked = 0;
        for variant in &space.scheme_variants() {
            for &integration in &space.integrations {
                for &chiplets in &space.chiplet_counts {
                    if classify(&space, variant, integration, chiplets).is_some() {
                        continue;
                    }
                    let flow = AssemblyFlow::ChipLast;
                    let spec =
                        CoreSpec::of(&space, variant, "7nm", 400.0, integration, chiplets, flow)
                            .unwrap();
                    let core = eval_core(&lib, &spec).unwrap();
                    let member = member_index(&space, variant, chiplets);
                    let suffix = if integration == IntegrationKind::Soc {
                        "-soc"
                    } else {
                        ""
                    };
                    let expected = match variant.scheme {
                        ReuseScheme::None => {
                            assert_eq!((member, core.system_names().len()), (0, 1));
                            continue;
                        }
                        ReuseScheme::Scms => format!("{chiplets}X{suffix}"),
                        ReuseScheme::Ocme => {
                            let name = match chiplets {
                                1 => "C",
                                2 => "C+1X",
                                3 => "C+1X+1Y",
                                5 => "C+2X+2Y",
                                other => panic!("no OCME member carries {other} chips"),
                            };
                            format!("{name}{suffix}")
                        }
                        ReuseScheme::Fsmc => format!("{chiplets}A{suffix}"),
                    };
                    assert_eq!(
                        core.system_names()[member],
                        expected,
                        "{variant:?} on {integration}"
                    );
                    checked += 1;
                }
            }
        }
        // SCMS 3 + OCME 4 + FSMC (2+2+3+4+4+3), each on SoC and MCM.
        assert_eq!(checked, 2 * (3 + 4 + 18));
    }

    #[test]
    fn default_space_has_the_documented_grid() {
        let space = PortfolioSpace::default();
        // nodes × areas × quantities × integrations × counts × flows × schemes
        assert_eq!(space.len(), 3 * 9 * 3 * 4 * 5 * 4);
        assert!(!space.is_empty());
        space.validate().unwrap();
    }

    #[test]
    fn grid_shape_round_trips_every_index() {
        let space = small_space();
        let shape = GridShape::of(&space, space.scheme_variants().len());
        assert_eq!(shape.len(), space.len());
        // Flat indices count up in grid order: node → area → quantity →
        // integration → chiplet count → flow → scheme variant.
        let mut i = 0;
        for node in 0..shape.nodes {
            for area in 0..shape.areas {
                for quantity in 0..shape.quantities {
                    for integration in 0..shape.integrations {
                        for chiplets in 0..shape.chiplets {
                            for flow in 0..shape.flows {
                                for variant in 0..shape.variants {
                                    let expected = CellIdx {
                                        node,
                                        area,
                                        quantity,
                                        integration,
                                        chiplets,
                                        flow,
                                        variant,
                                    };
                                    assert_eq!(shape.coords(i), expected);
                                    i += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(i, shape.len());
    }

    #[test]
    fn a_zero_quantity_fails_by_name_instead_of_pricing_the_re_alone() {
        let space = PortfolioSpace {
            quantities: vec![0, 10],
            ..small_space()
        };
        let err = explore_portfolio(&lib(), &space, 1).expect_err("0 units amortize no NRE");
        assert_eq!(
            err.to_string(),
            "invalid architecture: production quantity must be at least 1, got 0"
        );
    }

    #[test]
    fn every_axis_is_validated_independently() {
        let base = small_space();
        let cases: Vec<(PortfolioSpace, &str)> = vec![
            (
                PortfolioSpace {
                    nodes: vec![],
                    ..base.clone()
                },
                "nodes",
            ),
            (
                PortfolioSpace {
                    flows: vec![],
                    ..base.clone()
                },
                "assembly flows",
            ),
            (
                PortfolioSpace {
                    schemes: vec![],
                    ..base.clone()
                },
                "reuse schemes",
            ),
            (
                PortfolioSpace {
                    scms_multiplicities: vec![],
                    ..base.clone()
                },
                "SCMS multiplicities",
            ),
        ];
        for (space, axis) in cases {
            let err = explore_portfolio(&lib(), &space, 1).expect_err(axis);
            assert!(err.to_string().contains(axis), "{axis}: {err}");
        }
        let dup = PortfolioSpace {
            scms_multiplicities: vec![1, 2, 2],
            ..base.clone()
        };
        assert!(explore_portfolio(&lib(), &dup, 1).is_err());
        let fsmc = PortfolioSpace {
            fsmc_situations: vec![(0, 2)],
            ..base.clone()
        };
        assert!(explore_portfolio(&lib(), &fsmc, 1).is_err());
        let fsmc_dup = PortfolioSpace {
            fsmc_situations: vec![(2, 2), (2, 2)],
            ..base.clone()
        };
        assert!(explore_portfolio(&lib(), &fsmc_dup, 1).is_err());
        let fsmc_empty = PortfolioSpace {
            fsmc_situations: vec![],
            ..base.clone()
        };
        assert!(explore_portfolio(&lib(), &fsmc_empty, 1).is_err());
        let center_dup = PortfolioSpace {
            ocme_center_nodes: vec![None, None],
            ..base.clone()
        };
        assert!(explore_portfolio(&lib(), &center_dup, 1).is_err());
        let center_unknown = PortfolioSpace {
            ocme_center_nodes: vec![Some("9nm".to_string())],
            ..base
        };
        assert!(explore_portfolio(&lib(), &center_unknown, 1).is_err());
    }

    #[test]
    fn fsmc_situation_axis_expands_the_scheme() {
        let lib = lib();
        let space = PortfolioSpace {
            nodes: vec!["7nm".to_string()],
            areas_mm2: vec![320.0],
            quantities: vec![500_000],
            integrations: vec![IntegrationKind::Mcm],
            chiplet_counts: vec![2, 3],
            flows: vec![AssemblyFlow::ChipLast],
            schemes: vec![ReuseScheme::Fsmc],
            fsmc_situations: vec![(2, 2), (4, 4)],
            ..PortfolioSpace::default()
        };
        assert_eq!(space.scheme_variants().len(), 2);
        let result = explore_portfolio(&lib, &space, 1).unwrap();
        assert_eq!(result.len(), 2 * 2);
        let cell = |chiplets: u32, params: &str| {
            result
                .cells()
                .into_iter()
                .find(|c| c.chiplets == chiplets && c.scheme_params == params)
                .unwrap()
        };
        // 3 chiplets overflow the 2-socket package but fit the 4-socket one.
        assert!(matches!(
            cell(3, "k=2,n=2").outcome,
            CellOutcome::Incompatible(_)
        ));
        assert!(cell(3, "k=4,n=4").outcome.is_feasible());
        // Size-2 collocations are feasible in both situations, and the
        // bigger family amortizes its NRE over more systems.
        let p22 = cell(2, "k=2,n=2").outcome.candidate().cloned().unwrap();
        let p44 = cell(2, "k=4,n=4").outcome.candidate().cloned().unwrap();
        assert!(
            p44.per_unit < p22.per_unit,
            "more collocations must amortize further: {} vs {}",
            p44.per_unit,
            p22.per_unit
        );
    }

    #[test]
    fn ocme_center_axis_prices_the_heterogeneous_family() {
        let lib = lib();
        let space = PortfolioSpace {
            nodes: vec!["7nm".to_string()],
            areas_mm2: vec![160.0],
            quantities: vec![500_000],
            integrations: vec![IntegrationKind::Mcm],
            chiplet_counts: vec![1],
            flows: vec![AssemblyFlow::ChipLast],
            schemes: vec![ReuseScheme::Ocme],
            ocme_center_nodes: vec![None, Some("14nm".to_string())],
            package_reuse: true,
            ..PortfolioSpace::default()
        };
        assert_eq!(space.scheme_variants().len(), 2);
        let result = explore_portfolio(&lib, &space, 1).unwrap();
        let per_unit = |params: &str| {
            result
                .cells()
                .iter()
                .find(|c| c.scheme_params == params)
                .and_then(|c| c.outcome.candidate())
                .map(|c| c.per_unit.usd())
                .unwrap_or_else(|| panic!("feasible cell for {params:?}"))
        };
        // §5.2: the single-C system nearly halves with a mature-node centre.
        assert!(
            per_unit("center=14nm") < per_unit(""),
            "the mature-node centre must be cheaper"
        );
    }

    #[test]
    fn grid_is_exhaustive_and_deterministic_across_threads() {
        let lib = lib();
        let space = small_space();
        let serial = explore_portfolio(&lib, &space, 1).unwrap();
        assert_eq!(serial.len(), space.len());
        assert_eq!(
            serial.feasible_count() + serial.infeasible_count() + serial.incompatible_count(),
            serial.len()
        );
        assert_eq!(serial.pruned_count(), 0, "exhaustive runs prune nothing");
        for threads in [2, 4, 8] {
            let parallel = explore_portfolio(&lib, &space, threads).unwrap();
            assert_eq!(serial.cells(), parallel.cells(), "threads={threads}");
            assert_eq!(
                serial.grid_artifact().csv(),
                parallel.grid_artifact().csv(),
                "threads={threads}"
            );
            assert_eq!(
                serial.winners_artifact().csv(),
                parallel.winners_artifact().csv()
            );
        }
    }

    #[test]
    fn cached_and_uncached_agree_byte_for_byte_with_fewer_evaluations() {
        let lib = lib();
        let space = small_space();
        let cached = explore_portfolio_with(&lib, &space, 2, CorePolicy::Cached).unwrap();
        let uncached = explore_portfolio_with(&lib, &space, 2, CorePolicy::Uncached).unwrap();
        assert_eq!(cached.cells(), uncached.cells());
        assert_eq!(cached.grid_artifact().csv(), uncached.grid_artifact().csv());
        assert!(
            cached.core_evaluations() * 2 <= uncached.core_evaluations(),
            "cache must at least halve the full evaluations: {} vs {}",
            cached.core_evaluations(),
            uncached.core_evaluations()
        );
    }

    #[test]
    fn mostly_incompatible_grids_stay_sparse() {
        // A family scheme over a wide chiplet-count axis is mostly dead
        // cells; the store must hold only the evaluated members, while the
        // readers still see (and account for) every cell.
        let lib = lib();
        let space = PortfolioSpace {
            nodes: vec!["7nm".to_string()],
            areas_mm2: vec![400.0],
            quantities: vec![500_000],
            integrations: vec![IntegrationKind::Mcm],
            chiplet_counts: (1..=50).collect(),
            flows: vec![AssemblyFlow::ChipLast],
            schemes: vec![ReuseScheme::Scms],
            ..PortfolioSpace::default()
        };
        let result = explore_portfolio(&lib, &space, 1).unwrap();
        assert_eq!(result.len(), 50);
        // SCMS members are {1, 2, 4}: 47 of 50 counts are incompatible.
        assert_eq!(result.incompatible_count(), 47);
        assert!(
            result.evaluated_cells() <= 3,
            "only evaluated cells may be stored, got {}",
            result.evaluated_cells()
        );
        let cells = result.cells();
        assert_eq!(cells.len(), 50);
        assert_eq!(
            cells
                .iter()
                .filter(|c| matches!(c.outcome, CellOutcome::Incompatible(_)))
                .count(),
            47
        );
        // Re-derived incompatible cells still render the historical reason.
        let dead = cells
            .iter()
            .find(|c| c.chiplets == 3)
            .expect("the grid is dense on read");
        assert_eq!(
            dead.outcome.detail(),
            "SCMS family [1, 2, 4] has no 3-chiplet member"
        );
    }

    #[test]
    fn scms_member_matches_the_direct_reuse_portfolio() {
        // A cell must read out exactly what costing the ScmsSpec family
        // directly reports for the same member — the grid adds nothing.
        let lib = lib();
        let space = PortfolioSpace {
            nodes: vec!["7nm".to_string()],
            areas_mm2: vec![800.0],
            quantities: vec![500_000],
            integrations: vec![IntegrationKind::Mcm],
            chiplet_counts: vec![4],
            flows: vec![AssemblyFlow::ChipLast],
            schemes: vec![ReuseScheme::Scms],
            ..PortfolioSpace::default()
        };
        let result = explore_portfolio(&lib, &space, 1).unwrap();
        assert_eq!(result.feasible_count(), 1);
        let cells = result.cells();
        let cell = &cells[0];
        let grid = cell.outcome.candidate().unwrap();

        let spec = ScmsSpec {
            chiplet_module_area: Area::from_mm2(200.0).unwrap(),
            node: NodeId::new("7nm"),
            multiplicities: vec![1, 2, 4],
            integration: IntegrationKind::Mcm,
            quantity_each: Quantity::new(500_000),
            package_reuse: false,
        };
        let direct = spec
            .portfolio()
            .unwrap()
            .cost(&lib, AssemblyFlow::ChipLast)
            .unwrap();
        let member = direct.system("4X").unwrap();
        assert_eq!(grid.per_unit, member.per_unit_total());
        assert_eq!(grid.re_per_unit, member.re().total());
    }

    #[test]
    fn family_membership_is_enforced_per_scheme() {
        let lib = lib();
        let space = PortfolioSpace {
            nodes: vec!["7nm".to_string()],
            areas_mm2: vec![400.0],
            quantities: vec![500_000],
            integrations: vec![IntegrationKind::Mcm],
            chiplet_counts: vec![3, 5, 6],
            flows: vec![AssemblyFlow::ChipLast],
            schemes: vec![ReuseScheme::Scms, ReuseScheme::Ocme, ReuseScheme::Fsmc],
            ..PortfolioSpace::default()
        };
        let result = explore_portfolio(&lib, &space, 1).unwrap();
        let outcome_of = |chiplets: u32, scheme: ReuseScheme| {
            result
                .cells()
                .into_iter()
                .find(|c| c.chiplets == chiplets && c.scheme == scheme)
                .unwrap()
                .outcome
        };
        // SCMS family is {1,2,4}: 3, 5 and 6 are all incompatible.
        for m in [3, 5, 6] {
            assert!(
                matches!(
                    outcome_of(m, ReuseScheme::Scms),
                    CellOutcome::Incompatible(_)
                ),
                "scms x{m}"
            );
        }
        // OCME has a 3-chip (C+1X+1Y) and 5-chip (C+2X+2Y) member, not 6.
        assert!(outcome_of(3, ReuseScheme::Ocme).is_feasible());
        assert!(outcome_of(5, ReuseScheme::Ocme).is_feasible());
        assert!(matches!(
            outcome_of(6, ReuseScheme::Ocme),
            CellOutcome::Incompatible(_)
        ));
        // FSMC holds up to 4 sockets: size 3 fits, 5 and 6 do not.
        assert!(outcome_of(3, ReuseScheme::Fsmc).is_feasible());
        for m in [5, 6] {
            assert!(
                matches!(
                    outcome_of(m, ReuseScheme::Fsmc),
                    CellOutcome::Incompatible(_)
                ),
                "fsmc x{m}"
            );
        }
    }

    #[test]
    fn reuse_schemes_beat_the_standalone_baseline_at_grid_scale() {
        // The paper's headline: amortizing NRE across a derivative family
        // undercuts building each system standalone (Figs. 8-10).
        let lib = lib();
        let space = PortfolioSpace {
            nodes: vec!["7nm".to_string()],
            areas_mm2: vec![800.0],
            quantities: vec![500_000],
            integrations: vec![IntegrationKind::Soc, IntegrationKind::Mcm],
            // 2 is a member of every family: SCMS 2X, OCME C+1X, FSMC size 2.
            chiplet_counts: vec![2],
            flows: vec![AssemblyFlow::ChipLast],
            schemes: ReuseScheme::ALL.to_vec(),
            ..PortfolioSpace::default()
        };
        let result = explore_portfolio(&lib, &space, 1).unwrap();
        let per_unit = |scheme: ReuseScheme| {
            result
                .cells()
                .iter()
                .find(|c| c.scheme == scheme && c.integration == IntegrationKind::Mcm)
                .and_then(|c| c.outcome.candidate())
                .map(|c| c.per_unit.usd())
                .expect("feasible MCM cell")
        };
        let standalone = per_unit(ReuseScheme::None);
        for scheme in [ReuseScheme::Scms, ReuseScheme::Ocme, ReuseScheme::Fsmc] {
            assert!(
                per_unit(scheme) < standalone,
                "{scheme} must amortize NRE below the standalone {standalone}"
            );
        }
    }

    #[test]
    fn winner_tables_and_pareto_fronts_are_per_scheme() {
        let lib = lib();
        let result = explore_portfolio(&lib, &small_space(), 2).unwrap();
        for &scheme in &ReuseScheme::ALL {
            let winners = result.winners(scheme);
            // One row per (node, area, quantity) operating point.
            assert_eq!(winners.len(), 2 * 2, "{scheme}"); // areas × quantities
            for w in &winners {
                assert_eq!(w.scheme, scheme);
                if let Some((c, _flow)) = &w.best {
                    assert!(c.per_unit.usd() > 0.0);
                }
            }
            let front = result.pareto_front(scheme);
            assert!(!front.is_empty(), "{scheme}");
            assert!(front.iter().all(|c| c.scheme == scheme));
        }
        assert_eq!(result.all_winners().len(), 4 * 4);
    }

    #[test]
    fn flow_axis_exposes_the_section_5_flow_comparison() {
        // Chip-first and chip-last cells of the same 2.5D geometry must
        // differ (the flows price the interposer stage differently — for
        // interposer-less MCM they coincide by Eq. (5)) and chip-last must
        // win, the §5 conclusion.
        let lib = lib();
        let space = PortfolioSpace {
            nodes: vec!["7nm".to_string()],
            areas_mm2: vec![800.0],
            quantities: vec![2_000_000],
            integrations: vec![IntegrationKind::TwoPointFiveD],
            chiplet_counts: vec![4],
            flows: vec![AssemblyFlow::ChipLast, AssemblyFlow::ChipFirst],
            schemes: vec![ReuseScheme::None],
            ..PortfolioSpace::default()
        };
        let result = explore_portfolio(&lib, &space, 1).unwrap();
        let cell = |flow: AssemblyFlow| {
            result
                .cells()
                .iter()
                .find(|c| c.flow == flow)
                .and_then(|c| c.outcome.candidate())
                .expect("feasible")
                .per_unit
                .usd()
        };
        assert!(
            cell(AssemblyFlow::ChipLast) < cell(AssemblyFlow::ChipFirst),
            "chip-last must avoid wasting KGDs on interposer defects"
        );
    }

    #[test]
    fn csv_shapes_are_machine_readable() {
        let result = explore_portfolio(&lib(), &small_space(), 2).unwrap();
        let grid = result.grid_artifact().csv();
        assert_eq!(
            grid.lines().next().unwrap(),
            "node,area_mm2,quantity,integration,chiplets,flow,scheme,scheme_params,status,\
             per_unit_usd,re_per_unit_usd,detail"
        );
        assert_eq!(grid.lines().count(), result.len() + 1);
        let winners = result.winners_artifact().csv();
        assert_eq!(
            winners.lines().next().unwrap(),
            "scheme,node,area_mm2,quantity,integration,chiplets,flow,per_unit_usd,saving_vs_soc"
        );
        assert_eq!(winners.lines().count(), 4 * 4 + 1);
        // Streaming into a sink and materializing produce the same bytes.
        let mut streamed = String::new();
        result.grid_artifact().write_csv_to(&mut streamed).unwrap();
        assert_eq!(streamed, grid);
        let pareto = result.pareto_artifact().csv();
        assert_eq!(
            pareto.lines().next().unwrap(),
            "scheme,scheme_params,node,area_mm2,quantity,integration,chiplets,flow,per_unit_usd"
        );
        let front_rows: usize = ReuseScheme::ALL
            .iter()
            .map(|&s| result.pareto_front(s).len())
            .sum();
        assert_eq!(pareto.lines().count(), front_rows + 1);
    }

    #[test]
    fn program_pareto_is_per_scheme_and_non_dominated() {
        let result = explore_portfolio(&lib(), &small_space(), 2).unwrap();
        for &scheme in &ReuseScheme::ALL {
            let front = result.pareto_program(scheme);
            assert!(!front.is_empty(), "{scheme}");
            assert!(front.iter().all(|c| c.scheme == scheme), "{scheme}");
            for pair in front.windows(2) {
                let (a, b) = (
                    pair[0].outcome.candidate().unwrap(),
                    pair[1].outcome.candidate().unwrap(),
                );
                assert!(
                    a.per_unit.usd() * pair[0].quantity as f64
                        <= b.per_unit.usd() * pair[1].quantity as f64
                );
                assert!(a.per_unit > b.per_unit, "{scheme}: dominated point kept");
            }
        }
        let program_csv = result.pareto_program_artifact().csv();
        assert_eq!(
            program_csv.lines().next().unwrap(),
            "scheme,scheme_params,node,area_mm2,quantity,integration,chiplets,flow,\
             program_total_usd,per_unit_usd"
        );
    }

    /// The fronts' reference body: every feasible cell of the scheme,
    /// sorted by [`pareto_min_indices`], with no per-group reduction.
    fn front_oracle(
        result: &PortfolioResult,
        scheme: ReuseScheme,
        objectives: impl Fn(CellIdx, &Candidate) -> (f64, f64),
    ) -> Vec<PortfolioCell> {
        let shape = result.shape();
        let variants = result.variants.len();
        let feasible: Vec<(usize, &Candidate)> = result
            .stored
            .iter()
            .filter_map(|(i, outcome)| match outcome {
                CellOutcome::Feasible(c) if result.variants[i % variants].scheme == scheme => {
                    Some((*i, c))
                }
                _ => None,
            })
            .collect();
        let points: Vec<(f64, f64)> = feasible
            .iter()
            .map(|&(i, c)| objectives(shape.coords(i), c))
            .collect();
        pareto_min_indices(&points)
            .into_iter()
            .map(|k| {
                let (i, c) = feasible[k];
                result.cell_at(shape.coords(i), CellOutcome::Feasible(c.clone()))
            })
            .collect()
    }

    fn pareto_front_oracle(result: &PortfolioResult, scheme: ReuseScheme) -> Vec<PortfolioCell> {
        front_oracle(result, scheme, |idx, c| {
            (
                c.per_unit.usd(),
                f64::from(result.space.chiplet_counts[idx.chiplets]),
            )
        })
    }

    fn pareto_program_oracle(result: &PortfolioResult, scheme: ReuseScheme) -> Vec<PortfolioCell> {
        front_oracle(result, scheme, |idx, c| {
            let per_unit = c.per_unit.usd();
            (
                per_unit * result.space.quantities[idx.quantity] as f64,
                per_unit,
            )
        })
    }

    /// A sparse store over a 1,024-cell space with three schemes, two
    /// FSMC variants, and a repeated value on both the chiplet and the
    /// quantity axis. A compatible cell is stored when its roll is below
    /// `density`, then infeasible (draw 0) or feasible at one of five
    /// per-unit costs, chosen so that exact ties fall within groups and,
    /// through per-unit × quantity, across them (15 × 2,000 = 10 × 3,000
    /// = 30 × 1,000). Each feasible cell's RE is its flat index, so cells
    /// that look alike stay distinguishable.
    fn random_store(density: usize, draws: &[(usize, usize)]) -> PortfolioResult {
        const PER_UNIT: [f64; 5] = [10.0, 15.0, 20.0, 30.0, 45.0];
        let space = PortfolioSpace {
            nodes: vec!["7nm".to_string(), "5nm".to_string()],
            areas_mm2: vec![200.0, 400.0],
            quantities: vec![1_000, 2_000, 3_000, 2_000],
            integrations: vec![IntegrationKind::Soc, IntegrationKind::Mcm],
            chiplet_counts: vec![1, 2, 2, 3],
            flows: vec![AssemblyFlow::ChipLast, AssemblyFlow::ChipFirst],
            schemes: vec![ReuseScheme::None, ReuseScheme::Scms, ReuseScheme::Fsmc],
            scms_multiplicities: vec![1, 2, 3],
            fsmc_situations: vec![(2, 2), (3, 3)],
            ..PortfolioSpace::default()
        };
        let variants = space.scheme_variants();
        let shape = GridShape::of(&space, variants.len());
        assert_eq!(draws.len(), shape.len());
        let mut stored = Vec::new();
        for (i, &(roll, draw)) in draws.iter().enumerate() {
            let idx = shape.coords(i);
            let integration = space.integrations[idx.integration];
            let chiplets = space.chiplet_counts[idx.chiplets];
            if roll >= density
                || classify(&space, &variants[idx.variant], integration, chiplets).is_some()
            {
                continue;
            }
            let outcome = match draw {
                0 => CellOutcome::Infeasible("die exceeds the wafer".to_string()),
                _ => CellOutcome::Feasible(Candidate {
                    integration,
                    chiplets,
                    per_unit: Money::from_usd(PER_UNIT[draw - 1]).unwrap(),
                    re_per_unit: Money::from_usd(i as f64).unwrap(),
                }),
            };
            stored.push((i, outcome));
        }
        PortfolioResult::from_parts(&space, 1, 0, stored)
    }

    /// A front's cells, coordinates and costs compared bit for bit.
    fn front_bits(front: &[PortfolioCell]) -> Vec<(String, u64, u64, u64)> {
        front
            .iter()
            .map(|cell| {
                let c = cell.outcome.candidate().expect("front cells are feasible");
                (
                    format!(
                        "{} {} {} {} {} {} {}",
                        cell.node,
                        cell.quantity,
                        cell.integration,
                        cell.chiplets,
                        cell.flow,
                        cell.scheme,
                        cell.scheme_params
                    ),
                    cell.area_mm2.to_bits(),
                    c.per_unit.usd().to_bits(),
                    c.re_per_unit.usd().to_bits(),
                )
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The per-group fronts equal the sort over every feasible cell,
        /// cell for cell, on random sparse stores.
        #[test]
        fn group_minima_fronts_match_the_full_sort(
            density in 1usize..100,
            draws in proptest::collection::vec((0usize..100, 0usize..6), 1024..1025),
        ) {
            let result = random_store(density, &draws);
            for &scheme in &result.space.schemes {
                prop_assert_eq!(
                    front_bits(&result.pareto_front(scheme)),
                    front_bits(&pareto_front_oracle(&result, scheme))
                );
                prop_assert_eq!(
                    front_bits(&result.pareto_program(scheme)),
                    front_bits(&pareto_program_oracle(&result, scheme))
                );
            }
        }
    }

    #[test]
    fn scheme_labels_round_trip() {
        for &s in &ReuseScheme::ALL {
            assert_eq!(s.to_string(), s.label());
        }
        assert_eq!(ReuseScheme::Scms.to_string(), "scms");
    }

    /// All three artifact renderings of a result, for byte-identity checks.
    fn render(result: &PortfolioResult) -> String {
        format!(
            "{}\n{}\n{}",
            result.grid_artifact().csv(),
            result.winners_artifact().csv(),
            result.pareto_artifact().csv()
        )
    }

    #[test]
    fn shared_cache_is_byte_identical_and_skips_warm_cores() {
        let lib = lib();
        let space = small_space();
        let reference = explore_portfolio(&lib, &space, 1).unwrap();

        let cache = SharedCoreCache::new(1024);
        let cold = explore_portfolio_shared(&lib, &space, 1, &cache, [7; 32]).unwrap();
        assert_eq!(render(&cold), render(&reference));
        assert_eq!(cold.core_evaluations(), reference.core_evaluations());

        let warm = explore_portfolio_shared(&lib, &space, 1, &cache, [7; 32]).unwrap();
        assert_eq!(render(&warm), render(&reference));
        assert_eq!(
            warm.core_evaluations(),
            0,
            "warm rerun re-evaluates nothing"
        );

        let stats = cache.stats();
        assert_eq!(stats.misses, reference.core_evaluations() as u64);
        assert_eq!(stats.hits, reference.core_evaluations() as u64);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.entries, reference.core_evaluations());
    }

    #[test]
    fn shared_cache_reuses_overlapping_spaces() {
        let lib = lib();
        let cache = SharedCoreCache::new(1024);
        let first = small_space();
        explore_portfolio_shared(&lib, &first, 1, &cache, [0; 32]).unwrap();

        // Same nodes/areas/schemes, different quantities and one new area:
        // only the new area's cores need evaluating (quantity is not part
        // of a core).
        let second = PortfolioSpace {
            areas_mm2: vec![200.0, 400.0, 800.0],
            quantities: vec![100_000, 10_000_000],
            ..small_space()
        };
        let overlapping = explore_portfolio_shared(&lib, &second, 1, &cache, [0; 32]).unwrap();
        let from_scratch = explore_portfolio(&lib, &second, 1).unwrap();
        assert_eq!(render(&overlapping), render(&from_scratch));
        assert!(
            overlapping.core_evaluations() < from_scratch.core_evaluations(),
            "{} cores re-evaluated out of {}",
            overlapping.core_evaluations(),
            from_scratch.core_evaluations()
        );
        assert!(
            overlapping.core_evaluations() > 0,
            "the 400 mm² cores are new"
        );
    }

    #[test]
    fn repeated_axis_values_share_their_cores() {
        // A core is named by what it reads, not by its axis position: a
        // node or scheme listed twice prices its cores once.
        let lib = lib();
        let once = explore_portfolio(&lib, &small_space(), 1).unwrap();
        let twice = PortfolioSpace {
            nodes: vec!["7nm".to_string(), "7nm".to_string()],
            schemes: [ReuseScheme::ALL, ReuseScheme::ALL].concat(),
            ..small_space()
        };
        let result = explore_portfolio(&lib, &twice, 1).unwrap();
        assert_eq!(result.core_evaluations(), once.core_evaluations());
        assert_eq!(result.feasible_count(), 4 * once.feasible_count());
    }

    #[test]
    fn shared_cache_ignores_parameters_a_scheme_never_reads() {
        let lib = lib();
        let cache = SharedCoreCache::new(1024);
        let base = PortfolioSpace {
            schemes: vec![ReuseScheme::None, ReuseScheme::Fsmc],
            ..small_space()
        };
        explore_portfolio_shared(&lib, &base, 1, &cache, [0; 32]).unwrap();
        // Neither `none` nor FSMC reads SCMS multiplicities or package
        // reuse: a space that changes only those hits every core.
        let unread = PortfolioSpace {
            scms_multiplicities: vec![1, 3],
            package_reuse: true,
            ..base.clone()
        };
        let warm = explore_portfolio_shared(&lib, &unread, 1, &cache, [0; 32]).unwrap();
        assert_eq!(warm.core_evaluations(), 0);
        // Another FSMC situation is another family.
        let other = PortfolioSpace {
            fsmc_situations: vec![(2, 2)],
            ..base
        };
        let fresh = explore_portfolio_shared(&lib, &other, 1, &cache, [0; 32]).unwrap();
        assert!(fresh.core_evaluations() > 0);
    }

    #[test]
    fn shared_cache_isolates_library_tags() {
        let lib = lib();
        let space = small_space();
        let cache = SharedCoreCache::new(1024);
        let a = explore_portfolio_shared(&lib, &space, 1, &cache, [1; 32]).unwrap();
        let b = explore_portfolio_shared(&lib, &space, 1, &cache, [2; 32]).unwrap();
        assert_eq!(
            a.core_evaluations(),
            b.core_evaluations(),
            "a different library tag must not hit the first tag's cores"
        );
    }

    #[test]
    fn shared_cache_honors_its_capacity_bound() {
        let lib = lib();
        let space = small_space();
        let reference = explore_portfolio(&lib, &space, 1).unwrap();
        assert!(reference.core_evaluations() > 4);

        let cache = SharedCoreCache::new(4);
        let result = explore_portfolio_shared(&lib, &space, 1, &cache, [0; 32]).unwrap();
        assert_eq!(render(&result), render(&reference));
        let stats = cache.stats();
        assert_eq!(stats.entries, 4, "occupancy stays at the bound");
        assert_eq!(
            stats.evictions,
            reference.core_evaluations() as u64 - 4,
            "everything over the bound was evicted"
        );

        // Disabled cache: nothing retained, results still correct.
        let off = SharedCoreCache::new(0);
        let uncachable = explore_portfolio_shared(&lib, &space, 1, &off, [0; 32]).unwrap();
        assert_eq!(render(&uncachable), render(&reference));
        assert_eq!(off.stats().entries, 0);
    }
}
