//! Multi-axis architecture exploration: the full Cartesian grid the
//! paper's §6 walks by hand, evaluated in parallel.
//!
//! [`crate::optimizer::recommend`] answers the §6 question for *one*
//! (node, area, quantity) operating point; this module scales the same
//! [`crate::optimizer::evaluate_candidate`] core to the whole grid of
//! operating points × (integration, chiplet count) configurations, the way
//! cost-aware exploration tools (Tang & Xie, arXiv:2206.07308; CATCH,
//! arXiv:2503.15753) derive crossovers and Pareto fronts.
//!
//! Four properties distinguish the engine from a nest of loops:
//!
//! * **Parallel** — candidates are pre-expanded into a flat work list,
//!   dealt as chunk ranges to per-worker `std::thread::scope` deques, and
//!   rebalanced by stealing half of a busy worker's queue (the shared
//!   engine); the [`actuary_tech::TechLibrary`] is shared by reference, no
//!   dependencies are added.
//! * **Cached** — the expensive RE/NRE core of a cell depends only on
//!   (node, area, integration, chiplet count, flow), so one core is
//!   evaluated per distinct geometry and re-amortized per quantity: ~3×
//!   fewer full evaluations on the default grid, byte-identical output
//!   (see [`ExploreResult::core_evaluations`] and
//!   [`crate::portfolio::CorePolicy`]).
//! * **Deterministic** — results come back in grid order (node → area →
//!   quantity → integration → chiplet count) regardless of thread count,
//!   so one-threaded and N-threaded runs emit byte-identical CSV.
//! * **Loss-free** — infeasible cells (die exceeds the wafer, interposer
//!   unmanufacturable) and incompatible cells (monolithic SoC × several
//!   chiplets) are *recorded* with their reason, not silently dropped.
//!   Incompatible reasons are interned as a copyable
//!   [`IncompatibleReason`] and re-derived from a cell's coordinates on
//!   read, so mostly-incompatible grids never materialize a string (or an
//!   outcome at all) per dead cell.
//!
//! This engine grids *single systems*; [`crate::portfolio`] crosses the
//! same axes with the paper's reuse schemes and the assembly-flow axis
//! (both engines share one implementation — `explore` is the
//! single-scheme, single-flow special case). [`crate::refine`] runs either
//! grid coarse-to-fine instead of exhaustively.
//!
//! # Examples
//!
//! ```
//! use actuary_dse::explore::{explore, ExploreSpace};
//! use actuary_tech::TechLibrary;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = TechLibrary::paper_defaults()?;
//! let space = ExploreSpace {
//!     nodes: vec!["7nm".to_string()],
//!     areas_mm2: vec![400.0, 800.0],
//!     quantities: vec![2_000_000],
//!     ..ExploreSpace::default()
//! };
//! let result = explore(&lib, &space, 2)?;
//! assert_eq!(result.len(), 2 * 4 * 5); // areas × integrations × counts
//! assert!(result.feasible_count() > 0);
//! # Ok(())
//! # }
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};

use actuary_arch::ArchError;
use actuary_model::AssemblyFlow;
use actuary_tech::{IntegrationKind, TechLibrary};
use actuary_units::{Area, Artifact};

use crate::optimizer::Candidate;
use crate::portfolio::{
    explore_portfolio_with, CorePolicy, PortfolioCell, PortfolioResult, PortfolioSpace, ReuseScheme,
};

/// The exploration grid: the Cartesian product of every axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExploreSpace {
    /// Process-node identifiers to explore (must exist in the library).
    pub nodes: Vec<String>,
    /// Total module areas in mm² (pre-D2D-inflation, as in the optimizer).
    pub areas_mm2: Vec<f64>,
    /// Production quantities.
    pub quantities: Vec<u64>,
    /// Integration schemes (the monolithic SoC is a regular grid member
    /// here, compatible only with a chiplet count of 1).
    pub integrations: Vec<IntegrationKind>,
    /// Chiplet counts (1 = monolithic for SoC, single-die package for
    /// multi-chip schemes).
    pub chiplet_counts: Vec<u32>,
    /// Assembly flow applied to every cell.
    pub flow: AssemblyFlow,
}

impl Default for ExploreSpace {
    /// The §6 replication grid: the paper's three headline nodes, the
    /// Figure 4 area range, the Figure 6 quantities, all four integration
    /// schemes and 1–5 chiplets — 1,620 cells.
    fn default() -> Self {
        ExploreSpace {
            nodes: vec!["14nm".to_string(), "7nm".to_string(), "5nm".to_string()],
            areas_mm2: (1..=9).map(|i| i as f64 * 100.0).collect(),
            quantities: vec![500_000, 2_000_000, 10_000_000],
            integrations: IntegrationKind::ALL.to_vec(),
            chiplet_counts: vec![1, 2, 3, 4, 5],
            flow: AssemblyFlow::ChipLast,
        }
    }
}

impl ExploreSpace {
    /// The number of grid cells (product of the axis lengths).
    pub fn len(&self) -> usize {
        self.nodes.len()
            * self.areas_mm2.len()
            * self.quantities.len()
            * self.integrations.len()
            * self.chiplet_counts.len()
    }

    /// Whether the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validates every axis independently, so a single empty axis cannot
    /// silently collapse the grid (the same class of bug as the old
    /// optimizer guard).
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidArchitecture`] naming the offending
    /// axis, or [`ArchError::Unit`] for a non-finite area.
    pub fn validate(&self) -> Result<(), ArchError> {
        let axis_err = |axis: &str| ArchError::InvalidArchitecture {
            reason: format!("exploration space has no {axis}"),
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
        for &mm2 in &self.areas_mm2 {
            Area::from_mm2(mm2)?;
        }
        if let Some(&n) = self.chiplet_counts.iter().find(|&&n| n == 0) {
            return Err(ArchError::InvalidArchitecture {
                reason: format!("chiplet count must be at least 1, got {n}"),
            });
        }
        Ok(())
    }
}

/// The SCMS multiplicity list of an [`IncompatibleReason::ScmsNonMember`],
/// interned into a fixed-size copyable value (the reason enum must stay
/// `Copy`, so it cannot carry the space's `Vec<u32>`).
///
/// [`fmt::Display`] reproduces the `Vec` debug formatting the reason
/// strings have always used (`[1, 2, 4]`); families beyond
/// [`ScmsFamily::MAX`] multiplicities — far past the paper's `{1, 2, 4}` —
/// render the kept prefix followed by `...`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScmsFamily {
    multiplicities: [u32; Self::MAX],
    len: u8,
    truncated: bool,
}

impl ScmsFamily {
    /// How many multiplicities the interned family keeps.
    pub const MAX: usize = 8;

    /// Interns `multiplicities`, keeping the first [`ScmsFamily::MAX`].
    pub fn new(multiplicities: &[u32]) -> Self {
        let mut kept = [0u32; Self::MAX];
        let len = multiplicities.len().min(Self::MAX);
        kept[..len].copy_from_slice(&multiplicities[..len]);
        ScmsFamily {
            multiplicities: kept,
            len: len as u8,
            truncated: multiplicities.len() > Self::MAX,
        }
    }
}

impl fmt::Display for ScmsFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, m) in self.multiplicities[..usize::from(self.len)]
            .iter()
            .enumerate()
        {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{m}")?;
        }
        if self.truncated {
            f.write_str(", ...")?;
        }
        f.write_str("]")
    }
}

/// Why a cell's axes contradict each other, interned as a copyable value.
///
/// The grid used to carry a pre-formatted `String` per incompatible cell —
/// one heap allocation each on grids that are *mostly* incompatible (family
/// schemes × a wide chiplet-count axis). The enum is `Copy`, is re-derived
/// from a cell's coordinates instead of being stored at all, and its
/// [`fmt::Display`] reproduces the historical CSV text byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncompatibleReason {
    /// A monolithic (non-multi-chip) integration × more than one chiplet.
    MonolithicMultiChip {
        /// The monolithic integration kind.
        integration: IntegrationKind,
        /// The contradicting chiplet count.
        chiplets: u32,
    },
    /// A multi-chip integration × fewer than two chiplets.
    SingleDieMultiChip {
        /// The multi-chip integration kind.
        integration: IntegrationKind,
    },
    /// The chiplet count is not one of the SCMS family's multiplicities.
    ScmsNonMember {
        /// The family's multiplicity list.
        family: ScmsFamily,
        /// The non-member chiplet count.
        chiplets: u32,
    },
    /// The chiplet count is not an OCME family member size.
    OcmeNonMember {
        /// The non-member chip count.
        chiplets: u32,
    },
    /// More chiplets than the FSMC package has sockets.
    FsmcOverflow {
        /// The package's socket count.
        sockets: u32,
        /// The overflowing collocation size.
        chiplets: u32,
    },
}

impl fmt::Display for IncompatibleReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IncompatibleReason::MonolithicMultiChip {
                integration,
                chiplets,
            } => write!(
                f,
                "monolithic {integration} cannot hold {chiplets} chiplets"
            ),
            IncompatibleReason::SingleDieMultiChip { integration } => write!(
                f,
                "{integration} needs at least 2 chiplets (a single die has no D2D interface)"
            ),
            IncompatibleReason::ScmsNonMember { family, chiplets } => {
                write!(f, "SCMS family {family} has no {chiplets}-chiplet member")
            }
            IncompatibleReason::OcmeNonMember { chiplets } => write!(
                f,
                "OCME family (C, C+1X, C+1X+1Y, C+2X+2Y) has no {chiplets}-chip member"
            ),
            IncompatibleReason::FsmcOverflow { sockets, chiplets } => write!(
                f,
                "FSMC package has {sockets} sockets, cannot collocate {chiplets} chiplets"
            ),
        }
    }
}

/// What happened when one grid cell was evaluated.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// The configuration was costed successfully.
    Feasible(Candidate),
    /// The configuration cannot be manufactured (die exceeds the wafer,
    /// interposer too large, zero yield); the engine's reason is kept.
    Infeasible(String),
    /// The axes combined into a contradiction (monolithic SoC × more than
    /// one chiplet); recorded so grid accounting stays exhaustive.
    Incompatible(IncompatibleReason),
    /// The cell was skipped by coarse-to-fine refinement (see
    /// [`crate::refine`]): compatible axes, but the refinement proof never
    /// needed its evaluation. Exhaustive runs produce none.
    Pruned,
}

impl CellOutcome {
    /// The costed candidate, if the cell was feasible.
    pub fn candidate(&self) -> Option<&Candidate> {
        match self {
            CellOutcome::Feasible(c) => Some(c),
            _ => None,
        }
    }

    /// Whether the cell was costed successfully.
    pub fn is_feasible(&self) -> bool {
        matches!(self, CellOutcome::Feasible(_))
    }

    /// The CSV status keyword for this outcome.
    pub(crate) fn status(&self) -> &'static str {
        match self {
            CellOutcome::Feasible(_) => "feasible",
            CellOutcome::Infeasible(_) => "infeasible",
            CellOutcome::Incompatible(_) => "incompatible",
            CellOutcome::Pruned => "pruned",
        }
    }

    /// The recorded reason for a cell that was not costed.
    pub(crate) fn detail(&self) -> String {
        match self {
            CellOutcome::Feasible(_) => String::new(),
            CellOutcome::Infeasible(reason) => reason.clone(),
            CellOutcome::Incompatible(reason) => reason.to_string(),
            CellOutcome::Pruned => {
                "not evaluated (pruned by coarse-to-fine refinement)".to_string()
            }
        }
    }
}

/// One evaluated grid cell: its coordinates plus the outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreCell {
    /// Process-node identifier.
    pub node: String,
    /// Total module area in mm².
    pub area_mm2: f64,
    /// Production quantity.
    pub quantity: u64,
    /// Integration scheme.
    pub integration: IntegrationKind,
    /// Chiplet count.
    pub chiplets: u32,
    /// What evaluation produced.
    pub outcome: CellOutcome,
}

impl ExploreCell {
    /// Drops the portfolio-only coordinates (flow, scheme) of a lifted
    /// single-system cell.
    fn from_portfolio(cell: PortfolioCell) -> Self {
        ExploreCell {
            node: cell.node,
            area_mm2: cell.area_mm2,
            quantity: cell.quantity,
            integration: cell.integration,
            chiplets: cell.chiplets,
            outcome: cell.outcome,
        }
    }
}

/// The cheapest feasible configuration of one (node, area, quantity)
/// operating point — one row of the §6 takeaway table.
#[derive(Debug, Clone, PartialEq)]
pub struct GridWinner {
    /// Process-node identifier.
    pub node: String,
    /// Total module area in mm².
    pub area_mm2: f64,
    /// Production quantity.
    pub quantity: u64,
    /// The cheapest feasible candidate, or `None` if every configuration
    /// of this operating point was infeasible.
    pub best: Option<Candidate>,
    /// Relative saving of the winner vs the monolithic SoC baseline
    /// (`0.25` = 25 % cheaper); `None` when the SoC cell itself was
    /// infeasible or absent from the grid.
    pub saving_vs_soc_frac: Option<f64>,
}

impl GridWinner {
    /// The saving vs the SoC baseline rendered as a signed percentage of
    /// cost change (`"-13.6%"` = 13.6 % cheaper than the SoC), or `None`
    /// when there is no SoC baseline to compare against.
    pub fn saving_vs_soc_display(&self) -> Option<String> {
        // `+ 0.0` folds the negative zero of a SoC winner to "+0.0%".
        self.saving_vs_soc_frac
            .map(|s| format!("{:+.1}%", -s * 100.0 + 0.0))
    }
}

impl fmt::Display for GridWinner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.best {
            Some(c) => {
                write!(
                    f,
                    "{} / {:.0} mm² / {} units: {} × {} chiplets at {} / unit",
                    self.node, self.area_mm2, self.quantity, c.integration, c.chiplets, c.per_unit
                )?;
                if let Some(saving) = self.saving_vs_soc_display() {
                    write!(f, " ({saving} vs SoC)")?;
                }
                Ok(())
            }
            None => write!(
                f,
                "{} / {:.0} mm² / {} units: no feasible configuration",
                self.node, self.area_mm2, self.quantity
            ),
        }
    }
}

/// The outcome of [`explore`]: a sparse grid store plus the post-processed
/// views, all reading through the lifted portfolio result (single systems
/// *are* the one-scheme, one-flow portfolio grid).
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreResult {
    space: ExploreSpace,
    inner: PortfolioResult,
}

impl ExploreResult {
    /// Wraps the lifted portfolio result of a single-system run.
    pub(crate) fn from_inner(space: &ExploreSpace, inner: PortfolioResult) -> Self {
        ExploreResult {
            space: space.clone(),
            inner,
        }
    }

    /// The space that was explored.
    pub fn space(&self) -> &ExploreSpace {
        &self.space
    }

    /// Every cell materialized in deterministic grid order (node → area →
    /// quantity → integration → chiplet count). On huge grids prefer
    /// [`ExploreResult::iter_cells`] or the artifacts, which stream out of
    /// the sparse store without materializing the grid.
    pub fn cells(&self) -> Vec<ExploreCell> {
        self.iter_cells().collect()
    }

    /// Streams every cell in grid order without materializing the grid.
    pub fn iter_cells(&self) -> impl Iterator<Item = ExploreCell> + '_ {
        self.inner.iter_cells().map(ExploreCell::from_portfolio)
    }

    /// The number of grid cells.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the grid has no cells (never true for a validated space).
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// The number of worker threads the evaluation ran on.
    pub fn threads(&self) -> usize {
        self.inner.threads()
    }

    /// How many full RE/NRE core evaluations the run performed — under the
    /// default cached policy this is the number of distinct (node, area,
    /// integration, chiplet count) geometries, not the number of cells
    /// (the quantity axis amortizes cached cores instead of re-evaluating
    /// them).
    pub fn core_evaluations(&self) -> usize {
        self.inner.core_evaluations()
    }

    /// The cells that were costed successfully, in grid order.
    pub fn feasible(&self) -> impl Iterator<Item = ExploreCell> + '_ {
        self.inner.feasible().map(ExploreCell::from_portfolio)
    }

    /// How many cells were costed successfully.
    pub fn feasible_count(&self) -> usize {
        self.inner.feasible_count()
    }

    /// How many cells were manufacturable in principle but infeasible.
    pub fn infeasible_count(&self) -> usize {
        self.inner.infeasible_count()
    }

    /// How many cells combined contradictory axes (SoC × several chiplets).
    pub fn incompatible_count(&self) -> usize {
        self.inner.incompatible_count()
    }

    /// How many compatible cells a refinement run skipped (always 0 for
    /// exhaustive runs).
    pub fn pruned_count(&self) -> usize {
        self.inner.pruned_count()
    }

    /// The Pareto front over (per-unit cost, chiplet count), minimizing
    /// both: the cheapest way to buy each level of partitioning restraint.
    /// Returned in ascending per-unit-cost order.
    pub fn pareto_front(&self) -> Vec<ExploreCell> {
        self.inner
            .pareto_front(ReuseScheme::None)
            .into_iter()
            .map(ExploreCell::from_portfolio)
            .collect()
    }

    /// The per-(node, area, quantity) winner table: for every operating
    /// point, the cheapest feasible configuration — the paper's §6
    /// takeaways reproduced mechanically at grid scale. Operating points
    /// with no feasible configuration are reported with `best: None`, not
    /// dropped.
    pub fn winners(&self) -> Vec<GridWinner> {
        self.inner
            .winners(ReuseScheme::None)
            .into_iter()
            .map(|w| GridWinner {
                node: w.node,
                area_mm2: w.area_mm2,
                quantity: w.quantity,
                best: w.best.map(|(candidate, _flow)| candidate),
                saving_vs_soc_frac: w.saving_vs_soc_frac,
            })
            .collect()
    }

    /// The Pareto front over (program total, per-unit cost), minimizing
    /// both: program total is the operating point's whole spend at its
    /// quantity (RE plus the amortized NRE share, i.e. per-unit × units),
    /// the decision-relevant trade-off when budgets cap the *program*
    /// rather than the unit price. Returned in ascending program-total
    /// order.
    pub fn pareto_program(&self) -> Vec<ExploreCell> {
        self.inner
            .pareto_program(ReuseScheme::None)
            .into_iter()
            .map(ExploreCell::from_portfolio)
            .collect()
    }

    /// The full grid as a streaming [`Artifact`] named `"grid"`: one row
    /// per cell in grid order, never materialized as one string
    /// (10⁶-cell grids stay memory-flat); byte-identical across thread
    /// counts.
    pub fn grid_artifact(&self) -> Artifact<'_> {
        Artifact::new(
            "grid",
            "grid",
            &[
                "node",
                "area_mm2",
                "quantity",
                "integration",
                "chiplets",
                "status",
                "per_unit_usd",
                "re_per_unit_usd",
                "detail",
            ],
            move |emit| {
                for cell in self.iter_cells() {
                    let (per_unit, re_per_unit) = match cell.outcome.candidate() {
                        Some(c) => (
                            format!("{:.6}", c.per_unit.usd()),
                            format!("{:.6}", c.re_per_unit.usd()),
                        ),
                        None => (String::new(), String::new()),
                    };
                    emit(&[
                        cell.node.clone(),
                        format!("{}", cell.area_mm2),
                        cell.quantity.to_string(),
                        cell.integration.to_string(),
                        cell.chiplets.to_string(),
                        cell.outcome.status().to_string(),
                        per_unit,
                        re_per_unit,
                        cell.outcome.detail(),
                    ])?;
                }
                Ok(())
            },
        )
    }

    /// The winner table as an [`Artifact`] named `"winners"`, one row per
    /// (node, area, quantity) operating point.
    pub fn winners_artifact(&self) -> Artifact<'_> {
        Artifact::new(
            "winners",
            "winners",
            &[
                "node",
                "area_mm2",
                "quantity",
                "integration",
                "chiplets",
                "per_unit_usd",
                "saving_vs_soc",
            ],
            move |emit| {
                for w in self.winners() {
                    let (integration, chiplets, per_unit) = match &w.best {
                        Some(c) => (
                            c.integration.to_string(),
                            c.chiplets.to_string(),
                            format!("{:.6}", c.per_unit.usd()),
                        ),
                        None => (String::new(), String::new(), String::new()),
                    };
                    emit(&[
                        w.node.clone(),
                        format!("{}", w.area_mm2),
                        w.quantity.to_string(),
                        integration,
                        chiplets,
                        per_unit,
                        w.saving_vs_soc_frac
                            .map(|s| format!("{s:.6}"))
                            .unwrap_or_default(),
                    ])?;
                }
                Ok(())
            },
        )
    }

    /// The (per-unit cost, chiplet count) Pareto front as an [`Artifact`]
    /// named `"pareto"`, in ascending per-unit-cost order.
    pub fn pareto_artifact(&self) -> Artifact<'_> {
        Artifact::new(
            "pareto",
            "pareto",
            &[
                "node",
                "area_mm2",
                "quantity",
                "integration",
                "chiplets",
                "per_unit_usd",
            ],
            move |emit| {
                for cell in self.pareto_front() {
                    let c = cell.outcome.candidate().expect("Pareto cells are feasible");
                    emit(&[
                        cell.node.clone(),
                        format!("{}", cell.area_mm2),
                        cell.quantity.to_string(),
                        cell.integration.to_string(),
                        cell.chiplets.to_string(),
                        format!("{:.6}", c.per_unit.usd()),
                    ])?;
                }
                Ok(())
            },
        )
    }

    /// The [`ExploreResult::pareto_program`] front as an [`Artifact`]
    /// named `"pareto_program"`, in ascending program-total order.
    pub fn pareto_program_artifact(&self) -> Artifact<'_> {
        Artifact::new(
            "pareto_program",
            "pareto_program",
            &[
                "node",
                "area_mm2",
                "quantity",
                "integration",
                "chiplets",
                "program_total_usd",
                "per_unit_usd",
            ],
            move |emit| {
                for cell in self.pareto_program() {
                    let c = cell.outcome.candidate().expect("Pareto cells are feasible");
                    emit(&[
                        cell.node.clone(),
                        format!("{}", cell.area_mm2),
                        cell.quantity.to_string(),
                        cell.integration.to_string(),
                        cell.chiplets.to_string(),
                        format!("{:.2}", c.per_unit.usd() * cell.quantity as f64),
                        format!("{:.6}", c.per_unit.usd()),
                    ])?;
                }
                Ok(())
            },
        )
    }
}

impl fmt::Display for ExploreResult {
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
        write!(f, ") on {} thread(s)", self.threads())
    }
}

/// Evaluates every cell of `space` through the cached RE-core engine, on
/// `threads` worker threads (`0` = the machine's available parallelism).
///
/// The pre-expanded work list is dealt to the workers as chunk ranges; a
/// worker that runs dry steals the back half of another's queue, so the
/// split adapts to whatever cells turn out to be slow. Results are
/// reassembled in grid order, making the output independent of the
/// thread count and the steal schedule. One RE/NRE core is evaluated per
/// distinct (node, area, integration, chiplet count) geometry; each cell
/// then reads its per-unit cost at its quantity straight from the core's
/// compiled amortization plan — byte-identical to evaluating every cell
/// from scratch, at a third of the work on the default grid.
///
/// # Errors
///
/// Returns [`ArchError::InvalidArchitecture`] for an invalid space (any
/// empty axis, a zero chiplet count), [`ArchError::Tech`] for an unknown
/// node id, and propagates unexpected engine errors. Per-cell geometric
/// infeasibility is *not* an error — it is recorded in the cell's
/// [`CellOutcome`].
pub fn explore(
    lib: &TechLibrary,
    space: &ExploreSpace,
    threads: usize,
) -> Result<ExploreResult, ArchError> {
    explore_with(lib, space, threads, CorePolicy::Cached)
}

/// [`explore`] under an explicit [`CorePolicy`] — [`CorePolicy::Uncached`]
/// is the evaluate-every-cell reference path the cache is tested against.
///
/// # Errors
///
/// Same conditions as [`explore`].
pub fn explore_with(
    lib: &TechLibrary,
    space: &ExploreSpace,
    threads: usize,
    policy: CorePolicy,
) -> Result<ExploreResult, ArchError> {
    space.validate()?;
    // Resolve every node up front: an unknown id is a caller error, and
    // catching it here keeps the workers infallible on lookups.
    for id in &space.nodes {
        lib.node(id).map_err(ArchError::Tech)?;
    }
    // The portfolio engine with one scheme (standalone systems) and one
    // flow *is* the single-system engine; its grid order (node → area →
    // quantity → integration → chiplets → flow → scheme) degenerates to
    // this module's documented order.
    let lifted = PortfolioSpace::from_single_system(space);
    let result = explore_portfolio_with(lib, &lifted, threads, policy)?;
    Ok(ExploreResult::from_inner(space, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use actuary_units::Quantity;

    fn lib() -> TechLibrary {
        TechLibrary::paper_defaults().unwrap()
    }

    fn small_space() -> ExploreSpace {
        ExploreSpace {
            nodes: vec!["7nm".to_string(), "5nm".to_string()],
            areas_mm2: vec![200.0, 600.0],
            quantities: vec![1_000_000],
            integrations: IntegrationKind::ALL.to_vec(),
            chiplet_counts: vec![1, 2, 3],
            flow: AssemblyFlow::ChipLast,
        }
    }

    #[test]
    fn default_space_has_the_documented_grid() {
        let space = ExploreSpace::default();
        assert_eq!(space.len(), 3 * 9 * 3 * 4 * 5);
        assert!(!space.is_empty());
        space.validate().unwrap();
    }

    #[test]
    fn every_axis_is_validated_independently() {
        let base = small_space();
        let cases: Vec<(ExploreSpace, &str)> = vec![
            (
                ExploreSpace {
                    nodes: vec![],
                    ..base.clone()
                },
                "nodes",
            ),
            (
                ExploreSpace {
                    areas_mm2: vec![],
                    ..base.clone()
                },
                "areas",
            ),
            (
                ExploreSpace {
                    quantities: vec![],
                    ..base.clone()
                },
                "quantities",
            ),
            (
                ExploreSpace {
                    integrations: vec![],
                    ..base.clone()
                },
                "integration kinds",
            ),
            (
                ExploreSpace {
                    chiplet_counts: vec![],
                    ..base.clone()
                },
                "chiplet counts",
            ),
        ];
        for (space, axis) in cases {
            let err = explore(&lib(), &space, 1).expect_err(axis);
            assert!(err.to_string().contains(axis), "{axis}: {err}");
        }
        let zero_count = ExploreSpace {
            chiplet_counts: vec![1, 0],
            ..base
        };
        assert!(explore(&lib(), &zero_count, 1).is_err());
    }

    #[test]
    fn unknown_node_is_a_hard_error() {
        let space = ExploreSpace {
            nodes: vec!["6nm".to_string()],
            ..small_space()
        };
        assert!(explore(&lib(), &space, 1).is_err());
    }

    #[test]
    fn incompatible_reasons_keep_their_historical_text() {
        assert_eq!(
            IncompatibleReason::MonolithicMultiChip {
                integration: IntegrationKind::Soc,
                chiplets: 3,
            }
            .to_string(),
            "monolithic SoC cannot hold 3 chiplets"
        );
        assert_eq!(
            IncompatibleReason::SingleDieMultiChip {
                integration: IntegrationKind::Mcm,
            }
            .to_string(),
            "MCM needs at least 2 chiplets (a single die has no D2D interface)"
        );
        assert_eq!(
            IncompatibleReason::ScmsNonMember {
                family: ScmsFamily::new(&[1, 2, 4]),
                chiplets: 3,
            }
            .to_string(),
            "SCMS family [1, 2, 4] has no 3-chiplet member"
        );
        assert_eq!(
            IncompatibleReason::OcmeNonMember { chiplets: 4 }.to_string(),
            "OCME family (C, C+1X, C+1X+1Y, C+2X+2Y) has no 4-chip member"
        );
        assert_eq!(
            IncompatibleReason::FsmcOverflow {
                sockets: 2,
                chiplets: 4,
            }
            .to_string(),
            "FSMC package has 2 sockets, cannot collocate 4 chiplets"
        );
        // The interned family renders exactly like the Vec debug format the
        // reason always used, and marks oversized lists instead of lying.
        let long: Vec<u32> = (1..=12).collect();
        assert_eq!(
            ScmsFamily::new(&long).to_string(),
            "[1, 2, 3, 4, 5, 6, 7, 8, ...]"
        );
        assert_eq!(ScmsFamily::new(&[2]).to_string(), "[2]");
    }

    #[test]
    fn grid_is_exhaustive_and_in_canonical_order() {
        let lib = lib();
        let space = small_space();
        let result = explore(&lib, &space, 2).unwrap();
        assert_eq!(result.len(), space.len());
        // First block: 7nm, 200 mm², every integration × count in order.
        let cells = result.cells();
        let first = &cells[0];
        assert_eq!(
            (first.node.as_str(), first.integration, first.chiplets),
            ("7nm", IntegrationKind::Soc, 1)
        );
        let second = &cells[1];
        assert_eq!(
            (second.integration, second.chiplets),
            (IntegrationKind::Soc, 2)
        );
        // SoC × {2, 3} and {Mcm, InFO, 2.5D} × 1 cells are recorded as
        // incompatible, never dropped: 2 + 3 per operating point.
        assert_eq!(
            result.incompatible_count(),
            2 * 2 * 5, // nodes × areas × (2 SoC + 3 multi-chip cells each)
        );
        assert_eq!(
            result.feasible_count() + result.infeasible_count() + result.incompatible_count(),
            result.len()
        );
        assert_eq!(result.pruned_count(), 0, "exhaustive runs prune nothing");
    }

    #[test]
    fn oversized_dies_are_recorded_as_infeasible() {
        let space = ExploreSpace {
            nodes: vec!["7nm".to_string()],
            areas_mm2: vec![40_000.0], // larger than a 300 mm wafer
            quantities: vec![1_000_000],
            integrations: vec![IntegrationKind::Soc],
            chiplet_counts: vec![1],
            flow: AssemblyFlow::ChipLast,
        };
        let result = explore(&lib(), &space, 1).unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(result.feasible_count(), 0);
        match &result.cells()[0].outcome {
            CellOutcome::Infeasible(reason) => {
                assert!(!reason.is_empty(), "the engine's reason must be kept")
            }
            other => panic!("expected an infeasible cell, got {other:?}"),
        }
        // The winner table reports the dead operating point instead of
        // dropping it.
        let winners = result.winners();
        assert_eq!(winners.len(), 1);
        assert!(winners[0].best.is_none());
        assert!(winners[0].to_string().contains("no feasible"));
    }

    #[test]
    fn serial_and_parallel_runs_agree_exactly() {
        let lib = lib();
        let space = small_space();
        let serial = explore(&lib, &space, 1).unwrap();
        for threads in [2, 4, 8] {
            let parallel = explore(&lib, &space, threads).unwrap();
            assert_eq!(serial.cells(), parallel.cells(), "threads={threads}");
            assert_eq!(
                serial.grid_artifact().csv(),
                parallel.grid_artifact().csv(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn winners_agree_with_the_single_point_optimizer() {
        use crate::optimizer::{recommend, SearchSpace};
        let lib = lib();
        let space = small_space();
        let result = explore(&lib, &space, 2).unwrap();
        // The same feasible configuration set through `recommend`: the SoC
        // baseline plus all multi-chip kinds × {2, 3} (the grid's
        // single-chiplet multi-chip cells are incompatible, so they add
        // nothing).
        let search = SearchSpace {
            chiplet_counts: vec![2, 3],
            integrations: IntegrationKind::MULTI_CHIP.to_vec(),
            flow: AssemblyFlow::ChipLast,
        };
        for w in result.winners() {
            let rec = recommend(
                &lib,
                &w.node,
                Area::from_mm2(w.area_mm2).unwrap(),
                Quantity::new(w.quantity),
                &search,
            )
            .unwrap();
            let best = w.best.as_ref().expect("small grid is fully feasible");
            assert!(
                (best.per_unit.usd() - rec.per_unit.usd()).abs() < 1e-9,
                "{}/{}/{}: grid {} vs optimizer {}",
                w.node,
                w.area_mm2,
                w.quantity,
                best.per_unit,
                rec.per_unit
            );
        }
    }

    #[test]
    fn pareto_front_contains_the_global_minimum() {
        let result = explore(&lib(), &small_space(), 2).unwrap();
        let front = result.pareto_front();
        assert!(!front.is_empty());
        let global_min = result
            .feasible()
            .map(|c| c.outcome.candidate().unwrap().per_unit)
            .min_by(|a, b| a.partial_cmp(b).unwrap())
            .unwrap();
        assert!(front
            .iter()
            .any(|c| c.outcome.candidate().unwrap().per_unit == global_min));
        // Ascending in cost, strictly improving in chiplet count.
        for pair in front.windows(2) {
            let (a, b) = (
                pair[0].outcome.candidate().unwrap(),
                pair[1].outcome.candidate().unwrap(),
            );
            assert!(a.per_unit <= b.per_unit);
            assert!(pair[0].chiplets > pair[1].chiplets);
        }
    }

    #[test]
    fn csv_shapes_are_machine_readable() {
        let result = explore(&lib(), &small_space(), 2).unwrap();
        let grid = result.grid_artifact().csv();
        let mut lines = grid.lines();
        assert_eq!(
            lines.next().unwrap(),
            "node,area_mm2,quantity,integration,chiplets,status,per_unit_usd,re_per_unit_usd,detail"
        );
        assert_eq!(grid.lines().count(), result.len() + 1);
        let winners = result.winners_artifact().csv();
        assert_eq!(
            winners.lines().next().unwrap(),
            "node,area_mm2,quantity,integration,chiplets,per_unit_usd,saving_vs_soc"
        );
        assert_eq!(winners.lines().count(), 2 * 2 + 1); // operating points + header
        let pareto = result.pareto_artifact().csv();
        assert_eq!(
            pareto.lines().next().unwrap(),
            "node,area_mm2,quantity,integration,chiplets,per_unit_usd"
        );
        assert_eq!(pareto.lines().count(), result.pareto_front().len() + 1);
        // Artifacts carry their metadata for composers (file naming).
        assert_eq!(result.grid_artifact().name(), "grid");
        assert_eq!(result.pareto_program_artifact().kind(), "pareto_program");
    }

    #[test]
    fn program_pareto_trades_program_total_against_per_unit() {
        let space = ExploreSpace {
            quantities: vec![500_000, 2_000_000, 10_000_000],
            ..small_space()
        };
        let result = explore(&lib(), &space, 2).unwrap();
        let front = result.pareto_program();
        assert!(!front.is_empty());
        // Ascending program total, strictly improving per-unit cost: paying
        // a bigger program buys a cheaper unit, or the point is dominated.
        for pair in front.windows(2) {
            let (a, b) = (
                pair[0].outcome.candidate().unwrap(),
                pair[1].outcome.candidate().unwrap(),
            );
            let program =
                |cell: &ExploreCell, c: &Candidate| c.per_unit.usd() * cell.quantity as f64;
            assert!(program(&pair[0], a) <= program(&pair[1], b));
            assert!(a.per_unit > b.per_unit);
        }
        // The globally cheapest per-unit cell is always on the front.
        let global_min = result
            .feasible()
            .map(|c| c.outcome.candidate().unwrap().per_unit)
            .min_by(|a, b| a.partial_cmp(b).unwrap())
            .unwrap();
        assert!(front
            .iter()
            .any(|c| c.outcome.candidate().unwrap().per_unit == global_min));
    }

    #[test]
    fn thread_count_is_clamped_and_reported() {
        let space = ExploreSpace {
            nodes: vec!["7nm".to_string()],
            areas_mm2: vec![200.0],
            quantities: vec![1_000_000],
            integrations: vec![IntegrationKind::Mcm],
            chiplet_counts: vec![2],
            flow: AssemblyFlow::ChipLast,
        };
        let result = explore(&lib(), &space, 64).unwrap();
        assert_eq!(result.threads(), 1, "one cell cannot use 64 threads");
        assert!(result.to_string().contains("1 cells"), "{result}");
    }
}
