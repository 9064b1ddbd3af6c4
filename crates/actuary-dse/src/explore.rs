//! The per-cell outcome vocabulary every exploration grid reports in,
//! and the paper's §6 question as the single-system slice of that grid.
//!
//! [`crate::portfolio::explore_portfolio`] answers "which integration, how
//! many chiplets" over a grid of operating points × (integration, chiplet
//! count, flow, reuse scheme) configurations, pricing each single-system
//! cell from its [`crate::optimizer::candidate_core`]; one operating point
//! is a one-point grid. This is how cost-aware exploration tools (Tang & Xie,
//! arXiv:2206.07308; CATCH, arXiv:2503.15753) derive crossovers and
//! Pareto fronts. A space whose scheme axis is just
//! [`crate::portfolio::ReuseScheme::None`] under one flow *is* the §6
//! single-system grid: reuse is one more axis of the same search space,
//! not a second engine.
//!
//! Every cell ends in a [`CellOutcome`], so grid accounting is
//! loss-free: infeasible cells (die exceeds the wafer, interposer
//! unmanufacturable) and incompatible cells (monolithic SoC × several
//! chiplets, a chiplet count outside a reuse family) are *recorded* with
//! their reason, not silently dropped. Incompatible reasons are interned
//! as a copyable [`IncompatibleReason`] and re-derived from a cell's
//! coordinates on read, so mostly-incompatible grids never materialize a
//! string (or an outcome at all) per dead cell.
//!
//! # Examples
//!
//! ```
//! use actuary_dse::explore::CellOutcome;
//! use actuary_dse::portfolio::{explore_portfolio, PortfolioSpace, ReuseScheme};
//! use actuary_tech::TechLibrary;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = TechLibrary::paper_defaults()?;
//! let space = PortfolioSpace {
//!     nodes: vec!["7nm".to_string()],
//!     areas_mm2: vec![400.0, 800.0],
//!     quantities: vec![2_000_000],
//!     schemes: vec![ReuseScheme::None],
//!     ..PortfolioSpace::default()
//! };
//! let result = explore_portfolio(&lib, &space, 2)?;
//! assert_eq!(result.len(), 2 * 4 * 5); // areas × integrations × counts
//! // SoC × 2..=5 chiplets and each multi-chip kind × 1 chiplet are
//! // recorded per operating point, not dropped.
//! assert_eq!(result.incompatible_count(), 2 * (4 + 3));
//! let first = &result.cells()[0];
//! assert!(matches!(first.outcome, CellOutcome::Feasible(_)));
//! # Ok(())
//! # }
//! ```

use std::fmt;

use actuary_tech::IntegrationKind;

use crate::optimizer::Candidate;

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

impl IncompatibleReason {
    /// Why a single system cannot be `integration` × `chiplets`: a
    /// monolithic integration holds exactly one die, a multi-chip one at
    /// least two. The one single-system rule, shared by the grid's `none`
    /// scheme and the CLI's one-system commands.
    pub fn single_system(integration: IntegrationKind, chiplets: u32) -> Option<Self> {
        if !integration.is_multi_chip() && chiplets != 1 {
            return Some(IncompatibleReason::MonolithicMultiChip {
                integration,
                chiplets,
            });
        }
        if integration.is_multi_chip() && chiplets < 2 {
            return Some(IncompatibleReason::SingleDieMultiChip { integration });
        }
        None
    }
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
    #[cfg(test)]
    pub(crate) fn status(&self) -> &'static str {
        match self {
            CellOutcome::Feasible(_) => "feasible",
            CellOutcome::Infeasible(_) => "infeasible",
            CellOutcome::Incompatible(_) => "incompatible",
            CellOutcome::Pruned => "pruned",
        }
    }

    /// The recorded reason for a cell that was not costed.
    #[cfg(test)]
    pub(crate) fn detail(&self) -> String {
        match self {
            CellOutcome::Feasible(_) => String::new(),
            CellOutcome::Infeasible(reason) => reason.clone(),
            CellOutcome::Incompatible(reason) => reason.to_string(),
            CellOutcome::Pruned => PRUNED_DETAIL.to_string(),
        }
    }
}

/// The columns a single-system grid's artifacts leave out: with `none`
/// as its only scheme and one flow, the `scheme`, `scheme_params` and
/// `flow` columns carry nothing (see
/// [`actuary_units::Artifact::without_columns`]).
pub const SINGLE_SYSTEM_DROPPED: [&str; 3] = ["scheme", "scheme_params", "flow"];

/// The grid's `detail` text of a cell coarse-to-fine refinement skipped.
pub(crate) const PRUNED_DETAIL: &str = "not evaluated (pruned by coarse-to-fine refinement)";

#[cfg(test)]
mod tests {
    //! The §6 single-system grid, pinned as the `none` slice of the
    //! portfolio engine.

    use super::*;
    use crate::optimizer::candidate_core;
    use crate::portfolio::{explore_portfolio, PortfolioCell, PortfolioSpace, ReuseScheme};
    use actuary_model::AssemblyFlow;
    use actuary_tech::TechLibrary;
    use actuary_units::{Area, Quantity};

    fn lib() -> TechLibrary {
        TechLibrary::paper_defaults().unwrap()
    }

    fn small_space() -> PortfolioSpace {
        PortfolioSpace {
            nodes: vec!["7nm".to_string(), "5nm".to_string()],
            areas_mm2: vec![200.0, 600.0],
            quantities: vec![1_000_000],
            integrations: IntegrationKind::ALL.to_vec(),
            chiplet_counts: vec![1, 2, 3],
            flows: vec![AssemblyFlow::ChipLast],
            schemes: vec![ReuseScheme::None],
            ..PortfolioSpace::default()
        }
    }

    #[test]
    fn default_space_has_the_documented_grid() {
        let space = PortfolioSpace {
            schemes: vec![ReuseScheme::None],
            ..PortfolioSpace::default()
        };
        assert_eq!(space.len(), 3 * 9 * 3 * 4 * 5);
        assert_eq!(space.flows, [AssemblyFlow::ChipLast]);
        space.validate().unwrap();
    }

    #[test]
    fn every_axis_is_validated_independently() {
        let base = small_space();
        let cases: Vec<(PortfolioSpace, &str)> = vec![
            (
                PortfolioSpace {
                    areas_mm2: vec![],
                    ..base.clone()
                },
                "areas",
            ),
            (
                PortfolioSpace {
                    quantities: vec![],
                    ..base.clone()
                },
                "quantities",
            ),
            (
                PortfolioSpace {
                    integrations: vec![],
                    ..base.clone()
                },
                "integration kinds",
            ),
            (
                PortfolioSpace {
                    chiplet_counts: vec![],
                    ..base.clone()
                },
                "chiplet counts",
            ),
        ];
        for (space, axis) in cases {
            let err = explore_portfolio(&lib(), &space, 1).expect_err(axis);
            assert!(err.to_string().contains(axis), "{axis}: {err}");
        }
        let zero_count = PortfolioSpace {
            chiplet_counts: vec![1, 0],
            ..base
        };
        assert!(explore_portfolio(&lib(), &zero_count, 1).is_err());
    }

    #[test]
    fn unknown_node_is_a_hard_error() {
        let space = PortfolioSpace {
            nodes: vec!["6nm".to_string()],
            ..small_space()
        };
        assert!(explore_portfolio(&lib(), &space, 1).is_err());
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
        let result = explore_portfolio(&lib, &space, 2).unwrap();
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
        let space = PortfolioSpace {
            nodes: vec!["7nm".to_string()],
            areas_mm2: vec![40_000.0], // larger than a 300 mm wafer
            quantities: vec![1_000_000],
            integrations: vec![IntegrationKind::Soc],
            chiplet_counts: vec![1],
            ..small_space()
        };
        let result = explore_portfolio(&lib(), &space, 1).unwrap();
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
        let winners = result.winners(ReuseScheme::None);
        assert_eq!(winners.len(), 1);
        assert!(winners[0].best.is_none());
        assert!(winners[0].to_string().contains("no feasible"));
    }

    #[test]
    fn serial_and_parallel_runs_agree_exactly() {
        let lib = lib();
        let space = small_space();
        let serial = explore_portfolio(&lib, &space, 1).unwrap();
        for threads in [2, 4, 8] {
            let parallel = explore_portfolio(&lib, &space, threads).unwrap();
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
        // The single-point answer is the cheapest compatible configuration,
        // each priced by its own `candidate_core`. Infeasible operating
        // points included: 40,000 mm² exceeds the wafer at every count.
        let lib = lib();
        let space = PortfolioSpace {
            nodes: vec!["14nm".into(), "7nm".into(), "5nm".into(), "3nm".into()],
            areas_mm2: vec![100.0, 400.0, 800.0, 1_200.0, 40_000.0],
            quantities: vec![1, 100_000, 2_000_000, 100_000_000],
            chiplet_counts: vec![1, 2, 3, 4, 5],
            ..small_space()
        };
        let result = explore_portfolio(&lib, &space, 2).unwrap();
        for w in result.winners(ReuseScheme::None) {
            // Every compatible configuration priced through its own core,
            // in grid order; the first strict minimum wins.
            let mut best: Option<Candidate> = None;
            let mut soc = None;
            for &kind in &space.integrations {
                for &n in &space.chiplet_counts {
                    if IncompatibleReason::single_system(kind, n).is_some() {
                        continue;
                    }
                    let area = Area::from_mm2(w.area_mm2).unwrap();
                    let Ok(core) =
                        candidate_core(&lib, &w.node, area, kind, n, AssemblyFlow::ChipLast)
                    else {
                        continue;
                    };
                    let c = core.at_quantity(Quantity::new(w.quantity));
                    if kind == IntegrationKind::Soc {
                        soc = Some(c.per_unit.usd());
                    }
                    if best.as_ref().is_none_or(|b| c.per_unit < b.per_unit) {
                        best = Some(c);
                    }
                }
            }
            let at = format!("{}/{}/{}", w.node, w.area_mm2, w.quantity);
            assert_eq!(w.best.as_ref().map(|(c, _)| c), best.as_ref(), "{at}");
            let saving = best.zip(soc).map(|(b, s)| (s - b.per_unit.usd()) / s);
            assert_eq!(
                w.saving_vs_soc_frac.map(f64::to_bits),
                saving.map(f64::to_bits),
                "{at}"
            );
        }
    }

    #[test]
    fn pareto_front_contains_the_global_minimum() {
        let result = explore_portfolio(&lib(), &small_space(), 2).unwrap();
        let front = result.pareto_front(ReuseScheme::None);
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
        // Without the scheme and flow axes, the `none` slice's artifacts
        // carry the historical single-system columns.
        const SLICE: [&str; 3] = SINGLE_SYSTEM_DROPPED;
        let result = explore_portfolio(&lib(), &small_space(), 2).unwrap();
        let grid = result.grid_artifact().without_columns(&SLICE).csv();
        let mut lines = grid.lines();
        assert_eq!(
            lines.next().unwrap(),
            "node,area_mm2,quantity,integration,chiplets,status,per_unit_usd,re_per_unit_usd,detail"
        );
        assert_eq!(grid.lines().count(), result.len() + 1);
        let winners = result.winners_artifact().without_columns(&SLICE).csv();
        assert_eq!(
            winners.lines().next().unwrap(),
            "node,area_mm2,quantity,integration,chiplets,per_unit_usd,saving_vs_soc"
        );
        assert_eq!(winners.lines().count(), 2 * 2 + 1); // operating points + header
        let pareto = result.pareto_artifact().without_columns(&SLICE).csv();
        assert_eq!(
            pareto.lines().next().unwrap(),
            "node,area_mm2,quantity,integration,chiplets,per_unit_usd"
        );
        assert_eq!(
            pareto.lines().count(),
            result.pareto_front(ReuseScheme::None).len() + 1
        );
        // Artifacts carry their metadata for composers (file naming).
        assert_eq!(
            result.grid_artifact().without_columns(&SLICE).name(),
            "grid"
        );
        assert_eq!(
            result
                .pareto_program_artifact()
                .without_columns(&SLICE)
                .kind(),
            "pareto_program"
        );
    }

    #[test]
    fn program_pareto_trades_program_total_against_per_unit() {
        let space = PortfolioSpace {
            quantities: vec![500_000, 2_000_000, 10_000_000],
            ..small_space()
        };
        let result = explore_portfolio(&lib(), &space, 2).unwrap();
        let front = result.pareto_program(ReuseScheme::None);
        assert!(!front.is_empty());
        // Ascending program total, strictly improving per-unit cost: paying
        // a bigger program buys a cheaper unit, or the point is dominated.
        for pair in front.windows(2) {
            let (a, b) = (
                pair[0].outcome.candidate().unwrap(),
                pair[1].outcome.candidate().unwrap(),
            );
            let program =
                |cell: &PortfolioCell, c: &Candidate| c.per_unit.usd() * cell.quantity as f64;
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
        let space = PortfolioSpace {
            nodes: vec!["7nm".to_string()],
            areas_mm2: vec![200.0],
            quantities: vec![1_000_000],
            integrations: vec![IntegrationKind::Mcm],
            chiplet_counts: vec![2],
            ..small_space()
        };
        let result = explore_portfolio(&lib(), &space, 64).unwrap();
        assert_eq!(result.threads(), 1, "one cell cannot use 64 threads");
        assert!(result.to_string().contains("1 cells"), "{result}");
    }
}
