//! Certified coarse-to-fine refinement: the exhaustive engine's winner
//! tables and Pareto fronts from a fraction of its evaluations, with a
//! proof that no skipped cell could have changed them.
//!
//! The exhaustive engine ([`crate::portfolio::explore_portfolio`]) prices
//! every cell of the axis product. The paper's successors explore spaces
//! where that product reaches 10⁸ cells (Tang & Xie, arXiv:2206.07308;
//! CATCH, arXiv:2503.15753), and at that scale a pruned answer is only
//! trustworthy with a certificate. This module prices whole *columns* —
//! one configuration (integration × chiplet count × flow × scheme
//! variant) at one (node, area), at every quantity — and bisects the
//! ordered area axis in waves:
//!
//! 1. **wave 0** prices the first and last area of every node in full;
//! 2. **each later wave** prices the midpoint of every open gap
//!    `(lo, hi)` between priced areas, all midpoints of a level in one
//!    engine call. At a midpoint it prices only the configurations `c`
//!    with `L_c(q) ≤ U_s(q)·(1 + 10⁻⁹)` at some quantity `q`, where `L_c`
//!    is `c`'s cost at its nearest priced area ≤ `lo` and `U_s` is the
//!    minimum cost of `c`'s scheme at `hi`. A configuration that is
//!    infeasible at that lower anchor is skipped, and each survivor
//!    brings along its SoC companion — the cell a winner row's
//!    `saving_vs_soc` is quoted against.
//!
//! Skipped cells are recorded as [`CellOutcome::Pruned`] in the sparse
//! result; counts, artifacts and grid order are unchanged.
//!
//! # Why it is exact
//!
//! The paper's cost model rises with area: Eq. (1) yield falls, and
//! wafer, NRE and package cost grow as a die gets bigger. Refinement
//! rests on two premises, which `tests/proptest_invariants.rs` checks
//! over random technology overlays:
//!
//! 1. for a fixed node, configuration and quantity, per-unit cost never
//!    falls as area grows;
//! 2. infeasibility is upward-closed in area.
//!
//! By induction from wave 0, every priced area prices its own winners, so
//! `U_s(q)` is the true minimum at `hi`. The configuration achieving it
//! is feasible at the midpoint and no costlier there, so `U_s(q)` is at
//! least the midpoint's minimum. A skipped configuration costs at least
//! `L_c(q) > U_s(q)` at the midpoint, or is infeasible there: at every
//! quantity it is strictly costlier than some other configuration, so it
//! can neither win nor tie, and the first-in-grid-order tie rule sees
//! exactly the candidates exhaustion sees — which carries the induction
//! to the midpoint. Both Pareto fronts sit at the smallest area, which
//! wave 0 prices in full: every cell is weakly dominated by its own
//! configuration there, and that cell comes first in grid order. The
//! winner tables and both fronts are therefore byte-identical to
//! exhaustion, and every priced grid row equals its exhaustive row; only
//! which rows read `pruned` differs.
//!
//! The quantity axis is never pruned: amortizing a priced column at
//! every quantity costs little next to evaluating its core.
//!
//! # Streaming
//!
//! [`explore_portfolio_refined`] is the plain entry point;
//! [`explore_portfolio_refined_observed`] adds a cross-call core cache and
//! a wave observer that receives each wave's own result, whose sparse
//! store is exactly the cells that wave priced — `actuary serve` renders
//! it with [`PortfolioResult::grid_stored_artifact`] to stream a refined
//! grid while the run converges (see `docs/http-api.md`). Each priced
//! (node, area) point keeps its wave's cells, and the final store is the
//! points joined in (node, area) order: grid order without a sort.
//!
//! # Examples
//!
//! ```
//! use actuary_dse::portfolio::{explore_portfolio, PortfolioSpace, ReuseScheme};
//! use actuary_dse::refine::explore_portfolio_refined;
//! use actuary_tech::TechLibrary;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = TechLibrary::paper_defaults()?;
//! let space = PortfolioSpace {
//!     nodes: vec!["7nm".to_string()],
//!     areas_mm2: (1..=30).map(|i| f64::from(i) * 30.0).collect(),
//!     quantities: vec![2_000_000],
//!     schemes: vec![ReuseScheme::None],
//!     ..PortfolioSpace::default()
//! };
//! let refined = explore_portfolio_refined(&lib, &space, 2)?;
//! let exhaustive = explore_portfolio(&lib, &space, 2)?;
//! assert_eq!(refined.winners_artifact().csv(), exhaustive.winners_artifact().csv());
//! // Pruned cells are accounted for, never silently dropped.
//! assert!(refined.pruned_count() > 0);
//! assert_eq!(
//!     refined.feasible_count()
//!         + refined.infeasible_count()
//!         + refined.incompatible_count()
//!         + refined.pruned_count(),
//!     refined.len()
//! );
//! # Ok(())
//! # }
//! ```

use std::fmt;

use actuary_arch::ArchError;
use actuary_tech::{IntegrationKind, TechLibrary};

use crate::engine::resolve_threads;
use crate::explore::CellOutcome;
use crate::portfolio::{
    explore_portfolio_impl, CorePolicy, GridShape, PortfolioResult, PortfolioSpace, ReuseScheme,
    Selection, SharedCoreCache,
};

/// Relative slack on the pruning bound: f64 rounding in a cost that is
/// monotone in exact arithmetic must never let the bound skip a winner.
const SLACK: f64 = 1e-9;

/// How an exploration request walks its grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreMode {
    /// Evaluate every cell (the reference path).
    Exhaustive,
    /// Certified bisection over the area axis (this module).
    Refine,
}

impl ExploreMode {
    /// Stable lower-case label (used on the CLI and in scenario files).
    pub fn label(self) -> &'static str {
        match self {
            ExploreMode::Exhaustive => "exhaustive",
            ExploreMode::Refine => "refine",
        }
    }
}

impl fmt::Display for ExploreMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for ExploreMode {
    type Err = String;

    /// Parses the user-facing mode grammar (case-insensitive) — the single
    /// definition the CLI flag and the scenario schema both use.
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "exhaustive" => Ok(ExploreMode::Exhaustive),
            "refine" | "refined" => Ok(ExploreMode::Refine),
            other => Err(format!(
                "unknown explore mode {other:?} (exhaustive|refine)"
            )),
        }
    }
}

/// A wave callback for [`explore_portfolio_refined_observed`]: receives
/// each wave's own result, whose sparse store holds exactly the cells
/// that wave priced (every other cell reads as pruned or incompatible;
/// [`PortfolioResult::grid_stored_artifact`] renders the priced rows).
/// Returning `false` aborts the run — the streaming server uses this when
/// a client hangs up mid-response.
pub type RefineObserver<'o> = dyn FnMut(&PortfolioResult) -> bool + 'o;

/// A priced column: the configuration's per-unit cost at every quantity,
/// or `None` when it is infeasible at that (node, area).
type Column = Option<Vec<f64>>;

/// What refinement keeps of one priced (node, area) point.
struct Point {
    /// The cells its wave priced, in grid order.
    cells: Vec<(usize, CellOutcome)>,
    /// The priced configurations' columns, by block offset.
    columns: Vec<(usize, Column)>,
    /// Per scheme (position in `space.schemes`): the cheapest priced cost
    /// at every quantity, `INFINITY` where no configuration is feasible.
    best: Vec<Vec<f64>>,
}

/// The bisection state: every priced point, plus the per-configuration
/// facts the bound needs.
struct Refiner {
    shape: GridShape,
    schemes: usize,
    /// Per block offset: the position of its scheme in `space.schemes`.
    scheme_of: Vec<usize>,
    /// Per block offset: its SoC companion's offset — the same scheme
    /// variant and flow under the SoC integration, at the same chiplet
    /// count (1 for `none`) — when the axes contain it.
    companion: Vec<Option<usize>>,
    /// Per node, per area: the point, once priced.
    points: Vec<Vec<Option<Point>>>,
}

impl Refiner {
    fn new(space: &PortfolioSpace) -> Self {
        let variants = space.scheme_variants();
        let shape = GridShape::of(space, variants.len());
        let soc = space
            .integrations
            .iter()
            .position(|&k| k == IntegrationKind::Soc);
        let one = space.chiplet_counts.iter().position(|&c| c == 1);
        let (scheme_of, companion) = (0..shape.block())
            .map(|off| {
                // A block offset decodes like the first operating point's
                // flat index.
                let c = shape.coords(off);
                let variant = &variants[c.variant];
                let scheme = space
                    .schemes
                    .iter()
                    .position(|&s| s == variant.scheme)
                    .expect("variants come from the scheme axis");
                let chiplets = match variant.scheme {
                    ReuseScheme::None => one,
                    _ => Some(c.chiplets),
                };
                let companion = soc.zip(chiplets).map(|(soc, chiplets)| {
                    ((soc * shape.chiplets + chiplets) * shape.flows + c.flow) * shape.variants
                        + c.variant
                });
                (scheme, companion)
            })
            .unzip();
        Refiner {
            shape,
            schemes: space.schemes.len(),
            scheme_of,
            companion,
            points: (0..shape.nodes)
                .map(|_| (0..shape.areas).map(|_| None).collect())
                .collect(),
        }
    }

    /// Wave 0: the first and last area of every node, every configuration.
    fn first_wave(&self) -> Selection {
        let last = self.shape.areas - 1;
        (0..self.shape.nodes)
            .flat_map(|n| [(n, 0), (n, last)])
            .map(|point| (point, vec![true; self.shape.block()]))
            .collect()
    }

    /// Moves the cells `wave` priced at each point of `selection` into
    /// that point, with their columns and each scheme's best cost.
    fn absorb(&mut self, selection: &Selection, wave: PortfolioResult) {
        let (quantities, block) = (self.shape.quantities, self.shape.block());
        let mut rest = wave.into_stored().into_iter().peekable();
        // Selection keys ascend in the node → area order of flat indices.
        for &(n, a) in selection.keys() {
            let end = (n * self.shape.areas + a + 1) * quantities * block;
            let cells: Vec<(usize, CellOutcome)> =
                std::iter::from_fn(|| rest.next_if(|(i, _)| *i < end)).collect();
            let mut slot = vec![usize::MAX; block];
            let mut columns: Vec<(usize, Column)> = Vec::new();
            for (i, outcome) in &cells {
                let (q, off) = ((i / block) % quantities, i % block);
                if slot[off] == usize::MAX {
                    slot[off] = columns.len();
                    columns.push((off, outcome.is_feasible().then(|| vec![0.0; quantities])));
                }
                if let (Some(costs), Some(c)) = (&mut columns[slot[off]].1, outcome.candidate()) {
                    costs[q] = c.per_unit.usd();
                }
            }
            let mut best = vec![vec![f64::INFINITY; quantities]; self.schemes];
            for (off, column) in &columns {
                if let Some(costs) = column {
                    for (b, &c) in best[self.scheme_of[*off]].iter_mut().zip(costs) {
                        *b = b.min(c);
                    }
                }
            }
            self.points[n][a] = Some(Point {
                cells,
                columns,
                best,
            });
        }
    }

    /// The next wave: the midpoint of every open gap between priced
    /// areas, each with the configurations the bound cannot exclude.
    fn next_wave(&self) -> Selection {
        let mut wave = Selection::new();
        for (n, points) in self.points.iter().enumerate() {
            // Each configuration's column at its nearest priced area so far.
            let mut anchor: Vec<Option<&Column>> = vec![None; self.shape.block()];
            let mut lo = None;
            for (a, point) in points.iter().enumerate() {
                let Some(point) = point else { continue };
                if let Some(lo) = lo.filter(|&lo| a - lo > 1) {
                    wave.insert((n, lo + (a - lo) / 2), self.survivors(&anchor, &point.best));
                }
                for (off, column) in &point.columns {
                    anchor[*off] = Some(column);
                }
                lo = Some(a);
            }
        }
        wave
    }

    /// The mask of configurations whose lower bound (`anchor`) reaches
    /// their scheme's upper bound (`upper`) at some quantity, plus their
    /// SoC companions.
    fn survivors(&self, anchor: &[Option<&Column>], upper: &[Vec<f64>]) -> Vec<bool> {
        let mut mask = vec![false; anchor.len()];
        for (off, column) in anchor.iter().enumerate() {
            // Incompatible (never priced), or infeasible at its anchor and
            // therefore at every larger area.
            let Some(Some(lower)) = column else { continue };
            let bound = &upper[self.scheme_of[off]];
            if lower
                .iter()
                .zip(bound)
                .any(|(&l, &u)| l <= u * (1.0 + SLACK))
            {
                mask[off] = true;
                if let Some(companion) = self.companion[off] {
                    mask[companion] = true;
                }
            }
        }
        mask
    }
}

/// Explores `space` by certified bisection over the area axis: the
/// refinement twin of [`crate::portfolio::explore_portfolio`], returning
/// the same sparse result type with skipped cells recorded as
/// [`CellOutcome::Pruned`].
///
/// # Errors
///
/// Everything [`crate::portfolio::explore_portfolio`] raises, plus
/// [`ArchError::InvalidArchitecture`] when the area or quantity axis is
/// not strictly increasing (the bound walks both as ordered axes).
pub fn explore_portfolio_refined(
    lib: &TechLibrary,
    space: &PortfolioSpace,
    threads: usize,
) -> Result<PortfolioResult, ArchError> {
    explore_portfolio_refined_observed(lib, space, threads, None, None)
}

/// The full-control refinement entry: an optional cross-call core cache
/// and an optional per-wave [`RefineObserver`] (the streaming hook). With
/// a cache, every wave consults it under the given library `tag` (see
/// [`crate::portfolio::explore_portfolio_shared`]), so overlapping
/// requests skip straight to amortization. [`explore_portfolio_refined`]
/// is this entry without either.
///
/// # Errors
///
/// See [`explore_portfolio_refined`]; additionally fails when the
/// observer returns `false` (the run is abandoned after that wave).
pub fn explore_portfolio_refined_observed(
    lib: &TechLibrary,
    space: &PortfolioSpace,
    threads: usize,
    shared: Option<(&SharedCoreCache, [u8; 32])>,
    mut observer: Option<&mut RefineObserver<'_>>,
) -> Result<PortfolioResult, ArchError> {
    space.validate()?;
    if !space.areas_mm2.windows(2).all(|w| w[0] < w[1]) {
        return Err(ArchError::InvalidArchitecture {
            reason: "coarse-to-fine refinement requires a strictly increasing areas_mm2 axis"
                .to_string(),
        });
    }
    if !space.quantities.windows(2).all(|w| w[0] < w[1]) {
        return Err(ArchError::InvalidArchitecture {
            reason: "coarse-to-fine refinement requires a strictly increasing quantities axis"
                .to_string(),
        });
    }
    let mut refiner = Refiner::new(space);
    let mut core_evaluations = 0;
    let mut waves = 0u64;
    let mut phase = "refine.coarse";
    let mut selection = refiner.first_wave();
    while !selection.is_empty() {
        // One span per wave; watch them with `--log-level debug` or via
        // the `actuary_engine_phase_seconds` histogram on `/metricsz`.
        let mut span = actuary_obs::span!(phase);
        let wave = explore_portfolio_impl(
            lib,
            space,
            threads,
            CorePolicy::Cached,
            shared,
            Some(&selection),
        )?;
        span.record("points", selection.len() as u64);
        span.record("cells", wave.evaluated_cells() as u64);
        span.record("core_evaluations", wave.core_evaluations() as u64);
        drop(span);
        core_evaluations += wave.core_evaluations();
        waves += 1;
        if let Some(observe) = observer.as_mut() {
            if !observe(&wave) {
                return Err(ArchError::InvalidArchitecture {
                    reason: "refinement aborted: the wave observer declined to continue"
                        .to_string(),
                });
            }
        }
        refiner.absorb(&selection, wave);
        phase = "refine.bisect";
        selection = refiner.next_wave();
    }

    // Every point's cells are in grid order and points cover disjoint
    // stretches of it, so joining them in (node, area) order is the store.
    let points: Vec<Point> = refiner.points.into_iter().flatten().flatten().collect();
    let cells: usize = points.iter().map(|point| point.cells.len()).sum();
    if actuary_obs::log::enabled(actuary_obs::log::Level::Debug) {
        let columns: usize = points.iter().map(|point| point.columns.len()).sum();
        actuary_obs::log::event(
            actuary_obs::log::Level::Debug,
            "refine.summary",
            &[
                ("waves", waves.into()),
                ("columns", columns.into()),
                ("cells", cells.into()),
                ("core_evaluations", core_evaluations.into()),
            ],
        );
    }
    let mut store = Vec::with_capacity(cells);
    for point in points {
        store.extend(point.cells);
    }
    Ok(PortfolioResult::from_parts(
        space,
        resolve_threads(threads, space.len()),
        core_evaluations,
        store,
    ))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::portfolio::explore_portfolio;
    use actuary_model::AssemblyFlow;

    fn lib() -> TechLibrary {
        TechLibrary::paper_defaults().unwrap()
    }

    /// A 16-area ramp across every scheme: large enough for real gaps,
    /// small enough to exhaust as the reference.
    fn ramp_space() -> PortfolioSpace {
        PortfolioSpace {
            nodes: vec!["7nm".to_string()],
            areas_mm2: (1..=16).map(|i| f64::from(i) * 60.0).collect(),
            quantities: vec![500_000, 10_000_000],
            integrations: IntegrationKind::ALL.to_vec(),
            chiplet_counts: vec![1, 2, 3, 4, 5],
            flows: vec![AssemblyFlow::ChipLast],
            schemes: ReuseScheme::ALL.to_vec(),
            ..PortfolioSpace::default()
        }
    }

    /// A quantity-heavy ramp crossing the §4.2 crossover band: winners
    /// flip along the quantity axis too, which the bound must carry.
    fn quantity_ramp_space() -> PortfolioSpace {
        PortfolioSpace {
            nodes: vec!["7nm".to_string()],
            areas_mm2: (1..=8).map(|i| f64::from(i) * 100.0).collect(),
            quantities: (1..=12).map(|i| i * 1_000_000).collect(),
            integrations: IntegrationKind::ALL.to_vec(),
            chiplet_counts: vec![1, 2, 3, 4],
            flows: vec![AssemblyFlow::ChipLast],
            schemes: vec![ReuseScheme::None, ReuseScheme::Scms],
            ..PortfolioSpace::default()
        }
    }

    #[test]
    fn mode_labels_round_trip() {
        assert_eq!("refine".parse::<ExploreMode>(), Ok(ExploreMode::Refine));
        assert_eq!(
            "Exhaustive".parse::<ExploreMode>(),
            Ok(ExploreMode::Exhaustive)
        );
        assert_eq!(ExploreMode::Refine.to_string(), "refine");
        assert!("adaptive".parse::<ExploreMode>().is_err());
    }

    #[test]
    fn refinement_requires_an_ordered_area_axis() {
        let space = PortfolioSpace {
            areas_mm2: vec![400.0, 200.0],
            ..ramp_space()
        };
        let err = explore_portfolio_refined(&lib(), &space, 1).unwrap_err();
        assert!(
            err.to_string().contains("strictly increasing areas_mm2"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn refinement_requires_an_ordered_quantity_axis() {
        let space = PortfolioSpace {
            quantities: vec![10_000_000, 500_000],
            ..ramp_space()
        };
        let err = explore_portfolio_refined(&lib(), &space, 1).unwrap_err();
        assert!(
            err.to_string().contains("strictly increasing quantities"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn refined_winners_and_fronts_match_exhaustion_across_strides_and_threads() {
        let lib = lib();
        for (name, space) in [
            ("ramp", ramp_space()),
            ("quantity ramp", quantity_ramp_space()),
        ] {
            let exhaustive = explore_portfolio(&lib, &space, 1).unwrap();
            for threads in [1, 4] {
                let refined = explore_portfolio_refined(&lib, &space, threads).unwrap();
                assert_eq!(refined.len(), exhaustive.len());
                assert_eq!(
                    refined.winners_artifact().csv(),
                    exhaustive.winners_artifact().csv(),
                    "{name}, threads={threads}: winner tables must be byte-identical"
                );
                assert_eq!(
                    refined.pareto_artifact().csv(),
                    exhaustive.pareto_artifact().csv(),
                    "{name}, threads={threads}: Pareto fronts must be byte-identical"
                );
                assert_eq!(
                    refined.pareto_program_artifact().csv(),
                    exhaustive.pareto_program_artifact().csv(),
                    "{name}, threads={threads}"
                );
                assert!(
                    refined.pruned_count() > 0,
                    "{name}, threads={threads}: refinement must prune"
                );
                // Every cell accounted for: evaluated + re-derived + pruned.
                assert_eq!(
                    refined.feasible_count()
                        + refined.infeasible_count()
                        + refined.incompatible_count()
                        + refined.pruned_count(),
                    refined.len(),
                    "{name}, threads={threads}"
                );
            }
        }
    }

    #[test]
    fn refinement_is_thread_count_independent() {
        let lib = lib();
        let space = quantity_ramp_space();
        let serial = explore_portfolio_refined(&lib, &space, 1).unwrap();
        let parallel = explore_portfolio_refined(&lib, &space, 4).unwrap();
        // The refinement decisions (and therefore the evaluated set, the
        // grid CSV and the pruned accounting) must not depend on threads.
        assert_eq!(serial.grid_artifact().csv(), parallel.grid_artifact().csv());
        assert_eq!(serial.pruned_count(), parallel.pruned_count());
        assert_eq!(serial.core_evaluations(), parallel.core_evaluations());
    }

    #[test]
    fn tiny_axes_fall_back_to_exhaustion() {
        let lib = lib();
        let space = PortfolioSpace {
            areas_mm2: vec![200.0, 800.0],
            ..ramp_space()
        };
        let refined = explore_portfolio_refined(&lib, &space, 1).unwrap();
        let exhaustive = explore_portfolio(&lib, &space, 1).unwrap();
        assert_eq!(
            refined.grid_artifact().csv(),
            exhaustive.grid_artifact().csv()
        );
        assert_eq!(refined.pruned_count(), 0);
    }

    /// The flat indices of the cells a result priced (its sparse store).
    fn priced(result: &PortfolioResult) -> Vec<usize> {
        result
            .iter_cells()
            .enumerate()
            .filter(|(_, cell)| {
                !matches!(
                    cell.outcome,
                    CellOutcome::Pruned | CellOutcome::Incompatible(_)
                )
            })
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn observer_sees_every_stored_cell_in_phase_order() {
        let lib = lib();
        let space = quantity_ramp_space();
        let mut waves = 0;
        let mut streamed: BTreeSet<usize> = BTreeSet::new();
        let mut observer = |wave: &PortfolioResult| {
            waves += 1;
            assert_eq!(wave.len(), space.len());
            // A wave's result holds exactly the cells the wave priced, and
            // its stored-rows segment renders each of them once.
            let fresh = priced(wave);
            assert_eq!(fresh.len(), wave.evaluated_cells());
            assert_eq!(
                wave.grid_stored_artifact().csv().lines().count(),
                fresh.len() + 1
            );
            for i in fresh {
                assert!(streamed.insert(i), "cell {i} streamed twice");
            }
            true
        };
        let result =
            explore_portfolio_refined_observed(&lib, &space, 2, None, Some(&mut observer)).unwrap();
        // Eight areas: {0, 7}, then 3, then {1, 5}, then {2, 4, 6}.
        assert_eq!(waves, 4);
        let stored: BTreeSet<usize> = priced(&result).into_iter().collect();
        assert_eq!(
            streamed, stored,
            "the streamed waves union to exactly the stored cells"
        );
    }

    #[test]
    fn observer_abort_stops_the_run() {
        let lib = lib();
        let space = quantity_ramp_space();
        let mut observer = |_: &PortfolioResult| false;
        let err = explore_portfolio_refined_observed(&lib, &space, 1, None, Some(&mut observer))
            .unwrap_err();
        assert!(
            err.to_string().contains("aborted"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn single_system_refinement_matches_explore() {
        let lib = lib();
        let space = PortfolioSpace {
            nodes: vec!["14nm".to_string(), "5nm".to_string()],
            areas_mm2: (1..=12).map(|i| f64::from(i) * 80.0).collect(),
            quantities: vec![500_000, 10_000_000],
            integrations: IntegrationKind::ALL.to_vec(),
            chiplet_counts: vec![1, 2, 3, 4, 5],
            flows: vec![AssemblyFlow::ChipLast],
            schemes: vec![ReuseScheme::None],
            ..PortfolioSpace::default()
        };
        let exhaustive = explore_portfolio(&lib, &space, 2).unwrap();
        let refined = explore_portfolio_refined(&lib, &space, 2).unwrap();
        assert_eq!(
            refined.winners_artifact().csv(),
            exhaustive.winners_artifact().csv()
        );
        assert_eq!(
            refined.pareto_artifact().csv(),
            exhaustive.pareto_artifact().csv()
        );
        assert_eq!(
            refined.pareto_program_artifact().csv(),
            exhaustive.pareto_program_artifact().csv()
        );
    }

    #[test]
    fn refined_shared_matches_refined_and_reuses_warm_cores() {
        let lib = lib();
        let space = ramp_space();
        let reference = explore_portfolio_refined(&lib, &space, 2).unwrap();

        let cache = SharedCoreCache::new(4096);
        let shared = || {
            explore_portfolio_refined_observed(&lib, &space, 2, Some((&cache, [9; 32])), None)
                .unwrap()
        };
        let cold = shared();
        assert_eq!(cold.grid_artifact().csv(), reference.grid_artifact().csv());
        // A family core two waves share is evaluated once with the cache
        // and once per wave without it.
        assert!(cold.core_evaluations() > 0);
        assert!(cold.core_evaluations() <= reference.core_evaluations());

        // Warm rerun: refinement takes the same path, and every core it
        // asks for is already resident.
        let warm = shared();
        assert_eq!(warm.grid_artifact().csv(), reference.grid_artifact().csv());
        assert_eq!(warm.core_evaluations(), 0);
    }
}
