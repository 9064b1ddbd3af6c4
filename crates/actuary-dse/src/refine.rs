//! Coarse-to-fine grid refinement: the exhaustive engine's winner tables
//! and Pareto fronts at a fraction of the full evaluations.
//!
//! The exhaustive engine ([`crate::portfolio::explore_portfolio`]) prices
//! every cell of the axis product. The paper's successors explore spaces
//! where that product reaches 10⁸ cells (Tang & Xie, arXiv:2206.07308;
//! CATCH, arXiv:2503.15753) — far past what full enumeration can serve.
//! This module exploits the structure those grids actually have: along the
//! ordered *area* and *quantity* axes, per-scheme winners and Pareto-front
//! membership are piecewise-constant with a handful of crossover points
//! (the paper's §4 area crossovers and §4.2 crossover *quantities* are
//! exactly such points). The driver therefore works on the 2-D
//! (area × quantity) plane:
//!
//! 1. **samples** a stride-spaced rectangular subgrid — every stride-th
//!    area × every stride-th quantity, plus both axis endpoints — at every
//!    configuration and node;
//! 2. **bisects** along *both* axes: every sampled gap whose endpoints
//!    disagree — a per-scheme winner flip at any node, or a change in
//!    which configurations sit on the Pareto fronts — is split until each
//!    disagreement is bracketed by adjacent areas (or adjacent
//!    quantities; this is what finds the §4.2 crossover quantities
//!    directly), pricing each midpoint only on the *candidate
//!    configurations* its gap endpoints consider relevant: their winners,
//!    their front members, and the winners' monolithic baselines;
//! 3. **fills** each remaining (provably quiet) point the same way — a
//!    handful of candidate configurations per point instead of the full
//!    breadth — first along each evaluated quantity row, then down the
//!    completed columns, until every (area, quantity) point is priced;
//! 4. **escalates** until stable: each side of a still-disagreeing
//!    boundary on either axis must have priced every configuration that
//!    wins or sits on a front on the other side — any it skipped gets
//!    priced now, so a crossover can't hide behind a narrow evaluation.
//!
//! Skipped cells are recorded as [`CellOutcome::Pruned`] in the sparse
//! result; counts, artifacts and grid order are unchanged. Per
//! `PortfolioCore`'s split, cores are quantity-independent and the
//! refiner reuses them across all of its sub-runs through a core cache,
//! so the quantity axis' win is the skipped amortization, post-processing
//! and storage work on pruned cells — on top of the candidate-breadth
//! core savings along the area axis.
//!
//! # Exact vs heuristic
//!
//! Refinement is *exact* — byte-identical winner tables and Pareto fronts
//! to the exhaustive engine — whenever winner regions and front
//! membership are contiguous along the ordered axes, which the bisection
//! step then brackets completely. It is heuristic against structure that
//! is invisible at every evaluated point: a configuration that wins (or
//! joins a front) only strictly inside an unevaluated gap while both
//! endpoints agree on a different picture. The reference tests pin the
//! exact case on tier-1-sized grids across strides and thread counts;
//! `core_evaluations()` reports the honest distinct-core work (the
//! refiner's internal core cache dedups cores re-requested by later
//! passes, so each core counts once).
//!
//! # Streaming
//!
//! [`explore_portfolio_refined_with`] is the plain entry point;
//! [`explore_portfolio_refined_observed`] adds a cross-call core cache and
//! a phase observer that receives the partial result after each phase
//! together with the cells that phase newly stored — `actuary serve` uses
//! it to stream a refined grid's coarse picture before the run completes
//! (see `docs/http-api.md`).
//!
//! # Examples
//!
//! ```
//! use actuary_dse::portfolio::{PortfolioSpace, ReuseScheme};
//! use actuary_dse::refine::{explore_portfolio_refined_with, RefineOptions};
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
//! // Default options pick both coarse strides from the axis lengths.
//! let refined = explore_portfolio_refined_with(&lib, &space, 2, RefineOptions::default())?;
//! assert_eq!(refined.len(), space.len());
//! // Pruned cells are accounted for, never silently dropped.
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

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use actuary_arch::ArchError;
use actuary_tech::{IntegrationKind, TechLibrary};

use crate::engine::resolve_threads;
use crate::explore::CellOutcome;
use crate::pareto::pareto_min_indices;
use crate::portfolio::{
    explore_portfolio, explore_portfolio_shared, CellIdx, GridShape, PortfolioResult,
    PortfolioSpace, SharedCoreCache,
};

/// How an exploration request walks its grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreMode {
    /// Evaluate every cell (the reference path).
    Exhaustive,
    /// Coarse-to-fine refinement over the area × quantity plane (this
    /// module).
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

/// Coarse-sampling strides for the two refined axes. A stride of `0`
/// picks an automatic value for that axis (a power of two near half the
/// square root of the axis length); a stride of `1` keeps the axis
/// dense (refinement then only narrows the *other* axis). The default
/// refines both axes automatically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RefineOptions {
    /// Coarse stride along the area axis (`0` = automatic).
    pub area_stride: usize,
    /// Coarse stride along the quantity axis (`0` = automatic).
    pub quantity_stride: usize,
}

/// A refinement phase, in execution order. Observers receive one
/// callback per phase that stored new cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefinePhase {
    /// The stride-sampled rectangular subgrid at full breadth.
    Coarse,
    /// Midpoints of disagreeing gaps, both axes, at candidate breadth.
    Bisect,
    /// Every remaining point at candidate breadth.
    Fill,
    /// Boundary re-pricing until every disagreement is mutually priced.
    Escalate,
}

impl RefinePhase {
    /// Stable lower-case label (used in streamed-segment diagnostics).
    pub fn label(self) -> &'static str {
        match self {
            RefinePhase::Coarse => "coarse",
            RefinePhase::Bisect => "bisect",
            RefinePhase::Fill => "fill",
            RefinePhase::Escalate => "escalate",
        }
    }
}

/// A phase callback for [`explore_portfolio_refined_observed`]: receives
/// the phase, the partial result so far (every cell evaluated to date,
/// pruned cells derived on read), and the master-grid indices the phase
/// newly stored, sorted ascending. Returning `false` aborts the run —
/// the streaming server uses this when a client hangs up mid-response.
pub type RefineObserver<'o> = dyn FnMut(RefinePhase, &PortfolioResult, &[usize]) -> bool + 'o;

/// A configuration point of one operating point's block: indices into the
/// (integration, chiplet count, flow, scheme variant) axes.
type Config = (usize, usize, usize, usize);

/// Per-scheme winner of every (node, quantity, area) operating point,
/// keyed (scheme position, node, quantity, area).
type WinnerMap = BTreeMap<(usize, usize, usize, usize), (Config, f64)>;

/// Pareto-front members grouped by the (area, quantity) point they sit
/// at.
type FrontMap = BTreeMap<(usize, usize), BTreeSet<Config>>;

/// Restricted-evaluation requests batched by candidate set (`None` =
/// full breadth), each holding the (area, quantity) points to price.
type RequestMap = BTreeMap<Option<Vec<Config>>, BTreeSet<(usize, usize)>>;

/// How thoroughly an (area, quantity) point has been evaluated so far:
/// every configuration, or the union of the restricted (integration,
/// chiplet, flow) axis products it has been priced on. Recording the
/// products — not just a restricted/full bit — lets the escalation pass
/// ask the precise question that matters for exactness: "has this point
/// priced the configuration that wins next door?"
#[derive(Debug, Clone)]
enum Coverage {
    /// Every configuration.
    Full,
    /// Only the recorded axis products.
    Products(Vec<ConfigFilter>),
}

struct Refiner<'a> {
    lib: &'a TechLibrary,
    space: &'a PortfolioSpace,
    /// The caller's thread request, passed through to every sub-run.
    threads: usize,
    shape: GridShape,
    /// Variant index → position of its scheme in `space.schemes`.
    scheme_pos: Vec<usize>,
    /// Evaluated cells by flat master-grid index.
    master: BTreeMap<usize, CellOutcome>,
    /// Pricing coverage per evaluated (area index, quantity index) point.
    coverage: BTreeMap<(usize, usize), Coverage>,
    core_evaluations: usize,
    /// Every sub-run reuses cores through this cache under the given
    /// library tag — the caller's cross-request cache when provided, a
    /// run-private one otherwise (cores are quantity-independent, so
    /// stripe-wise sub-runs re-request the same cores constantly).
    shared: (&'a SharedCoreCache, [u8; 32]),
    /// Master indices newly stored since the last observer flush (only
    /// tracked when an observer is installed).
    track_dirty: bool,
    dirty: Vec<usize>,
}

impl<'a> Refiner<'a> {
    fn new(
        lib: &'a TechLibrary,
        space: &'a PortfolioSpace,
        threads: usize,
        shared: (&'a SharedCoreCache, [u8; 32]),
        track_dirty: bool,
    ) -> Self {
        let variants = space.scheme_variants();
        let scheme_pos = variants
            .iter()
            .map(|v| {
                space
                    .schemes
                    .iter()
                    .position(|&s| s == v.scheme)
                    .expect("variants come from the scheme axis")
            })
            .collect();
        Refiner {
            lib,
            space,
            threads,
            shape: GridShape::of(space, variants.len()),
            scheme_pos,
            master: BTreeMap::new(),
            coverage: BTreeMap::new(),
            core_evaluations: 0,
            shared,
            track_dirty,
            dirty: Vec::new(),
        }
    }

    /// Evaluates the rectangle of the given master-axis areas × quantities
    /// through the exhaustive engine — every configuration when `filter`
    /// is `None`, the filtered (integration, chiplet, flow) index product
    /// otherwise — and merges the evaluated cells into the master store.
    /// Scheme axes are always carried whole so variant indices map
    /// one-to-one.
    fn eval_rect(
        &mut self,
        areas: &BTreeSet<usize>,
        quantities: &BTreeSet<usize>,
        filter: Option<&ConfigFilter>,
    ) -> Result<(), ArchError> {
        if areas.is_empty() || quantities.is_empty() {
            return Ok(());
        }
        let area_list: Vec<usize> = areas.iter().copied().collect();
        let quantity_list: Vec<usize> = quantities.iter().copied().collect();
        let full = ConfigFilter {
            integrations: (0..self.shape.integrations).collect(),
            chiplets: (0..self.shape.chiplets).collect(),
            flows: (0..self.shape.flows).collect(),
        };
        let restriction = filter;
        let filter = filter.unwrap_or(&full);
        let sub = PortfolioSpace {
            nodes: self.space.nodes.clone(),
            areas_mm2: area_list.iter().map(|&a| self.space.areas_mm2[a]).collect(),
            quantities: quantity_list
                .iter()
                .map(|&q| self.space.quantities[q])
                .collect(),
            integrations: filter
                .integrations
                .iter()
                .map(|&i| self.space.integrations[i])
                .collect(),
            chiplet_counts: filter
                .chiplets
                .iter()
                .map(|&c| self.space.chiplet_counts[c])
                .collect(),
            flows: filter.flows.iter().map(|&f| self.space.flows[f]).collect(),
            schemes: self.space.schemes.clone(),
            scms_multiplicities: self.space.scms_multiplicities.clone(),
            fsmc_situations: self.space.fsmc_situations.clone(),
            ocme_center_nodes: self.space.ocme_center_nodes.clone(),
            package_reuse: self.space.package_reuse,
        };
        let (cache, tag) = self.shared;
        let result = explore_portfolio_shared(self.lib, &sub, self.threads, cache, tag)?;
        self.core_evaluations += result.core_evaluations();
        let sub_shape = result.shape();
        for (sub_i, outcome) in result.stored_entries() {
            let c = sub_shape.coords(*sub_i);
            let master_idx = self.shape.index(CellIdx {
                node: c.node,
                area: area_list[c.area],
                quantity: quantity_list[c.quantity],
                integration: filter.integrations[c.integration],
                chiplets: filter.chiplets[c.chiplets],
                flow: filter.flows[c.flow],
                variant: c.variant,
            });
            if self.master.insert(master_idx, outcome.clone()).is_none() && self.track_dirty {
                self.dirty.push(master_idx);
            }
        }
        for &a in &area_list {
            for &q in &quantity_list {
                let entry = self
                    .coverage
                    .entry((a, q))
                    .or_insert_with(|| Coverage::Products(Vec::new()));
                match (restriction, &mut *entry) {
                    (None, entry) => *entry = Coverage::Full,
                    (Some(f), Coverage::Products(products)) => products.push(f.clone()),
                    (Some(_), Coverage::Full) => {}
                }
            }
        }
        Ok(())
    }

    /// Whether the point has been evaluated at every configuration.
    fn is_full(&self, area: usize, quantity: usize) -> bool {
        matches!(self.coverage.get(&(area, quantity)), Some(Coverage::Full))
    }

    /// Whether the point's evaluations so far have priced the given
    /// configuration (the variant axis is always carried whole, so only
    /// the filtered axes decide).
    fn priced(&self, area: usize, quantity: usize, config: Config) -> bool {
        match self.coverage.get(&(area, quantity)) {
            Some(Coverage::Full) => true,
            Some(Coverage::Products(products)) => products.iter().any(|f| {
                f.integrations.contains(&config.0)
                    && f.chiplets.contains(&config.1)
                    && f.flows.contains(&config.2)
            }),
            None => false,
        }
    }

    /// The evaluated point set as quantity-indexed rows and area-indexed
    /// columns, each sorted ascending.
    fn evaluated_lines(&self) -> (BTreeMap<usize, Vec<usize>>, BTreeMap<usize, Vec<usize>>) {
        let mut rows: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut cols: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &(a, q) in self.coverage.keys() {
            rows.entry(q).or_default().push(a);
            cols.entry(a).or_default().push(q);
        }
        // BTreeMap iteration visits (a, q) in lexicographic order, so rows
        // are already ascending; columns need the sort.
        for col in cols.values_mut() {
            col.sort_unstable();
        }
        (rows, cols)
    }

    /// The current per-scheme winner of every (node, quantity, area)
    /// operating point: first strict minimum in grid order, matching the
    /// exhaustive winner tables' tie rule.
    fn winner_map(&self) -> WinnerMap {
        let mut winners: WinnerMap = BTreeMap::new();
        for (&i, outcome) in &self.master {
            let CellOutcome::Feasible(c) = outcome else {
                continue;
            };
            let idx = self.shape.coords(i);
            let key = (
                self.scheme_pos[idx.variant],
                idx.node,
                idx.quantity,
                idx.area,
            );
            let cost = c.per_unit.usd();
            let config = (idx.integration, idx.chiplets, idx.flow, idx.variant);
            match winners.get(&key) {
                Some((_, best)) if cost >= *best => {}
                _ => {
                    winners.insert(key, (config, cost));
                }
            }
        }
        winners
    }

    /// Which configurations sit on each scheme's Pareto fronts (both the
    /// per-unit × chiplet-count and the program-total × per-unit front),
    /// grouped by the (area, quantity) point they sit at.
    fn front_map(&self) -> FrontMap {
        let mut fronts: FrontMap = BTreeMap::new();
        for s_pos in 0..self.space.schemes.len() {
            // (flat index, per-unit, chiplet count, program total)
            let mut cells: Vec<(usize, f64, f64, f64)> = Vec::new();
            for (&i, outcome) in &self.master {
                let CellOutcome::Feasible(c) = outcome else {
                    continue;
                };
                let idx = self.shape.coords(i);
                if self.scheme_pos[idx.variant] != s_pos {
                    continue;
                }
                let per_unit = c.per_unit.usd();
                cells.push((
                    i,
                    per_unit,
                    f64::from(self.space.chiplet_counts[idx.chiplets]),
                    per_unit * self.space.quantities[idx.quantity] as f64,
                ));
            }
            let chip_points: Vec<(f64, f64)> = cells.iter().map(|&(_, p, ch, _)| (p, ch)).collect();
            let program_points: Vec<(f64, f64)> =
                cells.iter().map(|&(_, p, _, pr)| (pr, p)).collect();
            for k in pareto_min_indices(&chip_points)
                .into_iter()
                .chain(pareto_min_indices(&program_points))
            {
                let idx = self.shape.coords(cells[k].0);
                fronts.entry((idx.area, idx.quantity)).or_default().insert((
                    idx.integration,
                    idx.chiplets,
                    idx.flow,
                    idx.variant,
                ));
            }
        }
        fronts
    }

    /// The candidate configurations the given (area, quantity) points
    /// consider relevant: their per-node winners and their Pareto-front
    /// members.
    fn candidates_at(
        &self,
        winners: &WinnerMap,
        fronts: &FrontMap,
        points: &[(usize, usize)],
    ) -> BTreeSet<Config> {
        let mut candidates: BTreeSet<Config> = BTreeSet::new();
        for &(a, q) in points {
            for s in 0..self.space.schemes.len() {
                for n in 0..self.shape.nodes {
                    if let Some((config, _)) = winners.get(&(s, n, q, a)) {
                        candidates.insert(*config);
                    }
                }
            }
            if let Some(members) = fronts.get(&(a, q)) {
                candidates.extend(members.iter().copied());
            }
        }
        candidates
    }

    /// The monolithic-baseline companion of a restricted evaluation:
    /// whatever SoC cells the main product and its pads miss that a
    /// winner they can produce would quote its saving against — SoC at
    /// the same chiplet count for the family schemes, SoC at chiplet
    /// count 1 for scheme-free cells. Every chiplet index any of the
    /// products prices needs its SoC companion (a pad can discover the
    /// point's winner just as the main span can), minus the (soc,
    /// chiplets) pairs a product already covers. Kept separate from the
    /// main product so the chiplet-1 baseline can't drag a narrow
    /// chiplet range back toward full breadth.
    fn baseline_filter(&self, main: &ConfigFilter, pads: &[ConfigFilter]) -> Option<ConfigFilter> {
        let soc = self
            .space
            .integrations
            .iter()
            .position(|&k| k == IntegrationKind::Soc)?;
        let mut chiplets: BTreeSet<usize> = main
            .chiplets
            .iter()
            .chain(pads.iter().flat_map(|p| p.chiplets.iter()))
            .copied()
            .collect();
        if let Some(one) = self.space.chiplet_counts.iter().position(|&c| c == 1) {
            chiplets.insert(one);
        }
        let covered = |c: &usize| {
            std::iter::once(main)
                .chain(pads)
                .any(|f| f.integrations.contains(&soc) && f.chiplets.contains(c))
        };
        chiplets.retain(|c| !covered(c));
        if chiplets.is_empty() {
            return None;
        }
        Some(ConfigFilter {
            integrations: vec![soc],
            chiplets: chiplets.into_iter().collect(),
            flows: main.flows.clone(),
        })
    }

    /// Evaluates the rectangle on the contiguous axis product spanning the
    /// given configurations, plus the monolithic baselines that product
    /// misses.
    fn eval_restricted(
        &mut self,
        areas: &BTreeSet<usize>,
        quantities: &BTreeSet<usize>,
        configs: &[Config],
    ) -> Result<(), ArchError> {
        let main = ConfigFilter::spanning(configs);
        let pads = main.pads(
            self.space.integrations.len(),
            self.space.chiplet_counts.len(),
        );
        let baseline = self.baseline_filter(&main, &pads);
        self.eval_rect(areas, quantities, Some(&main))?;
        for pad in &pads {
            self.eval_rect(areas, quantities, Some(pad))?;
        }
        if let Some(baseline) = baseline {
            self.eval_rect(areas, quantities, Some(&baseline))?;
        }
        Ok(())
    }

    /// Runs every batched point request: points sharing a candidate set
    /// are split into rows and rows with identical area sets merge into
    /// one rectangular evaluation, so a quiet region that fills the same
    /// way across many quantities costs one engine sub-run, not one per
    /// row. Grouping is pure BTree bookkeeping — deterministic regardless
    /// of thread count.
    fn eval_requests(&mut self, requests: RequestMap) -> Result<(), ArchError> {
        for (configs, points) in requests {
            let mut by_row: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
            for (a, q) in points {
                by_row.entry(q).or_default().insert(a);
            }
            let mut rects: BTreeMap<Vec<usize>, BTreeSet<usize>> = BTreeMap::new();
            for (q, row_areas) in by_row {
                rects
                    .entry(row_areas.into_iter().collect())
                    .or_default()
                    .insert(q);
            }
            for (rect_areas, rect_quantities) in rects {
                let rect_areas: BTreeSet<usize> = rect_areas.into_iter().collect();
                match &configs {
                    None => self.eval_rect(&rect_areas, &rect_quantities, None)?,
                    Some(c) => self.eval_restricted(&rect_areas, &rect_quantities, c)?,
                }
            }
        }
        Ok(())
    }

    /// Whether areas `lo` and `hi` disagree along the fixed quantity row
    /// `q`: a per-scheme winner flip at any node, or a difference in
    /// front membership at the two points.
    fn differs_area(
        &self,
        winners: &WinnerMap,
        fronts: &FrontMap,
        q: usize,
        lo: usize,
        hi: usize,
    ) -> bool {
        for s in 0..self.space.schemes.len() {
            for n in 0..self.shape.nodes {
                let at = |a: usize| winners.get(&(s, n, q, a)).map(|(config, _)| *config);
                if at(lo) != at(hi) {
                    return true;
                }
            }
        }
        let empty = BTreeSet::new();
        fronts.get(&(lo, q)).unwrap_or(&empty) != fronts.get(&(hi, q)).unwrap_or(&empty)
    }

    /// Whether quantities `lo` and `hi` disagree along the fixed area
    /// column `a` — the quantity-axis twin of [`Self::differs_area`];
    /// a flip here is a §4.2 crossover quantity.
    fn differs_quantity(
        &self,
        winners: &WinnerMap,
        fronts: &FrontMap,
        a: usize,
        lo: usize,
        hi: usize,
    ) -> bool {
        for s in 0..self.space.schemes.len() {
            for n in 0..self.shape.nodes {
                let at = |q: usize| winners.get(&(s, n, q, a)).map(|(config, _)| *config);
                if at(lo) != at(hi) {
                    return true;
                }
            }
        }
        let empty = BTreeSet::new();
        fronts.get(&(a, lo)).unwrap_or(&empty) != fronts.get(&(a, hi)).unwrap_or(&empty)
    }
}

/// The (integration, chiplet count, flow) axis-index subsets a restricted
/// evaluation covers.
#[derive(Debug, Clone)]
struct ConfigFilter {
    integrations: Vec<usize>,
    chiplets: Vec<usize>,
    flows: Vec<usize>,
}

impl ConfigFilter {
    /// The smallest *contiguous* axis product covering every given
    /// configuration: per axis, every index between the smallest and
    /// largest one used. Contiguity is deliberate — winner structure
    /// moves monotonically along the ordered axes (larger areas favour
    /// more chiplets and climb the integration ladder), so a
    /// configuration that wins strictly between two bracketing winners
    /// almost always sits between them on each axis too, and the range
    /// prices it where the bare index set would miss it.
    fn spanning(configs: &[Config]) -> ConfigFilter {
        let mut ranges = [(usize::MAX, 0usize); 3];
        for &(i, c, f, _) in configs {
            for (range, v) in ranges.iter_mut().zip([i, c, f]) {
                range.0 = range.0.min(v);
                range.1 = range.1.max(v);
            }
        }
        let [integrations, chiplets, flows] = ranges.map(|(lo, hi)| (lo..=hi).collect());
        ConfigFilter {
            integrations,
            chiplets,
            flows,
        }
    }

    /// The one-index padding filters flanking this span on the ordered
    /// integration and chiplet axes (clamped to each axis). Winner
    /// regions on these axes meet in near-tie bands, and such a band can
    /// enclose a micro-region whose true winner appears in *no* coarse
    /// sample's belief — invisible to bisection and escalation, which
    /// only chase disagreements they can see. The direct axis neighbours
    /// of the believed winners are exactly the configurations those
    /// bands near-tie against, so pricing them closes the hole. The pads
    /// are cross-shaped, not a widened rectangle: each extends one axis
    /// while holding the other at the span's own values, skipping the
    /// corner products a second-order island would need.
    fn pads(&self, integrations: usize, chiplets: usize) -> Vec<ConfigFilter> {
        let flanks = |range: &[usize], len: usize| -> Vec<usize> {
            let (Some(&lo), Some(&hi)) = (range.first(), range.last()) else {
                return Vec::new();
            };
            let mut out = Vec::new();
            if lo > 0 {
                out.push(lo - 1);
            }
            if hi + 1 < len {
                out.push(hi + 1);
            }
            out
        };
        let mut pads = Vec::new();
        let integration_flanks = flanks(&self.integrations, integrations);
        if !integration_flanks.is_empty() {
            pads.push(ConfigFilter {
                integrations: integration_flanks,
                chiplets: self.chiplets.clone(),
                flows: self.flows.clone(),
            });
        }
        let chiplet_flanks = flanks(&self.chiplets, chiplets);
        if !chiplet_flanks.is_empty() {
            pads.push(ConfigFilter {
                integrations: self.integrations.clone(),
                chiplets: chiplet_flanks,
                flows: self.flows.clone(),
            });
        }
        pads
    }
}

/// The stride refinement starts an axis from: covers the axis with
/// roughly `4 × stride` coarse samples, doubling as long as the axis
/// affords it.
fn auto_stride(len: usize) -> usize {
    let mut stride = 1;
    while stride * stride * 4 <= len {
        stride *= 2;
    }
    stride
}

/// Explores `space` coarse-to-fine from the given per-axis starting
/// strides ([`RefineOptions::default`] picks both from the axis lengths):
/// the refinement twin of [`crate::portfolio::explore_portfolio`],
/// returning the same sparse result type with skipped cells recorded as
/// [`CellOutcome::Pruned`]. Explicit strides let the benches and the
/// reference tests force coarse starts on small grids (and let
/// `--quantity-stride` / scenario `quantity_stride` reach the engine).
///
/// # Errors
///
/// Everything [`crate::portfolio::explore_portfolio`] raises, plus
/// [`ArchError::InvalidArchitecture`] when the area or quantity axis is
/// not strictly increasing (refinement bisects gaps along both, so the
/// axes must be ordered).
pub fn explore_portfolio_refined_with(
    lib: &TechLibrary,
    space: &PortfolioSpace,
    threads: usize,
    options: RefineOptions,
) -> Result<PortfolioResult, ArchError> {
    explore_portfolio_refined_observed(lib, space, threads, options, None, None)
}

/// The full-control refinement entry: explicit strides, an optional
/// cross-call core cache, and an optional per-phase [`RefineObserver`]
/// (the streaming hook). With a cache, every coarse, bisection, fill and
/// escalation sub-run consults it under the given library `tag` (see
/// [`explore_portfolio_shared`]), so overlapping requests skip straight to
/// amortization. [`explore_portfolio_refined_with`] is this entry without
/// either.
///
/// # Errors
///
/// See [`explore_portfolio_refined_with`]; additionally fails when the
/// observer returns `false` (the run is abandoned mid-phase).
pub fn explore_portfolio_refined_observed(
    lib: &TechLibrary,
    space: &PortfolioSpace,
    threads: usize,
    options: RefineOptions,
    shared: Option<(&SharedCoreCache, [u8; 32])>,
    mut observer: Option<&mut RefineObserver<'_>>,
) -> Result<PortfolioResult, ArchError> {
    space.validate()?;
    for id in &space.nodes {
        lib.node(id).map_err(ArchError::Tech)?;
    }
    for center in space.ocme_center_nodes.iter().flatten() {
        lib.node(center).map_err(ArchError::Tech)?;
    }
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
    let areas = space.areas_mm2.len();
    let quantities = space.quantities.len();
    let resolved_threads = resolve_threads(threads, space.len());
    let astride = match (areas, options.area_stride) {
        // Two samples already cover a two-point axis.
        (0..=2, _) => 1,
        (_, 0) => auto_stride(areas),
        (_, s) => s,
    };
    let qstride = match (quantities, options.quantity_stride) {
        (0..=2, _) => 1,
        (_, 0) => auto_stride(quantities),
        (_, s) => s,
    };
    if astride <= 1 && qstride <= 1 {
        // Nothing to skip on either axis: the coarse pass would already be
        // exhaustive.
        let result = match shared {
            Some((cache, tag)) => explore_portfolio_shared(lib, space, threads, cache, tag)?,
            None => explore_portfolio(lib, space, threads)?,
        };
        if let Some(obs) = observer.as_mut() {
            let all: Vec<usize> = result.stored_entries().iter().map(|(i, _)| *i).collect();
            if !obs(RefinePhase::Coarse, &result, &all) {
                return Err(observer_abort());
            }
        }
        return Ok(result);
    }

    // The run-private core cache (used when the caller brought none):
    // cores are quantity-independent, so the row- and column-wise
    // sub-runs below re-request the same cores constantly; dedup'ing them
    // here is what keeps the quantity axis nearly free of core work.
    let private_cache;
    let shared = match shared {
        Some(s) => s,
        None => {
            private_cache = SharedCoreCache::new(usize::MAX);
            (&private_cache, [0u8; 32])
        }
    };
    let mut refiner = Refiner::new(lib, space, threads, shared, observer.is_some());

    // 1. Coarse pass: the stride-sampled rectangle plus both axis
    //    endpoints, every configuration. Each pass below closes a span
    //    recording cumulative coverage and core-evaluation counts; watch
    //    them with `--log-level debug` or via the
    //    `actuary_engine_phase_seconds` histogram on `/metricsz`.
    let mut coarse_span = actuary_obs::span!("refine.coarse");
    let mut coarse_areas: BTreeSet<usize> = (0..areas).step_by(astride).collect();
    coarse_areas.insert(areas - 1);
    let mut coarse_quantities: BTreeSet<usize> = (0..quantities).step_by(qstride).collect();
    coarse_quantities.insert(quantities - 1);
    refiner.eval_rect(&coarse_areas, &coarse_quantities, None)?;
    coarse_span.record("points_evaluated", refiner.coverage.len() as u64);
    coarse_span.record("core_evaluations", refiner.core_evaluations as u64);
    drop(coarse_span);
    notify(
        &mut refiner,
        &mut observer,
        RefinePhase::Coarse,
        resolved_threads,
    )?;

    // 2. Bisection: split every gap whose endpoints disagree — along each
    //    evaluated quantity row (area gaps) and each evaluated area
    //    column (quantity gaps; these brackets are the §4.2 crossover
    //    quantities) — until each disagreement is bracketed by adjacent
    //    indices. Midpoints are priced only on the configurations their
    //    gap endpoints consider relevant — flips are dense along fine
    //    axes, so full-breadth midpoints would dominate the whole run;
    //    the escalation pass below re-prices any boundary this narrowness
    //    gets wrong. Every requested midpoint is a new point, so this
    //    terminates.
    loop {
        let winners = refiner.winner_map();
        let fronts = refiner.front_map();
        let (rows, cols) = refiner.evaluated_lines();
        let mut area_requests: RequestMap = BTreeMap::new();
        for (&q, row) in &rows {
            for pair in row.windows(2) {
                let (lo, hi) = (pair[0], pair[1]);
                if hi - lo > 1 && refiner.differs_area(&winners, &fronts, q, lo, hi) {
                    let mid = lo + (hi - lo) / 2;
                    let local = refiner.candidates_at(&winners, &fronts, &[(lo, q), (hi, q)]);
                    let key = (!local.is_empty()).then(|| local.into_iter().collect());
                    area_requests.entry(key).or_default().insert((mid, q));
                }
            }
        }
        let mut quantity_requests: RequestMap = BTreeMap::new();
        for (&a, col) in &cols {
            for pair in col.windows(2) {
                let (lo, hi) = (pair[0], pair[1]);
                if hi - lo > 1 && refiner.differs_quantity(&winners, &fronts, a, lo, hi) {
                    let mid = lo + (hi - lo) / 2;
                    let local = refiner.candidates_at(&winners, &fronts, &[(a, lo), (a, hi)]);
                    let key = (!local.is_empty()).then(|| local.into_iter().collect());
                    quantity_requests.entry(key).or_default().insert((a, mid));
                }
            }
        }
        if area_requests.is_empty() && quantity_requests.is_empty() {
            break;
        }
        if !area_requests.is_empty() {
            let mut span = actuary_obs::span!("refine.bisect");
            let points: usize = area_requests.values().map(BTreeSet::len).sum();
            refiner.eval_requests(area_requests)?;
            span.record("points_evaluated", points as u64);
            span.record("core_evaluations", refiner.core_evaluations as u64);
        }
        if !quantity_requests.is_empty() {
            let mut span = actuary_obs::span!("refine.bisect_q");
            let points: usize = quantity_requests.values().map(BTreeSet::len).sum();
            refiner.eval_requests(quantity_requests)?;
            span.record("points_evaluated", points as u64);
            span.record("core_evaluations", refiner.core_evaluations as u64);
        }
    }
    notify(
        &mut refiner,
        &mut observer,
        RefinePhase::Bisect,
        resolved_threads,
    )?;

    // 3. Fill each remaining (provably quiet) point with only the
    //    configurations its surrounding evaluated points consider
    //    relevant — the sub-space is an axis product, so a *global*
    //    candidate union would multiply back out toward full breadth,
    //    while per-gap candidates stay a handful. Points that resolve to
    //    the same candidate set batch into shared rectangular runs.
    //
    //    Two sweeps: first along every evaluated quantity row (interior
    //    gaps take both endpoints' candidates; rows created by quantity
    //    bisection lack the axis endpoints, so their edge runs extend
    //    one-sided from the nearest evaluated point), then down the — now
    //    complete — area columns, which the coarse rows at quantity 0 and
    //    Q−1 bracket. After both sweeps every (area, quantity) point is
    //    priced, which the winner tables require: they report every
    //    operating point.
    let mut fill_span = actuary_obs::span!("refine.fill");
    {
        let winners = refiner.winner_map();
        let fronts = refiner.front_map();
        let (rows, _) = refiner.evaluated_lines();
        let mut requests: RequestMap = BTreeMap::new();
        for (&q, row) in &rows {
            for pair in row.windows(2) {
                let (lo, hi) = (pair[0], pair[1]);
                if hi - lo <= 1 {
                    continue;
                }
                let local = refiner.candidates_at(&winners, &fronts, &[(lo, q), (hi, q)]);
                let key: Option<Vec<Config>> =
                    (!local.is_empty()).then(|| local.into_iter().collect());
                let slot = requests.entry(key).or_default();
                slot.extend((lo + 1..hi).map(|a| (a, q)));
            }
            let (&first, &last) = (
                row.first().expect("evaluated rows are non-empty"),
                row.last().expect("evaluated rows are non-empty"),
            );
            for (edge, nearest) in [(0..first, first), (last + 1..areas, last)] {
                if edge.is_empty() {
                    continue;
                }
                let local = refiner.candidates_at(&winners, &fronts, &[(nearest, q)]);
                let key: Option<Vec<Config>> =
                    (!local.is_empty()).then(|| local.into_iter().collect());
                requests
                    .entry(key)
                    .or_default()
                    .extend(edge.map(|a| (a, q)));
            }
        }
        refiner.eval_requests(requests)?;
    }
    {
        let winners = refiner.winner_map();
        let fronts = refiner.front_map();
        let (_, cols) = refiner.evaluated_lines();
        let mut requests: RequestMap = BTreeMap::new();
        for (&a, col) in &cols {
            for pair in col.windows(2) {
                let (lo, hi) = (pair[0], pair[1]);
                if hi - lo <= 1 {
                    continue;
                }
                let local = refiner.candidates_at(&winners, &fronts, &[(a, lo), (a, hi)]);
                let key: Option<Vec<Config>> =
                    (!local.is_empty()).then(|| local.into_iter().collect());
                let slot = requests.entry(key).or_default();
                slot.extend((lo + 1..hi).map(|q| (a, q)));
            }
        }
        refiner.eval_requests(requests)?;
    }
    debug_assert_eq!(
        refiner.coverage.len(),
        areas * quantities,
        "fill must price every (area, quantity) point"
    );
    fill_span.record("points_evaluated", refiner.coverage.len() as u64);
    fill_span.record("core_evaluations", refiner.core_evaluations as u64);
    drop(fill_span);
    notify(
        &mut refiner,
        &mut observer,
        RefinePhase::Fill,
        resolved_threads,
    )?;

    // 4. Escalate: every boundary disagreement that survives bisection and
    //    fill should be genuine structure — but a narrowly priced point is
    //    only trustworthy evidence of that if it actually priced the
    //    configurations winning (or sitting on the fronts) right next
    //    door, on either axis. Re-price each suspect point on exactly the
    //    configurations it is missing; winners may shift as cheaper
    //    configs come into view, so loop until every disagreeing boundary
    //    is mutually priced. Coverage only ever grows, so this terminates.
    let mut escalate_span = actuary_obs::span!("refine.escalate");
    loop {
        let winners = refiner.winner_map();
        let fronts = refiner.front_map();
        let mut escalate: BTreeMap<(usize, usize), BTreeSet<Config>> = BTreeMap::new();
        let mut demand = |point: (usize, usize), from: (usize, usize), refiner: &Refiner| {
            if refiner.is_full(point.0, point.1) {
                return;
            }
            let missing: BTreeSet<Config> = refiner
                .candidates_at(&winners, &fronts, &[from])
                .into_iter()
                .filter(|&c| !refiner.priced(point.0, point.1, c))
                .collect();
            if !missing.is_empty() {
                escalate.entry(point).or_default().extend(missing);
            }
        };
        for q in 0..quantities {
            for lo in 0..areas.saturating_sub(1) {
                let hi = lo + 1;
                if (refiner.is_full(lo, q) && refiner.is_full(hi, q))
                    || !refiner.differs_area(&winners, &fronts, q, lo, hi)
                {
                    continue;
                }
                demand((lo, q), (hi, q), &refiner);
                demand((hi, q), (lo, q), &refiner);
            }
        }
        for a in 0..areas {
            for lo in 0..quantities.saturating_sub(1) {
                let hi = lo + 1;
                if (refiner.is_full(a, lo) && refiner.is_full(a, hi))
                    || !refiner.differs_quantity(&winners, &fronts, a, lo, hi)
                {
                    continue;
                }
                demand((a, lo), (a, hi), &refiner);
                demand((a, hi), (a, lo), &refiner);
            }
        }
        if escalate.is_empty() {
            break;
        }
        let mut requests: RequestMap = BTreeMap::new();
        for (point, missing) in escalate {
            requests
                .entry(Some(missing.into_iter().collect()))
                .or_default()
                .insert(point);
        }
        refiner.eval_requests(requests)?;
    }
    escalate_span.record("points_evaluated", refiner.coverage.len() as u64);
    escalate_span.record("core_evaluations", refiner.core_evaluations as u64);
    drop(escalate_span);
    notify(
        &mut refiner,
        &mut observer,
        RefinePhase::Escalate,
        resolved_threads,
    )?;

    if actuary_obs::log::enabled(actuary_obs::log::Level::Debug) {
        let full = refiner
            .coverage
            .values()
            .filter(|c| matches!(c, Coverage::Full))
            .count();
        actuary_obs::log::event(
            actuary_obs::log::Level::Debug,
            "refine.summary",
            &[
                ("points", (areas * quantities).into()),
                ("full", full.into()),
                ("restricted", (refiner.coverage.len() - full).into()),
                (
                    "unevaluated",
                    (areas * quantities - refiner.coverage.len()).into(),
                ),
                ("core_evaluations", refiner.core_evaluations.into()),
            ],
        );
    }
    Ok(PortfolioResult::from_parts(
        space,
        resolved_threads,
        refiner.core_evaluations,
        refiner.master.into_iter().collect(),
    ))
}

fn observer_abort() -> ArchError {
    ArchError::InvalidArchitecture {
        reason: "refinement aborted: the phase observer declined to continue".to_string(),
    }
}

/// Flushes the refiner's newly stored cells to the observer as a partial
/// [`PortfolioResult`] snapshot. Phases that stored nothing new are still
/// reported (an empty segment keeps the streamed phase order stable).
fn notify(
    refiner: &mut Refiner<'_>,
    observer: &mut Option<&mut RefineObserver<'_>>,
    phase: RefinePhase,
    resolved_threads: usize,
) -> Result<(), ArchError> {
    let Some(obs) = observer.as_mut() else {
        return Ok(());
    };
    let mut fresh = std::mem::take(&mut refiner.dirty);
    fresh.sort_unstable();
    let snapshot = PortfolioResult::from_parts(
        refiner.space,
        resolved_threads,
        refiner.core_evaluations,
        refiner
            .master
            .iter()
            .map(|(&i, outcome)| (i, outcome.clone()))
            .collect(),
    );
    if !obs(phase, &snapshot, &fresh) {
        return Err(observer_abort());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::ReuseScheme;
    use actuary_model::AssemblyFlow;

    fn lib() -> TechLibrary {
        TechLibrary::paper_defaults().unwrap()
    }

    fn strides(area_stride: usize, quantity_stride: usize) -> RefineOptions {
        RefineOptions {
            area_stride,
            quantity_stride,
        }
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

    /// A quantity-heavy ramp crossing the §4.2 crossover band: 12
    /// quantities give the quantity axis real gaps to skip.
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
    fn auto_stride_grows_with_the_axis() {
        assert_eq!(auto_stride(3), 1);
        assert_eq!(auto_stride(9), 2);
        assert_eq!(auto_stride(16), 4);
        assert_eq!(auto_stride(100), 8);
        assert_eq!(auto_stride(500), 16);
    }

    #[test]
    fn refinement_requires_an_ordered_area_axis() {
        let space = PortfolioSpace {
            areas_mm2: vec![400.0, 200.0],
            ..ramp_space()
        };
        let err = explore_portfolio_refined_with(&lib(), &space, 1, RefineOptions::default())
            .unwrap_err();
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
        let err = explore_portfolio_refined_with(&lib(), &space, 1, RefineOptions::default())
            .unwrap_err();
        assert!(
            err.to_string().contains("strictly increasing quantities"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn refined_winners_and_fronts_match_exhaustion_across_strides_and_threads() {
        let lib = lib();
        let space = ramp_space();
        let exhaustive = explore_portfolio(&lib, &space, 1).unwrap();
        for (stride, threads) in [(2, 1), (4, 1), (4, 4), (8, 4)] {
            let refined =
                explore_portfolio_refined_with(&lib, &space, threads, strides(stride, 0)).unwrap();
            assert_eq!(refined.len(), exhaustive.len());
            assert_eq!(
                refined.winners_artifact().csv(),
                exhaustive.winners_artifact().csv(),
                "stride={stride} threads={threads}: winner tables must be byte-identical"
            );
            assert_eq!(
                refined.pareto_artifact().csv(),
                exhaustive.pareto_artifact().csv(),
                "stride={stride} threads={threads}: Pareto fronts must be byte-identical"
            );
            assert_eq!(
                refined.pareto_program_artifact().csv(),
                exhaustive.pareto_program_artifact().csv(),
                "stride={stride} threads={threads}"
            );
            // Every cell accounted for: evaluated + re-derived + pruned.
            assert_eq!(
                refined.feasible_count()
                    + refined.infeasible_count()
                    + refined.incompatible_count()
                    + refined.pruned_count(),
                refined.len(),
                "stride={stride} threads={threads}"
            );
        }
    }

    #[test]
    fn two_axis_refinement_matches_exhaustion() {
        let lib = lib();
        let space = quantity_ramp_space();
        let exhaustive = explore_portfolio(&lib, &space, 1).unwrap();
        for (astride, qstride) in [(4, 4), (2, 4), (4, 3), (1, 4)] {
            let refined =
                explore_portfolio_refined_with(&lib, &space, 2, strides(astride, qstride)).unwrap();
            assert_eq!(
                refined.winners_artifact().csv(),
                exhaustive.winners_artifact().csv(),
                "area_stride={astride} quantity_stride={qstride}"
            );
            assert_eq!(
                refined.pareto_artifact().csv(),
                exhaustive.pareto_artifact().csv(),
                "area_stride={astride} quantity_stride={qstride}"
            );
            assert_eq!(
                refined.pareto_program_artifact().csv(),
                exhaustive.pareto_program_artifact().csv(),
                "area_stride={astride} quantity_stride={qstride}"
            );
            assert!(
                refined.pruned_count() > 0,
                "area_stride={astride} quantity_stride={qstride}: 2-D refinement must prune"
            );
            assert_eq!(
                refined.feasible_count()
                    + refined.infeasible_count()
                    + refined.incompatible_count()
                    + refined.pruned_count(),
                refined.len(),
                "area_stride={astride} quantity_stride={qstride}"
            );
        }
    }

    #[test]
    fn refinement_is_thread_count_independent() {
        let lib = lib();
        let space = quantity_ramp_space();
        let serial = explore_portfolio_refined_with(&lib, &space, 1, strides(4, 4)).unwrap();
        let parallel = explore_portfolio_refined_with(&lib, &space, 4, strides(4, 4)).unwrap();
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
        let refined =
            explore_portfolio_refined_with(&lib, &space, 1, RefineOptions::default()).unwrap();
        let exhaustive = explore_portfolio(&lib, &space, 1).unwrap();
        assert_eq!(
            refined.grid_artifact().csv(),
            exhaustive.grid_artifact().csv()
        );
        assert_eq!(refined.pruned_count(), 0);
    }

    #[test]
    fn observer_sees_every_stored_cell_in_phase_order() {
        let lib = lib();
        let space = quantity_ramp_space();
        let mut phases: Vec<RefinePhase> = Vec::new();
        let mut streamed: BTreeSet<usize> = BTreeSet::new();
        let mut observer = |phase: RefinePhase, partial: &PortfolioResult, fresh: &[usize]| {
            phases.push(phase);
            assert!(fresh.windows(2).all(|w| w[0] < w[1]), "fresh cells sorted");
            for &i in fresh {
                assert!(
                    streamed.insert(i),
                    "cell {i} streamed twice (phase {phase:?})"
                );
            }
            // Every streamed cell is visible in the partial snapshot.
            assert!(streamed.len() <= partial.len());
            true
        };
        let result = explore_portfolio_refined_observed(
            &lib,
            &space,
            2,
            strides(4, 4),
            None,
            Some(&mut observer),
        )
        .unwrap();
        assert_eq!(
            phases,
            vec![
                RefinePhase::Coarse,
                RefinePhase::Bisect,
                RefinePhase::Fill,
                RefinePhase::Escalate
            ]
        );
        let stored: BTreeSet<usize> = result.stored_entries().iter().map(|(i, _)| *i).collect();
        assert_eq!(
            streamed, stored,
            "the streamed segments union to exactly the stored cells"
        );
    }

    #[test]
    fn observer_abort_stops_the_run() {
        let lib = lib();
        let space = quantity_ramp_space();
        let mut observer = |_: RefinePhase, _: &PortfolioResult, _: &[usize]| false;
        let err = explore_portfolio_refined_observed(
            &lib,
            &space,
            1,
            strides(4, 4),
            None,
            Some(&mut observer),
        )
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
        let refined =
            explore_portfolio_refined_with(&lib, &space, 2, RefineOptions::default()).unwrap();
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
        let options = RefineOptions::default();
        let reference = explore_portfolio_refined_with(&lib, &space, 2, options).unwrap();

        let cache = SharedCoreCache::new(4096);
        let shared = || {
            explore_portfolio_refined_observed(
                &lib,
                &space,
                2,
                options,
                Some((&cache, [9; 32])),
                None,
            )
            .unwrap()
        };
        let cold = shared();
        assert_eq!(
            cold.winners_artifact().csv(),
            reference.winners_artifact().csv()
        );
        assert_eq!(
            cold.pareto_artifact().csv(),
            reference.pareto_artifact().csv()
        );
        // Both paths dedup within the run (the unshared path through a
        // run-private cache), so the cold shared pass does exactly the
        // reference's distinct-core evaluations.
        assert!(cold.core_evaluations() > 0);
        assert!(cold.core_evaluations() <= reference.core_evaluations());

        // Warm rerun: refinement takes the same adaptive path, and every
        // core it asks for is already resident.
        let warm = shared();
        assert_eq!(
            warm.winners_artifact().csv(),
            reference.winners_artifact().csv()
        );
        assert_eq!(warm.core_evaluations(), 0);
    }
}
