//! Scenario jobs: `[[portfolio]]` / `[[yield]]` / `[[sweep]]` tables and
//! the `[explore]` table, lowered into `actuary-arch` portfolios and an
//! `actuary-dse` [`PortfolioSpace`], plus the runner that executes them
//! through the existing engines and emits every result as a named
//! streaming [`Artifact`].

use std::collections::BTreeSet;
use std::fmt;

use actuary_arch::reuse::{FsmcSpec, OcmeSpec, ScmsSpec};
use actuary_arch::{ArchError, Chip, Module, Portfolio, System};
use actuary_dse::optimizer::candidate_core;
use actuary_dse::portfolio::{
    explore_portfolio, explore_portfolio_shared, parse_fsmc_situation, PortfolioResult,
    PortfolioSpace, ReuseScheme, SharedCoreCache,
};
use actuary_dse::refine::{explore_portfolio_refined_observed, ExploreMode, RefineObserver};
use actuary_dse::sweep::{Sweep, SweepPoint};
use actuary_model::{equal_split_re_cost, AssemblyFlow};
use actuary_tech::{IntegrationKind, NodeId, TechLibrary};
use actuary_units::{Area, Artifact, Quantity};

use crate::error::ScenarioError;
use crate::schema::{elem, Spanned, View};
use crate::tech::lower_library;
use crate::toml::{parse, Pos, Table, Value};

/// A fully lowered scenario: a technology library plus the jobs to run.
#[derive(Debug)]
pub struct Scenario {
    /// Scenario name (used for output file naming).
    pub name: String,
    /// Optional free-form description.
    pub description: Option<String>,
    /// The technology library (presets plus overlays).
    pub library: TechLibrary,
    /// The jobs, in file order per kind (portfolio, then yield, then
    /// explore).
    pub jobs: Vec<Job>,
}

/// One executable unit of a scenario.
#[derive(Debug)]
pub enum Job {
    /// Cost a portfolio and report one row per member system.
    Cost(CostJob),
    /// Tabulate die yield and cost-per-area over an area grid (Figure 2's
    /// workload).
    Yield(YieldJob),
    /// Sweep per-unit RE cost over an area grid, one series per
    /// integration kind (Figure 4's workload).
    Sweep(SweepJob),
    /// Run a multi-axis grid exploration.
    Explore(ExploreJob),
}

impl Job {
    /// The job's name.
    pub fn name(&self) -> &str {
        match self {
            Job::Cost(j) => &j.name,
            Job::Yield(j) => &j.name,
            Job::Sweep(j) => &j.name,
            Job::Explore(j) => &j.name,
        }
    }
}

/// A portfolio-costing job.
#[derive(Debug)]
pub struct CostJob {
    /// Job name (unique within the scenario).
    pub name: String,
    /// Assembly flow the portfolio is costed under.
    pub flow: AssemblyFlow,
    /// The portfolio to cost.
    pub portfolio: Portfolio,
}

/// One technology of a yield job.
#[derive(Debug)]
pub enum YieldTech {
    /// A process node id.
    Node(String),
    /// The interposer process of a packaging technology (`info` / `2.5d`).
    Interposer(IntegrationKind),
}

impl fmt::Display for YieldTech {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            YieldTech::Node(id) => f.write_str(id),
            YieldTech::Interposer(kind) => write!(f, "{kind}-interposer"),
        }
    }
}

/// A yield/cost-per-area tabulation job.
#[derive(Debug)]
pub struct YieldJob {
    /// Job name.
    pub name: String,
    /// The technologies to tabulate.
    pub techs: Vec<YieldTech>,
    /// The area grid in mm².
    pub areas_mm2: Vec<f64>,
}

/// One selectable output surface of an explore job (the `outputs` key):
/// which [`Artifact`]s the job emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreOutput {
    /// The full per-cell grid (the default).
    Grid,
    /// The per-scheme winner tables (the cheapest configuration of every
    /// operating point).
    Winners,
    /// The per-scheme Pareto fronts over (per-unit cost, chiplet count).
    Pareto,
    /// The per-scheme Pareto fronts over (program total, per-unit cost).
    ParetoProgram,
}

impl ExploreOutput {
    /// Every output, in emission order.
    pub const ALL: [ExploreOutput; 4] = [
        ExploreOutput::Grid,
        ExploreOutput::Winners,
        ExploreOutput::Pareto,
        ExploreOutput::ParetoProgram,
    ];

    /// The stable label used in scenario files and artifact names.
    pub fn label(self) -> &'static str {
        match self {
            ExploreOutput::Grid => "grid",
            ExploreOutput::Winners => "winners",
            ExploreOutput::Pareto => "pareto",
            ExploreOutput::ParetoProgram => "pareto_program",
        }
    }

    /// This surface of explore job `job`'s `result`, named
    /// `<job>-<label>` — the one mapping batch runs and streamed runs
    /// both emit through.
    pub fn artifact<'r>(self, job: &str, result: &'r PortfolioResult) -> Artifact<'r> {
        let artifact = match self {
            ExploreOutput::Grid => result.grid_artifact(),
            ExploreOutput::Winners => result.winners_artifact(),
            ExploreOutput::Pareto => result.pareto_artifact(),
            ExploreOutput::ParetoProgram => result.pareto_program_artifact(),
        };
        artifact.named(format!("{job}-{}", self.label()))
    }
}

impl fmt::Display for ExploreOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for ExploreOutput {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "grid" => Ok(ExploreOutput::Grid),
            "winners" => Ok(ExploreOutput::Winners),
            "pareto" => Ok(ExploreOutput::Pareto),
            "pareto_program" | "pareto-program" => Ok(ExploreOutput::ParetoProgram),
            other => Err(format!(
                "unknown output {other:?} (grid|winners|pareto|pareto_program)"
            )),
        }
    }
}

/// A grid-exploration job.
#[derive(Debug)]
pub struct ExploreJob {
    /// Job name.
    pub name: String,
    /// The exploration space.
    pub space: PortfolioSpace,
    /// How the grid is walked: exhaustively (the default) or coarse-to-fine
    /// (the `mode = "refine"` key).
    pub mode: ExploreMode,
    /// Which surfaces the job emits, in file order (default: the grid).
    pub outputs: Vec<ExploreOutput>,
}

/// The swept axis of a `[[sweep]]` job.
#[derive(Debug)]
pub enum SweepAxis {
    /// Per-unit RE cost vs total module area (the `areas_mm2` key — the
    /// paper's Figure 4 panels).
    Area(Vec<f64>),
    /// Per-unit *total* cost (RE plus amortized NRE) vs production
    /// quantity at a fixed module area (the `quantities` + `area_mm2`
    /// keys — the §4.2 crossover study, where NRE amortization decides
    /// the turning point).
    Quantity {
        /// The fixed total module area in mm².
        area_mm2: f64,
        /// The swept production quantities.
        quantities: Vec<u64>,
    },
}

/// A sweep job: cost curves over one swept axis, one series per
/// integration kind, declaratively.
#[derive(Debug)]
pub struct SweepJob {
    /// Job name.
    pub name: String,
    /// Process node of every series.
    pub node: String,
    /// Chiplet count of the multi-chip series (SoC series ignore it, as in
    /// the figures).
    pub chiplets: u32,
    /// One series per integration kind, in file order.
    pub integrations: Vec<IntegrationKind>,
    /// The swept axis (`areas_mm2`, or `quantities` with a fixed
    /// `area_mm2`).
    pub axis: SweepAxis,
    /// Assembly flow of every series.
    pub flow: AssemblyFlow,
}

/// One row of a cost job's output: a member system's per-unit breakdown in
/// raw dollars.
#[derive(Debug, Clone, PartialEq)]
pub struct CostRow {
    /// Job name.
    pub job: String,
    /// System name within the portfolio.
    pub system: String,
    /// Production quantity of the system.
    pub quantity: u64,
    /// Per-unit RE.
    pub re_usd: f64,
    /// Per-unit RE spent on packaging.
    pub re_packaging_usd: f64,
    /// Per-unit amortized module NRE.
    pub nre_modules_usd: f64,
    /// Per-unit amortized chip NRE.
    pub nre_chips_usd: f64,
    /// Per-unit amortized package NRE.
    pub nre_packages_usd: f64,
    /// Per-unit amortized D2D NRE.
    pub nre_d2d_usd: f64,
    /// Per-unit total (RE + amortized NRE).
    pub per_unit_usd: f64,
}

/// One row of a yield job's output.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldRow {
    /// Job name.
    pub job: String,
    /// Technology label.
    pub tech: String,
    /// Die area in mm².
    pub area_mm2: f64,
    /// Die yield per Eq. (1).
    pub yield_frac: f64,
    /// Raw (unyielded) die cost.
    pub raw_die_usd: f64,
    /// Cost per good die.
    pub yielded_die_usd: f64,
    /// Cost per good mm², normalized to the raw-wafer cost per usable mm²
    /// (Figure 2's y-axis).
    pub cost_per_area_norm: f64,
}

/// An executed explore job.
#[derive(Debug)]
pub struct ExploreRun {
    /// Job name.
    pub name: String,
    /// The surfaces the job selected (drives [`ScenarioRun::artifacts`]).
    pub outputs: Vec<ExploreOutput>,
    /// The grid result.
    pub result: PortfolioResult,
}

/// An executed sweep job.
#[derive(Debug)]
pub struct SweepRun {
    /// Job name.
    pub name: String,
    /// The sampled sweep.
    pub sweep: Sweep,
}

/// Everything a scenario run produced.
#[derive(Debug)]
pub struct ScenarioRun {
    /// The scenario's name.
    pub name: String,
    /// All cost rows, in job order then portfolio order.
    pub cost_rows: Vec<CostRow>,
    /// All yield rows, in job order.
    pub yield_rows: Vec<YieldRow>,
    /// All explore results, in job order.
    pub explores: Vec<ExploreRun>,
    /// All sweep results, in job order.
    pub sweeps: Vec<SweepRun>,
}

impl ScenarioRun {
    /// The run's results as a stream of named [`Artifact`]s, in emission
    /// order: the cost rows (if any), the yield rows (if any), every
    /// explore job's selected surfaces, every sweep. Artifact names are
    /// the output file stems — a consumer writes
    /// `<scenario>-<artifact>.csv` per entry, streams them over HTTP, or
    /// concatenates them for stdout; nothing is materialized until a sink
    /// asks.
    pub fn artifacts(&self) -> Vec<Artifact<'_>> {
        let mut out = Vec::new();
        if !self.cost_rows.is_empty() {
            out.push(self.costs_artifact());
        }
        if !self.yield_rows.is_empty() {
            out.push(self.yields_artifact());
        }
        for explore in &self.explores {
            for output in &explore.outputs {
                out.push(output.artifact(&explore.name, &explore.result));
            }
        }
        for s in &self.sweeps {
            out.push(s.sweep.artifact(format!("{}-sweep", s.name)));
        }
        out
    }

    /// The cost rows as an [`Artifact`] named `"costs"`, one row per
    /// member system in job order.
    pub fn costs_artifact(&self) -> Artifact<'_> {
        Artifact::new(
            "costs",
            "costs",
            &[
                "job",
                "system",
                "quantity",
                "re_usd",
                "re_packaging_usd",
                "nre_modules_usd",
                "nre_chips_usd",
                "nre_packages_usd",
                "nre_d2d_usd",
                "per_unit_usd",
            ],
            move |emit| {
                for r in &self.cost_rows {
                    emit(&[
                        &r.job,
                        &r.system,
                        &r.quantity.to_string(),
                        &format!("{:.6}", r.re_usd),
                        &format!("{:.6}", r.re_packaging_usd),
                        &format!("{:.6}", r.nre_modules_usd),
                        &format!("{:.6}", r.nre_chips_usd),
                        &format!("{:.6}", r.nre_packages_usd),
                        &format!("{:.6}", r.nre_d2d_usd),
                        &format!("{:.6}", r.per_unit_usd),
                    ])?;
                }
                Ok(())
            },
        )
    }

    /// The yield rows as an [`Artifact`] named `"yields"`, one row per
    /// (technology, area) in job order.
    pub fn yields_artifact(&self) -> Artifact<'_> {
        Artifact::new(
            "yields",
            "yields",
            &[
                "job",
                "tech",
                "area_mm2",
                "yield",
                "raw_die_usd",
                "yielded_die_usd",
                "norm_cost_per_area",
            ],
            move |emit| {
                for r in &self.yield_rows {
                    emit(&[
                        &r.job,
                        &r.tech,
                        &format!("{}", r.area_mm2),
                        &format!("{:.9}", r.yield_frac),
                        &format!("{:.6}", r.raw_die_usd),
                        &format!("{:.6}", r.yielded_die_usd),
                        &format!("{:.9}", r.cost_per_area_norm),
                    ])?;
                }
                Ok(())
            },
        )
    }
}

impl Scenario {
    /// Parses and lowers a scenario document.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Parse`] for malformed TOML and
    /// [`ScenarioError::Schema`] for schema violations — both name the
    /// offending line and column.
    pub fn from_toml(input: &str) -> Result<Scenario, ScenarioError> {
        let doc = parse(input)?;
        Scenario::from_doc(&doc)
    }

    /// Lowers an already-parsed scenario document — the entry point for
    /// callers that need the parsed tree for other purposes too, like the
    /// server, which content-addresses requests by
    /// [`crate::canon::digest_document`] over the same `doc` it lowers.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Schema`] for schema violations, naming the
    /// offending line and column.
    pub fn from_doc(doc: &Table) -> Result<Scenario, ScenarioError> {
        let mut root = View::new(doc, "the scenario root");
        let name = check_file_name(root.req::<&str>("name")?, "scenario name")?;
        let description = root
            .opt::<&str>("description")?
            .map(|s| s.value.to_string());
        let library = lower_library(&mut root)?;

        let mut jobs = Vec::new();
        let mut names = BTreeSet::new();
        for table in root.opt_tables("portfolio")? {
            let job = lower_portfolio_job(table, &library)?;
            check_unique(&mut names, &job.name, table.pos)?;
            jobs.push(Job::Cost(job));
        }
        for table in root.opt_tables("yield")? {
            let job = lower_yield_job(table, &library)?;
            check_unique(&mut names, &job.name, table.pos)?;
            jobs.push(Job::Yield(job));
        }
        for table in root.opt_tables("sweep")? {
            let job = lower_sweep_job(table, &library)?;
            check_unique(&mut names, &job.name, table.pos)?;
            jobs.push(Job::Sweep(job));
        }
        for table in root.opt_tables("explore")? {
            let job = lower_explore_job(table, &library)?;
            check_unique(&mut names, &job.name, table.pos)?;
            jobs.push(Job::Explore(job));
        }
        root.deny_unknown()?;
        if jobs.is_empty() {
            return Err(ScenarioError::schema(
                doc.pos,
                "the scenario defines no jobs (add a [[portfolio]], [[yield]], [[sweep]] or \
                 [explore] table)",
            ));
        }
        Ok(Scenario {
            name,
            description,
            library,
            jobs,
        })
    }

    /// Executes every job. `threads = 0` lets explore jobs use all
    /// hardware threads. This is [`Scenario::run_with`] without a shared
    /// core cache, delivering to `()`, the sink that discards.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Engine`] naming the failing job.
    pub fn run(&self, threads: usize) -> Result<ScenarioRun, ScenarioError> {
        self.run_with(threads, None, &mut ())
    }

    /// Executes every job and hands each artifact to `sink` as soon as it
    /// is complete. A refine-mode explore job that emits the grid delivers
    /// it *segment by segment* as refinement waves finish — the coarse
    /// segment goes out while bisection is still running.
    ///
    /// The cost, yield and sweep jobs run first, then the explore jobs, so
    /// the cost and yield tables are delivered before the first
    /// long-running grid starts. Delivery order: the cost table, the
    /// yield table, then each explore job (a streamed grid's segments
    /// first, then the job's remaining surfaces in selected order), then
    /// the sweeps. Without a streamed grid that is the order of
    /// [`ScenarioRun::artifacts`]. Within a streamed grid every segment is
    /// internally grid-ordered and every cell appears in exactly one
    /// segment, so re-sorting the concatenated rows by grid coordinates
    /// reproduces the batch grid byte for byte.
    ///
    /// With `shared`, explore-job cores are reused *across runs* through
    /// the cache. Its tag must fingerprint the technology library this
    /// scenario lowered — use [`crate::canon::library_digest`] over the
    /// same document — so scenarios with different library overrides
    /// never share cores. The output is byte-identical with or without
    /// it.
    ///
    /// The full [`ScenarioRun`] is returned, so callers can cache or
    /// re-render it.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Engine`] naming the failing job, or the
    /// job whose delivery the sink declined.
    pub fn run_with(
        &self,
        threads: usize,
        shared: Option<(&SharedCoreCache, [u8; 32])>,
        sink: &mut dyn StreamSink,
    ) -> Result<ScenarioRun, ScenarioError> {
        let mut run = ScenarioRun {
            name: self.name.clone(),
            cost_rows: Vec::new(),
            yield_rows: Vec::new(),
            explores: Vec::new(),
            sweeps: Vec::new(),
        };
        for job in &self.jobs {
            match job {
                Job::Cost(j) => {
                    let _span = actuary_obs::span!("scenario.cost");
                    let cost = j
                        .portfolio
                        .cost(&self.library, j.flow)
                        .map_err(|e| engine_error(&j.name, &e))?;
                    for sc in cost.systems() {
                        let nre = sc.nre_per_unit();
                        run.cost_rows.push(CostRow {
                            job: j.name.clone(),
                            system: sc.name().to_string(),
                            quantity: sc.quantity().count(),
                            re_usd: sc.re().total().usd(),
                            re_packaging_usd: sc.re().packaging_total().usd(),
                            nre_modules_usd: nre.modules.usd(),
                            nre_chips_usd: nre.chips.usd(),
                            nre_packages_usd: nre.packages.usd(),
                            nre_d2d_usd: nre.d2d.usd(),
                            per_unit_usd: sc.per_unit_total().usd(),
                        });
                    }
                }
                Job::Yield(j) => {
                    let _span = actuary_obs::span!("scenario.yield");
                    run_yield_job(&self.library, j, &mut run.yield_rows)
                        .map_err(|e| engine_error(&j.name, &e))?;
                }
                Job::Sweep(j) => {
                    let _span = actuary_obs::span!("scenario.sweep");
                    let sweep =
                        run_sweep_job(&self.library, j).map_err(|e| engine_error(&j.name, &e))?;
                    run.sweeps.push(SweepRun {
                        name: j.name.clone(),
                        sweep,
                    });
                }
                Job::Explore(_) => {}
            }
        }
        if !run.cost_rows.is_empty() && !sink.segment(run.costs_artifact(), false) {
            return Err(sink_declined("costs"));
        }
        if !run.yield_rows.is_empty() && !sink.segment(run.yields_artifact(), false) {
            return Err(sink_declined("yields"));
        }
        for job in &self.jobs {
            let Job::Explore(j) = job else {
                continue;
            };
            run.explores.push(ExploreRun {
                name: j.name.clone(),
                outputs: j.outputs.clone(),
                result: run_explore_job(&self.library, threads, shared, j, sink)?,
            });
        }
        for s in &run.sweeps {
            if !sink.segment(s.sweep.artifact(format!("{}-sweep", s.name)), false) {
                return Err(sink_declined(&s.name));
            }
        }
        Ok(run)
    }
}

/// The [`ScenarioError::Engine`] of a job the engine failed.
fn engine_error(job: &str, e: &dyn fmt::Display) -> ScenarioError {
    ScenarioError::Engine {
        context: job.to_string(),
        message: e.to_string(),
    }
}

/// The [`ScenarioError::Engine`] of a delivery the stream sink declined.
fn sink_declined(job: &str) -> ScenarioError {
    engine_error(job, &"the stream sink declined to continue")
}

/// Runs one explore job through the engine its mode selects, threading
/// the optional shared core cache, and hands its selected surfaces to
/// `sink`: a refine-mode grid segment by segment as the waves finish,
/// then the remaining surfaces in selected order.
fn run_explore_job(
    library: &TechLibrary,
    threads: usize,
    shared: Option<(&SharedCoreCache, [u8; 32])>,
    j: &ExploreJob,
    sink: &mut dyn StreamSink,
) -> Result<PortfolioResult, ScenarioError> {
    let streams_grid = j.mode == ExploreMode::Refine && j.outputs.contains(&ExploreOutput::Grid);
    let grid_name = format!("{}-grid", j.name);
    let mut opened = false;
    let mut observer = |wave: &PortfolioResult| {
        let continuation = std::mem::replace(&mut opened, true);
        sink.segment(
            wave.grid_stored_artifact().named(grid_name.clone()),
            continuation,
        )
    };
    let mut span = actuary_obs::span!("scenario.explore");
    span.record("cells", j.space.len() as u64);
    let result = match j.mode {
        ExploreMode::Exhaustive => match shared {
            None => explore_portfolio(library, &j.space, threads),
            Some((cache, tag)) => explore_portfolio_shared(library, &j.space, threads, cache, tag),
        },
        ExploreMode::Refine => {
            let observer: Option<&mut RefineObserver<'_>> = streams_grid.then_some(&mut observer);
            explore_portfolio_refined_observed(library, &j.space, threads, shared, observer)
        }
    };
    drop(span);
    // A declined wave aborts the engine, so its error names the job too.
    let result = result.map_err(|e| engine_error(&j.name, &e))?;
    if streams_grid {
        // The evaluated cells all went out with the waves above; the
        // pruned/incompatible residual completes the table.
        if !sink.segment(result.grid_unstored_artifact().named(grid_name), true) {
            return Err(sink_declined(&j.name));
        }
    }
    for &output in &j.outputs {
        let streamed = streams_grid && output == ExploreOutput::Grid;
        if !streamed && !sink.segment(output.artifact(&j.name, &result), false) {
            return Err(sink_declined(&j.name));
        }
    }
    Ok(result)
}

/// The incremental consumer [`Scenario::run_with`] delivers to: one call
/// per artifact segment, in emission order. A segment with
/// `continuation = false` opens a new artifact (its serialization carries
/// the header or metadata line); `continuation = true` extends the
/// previously opened artifact of the same name with more rows (serialize
/// it rows-only, e.g. [`Artifact::write_csv_rows_to`]). Returning `false`
/// abandons the run.
pub trait StreamSink {
    /// Receives one artifact segment; see the trait docs for the
    /// continuation contract.
    fn segment(&mut self, artifact: Artifact<'_>, continuation: bool) -> bool;
}

/// The sink that discards every segment: [`Scenario::run`] delivers to
/// it and keeps only the returned [`ScenarioRun`].
impl StreamSink for () {
    fn segment(&mut self, _: Artifact<'_>, _: bool) -> bool {
        true
    }
}

/// Validates a scenario or job name. Names become output file names
/// (`<scenario>-<job>-grid.csv`), so they are restricted to a safe
/// character set — a `name = "../evil"` must not escape `--out-dir`.
fn check_file_name(s: Spanned<&str>, what: &str) -> Result<String, ScenarioError> {
    let ok = !s.value.is_empty()
        && s.value
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
    if !ok {
        return Err(ScenarioError::schema(
            s.pos,
            format!(
                "{what} {:?} must be non-empty and use only letters, digits, `-`, `_` and \
                 `.` (it names output files)",
                s.value
            ),
        ));
    }
    Ok(s.value.to_string())
}

/// Reads one `areas_mm2` element: a number that is a valid [`Area`]
/// (finite and non-negative), diagnosed at the element itself rather
/// than by the engine after lowering.
fn area_elem(value: &Value, pos: Pos) -> Result<f64, ScenarioError> {
    let mm2 = elem(value, pos, "an area")?;
    Area::from_mm2(mm2).map_err(|e| ScenarioError::schema(pos, e.to_string()))?;
    Ok(mm2)
}

/// Validates a `quantities` axis: every quantity at least 1, since NRE is
/// amortized over it, and strictly increasing, each diagnosed at the
/// offending element. Both the sweep and explore quantity axes feed
/// machinery that walks them as *ordered* axes — amortization crossover
/// curves, coarse-to-fine refinement — so an unordered or duplicated list
/// is always a mistake, caught at the schema layer where the diagnostic
/// can point at the element.
fn check_quantities(list: Vec<(u64, Pos)>) -> Result<Vec<u64>, ScenarioError> {
    if let Some(&(_, pos)) = list.iter().find(|(q, _)| *q == 0) {
        return Err(ScenarioError::schema(
            pos,
            "a quantity must be at least 1 (NRE is amortized over it)",
        ));
    }
    for pair in list.windows(2) {
        let ((prev, _), (next, pos)) = (pair[0], pair[1]);
        if next <= prev {
            return Err(ScenarioError::schema(
                pos,
                format!(
                    "the `quantities` axis must be strictly increasing ({next} follows {prev})"
                ),
            ));
        }
    }
    Ok(list.into_iter().map(|(q, _)| q).collect())
}

fn check_unique(names: &mut BTreeSet<String>, name: &str, pos: Pos) -> Result<(), ScenarioError> {
    if !names.insert(name.to_string()) {
        return Err(ScenarioError::schema(
            pos,
            format!("duplicate job name `{name}`"),
        ));
    }
    Ok(())
}

/// Validates a node reference against the library, pointing at the value.
fn check_node(lib: &TechLibrary, id: Spanned<&str>) -> Result<NodeId, ScenarioError> {
    lib.node(id.value)
        .map_err(|e| ScenarioError::schema(id.pos, e.to_string()))?;
    Ok(NodeId::new(id.value))
}

fn area_mm2(v: Spanned<f64>) -> Result<Area, ScenarioError> {
    Area::from_mm2(v.value).map_err(|e| ScenarioError::schema(v.pos, e.to_string()))
}

/// Lowers one `[[portfolio]]` table into a [`CostJob`].
fn lower_portfolio_job(table: &Table, lib: &TechLibrary) -> Result<CostJob, ScenarioError> {
    let mut view = View::new(table, "[[portfolio]]");
    let name = check_file_name(view.req::<&str>("name")?, "job name")?;
    let scheme = view.req::<&str>("scheme")?;
    let flow = view
        .opt::<AssemblyFlow>("flow")?
        .map_or(AssemblyFlow::ChipLast, |s| s.value);
    let soc_baseline = match view.opt::<&str>("baseline")? {
        None => false,
        Some(s) => match s.value {
            "reuse" | "multi-chip" => false,
            "soc" | "monolithic" => true,
            other => {
                return Err(ScenarioError::schema(
                    s.pos,
                    format!("unknown baseline {other:?} (reuse|soc)"),
                ))
            }
        },
    };
    let portfolio = match scheme.value {
        "scms" => {
            let node = check_node(lib, view.req::<&str>("node")?)?;
            let spec = ScmsSpec {
                chiplet_module_area: area_mm2(view.req("chiplet_module_area_mm2")?)?,
                node,
                multiplicities: view
                    .req_array("multiplicities", |v, p| elem(v, p, "a multiplicity"))?,
                integration: view.req::<IntegrationKind>("integration")?.value,
                quantity_each: Quantity::new(view.req::<u64>("quantity")?.value),
                package_reuse: view.opt::<bool>("package_reuse")?.is_some_and(|s| s.value),
            };
            view.deny_unknown()?;
            build_reuse_portfolio(&name, || {
                if soc_baseline {
                    spec.soc_portfolio()
                } else {
                    spec.portfolio()
                }
            })?
        }
        "ocme" => {
            let node = check_node(lib, view.req::<&str>("node")?)?;
            let center_node = match view.opt::<&str>("center_node")? {
                None => None,
                Some(s) => Some(check_node(lib, s)?),
            };
            let spec = OcmeSpec {
                socket_module_area: area_mm2(view.req("socket_module_area_mm2")?)?,
                node,
                center_node,
                integration: view.req::<IntegrationKind>("integration")?.value,
                quantity_each: Quantity::new(view.req::<u64>("quantity")?.value),
                package_reuse: view.opt::<bool>("package_reuse")?.is_some_and(|s| s.value),
            };
            view.deny_unknown()?;
            build_reuse_portfolio(&name, || {
                if soc_baseline {
                    spec.soc_portfolio()
                } else {
                    spec.portfolio()
                }
            })?
        }
        "fsmc" => {
            let node = check_node(lib, view.req::<&str>("node")?)?;
            let spec = FsmcSpec {
                sockets: view.req::<u32>("sockets")?.value,
                chiplet_types: view.req::<u32>("chiplet_types")?.value,
                socket_module_area: area_mm2(view.req("socket_module_area_mm2")?)?,
                node,
                integration: view.req::<IntegrationKind>("integration")?.value,
                quantity_each: Quantity::new(view.req::<u64>("quantity")?.value),
            };
            view.deny_unknown()?;
            build_reuse_portfolio(&name, || {
                if soc_baseline {
                    spec.soc_portfolio()
                } else {
                    spec.portfolio()
                }
            })?
        }
        "custom" => {
            let systems = view.opt_tables("system")?;
            view.deny_unknown()?;
            if systems.is_empty() {
                return Err(ScenarioError::schema(
                    table.pos,
                    format!("custom portfolio `{name}` needs at least one [[portfolio.system]]"),
                ));
            }
            if soc_baseline {
                return Err(ScenarioError::schema(
                    table.pos,
                    "custom portfolios have no generated SoC baseline; describe it explicitly"
                        .to_string(),
                ));
            }
            let mut built = Vec::with_capacity(systems.len());
            for system in systems {
                built.push(lower_system(system, lib)?);
            }
            Portfolio::new(built)
        }
        other => {
            return Err(ScenarioError::schema(
                scheme.pos,
                format!("unknown scheme {other:?} (scms|ocme|fsmc|custom)"),
            ))
        }
    };
    Ok(CostJob {
        name,
        flow,
        portfolio,
    })
}

/// Builds a reuse-scheme portfolio, mapping spec errors to schema errors
/// with the job's name.
fn build_reuse_portfolio(
    name: &str,
    build: impl FnOnce() -> Result<Portfolio, actuary_arch::ArchError>,
) -> Result<Portfolio, ScenarioError> {
    build().map_err(|e| ScenarioError::Engine {
        context: name.to_string(),
        message: e.to_string(),
    })
}

/// Lowers one `[[portfolio.system]]` table.
fn lower_system(table: &Table, lib: &TechLibrary) -> Result<System, ScenarioError> {
    let mut view = View::new(table, "[[portfolio.system]]");
    let name = view.req::<&str>("name")?.value.to_string();
    let integration = view.req::<IntegrationKind>("integration")?.value;
    let quantity = view.req::<u64>("quantity")?.value;
    let package_design = view
        .opt::<&str>("package_design")?
        .map(|s| s.value.to_string());
    let chips = view.opt_tables("chip")?;
    view.deny_unknown()?;
    if chips.is_empty() {
        return Err(ScenarioError::schema(
            table.pos,
            format!("system `{name}` needs at least one [[portfolio.system.chip]]"),
        ));
    }
    let mut builder = System::builder(&name, integration).quantity(Quantity::new(quantity));
    if let Some(design) = package_design {
        builder = builder.package_design(design);
    }
    for chip_table in chips {
        let (chip, count) = lower_chip(chip_table, lib)?;
        builder = builder.chip(chip, count);
    }
    builder.build().map_err(|e| ScenarioError::Schema {
        pos: table.pos,
        message: e.to_string(),
    })
}

/// Lowers one `[[portfolio.system.chip]]` table.
fn lower_chip(table: &Table, lib: &TechLibrary) -> Result<(Chip, u32), ScenarioError> {
    let mut view = View::new(table, "[[portfolio.system.chip]]");
    let name = view.req::<&str>("name")?.value.to_string();
    let node = check_node(lib, view.req::<&str>("node")?)?;
    let count = view.opt::<u32>("count")?.map_or(1, |s| s.value);
    let monolithic = view.opt::<bool>("monolithic")?.is_some_and(|s| s.value);
    let modules = view.opt_tables("module")?;
    view.deny_unknown()?;
    if modules.is_empty() {
        return Err(ScenarioError::schema(
            table.pos,
            format!("chip `{name}` needs at least one [[portfolio.system.chip.module]]"),
        ));
    }
    let mut built = Vec::with_capacity(modules.len());
    for module_table in modules {
        let mut m = View::new(module_table, "[[portfolio.system.chip.module]]");
        let module_name = m.req::<&str>("name")?.value.to_string();
        let area = area_mm2(m.req("area_mm2")?)?;
        let module_node = match m.opt::<&str>("node")? {
            Some(s) => check_node(lib, s)?,
            None => node.clone(),
        };
        m.deny_unknown()?;
        built.push(Module::new(module_name, module_node, area));
    }
    let chip = if monolithic {
        Chip::monolithic(name, node, built)
    } else {
        Chip::chiplet(name, node, built)
    };
    Ok((chip, count))
}

/// Lowers one `[[yield]]` table.
fn lower_yield_job(table: &Table, lib: &TechLibrary) -> Result<YieldJob, ScenarioError> {
    let mut view = View::new(table, "[[yield]]");
    let name = check_file_name(view.req::<&str>("name")?, "job name")?;
    let techs = view.req_array("techs", |v, p| {
        let s = Spanned {
            value: elem::<&str>(v, p, "a technology")?,
            pos: p,
        };
        match s.value.to_ascii_lowercase().as_str() {
            "info" | "rdl" => Ok(YieldTech::Interposer(IntegrationKind::Info)),
            "2.5d" | "si" | "si-interposer" => {
                Ok(YieldTech::Interposer(IntegrationKind::TwoPointFiveD))
            }
            _ => {
                check_node(lib, s)?;
                Ok(YieldTech::Node(s.value.to_string()))
            }
        }
    })?;
    let areas_mm2 = view.req_array("areas_mm2", area_elem)?;
    view.deny_unknown()?;
    if techs.is_empty() || areas_mm2.is_empty() {
        return Err(ScenarioError::schema(
            table.pos,
            format!("yield job `{name}` needs at least one technology and one area"),
        ));
    }
    Ok(YieldJob {
        name,
        techs,
        areas_mm2,
    })
}

/// Executes a yield job (the Figure 2 computation, scenario-driven).
fn run_yield_job(
    lib: &TechLibrary,
    job: &YieldJob,
    rows: &mut Vec<YieldRow>,
) -> Result<(), Box<dyn std::error::Error>> {
    use actuary_yield::{NegativeBinomial, YieldModel};
    for tech in &job.techs {
        let (label, defect, cluster, price, wafer) = match tech {
            YieldTech::Node(id) => {
                let node = lib.node(id)?;
                (
                    tech.to_string(),
                    node.defect_density(),
                    node.cluster(),
                    node.wafer_price(),
                    node.wafer(),
                )
            }
            YieldTech::Interposer(kind) => {
                let p = lib.packaging(*kind)?;
                let ip = p
                    .interposer()
                    .ok_or_else(|| format!("{kind} packaging defines no interposer process"))?;
                (
                    tech.to_string(),
                    ip.defect_density(),
                    ip.cluster(),
                    ip.wafer_price(),
                    ip.wafer(),
                )
            }
        };
        let model = NegativeBinomial::new(cluster)?;
        let per_mm2 = wafer.cost_per_usable_mm2(price);
        for &mm2 in &job.areas_mm2 {
            let area = Area::from_mm2(mm2)?;
            let y = model.die_yield(defect, area);
            let raw = wafer.raw_die_cost(price, area)?;
            let yielded = raw * y.reciprocal()?;
            rows.push(YieldRow {
                job: job.name.clone(),
                tech: label.clone(),
                area_mm2: mm2,
                yield_frac: y.value(),
                raw_die_usd: raw.usd(),
                yielded_die_usd: yielded.usd(),
                cost_per_area_norm: (yielded.usd() / mm2) / per_mm2.usd(),
            });
        }
    }
    Ok(())
}

/// Lowers one `[[sweep]]` table into a [`SweepJob`].
fn lower_sweep_job(table: &Table, lib: &TechLibrary) -> Result<SweepJob, ScenarioError> {
    let mut view = View::new(table, "[[sweep]]");
    let name = check_file_name(view.req::<&str>("name")?, "job name")?;
    let node = view.req::<&str>("node")?;
    check_node(lib, node)?;
    let chiplets = view.req::<u32>("chiplets")?;
    // Each integration becomes a series column named after it, so
    // duplicates would emit ambiguous CSV columns — reject them like
    // duplicate `outputs`.
    let mut integrations: Vec<IntegrationKind> = Vec::new();
    for (kind, pos) in view.req_array("integrations", |v, p| {
        Ok((elem::<IntegrationKind>(v, p, "an integration")?, p))
    })? {
        if integrations.contains(&kind) {
            return Err(ScenarioError::schema(
                pos,
                format!("duplicate integration `{kind}`"),
            ));
        }
        integrations.push(kind);
    }
    let areas_mm2 = view.opt_array("areas_mm2", area_elem)?;
    let quantities = view
        .opt_array("quantities", |v, p| Ok((elem(v, p, "a quantity")?, p)))?
        .map(check_quantities)
        .transpose()?;
    let fixed_area = view.opt::<f64>("area_mm2")?;
    let axis = match (areas_mm2, quantities) {
        (Some(areas), None) => {
            if let Some(a) = fixed_area {
                return Err(ScenarioError::schema(
                    a.pos,
                    "`area_mm2` only pairs with a `quantities` sweep (an `areas_mm2` sweep \
                     already sweeps the area)",
                ));
            }
            if areas.is_empty() {
                return Err(ScenarioError::schema(
                    table.pos,
                    format!("sweep job `{name}` needs at least one area"),
                ));
            }
            SweepAxis::Area(areas)
        }
        (None, Some(quantities)) => {
            let area = fixed_area.ok_or_else(|| {
                ScenarioError::schema(
                    table.pos,
                    format!("quantity sweep `{name}` needs the fixed `area_mm2` key"),
                )
            })?;
            Area::from_mm2(area.value)
                .map_err(|e| ScenarioError::schema(area.pos, e.to_string()))?;
            if quantities.is_empty() {
                return Err(ScenarioError::schema(
                    table.pos,
                    format!("sweep job `{name}` needs at least one quantity"),
                ));
            }
            SweepAxis::Quantity {
                area_mm2: area.value,
                quantities,
            }
        }
        (Some(_), Some(_)) | (None, None) => {
            return Err(ScenarioError::schema(
                table.pos,
                format!(
                    "sweep job `{name}` needs exactly one swept axis: `areas_mm2` or \
                     `quantities` (with a fixed `area_mm2`)"
                ),
            ));
        }
    };
    let flow = view
        .opt::<AssemblyFlow>("flow")?
        .map_or(AssemblyFlow::ChipLast, |s| s.value);
    view.deny_unknown()?;
    if integrations.is_empty() {
        return Err(ScenarioError::schema(
            table.pos,
            format!("sweep job `{name}` needs at least one integration"),
        ));
    }
    if chiplets.value < 2 && integrations.iter().any(|k| k.is_multi_chip()) {
        return Err(ScenarioError::schema(
            chiplets.pos,
            "multi-chip sweep series need at least 2 chiplets (a single die has no D2D \
             interface)",
        ));
    }
    Ok(SweepJob {
        name,
        node: node.value.to_string(),
        chiplets: chiplets.value,
        integrations,
        axis,
        flow,
    })
}

/// Executes a sweep job. An area sweep is the Figure 4 computation —
/// per-unit RE cost of every integration kind over the area grid,
/// multi-chip series splitting the module area across `chiplets`
/// D2D-inflated dies. A quantity sweep is the §4.2 crossover workload —
/// per-unit *total* cost (RE plus NRE amortized at each quantity) of every
/// integration kind at the fixed area, each series evaluating its
/// quantity-independent [`candidate_core`] once and re-amortizing it per
/// point.
fn run_sweep_job(lib: &TechLibrary, job: &SweepJob) -> Result<Sweep, ArchError> {
    let (x_label, points) = match &job.axis {
        SweepAxis::Area(areas_mm2) => {
            let node = lib.node(&job.node)?;
            let packagings = (job.integrations.iter())
                .map(|&kind| lib.packaging(kind))
                .collect::<Result<Vec<_>, _>>()?;
            let mut points = Vec::with_capacity(areas_mm2.len());
            for &x in areas_mm2 {
                let area = Area::from_mm2(x)?;
                let mut values = Vec::with_capacity(packagings.len());
                for packaging in &packagings {
                    let re = equal_split_re_cost(node, packaging, area, job.chiplets, job.flow)?;
                    values.push(re.total().usd());
                }
                points.push(SweepPoint { x, values });
            }
            ("area_mm2", points)
        }
        SweepAxis::Quantity {
            area_mm2,
            quantities,
        } => {
            let area = Area::from_mm2(*area_mm2)?;
            let cores = (job.integrations.iter())
                .map(|&kind| {
                    let chiplets = if kind.is_multi_chip() {
                        job.chiplets
                    } else {
                        1
                    };
                    candidate_core(lib, &job.node, area, kind, chiplets, job.flow)
                })
                .collect::<Result<Vec<_>, _>>()?;
            let points = (quantities.iter())
                .map(|&q| SweepPoint {
                    x: q as f64,
                    values: (cores.iter())
                        .map(|core| core.at_quantity(Quantity::new(q)).per_unit.usd())
                        .collect(),
                })
                .collect();
            ("quantity", points)
        }
    };
    let series = job.integrations.iter().map(ToString::to_string).collect();
    Ok(Sweep::new(x_label, series, points))
}

/// Lowers the `[explore]` table into an [`ExploreJob`].
fn lower_explore_job(table: &Table, lib: &TechLibrary) -> Result<ExploreJob, ScenarioError> {
    let mut view = View::new(table, "[explore]");
    let name = match view.opt::<&str>("name")? {
        Some(s) => check_file_name(s, "job name")?,
        None => "explore".to_string(),
    };
    let mut space = PortfolioSpace {
        flows: vec![AssemblyFlow::ChipLast],
        schemes: vec![ReuseScheme::None],
        ..PortfolioSpace::default()
    };
    if let Some(nodes) = view.opt_axis("nodes", |v, p| {
        let s = Spanned {
            value: elem::<&str>(v, p, "a node id")?,
            pos: p,
        };
        check_node(lib, s)?;
        Ok(s.value.to_string())
    })? {
        space.nodes = nodes;
    } else {
        // The default axis references preset nodes; restrict it to the ones
        // the scenario's library actually has.
        space.nodes.retain(|n| lib.node(n).is_ok());
        if space.nodes.is_empty() {
            return Err(ScenarioError::schema(
                table.pos,
                "the scenario library has none of the default exploration nodes; \
                 give [explore] an explicit `nodes` list",
            ));
        }
    }
    if let Some(areas) = view.opt_axis("areas_mm2", area_elem)? {
        space.areas_mm2 = areas;
    }
    if let Some(q) = view.opt_axis("quantities", |v, p| Ok((elem(v, p, "a quantity")?, p)))? {
        space.quantities = check_quantities(q)?;
    }
    if let Some(kinds) = view.opt_axis("integrations", |v, p| elem(v, p, "an integration"))? {
        space.integrations = kinds;
    }
    if let Some(chiplets) = view.opt_axis("chiplets", |v, p| elem(v, p, "a chiplet count"))? {
        space.chiplet_counts = chiplets;
    }
    if let Some(flows) = view.opt_axis("flows", |v, p| elem(v, p, "a flow"))? {
        space.flows = flows;
    }
    if let Some(schemes) = view.opt_axis("schemes", |v, p| elem(v, p, "a scheme"))? {
        space.schemes = schemes;
    }
    if let Some(m) = view.opt_axis("scms_multiplicities", |v, p| elem(v, p, "a multiplicity"))? {
        space.scms_multiplicities = m;
    }
    if let Some(situations) = view.opt_axis("fsmc_situations", |v, p| {
        let s = elem(v, p, "an FSMC situation")?;
        // The KxN grammar is owned by actuary-dse, shared with the CLI.
        parse_fsmc_situation(s).map_err(|message| ScenarioError::schema(p, message))
    })? {
        space.fsmc_situations = situations;
    }
    if let Some(centers) = view.opt_axis("ocme_center_nodes", |v, p| {
        let s = Spanned {
            value: elem::<&str>(v, p, "a centre node")?,
            pos: p,
        };
        if s.value.eq_ignore_ascii_case("none") {
            Ok(None)
        } else {
            check_node(lib, s)?;
            Ok(Some(s.value.to_string()))
        }
    })? {
        space.ocme_center_nodes = centers;
    }
    if let Some(b) = view.opt::<bool>("package_reuse")? {
        space.package_reuse = b.value;
    }
    // A scheme parameter only acts on its scheme's cells: given for a
    // scheme the job does not run, it would be silently ignored.
    let runs = |scheme| space.schemes.contains(&scheme);
    let unread = [
        (
            "scms_multiplicities",
            !runs(ReuseScheme::Scms),
            "grids the scms scheme; add \"scms\" to `schemes`",
        ),
        (
            "fsmc_situations",
            !runs(ReuseScheme::Fsmc),
            "grids the fsmc scheme; add \"fsmc\" to `schemes`",
        ),
        (
            "ocme_center_nodes",
            !runs(ReuseScheme::Ocme),
            "grids the ocme scheme; add \"ocme\" to `schemes`",
        ),
        (
            "package_reuse",
            space.package_reuse && !runs(ReuseScheme::Scms) && !runs(ReuseScheme::Ocme),
            "affects only the scms and ocme families; add \"scms\" or \"ocme\" to `schemes`",
        ),
    ];
    for (key, ignored, advice) in unread {
        if let Some(entry) = table.get(key).filter(|_| ignored) {
            return Err(ScenarioError::schema(
                entry.key_pos,
                format!("`{key}` {advice}"),
            ));
        }
    }
    let mode = view
        .opt::<ExploreMode>("mode")?
        .map_or(ExploreMode::Exhaustive, |s| s.value);
    let outputs = match view.opt_array("outputs", |v, p| {
        Ok((elem::<ExploreOutput>(v, p, "an output")?, p))
    })? {
        None => vec![ExploreOutput::Grid],
        Some(list) => {
            if list.is_empty() {
                return Err(ScenarioError::schema(
                    table.pos,
                    "`outputs` needs at least one entry (grid|winners|pareto|pareto_program)",
                ));
            }
            let mut outputs = Vec::with_capacity(list.len());
            for (output, pos) in list {
                if outputs.contains(&output) {
                    return Err(ScenarioError::schema(
                        pos,
                        format!("duplicate output `{output}`"),
                    ));
                }
                outputs.push(output);
            }
            outputs
        }
    };
    view.deny_unknown()?;
    // The rules that span axes (distinct family parameters, counts of at
    // least 1, socket and type counts) are the engine's own, checked once.
    space
        .validate()
        .map_err(|e| ScenarioError::schema(table.pos, e.to_string()))?;
    Ok(ExploreJob {
        name,
        space,
        mode,
        outputs,
    })
}
