//! Integration tests of certified refinement against the full model
//! stack: the refined path must reproduce the exhaustive winner tables
//! and both Pareto fronts byte for byte — across 1 vs 4 threads, across
//! the reuse-scheme axes, on the diagonal winner step that once fooled a
//! heuristic walker, and on seeded random technology overlays — while
//! evaluating strictly fewer cells than exhaustion. The crossover test
//! anchors the quantity axis to the committed §4.2 scenario: refinement
//! must find the same MCM-under-SoC crossover quantity that exhaustion
//! finds.

use std::collections::HashMap;

use chiplet_actuary::dse::explore::CellOutcome;
use chiplet_actuary::dse::portfolio::{
    explore_portfolio, explore_portfolio_with, CorePolicy, PortfolioResult, PortfolioSpace,
    ReuseScheme, SharedCoreCache,
};
use chiplet_actuary::dse::refine::{
    explore_portfolio_refined, explore_portfolio_refined_observed, ExploreMode,
};
use chiplet_actuary::prelude::*;
use chiplet_actuary::report::Artifact;
use chiplet_actuary::scenario::{Job, Scenario, StreamSink, SweepAxis};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn lib() -> TechLibrary {
    TechLibrary::paper_defaults().unwrap()
}

/// A tier-1-sized reference grid with a long strictly increasing area
/// ramp (the refinement axis) crossed with every reuse scheme:
/// 2 nodes × 24 areas × 2 quantities × 4 integrations × 5 chiplet counts
/// × 6 scheme variants = 11,520 cells of mixed feasibility.
fn reference_space() -> PortfolioSpace {
    PortfolioSpace {
        nodes: vec!["14nm".to_string(), "5nm".to_string()],
        areas_mm2: (1..=24).map(|i| f64::from(i) * 45.0).collect(),
        quantities: vec![500_000, 10_000_000],
        integrations: IntegrationKind::ALL.to_vec(),
        chiplet_counts: vec![1, 2, 3, 4, 5],
        flows: vec![AssemblyFlow::ChipLast],
        schemes: ReuseScheme::ALL.to_vec(),
        ..PortfolioSpace::default()
    }
}

/// A quantity-swept reference grid: 16 quantities crossing the §4.2
/// amortization band, so winners flip along the quantity axis too.
fn quantity_swept_space() -> PortfolioSpace {
    PortfolioSpace {
        nodes: vec!["7nm".to_string()],
        areas_mm2: (1..=10).map(|i| f64::from(i) * 90.0).collect(),
        quantities: (1..=16).map(|i| i * 750_000).collect(),
        integrations: IntegrationKind::ALL.to_vec(),
        chiplet_counts: vec![1, 2, 3, 4],
        flows: vec![AssemblyFlow::ChipLast],
        schemes: vec![ReuseScheme::None, ReuseScheme::Scms],
        ..PortfolioSpace::default()
    }
}

/// Asserts the refined winner tables and both Pareto fronts are
/// byte-identical to exhaustion's.
fn assert_same_answers(refined: &PortfolioResult, exhaustive: &PortfolioResult, context: &str) {
    assert_eq!(
        refined.winners_artifact().csv(),
        exhaustive.winners_artifact().csv(),
        "{context}: winner tables must be byte-identical"
    );
    assert_eq!(
        refined.pareto_artifact().csv(),
        exhaustive.pareto_artifact().csv(),
        "{context}: per-unit fronts must be byte-identical"
    );
    assert_eq!(
        refined.pareto_program_artifact().csv(),
        exhaustive.pareto_program_artifact().csv(),
        "{context}: program fronts must be byte-identical"
    );
}

#[test]
fn refined_portfolio_matches_exhaustion_across_strides_and_threads() {
    let lib = lib();
    let space = reference_space();
    let exhaustive = explore_portfolio(&lib, &space, 1).unwrap();
    for threads in [1, 4] {
        let refined = explore_portfolio_refined(&lib, &space, threads).unwrap();
        assert_eq!(refined.len(), exhaustive.len());
        assert_same_answers(&refined, &exhaustive, &format!("threads={threads}"));
        assert_eq!(
            refined.feasible_count()
                + refined.infeasible_count()
                + refined.incompatible_count()
                + refined.pruned_count(),
            refined.len(),
            "threads={threads}: no cell may be silently dropped"
        );
        // Refinement must visit strictly fewer cells than exhaustion. (The
        // ≥10× core-evaluation reduction is pinned by bench_json's
        // 10⁷-cell grid, not here.)
        assert!(
            refined.len() - refined.pruned_count() < exhaustive.len(),
            "threads={threads}: refinement must actually skip cells"
        );
    }
}

#[test]
fn quantity_refined_portfolio_matches_exhaustion_across_strides_and_threads() {
    let lib = lib();
    let space = quantity_swept_space();
    let exhaustive = explore_portfolio(&lib, &space, 1).unwrap();
    for threads in [1, 4] {
        let refined = explore_portfolio_refined(&lib, &space, threads).unwrap();
        assert_same_answers(&refined, &exhaustive, &format!("threads={threads}"));
        assert!(
            refined.pruned_count() > 0,
            "threads={threads}: refinement must prune"
        );
        assert_eq!(
            refined.feasible_count()
                + refined.infeasible_count()
                + refined.incompatible_count()
                + refined.pruned_count(),
            refined.len(),
            "threads={threads}: no cell silently dropped"
        );
    }
}

#[test]
fn refined_decisions_do_not_depend_on_the_thread_count() {
    let lib = lib();
    let space = reference_space();
    let serial = explore_portfolio_refined(&lib, &space, 1).unwrap();
    let parallel = explore_portfolio_refined(&lib, &space, 4).unwrap();
    // Not just the headline tables: the entire evaluated/pruned cell set
    // and the evaluation count must be identical, or refinement decisions
    // leaked a dependence on work scheduling.
    assert_eq!(serial.grid_artifact().csv(), parallel.grid_artifact().csv());
    assert_eq!(serial.pruned_count(), parallel.pruned_count());
    assert_eq!(serial.core_evaluations(), parallel.core_evaluations());
}

/// The first swept quantity at which the scheme-free winner is the MCM —
/// the §4.2 "reuse payback" point the crossover scenario plots.
fn mcm_crossover_quantity(result: &PortfolioResult) -> Option<u64> {
    result
        .winners(ReuseScheme::None)
        .into_iter()
        .find(|w| matches!(&w.best, Some((c, _)) if c.integration == IntegrationKind::Mcm))
        .map(|w| w.quantity)
}

#[test]
fn two_d_refinement_finds_the_crossover_quantity_of_the_committed_scenario() {
    // Anchor the quantity axis to the committed §4.2 scenario rather than
    // an ad-hoc grid: read crossover.toml's sweep and grid the same
    // (node, area, quantities) with SoC vs the 2-chiplet MCM.
    let path = format!(
        "{}/examples/scenarios/crossover.toml",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let scenario = Scenario::from_toml(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let sweep = scenario
        .jobs
        .iter()
        .find_map(|j| match j {
            Job::Sweep(s) => Some(s),
            _ => None,
        })
        .expect("crossover.toml carries the §4.2 sweep job");
    let SweepAxis::Quantity {
        area_mm2,
        quantities,
    } = &sweep.axis
    else {
        panic!("the crossover sweep is quantity-swept");
    };

    let space = PortfolioSpace {
        nodes: vec![sweep.node.clone()],
        areas_mm2: vec![*area_mm2],
        quantities: quantities.clone(),
        integrations: vec![IntegrationKind::Soc, IntegrationKind::Mcm],
        chiplet_counts: vec![1, sweep.chiplets],
        flows: vec![sweep.flow],
        schemes: vec![ReuseScheme::None],
        ..PortfolioSpace::default()
    };
    let exhaustive = explore_portfolio(&lib(), &space, 1).unwrap();
    let refined = explore_portfolio_refined(&lib(), &space, 1).unwrap();

    let anchor = mcm_crossover_quantity(&exhaustive)
        .expect("§4.2: the MCM must undercut the SoC at some swept quantity");
    // The §4.2 shape: the SoC wins the low-volume end (its single mask
    // set amortizes first), so the crossover sits strictly inside the
    // sweep.
    assert!(anchor > quantities[0], "the SoC must win at low volume");
    assert_eq!(
        mcm_crossover_quantity(&refined),
        Some(anchor),
        "refinement must find the same MCM-under-SoC crossover quantity as exhaustion"
    );
    assert_eq!(
        refined.winners_artifact().csv(),
        exhaustive.winners_artifact().csv()
    );
}

#[test]
fn single_system_refinement_matches_explore_through_the_facade() {
    let lib = lib();
    let space = PortfolioSpace {
        nodes: vec!["7nm".to_string(), "5nm".to_string()],
        areas_mm2: (1..=30).map(|i| f64::from(i) * 40.0).collect(),
        quantities: vec![500_000, 10_000_000],
        integrations: IntegrationKind::ALL.to_vec(),
        chiplet_counts: vec![1, 2, 3, 4, 5],
        flows: vec![AssemblyFlow::ChipLast],
        schemes: vec![ReuseScheme::None],
        ..PortfolioSpace::default()
    };
    let exhaustive = explore_portfolio(&lib, &space, 2).unwrap();
    let refined = explore_portfolio_refined(&lib, &space, 2).unwrap();
    assert_same_answers(&refined, &exhaustive, "single system");
}

#[test]
fn explore_mode_parses_the_scenario_spelling() {
    assert_eq!("refine".parse::<ExploreMode>(), Ok(ExploreMode::Refine));
    assert_eq!(
        "EXHAUSTIVE".parse::<ExploreMode>(),
        Ok(ExploreMode::Exhaustive)
    );
    assert!("adaptive".parse::<ExploreMode>().is_err());
}

/// A minimised seed of a differential fuzz: at 491.9 mm² the OCME winner
/// steps *diagonally* on the ordered (integration, chiplet) axes, from
/// MCM × 3 at the neighbouring areas to InFO × 5, a configuration no
/// neighbouring winner spans.
const DIAG_REFINE: &str = r#"
name = "diag-refine"
extends = "preset"
[nodes.7nm]
wafer_price_usd = 5146
defect_density = 0.1030
mask_set_usd = 22932821
k_module_usd = 268615
[nodes.7nm.d2d]
area_fraction = 0.080
[packaging.mcm]
assembly_cost_usd = 13.46
bond_cost_per_chip_usd = 2.15
chip_bond_yield = 0.9867
[packaging."2.5d".interposer]
defect_density = 0.0916
[explore]
name = "grid"
mode = "refine"
nodes = ["7nm"]
schemes = ["ocme"]
integrations = ["soc", "mcm", "info", "2.5d"]
chiplets = [3, 5]
quantities = [13880295]
areas_mm2 = [25.9, 72.5, 90.2, 99.0, 137.8, 183.2, 184.9, 186.8, 250.5, 254.4, 269.6, 332.8, 344.6, 346.6, 373.7, 377.8, 414.4, 424.9, 442.3, 448.5, 467.5, 491.9, 618.0, 835.0, 894.1]
outputs = ["winners"]
"#;

#[test]
fn diagonal_winner_step_matches_exhaustion() {
    let winners = |text: &str| {
        let run = Scenario::from_toml(text).unwrap().run(2).unwrap();
        run.explores[0].result.winners_artifact().csv()
    };
    let refined = winners(DIAG_REFINE);
    let exhaustive = winners(&DIAG_REFINE.replace("mode = \"refine\"", "mode = \"exhaustive\""));
    assert_eq!(refined, exhaustive);
    let row = refined
        .lines()
        .find(|row| row.contains(",491.9,"))
        .expect("a winner row at 491.9 mm²");
    assert!(row.contains("InFO,5,chip-last,112.379659"), "{row}");
}

/// Picks a non-empty random subset of `items`, in their order.
fn subset<T: Copy>(rng: &mut StdRng, items: &[T]) -> Vec<T> {
    loop {
        let picked: Vec<T> = items
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(0.5))
            .collect();
        if !picked.is_empty() {
            return picked;
        }
    }
}

/// A uniform draw from `lo..hi`.
fn uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.gen::<f64>()
}

/// Up to `n` draws from `lo..hi`, rounded to `step`, strictly increasing
/// (rounding can collide two draws into one).
fn ramp(rng: &mut StdRng, n: usize, lo: f64, hi: f64, step: f64) -> Vec<f64> {
    let mut values: Vec<f64> = (0..n)
        .map(|_| (uniform(rng, lo, hi) / step).round() * step)
        .collect();
    values.sort_by(f64::total_cmp);
    values.dedup();
    values
}

/// A seeded random refine scenario: technology overlays inside the
/// ranges the builders accept, over random axis subsets.
fn random_scenario(seed: u64) -> String {
    let rng = &mut StdRng::seed_from_u64(seed);
    let mut doc = format!("name = \"fuzz-{seed}\"\nextends = \"preset\"\n");
    let nodes = subset(rng, &["5nm", "7nm", "14nm"]);
    for node in &nodes {
        doc += &format!("[nodes.{node}]\n");
        let overlays = [
            ("wafer_price_usd", 2_000.0, 30_000.0),
            ("defect_density", 0.03, 0.3),
            ("cluster", 1.0, 20.0),
            ("mask_set_usd", 1e6, 5e7),
            ("k_module_usd", 5e4, 2e6),
        ];
        for (key, lo, hi) in overlays {
            if rng.gen_bool(0.5) {
                doc += &format!("{key} = {:.4}\n", uniform(rng, lo, hi));
            }
        }
        if rng.gen_bool(0.5) {
            let fraction = uniform(rng, 0.02, 0.25);
            doc += &format!("[nodes.{node}.d2d]\narea_fraction = {fraction:.4}\n");
        }
    }
    doc += &format!(
        "[packaging.mcm]\nassembly_cost_usd = {:.2}\nbond_cost_per_chip_usd = {:.2}\n\
         chip_bond_yield = {:.4}\n[packaging.\"2.5d\".interposer]\ndefect_density = {:.4}\n",
        uniform(rng, 1.0, 20.0),
        uniform(rng, 0.1, 3.0),
        uniform(rng, 0.95, 0.999),
        uniform(rng, 0.02, 0.2),
    );
    let quote = |items: &[&str]| {
        let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
        quoted.join(", ")
    };
    let list = |values: &[f64]| {
        let shown: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
        shown.join(", ")
    };
    let area_count = 3 + (rng.gen::<u64>() % 28) as usize;
    let quantity_count = 1 + (rng.gen::<u64>() % 6) as usize;
    let areas = ramp(rng, area_count, 10.0, 900.0, 0.1);
    let quantities = ramp(rng, quantity_count, 1e5, 3e7, 1.0);
    let chiplets: Vec<String> = subset(rng, &[1, 2, 3, 4, 5, 6, 8])
        .iter()
        .map(u32::to_string)
        .collect();
    doc += &format!(
        "[explore]\nname = \"grid\"\nmode = \"refine\"\nnodes = [{}]\nschemes = [{}]\n\
         flows = [{}]\nchiplets = [{}]\nareas_mm2 = [{}]\nquantities = [{}]\n",
        quote(&nodes),
        quote(&subset(rng, &["none", "scms", "ocme", "fsmc"])),
        quote(&subset(rng, &["chip-first", "chip-last"])),
        chiplets.join(", "),
        list(&areas),
        list(&quantities),
    );
    doc
}

/// Records every streamed segment's CSV text: header-bearing for an
/// opening segment, rows only for a continuation.
struct Segments(Vec<String>);

impl StreamSink for Segments {
    fn segment(&mut self, artifact: Artifact<'_>, continuation: bool) -> bool {
        let mut text = String::new();
        if continuation {
            artifact.write_csv_rows_to(&mut text).unwrap();
        } else {
            artifact.write_csv_to(&mut text).unwrap();
        }
        self.0.push(text);
        true
    }
}

/// Streams `scenario` (one refine-mode job emitting its grid) and checks
/// the streamed ≡ batch contract: the returned run renders the `batch`
/// artifacts byte for byte, and the segments carry each row of the batch
/// `grid` exactly once, in grid order within a segment, so re-sorting
/// them reproduces that grid.
fn check_streamed(scenario: &Scenario, batch: &[String], grid: &str, context: &str) {
    let mut sink = Segments(Vec::new());
    let streamed = scenario.run_with(2, None, &mut sink).unwrap();
    let rendered: Vec<String> = streamed.artifacts().into_iter().map(|a| a.csv()).collect();
    assert_eq!(rendered, batch, "{context}: streamed run");

    let mut lines = grid.lines();
    let header = lines.next().expect("the grid has a header");
    let position: HashMap<&str, usize> = lines.enumerate().map(|(i, row)| (row, i)).collect();
    let mut rows: Vec<(usize, &str)> = Vec::with_capacity(position.len());
    for (k, text) in sink.0.iter().enumerate() {
        let mut lines = text.lines();
        if k == 0 {
            assert_eq!(lines.next(), Some(header), "{context}: opening segment");
        }
        let first = rows.len();
        for row in lines {
            let at = *position
                .get(row)
                .unwrap_or_else(|| panic!("{context}: streamed a row the batch grid lacks: {row}"));
            rows.push((at, row));
        }
        assert!(
            rows[first..].windows(2).all(|pair| pair[0].0 < pair[1].0),
            "{context}: segment {k} must be in grid order"
        );
    }
    rows.sort_unstable();
    let mut reassembled = format!("{header}\n");
    for (_, row) in rows {
        reassembled.push_str(row);
        reassembled.push('\n');
    }
    assert_eq!(reassembled, grid, "{context}: re-sorted segments");
}

/// Checks refinement against exhaustion on one seeded random scenario:
/// winners and both fronts, every priced grid row, 1 vs 4 threads, a
/// warm core-cache rerun, the uncached reference engine, and streamed ≡
/// batch delivery.
fn check_seed(seed: u64) {
    let text = random_scenario(seed);
    let scenario =
        Scenario::from_toml(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
    let Some(Job::Explore(job)) = scenario.jobs.first() else {
        panic!("seed {seed}: the document has one explore job");
    };
    let (lib, space) = (&scenario.library, &job.space);
    let context = format!("seed {seed}\n{text}");
    let exhaustive = explore_portfolio(lib, space, 1).unwrap();
    let refined = explore_portfolio_refined(lib, space, 1).unwrap();
    assert_same_answers(&refined, &exhaustive, &context);

    let grid = refined.grid_artifact().csv();
    let reference = exhaustive.grid_artifact().csv();
    assert_eq!(grid.lines().count(), reference.lines().count(), "{context}");
    let rows = grid.lines().zip(reference.lines()).skip(1);
    for ((row, expected), cell) in rows.zip(refined.iter_cells()) {
        if cell.outcome != CellOutcome::Pruned {
            assert_eq!(row, expected, "{context}");
        }
    }

    let parallel = explore_portfolio_refined(lib, space, 4).unwrap();
    assert_eq!(
        parallel.grid_artifact().csv(),
        grid,
        "{context}: 1 vs 4 threads"
    );

    let cache = SharedCoreCache::new(usize::MAX);
    let shared = || {
        explore_portfolio_refined_observed(lib, space, 2, Some((&cache, [7; 32])), None).unwrap()
    };
    assert_eq!(
        shared().grid_artifact().csv(),
        grid,
        "{context}: cold cache"
    );
    let warm = shared();
    assert_eq!(warm.grid_artifact().csv(), grid, "{context}: warm cache");
    assert_eq!(warm.core_evaluations(), 0, "{context}: warm cache");

    let uncached = explore_portfolio_with(lib, space, 2, CorePolicy::Uncached).unwrap();
    assert_eq!(
        uncached.grid_artifact().csv(),
        reference,
        "{context}: uncached exhaustion"
    );

    let batch: Vec<String> = (job.outputs.iter())
        .map(|output| output.artifact(&job.name, &refined).csv())
        .collect();
    check_streamed(&scenario, &batch, &grid, &context);
}

#[test]
fn refinement_matches_exhaustion_on_seeded_random_scenarios() {
    // Seed 36 caught the heuristic walker this engine replaced.
    for seed in (0..10).chain([36]) {
        check_seed(seed);
    }
}

/// The long soak of the same differential check; CI runs it in release
/// mode (`cargo test --release --test integration_refine -- --ignored`).
#[test]
#[ignore = "soak: 1,000 seeds, run in release mode"]
fn refinement_matches_exhaustion_on_a_thousand_seeds() {
    for seed in 0..1_000 {
        check_seed(seed);
    }
}
