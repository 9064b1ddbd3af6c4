//! Emits a machine-readable performance snapshot of the exploration
//! engines as JSON on stdout — the `BENCH_explore.json` artifact CI
//! uploads on every push, seeding the repo's performance trajectory.
//!
//! The numbers are wall-clock medians of a few runs (no criterion
//! statistics; the artifact is for trend-watching across commits, not
//! micro-benchmarking): grid cells per second for the single-system and
//! portfolio grids at one thread and at full hardware parallelism, the
//! cached-vs-uncached full-evaluation counts behind the RE-core cache,
//! and the rows/sec throughput of streaming the Figure 10 grid through
//! the artifact CSV path (the serialization `actuary serve` rides).

use std::fmt;
use std::time::Instant;

use actuary_dse::portfolio::{explore_portfolio, PortfolioSpace, ReuseScheme};
use actuary_dse::refine::explore_portfolio_refined;
use actuary_model::AssemblyFlow;
use actuary_tech::IntegrationKind;
use bench::library;

/// Median wall-clock seconds of `runs` invocations of `f`.
fn median_secs<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..runs.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// One engine's JSON section.
fn grid_section(name: &str, cells: usize, secs_1: f64, secs_all: f64, threads: usize) -> String {
    format!(
        "  \"{name}\": {{\n    \"cells\": {cells},\n    \"threads_all\": {threads},\n    \
         \"secs_threads1\": {secs_1:.6},\n    \"secs_threads_all\": {secs_all:.6},\n    \
         \"cells_per_sec_threads1\": {:.1},\n    \"cells_per_sec_threads_all\": {:.1}\n  }}",
        cells as f64 / secs_1,
        cells as f64 / secs_all,
    )
}

fn main() {
    let lib = library();
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    const RUNS: usize = 3;

    // The §6 single-system grid: the default space's `none` slice.
    let explore_space = PortfolioSpace {
        schemes: vec![ReuseScheme::None],
        ..PortfolioSpace::default()
    };
    let explore_1 = median_secs(RUNS, || {
        explore_portfolio(&lib, &explore_space, 1).expect("default grid");
    });
    let explore_all = median_secs(RUNS, || {
        explore_portfolio(&lib, &explore_space, threads).expect("default grid");
    });

    let portfolio_space = PortfolioSpace::default();
    let portfolio_1 = median_secs(RUNS, || {
        explore_portfolio(&lib, &portfolio_space, 1).expect("default portfolio grid");
    });
    let portfolio_all = median_secs(RUNS, || {
        explore_portfolio(&lib, &portfolio_space, threads).expect("default portfolio grid");
    });

    // The uncached reference path evaluates every non-incompatible cell,
    // so its count needs no sweep (byte-identity of the two paths is
    // asserted by `tests/integration_portfolio.rs` in tier-1).
    let cached = explore_portfolio(&lib, &portfolio_space, threads).expect("cached");
    let uncached_evaluations = cached.len() - cached.incompatible_count();

    // Streaming throughput of the artifact CSV path on the Figure 10
    // workload (every paper (k,n) situation × collocation sizes × the
    // figure's three integration styles): rows/sec into a discarding
    // sink, so the number isolates serialization, not evaluation.
    let fig10_space = PortfolioSpace {
        nodes: vec!["7nm".to_string()],
        areas_mm2: vec![160.0, 320.0, 480.0, 640.0],
        quantities: vec![500_000],
        integrations: vec![
            IntegrationKind::Soc,
            IntegrationKind::Mcm,
            IntegrationKind::TwoPointFiveD,
        ],
        chiplet_counts: vec![1, 2, 3, 4],
        flows: vec![AssemblyFlow::ChipLast],
        schemes: vec![ReuseScheme::Fsmc],
        fsmc_situations: PortfolioSpace::FSMC_PAPER_SITUATIONS.to_vec(),
        ..PortfolioSpace::default()
    };
    let fig10 = explore_portfolio(&lib, &fig10_space, threads).expect("fig10 grid");
    struct Discard(usize);
    impl fmt::Write for Discard {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let stream_rows = fig10.len() + 1; // data rows + header
    let stream_secs = median_secs(RUNS.max(5), || {
        let mut sink = Discard(0);
        fig10
            .grid_artifact()
            .write_csv_to(&mut sink)
            .expect("stream");
    });

    // The refinement headline: a 10⁷-cell single-scheme grid (500 areas ×
    // 100 quantities × 4 integrations × 50 chiplet counts) that both
    // engines must answer identically, timed once per engine — at this
    // size a median of repeats would cost minutes for a number CI only
    // trend-watches. `core_evaluations` counts full RE-core computations,
    // the expensive half of a cell; refinement must skip ≥10× of them to
    // claim the 10⁸-cell spaces the served API admits in refine mode.
    let large_space = PortfolioSpace {
        nodes: vec!["7nm".to_string()],
        areas_mm2: (1..=500).map(|i| f64::from(i) * 4.0).collect(),
        quantities: (1..=100).map(|i| 5_000_000 + i as u64 * 100_000).collect(),
        integrations: IntegrationKind::ALL.to_vec(),
        chiplet_counts: (1..=50).collect(),
        flows: vec![AssemblyFlow::ChipLast],
        schemes: vec![ReuseScheme::None],
        ..PortfolioSpace::default()
    };
    let large_cells = large_space.len();
    let start = Instant::now();
    let large_exhaustive =
        explore_portfolio(&lib, &large_space, threads).expect("large exhaustive grid");
    let large_exhaustive_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let large_refined =
        explore_portfolio_refined(&lib, &large_space, threads).expect("large refined grid");
    let large_refined_secs = start.elapsed().as_secs_f64();
    assert_eq!(
        large_refined.winners_artifact().csv(),
        large_exhaustive.winners_artifact().csv(),
        "the timed paths must agree before their timings mean anything"
    );
    assert!(
        large_exhaustive.core_evaluations() >= 10 * large_refined.core_evaluations(),
        "refinement must evaluate >=10x fewer cores than exhaustion \
         (exhaustive {} vs refine {})",
        large_exhaustive.core_evaluations(),
        large_refined.core_evaluations(),
    );

    // The quantity-heavy headline: a grid spanning the §4.2 crossover
    // band (120 quantities — crossover flips live on this axis). Both
    // engines must agree on the winner tables and both Pareto fronts
    // before the comparison means anything, and refinement must evaluate
    // ≥3× fewer cores.
    let quantity_space = PortfolioSpace {
        nodes: vec!["7nm".to_string()],
        areas_mm2: (1..=40).map(|i| f64::from(i) * 20.0).collect(),
        quantities: (1..=120).map(|i| i as u64 * 100_000).collect(),
        integrations: IntegrationKind::ALL.to_vec(),
        chiplet_counts: (1..=48).collect(),
        flows: vec![AssemblyFlow::ChipLast],
        schemes: vec![ReuseScheme::None],
        ..PortfolioSpace::default()
    };
    let quantity_cells = quantity_space.len();
    let start = Instant::now();
    let q_exhaustive =
        explore_portfolio(&lib, &quantity_space, threads).expect("quantity exhaustive grid");
    let q_exhaustive_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let q_refined =
        explore_portfolio_refined(&lib, &quantity_space, threads).expect("refined quantity grid");
    let q_refined_secs = start.elapsed().as_secs_f64();
    assert_eq!(
        q_refined.winners_artifact().csv(),
        q_exhaustive.winners_artifact().csv(),
        "winner tables must match exhaustion"
    );
    assert_eq!(
        q_refined.pareto_artifact().csv(),
        q_exhaustive.pareto_artifact().csv(),
        "the per-unit Pareto front must match exhaustion"
    );
    assert_eq!(
        q_refined.pareto_program_artifact().csv(),
        q_exhaustive.pareto_program_artifact().csv(),
        "the program-total Pareto front must match exhaustion"
    );
    let quantity_reduction =
        q_exhaustive.core_evaluations() as f64 / q_refined.core_evaluations() as f64;
    assert!(
        quantity_reduction >= 3.0,
        "refinement must evaluate >=3x fewer cores than exhaustion \
         (exhaustive {} vs refine {})",
        q_exhaustive.core_evaluations(),
        q_refined.core_evaluations(),
    );

    // Scheduler: a chiplet-heavy grid whose per-cell cost climbs steeply
    // with chiplet count, so the chunked work list is cost-skewed — the
    // shape fine ranges claimed from one shared cursor exist for. The
    // throughput key is gate-tracked.
    let steal_space = PortfolioSpace {
        nodes: vec!["7nm".to_string()],
        areas_mm2: (1..=30).map(|i| f64::from(i) * 25.0).collect(),
        quantities: vec![1_000_000],
        integrations: IntegrationKind::ALL.to_vec(),
        chiplet_counts: (1..=40).collect(),
        flows: vec![AssemblyFlow::ChipLast],
        schemes: vec![ReuseScheme::None],
        ..PortfolioSpace::default()
    };
    let steal_cells = steal_space.len();
    let steal_secs = median_secs(RUNS, || {
        explore_portfolio(&lib, &steal_space, threads).expect("steal grid");
    });

    println!("{{");
    println!("  \"schema\": 1,");
    println!(
        "{},",
        grid_section(
            "explore_default_grid",
            explore_space.len(),
            explore_1,
            explore_all,
            threads
        )
    );
    println!(
        "{},",
        grid_section(
            "portfolio_default_grid",
            portfolio_space.len(),
            portfolio_1,
            portfolio_all,
            threads
        )
    );
    println!(
        "  \"fig10_grid_streaming\": {{\n    \"rows\": {stream_rows},\n    \
         \"secs\": {stream_secs:.6},\n    \"rows_per_sec\": {:.1}\n  }},",
        stream_rows as f64 / stream_secs,
    );
    println!(
        "  \"core_cache\": {{\n    \"cached_evaluations\": {},\n    \
         \"uncached_evaluations\": {},\n    \"reduction_factor\": {:.2}\n  }},",
        cached.core_evaluations(),
        uncached_evaluations,
        uncached_evaluations as f64 / cached.core_evaluations() as f64,
    );
    println!(
        "  \"refine_large_grid\": {{\n    \"cells\": {large_cells},\n    \
         \"threads\": {threads},\n    \
         \"exhaustive_secs\": {large_exhaustive_secs:.3},\n    \
         \"refine_secs\": {large_refined_secs:.3},\n    \
         \"cells_per_sec_exhaustive\": {:.1},\n    \
         \"cells_per_sec_refine\": {:.1},\n    \
         \"full_evaluations_exhaustive\": {},\n    \
         \"full_evaluations_refine\": {},\n    \
         \"evaluation_reduction_factor\": {:.2},\n    \
         \"pruned_cells\": {}\n  }},",
        large_cells as f64 / large_exhaustive_secs,
        large_cells as f64 / large_refined_secs,
        large_exhaustive.core_evaluations(),
        large_refined.core_evaluations(),
        large_exhaustive.core_evaluations() as f64 / large_refined.core_evaluations() as f64,
        large_refined.pruned_count(),
    );
    println!(
        "  \"refine_quantity_grid\": {{\n    \"cells\": {quantity_cells},\n    \
         \"quantities\": {},\n    \"threads\": {threads},\n    \
         \"exhaustive_secs\": {q_exhaustive_secs:.3},\n    \
         \"refine_secs\": {q_refined_secs:.3},\n    \
         \"cells_per_sec_exhaustive\": {:.1},\n    \
         \"cells_per_sec_refine\": {:.1},\n    \
         \"full_evaluations_exhaustive\": {},\n    \
         \"full_evaluations_refine\": {},\n    \
         \"evaluation_reduction_factor\": {quantity_reduction:.2},\n    \
         \"pruned_cells\": {}\n  }},",
        quantity_space.quantities.len(),
        quantity_cells as f64 / q_exhaustive_secs,
        quantity_cells as f64 / q_refined_secs,
        q_exhaustive.core_evaluations(),
        q_refined.core_evaluations(),
        q_refined.pruned_count(),
    );
    println!(
        "  \"engine_steal\": {{\n    \"cells\": {steal_cells},\n    \
         \"threads\": {threads},\n    \"secs\": {steal_secs:.6},\n    \
         \"cells_per_sec\": {:.1}\n  }}",
        steal_cells as f64 / steal_secs,
    );
    println!("}}");
}
