//! Benchmarks the multi-axis exploration engine on the §6 single-system
//! grid (the default space's `none`-scheme slice, 1,620 cells) evaluated
//! single-threaded vs on every available hardware thread.
//!
//! On a multi-core machine the `threads=N` row should run close to N×
//! faster than `threads=1` (the per-cell work is independent, and the
//! engine's only shared state is the cursor workers claim ranges from);
//! on a single-core container the two rows time alike, which is itself the
//! correctness signal that the threading adds no overhead.

use actuary_dse::portfolio::{explore_portfolio, PortfolioSpace, ReuseScheme};
use bench::library;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_explore(c: &mut Criterion) {
    let lib = library();
    let space = PortfolioSpace {
        schemes: vec![ReuseScheme::None],
        ..PortfolioSpace::default()
    };
    let hardware = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    // Even a single-core container times a genuinely multi-threaded row,
    // so the scheduling overhead (which should be negligible) is visible.
    let workers = hardware.max(2);

    let probe = explore_portfolio(&lib, &space, workers).expect("the default grid must evaluate");
    println!(
        "==================================================================\n\
         multi-axis exploration: {} grid cells, {} hardware thread(s)\n\
         ==================================================================\n\
         {probe}\n",
        space.len(),
        hardware
    );

    let mut group = c.benchmark_group("explore_default_grid");
    group.sample_size(10);
    group.bench_function("threads=1", |b| {
        b.iter(|| explore_portfolio(black_box(&lib), black_box(&space), 1).unwrap())
    });
    group.bench_function(&format!("threads={workers}"), |b| {
        b.iter(|| explore_portfolio(black_box(&lib), black_box(&space), workers).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_explore);
criterion_main!(benches);
