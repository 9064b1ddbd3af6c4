//! Layer probes for the traced run: each times one layer's public entry
//! points in isolation, on fixed or workload-generated inputs.

use std::hint::black_box;
use std::time::Instant;

use actuary_dse::optimizer::candidate_core;
use actuary_model::AssemblyFlow;
use actuary_scenario::canon::digest_document;
use actuary_scenario::toml::parse;
use actuary_scenario::{Scenario, ScenarioRun};
use actuary_tech::{IntegrationKind, TechLibrary};
use actuary_units::{Area, Quantity};

use crate::report::{median, Digest, Outcome};

/// Chiplet counts of the kernel probes.
const KERNEL_CHIPLETS: [u32; 4] = [1, 8, 32, 50];

/// Calls `f` until `budget` seconds pass (and at least `min` times), in
/// batches of `batch`; returns the median seconds per call.
fn time_per_call<F: FnMut()>(budget: f64, min: usize, batch: usize, mut f: F) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < min || start.elapsed().as_secs_f64() < budget {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t0.elapsed().as_secs_f64() / batch as f64);
    }
    median(&samples)
}

/// `arch.core_us.k*` and `arch.amortize_ns.k*`: `candidate_core` and
/// `CandidateCore::at_quantity` for a 400 mm² 7nm system split into
/// {1, 8, 32, 50} chiplets (SoC for one chiplet, since MCM × 1 has no
/// die-to-die interface; MCM otherwise).
pub fn kernels(out: &mut Outcome) -> Result<(), String> {
    let lib = TechLibrary::paper_defaults().map_err(|e| e.to_string())?;
    let area = Area::from_mm2(400.0).map_err(|e| e.to_string())?;
    for k in KERNEL_CHIPLETS {
        let integration = if k == 1 {
            IntegrationKind::Soc
        } else {
            IntegrationKind::Mcm
        };
        let build = || candidate_core(&lib, "7nm", area, integration, k, AssemblyFlow::ChipLast);
        let core = build().map_err(|e| format!("kernel probe k={k}: {e}"))?;
        let core_s = time_per_call(0.25, 20, 1, || {
            black_box(build().is_ok());
        });
        let quantity = Quantity::new(1_000_000);
        let amortize_s = time_per_call(0.25, 20, 64, || {
            black_box(black_box(&core).at_quantity(black_box(quantity)));
        });
        out.metric(&format!("arch.core_us.k{k}"), core_s * 1e6, "us");
        out.metric(&format!("arch.amortize_ns.k{k}"), amortize_s * 1e9, "ns");
    }
    Ok(())
}

/// `scenario.parse_us`, `scenario.digest_us` and `scenario.lower_us`: the
/// three steps of reading one request document — `toml::parse`,
/// `canon::digest_document` and `Scenario::from_doc` — timed separately on
/// each of `docs`; medians over every (document, repetition).
pub fn scenario_layer(out: &mut Outcome, docs: &[&str]) -> Result<(), String> {
    const REPS: usize = 20;
    let (mut parse_s, mut digest_s, mut lower_s) = (Vec::new(), Vec::new(), Vec::new());
    for text in docs {
        for _ in 0..REPS {
            let t0 = Instant::now();
            let doc = parse(black_box(text)).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            black_box(digest_document(&doc));
            let t2 = Instant::now();
            black_box(Scenario::from_doc(&doc).map_err(|e| e.to_string())?);
            let t3 = Instant::now();
            parse_s.push((t1 - t0).as_secs_f64());
            digest_s.push((t2 - t1).as_secs_f64());
            lower_s.push((t3 - t2).as_secs_f64());
        }
    }
    out.metric("scenario.parse_us", median(&parse_s) * 1e6, "us");
    out.metric("scenario.digest_us", median(&digest_s) * 1e6, "us");
    out.metric("scenario.lower_us", median(&lower_s) * 1e6, "us");
    Ok(())
}

/// Renders every artifact of `run` as CSV or JSON lines into a digest.
pub fn render(run: &ScenarioRun, jsonl: bool) -> Digest {
    let mut sink = Digest::default();
    for artifact in run.artifacts() {
        if jsonl {
            artifact.write_jsonl_to(&mut sink)
        } else {
            artifact.write_csv_to(&mut sink)
        }
        .expect("a digest sink never fails");
    }
    sink
}

/// Rows per second of rendering `runs` in one encoding, over `reps`
/// passes. A row is one output line, headers and metadata included.
pub fn render_rate(runs: &[ScenarioRun], jsonl: bool, reps: usize) -> f64 {
    let mut rows = 0u64;
    let t0 = Instant::now();
    for _ in 0..reps {
        for run in runs {
            rows += black_box(render(run, jsonl)).lines;
        }
    }
    rows as f64 / t0.elapsed().as_secs_f64()
}
