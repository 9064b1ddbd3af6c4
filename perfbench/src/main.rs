//! `perfbench` — the repository's seeded end-to-end and per-layer
//! benchmark. See `perfbench/README.md` for the workloads, the metrics and
//! the recorded baseline.
//!
//! ```text
//! perfbench --workload explore_reuse|explore_refine|serve_mix --seed N
//!           --seconds S --trace 0|1 --actuary PATH --out DIR
//! ```
//!
//! The untraced run (`--trace 0`) prints every end-to-end metric; the
//! traced run (`--trace 1`) prints every per-layer metric. Both check every
//! output, print the work counters that must repeat exactly for a seed, and
//! end with one JSON result line. Any output mismatch exits nonzero.

mod calib;
mod explore;
mod gen;
mod probes;
mod report;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use report::Outcome;

/// End-to-end metrics, printed by the untraced run of every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("cells_per_s", "cells/s"),
    ("rps", "req/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by the traced run of every workload. A layer
/// the workload never reaches reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("scenario.parse_us", "us"),
    ("scenario.digest_us", "us"),
    ("scenario.lower_us", "us"),
    ("dse.classify_ms", "ms"),
    ("dse.evaluate_ms", "ms"),
    ("dse.amortize_ms", "ms"),
    ("dse.core_evaluations", "count"),
    ("dse.core_us", "us"),
    ("dse.amortize_ns_per_cell", "ns"),
    ("refine.coarse_ms", "ms"),
    ("refine.bisect_ms", "ms"),
    ("refine.fill_ms", "ms"),
    ("refine.escalate_ms", "ms"),
    ("refine.self_ms", "ms"),
    ("refine.engine_calls", "count"),
    ("refine.evaluated_frac", "ratio"),
    ("arch.core_us.k1", "us"),
    ("arch.core_us.k8", "us"),
    ("arch.core_us.k32", "us"),
    ("arch.core_us.k50", "us"),
    ("arch.amortize_ns.k1", "ns"),
    ("arch.amortize_ns.k8", "ns"),
    ("arch.amortize_ns.k32", "ns"),
    ("arch.amortize_ns.k50", "ns"),
    ("artifact.csv_rows_per_s", "rows/s"),
    ("artifact.jsonl_rows_per_s", "rows/s"),
    ("artifact.bytes_per_op", "bytes"),
    ("http.server_ms", "ms"),
    ("http.wire_ms", "ms"),
    ("serve.engine_frac", "ratio"),
    ("serve.hot_p50_ms", "ms"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("cache.result_hit_frac", "ratio"),
    ("cache.core_hit_frac", "ratio"),
    ("cache.core_evictions", "count"),
    ("trace.overhead_p50_ms", "ms"),
    ("trace.overhead_rps_frac", "ratio"),
];

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub actuary: PathBuf,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    const KNOWN: [&str; 6] = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--actuary",
        "--out",
    ];
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in raw.chunks(2) {
        let [key, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        if !KNOWN.contains(&key.as_str()) {
            return Err(format!(
                "unknown argument {key:?} (accepted: {})",
                KNOWN.join(", ")
            ));
        }
        flags.insert(key, value);
    }
    let get = |key: &str| flags.get(key).copied();
    let workload = get("--workload").ok_or("--workload is required")?;
    let seed = get("--seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
        actuary: PathBuf::from(get("--actuary").unwrap_or("target/release/actuary")),
        out: PathBuf::from(get("--out").unwrap_or("target/perfbench")),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "explore_reuse" => explore::run(&args, explore::Kind::Reuse),
        "explore_refine" => explore::run(&args, explore::Kind::Refine),
        "serve_mix" => serve::run(&args),
        other => {
            eprintln!(
                "perfbench: unknown workload {other:?} (explore_reuse, explore_refine, serve_mix)"
            );
            return ExitCode::from(2);
        }
    };
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in expected {
        out.metrics
            .entry(name.to_string())
            .or_insert(report::Metric { value: 0.0, unit });
    }
    out.metrics
        .retain(|name, _| expected.iter().any(|(n, _)| n == name));
    print_report(&args, &out);
    if out.failed > 0 {
        eprintln!("perfbench: {} of {} ops failed", out.failed, out.attempted);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn print_report(args: &Args, out: &Outcome) {
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &out.notes {
        println!("{note}");
    }
    for failure in &out.failures {
        println!("FAILED: {failure}");
    }
    println!("attempted={} failed={}", out.attempted, out.failed);
    println!("{}", out.counters_line());
    for (name, metric) in &out.metrics {
        println!("  {name:<28} {:>16.4} {}", metric.value, metric.unit);
    }
    println!("{}", out.json());
}
