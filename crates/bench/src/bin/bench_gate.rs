//! Compares two benchmark snapshots — `BENCH_explore.json` (see
//! `bench_json.rs`) or `BENCH_serve.json` (see `bench_serve.rs`) — and
//! fails when throughput regressed — the CI perf trend gate.
//!
//! Usage: `bench_gate PREVIOUS.json CURRENT.json [max_ratio]`
//!
//! For every section present in both files, the gate checks its
//! throughput keys — `cells_per_sec_*` for the grid sections,
//! `rows_per_sec` for the artifact-streaming section, `requests_per_sec`
//! for the serving sections: if the previous
//! snapshot was more than `max_ratio` (default 2.0) times faster, the
//! gate exits 1 listing the regressions. Shared-runner noise is well
//! under 2×, so only genuine algorithmic regressions trip it. A missing or
//! unreadable *previous* file exits 0 (first run of a new repository has
//! no history to gate against) — the caller decides whether that is
//! acceptable; a key missing on one side only is skipped, so a snapshot
//! predating a section never blocks the commit that introduces it.

use std::process::ExitCode;

/// The throughput keys the gate watches, per section.
const SECTIONS: [(&str, &[&str]); 9] = [
    (
        "explore_default_grid",
        &["cells_per_sec_threads1", "cells_per_sec_threads_all"],
    ),
    (
        "portfolio_default_grid",
        &["cells_per_sec_threads1", "cells_per_sec_threads_all"],
    ),
    ("fig10_grid_streaming", &["rows_per_sec"]),
    (
        "refine_large_grid",
        &["cells_per_sec_exhaustive", "cells_per_sec_refine"],
    ),
    (
        "refine_quantity_grid",
        &["cells_per_sec_exhaustive", "cells_per_sec_refine"],
    ),
    ("engine_steal", &["cells_per_sec"]),
    // BENCH_serve.json sections (bench_serve.rs); a gate run over the
    // explore snapshot skips them because they are missing on both sides.
    ("serve_cold", &["requests_per_sec"]),
    ("serve_hot", &["requests_per_sec"]),
    ("serve_mixed", &["requests_per_sec"]),
];

/// Latency keys the gate watches — lower is better, so the regression
/// ratio inverts to new/old, and the threshold doubles: quantiles
/// interpolated from a 100-request histogram are noisier than whole-run
/// throughput. The +1 ms smoothing keeps sub-millisecond jitter from
/// tripping the ratio.
const LATENCY_SECTIONS: [(&str, &[&str]); 1] =
    [("serve_mixed", &["server_p50_ms", "server_p99_ms"])];

/// Extracts `"key": <number>` from the object literal following
/// `"section": {`. The snapshot format is machine-written with no nested
/// objects inside grid sections, so a scan is sufficient (the offline
/// environment has no JSON crate).
fn extract(json: &str, section: &str, key: &str) -> Option<f64> {
    let section_start = json.find(&format!("\"{section}\""))?;
    let body = &json[section_start..];
    let open = body.find('{')?;
    let close = body[open..].find('}')? + open;
    let object = &body[open..close];
    let key_start = object.find(&format!("\"{key}\""))?;
    let colon = object[key_start..].find(':')? + key_start;
    let rest = object[colon + 1..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (previous_path, current_path) = match (args.first(), args.get(1)) {
        (Some(p), Some(c)) => (p, c),
        _ => {
            eprintln!("usage: bench_gate PREVIOUS.json CURRENT.json [max_ratio]");
            return ExitCode::FAILURE;
        }
    };
    let max_ratio: f64 = match args.get(2) {
        None => 2.0,
        Some(raw) => match raw.parse() {
            Ok(r) if r > 1.0 => r,
            _ => {
                eprintln!("bench_gate: max_ratio must be a number > 1, got {raw:?}");
                return ExitCode::FAILURE;
            }
        },
    };

    let previous = match std::fs::read_to_string(previous_path) {
        Ok(text) => text,
        Err(e) => {
            println!("bench_gate: no previous snapshot at {previous_path} ({e}); nothing to gate");
            return ExitCode::SUCCESS;
        }
    };
    let current = match std::fs::read_to_string(current_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("bench_gate: cannot read current snapshot {current_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut compared = 0;
    let mut regressions = Vec::new();
    for (section, keys) in SECTIONS {
        for &key in keys {
            let (Some(old), Some(new)) = (
                extract(&previous, section, key),
                extract(&current, section, key),
            ) else {
                // Schema drift (renamed section/key) must not silently pass
                // for every metric — it is reported below via `compared`.
                continue;
            };
            compared += 1;
            let ratio = old / new;
            let verdict = if ratio > max_ratio { "REGRESSED" } else { "ok" };
            println!(
                "bench_gate: {section}.{key}: {old:.1} -> {new:.1} \
                 (x{ratio:.2} slower) {verdict}"
            );
            if ratio > max_ratio {
                regressions.push(format!("{section}.{key} is {ratio:.2}x slower"));
            }
        }
    }
    for (section, keys) in LATENCY_SECTIONS {
        for &key in keys {
            let (Some(old), Some(new)) = (
                extract(&previous, section, key),
                extract(&current, section, key),
            ) else {
                continue;
            };
            compared += 1;
            let latency_max = max_ratio * 2.0;
            let ratio = (new + 1.0) / (old + 1.0);
            let verdict = if ratio > latency_max {
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "bench_gate: {section}.{key}: {old:.2} -> {new:.2} ms \
                 (x{ratio:.2} slower) {verdict}"
            );
            if ratio > latency_max {
                regressions.push(format!("{section}.{key} is {ratio:.2}x slower"));
            }
        }
    }
    if compared == 0 {
        eprintln!(
            "bench_gate: no comparable metrics between {previous_path} and {current_path} \
             (schema drift?)"
        );
        return ExitCode::FAILURE;
    }
    if regressions.is_empty() {
        println!("bench_gate: throughput within {max_ratio}x of the previous snapshot");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench_gate: throughput regressed more than {max_ratio}x: {}",
            regressions.join("; ")
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::extract;

    const SNAPSHOT: &str = r#"{
  "schema": 1,
  "explore_default_grid": {
    "cells": 1620,
    "threads_all": 4,
    "secs_threads1": 0.5,
    "secs_threads_all": 0.2,
    "cells_per_sec_threads1": 3240.0,
    "cells_per_sec_threads_all": 8100.0
  },
  "portfolio_default_grid": {
    "cells": 6480,
    "cells_per_sec_threads1": 1000.0,
    "cells_per_sec_threads_all": 3500.5
  },
  "fig10_grid_streaming": {
    "rows": 241,
    "secs": 0.000402,
    "rows_per_sec": 599502.5
  },
  "refine_large_grid": {
    "cells": 10000000,
    "cells_per_sec_exhaustive": 55000.0,
    "cells_per_sec_refine": 1250000.0,
    "full_evaluations_exhaustive": 60000,
    "full_evaluations_refine": 5000,
    "evaluation_reduction_factor": 12.0
  }
}"#;

    #[test]
    fn extracts_numbers_per_section() {
        assert_eq!(
            extract(
                SNAPSHOT,
                "explore_default_grid",
                "cells_per_sec_threads_all"
            ),
            Some(8100.0)
        );
        assert_eq!(
            extract(
                SNAPSHOT,
                "portfolio_default_grid",
                "cells_per_sec_threads_all"
            ),
            Some(3500.5)
        );
        assert_eq!(
            extract(SNAPSHOT, "portfolio_default_grid", "cells_per_sec_threads1"),
            Some(1000.0)
        );
        assert_eq!(
            extract(SNAPSHOT, "fig10_grid_streaming", "rows_per_sec"),
            Some(599502.5)
        );
        assert_eq!(
            extract(SNAPSHOT, "refine_large_grid", "cells_per_sec_refine"),
            Some(1_250_000.0)
        );
        assert_eq!(
            extract(SNAPSHOT, "refine_large_grid", "evaluation_reduction_factor"),
            Some(12.0)
        );
        assert_eq!(extract(SNAPSHOT, "missing_section", "cells"), None);
        assert_eq!(extract(SNAPSHOT, "explore_default_grid", "missing"), None);
    }
}
