//! The work counters a run prints must repeat exactly for a seed and change
//! with it. Each test runs the benchmark briefly (its floor of ops still
//! applies), so the suite takes a minute or two:
//!
//! ```text
//! cargo build --release -p actuary-cli          # serve_mix drives this binary
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

/// The `actuary` binary next to this build's target directory.
fn actuary() -> PathBuf {
    let bench = Path::new(env!("CARGO_BIN_EXE_perfbench"));
    let target = bench
        .parent()
        .and_then(Path::parent)
        .expect("the benchmark binary sits in <target>/<profile>/");
    for candidate in [
        target.join("release/actuary"),
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../target/release/actuary"),
    ] {
        if candidate.exists() {
            return candidate;
        }
    }
    panic!(
        "no release actuary binary under {} or ../target; build it with \
         `cargo build --release -p actuary-cli` into the same target directory",
        target.display()
    );
}

/// Runs one short untraced workload and returns its counters line, after
/// checking that it succeeded and printed every end-to-end metric.
fn counters(workload: &str, seed: u64) -> String {
    let out_dir = std::env::temp_dir().join("perfbench-test");
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "0"])
        .arg("--actuary")
        .arg(actuary())
        .arg("--out")
        .arg(&out_dir)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} seed {seed} failed:\n{stdout}"
    );
    let result = stdout.lines().last().expect("a result line");
    assert!(
        result.starts_with("{\"correct\": true, ") && result.contains("\"failed\": 0,"),
        "{result}"
    );
    for metric in [
        "setup_s",
        "p50_ms",
        "p90_ms",
        "cells_per_s",
        "rps",
        "peak_rss_mb",
    ] {
        assert!(
            result.contains(&format!("\"{metric}\": {{\"value\": ")),
            "{result}"
        );
    }
    stdout
        .lines()
        .find(|l| l.starts_with("counters: "))
        .expect("a counters line")
        .to_string()
}

fn repeats_for_a_seed_and_changes_with_it(workload: &str) {
    let first = counters(workload, 7);
    assert_eq!(
        first,
        counters(workload, 7),
        "{workload}: same seed, same counters"
    );
    assert_ne!(
        first,
        counters(workload, 8),
        "{workload}: new seed, new counters"
    );
}

#[test]
fn explore_reuse_counters_are_exact() {
    repeats_for_a_seed_and_changes_with_it("explore_reuse");
}

#[test]
fn explore_refine_counters_are_exact() {
    repeats_for_a_seed_and_changes_with_it("explore_refine");
}

#[test]
fn serve_mix_counters_are_exact() {
    repeats_for_a_seed_and_changes_with_it("serve_mix");
}
