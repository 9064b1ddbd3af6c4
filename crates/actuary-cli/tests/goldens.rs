//! The committed goldens, pinned: every bundled scenario run through the
//! real `actuary run --out-dir` must write exactly the files of
//! `examples/scenarios/golden/`, byte for byte, and fig8's JSON-lines
//! rendering (what `actuary serve` streams for `Accept: application/json`)
//! must equal `golden-jsonl/fig8.jsonl`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios")
}

/// The names of the files in `dir` with `extension`, sorted.
fn files(dir: &Path, extension: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == extension))
        .map(|path| path.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn every_scenario_reproduces_the_committed_goldens() {
    let scenarios = scenarios_dir();
    let golden = scenarios.join("golden");
    let out = std::env::temp_dir().join(format!("actuary-goldens-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).unwrap();

    let tomls = files(&scenarios, "toml");
    assert!(!tomls.is_empty(), "no bundled scenarios found");
    for toml in &tomls {
        let run = Command::new(env!("CARGO_BIN_EXE_actuary"))
            .arg("run")
            .arg(scenarios.join(toml))
            .arg("--out-dir")
            .arg(&out)
            .output()
            .expect("the actuary binary must spawn");
        assert!(
            run.status.success(),
            "actuary run {toml} failed: {}",
            String::from_utf8_lossy(&run.stderr)
        );
    }

    let expected = files(&golden, "csv");
    assert_eq!(
        files(&out, "csv"),
        expected,
        "the scenarios must write exactly the golden files"
    );
    for name in &expected {
        let written = std::fs::read(out.join(name)).unwrap();
        let pinned = std::fs::read(golden.join(name)).unwrap();
        assert!(
            written == pinned,
            "{name} differs from examples/scenarios/golden/{name}"
        );
    }
    std::fs::remove_dir_all(&out).unwrap();
}

#[test]
fn fig8_jsonl_rendering_matches_its_golden() {
    let scenarios = scenarios_dir();
    let toml = std::fs::read_to_string(scenarios.join("fig8.toml")).unwrap();
    let run = actuary_scenario::Scenario::from_toml(&toml)
        .expect("fig8 parses")
        .run(1)
        .expect("fig8 runs");
    let mut jsonl = String::new();
    for artifact in run.artifacts() {
        jsonl.push_str(&artifact.jsonl());
    }
    let pinned = std::fs::read_to_string(scenarios.join("golden-jsonl/fig8.jsonl")).unwrap();
    assert!(
        jsonl == pinned,
        "fig8's JSON-lines rendering differs from golden-jsonl/fig8.jsonl"
    );
}
