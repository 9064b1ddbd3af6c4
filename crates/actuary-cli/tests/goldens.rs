//! The committed goldens, pinned: every bundled scenario run through the
//! real `actuary run --out-dir` must write exactly the files of
//! `examples/scenarios/golden/`, byte for byte, and those grid files
//! together must hold a row of every status; the segments
//! `Scenario::run_with` hands a stream sink must be those same files in
//! artifact order (a streamed refine grid as the same rows in wave
//! order), and every scenario's JSON-lines rendering (what `actuary
//! serve` streams for `Accept: application/json`) must equal its
//! `golden-jsonl/<name>.jsonl`. The reproduced studies are pinned the
//! same way: `actuary repro --figure all --csv` and `actuary experiments`
//! must print the files of `examples/studies/`, and the CLI's own text
//! and CSV outputs the files of `examples/cli/`.

use std::path::{Path, PathBuf};
use std::process::Command;

use actuary_report::Artifact;
use actuary_scenario::{Scenario, StreamSink};

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
    let mut grids = String::new();
    for name in &expected {
        let written = std::fs::read(out.join(name)).unwrap();
        let pinned = std::fs::read(golden.join(name)).unwrap();
        assert!(
            written == pinned,
            "{name} differs from examples/scenarios/golden/{name}"
        );
        let text = String::from_utf8(pinned).unwrap();
        if text.starts_with("node,area_mm2,quantity,integration,") {
            grids.push_str(&text);
        }
    }
    // The status column sits between two unquoted cells (the scheme
    // parameters may be quoted, the per-unit cost never is), so a row of
    // each status holds the keyword between commas.
    for status in ["feasible", "infeasible", "incompatible", "pruned"] {
        assert!(
            grids.contains(&format!(",{status},")),
            "no grid golden holds a {status} row"
        );
    }
    std::fs::remove_dir_all(&out).unwrap();
}

/// Runs the built `actuary` with `args` and checks its standard output
/// against `examples/studies/<golden>`, byte for byte.
fn assert_prints_study_golden(args: &[&str], golden: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_actuary"))
        .args(args)
        .output()
        .expect("the actuary binary must spawn");
    assert!(
        out.status.success(),
        "actuary {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/studies");
    let pinned = std::fs::read(path.join(golden)).unwrap();
    assert!(
        out.stdout == pinned,
        "actuary {args:?} differs from examples/studies/{golden}"
    );
}

#[test]
fn repro_all_csv_matches_its_golden() {
    assert_prints_study_golden(&["repro", "--figure", "all", "--csv"], "repro-all.csv");
}

#[test]
fn experiments_record_matches_its_golden() {
    assert_prints_study_golden(&["experiments"], "experiments.md");
}

#[test]
fn fig8_jsonl_rendering_matches_its_golden() {
    let scenarios = scenarios_dir();
    let golden = scenarios.join("golden-jsonl");
    let tomls = files(&scenarios, "toml");
    let expected: Vec<String> = tomls
        .iter()
        .map(|toml| toml.replace(".toml", ".jsonl"))
        .collect();
    assert_eq!(
        files(&golden, "jsonl"),
        expected,
        "golden-jsonl/ must hold exactly one golden per bundled scenario"
    );
    for (toml, name) in tomls.iter().zip(&expected) {
        let text = std::fs::read_to_string(scenarios.join(toml)).unwrap();
        let run = Scenario::from_toml(&text)
            .unwrap_or_else(|e| panic!("{toml}: {e}"))
            .run(1)
            .unwrap_or_else(|e| panic!("{toml}: {e}"));
        let mut jsonl = String::new();
        for artifact in run.artifacts() {
            jsonl.push_str(&artifact.jsonl());
        }
        let pinned = std::fs::read_to_string(golden.join(name)).unwrap();
        assert!(
            jsonl == pinned,
            "{toml}: the JSON-lines rendering differs from golden-jsonl/{name}"
        );
    }
}

/// Records every delivered segment as (artifact name, continuation, CSV
/// text), the header included on an opening segment.
struct Recording(Vec<(String, bool, String)>);

impl StreamSink for Recording {
    fn segment(&mut self, artifact: Artifact<'_>, continuation: bool) -> bool {
        let name = artifact.name().to_string();
        let mut text = String::new();
        let written = if continuation {
            artifact.write_csv_rows_to(&mut text)
        } else {
            artifact.write_csv_to(&mut text)
        };
        written.expect("rendering into a String cannot fail");
        self.0.push((name, continuation, text));
        true
    }
}

#[test]
fn every_scenario_delivers_the_committed_goldens_to_a_stream_sink() {
    let scenarios = scenarios_dir();
    let golden = scenarios.join("golden");
    let mut delivered = Vec::new();
    for toml in files(&scenarios, "toml") {
        let text = std::fs::read_to_string(scenarios.join(&toml)).unwrap();
        let scenario = Scenario::from_toml(&text).unwrap_or_else(|e| panic!("{toml}: {e}"));
        let mut sink = Recording(Vec::new());
        let run = scenario
            .run_with(1, None, &mut sink)
            .unwrap_or_else(|e| panic!("{toml}: {e}"));
        // A refine-mode grid arrives as an opening segment plus
        // continuations; every other artifact arrives whole. Either way
        // the artifacts open in the batch order.
        let mut whole: Vec<(String, bool, String)> = Vec::new();
        for (name, continuation, text) in sink.0 {
            match whole.last_mut() {
                Some((last, segmented, rows)) if continuation => {
                    assert_eq!(*last, name, "{toml}: a continuation of another artifact");
                    *segmented = true;
                    rows.push_str(&text);
                }
                _ => {
                    assert!(!continuation, "{toml}: {name} opened as a continuation");
                    whole.push((name, false, text));
                }
            }
        }
        let order: Vec<String> = run
            .artifacts()
            .iter()
            .map(|a| a.name().to_string())
            .collect();
        let names: Vec<String> = whole.iter().map(|(name, ..)| name.clone()).collect();
        assert_eq!(names, order, "{toml}: delivery order");
        for (name, segmented, text) in whole {
            let file = format!("{}-{name}.csv", scenario.name);
            let pinned = std::fs::read_to_string(golden.join(&file))
                .unwrap_or_else(|e| panic!("{toml}: no golden {file}: {e}"));
            // Streamed waves deliver the priced rows as they finish, then
            // the pruned and incompatible rest: the golden's header first,
            // then its rows in another order.
            let same = if segmented {
                let lines = |text: &str| {
                    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
                    lines[1..].sort();
                    lines
                };
                lines(&text) == lines(&pinned)
            } else {
                text == pinned
            };
            assert!(
                same,
                "{toml}: the delivered {name} differs from examples/scenarios/golden/{file}"
            );
            delivered.push(file);
        }
    }
    delivered.sort();
    assert_eq!(
        delivered,
        files(&golden, "csv"),
        "the sinks must receive exactly the golden files"
    );
}

/// The CLI text goldens of `examples/cli/`: each is the standard output
/// of `actuary` with these arguments, or, for a `--out` or `--pareto-out`
/// golden, the file that flag writes.
const CLI_GOLDENS: [(&str, &[&str]); 11] = [
    (
        "partition-5nm-800mm2-10M.txt",
        &[
            "partition",
            "--node",
            "5nm",
            "--area",
            "800",
            "--quantity",
            "10000000",
        ],
    ),
    (
        "partition-14nm-150mm2-100k.txt",
        &[
            "partition",
            "--node",
            "14nm",
            "--area",
            "150",
            "--quantity",
            "100000",
        ],
    ),
    (
        "sweep-5nm-2-mcm.txt",
        &[
            "sweep",
            "--node",
            "5nm",
            "--chiplets",
            "2",
            "--integration",
            "mcm",
        ],
    ),
    (
        "sweep-7nm-3-info.txt",
        &[
            "sweep",
            "--node",
            "7nm",
            "--chiplets",
            "3",
            "--integration",
            "info",
        ],
    ),
    (
        "sweep-5nm-4-2.5d.txt",
        &[
            "sweep",
            "--node",
            "5nm",
            "--chiplets",
            "4",
            "--integration",
            "2.5d",
        ],
    ),
    ("explore.txt", &["explore", "--threads", "2"]),
    (
        "explore-schemes-all-flow-axis.txt",
        &[
            "explore",
            "--nodes",
            "7nm",
            "--areas",
            "200,400,800",
            "--quantities",
            "500000,2000000",
            "--schemes",
            "all",
            "--flow-axis",
            "--threads",
            "2",
        ],
    ),
    (
        "explore-refine.txt",
        &["explore", "--refine", "--threads", "2"],
    ),
    (
        "explore-small.csv",
        &[
            "explore",
            "--nodes",
            "7nm",
            "--areas",
            "400,800",
            "--quantities",
            "500000,2000000",
            "--chiplets",
            "1,2,3",
            "--threads",
            "1",
            "--csv",
        ],
    ),
    (
        "explore-small-schemes.csv",
        &[
            "explore",
            "--nodes",
            "7nm",
            "--areas",
            "400,800",
            "--quantities",
            "500000,2000000",
            "--chiplets",
            "1,2,3",
            "--schemes",
            "scms,ocme",
            "--flow-axis",
            "--threads",
            "1",
            "--out",
        ],
    ),
    (
        "explore-small-pareto.csv",
        &[
            "explore",
            "--nodes",
            "7nm",
            "--areas",
            "400,800",
            "--quantities",
            "500000,2000000",
            "--chiplets",
            "1,2,3",
            "--threads",
            "1",
            "--pareto-out",
        ],
    ),
];

#[test]
fn every_cli_golden_matches_the_built_binary() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/cli");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let mut expected: Vec<String> = CLI_GOLDENS
        .iter()
        .map(|(name, _)| name.to_string())
        .collect();
    expected.sort();
    assert_eq!(
        names, expected,
        "examples/cli/ must hold exactly the pinned goldens"
    );
    for (name, args) in CLI_GOLDENS {
        let pinned = std::fs::read(dir.join(name)).unwrap();
        // A trailing `--out` or `--pareto-out` takes a scratch path: the
        // golden is the file it writes, and stdout names that path.
        let writes_file = args.last().is_some_and(|a| a.ends_with("-out"));
        let scratch =
            std::env::temp_dir().join(format!("actuary-cli-{}-{name}", std::process::id()));
        let mut command = Command::new(env!("CARGO_BIN_EXE_actuary"));
        command.args(args);
        if writes_file {
            command.arg(&scratch);
        }
        let out = command.output().expect("the actuary binary must spawn");
        assert!(
            out.status.success(),
            "actuary {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let written = if writes_file {
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert!(
                stdout.contains(&format!(" to {}\n", scratch.display())),
                "{name}: {stdout}"
            );
            let bytes = std::fs::read(&scratch).unwrap();
            std::fs::remove_file(&scratch).unwrap();
            bytes
        } else {
            out.stdout
        };
        assert!(
            written == pinned,
            "actuary {args:?} differs from examples/cli/{name}"
        );
    }
}
