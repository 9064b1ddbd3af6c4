//! Smoke tests for the `actuary` binary: every subcommand runs on the
//! default library and prints the expected structure.

use std::io::BufRead;
use std::process::{Command, Output, Stdio};

fn actuary(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_actuary"))
        .args(args)
        .output()
        .expect("the actuary binary must spawn")
}

fn stdout(args: &[&str]) -> String {
    let out = actuary(args);
    assert!(
        out.status.success(),
        "actuary {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = actuary(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: actuary"));
}

#[test]
fn help_flag_prints_usage_and_succeeds() {
    for invocation in [&["--help"][..], &["-h"], &["help"]] {
        let text = stdout(invocation);
        assert!(text.contains("usage: actuary"), "{invocation:?}: {text}");
        assert!(
            text.contains("repro"),
            "{invocation:?} must list subcommands"
        );
    }
}

#[test]
fn version_flag_prints_version() {
    let text = stdout(&["--version"]);
    assert!(text.starts_with("actuary "), "{text}");
}

#[test]
fn subcommand_help_prints_usage_not_an_error() {
    for invocation in [&["repro", "--help"][..], &["cost", "-h"]] {
        let text = stdout(invocation);
        assert!(text.contains("usage: actuary"), "{invocation:?}: {text}");
    }
}

#[test]
fn help_then_repro_figure_smoke() {
    // The satellite smoke path: `--help` followed by one figure
    // reproduction, neither panicking.
    stdout(&["--help"]);
    let text = stdout(&["repro", "--figure", "4"]);
    assert!(text.contains("Figure 4"), "{text}");
}

#[test]
fn unknown_command_fails_with_message() {
    let out = actuary(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn list_shows_the_library() {
    let text = stdout(&["list"]);
    assert!(text.contains("7 nodes"));
    assert!(text.contains("5nm"));
    assert!(text.contains("2.5D"));
}

#[test]
fn yield_reports_eq1() {
    let text = stdout(&["yield", "--node", "7nm", "--area", "400"]);
    assert!(text.contains("yield (Eq. 1)"));
    assert!(text.contains("dies per wafer"));
}

#[test]
fn yield_requires_node() {
    let out = actuary(&["yield", "--area", "400"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--node"));
}

#[test]
fn cost_prints_both_re_and_nre() {
    let text = stdout(&[
        "cost",
        "--node",
        "5nm",
        "--area",
        "800",
        "--chiplets",
        "2",
        "--integration",
        "mcm",
        "--quantity",
        "2000000",
    ]);
    assert!(text.contains("Cost of Wasted KGD"));
    assert!(text.contains("NRE Cost of D2D Interface"));
    assert!(text.contains("per-unit total"));
}

#[test]
fn sweep_covers_the_area_grid() {
    let text = stdout(&[
        "sweep",
        "--node",
        "5nm",
        "--chiplets",
        "2",
        "--integration",
        "mcm",
    ]);
    assert!(text.contains("100"));
    assert!(text.contains("900"));
    assert!(text.contains("saving"));
}

#[test]
fn sweep_rejects_what_a_sweep_job_rejects() {
    // The table prices the SoC against a multi-chip split, so the split
    // must be multi-chip and carry at least two chiplets.
    for (flags, message) in [
        (
            &["--chiplets", "2", "--integration", "soc"][..],
            "--integration must be a multi-chip kind",
        ),
        (
            &["--chiplets", "1", "--integration", "soc"],
            "--integration must be a multi-chip kind",
        ),
        (
            &["--chiplets", "1", "--integration", "mcm"],
            "invalid --chiplets \"1\": multi-chip sweep series need at least 2 chiplets",
        ),
        (
            &["--chiplets", "0"],
            "invalid --chiplets \"0\": multi-chip sweep series need at least 2 chiplets",
        ),
    ] {
        let args = [&["sweep", "--node", "5nm"][..], flags].concat();
        let out = actuary(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

#[test]
fn partition_recommends() {
    let text = stdout(&[
        "partition",
        "--node",
        "5nm",
        "--area",
        "800",
        "--quantity",
        "10000000",
    ]);
    assert!(text.contains("chiplet"));
    assert!(text.contains("SoC"));
}

#[test]
fn mc_agrees_with_analytic() {
    let text = stdout(&[
        "mc",
        "--node",
        "7nm",
        "--area",
        "150",
        "--chiplets",
        "2",
        "--systems",
        "1500",
    ]);
    assert!(text.contains("monte-carlo"));
    assert!(
        text.contains("agreement within 4 standard errors: yes"),
        "{text}"
    );
}

#[test]
fn repro_figure_2_prints_claims() {
    let text = stdout(&["repro", "--figure", "2"]);
    assert!(text.contains("Figure 2a"));
    assert!(text.contains("[PASS]"));
    assert!(!text.contains("[FAIL]"), "{text}");
}

#[test]
fn repro_figure_8_csv_is_machine_readable() {
    let text = stdout(&["repro", "--figure", "8", "--csv"]);
    let mut lines = text.lines();
    assert_eq!(
        lines.next().unwrap(),
        "multiplicity,variant,re,re_packaging,nre_modules,nre_chips,nre_packages,nre_d2d,total"
    );
    assert!(text.lines().count() > 10);
}

#[test]
fn repro_rejects_unknown_figure() {
    let out = actuary(&["repro", "--figure", "3"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown figure"));
}

#[test]
fn sensitivity_ranks_parameters() {
    let text = stdout(&[
        "sensitivity",
        "--node",
        "5nm",
        "--area",
        "800",
        "--chiplets",
        "2",
    ]);
    assert!(text.contains("elasticity"));
    assert!(text.contains("defect density"));
    assert!(text.contains("wafer price"));
}

#[test]
fn experiments_emits_markdown_record() {
    let text = stdout(&["experiments"]);
    assert!(text.contains("## Figure 2"));
    assert!(text.contains("## Figure 10"));
    assert!(text.contains("| paper claim |"));
    assert!(!text.contains("| FAIL |"), "all claims must hold:\n{text}");
}

#[test]
fn flags_validation() {
    let out = actuary(&["cost", "--node"]);
    assert!(!out.status.success());
    let out = actuary(&["cost", "node", "5nm"]);
    assert!(!out.status.success());
    let out = actuary(&["cost", "--node", "5nm", "--area", "not-a-number"]);
    assert!(!out.status.success());
}

#[test]
fn misspelled_flag_is_rejected_not_ignored() {
    // Regression: `--quanttiy` used to be dropped silently, so the run
    // proceeded with the default quantity and printed a wrong answer.
    let out = actuary(&[
        "cost",
        "--node",
        "5nm",
        "--area",
        "800",
        "--quanttiy",
        "2000000",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--quanttiy"), "{stderr}");
    assert!(stderr.contains("accepted"), "{stderr}");
    assert!(
        stderr.contains("--quantity"),
        "must list the real flag: {stderr}"
    );
}

#[test]
fn every_subcommand_rejects_foreign_flags() {
    for args in [
        &["list", "--verbose", "x"][..],
        &["yield", "--node", "7nm", "--area", "400", "--quantity", "5"],
        &["sweep", "--node", "5nm", "--area", "800"],
        &[
            "partition",
            "--node",
            "5nm",
            "--area",
            "800",
            "--flow",
            "chip-last",
        ],
        &["explore", "--node", "5nm"],
        &["mc", "--node", "7nm", "--area", "150", "--figure", "2"],
        &["repro", "--figure", "2", "--node", "7nm"],
        &["experiments", "--csv"],
        &[
            "sensitivity",
            "--node",
            "5nm",
            "--area",
            "800",
            "--systems",
            "9",
        ],
        // `serve` rejects foreign flags before ever binding the address.
        &["serve", "--figure", "2"],
    ] {
        let out = actuary(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag"), "{args:?}: {stderr}");
    }
}

#[test]
fn integer_flags_reject_values_their_type_cannot_hold() {
    // Counts used to be read as u64 and cast, so 2³² + 2 chiplets became
    // 2 and 2³² systems became 0. Each value now parses at the flag's own
    // type, and the error names the flag and the value.
    let big = "18446744073709551616"; // 2⁶⁴: past u64 and usize
    let cost: &[&str] = &["cost", "--node", "5nm", "--area", "800"];
    let sweep: &[&str] = &["sweep", "--node", "5nm"];
    let partition: &[&str] = &["partition", "--node", "5nm", "--area", "800"];
    // `--threads` parses before the scenario file is read.
    let run: &[&str] = &["run", "no-such.toml"];
    let mc: &[&str] = &["mc", "--node", "7nm", "--area", "150"];
    let sensitivity: &[&str] = &["sensitivity", "--node", "5nm", "--area", "800"];
    // `serve` fails on its flags before it binds: an address without a
    // port never binds, so a `serve` past its flags would fail on that.
    let serve: &[&str] = &["serve", "--addr", "127.0.0.1"];
    for (command, flag, value) in [
        (cost, "--chiplets", "4294967298"),
        (cost, "--quantity", big),
        (sweep, "--chiplets", "4294967298"),
        (partition, "--quantity", big),
        (&["explore"], "--threads", big),
        (run, "--threads", big),
        (mc, "--chiplets", "4294967298"),
        (mc, "--systems", "4294967296"),
        (sensitivity, "--chiplets", "4294967297"),
        // 2³² requests/s used to wrap to 0, which turns the limiter off.
        (serve, "--rate-limit", "4294967296"),
        (serve, "--max-concurrent", "-1"),
        (serve, "--workers", big),
        (serve, "--core-cache", big),
    ] {
        let args = [command, &[flag, value]].concat();
        let out = actuary(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let message = format!("invalid {flag} {value:?}");
        assert!(stderr.contains(&message), "{args:?}: {stderr}");
    }
    // Zero chiplets used to print elasticities "for 0 × inf mm²".
    let out = actuary(&[sensitivity, &["--chiplets", "0"]].concat());
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--chiplets must be at least 1, got 0"),
        "{stderr}"
    );
}

#[test]
fn a_repeated_flag_is_rejected_not_overridden() {
    // The last value used to win: this priced 400 mm², not 800.
    for args in [
        &["cost", "--node", "5nm", "--area", "800", "--area", "400"][..],
        &["repro", "--figure", "8", "--csv", "--csv"],
        &["run", "no-such.toml", "--threads", "1", "--threads", "2"],
        // An address without a port never binds, so a `serve` that took
        // the last value would fail on binding it rather than run.
        &["serve", "--addr", "127.0.0.1", "--addr", "127.0.0.1"],
    ] {
        let out = actuary(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = args.iter().rev().find(|a| a.starts_with("--")).unwrap();
        assert!(
            stderr.contains(&format!("flag {flag} is given more than once")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn explore_rejects_the_retired_quantity_stride_flag() {
    let out = actuary(&["explore", "--refine", "--quantity-stride", "8"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag --quantity-stride"),
        "{stderr}"
    );
}

#[test]
fn explore_summarizes_the_grid() {
    let text = stdout(&[
        "explore",
        "--nodes",
        "7nm,5nm",
        "--areas",
        "400,800",
        "--quantities",
        "2000000",
        "--chiplets",
        "1,2,3",
        "--threads",
        "2",
    ]);
    assert!(text.contains("feasible"), "{text}");
    assert!(text.contains("Pareto front"), "{text}");
    assert!(text.contains("cheapest configuration"), "{text}");
}

#[test]
fn explore_csv_is_byte_identical_across_thread_counts() {
    // The default grid is 1,620 cells — comfortably over the 1,000-cell
    // determinism bar.
    let csv = |threads: &str| stdout(&["explore", "--threads", threads, "--csv"]);
    let serial = csv("1");
    assert_eq!(
        serial.lines().next().unwrap(),
        "node,area_mm2,quantity,integration,chiplets,status,per_unit_usd,re_per_unit_usd,detail"
    );
    assert_eq!(serial.lines().count(), 1_620 + 1);
    assert_eq!(serial, csv("8"), "threads must not change a single byte");
}

#[test]
fn explore_rejects_an_empty_axis() {
    let out = actuary(&["explore", "--nodes", ","]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--nodes"), "{stderr}");
}

#[test]
fn explore_and_partition_reject_a_zero_quantity() {
    // NRE is amortized over the quantity: a 0-unit answer would be the RE
    // alone, so it must fail by name instead.
    for (args, flag) in [
        (
            &[
                "explore",
                "--nodes",
                "7nm",
                "--areas",
                "400",
                "--quantities",
                "0",
                "--csv",
            ][..],
            "--quantities",
        ),
        (
            &[
                "partition",
                "--node",
                "7nm",
                "--area",
                "400",
                "--quantity",
                "0",
            ],
            "--quantity",
        ),
        (
            &["cost", "--node", "7nm", "--area", "400", "--quantity", "0"],
            "--quantity",
        ),
    ] {
        let out = actuary(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr,
            format!(
                "error: invalid {flag} \"0\": a quantity must be at least 1 (NRE is amortized \
                 over it)\n"
            ),
            "{args:?}"
        );
    }
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    // Each output is larger than a pipe buffer (64 KiB on Linux): explore's
    // CSV is about 105 KiB, fig10's run about 90 KiB as CSV and 84 KiB as
    // text, so the command is still writing when the reader goes away.
    let fig10 = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenarios/fig10.toml"
    );
    for args in [
        &["explore", "--csv", "--threads", "1"][..],
        &["run", fig10, "--csv", "--threads", "1"],
        &["run", fig10, "--threads", "1"],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_actuary"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("the actuary binary must spawn");
        let mut reader = std::io::BufReader::new(child.stdout.take().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(!line.is_empty(), "{args:?} printed nothing");
        drop(reader);
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {} {stderr}", out.status);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn explore_schemes_prints_per_scheme_winner_tables() {
    let text = stdout(&[
        "explore",
        "--nodes",
        "7nm",
        "--areas",
        "400,800",
        "--quantities",
        "500000",
        "--schemes",
        "scms,fsmc",
        "--threads",
        "2",
    ]);
    assert!(text.contains("[scms] cheapest configuration"), "{text}");
    assert!(text.contains("[fsmc] cheapest configuration"), "{text}");
    assert!(
        !text.contains("[ocme]"),
        "unrequested schemes must not appear: {text}"
    );
    assert!(text.contains("Pareto front"), "{text}");
}

#[test]
fn explore_schemes_csv_carries_the_new_axes() {
    let csv = stdout(&[
        "explore",
        "--nodes",
        "7nm",
        "--areas",
        "400",
        "--quantities",
        "500000",
        "--schemes",
        "all",
        "--flow-axis",
        "--threads",
        "1",
        "--csv",
    ]);
    assert_eq!(
        csv.lines().next().unwrap(),
        "node,area_mm2,quantity,integration,chiplets,flow,scheme,scheme_params,status,\
         per_unit_usd,re_per_unit_usd,detail"
    );
    // 1 node × 1 area × 1 quantity × 4 integrations × 5 counts × 2 flows ×
    // 4 schemes.
    assert_eq!(csv.lines().count(), 4 * 5 * 2 * 4 + 1);
    assert!(csv.contains(",chip-first,"), "{csv}");
    assert!(csv.contains(",fsmc,"), "{csv}");
}

#[test]
fn explore_out_streams_the_grid_to_a_file() {
    let path = std::env::temp_dir().join(format!("actuary-explore-{}.csv", std::process::id()));
    let path_str = path.to_str().unwrap();
    let text = stdout(&[
        "explore",
        "--nodes",
        "7nm",
        "--areas",
        "400",
        "--quantities",
        "500000,2000000",
        "--threads",
        "1",
        "--out",
        path_str,
    ]);
    assert!(text.contains("wrote 40 grid cells"), "{text}");
    let written = std::fs::read_to_string(&path).expect("the --out file must exist");
    std::fs::remove_file(&path).ok();
    // Identical bytes to the stdout --csv path.
    let csv = stdout(&[
        "explore",
        "--nodes",
        "7nm",
        "--areas",
        "400",
        "--quantities",
        "500000,2000000",
        "--threads",
        "1",
        "--csv",
    ]);
    assert_eq!(written, csv);
}

#[test]
fn explore_pareto_out_streams_the_program_front() {
    let path = std::env::temp_dir().join(format!("actuary-pareto-{}.csv", std::process::id()));
    let path_str = path.to_str().unwrap();
    let text = stdout(&[
        "explore",
        "--nodes",
        "7nm",
        "--areas",
        "400",
        "--quantities",
        "500000,2000000",
        "--chiplets",
        "1,2",
        "--threads",
        "1",
        "--pareto-out",
        path_str,
    ]);
    assert!(text.contains("program-Pareto"), "{text}");
    let written = std::fs::read_to_string(&path).expect("the --pareto-out file must exist");
    assert_eq!(
        written.lines().next().unwrap(),
        "node,area_mm2,quantity,integration,chiplets,program_total_usd,per_unit_usd"
    );
    assert!(written.lines().count() >= 2, "{written}");

    // The portfolio engine's front carries the scheme axis.
    let scheme_text = stdout(&[
        "explore",
        "--nodes",
        "7nm",
        "--areas",
        "400",
        "--quantities",
        "500000",
        "--chiplets",
        "1,2",
        "--schemes",
        "scms",
        "--threads",
        "1",
        "--pareto-out",
        path_str,
    ]);
    assert!(scheme_text.contains("program-Pareto"), "{scheme_text}");
    let written = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(
        written.lines().next().unwrap(),
        "scheme,scheme_params,node,area_mm2,quantity,integration,chiplets,flow,\
         program_total_usd,per_unit_usd"
    );
    assert!(written.contains("scms"), "{written}");
}

/// Removes the named columns from an exploration CSV. Only the last
/// column (`detail`) can hold a quoted comma, so splitting each line into
/// at most as many fields as the header has keeps every cell whole.
fn drop_csv_columns(csv: &str, dropped: &[&str]) -> String {
    let header: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
    let keep: Vec<bool> = header.iter().map(|c| !dropped.contains(c)).collect();
    let mut out = String::new();
    for line in csv.lines() {
        let kept: Vec<&str> = line
            .splitn(header.len(), ',')
            .zip(&keep)
            .filter_map(|(cell, &k)| k.then_some(cell))
            .collect();
        out.push_str(&kept.join(","));
        out.push('\n');
    }
    out
}

#[test]
fn plain_explore_is_the_none_scheme_grid_without_its_axis_columns() {
    // Single-system exploration is the `none` slice of the scheme grid: a
    // plain run's machine-readable outputs are the `--schemes none` ones
    // minus the one-value flow and scheme columns, byte for byte.
    let grid = [
        "explore",
        "--nodes",
        "7nm,5nm",
        "--areas",
        "200,600,1200",
        "--quantities",
        "500000,2000000",
        "--threads",
        "1",
    ];
    let dropped = ["flow", "scheme", "scheme_params"];
    let plain = stdout(&[&grid[..], &["--csv"]].concat());
    let none = stdout(&[&grid[..], &["--schemes", "none", "--csv"]].concat());
    assert_ne!(plain, none, "the --schemes output keeps its axis columns");
    assert_eq!(plain, drop_csv_columns(&none, &dropped));

    let path = std::env::temp_dir().join(format!("actuary-slice-{}.csv", std::process::id()));
    let path_str = path.to_str().unwrap();
    let pareto = |extra: &[&str]| {
        stdout(&[&grid[..], extra, &["--pareto-out", path_str]].concat());
        std::fs::read_to_string(&path).expect("the --pareto-out file must exist")
    };
    let plain_front = pareto(&[]);
    let none_front = pareto(&["--schemes", "none"]);
    std::fs::remove_file(&path).ok();
    assert!(plain_front.lines().count() >= 2, "{plain_front}");
    assert_eq!(plain_front, drop_csv_columns(&none_front, &dropped));
}

#[test]
fn run_writes_selected_outputs_and_sweeps_as_artifacts() {
    let dir = std::env::temp_dir().join(format!("actuary-artifacts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("study.toml");
    std::fs::write(
        &path,
        concat!(
            "name = \"study\"\n",
            "[[sweep]]\n",
            "name = \"fig4\"\n",
            "node = \"7nm\"\n",
            "chiplets = 2\n",
            "integrations = [\"soc\", \"mcm\"]\n",
            "areas_mm2 = [200, 800]\n",
            "[explore]\n",
            "name = \"grid\"\n",
            "nodes = [\"7nm\"]\n",
            "areas_mm2 = [400.0]\n",
            "quantities = [500000, 2000000]\n",
            "integrations = [\"soc\", \"mcm\"]\n",
            "chiplets = [1, 2]\n",
            "outputs = [\"grid\", \"winners\", \"pareto\", \"pareto_program\"]\n",
        ),
    )
    .unwrap();
    let out_dir = dir.join("out");
    stdout(&[
        "run",
        path.to_str().unwrap(),
        "--out-dir",
        out_dir.to_str().unwrap(),
    ]);
    for file in [
        "study-grid-grid.csv",
        "study-grid-winners.csv",
        "study-grid-pareto.csv",
        "study-grid-pareto_program.csv",
        "study-fig4-sweep.csv",
    ] {
        assert!(out_dir.join(file).exists(), "{file} must be written");
    }
    let sweep = std::fs::read_to_string(out_dir.join("study-fig4-sweep.csv")).unwrap();
    assert!(sweep.starts_with("area_mm2,SoC,MCM\n"), "{sweep}");

    // --csv concatenates the same artifacts on stdout, in order.
    let csv = stdout(&["run", path.to_str().unwrap(), "--csv"]);
    assert!(csv.starts_with("node,area_mm2,"), "{csv}");
    assert!(csv.contains("area_mm2,SoC,MCM"), "{csv}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn explore_rejects_csv_and_out_together() {
    let out = actuary(&["explore", "--csv", "--out", "/tmp/unused.csv"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--csv"), "{stderr}");
}

#[test]
fn explore_rejects_flow_and_flow_axis_together() {
    let out = actuary(&["explore", "--flow", "chip-first", "--flow-axis"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--flow"), "{stderr}");
}

#[test]
fn explore_rejects_an_unknown_scheme() {
    let out = actuary(&["explore", "--schemes", "scsm"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown reuse scheme"), "{stderr}");
}

#[test]
fn explore_fsmc_situation_axis_lands_in_the_csv() {
    let csv = stdout(&[
        "explore",
        "--nodes",
        "7nm",
        "--areas",
        "320",
        "--quantities",
        "500000",
        "--integrations",
        "mcm",
        "--chiplets",
        "2",
        "--schemes",
        "fsmc",
        "--fsmc-situations",
        "2x2,4x4",
        "--threads",
        "1",
        "--csv",
    ]);
    assert!(csv.contains("\"k=2,n=2\""), "{csv}");
    assert!(csv.contains("\"k=4,n=4\""), "{csv}");
    // One cell per situation plus the header.
    assert_eq!(csv.lines().count(), 3, "{csv}");
}

#[test]
fn explore_ocme_center_axis_accepts_none_and_nodes() {
    let csv = stdout(&[
        "explore",
        "--nodes",
        "7nm",
        "--areas",
        "160",
        "--quantities",
        "500000",
        "--integrations",
        "mcm",
        "--chiplets",
        "1",
        "--schemes",
        "ocme",
        "--ocme-centers",
        "none,14nm",
        "--package-reuse",
        "--threads",
        "1",
        "--csv",
    ]);
    assert!(csv.contains("center=14nm"), "{csv}");
    assert_eq!(csv.lines().count(), 3, "{csv}");
}

#[test]
fn explore_rejects_a_malformed_fsmc_situation() {
    let out = actuary(&["explore", "--fsmc-situations", "4by6"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("KxN"), "{stderr}");
}

#[test]
fn run_executes_a_scenario_file() {
    let dir = std::env::temp_dir().join(format!("actuary-run-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mini.toml");
    std::fs::write(
        &path,
        concat!(
            "name = \"mini\"\n",
            "[nodes.7nm]\n",
            "wafer_price_usd = 11500\n",
            "[[portfolio]]\n",
            "name = \"j\"\n",
            "scheme = \"scms\"\n",
            "node = \"7nm\"\n",
            "chiplet_module_area_mm2 = 200.0\n",
            "multiplicities = [1, 2]\n",
            "integration = \"mcm\"\n",
            "quantity = 500000\n",
        ),
    )
    .unwrap();
    let text = stdout(&["run", path.to_str().unwrap()]);
    assert!(text.contains("scenario `mini`"), "{text}");
    assert!(text.contains("2X"), "{text}");

    // --csv emits the machine-readable cost rows.
    let csv = stdout(&["run", path.to_str().unwrap(), "--csv"]);
    assert!(csv.starts_with("job,system,quantity,"), "{csv}");
    assert_eq!(csv.lines().count(), 3);

    // --out-dir writes the per-scenario files.
    let out_dir = dir.join("out");
    stdout(&[
        "run",
        path.to_str().unwrap(),
        "--out-dir",
        out_dir.to_str().unwrap(),
    ]);
    assert!(out_dir.join("mini-costs.csv").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn run_reports_scenario_errors_with_positions() {
    let dir = std::env::temp_dir().join(format!("actuary-run-err-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.toml");
    std::fs::write(&path, "name = \"bad\"\nquanttiy = 1\n").unwrap();
    let out = actuary(&["run", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 2, column 1") && stderr.contains("quanttiy"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn run_rejects_unknown_flags_and_missing_path() {
    let out = actuary(&["run"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs a scenario file"));

    let out = actuary(&["run", "x.toml", "--quanttiy", "5"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --quanttiy"), "{stderr}");
}

#[test]
fn explore_rejects_scheme_parameter_flags_without_their_scheme() {
    // The axis flags act only through their scheme; accepting them on a
    // grid that never builds that scheme would silently drop the axis.
    for args in [
        &["explore", "--fsmc-situations", "2x2"][..],
        &["explore", "--ocme-centers", "14nm"],
        &["explore", "--package-reuse"],
        &["explore", "--schemes", "scms", "--fsmc-situations", "2x2"],
        &["explore", "--schemes", "fsmc", "--ocme-centers", "14nm"],
    ] {
        let out = actuary(args);
        assert!(!out.status.success(), "{args:?} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--schemes"), "{args:?}: {stderr}");
    }
}

#[test]
fn usage_follows_only_a_usage_error() {
    // A command line off the usage gets the usage text after its error.
    for args in [
        &[][..],
        &["frobnicate"],
        &["cost", "--node", "5nm", "--area", "800", "--quanttiy", "5"],
        &["cost", "--node"],
        &["cost", "--node", "5nm", "--area", "800", "--area", "400"],
        &["cost", "--node", "5nm"],
        &["run"],
    ] {
        let out = actuary(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains("\n\nusage: actuary"), "{args:?}: {stderr}");
    }
    // Any other error is one line.
    for args in [
        &["cost", "--node", "5nm", "--area", "-5"][..],
        &["explore", "--areas", "100,-5"],
        &["explore", "--csv", "--out", "/tmp/unused.csv"],
        &["repro", "--figure", "3"],
        &["run", "no-such.toml"],
    ] {
        let out = actuary(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }
}

#[test]
fn flag_diagnostics_name_the_flag_and_the_value() {
    for (args, message) in [
        (
            &["explore", "--areas", "100,-5"][..],
            "error: invalid --areas \"-5\": invalid area: -5 mm² (must be finite and non-negative)\n",
        ),
        (
            &["explore", "--quantities", "1000,500"],
            "error: invalid --quantities \"500\": the --quantities axis must be strictly \
             increasing (500 follows 1000)\n",
        ),
        (
            &["explore", "--nodes", "6nm"],
            "error: invalid --nodes \"6nm\": unknown process node: \"6nm\"\n",
        ),
        (
            &["partition", "--node", "7nm", "--area", "-5"],
            "error: invalid --area \"-5\": invalid area: -5 mm² (must be finite and non-negative)\n",
        ),
        (
            &["sweep", "--node", "6nm"],
            "error: invalid --node \"6nm\": unknown process node: \"6nm\"\n",
        ),
        // `cost` and `mc` check one system's (integration, chiplets) pair
        // with the grid's single-system rule.
        (
            &["cost", "--node", "5nm", "--area", "800", "--chiplets", "2", "--integration", "soc"],
            "error: invalid --chiplets \"2\": monolithic SoC cannot hold 2 chiplets\n",
        ),
        (
            &["cost", "--node", "5nm", "--area", "800", "--chiplets", "1", "--integration", "mcm"],
            "error: invalid --chiplets \"1\": MCM needs at least 2 chiplets (a single die has no \
             D2D interface)\n",
        ),
        (
            &["mc", "--node", "7nm", "--area", "150", "--chiplets", "1"],
            "error: invalid --chiplets \"1\": MCM needs at least 2 chiplets (a single die has no \
             D2D interface)\n",
        ),
        (
            &["mc", "--node", "7nm", "--area", "150", "--integration", "soc"],
            "error: invalid --chiplets \"2\": monolithic SoC cannot hold 2 chiplets\n",
        ),
    ] {
        let out = actuary(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert_eq!(String::from_utf8_lossy(&out.stderr), message, "{args:?}");
    }
}
