//! Integration tests of the scenario subsystem against the full stack:
//! the bundled `examples/scenarios/` files must reproduce the
//! `actuary-figures` reproductions to 1e-9 *through the scenario path*
//! (file → parser → schema → engines), the `extends` overlay must change
//! only the cells it names, and a library serialized to scenario form must
//! round-trip to a byte-identical exploration CSV.

use chiplet_actuary::dse::portfolio::explore_portfolio;
use chiplet_actuary::figures::{fig10, fig2, fig6, fig8, fig9};
use chiplet_actuary::prelude::reuse::{OcmeSpec, ScmsSpec};
use chiplet_actuary::prelude::*;
use chiplet_actuary::scenario::{library_to_scenario, CostRow, Scenario, ScenarioRun};

fn lib() -> TechLibrary {
    TechLibrary::paper_defaults().unwrap()
}

fn close(a: f64, b: f64, what: &str) {
    assert!(
        (a - b).abs() <= 1e-9 * b.abs().max(1.0),
        "{what}: scenario {a} vs anchor {b}"
    );
}

fn run_scenario(file: &str) -> ScenarioRun {
    let path = format!("{}/examples/scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Scenario::from_toml(&text)
        .unwrap_or_else(|e| panic!("{path}: {e}"))
        .run(2)
        .unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn row<'a>(run: &'a ScenarioRun, job: &str, system: &str) -> &'a CostRow {
    run.cost_rows
        .iter()
        .find(|r| r.job == job && r.system == system)
        .unwrap_or_else(|| panic!("missing row {job}/{system}"))
}

#[test]
fn fig8_scenario_reproduces_the_figure_anchors() {
    let lib = lib();
    let run = run_scenario("fig8.toml");
    let fig = fig8::compute(&lib).unwrap();
    // Figure 8 normalizes to the RE of the 4X MCM system; reconstruct the
    // basis from the same spec the figure module uses (the scenario crate
    // itself carries zero figure data).
    let basis = ScmsSpec::paper_example()
        .unwrap()
        .portfolio()
        .unwrap()
        .cost(&lib, AssemblyFlow::ChipLast)
        .unwrap()
        .system("4X")
        .unwrap()
        .re()
        .total()
        .usd();

    let variants = [
        ("soc", fig8::Fig8Variant::Soc, "-soc"),
        ("mcm", fig8::Fig8Variant::Mcm, ""),
        ("mcm-pkg-reuse", fig8::Fig8Variant::McmPackageReuse, ""),
        ("2.5d", fig8::Fig8Variant::TwoPointFiveD, ""),
        (
            "2.5d-pkg-reuse",
            fig8::Fig8Variant::TwoPointFiveDPackageReuse,
            "",
        ),
    ];
    for m in [1u32, 2, 4] {
        for (job, variant, suffix) in &variants {
            let r = row(&run, job, &format!("{m}X{suffix}"));
            let cell = fig.cell(m, *variant).unwrap();
            close(
                r.per_unit_usd,
                cell.total() * basis,
                &format!("{m}X {job} total"),
            );
            close(r.re_usd, cell.re_norm * basis, &format!("{m}X {job} RE"));
            close(
                r.nre_chips_usd,
                cell.nre_chips_norm * basis,
                &format!("{m}X {job} chip NRE"),
            );
            close(
                r.nre_packages_usd,
                cell.nre_packages_norm * basis,
                &format!("{m}X {job} package NRE"),
            );
        }
    }
}

#[test]
fn fig9_scenario_reproduces_the_figure_anchors() {
    let lib = lib();
    let run = run_scenario("fig9.toml");
    let fig = fig9::compute(&lib).unwrap();
    let basis = OcmeSpec::paper_example()
        .unwrap()
        .portfolio()
        .unwrap()
        .cost(&lib, AssemblyFlow::ChipLast)
        .unwrap()
        .system("C+2X+2Y")
        .unwrap()
        .re()
        .total()
        .usd();

    let variants = [
        ("soc", fig9::Fig9Variant::Soc, "-soc"),
        ("mcm", fig9::Fig9Variant::Mcm, ""),
        ("mcm-pkg-reuse", fig9::Fig9Variant::McmPackageReuse, ""),
        (
            "mcm-pkg-reuse-hetero",
            fig9::Fig9Variant::McmPackageReuseHetero,
            "",
        ),
    ];
    for system in fig9::SYSTEMS {
        for (job, variant, suffix) in &variants {
            let r = row(&run, job, &format!("{system}{suffix}"));
            let cell = fig.cell(system, *variant).unwrap();
            close(
                r.per_unit_usd,
                cell.total() * basis,
                &format!("{system} {job} total"),
            );
            close(
                r.re_usd,
                cell.re_norm * basis,
                &format!("{system} {job} RE"),
            );
        }
    }
}

#[test]
fn fig10_scenario_reproduces_the_figure_averages() {
    let lib = lib();
    let run = run_scenario("fig10.toml");
    let fig = fig10::compute(&lib).unwrap();
    // Basis: the SoC average of the first situation — recomputed from the
    // scenario's own rows (the figure normalizes every bar to it).
    let average = |job: &str| {
        let rows: Vec<&CostRow> = run.cost_rows.iter().filter(|r| r.job == job).collect();
        assert!(!rows.is_empty(), "job {job} must produce rows");
        rows.iter().map(|r| r.per_unit_usd).sum::<f64>() / rows.len() as f64
    };
    let basis = average("k2n2-soc");

    for (k, n) in fig10::SITUATIONS {
        for (kind, label) in [
            (IntegrationKind::Soc, "soc"),
            (IntegrationKind::Mcm, "mcm"),
            (IntegrationKind::TwoPointFiveD, "2.5d"),
        ] {
            let bar = fig.cell(k, n, kind).unwrap();
            close(
                average(&format!("k{k}n{n}-{label}")),
                bar.total() * basis,
                &format!("k={k} n={n} {label} average"),
            );
        }
    }
}

#[test]
fn fig6_scenario_reproduces_the_figure_anchors() {
    let lib = lib();
    let run = run_scenario("fig6.toml");
    let fig = fig6::compute(&lib).unwrap();
    for node in fig6::NODES {
        for quantity in fig6::QUANTITIES {
            let qlabel = if quantity < 1_000_000 {
                format!("q{}k", quantity / 1_000)
            } else {
                format!("q{}m", quantity / 1_000_000)
            };
            // The node's SoC RE is the figure's (quantity-independent)
            // normalization basis, and it is one of the scenario's own rows.
            let basis = row(&run, &format!("{node}-{qlabel}-soc"), "soc").re_usd;
            for (kind, system) in [
                (IntegrationKind::Soc, "soc"),
                (IntegrationKind::Mcm, "mcm"),
                (IntegrationKind::Info, "info"),
                (IntegrationKind::TwoPointFiveD, "2.5d"),
            ] {
                let job = format!("{node}-{qlabel}-{system}");
                let r = row(&run, &job, system);
                let cell = fig.cell(node, quantity, kind).unwrap();
                close(
                    r.per_unit_usd,
                    cell.total() * basis,
                    &format!("{job} {system} total"),
                );
                close(
                    r.re_usd,
                    cell.re_norm * basis,
                    &format!("{job} {system} RE"),
                );
            }
        }
    }
}

#[test]
fn fig2_scenario_reproduces_the_figure_rows() {
    let lib = lib();
    let run = run_scenario("fig2.toml");
    let fig = fig2::compute(&lib).unwrap();
    assert_eq!(run.yield_rows.len(), fig.rows.len());
    let label_of = |tech: &str| match tech {
        "InFO-interposer" => "RDL".to_string(),
        "2.5D-interposer" => "SI".to_string(),
        other => other.to_string(),
    };
    for r in &run.yield_rows {
        let label = label_of(&r.tech);
        let anchor = fig
            .rows
            .iter()
            .find(|a| a.tech == label && a.area_mm2 == r.area_mm2)
            .unwrap_or_else(|| panic!("no Figure 2 row for {label} at {}", r.area_mm2));
        close(
            r.yield_frac,
            anchor.yield_frac,
            &format!("{label} {} yield", r.area_mm2),
        );
        close(
            r.cost_per_area_norm,
            anchor.cost_per_area_norm,
            &format!("{label} {} norm cost", r.area_mm2),
        );
    }
}

#[test]
fn fig4_sweep_scenario_reproduces_the_figure_to_1e9() {
    let lib = lib();
    let run = run_scenario("fig4-sweep.toml");
    let fig = chiplet_actuary::figures::fig4::compute(&lib).unwrap();
    assert_eq!(run.sweeps.len(), 3);
    for (sweep_run, node) in run.sweeps.iter().zip(["14nm", "7nm", "5nm"]) {
        assert_eq!(sweep_run.name, format!("re-{node}-2c"));
        let sweep = &sweep_run.sweep;
        // The figure normalizes each panel to the node's 100 mm² SoC; the
        // sweep reports raw dollars, so the basis is computed directly
        // from the model (the scenario crate carries zero figure data).
        let n = lib.node(node).unwrap();
        let basis = re_cost(
            &[DiePlacement::new(n, Area::from_mm2(100.0).unwrap(), 1)],
            lib.packaging(IntegrationKind::Soc).unwrap(),
            AssemblyFlow::ChipLast,
        )
        .unwrap()
        .total()
        .usd();
        for (kind, series) in [
            (IntegrationKind::Soc, "SoC"),
            (IntegrationKind::Mcm, "MCM"),
            (IntegrationKind::Info, "InFO"),
            (IntegrationKind::TwoPointFiveD, "2.5D"),
        ] {
            let values = sweep.series_values(series).unwrap();
            assert_eq!(values.len(), 9);
            for (area, value) in values {
                let cell = fig.cell(node, 2, kind, area).unwrap();
                close(
                    value,
                    cell.total() * basis,
                    &format!("{node} {series} at {area} mm²"),
                );
            }
        }
    }
}

#[test]
fn scenario_artifacts_cover_every_selected_surface() {
    // wafer-price-override selects all four explore outputs; the artifact
    // stream must carry them in order, named for the output files.
    let run = run_scenario("wafer-price-override.toml");
    let artifacts = run.artifacts();
    let names: Vec<&str> = artifacts.iter().map(|a| a.name()).collect();
    assert_eq!(
        names,
        [
            "grid-grid",
            "grid-winners",
            "grid-pareto",
            "grid-pareto_program"
        ]
    );
    // The grid artifact is byte-identical to the engine's own emission —
    // the scenario layer only renames it.
    let direct = run.explores[0].result.grid_artifact().csv();
    let first = run.artifacts().remove(0);
    assert_eq!(first.csv(), direct);
}

#[test]
fn wafer_price_override_changes_only_the_named_node() {
    let run = run_scenario("wafer-price-override.toml");
    assert_eq!(run.explores.len(), 1);
    let overridden = &run.explores[0].result;
    // The preset run over the *same* space.
    let preset = explore_portfolio(&lib(), overridden.space(), 2).unwrap();
    assert_eq!(preset.len(), overridden.len());
    let mut seven_nm_diffs = 0usize;
    for (p, o) in preset.cells().iter().zip(overridden.cells()) {
        assert_eq!(p.node, o.node);
        assert_eq!(p.area_mm2, o.area_mm2);
        let (Some(pc), Some(oc)) = (p.outcome.candidate(), o.outcome.candidate()) else {
            assert_eq!(p.outcome, o.outcome, "non-feasible outcomes must agree");
            continue;
        };
        if p.node == "7nm" {
            // The wafer price rose from $9,346 to $11,500: every feasible
            // 7nm cell must get strictly more expensive.
            assert!(
                oc.per_unit > pc.per_unit,
                "7nm cell {p:?} must become more expensive"
            );
            seven_nm_diffs += 1;
        } else {
            assert_eq!(pc, oc, "cells of untouched nodes must be bit-identical");
        }
    }
    assert!(
        seven_nm_diffs > 0,
        "the grid must contain feasible 7nm cells"
    );
}

#[test]
fn serialized_library_round_trips_to_byte_identical_exploration_csv() {
    let lib = lib();
    let toml = library_to_scenario("roundtrip", &lib);
    let scenario = Scenario::from_toml(&format!(
        concat!(
            "{}\n",
            "[explore]\n",
            "name = \"grid\"\n",
            "nodes = [\"14nm\", \"7nm\", \"5nm\"]\n",
            "areas_mm2 = [200.0, 400.0, 800.0]\n",
            "quantities = [500000, 2000000]\n",
            "integrations = [\"soc\", \"mcm\", \"info\", \"2.5d\"]\n",
            "chiplets = [1, 2, 3]\n",
            "schemes = [\"none\", \"scms\", \"ocme\", \"fsmc\"]\n",
        ),
        toml
    ))
    .unwrap();
    // The reconstructed library is *exactly* the preset one...
    assert_eq!(scenario.library, lib);
    // ...so the exploration CSV through the scenario path is byte-identical
    // to the preset path.
    let run = scenario.run(2).unwrap();
    let direct = explore_portfolio(&lib, run.explores[0].result.space(), 2).unwrap();
    assert_eq!(
        run.explores[0].result.grid_artifact().csv(),
        direct.grid_artifact().csv()
    );
}

#[test]
fn run_with_a_shared_cache_is_byte_identical_and_reuses_cores_across_runs() {
    use chiplet_actuary::dse::portfolio::SharedCoreCache;
    use chiplet_actuary::scenario::canon::library_digest;
    use chiplet_actuary::scenario::toml::parse;

    let path = format!(
        "{}/examples/scenarios/custom-node.toml",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap();
    let doc = parse(&text).unwrap();
    let scenario = Scenario::from_doc(&doc).unwrap();
    let tag = library_digest(&doc).bytes();

    let reference = scenario.run(2).unwrap();
    let cache = SharedCoreCache::new(4096);
    let cold = scenario.run_with(2, Some((&cache, tag)), &mut ()).unwrap();
    let warm = scenario.run_with(2, Some((&cache, tag)), &mut ()).unwrap();

    // Every artifact of every run renders byte-identically: the cache only
    // short-circuits the quantity-independent core evaluations.
    let render = |run: &ScenarioRun| -> Vec<String> {
        run.artifacts().into_iter().map(|a| a.csv()).collect()
    };
    assert_eq!(render(&cold), render(&reference));
    assert_eq!(render(&warm), render(&reference));

    // The warm run answered every explore core from the cache.
    for (c, w) in cold.explores.iter().zip(&warm.explores) {
        assert!(c.result.core_evaluations() > 0);
        assert_eq!(w.result.core_evaluations(), 0, "{}", w.name);
    }

    // A different library tag is invisible to the warm cores.
    let other = scenario
        .run_with(2, Some((&cache, [0xAB; 32])), &mut ())
        .unwrap();
    for (c, o) in cold.explores.iter().zip(&other.explores) {
        assert_eq!(o.result.core_evaluations(), c.result.core_evaluations());
    }
}

/// A scenario exercising incremental delivery: a yield table ahead of a
/// refine-mode explore job with a real 2-D grid and multiple surfaces.
const STREAMED_SCENARIO: &str = concat!(
    "name = \"streamed\"\n",
    "[[yield]]\n",
    "name = \"y\"\n",
    "techs = [\"7nm\"]\n",
    "areas_mm2 = [100, 200]\n",
    "[explore]\n",
    "name = \"job\"\n",
    "nodes = [\"7nm\"]\n",
    "areas_mm2 = [90, 180, 270, 360, 450, 540, 630, 720]\n",
    "quantities = [750000, 1500000, 2250000, 3000000, 3750000, 4500000, \
     5250000, 6000000, 6750000, 7500000, 8250000, 9000000]\n",
    "integrations = [\"soc\", \"mcm\", \"info\", \"2.5d\"]\n",
    "chiplets = [1, 2, 3]\n",
    "mode = \"refine\"\n",
    "outputs = [\"grid\", \"winners\", \"pareto\"]\n",
);

/// Records every streamed segment as (artifact name, continuation, CSV
/// text) — header-bearing for opening segments, rows-only otherwise,
/// exactly as a serializing consumer would render them.
struct Collect {
    segments: Vec<(String, bool, String)>,
}

impl chiplet_actuary::scenario::StreamSink for Collect {
    fn segment(
        &mut self,
        artifact: chiplet_actuary::report::Artifact<'_>,
        continuation: bool,
    ) -> bool {
        let name = artifact.name().to_string();
        let mut text = String::new();
        if continuation {
            artifact.write_csv_rows_to(&mut text).unwrap();
        } else {
            artifact.write_csv_to(&mut text).unwrap();
        }
        self.segments.push((name, continuation, text));
        true
    }
}

#[test]
fn run_with_segments_reassemble_to_the_batch_run_byte_for_byte() {
    let scenario = Scenario::from_toml(STREAMED_SCENARIO).unwrap();
    let batch = scenario.run(2).unwrap();
    let mut sink = Collect {
        segments: Vec::new(),
    };
    let streamed = scenario.run_with(2, None, &mut sink).unwrap();

    // The returned run is the same run: every artifact renders
    // byte-identically to the batch path.
    let render = |run: &ScenarioRun| -> Vec<String> {
        run.artifacts().into_iter().map(|a| a.csv()).collect()
    };
    assert_eq!(render(&streamed), render(&batch));

    // Delivery order: the yield table, the streamed grid (opening
    // segment, then rows-only continuations), then the remaining
    // surfaces as whole artifacts.
    let names: Vec<(&str, bool)> = sink
        .segments
        .iter()
        .map(|(n, c, _)| (n.as_str(), *c))
        .collect();
    assert_eq!(names[0], ("yields", false));
    assert_eq!(names[1], ("job-grid", false));
    let n = names.len();
    assert_eq!(names[n - 2], ("job-winners", false));
    assert_eq!(names[n - 1], ("job-pareto", false));
    let grid: Vec<&(String, bool, String)> = sink
        .segments
        .iter()
        .filter(|(name, _, _)| name == "job-grid")
        .collect();
    assert!(
        grid.len() >= 3,
        "coarse, at least one bisection wave, and the residual: got {}",
        grid.len()
    );
    assert!(grid[1..].iter().all(|(_, c, _)| *c), "continuations only");
    assert_eq!(
        n,
        grid.len() + 3,
        "nothing besides yields/grid/winners/pareto may be delivered"
    );

    // The streamed-grid contract: the opening segment carries the
    // header, every segment is internally grid-ordered, every cell
    // appears exactly once, and re-sorting the concatenated rows by
    // grid position reproduces the batch grid byte for byte.
    let batch_grid = batch.explores[0].result.grid_artifact().csv();
    let batch_lines: Vec<&str> = batch_grid.lines().collect();
    let header = batch_lines[0];
    let position: std::collections::BTreeMap<&str, usize> = batch_lines[1..]
        .iter()
        .enumerate()
        .map(|(i, line)| (*line, i))
        .collect();
    assert_eq!(position.len(), batch_lines.len() - 1, "rows must be unique");
    let mut streamed_rows: Vec<(usize, &str)> = Vec::new();
    for (i, (_, _, text)) in grid.iter().enumerate() {
        let mut lines = text.lines();
        if i == 0 {
            assert_eq!(lines.next(), Some(header));
        }
        let mut previous = None;
        for line in lines {
            let at = *position
                .get(line)
                .unwrap_or_else(|| panic!("streamed a row the batch grid lacks: {line}"));
            assert!(
                previous.is_none_or(|p| p < at),
                "segment {i} must be internally grid-ordered"
            );
            previous = Some(at);
            streamed_rows.push((at, line));
        }
    }
    assert_eq!(streamed_rows.len(), position.len(), "each row exactly once");
    streamed_rows.sort_unstable_by_key(|(at, _)| *at);
    let mut reassembled = format!("{header}\n");
    for (_, line) in streamed_rows {
        reassembled.push_str(line);
        reassembled.push('\n');
    }
    assert_eq!(reassembled, batch_grid);
}

#[test]
fn a_declining_stream_sink_aborts_the_run() {
    /// Accepts `budget` segments, then declines.
    struct Stop {
        budget: usize,
    }
    impl chiplet_actuary::scenario::StreamSink for Stop {
        fn segment(&mut self, _: chiplet_actuary::report::Artifact<'_>, _: bool) -> bool {
            let go = self.budget > 0;
            self.budget = self.budget.saturating_sub(1);
            go
        }
    }
    let scenario = Scenario::from_toml(STREAMED_SCENARIO).unwrap();
    // Declining the very first segment and declining mid-grid must both
    // surface as an engine error naming the job, not a silent success.
    for budget in [0, 2] {
        let err = scenario
            .run_with(2, None, &mut Stop { budget })
            .expect_err("a declined delivery must abort the run");
        let text = err.to_string();
        assert!(
            text.contains("declined") || text.contains("aborted"),
            "{text}"
        );
    }
}

#[test]
fn hetero_scenario_exposes_the_flow_comparison() {
    let run = run_scenario("hetero-portfolio.toml");
    let last = row(&run, "chip-last", "server-64c");
    let first = row(&run, "chip-first", "server-64c");
    // §5: chip-last avoids wasting known-good dies on interposer defects.
    assert!(
        last.per_unit_usd < first.per_unit_usd,
        "chip-last must beat chip-first on the 2.5D server part"
    );
    // The MCM desktop part prices identically under both flows (Eq. 5).
    let d_last = row(&run, "chip-last", "desktop-16c");
    let d_first = row(&run, "chip-first", "desktop-16c");
    close(
        d_last.per_unit_usd,
        d_first.per_unit_usd,
        "desktop flow parity",
    );
    // Heterogeneous nodes in one package: the rows exist and priced > 0.
    assert!(last.per_unit_usd > 0.0 && d_last.per_unit_usd > 0.0);
}

#[test]
fn custom_node_scenario_runs_on_the_declared_node() {
    let run = run_scenario("custom-node.toml");
    assert_eq!(run.cost_rows.len(), 3); // SCMS 1X/2X/4X on the 4nm node
    assert!(run.cost_rows.iter().all(|r| r.per_unit_usd > 0.0));
    let grid = &run.explores[0].result;
    // The non-preset node participates in the grid like any preset node.
    assert!(grid
        .feasible()
        .any(|c| c.node == "4nm" && c.scheme_params == "k=4,n=4"));
}

/// Every document under `examples/scenarios/errors/` fails to lower with
/// exactly the diagnostic pinned beside it in `<name>.err`: one malformed
/// document per diagnostic form (each scalar type as a key and as an array
/// element, each grammar, the structural and new-entry errors).
#[test]
fn every_malformed_scenario_keeps_its_pinned_diagnostic() {
    let dir = format!("{}/examples/scenarios/errors", env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let tomls: Vec<&str> = names
        .iter()
        .filter_map(|n| n.strip_suffix(".toml"))
        .collect();
    let errs: Vec<&str> = names
        .iter()
        .filter_map(|n| n.strip_suffix(".err"))
        .collect();
    assert_eq!(
        tomls, errs,
        "every corpus document needs its pinned .err and no more"
    );
    assert!(
        tomls.len() >= 50,
        "the corpus lost documents: {}",
        tomls.len()
    );
    for name in tomls {
        let text = std::fs::read_to_string(format!("{dir}/{name}.toml")).unwrap();
        let pinned = std::fs::read_to_string(format!("{dir}/{name}.err")).unwrap();
        let err = Scenario::from_toml(&text).expect_err(name);
        assert_eq!(format!("{err}\n"), pinned, "{name}.toml");
    }
}
