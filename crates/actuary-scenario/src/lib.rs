//! **actuary-scenario** — declarative scenario files for the chiplet
//! cost model.
//!
//! Everything the engine can evaluate — technology libraries, systems,
//! portfolios, reuse schemes and exploration spaces — can be described in
//! a TOML file instead of Rust. A scenario is parsed by the crate's own
//! std-only [`toml`] parser (the offline build has no registry TOML or
//! serialization crates), lowered through a schema layer with line/column
//! diagnostics, and
//! executed through the existing `actuary-arch` / `actuary-dse` engines.
//!
//! # Layer role
//!
//! In the workspace's strict dependency DAG (`units → yield → tech →
//! model → arch → {mc, dse} → {scenario, report} → figures → cli`), this
//! crate is the *input boundary*: the only layer that parses untrusted
//! text. Everything below it takes typed values; everything above it
//! (`actuary-cli`'s `run` and `serve`) hands raw documents here and gets
//! either a [`Scenario`] or a positioned [`ScenarioError`] back. That is
//! why the whole crate is panic-free (machine-checked by `actuary-lint`)
//! and why content addressing lives here too: [`canon`] digests the
//! *parsed* tree ([`Scenario::from_doc`] runs on the same tree), so the
//! serving layer can cache results by what a document means rather than
//! how it is formatted.
//!
//! # File shape
//!
//! ```toml
//! name = "my-study"
//! extends = "preset"          # start from the paper's calibration
//!
//! [nodes.7nm]                 # overlay: only this key changes
//! wafer_price_usd = 11000
//!
//! [[portfolio]]               # cost a reuse-scheme portfolio
//! name = "scms-mcm"
//! scheme = "scms"
//! node = "7nm"
//! chiplet_module_area_mm2 = 200.0
//! multiplicities = [1, 2, 4]
//! integration = "mcm"
//! quantity = 500000
//!
//! [explore]                   # grid exploration through actuary-dse
//! nodes = ["7nm"]
//! areas_mm2 = [400.0, 800.0]
//! quantities = [500000]
//! ```
//!
//! See the repository README ("Scenario files") for the full schema
//! reference; `examples/scenarios/` reproduces the paper's Figures 2, 6,
//! 8, 9 and 10 from scenario files alone.
//!
//! # Examples
//!
//! ```
//! use actuary_scenario::Scenario;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = Scenario::from_toml(concat!(
//!     "name = \"demo\"\n",
//!     "[[portfolio]]\n",
//!     "name = \"scms\"\n",
//!     "scheme = \"scms\"\n",
//!     "node = \"7nm\"\n",
//!     "chiplet_module_area_mm2 = 200.0\n",
//!     "multiplicities = [1, 2, 4]\n",
//!     "integration = \"mcm\"\n",
//!     "quantity = 500000\n",
//! ))?;
//! let run = scenario.run(1)?;
//! assert_eq!(run.cost_rows.len(), 3); // 1X, 2X, 4X
//! # Ok(())
//! # }
//! ```
//!
//! Errors always name the offending position:
//!
//! ```
//! use actuary_scenario::Scenario;
//!
//! let err = Scenario::from_toml("name = \"x\"\nquanttiy = 1\n").unwrap_err();
//! assert_eq!(
//!     err.to_string(),
//!     "line 2, column 1: unknown key `quanttiy` in the scenario root (accepted: \
//!      description, explore, extends, name, nodes, packaging, portfolio, sweep, yield)"
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canon;
pub mod error;
mod jobs;
mod schema;
mod tech;
pub mod toml;

pub use canon::ScenarioDigest;
pub use error::ScenarioError;
pub use jobs::{
    CostJob, CostRow, ExploreJob, ExploreOutput, ExploreRun, Job, Scenario, ScenarioRun,
    StreamSink, SweepAxis, SweepJob, SweepRun, YieldJob, YieldRow, YieldTech,
};
pub use tech::library_to_scenario;

#[cfg(test)]
mod tests {
    use super::*;
    use actuary_tech::{IntegrationKind, PackagingTech, TechLibrary};
    use actuary_units::{Money, Prob};

    fn minimal(job: &str) -> String {
        format!("name = \"t\"\n{job}")
    }

    const SCMS_JOB: &str = concat!(
        "[[portfolio]]\n",
        "name = \"j\"\n",
        "scheme = \"scms\"\n",
        "node = \"7nm\"\n",
        "chiplet_module_area_mm2 = 200.0\n",
        "multiplicities = [1, 2, 4]\n",
        "integration = \"mcm\"\n",
        "quantity = 500000\n",
    );

    #[test]
    fn scms_scenario_runs() {
        let s = Scenario::from_toml(&minimal(SCMS_JOB)).unwrap();
        assert_eq!(s.jobs.len(), 1);
        let run = s.run(1).unwrap();
        assert_eq!(run.cost_rows.len(), 3);
        assert!(run.cost_rows.iter().all(|r| r.per_unit_usd > 0.0));
        let csv = run.costs_artifact().csv();
        assert!(csv.starts_with(
            "job,system,quantity,re_usd,re_packaging_usd,nre_modules_usd,nre_chips_usd,\
             nre_packages_usd,nre_d2d_usd,per_unit_usd\n"
        ));
        assert_eq!(csv.lines().count(), 4);
        // The run exposes exactly one artifact — the cost table.
        let artifacts = run.artifacts();
        assert_eq!(artifacts.len(), 1);
        assert_eq!(artifacts[0].name(), "costs");
    }

    #[test]
    fn schema_errors_name_line_and_column() {
        // (scenario text, expected "line N, column M" prefix, fragment)
        let cases: &[(String, &str, &str)] = &[
            (
                minimal("[[portfolio]]\nname = \"j\"\nscheme = \"scms\"\nnode = \"9nm\"\n"),
                "line 5, column 8",
                "unknown process node",
            ),
            (
                minimal("[[portfolio]]\nname = \"j\"\nscheme = \"weird\"\n"),
                "line 4, column 10",
                "unknown scheme",
            ),
            (
                minimal(&SCMS_JOB.replace("quantity = 500000", "quantity = \"many\"")),
                "line 9, column 12",
                "must be an integer",
            ),
            (
                minimal(&format!("{SCMS_JOB}typo_key = 1\n")),
                "line 10, column 1",
                "unknown key `typo_key`",
            ),
            (
                "extends = \"wat\"\nname = \"t\"\n".to_string(),
                "line 1, column 11",
                "unknown base library",
            ),
            (
                minimal("[nodes.4nm]\ncluster = 9.0\n"),
                "line 2, column 1",
                "requires key `defect_density`",
            ),
        ];
        for (input, prefix, fragment) in cases {
            let err = Scenario::from_toml(input).expect_err(input);
            let message = err.to_string();
            assert!(
                message.starts_with(prefix),
                "{input:?}: {message} must start with {prefix:?}"
            );
            assert!(
                message.contains(fragment),
                "{input:?}: {message} must mention {fragment:?}"
            );
        }
    }

    #[test]
    fn extends_overlay_keeps_unmentioned_parameters() {
        let s = Scenario::from_toml(&minimal(&format!(
            "[nodes.7nm]\nwafer_price_usd = 12000\n{SCMS_JOB}"
        )))
        .unwrap();
        let base = TechLibrary::paper_defaults().unwrap();
        let n7 = s.library.node("7nm").unwrap();
        assert_eq!(n7.wafer_price().usd(), 12000.0);
        // Everything else keeps the preset calibration.
        let b7 = base.node("7nm").unwrap();
        assert_eq!(n7.defect_density(), b7.defect_density());
        assert_eq!(n7.nre().k_module, b7.nre().k_module);
        assert_eq!(n7.d2d(), b7.d2d());
        assert_eq!(s.library.node_count(), base.node_count());
    }

    #[test]
    fn packaging_overlay_changes_only_the_keys_present() {
        let s = Scenario::from_toml(&minimal(&format!(
            "[packaging.mcm]\nassembly_cost_usd = 13.46\n{SCMS_JOB}"
        )))
        .unwrap();
        let base = TechLibrary::paper_defaults().unwrap();
        let preset = base.packaging(IntegrationKind::Mcm).unwrap();
        let expected = (preset.to_builder())
            .assembly_cost(Money::from_usd(13.46).unwrap())
            .build()
            .unwrap();
        assert_ne!(&expected, preset);
        assert_eq!(
            s.library.packaging(IntegrationKind::Mcm).unwrap(),
            &expected
        );
        for kind in [
            IntegrationKind::Soc,
            IntegrationKind::Info,
            IntegrationKind::TwoPointFiveD,
        ] {
            assert_eq!(s.library.packaging(kind), base.packaging(kind));
        }
    }

    #[test]
    fn a_new_packaging_entry_starts_from_the_builder_defaults() {
        let s = Scenario::from_toml(&minimal(concat!(
            "extends = \"none\"\n",
            "[packaging.mcm]\n",
            "substrate_layer_factor = 2.5\n",
            "chip_bond_yield = 0.97\n",
            "fixed_package_nre_musd = 1.5\n",
            "[nodes.7nm]\n",
            "defect_density = 0.09\n",
            "wafer_price_usd = 9346\n",
            "k_module_usd = 540000\n",
            "k_chip_usd = 180000\n",
            "mask_set_musd = 30\n",
            "[[yield]]\n",
            "name = \"y\"\n",
            "techs = [\"7nm\"]\n",
            "areas_mm2 = [100]\n",
        )))
        .unwrap();
        let expected = PackagingTech::builder(IntegrationKind::Mcm)
            .substrate_layer_factor(2.5)
            .chip_bond_yield(Prob::new(0.97).unwrap())
            .fixed_package_nre(Money::from_musd(1.5).unwrap())
            .build()
            .unwrap();
        assert_eq!(s.library.packagings().count(), 1);
        assert_eq!(
            s.library.packaging(IntegrationKind::Mcm).unwrap(),
            &expected
        );
    }

    #[test]
    fn zero_quantities_fail_at_their_element_on_both_quantity_axes() {
        let explore = "[explore]\nnodes = [\"7nm\"]\nquantities = [0, 10]\n";
        let sweep = concat!(
            "[[sweep]]\n",
            "name = \"s\"\n",
            "node = \"7nm\"\n",
            "chiplets = 2\n",
            "integrations = [\"soc\", \"mcm\"]\n",
            "area_mm2 = 400\n",
            "quantities = [0, 1000]\n",
        );
        for (job, pos) in [(explore, "line 4, column 15"), (sweep, "line 8, column 15")] {
            let err = Scenario::from_toml(&minimal(job)).expect_err(job);
            assert_eq!(
                err.to_string(),
                format!("{pos}: a quantity must be at least 1 (NRE is amortized over it)")
            );
        }
    }

    #[test]
    fn extends_none_starts_empty() {
        let err =
            Scenario::from_toml(&minimal(&format!("extends = \"none\"\n{SCMS_JOB}"))).unwrap_err();
        assert!(err.to_string().contains("unknown process node"), "{err}");
    }

    #[test]
    fn custom_heterogeneous_system() {
        let s = Scenario::from_toml(&minimal(concat!(
            "[[portfolio]]\n",
            "name = \"amd-like\"\n",
            "scheme = \"custom\"\n",
            "flow = \"chip-first\"\n",
            "[[portfolio.system]]\n",
            "name = \"epyc\"\n",
            "integration = \"mcm\"\n",
            "quantity = 1000000\n",
            "[[portfolio.system.chip]]\n",
            "name = \"ccd\"\n",
            "node = \"7nm\"\n",
            "count = 8\n",
            "[[portfolio.system.chip.module]]\n",
            "name = \"cores\"\n",
            "area_mm2 = 67.0\n",
            "[[portfolio.system.chip]]\n",
            "name = \"iod\"\n",
            "node = \"12nm\"\n",
            "[[portfolio.system.chip.module]]\n",
            "name = \"io\"\n",
            "area_mm2 = 370.0\n",
        )))
        .unwrap();
        let run = s.run(1).unwrap();
        assert_eq!(run.cost_rows.len(), 1);
        let row = &run.cost_rows[0];
        assert_eq!(row.system, "epyc");
        assert!(row.per_unit_usd > 0.0);
    }

    #[test]
    fn yield_job_matches_direct_computation() {
        let s = Scenario::from_toml(&minimal(concat!(
            "[[yield]]\n",
            "name = \"y\"\n",
            "techs = [\"7nm\", \"2.5d\"]\n",
            "areas_mm2 = [100, 800]\n",
        )))
        .unwrap();
        let run = s.run(1).unwrap();
        assert_eq!(run.yield_rows.len(), 4);
        let lib = TechLibrary::paper_defaults().unwrap();
        let n7 = lib.node("7nm").unwrap();
        let direct = n7.die_yield(actuary_units::Area::from_mm2(100.0).unwrap());
        assert_eq!(run.yield_rows[0].yield_frac, direct.value());
        assert!(run.yields_artifact().csv().contains("2.5D-interposer"));
    }

    #[test]
    fn explore_job_rides_the_dse_engine() {
        let s = Scenario::from_toml(&minimal(concat!(
            "[explore]\n",
            "nodes = [\"7nm\"]\n",
            "areas_mm2 = [200.0, 400.0]\n",
            "quantities = [500000]\n",
            "integrations = [\"soc\", \"mcm\"]\n",
            "chiplets = [1, 2]\n",
            "schemes = [\"none\", \"scms\"]\n",
        )))
        .unwrap();
        let run = s.run(1).unwrap();
        assert_eq!(run.explores.len(), 1);
        let result = &run.explores[0].result;
        assert_eq!(result.len(), 2 * 2 * 2 * 2);
        assert!(result.feasible_count() > 0);
    }

    /// Lowers an `[explore]` job with `schemes` on line 3 and one scheme
    /// parameter `key_line` on line 4.
    fn explore_with(schemes: &str, key_line: &str) -> Result<Scenario, ScenarioError> {
        Scenario::from_toml(&minimal(&format!(
            "[explore]\nschemes = [{schemes}]\n{key_line}\nnodes = [\"7nm\"]\n"
        )))
    }

    /// Asserts a schema error at the scheme parameter's key naming the
    /// scheme it needs.
    fn assert_needs_scheme(result: Result<Scenario, ScenarioError>, scheme: &str) {
        let message = result.expect_err("the parameter is unread").to_string();
        assert!(message.starts_with("line 4, column 1: "), "{message}");
        assert!(message.contains(&format!("\"{scheme}\"")), "{message}");
    }

    #[test]
    fn scms_multiplicities_without_the_scms_scheme_are_rejected() {
        let key = "scms_multiplicities = [1, 3]";
        assert_needs_scheme(explore_with("\"none\"", key), "scms");
        assert!(explore_with("\"none\", \"scms\"", key).is_ok());
    }

    #[test]
    fn fsmc_situations_without_the_fsmc_scheme_are_rejected() {
        let key = "fsmc_situations = [\"2x2\"]";
        assert_needs_scheme(explore_with("\"scms\"", key), "fsmc");
        assert!(explore_with("\"scms\", \"fsmc\"", key).is_ok());
    }

    #[test]
    fn ocme_center_nodes_without_the_ocme_scheme_are_rejected() {
        let key = "ocme_center_nodes = [\"14nm\"]";
        assert_needs_scheme(explore_with("\"scms\"", key), "ocme");
        assert!(explore_with("\"ocme\"", key).is_ok());
    }

    #[test]
    fn package_reuse_without_an_scms_or_ocme_scheme_is_rejected() {
        let key = "package_reuse = true";
        assert_needs_scheme(explore_with("\"none\", \"fsmc\"", key), "scms");
        assert!(explore_with("\"none\", \"ocme\"", key).is_ok());
        // Turning package reuse off asks for nothing.
        assert!(explore_with("\"none\"", "package_reuse = false").is_ok());
    }

    #[test]
    fn sweep_job_runs_the_figure4_workload() {
        let s = Scenario::from_toml(&minimal(concat!(
            "[[sweep]]\n",
            "name = \"re\"\n",
            "node = \"7nm\"\n",
            "chiplets = 2\n",
            "integrations = [\"soc\", \"mcm\"]\n",
            "areas_mm2 = [100, 400, 900]\n",
        )))
        .unwrap();
        let run = s.run(1).unwrap();
        assert_eq!(run.sweeps.len(), 1);
        let sweep = &run.sweeps[0].sweep;
        assert_eq!(sweep.points().len(), 3);
        assert_eq!(sweep.x_label(), "area_mm2");
        // §4.1: at 7nm the 2-chiplet MCM overtakes the SoC within the grid.
        let mcm = sweep.series_values("MCM").unwrap();
        let soc = sweep.series_values("SoC").unwrap();
        assert!(mcm[2].1 < soc[2].1, "MCM must win at 900 mm²");
        // The run's only artifact is the sweep table, job-qualified.
        let artifacts = run.artifacts();
        assert_eq!(artifacts.len(), 1);
        assert_eq!(artifacts[0].name(), "re-sweep");
        assert_eq!(artifacts[0].kind(), "sweep");
        let csv = run.sweeps[0].sweep.artifact("re-sweep").csv();
        assert!(csv.starts_with("area_mm2,SoC,MCM\n"), "{csv}");
    }

    #[test]
    fn quantity_sweep_runs_the_crossover_workload() {
        // §4.2 declaratively: per-unit total cost vs production quantity at
        // a fixed area. NRE dominates at low volume, so every series must
        // fall monotonically as the quantity grows.
        let s = Scenario::from_toml(&minimal(concat!(
            "[[sweep]]\n",
            "name = \"payback\"\n",
            "node = \"7nm\"\n",
            "chiplets = 2\n",
            "area_mm2 = 600.0\n",
            "integrations = [\"soc\", \"mcm\"]\n",
            "quantities = [10000, 100000, 1000000, 10000000]\n",
        )))
        .unwrap();
        let run = s.run(1).unwrap();
        let sweep = &run.sweeps[0].sweep;
        assert_eq!(sweep.x_label(), "quantity");
        assert_eq!(sweep.points().len(), 4);
        for name in ["SoC", "MCM"] {
            let values = sweep.series_values(name).unwrap();
            for pair in values.windows(2) {
                assert!(
                    pair[1].1 < pair[0].1,
                    "{name}: per-unit total must fall with quantity, got {values:?}"
                );
            }
        }
        let csv = run.artifacts().remove(0).csv();
        assert!(csv.starts_with("quantity,SoC,MCM\n"), "{csv}");
    }

    #[test]
    fn sweep_axis_keys_are_mutually_exclusive() {
        let base = concat!(
            "[[sweep]]\n",
            "name = \"s\"\n",
            "node = \"7nm\"\n",
            "chiplets = 2\n",
            "integrations = [\"mcm\"]\n",
        );
        let cases: &[(String, &str)] = &[
            (
                minimal(&format!(
                    "{base}areas_mm2 = [100]\nquantities = [1000]\narea_mm2 = 100.0\n"
                )),
                "exactly one swept axis",
            ),
            (minimal(base), "exactly one swept axis"),
            (
                minimal(&format!("{base}quantities = [1000]\n")),
                "needs the fixed `area_mm2` key",
            ),
            (
                minimal(&format!("{base}areas_mm2 = [100]\narea_mm2 = 100.0\n")),
                "only pairs with a `quantities` sweep",
            ),
        ];
        for (input, fragment) in cases {
            let err = Scenario::from_toml(input).expect_err(input);
            assert!(
                err.to_string().contains(fragment),
                "{input:?}: {err} must mention {fragment:?}"
            );
        }
    }

    #[test]
    fn refine_mode_matches_the_exhaustive_explore_job() {
        let axes = concat!(
            "nodes = [\"7nm\"]\n",
            "areas_mm2 = [100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0]\n",
            "quantities = [500000, 10000000]\n",
            "integrations = [\"soc\", \"mcm\"]\n",
            "chiplets = [1, 2, 4]\n",
            "outputs = [\"winners\", \"pareto\"]\n",
        );
        let refined =
            Scenario::from_toml(&minimal(&format!("[explore]\nmode = \"refine\"\n{axes}")))
                .unwrap()
                .run(1)
                .unwrap();
        let exhaustive = Scenario::from_toml(&minimal(&format!(
            "[explore]\nmode = \"exhaustive\"\n{axes}"
        )))
        .unwrap()
        .run(1)
        .unwrap();
        let csvs = |run: &ScenarioRun| -> Vec<String> {
            run.artifacts().into_iter().map(|a| a.csv()).collect()
        };
        assert_eq!(csvs(&refined), csvs(&exhaustive));

        let err = Scenario::from_toml(&minimal("[explore]\nmode = \"wat\"\n")).unwrap_err();
        assert!(err.to_string().contains("unknown explore mode"), "{err}");
        // Refinement has no tuning knobs: the retired stride key is a
        // schema error, not a silent no-op.
        let err = Scenario::from_toml(&minimal(&format!(
            "[explore]\nmode = \"refine\"\nquantity_stride = 4\n{axes}"
        )))
        .unwrap_err();
        assert!(
            err.to_string().contains("unknown key `quantity_stride`"),
            "{err}"
        );
    }

    #[test]
    fn explore_outputs_select_the_emitted_artifacts() {
        let s = Scenario::from_toml(&minimal(concat!(
            "[explore]\n",
            "nodes = [\"7nm\"]\n",
            "areas_mm2 = [200.0, 400.0]\n",
            "quantities = [500000, 2000000]\n",
            "integrations = [\"soc\", \"mcm\"]\n",
            "chiplets = [1, 2]\n",
            "outputs = [\"winners\", \"pareto\", \"pareto_program\"]\n",
        )))
        .unwrap();
        let run = s.run(1).unwrap();
        let names: Vec<String> = run
            .artifacts()
            .iter()
            .map(|a| a.name().to_string())
            .collect();
        assert_eq!(
            names,
            [
                "explore-winners",
                "explore-pareto",
                "explore-pareto_program"
            ],
            "the grid was not selected, so it must not be emitted"
        );
    }

    #[test]
    fn sweep_and_outputs_schema_errors_name_positions() {
        let cases: &[(String, &str)] = &[
            (
                minimal(concat!(
                    "[[sweep]]\n",
                    "name = \"s\"\n",
                    "node = \"7nm\"\n",
                    "chiplets = 1\n",
                    "integrations = [\"mcm\"]\n",
                    "areas_mm2 = [100]\n",
                )),
                "at least 2 chiplets",
            ),
            (
                minimal(concat!(
                    "[explore]\n",
                    "nodes = [\"7nm\"]\n",
                    "outputs = [\"winers\"]\n",
                )),
                "unknown output",
            ),
            (
                minimal(concat!(
                    "[[sweep]]\n",
                    "name = \"s\"\n",
                    "node = \"7nm\"\n",
                    "chiplets = 2\n",
                    "integrations = [\"mcm\", \"mcm\"]\n",
                    "areas_mm2 = [100]\n",
                )),
                "duplicate integration",
            ),
            (
                minimal(concat!(
                    "[explore]\n",
                    "nodes = [\"7nm\"]\n",
                    "outputs = [\"grid\", \"grid\"]\n",
                )),
                "duplicate output",
            ),
        ];
        for (input, fragment) in cases {
            let err = Scenario::from_toml(input).expect_err(input);
            let message = err.to_string();
            assert!(message.starts_with("line "), "{input:?}: {message}");
            assert!(
                message.contains(fragment),
                "{input:?}: {message} must mention {fragment:?}"
            );
        }
    }

    #[test]
    fn scenario_without_jobs_is_rejected() {
        let err = Scenario::from_toml("name = \"t\"\n").unwrap_err();
        assert!(err.to_string().contains("defines no jobs"), "{err}");
    }

    #[test]
    fn duplicate_job_names_are_rejected() {
        let err = Scenario::from_toml(&minimal(&format!("{SCMS_JOB}{SCMS_JOB}"))).unwrap_err();
        assert!(err.to_string().contains("duplicate job name"), "{err}");
    }

    #[test]
    fn names_that_would_escape_the_output_directory_are_rejected() {
        // Scenario and job names become output file names; a traversal
        // name must fail at parse time, pointing at the value.
        for bad in ["../evil", "a/b", "", "a b"] {
            let input = minimal(SCMS_JOB).replace("name = \"t\"", &format!("name = \"{bad}\""));
            let err = Scenario::from_toml(&input).expect_err(bad);
            assert!(
                err.to_string().contains("names output files"),
                "{bad}: {err}"
            );
        }
        let input = minimal(&SCMS_JOB.replace("name = \"j\"", "name = \"../j\""));
        let err = Scenario::from_toml(&input).unwrap_err();
        assert!(err.to_string().contains("job name"), "{err}");
    }

    #[test]
    fn non_bare_node_ids_survive_the_round_trip() {
        use actuary_units::Money;
        let mut lib = TechLibrary::paper_defaults().unwrap();
        // An id that is not a bare TOML key (contains a dot) must be quoted
        // by the writer and reparsed identically.
        lib.insert_node(
            actuary_tech::ProcessNode::builder("8.5nm")
                .defect_density(0.1)
                .wafer_price(Money::from_usd(5_000.0).unwrap())
                .k_module(Money::from_usd(300_000.0).unwrap())
                .k_chip(Money::from_usd(180_000.0).unwrap())
                .mask_set(Money::from_musd(5.0).unwrap())
                .build()
                .unwrap(),
        );
        let toml = library_to_scenario("weird", &lib);
        let s = Scenario::from_toml(&format!(
            "{toml}\n[[yield]]\nname = \"y\"\ntechs = [\"8.5nm\"]\nareas_mm2 = [100]\n"
        ))
        .unwrap();
        assert_eq!(s.library, lib);
    }

    #[test]
    fn library_round_trips_through_scenario_form() {
        let lib = TechLibrary::paper_defaults().unwrap();
        let toml = library_to_scenario("roundtrip", &lib);
        let s = Scenario::from_toml(&format!(
            "{toml}\n[[yield]]\nname = \"y\"\ntechs = [\"7nm\"]\nareas_mm2 = [100]\n"
        ))
        .unwrap();
        assert_eq!(s.library, lib);
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    proptest! {
        /// The parser and schema never panic, whatever the input.
        #[test]
        fn parser_never_panics(bytes in proptest::collection::vec(0u8..=255u8, 0..200usize)) {
            let input = String::from_utf8_lossy(&bytes);
            let _ = crate::Scenario::from_toml(&input);
        }

        /// Printable, structured-looking input doesn't panic either.
        #[test]
        fn structured_fuzz_never_panics(
            bytes in proptest::collection::vec(32u8..127u8, 0..40usize),
            which in 0u8..4u8,
        ) {
            let payload: String = bytes.iter().map(|&b| b as char).collect();
            let input = match which {
                0 => format!("{payload} = 1\n"),
                1 => format!("a = {payload}\n"),
                2 => format!("[{payload}]\nx = 1\n"),
                _ => format!("name = \"t\"\n[[portfolio]]\n{payload}\n"),
            };
            let _ = crate::Scenario::from_toml(&input);
        }
    }
}
