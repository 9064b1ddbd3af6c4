//! Fixture tests: every check is proven *live* — it fires on a fixture
//! workspace that violates its invariant — and every allow form is
//! proven to suppress. A check that silently stopped matching (lexer
//! regression, pattern typo) fails here, not in production.

use std::path::PathBuf;

use actuary_lint::{run_checks, Finding};

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn violations() -> Vec<Finding> {
    run_checks(&fixture_root("violations"), None).expect("fixture workspace loads")
}

/// Asserts exactly one finding of `check` exists at `file`:`line`.
fn assert_fires(findings: &[Finding], check: &str, file: &str, line: u32) {
    let hits: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.check == check && f.file == file && f.line == line)
        .collect();
    assert_eq!(
        hits.len(),
        1,
        "expected exactly one [{check}] at {file}:{line}; got {hits:?}\nall: {findings:#?}"
    );
}

#[test]
fn crate_dag_rejects_upward_edge() {
    // dse (layer 5) declaring report (layer 6): the exact edge PR 1 removed.
    assert_fires(
        &violations(),
        "crate-dag",
        "crates/actuary-dse/Cargo.toml",
        1,
    );
}

#[test]
fn crate_dag_rejects_same_layer_edge() {
    // scenario and report share layer 6; the sibling pair stays independent.
    assert_fires(
        &violations(),
        "crate-dag",
        "crates/actuary-scenario/Cargo.toml",
        1,
    );
}

#[test]
fn crate_dag_rejects_undeclared_reference() {
    // `use actuary_figures::…` with no matching Cargo.toml declaration.
    assert_fires(
        &violations(),
        "crate-dag",
        "crates/actuary-dse/src/lib.rs",
        2,
    );
}

#[test]
fn no_panic_rejects_unwrap_expect_and_panic() {
    let found = violations();
    let lib = "crates/actuary-scenario/src/lib.rs";
    assert_fires(&found, "no-panic", lib, 3); // .unwrap()
    assert_fires(&found, "no-panic", lib, 4); // .expect(…)
    assert_fires(&found, "no-panic", lib, 6); // panic!
}

#[test]
fn no_panic_skips_total_functions_and_test_code() {
    // unwrap_or / expect_line_end are not panicking operators, and the
    // unwraps inside #[cfg(test)] modules (nested included) are exempt.
    let extra: Vec<Finding> = violations()
        .into_iter()
        .filter(|f| f.check == "no-panic" && f.line > 6)
        .collect();
    assert!(extra.is_empty(), "unexpected no-panic findings: {extra:?}");
}

#[test]
fn single_serializer_rejects_defs_and_handrolled_rows() {
    let found = violations();
    let lib = "crates/actuary-dse/src/lib.rs";
    assert_fires(&found, "single-serializer", lib, 13); // fn to_csv
    assert_fires(&found, "single-serializer", lib, 15); // "{},{}" format row
    assert_fires(&found, "single-serializer", lib, 17); // .join(",")

    // The serializer crate's own row writer is exempt.
    assert!(
        !found
            .iter()
            .any(|f| f.check == "single-serializer" && f.file.starts_with("crates/actuary-units/")),
        "actuary-units is the serializer crate: {found:#?}"
    );
}

#[test]
fn unit_suffix_rejects_bare_float_fields_and_scenario_keys() {
    let found = violations();
    assert_fires(
        &found,
        "unit-suffix",
        "crates/actuary-dse/src/lib.rs",
        8, // pub cost: f64
    );
    let scenario = "crates/actuary-scenario/src/lib.rs";
    assert_fires(&found, "unit-suffix", scenario, 14); // opt::<f64>("cluster")
    assert_fires(&found, "unit-suffix", scenario, 15); // req("bare"): untyped
                                                       // A suffixed key may be read untyped, and a bare key as a non-float.
    assert!(
        !found
            .iter()
            .any(|f| f.check == "unit-suffix" && f.file == scenario && f.line > 15),
        "area_mm2 and a typed name read are compliant: {found:#?}"
    );
    // The compliant `area_mm2` field must NOT fire.
    assert!(
        !found
            .iter()
            .any(|f| f.check == "unit-suffix" && f.line == 9),
        "area_mm2 is compliant: {found:#?}"
    );
}

#[test]
fn determinism_rejects_time_hash_and_float_eq() {
    let found = violations();
    let lib = "crates/actuary-dse/src/lib.rs";
    assert_fires(&found, "determinism", lib, 3); // HashMap
    assert_fires(&found, "determinism", lib, 4); // Instant
    assert_fires(&found, "determinism", lib, 19); // cost == 0.0
                                                  // The #[cfg(test)] HashMap + exact compare are exempt.
    assert!(
        !found
            .iter()
            .any(|f| f.check == "determinism" && f.file == lib && f.line > 19),
        "test code must be exempt: {found:#?}"
    );
}

#[test]
fn determinism_clock_ban_spans_crates_but_spares_actuary_obs() {
    let found = violations();
    // actuary-cli is NOT a result crate, yet the clock ban fires there…
    assert_fires(&found, "determinism", "crates/actuary-cli/src/lib.rs", 3); // Instant
    let stray: Vec<&Finding> = found
        .iter()
        .filter(|f| {
            // …while its HashMap (a result-crate-only rule) stays silent,
            (f.file == "crates/actuary-cli/src/lib.rs" && f.line != 3)
                // and the approved clock crate produces no findings at all.
                || f.file.starts_with("crates/actuary-obs/")
        })
        .collect();
    assert!(stray.is_empty(), "clock scoping leaked: {stray:#?}");
}

#[test]
fn every_check_fires_somewhere_in_the_violations_fixture() {
    // The master liveness gate: a check that goes silent fails here even
    // if the per-check assertions above are edited.
    let found = violations();
    for check in actuary_lint::CHECK_NAMES {
        assert!(
            found.iter().any(|f| f.check == *check),
            "check `{check}` produced no finding on the violations fixture"
        );
    }
}

#[test]
fn allow_directives_suppress_every_finding() {
    let found = run_checks(&fixture_root("allowed"), None).expect("fixture workspace loads");
    assert!(
        found.is_empty(),
        "allow directives must suppress all findings: {found:#?}"
    );
}

#[test]
fn single_check_selection_runs_only_that_check() {
    let found = run_checks(&fixture_root("violations"), Some(&["no-panic".to_string()]))
        .expect("fixture workspace loads");
    assert!(!found.is_empty());
    assert!(found.iter().all(|f| f.check == "no-panic"), "{found:#?}");
}
