//! Project-invariant configuration: the crate layering, panic-free
//! paths, unit-suffix vocabulary and per-check scoping that the checks
//! in [`crate::checks`] enforce.
//!
//! This file *is* the allowlist of last resort: inline
//! `// lint:allow(check)` comments handle single findings, while the
//! constants here define where each invariant applies at all. Changing a
//! constant is a reviewed, diffable act — exactly the property the
//! invariants need.

/// The crate layering DAG, bottom (0) to top. A crate may only declare
/// `[dependencies]` on crates with a strictly lower layer — so both
/// upward edges (dse → report) and same-layer edges (scenario ↔ report)
/// are rejected, keeping the sibling pairs independent.
pub const LAYERS: &[(&str, u32)] = &[
    ("actuary-obs", 0),
    ("actuary-units", 0),
    ("actuary-yield", 1),
    ("actuary-tech", 2),
    ("actuary-model", 3),
    ("actuary-arch", 4),
    ("actuary-mc", 5),
    ("actuary-dse", 5),
    ("actuary-scenario", 6),
    ("actuary-report", 6),
    ("actuary-figures", 7),
    ("actuary-cli", 8),
    ("chiplet-actuary", 8),
    ("bench", 8),
];

/// The layer of `name`, if it is an internal layered crate.
pub fn layer_of(name: &str) -> Option<u32> {
    LAYERS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, layer)| *layer)
}

/// The linter itself: must depend on nothing internal (it sits outside
/// the DAG it enforces).
pub const LINT_CRATE: &str = "actuary-lint";

/// Paths (workspace-relative, `/`-separated; a trailing `/` means the
/// whole subtree) where panicking operators are banned outside test
/// code. The server's `catch_unwind` backstop is not a license to panic,
/// and the scenario crate parses untrusted input end to end.
pub const PANIC_FREE_PATHS: &[&str] = &[
    "crates/actuary-cli/src/server.rs",
    "crates/actuary-scenario/src/",
];

/// Crates allowed to define CSV serialization (everything else must go
/// through `actuary_report::Artifact`). `actuary-units` hosts the one
/// row writer (`write_csv_row`) behind every `Artifact`, in the base
/// layer for DAG reasons.
pub const SERIALIZER_CRATES: &[&str] = &["actuary-units"];

/// Result-producing crates: everything whose output feeds grids, CSVs or
/// served responses. Inside these, wall-clock time sources and
/// iteration-order-unstable collections are banned (byte-identical
/// output across thread counts is a pinned guarantee), as are float
/// `==`/`!=` against literals outside the approved modules.
pub const RESULT_CRATES: &[&str] = &[
    "actuary-units",
    "actuary-yield",
    "actuary-tech",
    "actuary-model",
    "actuary-arch",
    "actuary-mc",
    "actuary-dse",
    "actuary-scenario",
    "actuary-report",
    "actuary-figures",
    "chiplet-actuary",
];

/// The one crate approved to touch wall-clock time sources
/// (`Instant`/`SystemTime`): the observability layer anchors its
/// monotonic `Tick` and log timestamps in `actuary_obs::clock` so every
/// other crate reads time through an auditable seam — or not at all.
pub const CLOCK_CRATE: &str = "actuary-obs";

/// Crates exempt from the clock ban without being the clock owner: the
/// benchmark harness times the engine from outside by definition, and
/// its numbers never feed a result artifact.
pub const CLOCK_EXEMPT_CRATES: &[&str] = &["bench"];

/// Modules where float `==`/`!=` against a literal is approved: the
/// unit value types own their exact-zero semantics (`Money::is_zero`
/// and friends are the single place exactness is intended).
pub const FLOAT_EQ_APPROVED: &[&str] = &["crates/actuary-units/src/"];

/// Unit suffixes a `pub` `f64` struct field or scenario float key may
/// end with. The vocabulary is the project's unit system: money, areas,
/// lengths, probabilities/ratios and time.
pub const UNIT_SUFFIXES: &[&str] = &[
    "_usd",
    "_musd",
    "_mm2",
    "_mm",
    "_nm",
    "_frac",
    "_fraction",
    "_factor",
    "_yield",
    "_density",
    "_norm",
    "_months",
    "_per_mm2",
    "_per_unit",
];

/// True when `rel` (workspace-relative path) is under a compat shim —
/// compat crates mirror external APIs and are exempt from project
/// conventions.
pub fn is_compat(dir: &str) -> bool {
    dir.starts_with("crates/compat")
}

/// True when `rel` matches `path` (exact file, or prefix when `path`
/// ends with `/`).
pub fn path_matches(rel: &str, path: &str) -> bool {
    if path.ends_with('/') {
        rel.starts_with(path)
    } else {
        rel == path
    }
}
