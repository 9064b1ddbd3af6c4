//! **actuary-lint** — the workspace's own static-analysis pass.
//!
//! The cost model's value is *trustworthy* numbers, and this repo's
//! failure mode has always been silent wrong answers. Several
//! load-bearing invariants — one CSV serializer, byte-identical grids
//! across thread counts, the crate layering DAG, unit-suffixed cost
//! fields — were historically enforced by greps quoted in CHANGES.md or
//! by convention. This crate makes them mechanical: a std-only binary
//! (no dependencies, not even internal ones — the linter sits outside
//! the DAG it enforces) that lexes every workspace source file and runs
//! five named checks:
//!
//! | check | invariant |
//! |---|---|
//! | `crate-dag` | `[dependencies]` point strictly downward in the layer order; every `actuary_*` reference is declared |
//! | `no-panic` | no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` outside tests in the serving path and scenario parser |
//! | `single-serializer` | no CSV serialization defined outside `actuary-units` |
//! | `unit-suffix` | `pub` `f64` fields and scenario float keys end in a unit suffix (`_usd`, `_mm2`, …) |
//! | `determinism` | no `SystemTime`/`Instant` outside `actuary-obs` (bench exempt); no `HashMap`/`HashSet` or float `==` against literals in result-producing crates |
//!
//! A finding prints as `file:line: [check] message` and fails the run.
//! To exempt one line, put `// lint:allow(check-name): reason` on the
//! line or the line above; `// lint:allow-file(check-name)` exempts a
//! file. Where an invariant applies at all (panic-free paths, the layer
//! table, the suffix vocabulary) lives in [`config`] as reviewed,
//! diffable constants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checks;
pub mod config;
pub mod lexer;
pub mod workspace;

pub use checks::{run_check, Finding, CHECK_NAMES};
pub use workspace::{find_root, Workspace};

use std::io;
use std::path::Path;

/// Loads the workspace at `root` and runs the named checks (all of
/// [`CHECK_NAMES`] when `only` is `None`), returning surviving findings
/// after inline-allow filtering, sorted by file, line and check.
pub fn run_checks(root: &Path, only: Option<&[String]>) -> io::Result<Vec<Finding>> {
    let ws = Workspace::load(root)?;
    let mut findings = Vec::new();
    for check in CHECK_NAMES {
        let selected = match only {
            None => true,
            Some(names) => names.iter().any(|n| n == check),
        };
        if selected {
            checks::run_check(check, &ws, &mut findings);
        }
    }
    // Inline-allow filtering: a finding in a lexed file is dropped when
    // an allow directive for its check covers its line.
    findings.retain(|f| {
        for krate in &ws.crates {
            for file in &krate.files {
                if file.rel == f.file {
                    return !file.lexed.allowed(f.check, f.line);
                }
            }
        }
        true // manifest findings have no inline allows
    });
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.check).cmp(&(b.file.as_str(), b.line, b.check))
    });
    findings.dedup();
    Ok(findings)
}
