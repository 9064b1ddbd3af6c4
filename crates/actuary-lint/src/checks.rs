//! The five named invariant checks. Each walks the lexed workspace and
//! pushes [`Finding`]s; inline-allow filtering happens in the runner
//! ([`crate::run_checks`]), so every check reports unconditionally.

use std::fmt;

use crate::config;
use crate::lexer::{Token, TokenKind};
use crate::workspace::{CrateInfo, Role, SourceFile, Workspace};

/// One lint finding: a named check firing at a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The check that fired (e.g. `"no-panic"`).
    pub check: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line (line 1 for whole-file findings such as manifest
    /// violations).
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.check, self.message
        )
    }
}

/// All check names, in reporting order.
pub const CHECK_NAMES: &[&str] = &[
    "crate-dag",
    "no-panic",
    "single-serializer",
    "unit-suffix",
    "determinism",
];

/// Runs one named check over the workspace.
pub fn run_check(name: &str, ws: &Workspace, findings: &mut Vec<Finding>) {
    match name {
        "crate-dag" => crate_dag(ws, findings),
        "no-panic" => no_panic(ws, findings),
        "single-serializer" => single_serializer(ws, findings),
        "unit-suffix" => unit_suffix(ws, findings),
        "determinism" => determinism(ws, findings),
        other => unreachable!("unknown check `{other}` (CHECK_NAMES is the registry)"),
    }
}

/// True when this file's code at `tok` is production code for the
/// purposes of a production-only check.
fn is_production(file: &SourceFile, tok: &Token) -> bool {
    file.role == Role::Lib && !tok.in_test
}

// ---------------------------------------------------------------------
// crate-dag
// ---------------------------------------------------------------------

/// Enforces the crate layering DAG two ways: declared `[dependencies]`
/// must point strictly downward in [`config::LAYERS`], and every
/// `actuary_*` path reference in source must be backed by a declared
/// dependency (dev-dependencies only count in test code).
fn crate_dag(ws: &Workspace, findings: &mut Vec<Finding>) {
    for krate in &ws.crates {
        if config::is_compat(&krate.dir) {
            continue;
        }
        let manifest = manifest_rel(krate);
        if krate.name == config::LINT_CRATE {
            for dep in krate.deps.iter().chain(&krate.dev_deps) {
                if config::layer_of(dep).is_some() || dep.starts_with("actuary-") {
                    findings.push(Finding {
                        check: "crate-dag",
                        file: manifest.clone(),
                        line: 1,
                        message: format!(
                            "`{}` must stay dependency-free (it enforces the DAG it \
                             cannot be part of), but declares `{dep}`",
                            krate.name
                        ),
                    });
                }
            }
            continue;
        }
        let Some(layer) = config::layer_of(&krate.name) else {
            findings.push(Finding {
                check: "crate-dag",
                file: manifest.clone(),
                line: 1,
                message: format!(
                    "crate `{}` is not in the layering table — add it to \
                     LAYERS in actuary-lint/src/config.rs at its layer",
                    krate.name
                ),
            });
            continue;
        };
        for dep in &krate.deps {
            if let Some(dep_layer) = config::layer_of(dep) {
                if dep_layer >= layer {
                    findings.push(Finding {
                        check: "crate-dag",
                        file: manifest.clone(),
                        line: 1,
                        message: format!(
                            "`{}` (layer {layer}) must not depend on `{dep}` \
                             (layer {dep_layer}): dependencies point strictly \
                             downward in units → yield/tech → model → arch → \
                             mc/dse → scenario/report → figures → cli",
                            krate.name
                        ),
                    });
                }
            }
        }
        // Source references: every `actuary_*` (or `chiplet_actuary`)
        // ident must be backed by a declaration.
        for file in &krate.files {
            for tok in &file.lexed.tokens {
                if tok.kind != TokenKind::Ident {
                    continue;
                }
                if !(tok.text.starts_with("actuary_") || tok.text == "chiplet_actuary") {
                    continue;
                }
                let referenced = tok.text.replace('_', "-");
                if referenced == krate.name {
                    continue; // integration tests referring to their own crate
                }
                let declared = if is_production(file, tok) {
                    krate.declares(&referenced)
                } else {
                    krate.declares(&referenced) || krate.declares_dev(&referenced)
                };
                if !declared {
                    findings.push(Finding {
                        check: "crate-dag",
                        file: file.rel.clone(),
                        line: tok.line,
                        message: format!(
                            "`{}` references `{referenced}` without declaring it in {}",
                            krate.name, manifest
                        ),
                    });
                }
            }
        }
    }
}

fn manifest_rel(krate: &CrateInfo) -> String {
    if krate.dir.is_empty() {
        "Cargo.toml".to_string()
    } else {
        format!("{}/Cargo.toml", krate.dir)
    }
}

// ---------------------------------------------------------------------
// no-panic
// ---------------------------------------------------------------------

/// Bans `.unwrap()`, `.expect(…)`, `panic!`, `todo!` and
/// `unimplemented!` outside test code in the configured panic-free
/// paths (the serving path and the scenario parser).
fn no_panic(ws: &Workspace, findings: &mut Vec<Finding>) {
    for krate in &ws.crates {
        for file in &krate.files {
            if !config::PANIC_FREE_PATHS
                .iter()
                .any(|p| config::path_matches(&file.rel, p))
            {
                continue;
            }
            let toks = &file.lexed.tokens;
            for (i, tok) in toks.iter().enumerate() {
                if tok.kind != TokenKind::Ident || !is_production(file, tok) {
                    continue;
                }
                let prev = i.checked_sub(1).map(|j| &toks[j]);
                let next = toks.get(i + 1);
                let called = matches!(next, Some(n) if n.kind == TokenKind::Op && n.text == "(");
                let method = matches!(prev, Some(p) if p.kind == TokenKind::Op && p.text == ".");
                let bang = matches!(next, Some(n) if n.kind == TokenKind::Op && n.text == "!");
                let hit = match tok.text.as_str() {
                    "unwrap" | "expect" => method && called,
                    "panic" | "todo" | "unimplemented" => bang,
                    _ => false,
                };
                if hit {
                    findings.push(Finding {
                        check: "no-panic",
                        file: file.rel.clone(),
                        line: tok.line,
                        message: format!(
                            "`{}` in a panic-free path — return an error instead \
                             (the serve-path catch_unwind backstop is not a license)",
                            tok.text
                        ),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// single-serializer
// ---------------------------------------------------------------------

/// Outside the serializer crates, bans defining `to_csv`/`write_csv`
/// functions and the telltale shapes of hand-rolled CSV row building
/// (format strings containing `},{`, `.join(",")`). Everything tabular
/// goes through `actuary_report::Artifact`.
fn single_serializer(ws: &Workspace, findings: &mut Vec<Finding>) {
    for krate in &ws.crates {
        if config::is_compat(&krate.dir)
            || config::SERIALIZER_CRATES.contains(&krate.name.as_str())
            || krate.name == config::LINT_CRATE
        {
            // The lint's own sources describe the banned patterns in
            // message strings; it emits no CSV.
            continue;
        }
        for file in &krate.files {
            let toks = &file.lexed.tokens;
            for (i, tok) in toks.iter().enumerate() {
                if !is_production(file, tok) {
                    continue;
                }
                match tok.kind {
                    TokenKind::Ident if tok.text == "fn" => {
                        if let Some(name) = toks.get(i + 1) {
                            let n = name.text.as_str();
                            let csv_def = n == "to_csv"
                                || n.starts_with("to_csv_")
                                || n.ends_with("_to_csv")
                                || n == "write_csv"
                                || (n.starts_with("write_") && n.ends_with("_csv"));
                            if csv_def {
                                findings.push(Finding {
                                    check: "single-serializer",
                                    file: file.rel.clone(),
                                    line: name.line,
                                    message: format!(
                                        "`fn {n}` defines CSV serialization outside \
                                         {:?} — emit an actuary_report::Artifact instead",
                                        config::SERIALIZER_CRATES
                                    ),
                                });
                            }
                        }
                    }
                    TokenKind::Str if tok.text.contains("},{") => {
                        findings.push(Finding {
                            check: "single-serializer",
                            file: file.rel.clone(),
                            line: tok.line,
                            message: "format string builds CSV rows by hand (`},{`) — \
                                      emit an actuary_report::Artifact instead"
                                .to_string(),
                        });
                    }
                    TokenKind::Ident if tok.text == "join" => {
                        let method = i
                            .checked_sub(1)
                            .is_some_and(|j| toks[j].kind == TokenKind::Op && toks[j].text == ".");
                        let comma_arg = matches!(
                            (toks.get(i + 1), toks.get(i + 2)),
                            (Some(paren), Some(arg))
                                if paren.text == "("
                                    && arg.kind == TokenKind::Str
                                    && arg.text == ","
                        );
                        if method && comma_arg {
                            findings.push(Finding {
                                check: "single-serializer",
                                file: file.rel.clone(),
                                line: tok.line,
                                message: "`.join(\",\")` builds CSV rows by hand — emit \
                                          an actuary_report::Artifact instead"
                                    .to_string(),
                            });
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// unit-suffix
// ---------------------------------------------------------------------

/// `pub` `f64` (and `Option<f64>`) struct fields, and scalar float
/// scenario keys, must end in an allowlisted unit suffix — a bare
/// `cost: f64` is exactly how the unit bugs PR 2 fixed slip in. A
/// scenario key is read as `.opt::<T>("key")` / `.req::<T>("key")` with
/// `T` often inferred, so a key without a suffix must name its type, and
/// that type must not be `f64`.
fn unit_suffix(ws: &Workspace, findings: &mut Vec<Finding>) {
    for krate in &ws.crates {
        if config::is_compat(&krate.dir) || krate.name == config::LINT_CRATE {
            continue;
        }
        for file in &krate.files {
            let toks = &file.lexed.tokens;
            for (i, tok) in toks.iter().enumerate() {
                if tok.kind != TokenKind::Ident || !is_production(file, tok) {
                    continue;
                }
                if tok.text == "pub" {
                    if let Some((name, name_line)) = pub_f64_field(toks, i) {
                        if !has_unit_suffix(name) {
                            findings.push(Finding {
                                check: "unit-suffix",
                                file: file.rel.clone(),
                                line: name_line,
                                message: format!(
                                    "pub f64 field `{name}` has no unit suffix \
                                     (allowed: {})",
                                    config::UNIT_SUFFIXES.join(", ")
                                ),
                            });
                        }
                    }
                }
                // Scenario keys: `.opt::<T>("key")` / `.req::<T>("key")`.
                let method = tok.text == "opt" || tok.text == "req";
                if method && krate.name == "actuary-scenario" && i > 0 && toks[i - 1].text == "." {
                    let Some((key, ty)) = scenario_key_read(toks, i) else {
                        continue;
                    };
                    let problem = match ty {
                        _ if has_unit_suffix(&key.text) => continue,
                        KeyType::Other => continue,
                        KeyType::Float => "has no unit suffix".to_string(),
                        KeyType::Inferred => format!(
                            "has no unit suffix and its read names no type (write `{}::<T>` \
                             so a float key cannot pass unchecked)",
                            tok.text
                        ),
                    };
                    findings.push(Finding {
                        check: "unit-suffix",
                        file: file.rel.clone(),
                        line: key.line,
                        message: format!(
                            "scenario {}key `{}` {problem} (allowed: {})",
                            if matches!(ty, KeyType::Float) {
                                "float "
                            } else {
                                ""
                            },
                            key.text,
                            config::UNIT_SUFFIXES.join(", ")
                        ),
                    });
                }
            }
        }
    }
}

/// The type a scenario key read names with its turbofish.
enum KeyType {
    /// No turbofish: the compiler infers the type.
    Inferred,
    /// `::<f64>`.
    Float,
    /// Any other named type.
    Other,
}

/// If the tokens after `i` (the ident of a `.opt` / `.req` call) read a
/// literal scenario key, `opt("key")` or `opt::<T>("key")`, returns the
/// key token and the type the read names.
fn scenario_key_read(toks: &[Token], i: usize) -> Option<(&Token, KeyType)> {
    let mut j = i + 1;
    let mut ty = KeyType::Inferred;
    if toks.get(j)?.text == "::" && toks.get(j + 1)?.text == "<" {
        let close = (j + 2..toks.len()).find(|&k| toks[k].text == ">")?;
        ty = if close == j + 3 && toks[j + 2].text == "f64" {
            KeyType::Float
        } else {
            KeyType::Other
        };
        j = close + 1;
    }
    match (toks.get(j), toks.get(j + 1)) {
        (Some(paren), Some(key)) if paren.text == "(" && key.kind == TokenKind::Str => {
            Some((key, ty))
        }
        _ => None,
    }
}

/// If the tokens at `i` (an ident `pub`) start a `pub [vis] name:
/// f64`-or-`Option<f64>` struct field, returns the field name and line.
fn pub_f64_field(toks: &[Token], i: usize) -> Option<(&str, u32)> {
    let mut j = i + 1;
    // Skip a visibility qualifier `(crate)` / `(super)` / `(in path)`.
    if toks.get(j).is_some_and(|t| t.text == "(") {
        let mut depth = 0;
        while let Some(t) = toks.get(j) {
            if t.text == "(" {
                depth += 1;
            }
            if t.text == ")" {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    let name = toks.get(j)?;
    if name.kind != TokenKind::Ident {
        return None;
    }
    if toks.get(j + 1).is_none_or(|t| t.text != ":") {
        return None;
    }
    let ty = toks.get(j + 2)?;
    let end = if ty.kind == TokenKind::Ident && ty.text == "f64" {
        j + 3
    } else if ty.kind == TokenKind::Ident
        && ty.text == "Option"
        && toks.get(j + 3).is_some_and(|t| t.text == "<")
        && toks.get(j + 4).is_some_and(|t| t.text == "f64")
        && toks.get(j + 5).is_some_and(|t| t.text == ">")
    {
        j + 6
    } else {
        return None;
    };
    // A struct field ends with `,` or `}` — `pub fn f() -> f64 {` and
    // signatures never match this shape.
    if !toks
        .get(end)
        .is_some_and(|t| t.text == "," || t.text == "}")
    {
        return None;
    }
    Some((name.text.as_str(), name.line))
}

fn has_unit_suffix(name: &str) -> bool {
    config::UNIT_SUFFIXES.iter().any(|s| name.ends_with(s))
}

// ---------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------

/// Determinism has two scopes. Wall-clock time sources (`SystemTime`,
/// `Instant`) are banned in *every* non-compat crate except
/// [`config::CLOCK_CRATE`] (the observability layer owns the clock seam)
/// and [`config::CLOCK_EXEMPT_CRATES`] (the bench harness times from
/// outside). Iteration-order-unstable collections (`HashMap`,
/// `HashSet`) and float `==`/`!=` against a literal outside the
/// approved unit-type modules stay scoped to result-producing crates.
/// Byte-identical grids across thread counts is a pinned guarantee;
/// these are the ways it breaks.
fn determinism(ws: &Workspace, findings: &mut Vec<Finding>) {
    for krate in &ws.crates {
        if config::is_compat(&krate.dir) {
            continue;
        }
        let result_crate = config::RESULT_CRATES.contains(&krate.name.as_str());
        let clock_banned = krate.name != config::CLOCK_CRATE
            && !config::CLOCK_EXEMPT_CRATES.contains(&krate.name.as_str());
        if !result_crate && !clock_banned {
            continue;
        }
        for file in &krate.files {
            let float_eq_approved = config::FLOAT_EQ_APPROVED
                .iter()
                .any(|p| config::path_matches(&file.rel, p));
            let toks = &file.lexed.tokens;
            for (i, tok) in toks.iter().enumerate() {
                if !is_production(file, tok) {
                    continue;
                }
                if tok.kind == TokenKind::Ident {
                    let banned = match tok.text.as_str() {
                        "SystemTime" | "Instant" if clock_banned => Some(
                            "wall-clock time outside the observability layer — go \
                             through actuary_obs::clock (Tick/Stopwatch) instead",
                        ),
                        "HashMap" | "HashSet" if result_crate => Some(
                            "iteration order is nondeterministic in a result-producing \
                             crate — use BTreeMap/BTreeSet or a Vec",
                        ),
                        _ => None,
                    };
                    if let Some(why) = banned {
                        findings.push(Finding {
                            check: "determinism",
                            file: file.rel.clone(),
                            line: tok.line,
                            message: format!("`{}`: {why}", tok.text),
                        });
                    }
                }
                if result_crate
                    && tok.kind == TokenKind::Op
                    && (tok.text == "==" || tok.text == "!=")
                    && !float_eq_approved
                {
                    let float_operand = i.checked_sub(1).is_some_and(|j| toks[j].is_float())
                        || toks.get(i + 1).is_some_and(|t| t.is_float());
                    if float_operand {
                        findings.push(Finding {
                            check: "determinism",
                            file: file.rel.clone(),
                            line: tok.line,
                            message: format!(
                                "float `{}` against a literal — compare with a \
                                 tolerance, or move the exact semantics into \
                                 actuary-units",
                                tok.text
                            ),
                        });
                    }
                }
            }
        }
    }
}
