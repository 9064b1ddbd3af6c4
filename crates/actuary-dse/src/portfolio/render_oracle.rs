//! The grid, winner and Pareto writers as they were before they borrowed
//! their cells, kept as the oracle of the writers in `portfolio.rs`: twelve
//! owned `String`s per grid row from a materialized [`PortfolioCell`], a
//! column projection that clones the kept cells, a
//! per-field CSV escape and a per-character JSON string writer. A seeded
//! proptest renders random spaces both ways, CSV and JSON lines, whole and
//! projected to the single-system columns, and requires the same bytes.

use std::fmt::Write as _;

use actuary_model::AssemblyFlow;
use actuary_tech::{IntegrationKind, ProcessNode, TechLibrary};
use proptest::prelude::*;

use super::*;
use crate::explore::SINGLE_SYSTEM_DROPPED;
use crate::refine::{explore_portfolio_refined_observed, RefineObserver};

/// An owned table rendered the old way.
#[derive(Clone)]
struct OldTable {
    name: &'static str,
    kind: &'static str,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl OldTable {
    fn new(name: &'static str, columns: &[&str], rows: Vec<Vec<String>>) -> Self {
        OldTable {
            name,
            kind: name,
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows,
        }
    }

    /// The projection that cloned every kept cell of every row.
    fn without_columns(&self, dropped: &[&str]) -> Self {
        let keep: Vec<bool> = (self.columns.iter())
            .map(|c| !dropped.contains(&c.as_str()))
            .collect();
        let project = |row: &Vec<String>| -> Vec<String> {
            row.iter()
                .zip(&keep)
                .filter(|(_, &k)| k)
                .map(|(cell, _)| cell.clone())
                .collect()
        };
        OldTable {
            columns: project(&self.columns),
            rows: self.rows.iter().map(project).collect(),
            ..*self
        }
    }

    fn csv(&self) -> String {
        let mut out = String::new();
        for record in std::iter::once(&self.columns).chain(&self.rows) {
            for (i, field) in record.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&csv_escape(field));
            }
            out.push('\n');
        }
        out
    }

    fn jsonl(&self) -> String {
        let mut out = String::from("{\"artifact\":");
        json_string(&mut out, self.name);
        out.push_str(",\"kind\":");
        json_string(&mut out, self.kind);
        out.push_str(",\"columns\":[");
        for (i, column) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(&mut out, column);
        }
        out.push_str("]}\n");
        for row in &self.rows {
            out.push('{');
            for (i, (column, cell)) in self.columns.iter().zip(row).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json_string(&mut out, column);
                out.push(':');
                if json_number(cell) {
                    out.push_str(cell);
                } else {
                    json_string(&mut out, cell);
                }
            }
            out.push_str("}\n");
        }
        out
    }
}

/// The per-field escape: a new `String` for every field.
fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// The per-character JSON string writer.
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// RFC 8259's number grammar, `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
fn json_number(s: &str) -> bool {
    let digits = |s: &str| s.len() - s.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    let s = s.strip_prefix('-').unwrap_or(s);
    let int = digits(s);
    if int == 0 || (int > 1 && s.starts_with('0')) {
        return false;
    }
    let mut rest = &s[int..];
    if let Some(fraction) = rest.strip_prefix('.') {
        let n = digits(fraction);
        if n == 0 {
            return false;
        }
        rest = &fraction[n..];
    }
    if let Some(exponent) = rest.strip_prefix(['e', 'E']) {
        let exponent = exponent.strip_prefix(['+', '-']).unwrap_or(exponent);
        let n = digits(exponent);
        if n == 0 {
            return false;
        }
        rest = &exponent[n..];
    }
    rest.is_empty()
}

/// The old one-row encoding of a materialized cell.
fn grid_row(cell: &PortfolioCell) -> Vec<String> {
    let (per_unit, re_per_unit) = match cell.outcome.candidate() {
        Some(c) => (
            format!("{:.6}", c.per_unit.usd()),
            format!("{:.6}", c.re_per_unit.usd()),
        ),
        None => (String::new(), String::new()),
    };
    vec![
        cell.node.clone(),
        format!("{}", cell.area_mm2),
        cell.quantity.to_string(),
        cell.integration.to_string(),
        cell.chiplets.to_string(),
        cell.flow.to_string(),
        cell.scheme.to_string(),
        cell.scheme_params.clone(),
        cell.outcome.status().to_string(),
        per_unit,
        re_per_unit,
        cell.outcome.detail(),
    ]
}

fn grid(rows: impl Iterator<Item = PortfolioCell>) -> OldTable {
    let rows = rows.map(|cell| grid_row(&cell)).collect();
    OldTable::new("grid", &PortfolioResult::GRID_COLUMNS, rows)
}

/// The old `grid_artifact`, `grid_stored_artifact` and
/// `grid_unstored_artifact`.
fn grid_parts(result: &PortfolioResult) -> [OldTable; 3] {
    let shape = result.shape();
    let all = grid(result.iter_cells());
    let stored = grid(
        (result.stored.iter())
            .map(|(i, outcome)| result.cell_at(shape.coords(*i), outcome.clone())),
    );
    let unstored = grid((0..result.len).filter_map(|i| {
        let stored = result.stored.binary_search_by_key(&i, |(s, _)| *s);
        stored
            .is_err()
            .then(|| result.cell_at(shape.coords(i), result.unstored_outcome(shape.coords(i))))
    }));
    [all, stored, unstored]
}

fn winners(result: &PortfolioResult) -> OldTable {
    let rows = (result.all_winners().into_iter())
        .map(|w| {
            let (integration, chiplets, flow, per_unit) = match &w.best {
                Some((c, flow)) => (
                    c.integration.to_string(),
                    c.chiplets.to_string(),
                    flow.to_string(),
                    format!("{:.6}", c.per_unit.usd()),
                ),
                None => (String::new(), String::new(), String::new(), String::new()),
            };
            vec![
                w.scheme.to_string(),
                w.node.clone(),
                format!("{}", w.area_mm2),
                w.quantity.to_string(),
                integration,
                chiplets,
                flow,
                per_unit,
                w.saving_vs_soc_frac
                    .map(|s| format!("{s:.6}"))
                    .unwrap_or_default(),
            ]
        })
        .collect();
    OldTable::new(
        "winners",
        &[
            "scheme",
            "node",
            "area_mm2",
            "quantity",
            "integration",
            "chiplets",
            "flow",
            "per_unit_usd",
            "saving_vs_soc",
        ],
        rows,
    )
}

/// The old `pareto_artifact` (`program = false`) or
/// `pareto_program_artifact`.
fn fronts(result: &PortfolioResult, program: bool) -> OldTable {
    let mut rows = Vec::new();
    for &scheme in &result.space.schemes {
        let front = if program {
            result.pareto_program(scheme)
        } else {
            result.pareto_front(scheme)
        };
        for cell in front {
            let c = cell.outcome.candidate().expect("Pareto cells are feasible");
            let mut row = vec![
                cell.scheme.to_string(),
                cell.scheme_params.clone(),
                cell.node.clone(),
                format!("{}", cell.area_mm2),
                cell.quantity.to_string(),
                cell.integration.to_string(),
                cell.chiplets.to_string(),
                cell.flow.to_string(),
            ];
            if program {
                row.push(format!("{:.2}", c.per_unit.usd() * cell.quantity as f64));
            }
            row.push(format!("{:.6}", c.per_unit.usd()));
            rows.push(row);
        }
    }
    let mut columns = vec![
        "scheme",
        "scheme_params",
        "node",
        "area_mm2",
        "quantity",
        "integration",
        "chiplets",
        "flow",
    ];
    if program {
        columns.push("program_total_usd");
    }
    columns.push("per_unit_usd");
    let name = if program { "pareto_program" } else { "pareto" };
    OldTable::new(name, &columns, rows)
}

/// Requires `artifact` to render `old`'s bytes in both encodings, whole
/// and projected to the single-system columns.
fn assert_renders_as<'r>(
    artifact: impl Fn() -> Artifact<'r>,
    old: &OldTable,
    context: &str,
) -> Result<(), TestCaseError> {
    for dropped in [&[][..], &SINGLE_SYSTEM_DROPPED[..]] {
        let new = || artifact().without_columns(dropped);
        let old = old.without_columns(dropped);
        let context = format!("{context} without {dropped:?}");
        prop_assert!(new().name() == old.name, "{context}: name");
        prop_assert!(new().kind() == old.kind, "{context}: kind");
        let (csv, old_csv) = (new().csv(), old.csv());
        prop_assert!(
            csv == old_csv,
            "{context}: CSV {}",
            first_difference(&csv, &old_csv)
        );
        let (jsonl, old_jsonl) = (new().jsonl(), old.jsonl());
        prop_assert!(
            jsonl == old_jsonl,
            "{context}: JSON lines {}",
            first_difference(&jsonl, &old_jsonl)
        );
    }
    Ok(())
}

/// The first line where `new` and `old` differ.
fn first_difference(new: &str, old: &str) -> String {
    let mut pairs = new.split('\n').zip(old.split('\n')).enumerate();
    match pairs.find(|(_, (a, b))| a != b) {
        Some((line, (a, b))) => format!("line {}: {a:?} but was {b:?}", line + 1),
        None => "differs in length".to_string(),
    }
}

/// Every artifact of `result` against its old rendering.
fn assert_result_renders_as_before(
    result: &PortfolioResult,
    context: &str,
) -> Result<(), TestCaseError> {
    let [all, stored, unstored] = grid_parts(result);
    assert_renders_as(|| result.grid_artifact(), &all, &format!("{context} grid"))?;
    assert_renders_as(
        || result.grid_stored_artifact(),
        &stored,
        &format!("{context} stored grid"),
    )?;
    assert_renders_as(
        || result.grid_unstored_artifact(),
        &unstored,
        &format!("{context} unstored grid"),
    )?;
    assert_renders_as(
        || result.winners_artifact(),
        &winners(result),
        &format!("{context} winners"),
    )?;
    assert_renders_as(
        || result.pareto_artifact(),
        &fronts(result, false),
        &format!("{context} pareto"),
    )?;
    assert_renders_as(
        || result.pareto_program_artifact(),
        &fronts(result, true),
        &format!("{context} pareto_program"),
    )
}

/// The paper library plus a copy of 14 nm under `id`.
fn library_with(id: &str) -> TechLibrary {
    let mut lib = TechLibrary::paper_defaults().unwrap();
    let base = lib.node("14nm").unwrap().clone();
    let nre = base.nre();
    let node = ProcessNode::builder(id)
        .defect_density(base.defect_density().value())
        .cluster(base.cluster())
        .wafer_price(base.wafer_price())
        .wafer(base.wafer())
        .k_module(nre.k_module)
        .k_chip(nre.k_chip)
        .mask_set(nre.mask_set)
        .ip_license(nre.ip_license)
        .relative_density(base.relative_density())
        .d2d(*base.d2d())
        .build()
        .unwrap();
    lib.insert_node(node);
    lib
}

/// The characters a random node id is drawn from: CSV and JSON
/// specials, control bytes, non-ASCII text and number-like characters.
const ID_CHARS: [char; 16] = [
    ',', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '²', '中', '0', '7', '-', '.', 'n',
];

/// The elements of `axis` whose bit is set in `mask` (the first one when
/// none is).
fn subset<T: Clone>(axis: &[T], mask: usize) -> Vec<T> {
    let picked: Vec<T> = (axis.iter().enumerate())
        .filter(|(i, _)| mask >> i & 1 == 1)
        .map(|(_, v)| v.clone())
        .collect();
    if picked.is_empty() {
        vec![axis[0].clone()]
    } else {
        picked
    }
}

/// Builds the space the proptest drew and requires every artifact of its
/// run, and of each refinement wave, to render as before.
fn check_drawn_space(
    refine: bool,
    (count, first, step): (usize, u32, u32),
    (quantity_mask, integration_mask, chiplet_mask, flow_mask): (usize, usize, usize, usize),
    (fsmc_mask, hetero_centre, both_nodes, package_reuse): (usize, bool, bool, bool),
    id: &[usize],
) -> Result<(), TestCaseError> {
    // Every id holds a comma, a quote and a non-ASCII character.
    let mut node: Vec<char> = id.iter().map(|&c| ID_CHARS[c]).collect();
    node.splice(node.len() / 2..node.len() / 2, [',', '"', 'ü']);
    let node: String = node.into_iter().collect();
    let lib = library_with(&node);
    let mut areas_mm2: Vec<f64> = (0..count as u32)
        .map(|i| f64::from(first + i * step))
        .collect();
    // Past the die limit: every configuration of it is infeasible.
    areas_mm2.push(12_000.0);
    let space = PortfolioSpace {
        nodes: if both_nodes {
            vec!["7nm".to_string(), node.clone()]
        } else {
            vec![node.clone()]
        },
        areas_mm2,
        quantities: subset(&[200_000, 1_000_000, 5_000_000, 20_000_000], quantity_mask),
        integrations: subset(&IntegrationKind::ALL, integration_mask),
        chiplet_counts: subset(&[1, 2, 3, 4, 5], chiplet_mask),
        flows: subset(
            &[AssemblyFlow::ChipLast, AssemblyFlow::ChipFirst],
            flow_mask,
        ),
        schemes: ReuseScheme::ALL.to_vec(),
        scms_multiplicities: vec![1, 2, 4],
        fsmc_situations: subset(&[(2, 2), (2, 3), (4, 4)], fsmc_mask),
        ocme_center_nodes: if hetero_centre {
            vec![None, Some(node)]
        } else {
            vec![None]
        },
        package_reuse,
    };
    let context = format!("refine={refine} on {space:?}");
    let result = if refine {
        // Each streamed wave renders the cells it priced.
        let mut waves = Vec::new();
        let mut observer = |wave: &PortfolioResult| {
            waves.push(wave.clone());
            true
        };
        let observer: &mut RefineObserver<'_> = &mut observer;
        let result =
            explore_portfolio_refined_observed(&lib, &space, 1, None, Some(observer)).unwrap();
        for (w, wave) in waves.iter().enumerate() {
            let [_, stored, _] = grid_parts(wave);
            assert_renders_as(
                || wave.grid_stored_artifact(),
                &stored,
                &format!("{context} wave {w}"),
            )?;
        }
        result
    } else {
        explore_portfolio(&lib, &space, 1).unwrap()
    };
    assert_result_renders_as_before(&result, &context)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The borrowed-cell writers render every artifact of random spaces,
    /// exhaustive and refined, byte for byte as the owned-row writers did.
    #[test]
    fn borrowed_writers_render_the_old_bytes(
        refine in proptest::bool::ANY,
        areas in (3usize..9, 40u32..200, 30u32..130),
        axes in (1usize..16, 1usize..16, 1usize..32, 1usize..4),
        variants in (
            1usize..8,
            proptest::bool::ANY,
            proptest::bool::ANY,
            proptest::bool::ANY,
        ),
        id in proptest::collection::vec(0usize..ID_CHARS.len(), 0..6),
    ) {
        check_drawn_space(refine, areas, axes, variants, &id)?;
    }
}

#[test]
fn random_spaces_reach_every_row_status_and_escape() {
    // The proptest's draws cover what it is for: a refined space like its
    // larger draws prunes cells, its 12,000 mm² area is infeasible with a
    // reason holding `²`, and its families' incompatible reasons hold
    // commas and parentheses.
    let lib = library_with("n,\"ü");
    let space = PortfolioSpace {
        nodes: vec!["n,\"ü".to_string()],
        areas_mm2: vec![
            50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0, 12_000.0,
        ],
        quantities: vec![200_000, 20_000_000],
        integrations: IntegrationKind::ALL.to_vec(),
        chiplet_counts: vec![1, 2, 3, 4, 5],
        schemes: ReuseScheme::ALL.to_vec(),
        fsmc_situations: vec![(2, 3)],
        ocme_center_nodes: vec![None, Some("n,\"ü".to_string())],
        ..PortfolioSpace::default()
    };
    let result = explore_portfolio_refined_observed(&lib, &space, 1, None, None).unwrap();
    assert!(result.pruned_count() > 0, "the refined space prunes cells");
    let csv = result.grid_artifact().csv();
    for needle in [
        ",feasible,",
        ",infeasible,",
        ",incompatible,",
        ",pruned,",
        "mm²",
        "\"OCME family (C, C+1X, C+1X+1Y, C+2X+2Y) has no 4-chip member\"",
        "\"center=n,\"\"ü\"",
        "\"n,\"\"ü\",",
    ] {
        assert!(csv.contains(needle), "the grid lacks {needle:?}");
    }
    assert_result_renders_as_before(&result, "fixed refined space").unwrap();
}
