//! Lowering `[nodes]` / `[packaging]` tables into a [`TechLibrary`], and
//! the inverse: serializing a library back to scenario form.
//!
//! # `extends` overlay semantics
//!
//! `extends = "preset"` (the default) starts from
//! [`TechLibrary::paper_defaults`]; `extends = "none"` starts empty. A
//! `[nodes.<id>]` table whose id exists in the base library *overlays* it:
//! only the keys present are replaced, everything else keeps the base
//! calibration — so a scenario can override one wafer price without
//! restating the paper's presets. A new id must provide the full required
//! set (`defect_density`, `wafer_price_usd`, `k_module_usd`, `k_chip_usd`,
//! and a mask-set price). `[packaging.<kind>]` overlays the same way.

use actuary_tech::{
    D2dSpec, IntegrationKind, InterposerSpec, PackagingTech, ProcessNode, TechLibrary,
};
use actuary_units::{Money, Prob};
use actuary_yield::{DefectDensity, WaferSpec};

use crate::error::ScenarioError;
use crate::schema::{Spanned, View};
use crate::toml::Pos;

/// Converts a spanned dollar amount into [`Money`].
fn money(v: Spanned<f64>) -> Result<Money, ScenarioError> {
    Money::from_usd(v.value).map_err(|e| ScenarioError::schema(v.pos, e.to_string()))
}

/// Converts a spanned probability into [`Prob`].
fn prob(v: Spanned<f64>) -> Result<Prob, ScenarioError> {
    Prob::new(v.value).map_err(|e| ScenarioError::schema(v.pos, e.to_string()))
}

/// Reads a money amount given either as dollars (`<base>_usd`) or millions
/// (`<base>_musd`); presence of both is rejected.
fn opt_money_usd_or_musd(
    view: &mut View<'_>,
    usd_key: &'static str,
    musd_key: &'static str,
) -> Result<Option<Money>, ScenarioError> {
    let usd = view.opt_f64(usd_key)?;
    let musd = view.opt_f64(musd_key)?;
    match (usd, musd) {
        (Some(_), Some(m)) => Err(ScenarioError::schema(
            m.pos,
            format!(
                "give `{usd_key}` or `{musd_key}` in {}, not both",
                view.context()
            ),
        )),
        (Some(u), None) => Ok(Some(money(u)?)),
        (None, Some(m)) => {
            Ok(Some(Money::from_musd(m.value).map_err(|e| {
                ScenarioError::schema(m.pos, e.to_string())
            })?))
        }
        (None, None) => Ok(None),
    }
}

/// Reads an optional `[.. .wafer]` sub-table, overlaying `base`.
fn opt_wafer(view: &mut View<'_>, base: WaferSpec) -> Result<WaferSpec, ScenarioError> {
    let Some(mut wafer) = view.opt_table("wafer")? else {
        return Ok(base);
    };
    let pos = wafer.pos();
    let diameter = wafer
        .opt_f64("diameter_mm")?
        .map_or(base.diameter_mm(), |s| s.value);
    let edge = wafer
        .opt_f64("edge_exclusion_mm")?
        .map_or(base.edge_exclusion_mm(), |s| s.value);
    let scribe = wafer
        .opt_f64("scribe_lane_mm")?
        .map_or(base.scribe_lane_mm(), |s| s.value);
    wafer.deny_unknown()?;
    WaferSpec::new(diameter, edge, scribe).map_err(|e| ScenarioError::schema(pos, e.to_string()))
}

/// Lowers one `[nodes.<id>]` table, overlaying `base` when present.
fn lower_node(
    id: &str,
    mut view: View<'_>,
    base: Option<&ProcessNode>,
) -> Result<ProcessNode, ScenarioError> {
    let table_pos = view.pos();
    let defect = view.opt_f64("defect_density")?;
    // lint:allow(unit-suffix): `cluster` is the paper's dimensionless α; the key is scenario-file API
    let cluster = view.opt_f64("cluster")?;
    let wafer_price = view.opt_f64("wafer_price_usd")?.map(money).transpose()?;
    let k_module = view.opt_f64("k_module_usd")?.map(money).transpose()?;
    let k_chip = view.opt_f64("k_chip_usd")?.map(money).transpose()?;
    let mask_set = opt_money_usd_or_musd(&mut view, "mask_set_usd", "mask_set_musd")?;
    let ip_license = opt_money_usd_or_musd(&mut view, "ip_license_usd", "ip_license_musd")?;
    let relative_density = view.opt_f64("relative_density")?;
    let d2d = match view.opt_table("d2d")? {
        None => None,
        Some(mut d2d_view) => {
            let pos = d2d_view.pos();
            let fraction = d2d_view.opt_f64("area_fraction")?;
            let nre = opt_money_usd_or_musd(&mut d2d_view, "nre_usd", "nre_musd")?;
            d2d_view.deny_unknown()?;
            let base_d2d = base.map(|n| *n.d2d()).unwrap_or_default();
            Some(
                D2dSpec::new(
                    fraction.map_or(base_d2d.area_fraction(), |s| s.value),
                    nre.unwrap_or(base_d2d.nre_cost()),
                )
                .map_err(|e| ScenarioError::schema(pos, e.to_string()))?,
            )
        }
    };
    let default_wafer = match base.map(|n| n.wafer()) {
        Some(w) => w,
        None => WaferSpec::mm300().map_err(|e| ScenarioError::schema(table_pos, e.to_string()))?,
    };
    let wafer = opt_wafer(&mut view, default_wafer)?;
    view.deny_unknown()?;

    // An overlay starts from every parameter of its base node; a new node
    // must name each parameter the builder has no default for.
    let mut builder = match base {
        Some(node) => node.to_builder(),
        None => {
            let required = [
                (defect.is_some(), "defect_density"),
                (wafer_price.is_some(), "wafer_price_usd"),
                (k_module.is_some(), "k_module_usd"),
                (k_chip.is_some(), "k_chip_usd"),
                (mask_set.is_some(), "mask_set_usd (or mask_set_musd)"),
            ];
            if let Some((_, key)) = required.iter().find(|(present, _)| !present) {
                return Err(ScenarioError::schema(
                    table_pos,
                    format!("new node `{id}` requires key `{key}` in [nodes.{id}]"),
                ));
            }
            ProcessNode::builder(id)
        }
    }
    .wafer(wafer);
    if let Some(d) = defect {
        builder = builder.defect_density(d.value);
    }
    if let Some(c) = cluster {
        builder = builder.cluster(c.value);
    }
    if let Some(price) = wafer_price {
        builder = builder.wafer_price(price);
    }
    if let Some(k) = k_module {
        builder = builder.k_module(k);
    }
    if let Some(k) = k_chip {
        builder = builder.k_chip(k);
    }
    if let Some(cost) = mask_set {
        builder = builder.mask_set(cost);
    }
    if let Some(cost) = ip_license {
        builder = builder.ip_license(cost);
    }
    if let Some(density) = relative_density {
        builder = builder.relative_density(density.value);
    }
    if let Some(d2d) = d2d {
        builder = builder.d2d(d2d);
    }
    builder
        .build()
        .map_err(|e| ScenarioError::schema(table_pos, e.to_string()))
}

/// Parses a packaging kind key (`soc`, `mcm`, `info`, `2.5d`). The
/// grammar is owned by actuary-tech's `FromStr`, shared with the CLI.
pub(crate) fn parse_kind(s: &str, pos: Pos) -> Result<IntegrationKind, ScenarioError> {
    s.parse()
        .map_err(|message| ScenarioError::schema(pos, message))
}

/// Lowers one `[packaging.<kind>]` table, overlaying `base` when present.
fn lower_packaging(
    kind: IntegrationKind,
    mut view: View<'_>,
    base: Option<&PackagingTech>,
) -> Result<PackagingTech, ScenarioError> {
    let table_pos = view.pos();
    let substrate = view
        .opt_f64("substrate_cost_per_mm2_usd")?
        .map(money)
        .transpose()?;
    let layer_factor = view.opt_f64("substrate_layer_factor")?;
    let body_factor = view.opt_f64("package_body_factor")?;
    let bond_yield = view.opt_f64("chip_bond_yield")?.map(prob).transpose()?;
    let attach_yield = view
        .opt_f64("substrate_attach_yield")?
        .map(prob)
        .transpose()?;
    let test_yield = view.opt_f64("package_test_yield")?.map(prob).transpose()?;
    let bond_cost = view
        .opt_f64("bond_cost_per_chip_usd")?
        .map(money)
        .transpose()?;
    let assembly = view.opt_f64("assembly_cost_usd")?.map(money).transpose()?;
    let k_package = view
        .opt_f64("k_package_per_mm2_usd")?
        .map(money)
        .transpose()?;
    let fixed_nre =
        opt_money_usd_or_musd(&mut view, "fixed_package_nre_usd", "fixed_package_nre_musd")?;
    let interposer = match view.opt_table("interposer")? {
        None => None,
        Some(mut ip_view) => {
            let pos = ip_view.pos();
            let base_ip = base.and_then(|p| p.interposer());
            let defect = ip_view.opt_f64("defect_density")?;
            // lint:allow(unit-suffix): `cluster` is the paper's dimensionless α; the key is scenario-file API
            let cluster = ip_view.opt_f64("cluster")?;
            let price = ip_view.opt_f64("wafer_price_usd")?.map(money).transpose()?;
            let area_factor = ip_view.opt_f64("area_factor")?;
            let default_wafer = match base_ip.map(|ip| ip.wafer()) {
                Some(w) => w,
                None => {
                    WaferSpec::mm300().map_err(|e| ScenarioError::schema(pos, e.to_string()))?
                }
            };
            let wafer = opt_wafer(&mut ip_view, default_wafer)?;
            ip_view.deny_unknown()?;
            let req = |name: &str, v: Option<f64>, b: Option<f64>| {
                v.or(b).ok_or_else(|| {
                    ScenarioError::schema(
                        pos,
                        format!("interposer of a new [packaging] entry requires key `{name}`"),
                    )
                })
            };
            let defect = DefectDensity::per_cm2(req(
                "defect_density",
                defect.map(|s| s.value),
                base_ip.map(|ip| ip.defect_density().value()),
            )?)
            .map_err(|e| ScenarioError::schema(pos, e.to_string()))?;
            Some(
                InterposerSpec::new(
                    defect,
                    req(
                        "cluster",
                        cluster.map(|s| s.value),
                        base_ip.map(|ip| ip.cluster()),
                    )?,
                    match price.or(base_ip.map(|ip| ip.wafer_price())) {
                        Some(p) => p,
                        None => {
                            return Err(ScenarioError::schema(
                                pos,
                                "interposer of a new [packaging] entry requires key \
                                 `wafer_price_usd`"
                                    .to_string(),
                            ))
                        }
                    },
                    wafer,
                    req(
                        "area_factor",
                        area_factor.map(|s| s.value),
                        base_ip.map(|ip| ip.area_factor()),
                    )?,
                )
                .map_err(|e| ScenarioError::schema(pos, e.to_string()))?,
            )
        }
    };
    view.deny_unknown()?;

    let mut builder = PackagingTech::builder(kind)
        .substrate_cost_per_mm2(
            substrate
                .or(base.map(|p| p.substrate_cost_per_mm2()))
                .unwrap_or(Money::ZERO),
        )
        .substrate_layer_factor(
            layer_factor
                .map(|s| s.value)
                .or(base.map(|p| p.substrate_layer_factor()))
                .unwrap_or(1.0),
        )
        .package_body_factor(
            body_factor
                .map(|s| s.value)
                .or(base.map(|p| p.package_body_factor()))
                .unwrap_or(4.0),
        )
        .chip_bond_yield(
            bond_yield
                .or(base.map(|p| p.chip_bond_yield()))
                .unwrap_or(Prob::ONE),
        )
        .substrate_attach_yield(
            attach_yield
                .or(base.map(|p| p.substrate_attach_yield()))
                .unwrap_or(Prob::ONE),
        )
        .package_test_yield(
            test_yield
                .or(base.map(|p| p.package_test_yield()))
                .unwrap_or(Prob::ONE),
        )
        .bond_cost_per_chip(
            bond_cost
                .or(base.map(|p| p.bond_cost_per_chip()))
                .unwrap_or(Money::ZERO),
        )
        .assembly_cost(
            assembly
                .or(base.map(|p| p.assembly_cost()))
                .unwrap_or(Money::ZERO),
        )
        .k_package_per_mm2(
            k_package
                .or(base.map(|p| p.k_package_per_mm2()))
                .unwrap_or(Money::ZERO),
        )
        .fixed_package_nre(
            fixed_nre
                .or(base.map(|p| p.fixed_package_nre()))
                .unwrap_or(Money::ZERO),
        );
    if let Some(ip) = interposer.or_else(|| base.and_then(|p| p.interposer().copied())) {
        builder = builder.interposer(ip);
    }
    builder
        .build()
        .map_err(|e| ScenarioError::schema(table_pos, e.to_string()))
}

/// Builds the scenario's [`TechLibrary`] from the root view: `extends` plus
/// the `[nodes]` / `[packaging]` overlay tables.
pub(crate) fn lower_library(root: &mut View<'_>) -> Result<TechLibrary, ScenarioError> {
    let mut library = match root.opt_str("extends")? {
        None => TechLibrary::paper_defaults()
            .map_err(|e| ScenarioError::schema(Pos::default(), e.to_string()))?,
        Some(s) => match s.value {
            "preset" | "paper" => TechLibrary::paper_defaults()
                .map_err(|e| ScenarioError::schema(s.pos, e.to_string()))?,
            "none" | "empty" => TechLibrary::new(),
            other => {
                return Err(ScenarioError::schema(
                    s.pos,
                    format!("unknown base library {other:?} (preset|none)"),
                ))
            }
        },
    };
    if let Some(nodes) = root.opt_table("nodes")? {
        // Each entry of [nodes] is one node table; iterate in file order.
        for entry in nodes_entries(&nodes)? {
            let (id, table) = entry;
            let base = library.node(id).ok().cloned();
            let node = lower_node(id, View::new(table, format!("[nodes.{id}]")), base.as_ref())?;
            library.insert_node(node);
        }
    }
    if let Some(packaging) = root.opt_table("packaging")? {
        for (key, key_pos, table) in table_children(&packaging, "[packaging]")? {
            let kind = parse_kind(key, key_pos)?;
            let base = library.packaging(kind).ok().cloned();
            let tech = lower_packaging(
                kind,
                View::new(table, format!("[packaging.{key}]")),
                base.as_ref(),
            )?;
            library.insert_packaging(tech);
        }
    }
    Ok(library)
}

/// The `[nodes]` children as `(id, table)` pairs, rejecting non-table
/// entries.
fn nodes_entries<'a>(
    nodes: &View<'a>,
) -> Result<Vec<(&'a str, &'a crate::toml::Table)>, ScenarioError> {
    let mut out = Vec::new();
    for (key, _pos, table) in table_children(nodes, "[nodes]")? {
        out.push((key, table));
    }
    Ok(out)
}

/// Every child entry of a view as `(key, key position, table)`, erroring on
/// non-table children.
fn table_children<'a>(
    view: &View<'a>,
    context: &str,
) -> Result<Vec<(&'a str, Pos, &'a crate::toml::Table)>, ScenarioError> {
    let mut out = Vec::new();
    for entry in view_table_entries(view) {
        match &entry.value {
            crate::toml::Value::Table(t) => out.push((entry.key.as_str(), entry.key_pos, t)),
            other => {
                return Err(ScenarioError::schema(
                    entry.key_pos,
                    format!(
                        "entry `{}` of {context} must be a table, got {}",
                        entry.key,
                        other.type_name()
                    ),
                ))
            }
        }
    }
    Ok(out)
}

fn view_table_entries<'a>(view: &View<'a>) -> &'a [crate::toml::Entry] {
    view.raw_entries()
}

/// Renders a key for a `[header]` path: bare when possible, quoted (with
/// escapes) otherwise — so ids like `2.5d` or `8.5nm` survive the trip.
fn toml_key(key: &str) -> String {
    let bare = !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_'));
    if bare {
        key.to_string()
    } else {
        toml_string(key)
    }
}

/// Renders a basic string literal with the escapes the parser understands.
fn toml_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04X}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serializes a library to scenario form (`extends = "none"`, every
/// parameter explicit). Parsing the output and lowering it reproduces the
/// library exactly — asserted by the round-trip integration test.
pub fn library_to_scenario(name: &str, lib: &TechLibrary) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "name = {}", toml_string(name));
    let _ = writeln!(out, "extends = \"none\"");
    for node in lib.nodes() {
        let id = toml_key(node.id().as_str());
        let _ = writeln!(out);
        let _ = writeln!(out, "[nodes.{id}]");
        let _ = writeln!(out, "defect_density = {}", node.defect_density().value());
        let _ = writeln!(out, "cluster = {}", node.cluster());
        let _ = writeln!(out, "wafer_price_usd = {}", node.wafer_price().usd());
        let _ = writeln!(out, "k_module_usd = {}", node.nre().k_module.usd());
        let _ = writeln!(out, "k_chip_usd = {}", node.nre().k_chip.usd());
        let _ = writeln!(out, "mask_set_usd = {}", node.nre().mask_set.usd());
        let _ = writeln!(out, "ip_license_usd = {}", node.nre().ip_license.usd());
        let _ = writeln!(out, "relative_density = {}", node.relative_density());
        let _ = writeln!(out, "[nodes.{id}.d2d]");
        let _ = writeln!(out, "area_fraction = {}", node.d2d().area_fraction());
        let _ = writeln!(out, "nre_usd = {}", node.d2d().nre_cost().usd());
        write_wafer(&mut out, &format!("nodes.{id}"), node.wafer());
    }
    for p in lib.packagings() {
        let key = match p.kind() {
            IntegrationKind::Soc => "soc".to_string(),
            IntegrationKind::Mcm => "mcm".to_string(),
            IntegrationKind::Info => "info".to_string(),
            IntegrationKind::TwoPointFiveD => toml_key("2.5d"),
        };
        let _ = writeln!(out);
        let _ = writeln!(out, "[packaging.{key}]");
        let _ = writeln!(
            out,
            "substrate_cost_per_mm2_usd = {}",
            p.substrate_cost_per_mm2().usd()
        );
        let _ = writeln!(
            out,
            "substrate_layer_factor = {}",
            p.substrate_layer_factor()
        );
        let _ = writeln!(out, "package_body_factor = {}", p.package_body_factor());
        let _ = writeln!(out, "chip_bond_yield = {}", p.chip_bond_yield().value());
        let _ = writeln!(
            out,
            "substrate_attach_yield = {}",
            p.substrate_attach_yield().value()
        );
        let _ = writeln!(
            out,
            "package_test_yield = {}",
            p.package_test_yield().value()
        );
        let _ = writeln!(
            out,
            "bond_cost_per_chip_usd = {}",
            p.bond_cost_per_chip().usd()
        );
        let _ = writeln!(out, "assembly_cost_usd = {}", p.assembly_cost().usd());
        let _ = writeln!(
            out,
            "k_package_per_mm2_usd = {}",
            p.k_package_per_mm2().usd()
        );
        let _ = writeln!(
            out,
            "fixed_package_nre_usd = {}",
            p.fixed_package_nre().usd()
        );
        if let Some(ip) = p.interposer() {
            let _ = writeln!(out, "[packaging.{key}.interposer]");
            let _ = writeln!(out, "defect_density = {}", ip.defect_density().value());
            let _ = writeln!(out, "cluster = {}", ip.cluster());
            let _ = writeln!(out, "wafer_price_usd = {}", ip.wafer_price().usd());
            let _ = writeln!(out, "area_factor = {}", ip.area_factor());
            write_wafer(&mut out, &format!("packaging.{key}.interposer"), ip.wafer());
        }
    }
    out
}

fn write_wafer(out: &mut String, path: &str, wafer: WaferSpec) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "[{path}.wafer]");
    let _ = writeln!(out, "diameter_mm = {}", wafer.diameter_mm());
    let _ = writeln!(out, "edge_exclusion_mm = {}", wafer.edge_exclusion_mm());
    let _ = writeln!(out, "scribe_lane_mm = {}", wafer.scribe_lane_mm());
}
