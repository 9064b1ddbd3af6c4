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
//! and a mask-set price). `[packaging.<kind>]` overlays the same way; a
//! new kind starts from [`PackagingTech::builder`]'s defaults, and a new
//! interposer (InFO, 2.5D) must provide all four of its process keys.

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
    let usd = view.opt(usd_key)?;
    let musd = view.opt(musd_key)?;
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
        .opt("diameter_mm")?
        .map_or(base.diameter_mm(), |s| s.value);
    let edge = wafer
        .opt("edge_exclusion_mm")?
        .map_or(base.edge_exclusion_mm(), |s| s.value);
    let scribe = wafer
        .opt("scribe_lane_mm")?
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
    let defect = view.opt("defect_density")?;
    // lint:allow(unit-suffix): `cluster` is the paper's dimensionless α; the key is scenario-file API
    let cluster = view.opt("cluster")?;
    let wafer_price = view.opt("wafer_price_usd")?.map(money).transpose()?;
    let k_module = view.opt("k_module_usd")?.map(money).transpose()?;
    let k_chip = view.opt("k_chip_usd")?.map(money).transpose()?;
    let mask_set = opt_money_usd_or_musd(&mut view, "mask_set_usd", "mask_set_musd")?;
    let ip_license = opt_money_usd_or_musd(&mut view, "ip_license_usd", "ip_license_musd")?;
    let relative_density = view.opt("relative_density")?;
    let d2d = match view.opt_table("d2d")? {
        None => None,
        Some(mut d2d_view) => {
            let pos = d2d_view.pos();
            let fraction = d2d_view.opt("area_fraction")?;
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

/// Lowers one `[packaging.<kind>]` table: an overlay of `base` changes
/// only the keys present, a new entry starts from
/// [`PackagingTech::builder`].
fn lower_packaging(
    kind: IntegrationKind,
    mut view: View<'_>,
    base: Option<&PackagingTech>,
) -> Result<PackagingTech, ScenarioError> {
    let table_pos = view.pos();
    // An interposer on a kind that takes none is the fault to report,
    // whatever the interposer table itself holds or lacks.
    let interposer = view.opt_table("interposer")?;
    if interposer.is_some() {
        kind.check_interposer(true)
            .map_err(|e| ScenarioError::schema(table_pos, e.to_string()))?;
    }
    let mut builder = base.map_or_else(|| PackagingTech::builder(kind), PackagingTech::to_builder);
    if let Some(cost) = view.opt("substrate_cost_per_mm2_usd")? {
        builder = builder.substrate_cost_per_mm2(money(cost)?);
    }
    if let Some(factor) = view.opt("substrate_layer_factor")? {
        builder = builder.substrate_layer_factor(factor.value);
    }
    if let Some(factor) = view.opt("package_body_factor")? {
        builder = builder.package_body_factor(factor.value);
    }
    if let Some(y) = view.opt("chip_bond_yield")? {
        builder = builder.chip_bond_yield(prob(y)?);
    }
    if let Some(y) = view.opt("substrate_attach_yield")? {
        builder = builder.substrate_attach_yield(prob(y)?);
    }
    if let Some(y) = view.opt("package_test_yield")? {
        builder = builder.package_test_yield(prob(y)?);
    }
    if let Some(cost) = view.opt("bond_cost_per_chip_usd")? {
        builder = builder.bond_cost_per_chip(money(cost)?);
    }
    if let Some(cost) = view.opt("assembly_cost_usd")? {
        builder = builder.assembly_cost(money(cost)?);
    }
    if let Some(k) = view.opt("k_package_per_mm2_usd")? {
        builder = builder.k_package_per_mm2(money(k)?);
    }
    if let Some(cost) =
        opt_money_usd_or_musd(&mut view, "fixed_package_nre_usd", "fixed_package_nre_musd")?
    {
        builder = builder.fixed_package_nre(cost);
    }
    if let Some(ip_view) = interposer {
        let base_ip = base.and_then(PackagingTech::interposer);
        builder = builder.interposer(lower_interposer(ip_view, base_ip)?);
    }
    view.deny_unknown()?;
    builder
        .build()
        .map_err(|e| ScenarioError::schema(table_pos, e.to_string()))
}

/// Lowers one `[packaging.<kind>.interposer]` table, overlaying `base`
/// when present; without one, every process key is required.
fn lower_interposer(
    mut view: View<'_>,
    base: Option<&InterposerSpec>,
) -> Result<InterposerSpec, ScenarioError> {
    let pos = view.pos();
    let defect = view.opt::<f64>("defect_density")?.map(|s| s.value);
    // lint:allow(unit-suffix): `cluster` is the paper's dimensionless α; the key is scenario-file API
    let cluster = view.opt::<f64>("cluster")?.map(|s| s.value);
    let price = view.opt("wafer_price_usd")?.map(money).transpose()?;
    let area_factor = view.opt::<f64>("area_factor")?.map(|s| s.value);
    let default_wafer = match base {
        Some(ip) => ip.wafer(),
        None => WaferSpec::mm300().map_err(|e| ScenarioError::schema(pos, e.to_string()))?,
    };
    let wafer = opt_wafer(&mut view, default_wafer)?;
    view.deny_unknown()?;
    let missing = |key: &str| {
        ScenarioError::schema(
            pos,
            format!("interposer of a new [packaging] entry requires key `{key}`"),
        )
    };
    let defect = (defect.or(base.map(|ip| ip.defect_density().value())))
        .ok_or_else(|| missing("defect_density"))?;
    let defect =
        DefectDensity::per_cm2(defect).map_err(|e| ScenarioError::schema(pos, e.to_string()))?;
    let cluster =
        (cluster.or(base.map(InterposerSpec::cluster))).ok_or_else(|| missing("cluster"))?;
    let price = (price.or(base.map(InterposerSpec::wafer_price)))
        .ok_or_else(|| missing("wafer_price_usd"))?;
    let area_factor = (area_factor.or(base.map(InterposerSpec::area_factor)))
        .ok_or_else(|| missing("area_factor"))?;
    InterposerSpec::new(defect, cluster, price, wafer, area_factor)
        .map_err(|e| ScenarioError::schema(pos, e.to_string()))
}

/// Builds the scenario's [`TechLibrary`] from the root view: `extends` plus
/// the `[nodes]` / `[packaging]` overlay tables.
pub(crate) fn lower_library(root: &mut View<'_>) -> Result<TechLibrary, ScenarioError> {
    let mut library = match root.opt::<&str>("extends")? {
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
        for (id, _, table) in nodes.children()? {
            let base = library.node(id).ok().cloned();
            let node = lower_node(id, View::new(table, format!("[nodes.{id}]")), base.as_ref())?;
            library.insert_node(node);
        }
    }
    if let Some(packaging) = root.opt_table("packaging")? {
        for (key, key_pos, table) in packaging.children()? {
            // The kind grammar is owned by actuary-tech's `FromStr`, shared
            // with the CLI.
            let kind = key
                .parse()
                .map_err(|message| ScenarioError::schema(key_pos, message))?;
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
