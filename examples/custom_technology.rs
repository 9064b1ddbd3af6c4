//! Bringing your own data: define a custom process node and packaging
//! technology, then rerun the paper's core comparison on them — the
//! "include the latest relevant data" workflow of §4.
//!
//! Run with `cargo run --example custom_technology`.

use chiplet_actuary::dse::maturity::{library_at_age, DefectRamp};
use chiplet_actuary::dse::sensitivity::elasticity;
use chiplet_actuary::prelude::*;
use chiplet_actuary::tech::{InterposerSpec, PackagingTech};
use chiplet_actuary::yield_model::DefectDensity;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Start from the paper's calibration and add a hypothetical "2nm"
    // node with early-ramp yield.
    let mut lib = TechLibrary::paper_defaults()?;
    lib.insert_node(
        ProcessNode::builder("2nm")
            .defect_density(0.30)
            .cluster(10.0)
            .wafer_price(Money::from_usd(45_000.0)?)
            .k_module(Money::from_usd(2_200_000.0)?)
            .k_chip(Money::from_usd(1_300_000.0)?)
            .mask_set(Money::from_musd(50.0)?)
            .ip_license(Money::from_musd(12.0)?)
            .relative_density(8.0)
            .d2d(D2dSpec::new(0.10, Money::from_musd(25.0)?)?)
            .build()?,
    );
    // And a hypothetical bridge-based packaging option: cheaper interposer
    // covering only die edges (modelled as a small-area-factor interposer).
    lib.insert_packaging(
        PackagingTech::builder(IntegrationKind::Info)
            .substrate_cost_per_mm2(Money::from_usd(0.005)?)
            .package_body_factor(4.0)
            .chip_bond_yield(Prob::new(0.99)?)
            .substrate_attach_yield(Prob::new(0.99)?)
            .package_test_yield(Prob::new(0.99)?)
            .bond_cost_per_chip(Money::from_usd(1.0)?)
            .assembly_cost(Money::from_usd(8.0)?)
            .interposer(InterposerSpec::new(
                DefectDensity::per_cm2(0.04)?,
                3.0,
                Money::from_usd(900.0)?,
                WaferSpec::mm300()?,
                1.05,
            )?)
            .k_package_per_mm2(Money::from_usd(15_000.0)?)
            .fixed_package_nre(Money::from_musd(2.0)?)
            .build()?,
    );

    let n2 = lib.node("2nm")?;
    let module_area = Area::from_mm2(700.0)?;
    println!("== custom 2nm node (D=0.30 early ramp, $45k wafers) ==\n");

    let soc = re_cost(
        &[DiePlacement::new(n2, module_area, 1)],
        lib.packaging(IntegrationKind::Soc)?,
        AssemblyFlow::ChipLast,
    )?;
    for n in [2u32, 3, 4] {
        let multi = equal_split_re_cost(
            n2,
            lib.packaging(IntegrationKind::Info)?,
            module_area,
            n,
            AssemblyFlow::ChipLast,
        )?;
        println!(
            "{n} chiplets on bridge-InFO: {} vs monolithic {} ({:+.1}%)",
            multi.total(),
            soc.total(),
            (multi.total().usd() / soc.total().usd() - 1.0) * 100.0
        );
    }

    // How sensitive is the monolithic cost to the defect-density guess?
    let base_d = n2.defect_density().value();
    let e = elasticity(base_d, 0.01, |d| {
        let snapshot =
            lib.with_modified_node("2nm", |node| node.to_builder().defect_density(d).build())?;
        let b = re_cost(
            &[DiePlacement::new(snapshot.node("2nm")?, module_area, 1)],
            snapshot.packaging(IntegrationKind::Soc)?,
            AssemblyFlow::ChipLast,
        )?;
        Ok(b.total().usd())
    })?;
    println!("\nelasticity of the monolithic cost wrt defect density: {e:.2}");

    // Replay the comparison as the process matures (D: 0.30 → 0.08).
    println!("\nmaturity ramp (exponential learning, τ = 12 months):");
    let ramp = DefectRamp::new(0.30, 0.08, 12.0)?;
    for months in [0.0, 6.0, 12.0, 24.0, 48.0] {
        let snapshot = library_at_age(&lib, "2nm", &ramp, months)?;
        let node = snapshot.node("2nm")?;
        let soc = re_cost(
            &[DiePlacement::new(node, module_area, 1)],
            snapshot.packaging(IntegrationKind::Soc)?,
            AssemblyFlow::ChipLast,
        )?;
        let mcm = equal_split_re_cost(
            node,
            snapshot.packaging(IntegrationKind::Mcm)?,
            module_area,
            2,
            AssemblyFlow::ChipLast,
        )?;
        println!(
            "  t={months:>4.0} mo  D={}  chiplet saving {:>5.1}%",
            node.defect_density(),
            (1.0 - mcm.total().usd() / soc.total().usd()) * 100.0
        );
    }
    println!("\n(§4.1: as the process matures the chiplet advantage shrinks)");
    Ok(())
}
