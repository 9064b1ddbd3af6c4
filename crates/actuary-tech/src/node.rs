use std::borrow::Borrow;
use std::fmt;

use actuary_units::{Area, Money, Prob};
use actuary_yield::{DefectDensity, NegativeBinomial, WaferSpec, YieldModel};

use crate::d2d::D2dSpec;
use crate::error::TechError;

/// Identifier of a process node, e.g. `"7nm"` or `"12nm"`.
///
/// # Examples
///
/// ```
/// use actuary_tech::NodeId;
///
/// let id = NodeId::new("7nm");
/// assert_eq!(id.as_str(), "7nm");
/// assert_eq!(id.to_string(), "7nm");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(String);

impl NodeId {
    /// Creates a node id from any string-like value.
    pub fn new(id: impl Into<String>) -> Self {
        NodeId(id.into())
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for NodeId {
    fn from(s: &str) -> Self {
        NodeId::new(s)
    }
}

impl From<String> for NodeId {
    fn from(s: String) -> Self {
        NodeId(s)
    }
}

impl AsRef<str> for NodeId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// A `NodeId` orders, compares and hashes exactly as its string, so maps
/// keyed on ids can be searched with a borrowed `&str`.
impl Borrow<str> for NodeId {
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// Per-area and fixed NRE cost factors of a process node (the `K` and `C`
/// constants of the paper's Eq. (6)).
///
/// * `k_module` — NRE per mm² of *module* design: RTL plus block-level
///   verification (`K_m`).
/// * `k_chip` — NRE per mm² of *chip-level* work: system verification and
///   physical design (`K_c`).
/// * `mask_set` + `ip_license` — the fixed per-chip cost `C` (full mask set,
///   IP licensing), paid once for every distinct chip taped out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NreFactors {
    /// `K_m`: module design + block verification, $ per mm².
    pub k_module: Money,
    /// `K_c`: system verification + chip physical design, $ per mm².
    pub k_chip: Money,
    /// Full mask-set price (part of the fixed per-chip `C`).
    pub mask_set: Money,
    /// IP licensing and other fixed per-chip costs (rest of `C`).
    pub ip_license: Money,
}

impl NreFactors {
    /// The total fixed per-chip NRE `C = mask set + IP licensing`.
    pub fn fixed_per_chip(&self) -> Money {
        self.mask_set + self.ip_license
    }
}

/// One silicon process node with its manufacturing and NRE parameters.
///
/// Constructed through [`ProcessNode::builder`]; prefabricated nodes come
/// from [`crate::TechLibrary::paper_defaults`].
///
/// # Examples
///
/// ```
/// use actuary_units::{Area, Money};
/// use actuary_tech::ProcessNode;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let node = ProcessNode::builder("7nm")
///     .defect_density(0.09)
///     .cluster(10.0)
///     .wafer_price(Money::from_usd(9_346.0)?)
///     .k_module(Money::from_usd(550_000.0)?)
///     .k_chip(Money::from_usd(330_000.0)?)
///     .mask_set(Money::from_musd(10.0)?)
///     .ip_license(Money::from_musd(4.0)?)
///     .relative_density(2.8)
///     .build()?;
/// let y = node.die_yield(Area::from_mm2(100.0)?);
/// assert!(y.value() > 0.9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessNode {
    id: NodeId,
    defect_density: DefectDensity,
    cluster: f64,
    wafer_price: Money,
    wafer: WaferSpec,
    nre: NreFactors,
    relative_density: f64,
    d2d: D2dSpec,
}

impl ProcessNode {
    /// Starts building a node with the given id.
    pub fn builder(id: impl Into<NodeId>) -> ProcessNodeBuilder {
        ProcessNodeBuilder::new(id)
    }

    /// A builder that holds every parameter of this node, so a what-if
    /// variant sets only what it changes:
    /// `node.to_builder().defect_density(0.13).build()`.
    pub fn to_builder(&self) -> ProcessNodeBuilder {
        ProcessNodeBuilder {
            id: self.id.clone(),
            defect_density: Some(self.defect_density.value()),
            cluster: self.cluster,
            wafer_price: Some(self.wafer_price),
            wafer: Some(self.wafer),
            k_module: Some(self.nre.k_module),
            k_chip: Some(self.nre.k_chip),
            mask_set: Some(self.nre.mask_set),
            ip_license: self.nre.ip_license,
            relative_density: self.relative_density,
            d2d: Some(self.d2d),
        }
    }

    /// The node id.
    pub fn id(&self) -> &NodeId {
        &self.id
    }

    /// Defect density `D` of Eq. (1).
    pub fn defect_density(&self) -> DefectDensity {
        self.defect_density
    }

    /// Cluster parameter `c` of Eq. (1).
    pub fn cluster(&self) -> f64 {
        self.cluster
    }

    /// Price of one raw wafer.
    pub fn wafer_price(&self) -> Money {
        self.wafer_price
    }

    /// Wafer geometry used by this node.
    pub fn wafer(&self) -> WaferSpec {
        self.wafer
    }

    /// NRE cost factors.
    pub fn nre(&self) -> &NreFactors {
        &self.nre
    }

    /// Transistor density relative to the 14 nm reference (1.0). Used to
    /// re-scale module areas when porting a module across nodes
    /// (heterogeneity studies, Figure 5 and 9).
    pub fn relative_density(&self) -> f64 {
        self.relative_density
    }

    /// D2D interface parameters at this node.
    pub fn d2d(&self) -> &D2dSpec {
        &self.d2d
    }

    /// The negative-binomial yield model configured for this node.
    pub fn yield_model(&self) -> NegativeBinomial {
        NegativeBinomial::new(self.cluster).expect("cluster parameter validated at construction")
    }

    /// Die yield for a die of the given area, per Eq. (1).
    pub fn die_yield(&self, die: Area) -> Prob {
        self.yield_model().die_yield(self.defect_density, die)
    }

    /// Cost of one raw (unyielded) die of the given area.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::Yield`] if the die does not fit the wafer.
    pub fn raw_die_cost(&self, die: Area) -> Result<Money, TechError> {
        Ok(self.wafer.raw_die_cost(self.wafer_price, die)?)
    }

    /// Effective cost of one *good* die: `raw / yield`.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::Yield`] if the die does not fit the wafer, or
    /// [`TechError::Unit`] if the yield underflows to zero.
    pub fn yielded_die_cost(&self, die: Area) -> Result<Money, TechError> {
        let raw = self.raw_die_cost(die)?;
        let y = self.die_yield(die);
        Ok(raw * y.reciprocal()?)
    }

    /// Raw-wafer cost per usable mm² — the paper's Figure 2 normalization
    /// basis for this node.
    pub fn cost_per_mm2(&self) -> Money {
        self.wafer.cost_per_usable_mm2(self.wafer_price)
    }

    /// Re-scales an area designed at `from` node to this node according to
    /// the relative transistor densities (same transistor count, different
    /// footprint).
    ///
    /// # Errors
    ///
    /// Returns [`TechError::Unit`] if the scaled area is invalid.
    pub fn port_area_from(&self, area: Area, from: &ProcessNode) -> Result<Area, TechError> {
        let factor = from.relative_density / self.relative_density;
        Ok(area.scaled(factor)?)
    }
}

impl fmt::Display for ProcessNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (D={}, c={}, wafer {})",
            self.id, self.defect_density, self.cluster, self.wafer_price
        )
    }
}

/// Builder for [`ProcessNode`] (see C-BUILDER).
#[derive(Debug, Clone)]
pub struct ProcessNodeBuilder {
    id: NodeId,
    defect_density: Option<f64>,
    cluster: f64,
    wafer_price: Option<Money>,
    wafer: Option<WaferSpec>,
    k_module: Option<Money>,
    k_chip: Option<Money>,
    mask_set: Option<Money>,
    ip_license: Money,
    relative_density: f64,
    d2d: Option<D2dSpec>,
}

impl ProcessNodeBuilder {
    fn new(id: impl Into<NodeId>) -> Self {
        ProcessNodeBuilder {
            id: id.into(),
            defect_density: None,
            cluster: 10.0,
            wafer_price: None,
            wafer: None,
            k_module: None,
            k_chip: None,
            mask_set: None,
            ip_license: Money::ZERO,
            relative_density: 1.0,
            d2d: None,
        }
    }

    /// Sets the defect density in defects/cm² (required).
    pub fn defect_density(mut self, d: f64) -> Self {
        self.defect_density = Some(d);
        self
    }

    /// Sets the negative-binomial cluster parameter (default 10, the paper's
    /// value for logic processes).
    pub fn cluster(mut self, c: f64) -> Self {
        self.cluster = c;
        self
    }

    /// Sets the raw wafer price (required).
    pub fn wafer_price(mut self, price: Money) -> Self {
        self.wafer_price = Some(price);
        self
    }

    /// Sets the wafer geometry (default: 300 mm production wafer).
    pub fn wafer(mut self, wafer: WaferSpec) -> Self {
        self.wafer = Some(wafer);
        self
    }

    /// Sets `K_m`, the module-design NRE per mm² (required).
    pub fn k_module(mut self, k: Money) -> Self {
        self.k_module = Some(k);
        self
    }

    /// Sets `K_c`, the chip-level NRE per mm² (required).
    pub fn k_chip(mut self, k: Money) -> Self {
        self.k_chip = Some(k);
        self
    }

    /// Sets the full mask-set price (required).
    pub fn mask_set(mut self, cost: Money) -> Self {
        self.mask_set = Some(cost);
        self
    }

    /// Sets the fixed IP-licensing cost per chip (default $0).
    pub fn ip_license(mut self, cost: Money) -> Self {
        self.ip_license = cost;
        self
    }

    /// Sets the transistor density relative to 14 nm (default 1.0).
    pub fn relative_density(mut self, density: f64) -> Self {
        self.relative_density = density;
        self
    }

    /// Sets the D2D interface spec (default: 10 % area overhead, zero NRE).
    pub fn d2d(mut self, d2d: D2dSpec) -> Self {
        self.d2d = Some(d2d);
        self
    }

    /// Finalizes the node.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::InvalidSpec`] if a required field is missing or
    /// a parameter is out of range.
    pub fn build(self) -> Result<ProcessNode, TechError> {
        let defect = self.defect_density.ok_or_else(|| TechError::InvalidSpec {
            reason: format!("node {}: defect density is required", self.id),
        })?;
        let defect_density = DefectDensity::per_cm2(defect)?;
        if !self.cluster.is_finite() || self.cluster <= 0.0 {
            return Err(TechError::InvalidSpec {
                reason: format!("node {}: cluster parameter must be positive", self.id),
            });
        }
        let wafer_price = self.wafer_price.ok_or_else(|| TechError::InvalidSpec {
            reason: format!("node {}: wafer price is required", self.id),
        })?;
        if wafer_price.is_negative() {
            return Err(TechError::InvalidSpec {
                reason: format!("node {}: wafer price must be non-negative", self.id),
            });
        }
        let k_module = self.k_module.ok_or_else(|| TechError::InvalidSpec {
            reason: format!("node {}: k_module is required", self.id),
        })?;
        let k_chip = self.k_chip.ok_or_else(|| TechError::InvalidSpec {
            reason: format!("node {}: k_chip is required", self.id),
        })?;
        let mask_set = self.mask_set.ok_or_else(|| TechError::InvalidSpec {
            reason: format!("node {}: mask_set is required", self.id),
        })?;
        if k_module.is_negative()
            || k_chip.is_negative()
            || mask_set.is_negative()
            || self.ip_license.is_negative()
        {
            return Err(TechError::InvalidSpec {
                reason: format!("node {}: NRE factors must be non-negative", self.id),
            });
        }
        if !self.relative_density.is_finite() || self.relative_density <= 0.0 {
            return Err(TechError::InvalidSpec {
                reason: format!("node {}: relative density must be positive", self.id),
            });
        }
        let wafer = match self.wafer {
            Some(w) => w,
            None => WaferSpec::mm300()?,
        };
        Ok(ProcessNode {
            id: self.id,
            defect_density,
            cluster: self.cluster,
            wafer_price,
            wafer,
            nre: NreFactors {
                k_module,
                k_chip,
                mask_set,
                ip_license: self.ip_license,
            },
            relative_density: self.relative_density,
            d2d: self.d2d.unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usd(v: f64) -> Money {
        Money::from_usd(v).unwrap()
    }

    fn sample_node() -> ProcessNode {
        ProcessNode::builder("7nm")
            .defect_density(0.09)
            .cluster(10.0)
            .wafer_price(usd(9_346.0))
            .k_module(usd(550_000.0))
            .k_chip(usd(330_000.0))
            .mask_set(usd(10.0e6))
            .ip_license(usd(4.0e6))
            .relative_density(2.8)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_requires_mandatory_fields() {
        let missing_d = ProcessNode::builder("x").wafer_price(usd(1.0)).build();
        assert!(missing_d.is_err());
        let missing_price = ProcessNode::builder("x").defect_density(0.1).build();
        assert!(missing_price.is_err());
        let missing_k = ProcessNode::builder("x")
            .defect_density(0.1)
            .wafer_price(usd(1.0))
            .build();
        assert!(missing_k.is_err());
    }

    #[test]
    fn builder_rejects_bad_values() {
        let base = || {
            ProcessNode::builder("x")
                .defect_density(0.1)
                .wafer_price(usd(1000.0))
                .k_module(usd(1.0))
                .k_chip(usd(1.0))
                .mask_set(usd(1.0))
        };
        assert!(base().cluster(0.0).build().is_err());
        assert!(base().relative_density(0.0).build().is_err());
        assert!(base().wafer_price(usd(-5.0)).build().is_err());
        assert!(base().build().is_ok());
    }

    #[test]
    fn yield_and_cost_queries() {
        let node = sample_node();
        let die = Area::from_mm2(100.0).unwrap();
        let y = node.die_yield(die);
        let expected = (1.0 + 0.09 / 10.0f64).powi(-10);
        assert!((y.value() - expected).abs() < 1e-12);
        let raw = node.raw_die_cost(die).unwrap();
        let yielded = node.yielded_die_cost(die).unwrap();
        assert!(yielded > raw);
        assert!((yielded.usd() - raw.usd() / expected).abs() < 1e-9);
    }

    #[test]
    fn fixed_per_chip_sums_masks_and_ip() {
        let node = sample_node();
        assert_eq!(node.nre().fixed_per_chip().usd(), 14.0e6);
    }

    #[test]
    fn area_porting_follows_density_ratio() {
        let n7 = sample_node();
        let n14 = ProcessNode::builder("14nm")
            .defect_density(0.08)
            .wafer_price(usd(3_984.0))
            .k_module(usd(200_000.0))
            .k_chip(usd(120_000.0))
            .mask_set(usd(3.0e6))
            .relative_density(1.0)
            .build()
            .unwrap();
        // A 100 mm² module at 14 nm shrinks by 2.8× at 7 nm.
        let at14 = Area::from_mm2(100.0).unwrap();
        let at7 = n7.port_area_from(at14, &n14).unwrap();
        assert!((at7.mm2() - 100.0 / 2.8).abs() < 1e-9);
        // Round trip returns the original.
        let back = n14.port_area_from(at7, &n7).unwrap();
        assert!((back.mm2() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn to_builder_rebuilds_every_preset_node_unchanged() {
        let lib = crate::TechLibrary::paper_defaults().unwrap();
        for node in lib.nodes() {
            assert_eq!(&node.to_builder().build().unwrap(), node, "{}", node.id());
        }
        let custom = sample_node();
        assert_eq!(custom.to_builder().build().unwrap(), custom);
        let what_if = custom.to_builder().defect_density(0.2).build().unwrap();
        assert_eq!(what_if.defect_density().value(), 0.2);
        assert_eq!(what_if.nre(), custom.nre());
        assert_eq!(what_if.wafer(), custom.wafer());
    }

    #[test]
    fn node_id_conversions() {
        let a: NodeId = "5nm".into();
        let b = NodeId::new(String::from("5nm"));
        assert_eq!(a, b);
        assert_eq!(a.as_ref(), "5nm");
    }

    #[test]
    fn display() {
        let node = sample_node();
        let s = node.to_string();
        assert!(s.contains("7nm") && s.contains("0.09"), "{s}");
    }
}
