use std::fmt;
use std::sync::Arc;

use actuary_tech::{NodeId, ProcessNode, TechLibrary};
use actuary_units::Area;

use crate::error::ArchError;

/// An indivisible group of functional units, designed once at a particular
/// process node (the `m` of the paper's Eq. (3)).
///
/// Two modules are *the same design* — and therefore share their NRE across
/// a portfolio — exactly when both their name and their node match (the
/// paper regards the same function at different nodes as "diverse modules").
///
/// Like [`crate::Chip`], a module is immutable and shares its data, so
/// placing one module design in many chips copies a reference count.
///
/// # Examples
///
/// ```
/// use actuary_arch::Module;
/// use actuary_units::Area;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cores = Module::new("core-cluster", "7nm", Area::from_mm2(160.0)?);
/// assert_eq!(cores.name(), "core-cluster");
/// assert_eq!(cores.node().as_str(), "7nm");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Module(Arc<ModuleData>);

#[derive(PartialEq)]
struct ModuleData {
    name: String,
    node: NodeId,
    area: Area,
}

impl Module {
    /// Creates a module of `area` designed at `node`.
    pub fn new(name: impl Into<String>, node: impl Into<NodeId>, area: Area) -> Self {
        Module(Arc::new(ModuleData {
            name: name.into(),
            node: node.into(),
            area,
        }))
    }

    /// The module's design name.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// The process node the module is designed at.
    pub fn node(&self) -> &NodeId {
        &self.0.node
    }

    /// Silicon area of the module at its design node.
    pub fn area(&self) -> Area {
        self.0.area
    }

    /// Re-targets the module to another node, rescaling its area by the
    /// relative transistor densities (the heterogeneity operation of §5.2).
    ///
    /// The ported module keeps its name; since the node differs, it counts
    /// as a distinct design for NRE purposes, as the paper prescribes.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::Tech`] if either node is not in the library.
    pub fn ported_to(&self, target: &ProcessNode, lib: &TechLibrary) -> Result<Module, ArchError> {
        let source = lib.node(self.node())?;
        let area = target.port_area_from(self.area(), source)?;
        Ok(Module::new(self.name(), target.id().clone(), area))
    }
}

impl fmt::Debug for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Module")
            .field("name", &self.0.name)
            .field("node", &self.0.node)
            .field("area", &self.0.area)
            .finish()
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{} @ {}]", self.name(), self.area(), self.node())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn area(mm2: f64) -> Area {
        Area::from_mm2(mm2).unwrap()
    }

    #[test]
    fn accessors() {
        let m = Module::new("io-hub", "14nm", area(120.0));
        assert_eq!(m.name(), "io-hub");
        assert_eq!(m.node().as_str(), "14nm");
        assert_eq!(m.area().mm2(), 120.0);
    }

    #[test]
    fn porting_rescales_area() {
        let lib = TechLibrary::paper_defaults().unwrap();
        let at14 = Module::new("io-hub", "14nm", area(280.0));
        let n7 = lib.node("7nm").unwrap();
        let at7 = at14.ported_to(n7, &lib).unwrap();
        assert_eq!(at7.node().as_str(), "7nm");
        assert!((at7.area().mm2() - 280.0 / 2.8).abs() < 1e-9);
        assert_eq!(at7.name(), "io-hub");
    }

    #[test]
    fn porting_unknown_node_errors() {
        let lib = TechLibrary::paper_defaults().unwrap();
        let m = Module::new("x", "9nm", area(10.0));
        let n7 = lib.node("7nm").unwrap();
        assert!(m.ported_to(n7, &lib).is_err());
    }

    #[test]
    fn display() {
        let m = Module::new("gpu", "5nm", area(150.0));
        assert_eq!(m.to_string(), "gpu [150 mm² @ 5nm]");
    }
}
