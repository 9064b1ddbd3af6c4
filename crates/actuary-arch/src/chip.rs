use std::fmt;
use std::sync::Arc;

use actuary_tech::{NodeId, TechLibrary};
use actuary_units::Area;

use crate::error::ArchError;
use crate::module::Module;

/// A chip: either a monolithic SoC die formed directly from modules, or a
/// chiplet formed from modules plus the node's D2D interface (Eq. (3)).
///
/// Chips are identified by name for NRE sharing — building the same chiplet
/// into many systems pays its chip-level NRE only once (Eq. (8)).
///
/// A chip is immutable and its data sits behind one shared pointer, so
/// cloning a chip into many systems copies a reference count, and
/// [`crate::Portfolio::core`] recognises the clones of one design by
/// pointer.
///
/// # Examples
///
/// ```
/// use actuary_arch::{Chip, Module};
/// use actuary_tech::TechLibrary;
/// use actuary_units::Area;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lib = TechLibrary::paper_defaults()?;
/// let m = Module::new("cores", "7nm", Area::from_mm2(90.0)?);
/// let chiplet = Chip::chiplet("ccd", "7nm", vec![m.clone()]);
/// // 10 % D2D overhead: 90 mm² of modules → 100 mm² die.
/// assert!((chiplet.die_area(&lib)?.mm2() - 100.0).abs() < 1e-9);
/// let soc = Chip::monolithic("soc", "7nm", vec![m]);
/// assert_eq!(soc.die_area(&lib)?.mm2(), 90.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Chip(Arc<ChipData>);

#[derive(PartialEq)]
struct ChipData {
    name: String,
    node: NodeId,
    modules: Vec<Module>,
    is_chiplet: bool,
}

impl Chip {
    /// Creates a chiplet: modules plus the node's D2D interface. The die
    /// area is inflated by the node's D2D area fraction.
    pub fn chiplet(name: impl Into<String>, node: impl Into<NodeId>, modules: Vec<Module>) -> Self {
        Chip::new(name.into(), node.into(), modules, true)
    }

    /// Creates a monolithic SoC die: modules only, no D2D interface.
    pub fn monolithic(
        name: impl Into<String>,
        node: impl Into<NodeId>,
        modules: Vec<Module>,
    ) -> Self {
        Chip::new(name.into(), node.into(), modules, false)
    }

    fn new(name: String, node: NodeId, modules: Vec<Module>, is_chiplet: bool) -> Self {
        Chip(Arc::new(ChipData {
            name,
            node,
            modules,
            is_chiplet,
        }))
    }

    /// The chip's design name (the NRE-sharing identity).
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// The process node the chip is manufactured on.
    pub fn node(&self) -> &NodeId {
        &self.0.node
    }

    /// The modules the chip carries.
    pub fn modules(&self) -> &[Module] {
        &self.0.modules
    }

    /// Whether the chip is a chiplet (carries a D2D interface).
    pub fn is_chiplet(&self) -> bool {
        self.0.is_chiplet
    }

    /// Whether `other` is the same design: a clone of this chip (checked
    /// by pointer) or a chip built separately with equal data.
    pub(crate) fn same_design(&self, other: &Chip) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }

    /// Total functional module area (excluding D2D).
    pub fn module_area(&self) -> Area {
        self.modules().iter().map(|m| m.area()).sum()
    }

    /// Die area: module area, inflated by the node's D2D fraction when the
    /// chip is a chiplet.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::Tech`] if the node is not in the library, or
    /// [`ArchError::InvalidArchitecture`] if a module targets a different
    /// node than the chip.
    pub fn die_area(&self, lib: &TechLibrary) -> Result<Area, ArchError> {
        for m in self.modules() {
            if m.node() != self.node() {
                return Err(ArchError::InvalidArchitecture {
                    reason: format!(
                        "chip {} is on {} but module {} is designed at {}",
                        self.name(),
                        self.node(),
                        m.name(),
                        m.node()
                    ),
                });
            }
        }
        let node = lib.node(self.node())?;
        let module_area = self.module_area();
        if self.is_chiplet() {
            Ok(node.d2d().inflate_module_area(module_area)?)
        } else {
            Ok(module_area)
        }
    }

    /// The D2D interface area on this chip (zero for monolithic dies).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Chip::die_area`].
    pub fn d2d_area(&self, lib: &TechLibrary) -> Result<Area, ArchError> {
        let die = self.die_area(lib)?;
        Ok(die.saturating_sub(self.module_area()))
    }
}

impl fmt::Debug for Chip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Chip")
            .field("name", &self.0.name)
            .field("node", &self.0.node)
            .field("modules", &self.0.modules)
            .field("is_chiplet", &self.0.is_chiplet)
            .finish()
    }
}

impl fmt::Display for Chip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} @ {}, {} modules)",
            self.name(),
            if self.is_chiplet() {
                "chiplet"
            } else {
                "SoC die"
            },
            self.node(),
            self.modules().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn area(mm2: f64) -> Area {
        Area::from_mm2(mm2).unwrap()
    }

    fn lib() -> TechLibrary {
        TechLibrary::paper_defaults().unwrap()
    }

    #[test]
    fn chiplet_inflates_by_d2d() {
        let lib = lib();
        let c = Chip::chiplet(
            "x",
            "5nm",
            vec![
                Module::new("a", "5nm", area(45.0)),
                Module::new("b", "5nm", area(45.0)),
            ],
        );
        assert_eq!(c.module_area().mm2(), 90.0);
        assert!((c.die_area(&lib).unwrap().mm2() - 100.0).abs() < 1e-9);
        assert!((c.d2d_area(&lib).unwrap().mm2() - 10.0).abs() < 1e-9);
        assert!(c.is_chiplet());
    }

    #[test]
    fn monolithic_has_no_d2d() {
        let lib = lib();
        let c = Chip::monolithic("soc", "5nm", vec![Module::new("a", "5nm", area(90.0))]);
        assert_eq!(c.die_area(&lib).unwrap().mm2(), 90.0);
        assert_eq!(c.d2d_area(&lib).unwrap(), Area::ZERO);
        assert!(!c.is_chiplet());
    }

    #[test]
    fn node_mismatch_is_rejected() {
        let lib = lib();
        let c = Chip::chiplet("x", "5nm", vec![Module::new("a", "7nm", area(50.0))]);
        let err = c.die_area(&lib).unwrap_err();
        assert!(matches!(err, ArchError::InvalidArchitecture { .. }));
        assert!(err.to_string().contains("7nm"), "{err}");
    }

    #[test]
    fn unknown_node_errors() {
        let lib = lib();
        let c = Chip::chiplet("x", "9nm", vec![Module::new("a", "9nm", area(50.0))]);
        assert!(matches!(c.die_area(&lib), Err(ArchError::Tech(_))));
    }

    #[test]
    fn empty_chip_has_zero_area() {
        let lib = lib();
        let c = Chip::monolithic("empty", "7nm", vec![]);
        assert_eq!(c.die_area(&lib).unwrap(), Area::ZERO);
    }

    #[test]
    fn display() {
        let c = Chip::chiplet("ccd", "7nm", vec![Module::new("cores", "7nm", area(66.0))]);
        assert_eq!(c.to_string(), "ccd (chiplet @ 7nm, 1 modules)");
    }
}
