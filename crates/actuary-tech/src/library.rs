use std::collections::BTreeMap;
use std::fmt;

use crate::error::TechError;
use crate::node::{NodeId, ProcessNode};
use crate::packaging::{IntegrationKind, PackagingTech};
use crate::presets;

/// Registry of process nodes and packaging technologies used by the cost
/// engine.
///
/// A library owns the full parameterization of an experiment. The shipped
/// [`TechLibrary::paper_defaults`] reproduces the calibration of the paper
/// (defect densities of Figure 2, CSET wafer prices, HIR-range bonding
/// yields — see `DESIGN.md` §5); every entry can be replaced to study other
/// assumptions, as the paper recommends when "applying the model to other
/// cases" (§4).
///
/// # Examples
///
/// ```
/// use actuary_tech::{IntegrationKind, TechLibrary};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lib = TechLibrary::paper_defaults()?;
/// assert!(lib.node("5nm").is_ok());
/// assert!(lib.node("9nm").is_err());
/// for kind in IntegrationKind::ALL {
///     assert!(lib.packaging(kind).is_ok());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TechLibrary {
    nodes: BTreeMap<NodeId, ProcessNode>,
    packaging: BTreeMap<IntegrationKind, PackagingTech>,
}

impl TechLibrary {
    /// Creates an empty library.
    pub fn new() -> Self {
        TechLibrary::default()
    }

    /// The paper's default calibration: logic nodes 3/5/7/10/12/14/28 nm and
    /// all four packaging technologies.
    ///
    /// # Errors
    ///
    /// Never fails with the shipped constants; the fallible signature guards
    /// against future preset edits violating validation.
    pub fn paper_defaults() -> Result<Self, TechError> {
        presets::paper_defaults()
    }

    /// Inserts (or replaces) a process node, returning the previous entry if
    /// one existed.
    pub fn insert_node(&mut self, node: ProcessNode) -> Option<ProcessNode> {
        self.nodes.insert(node.id().clone(), node)
    }

    /// Inserts (or replaces) a packaging technology, returning the previous
    /// entry if one existed.
    pub fn insert_packaging(&mut self, tech: PackagingTech) -> Option<PackagingTech> {
        self.packaging.insert(tech.kind(), tech)
    }

    /// Looks up a process node by id.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::UnknownNode`] if the id is not registered.
    pub fn node(&self, id: impl AsRef<str>) -> Result<&ProcessNode, TechError> {
        let id = id.as_ref();
        self.nodes
            .get(id)
            .ok_or_else(|| TechError::UnknownNode { id: id.to_string() })
    }

    /// Looks up a packaging technology.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::UnknownPackaging`] if the kind is not
    /// registered.
    pub fn packaging(&self, kind: IntegrationKind) -> Result<&PackagingTech, TechError> {
        self.packaging
            .get(&kind)
            .ok_or_else(|| TechError::UnknownPackaging {
                kind: kind.to_string(),
            })
    }

    /// Iterates over all registered nodes in id order.
    pub fn nodes(&self) -> impl Iterator<Item = &ProcessNode> {
        self.nodes.values()
    }

    /// Iterates over all registered packaging technologies.
    pub fn packagings(&self) -> impl Iterator<Item = &PackagingTech> {
        self.packaging.values()
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Returns a copy of the library with one node replaced by the result of
    /// applying `f` to it — convenient for what-if studies.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::UnknownNode`] if the id is not registered, or
    /// any error produced by `f`.
    pub fn with_modified_node<F>(&self, id: impl AsRef<str>, f: F) -> Result<Self, TechError>
    where
        F: FnOnce(&ProcessNode) -> Result<ProcessNode, TechError>,
    {
        let node = self.node(id)?;
        let replacement = f(node)?;
        let mut out = self.clone();
        out.insert_node(replacement);
        Ok(out)
    }
}

impl fmt::Display for TechLibrary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tech library ({} nodes, {} packaging technologies)",
            self.nodes.len(),
            self.packaging.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actuary_units::Money;

    #[test]
    fn defaults_are_complete() {
        let lib = TechLibrary::paper_defaults().unwrap();
        for id in ["3nm", "5nm", "7nm", "10nm", "12nm", "14nm", "28nm"] {
            assert!(lib.node(id).is_ok(), "missing node {id}");
        }
        for kind in IntegrationKind::ALL {
            assert!(lib.packaging(kind).is_ok(), "missing packaging {kind}");
        }
        assert_eq!(lib.node_count(), 7);
    }

    #[test]
    fn unknown_lookups_error() {
        let lib = TechLibrary::paper_defaults().unwrap();
        assert!(matches!(
            lib.node("9nm"),
            Err(TechError::UnknownNode { .. })
        ));
        let empty = TechLibrary::new();
        assert!(matches!(
            empty.packaging(IntegrationKind::Mcm),
            Err(TechError::UnknownPackaging { .. })
        ));
    }

    #[test]
    fn insert_replaces() {
        let mut lib = TechLibrary::paper_defaults().unwrap();
        let n7 = lib.node("7nm").unwrap().clone();
        let previous = lib.insert_node(n7);
        assert!(previous.is_some());
    }

    #[test]
    fn with_modified_node_leaves_original_untouched() {
        let lib = TechLibrary::paper_defaults().unwrap();
        let original_d = lib.node("7nm").unwrap().defect_density().value();
        let modified = lib
            .with_modified_node("7nm", |n| n.to_builder().defect_density(0.13).build())
            .unwrap();
        assert_eq!(modified.node("7nm").unwrap().defect_density().value(), 0.13);
        assert_eq!(
            lib.node("7nm").unwrap().defect_density().value(),
            original_d
        );
    }

    #[test]
    fn display() {
        let lib = TechLibrary::paper_defaults().unwrap();
        assert_eq!(
            lib.to_string(),
            "tech library (7 nodes, 4 packaging technologies)"
        );
    }

    #[test]
    fn defaults_have_sane_economics() {
        let lib = TechLibrary::paper_defaults().unwrap();
        // Wafer price must rise monotonically with node advancement.
        let order = ["28nm", "14nm", "10nm", "7nm", "5nm", "3nm"];
        let mut last = Money::ZERO;
        for id in order {
            let price = lib.node(id).unwrap().wafer_price();
            assert!(
                price > last,
                "wafer price must increase towards advanced nodes ({id})"
            );
            last = price;
        }
        // NRE factors rise with node advancement as well.
        let k5 = lib.node("5nm").unwrap().nre().k_module;
        let k14 = lib.node("14nm").unwrap().nre().k_module;
        assert!(k5 > k14);
    }
}
