//! Design-space exploration on top of the *Chiplet Actuary* cost model.
//!
//! The paper's §6 frames the architecture questions this crate answers
//! mechanically:
//!
//! * *"Which integration scheme to use, how many chiplets to partition?"*
//!   — a one-point [`portfolio::explore_portfolio`] searches integration
//!   kind × chiplet count for the cheapest configuration of a single
//!   system, each priced by [`optimizer::candidate_core`].
//! * *"Multi-chip architecture begins to pay off when the cost of die
//!   defects exceeds the total cost resulting from packaging"* —
//!   [`crossover::find_area_crossover`] and
//!   [`crossover::find_quantity_payback`] locate the turning points in area
//!   and production quantity.
//! * *"As the yield of 7 nm technology improves … the advantage is further
//!   smaller"* — [`maturity::DefectRamp`] models defect-density learning
//!   curves and replays any study over process age.
//! * Parameter robustness — [`sensitivity::elasticity`] measures
//!   d(ln cost)/d(ln parameter) for any scalar knob.
//! * Trade-off surfaces — [`pareto::pareto_min_indices`] extracts the
//!   non-dominated frontier from any two-objective sweep.
//! * Grid-scale exploration — [`portfolio::explore_portfolio`] evaluates
//!   the full (node × area × quantity × integration × chiplet count ×
//!   flow × reuse scheme) Cartesian grid in parallel and post-processes
//!   it into per-scheme winner tables, Pareto fronts and CSV. The §6
//!   single-system grid is its [`portfolio::ReuseScheme::None`] slice;
//!   every cell reports an [`explore::CellOutcome`].
//! * Adaptive exploration — [`refine::explore_portfolio_refined`]
//!   reaches the same winner tables and fronts by bisecting the area
//!   axis, skipping every configuration a monotone cost bound proves
//!   cannot win instead of exhausting the grid.
//!
//! # Layer role
//!
//! This is the *engine layer*: it sits directly on the cost model
//! (`actuary-cost`, `actuary-yield`, `actuary-tech`) and below the
//! boundary crates — `actuary-scenario` lowers parsed documents into
//! calls here, and `actuary-report` turns the typed results into bytes.
//! Everything in this crate is deterministic by contract (ordered
//! collections, no wall-clock, byte-identical results across thread
//! counts) so the layers above can diff and cache its output.
//! [`portfolio::SharedCoreCache`] is the piece built for long-running
//! callers: it memoizes quantity-independent core evaluations across
//! *separate* engine invocations, which is how the HTTP server reuses
//! work between overlapping requests. Its bounded map, [`cache::Lru`],
//! also holds the server's finished runs.
//!
//! # Examples
//!
//! ```
//! use actuary_dse::portfolio::{explore_portfolio, PortfolioSpace, ReuseScheme};
//! use actuary_tech::TechLibrary;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = TechLibrary::paper_defaults()?;
//! // One operating point × every integration × 1–5 chiplets.
//! let point = PortfolioSpace {
//!     nodes: vec!["5nm".to_string()],
//!     areas_mm2: vec![800.0],
//!     quantities: vec![10_000_000],
//!     schemes: vec![ReuseScheme::None],
//!     ..PortfolioSpace::default()
//! };
//! let winner = explore_portfolio(&lib, &point, 1)?.winners(ReuseScheme::None).remove(0);
//! let (best, _flow) = winner.best.expect("feasible");
//! assert!(best.chiplets >= 2, "an 800 mm² 5 nm system at volume wants chiplets");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod crossover;
mod engine;
pub mod explore;
pub mod maturity;
pub mod optimizer;
pub mod pareto;
pub mod portfolio;
pub mod refine;
pub mod sensitivity;
pub mod sweep;

pub use actuary_arch::ArchError;

/// Convenience result alias for this crate (errors are architecture-level).
pub type Result<T> = std::result::Result<T, ArchError>;
