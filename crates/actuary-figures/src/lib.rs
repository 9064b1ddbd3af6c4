//! Reproduction of every quantitative figure of *Chiplet Actuary*
//! (DAC 2022).
//!
//! The paper's evaluation consists of Figures 2, 4, 5, 6, 8, 9 and 10
//! (1, 3 and 7 are conceptual diagrams). Each `figN` module builds the
//! exact dataset behind the corresponding figure from a
//! [`TechLibrary`](actuary_tech::TechLibrary), renders it as text, and
//! returns machine-checkable [`ShapeCheck`]s for the qualitative claims the
//! paper's prose makes about that figure. The same datasets feed the CLI's
//! `actuary repro --figure N` and `actuary experiments`, whose outputs
//! are pinned byte for byte under `examples/studies/`.
//!
//! # Examples
//!
//! ```
//! use actuary_figures::fig2;
//! use actuary_tech::TechLibrary;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = TechLibrary::paper_defaults()?;
//! let fig = fig2::compute(&lib)?;
//! assert!(fig.checks().iter().all(|c| c.pass), "{:#?}", fig.checks());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod common;
pub mod ext;
pub mod fig10;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig8;
pub mod fig9;

pub use common::ShapeCheck;

/// Convenience result alias (errors are architecture-level).
pub type Result<T> = std::result::Result<T, actuary_arch::ArchError>;
