//! Unit and money newtypes for the `chiplet-actuary` cost model.
//!
//! The cost model mixes several scalar quantities that are all represented by
//! floating point numbers but must never be confused with one another: silicon
//! areas, dollar amounts, probabilities (yields) and production quantities.
//! Following the newtype guideline (C-NEWTYPE), this crate wraps each of them
//! in a dedicated type with validated constructors and only the arithmetic
//! that is dimensionally meaningful.
//!
//! # Examples
//!
//! ```
//! use actuary_units::{Area, Money, Prob, Quantity};
//!
//! # fn main() -> Result<(), actuary_units::UnitError> {
//! let die = Area::from_mm2(74.0)?;
//! let wafer_price = Money::from_usd(9_346.0)?;
//! let bond_yield = Prob::new(0.99)?;
//! let volume = Quantity::new(500_000);
//!
//! // Dimensional arithmetic is checked by the type system:
//! let two_dies = die * 2.0;            // Area
//! let per_unit = wafer_price / 100.0;  // Money
//! let pair = bond_yield * bond_yield;  // Prob
//! assert!(two_dies.mm2() > die.mm2());
//! assert!(per_unit < wafer_price);
//! assert!(pair.value() < bond_yield.value());
//! assert_eq!(volume.count(), 500_000);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod area;
mod artifact;
mod error;
mod fmt;
mod money;
mod prob;
mod quantity;

pub use area::Area;
pub use artifact::{Artifact, IoSink, RowEmit};
pub use error::UnitError;
pub use fmt::{fmt_thousands, format_percent, format_ratio, write_csv_row, write_fixed};
pub use money::Money;
pub use prob::Prob;
pub use quantity::Quantity;

/// Convenience result alias used across the units crate.
pub type Result<T> = std::result::Result<T, UnitError>;
