//! Terminal-friendly reporting for the *Chiplet Actuary* reproduction:
//! tables, stacked-bar charts, line charts, CSV, Markdown — and the
//! streaming [`Artifact`] layer every machine-readable result goes
//! through (see [`artifact`](crate::Artifact)).
//!
//! The paper's evaluation figures are stacked bar charts (cost breakdowns
//! per configuration) and line plots (yield/cost vs area). This crate
//! renders both as plain text so every experiment can be inspected in a
//! terminal, diffed in CI, and pasted into `EXPERIMENTS.md` — replacing the
//! original matplotlib pipeline.
//!
//! # Layer role
//!
//! In the workspace DAG this crate is the *output boundary*, one layer
//! above the engines (`actuary-mc`, `actuary-dse`) and beside
//! `actuary-scenario`: engines produce typed rows, and this crate is the
//! only place those rows become bytes. The workspace's single-serializer
//! invariant (enforced by `actuary-lint`) pins all row formatting here
//! and in `actuary-units`: [`Artifact`] holds the typed rows once, and
//! every encoding — CSV ([`Artifact::write_csv_to`]) and JSON lines
//! ([`Artifact::write_jsonl_to`]) — is a *sink* over that same data, not
//! a second serializer. That is what lets the CLI, the HTTP server and
//! the committed goldens stay byte-identical by construction: there is
//! exactly one formatter per value, reused everywhere.
//!
//! # Examples
//!
//! ```
//! use actuary_report::{StackedBarChart, Table};
//!
//! let mut chart = StackedBarChart::new("Normalized RE cost");
//! chart.push_bar("SoC", &[("raw chips", 0.6), ("defects", 0.4)]);
//! chart.push_bar("MCM", &[("raw chips", 0.55), ("defects", 0.25)]);
//! let text = chart.render(40);
//! assert!(text.contains("SoC"));
//!
//! let mut table = Table::new(vec!["area", "yield"]);
//! table.push_row(vec!["100".to_string(), "91.4%".to_string()]);
//! assert!(table.to_markdown().contains("| area |"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod artifact;
mod chart;
mod table;

pub use artifact::{Artifact, IoSink, RowEmit};
pub use chart::{LineChart, StackedBarChart};
pub use table::Table;
