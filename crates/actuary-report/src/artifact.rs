//! The canonical home of the streaming [`Artifact`] output layer.
//!
//! Every tabular result in the workspace — exploration grids, winner
//! tables, Pareto fronts, sweeps, scenario costs/yields, figure tables —
//! is emitted as an [`Artifact`]: a named table (column schema + streaming
//! row source + metadata) serialized by exactly one CSV writer,
//! [`Artifact::write_csv_to`], with [`Artifact::write_jsonl_to`] as the
//! second *sink* over the same row source (JSON lines for `Accept:
//! application/json` clients — same cells, keyed by column name). Sinks
//! are anything `fmt::Write`; [`IoSink`] adapts files and sockets
//! (`io::Write`), which is how `actuary explore --out`, `actuary run
//! --out-dir` and the `actuary serve` HTTP responses all stream the same
//! bytes.
//!
//! Like the CSV primitives, the mechanics live in the base layer
//! (`actuary-units`) so the DSE and scenario crates can produce artifacts
//! without depending upward on this crate; they are re-exported here to
//! keep `actuary_report::{Artifact, IoSink}` the canonical public names.

// See the module docs above: the type lives in `actuary-units` for DAG
// reasons, this re-export is the canonical name.
pub use actuary_units::{Artifact, IoSink, RowEmit};

use crate::table::Table;

impl Table {
    /// The table as a streaming [`Artifact`] (kind `"table"`), borrowing
    /// the rows: its CSV is the header line, then one line per row.
    pub fn artifact(&self, name: impl Into<String>) -> Artifact<'_> {
        let columns: Vec<&str> = self.headers().iter().map(String::as_str).collect();
        Artifact::new(name, "table", &columns, move |emit| {
            let mut cells = Vec::with_capacity(self.headers().len());
            for row in self.rows() {
                cells.clear();
                cells.extend(row.iter().map(String::as_str));
                emit(&cells)?;
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_artifact_renders_header_and_escaped_rows() {
        let mut t = Table::new(vec!["name", "value"]);
        t.push_row(vec!["a,b".into(), "1".into()]);
        t.push_row(vec!["plain".into(), "2.5".into()]);
        let artifact = t.artifact("demo");
        assert_eq!(artifact.name(), "demo");
        assert_eq!(artifact.kind(), "table");
        assert_eq!(artifact.csv(), "name,value\n\"a,b\",1\nplain,2.5\n");
    }
}
