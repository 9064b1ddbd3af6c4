//! The streaming [`Artifact`] abstraction: every tabular result the
//! workspace emits — exploration grids, winner tables, Pareto fronts,
//! sweeps, scenario costs and yields — is one *named table* with a column
//! schema, a streaming row source and metadata, serialized by exactly one
//! CSV writer.
//!
//! Before this layer existed, every emitter hand-rolled its own CSV string
//! builder (`to_csv` here, `winners_to_csv` there, an `IoSink` in the CLI),
//! which is the same drift-prone duplication the cached/direct cost split
//! once had. An [`Artifact`] inverts that: producers describe *what* the
//! table is (name, kind, columns) and stream rows through a callback;
//! [`Artifact::write_csv_to`] is the single serializer, and any
//! `fmt::Write` sink — a `String`, a file behind [`IoSink`], an HTTP
//! chunked-transfer stream — receives the same bytes.
//!
//! The type lives in the base layer for the same reason `write_csv_row`
//! does (the DSE crate must produce artifacts without depending upward);
//! `actuary_report::Artifact` is the canonical public name.
//!
//! # Examples
//!
//! ```
//! use actuary_units::Artifact;
//!
//! let table = Artifact::new("demo", "grid", &["x", "y"], |emit| {
//!     for i in 0..3u32 {
//!         emit(&[&i.to_string(), &(i * i).to_string()])?;
//!     }
//!     Ok(())
//! });
//! assert_eq!(table.name(), "demo");
//! assert_eq!(table.csv(), "x,y\n0,0\n1,1\n2,4\n");
//! ```

use std::fmt;
use std::io;

use crate::fmt::{write_csv_fields, write_csv_row};

/// The row callback an artifact's source streams into: called once per
/// row, in order, with one cell per column of the source's schema. The
/// cells are borrowed for the duration of the call only: the sink has
/// encoded them when it returns, so a source may lend labels it rendered
/// once and reuse one buffer for every row's numbers. A returned error
/// aborts the stream.
pub type RowEmit<'e> = dyn FnMut(&[&str]) -> fmt::Result + 'e;

/// A named tabular result: column schema + streaming row source +
/// metadata — the one shape every tabular emitter in the workspace
/// produces, serialized by exactly one CSV writer
/// ([`Artifact::write_csv_to`]) into any `fmt::Write` sink (a `String`, a
/// file or socket behind [`IoSink`], an HTTP chunked stream).
///
/// An artifact is *one-shot*: rendering it consumes it (the row source may
/// borrow and iterate expensive state); producers hand out a fresh
/// artifact per request.
pub struct Artifact<'a> {
    name: String,
    kind: &'static str,
    /// The columns written, in order (the source's minus any dropped).
    columns: Vec<String>,
    /// One flag per column of the source's schema: whether the writers
    /// write that cell of every row.
    keep: Vec<bool>,
    #[allow(clippy::type_complexity)]
    rows: Box<dyn FnOnce(&mut RowEmit<'_>) -> fmt::Result + 'a>,
}

impl fmt::Debug for Artifact<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Artifact")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("columns", &self.columns)
            .finish_non_exhaustive()
    }
}

impl<'a> Artifact<'a> {
    /// Creates an artifact from its schema and streaming row source.
    ///
    /// `name` identifies the table (it becomes the output file stem, e.g.
    /// `<scenario>-<name>.csv`); `kind` is coarse metadata (`"grid"`,
    /// `"winners"`, `"pareto"`, …) for consumers that route by shape
    /// rather than by name. `rows` is called exactly once, with a callback
    /// to invoke per row; rows must match the column count.
    pub fn new<F>(
        name: impl Into<String>,
        kind: &'static str,
        columns: &[&str],
        rows: F,
    ) -> Artifact<'a>
    where
        F: FnOnce(&mut RowEmit<'_>) -> fmt::Result + 'a,
    {
        Artifact {
            name: name.into(),
            kind,
            columns: columns.iter().map(|c| c.to_string()).collect(),
            keep: vec![true; columns.len()],
            rows: Box::new(rows),
        }
    }

    /// The artifact's name (output file stem).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The artifact's kind (`"grid"`, `"winners"`, `"pareto"`,
    /// `"pareto_program"`, `"sweep"`, `"costs"`, `"yields"`, `"table"`).
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// The column names, in emission order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The same artifact under a new name — producers emit generic names
    /// (`"grid"`), composers qualify them (`"fig10-grid"`).
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Artifact<'a> {
        self.name = name.into();
        self
    }

    /// The same artifact with the named columns projected away: the
    /// header and every row drop them together, names the artifact does
    /// not have are ignored, and the name and kind are kept. Dropping the
    /// columns of a one-value axis gives a narrower view of the same table
    /// (the single-system exploration grid is the `none`-scheme, one-flow
    /// grid without its `scheme`, `scheme_params` and `flow` columns).
    ///
    /// The projection is a column mask the writers apply as they encode
    /// each row; the row source is untouched.
    #[must_use]
    pub fn without_columns(mut self, dropped: &[&str]) -> Artifact<'a> {
        let mut written = self.columns.iter().map(|c| !dropped.contains(&c.as_str()));
        for keep in self.keep.iter_mut().filter(|keep| **keep) {
            *keep = written.next().unwrap_or(true);
        }
        self.columns.retain(|c| !dropped.contains(&c.as_str()));
        self
    }

    /// Streams the artifact as RFC-4180 CSV into `out` — header row, then
    /// every data row — without materializing the document. This is the
    /// one serializer every emitter in the workspace goes through.
    ///
    /// # Errors
    ///
    /// Propagates the sink's [`fmt::Error`] (infallible for `String`; an
    /// [`IoSink`] records the underlying [`io::Error`]).
    pub fn write_csv_to<W: fmt::Write + ?Sized>(self, out: &mut W) -> fmt::Result {
        write_csv_row(out, &self.columns)?;
        self.write_csv_rows_to(out)
    }

    /// Streams only the artifact's data rows as CSV — no header row. The
    /// continuation form of [`Artifact::write_csv_to`]: a consumer that
    /// already holds the header (an earlier segment of the same table on
    /// an incremental HTTP stream) appends these bytes and ends up with a
    /// document the one CSV serializer could have produced in one shot.
    ///
    /// # Errors
    ///
    /// Propagates the sink's [`fmt::Error`] (infallible for `String`; an
    /// [`IoSink`] records the underlying [`io::Error`]).
    pub fn write_csv_rows_to<W: fmt::Write + ?Sized>(self, out: &mut W) -> fmt::Result {
        let keep = self.keep;
        // Each row is encoded into one reused line, so the sink takes one
        // write per row rather than one per field and separator.
        let mut line = String::new();
        (self.rows)(&mut |row: &[&str]| {
            line.clear();
            write_csv_fields(&mut line, kept(row, &keep))?;
            out.write_str(&line)
        })
    }

    /// Renders the artifact as a CSV string (delegates to
    /// [`Artifact::write_csv_to`]).
    pub fn csv(self) -> String {
        let mut out = String::new();
        self.write_csv_to(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Streams the artifact as JSON lines (NDJSON) into `out`: one
    /// metadata object naming the table and its column schema, then one
    /// object per row keyed by column name.
    ///
    /// This is the *second sink* over the same streaming row source, not a
    /// second serializer family: emitters still describe their rows
    /// exactly once, and both encodings render the identical cells. A cell
    /// that is a valid JSON number literal is emitted verbatim as a bare
    /// number (so `jq`-style consumers get real numbers with the CSV's
    /// exact digits); every other cell becomes a JSON string.
    ///
    /// # Errors
    ///
    /// Propagates the sink's [`fmt::Error`] (infallible for `String`; an
    /// [`IoSink`] records the underlying [`io::Error`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use actuary_units::Artifact;
    ///
    /// let a = Artifact::new("demo", "grid", &["x", "label"], |emit| {
    ///     emit(&["1.5", "a,b"])
    /// });
    /// assert_eq!(
    ///     a.jsonl(),
    ///     "{\"artifact\":\"demo\",\"kind\":\"grid\",\"columns\":[\"x\",\"label\"]}\n\
    ///      {\"x\":1.5,\"label\":\"a,b\"}\n"
    /// );
    /// ```
    pub fn write_jsonl_to<W: fmt::Write + ?Sized>(self, out: &mut W) -> fmt::Result {
        out.write_str("{\"artifact\":")?;
        write_json_string(out, &self.name)?;
        out.write_str(",\"kind\":")?;
        write_json_string(out, self.kind)?;
        out.write_str(",\"columns\":[")?;
        for (i, column) in self.columns.iter().enumerate() {
            if i > 0 {
                out.write_str(",")?;
            }
            write_json_string(out, column)?;
        }
        out.write_str("]}\n")?;
        self.write_jsonl_rows_to(out)
    }

    /// Streams only the artifact's data rows as JSON lines — no metadata
    /// object. The continuation form of [`Artifact::write_jsonl_to`],
    /// mirroring [`Artifact::write_csv_rows_to`]: later segments of an
    /// incrementally streamed table append row objects under the schema
    /// the first segment already announced.
    ///
    /// # Errors
    ///
    /// Propagates the sink's [`fmt::Error`] (infallible for `String`; an
    /// [`IoSink`] records the underlying [`io::Error`]).
    pub fn write_jsonl_rows_to<W: fmt::Write + ?Sized>(self, out: &mut W) -> fmt::Result {
        // Each column's `"name":` key (`,"name":` after the first) is
        // escaped once here, not once per row.
        let mut keys = Vec::with_capacity(self.columns.len());
        for (i, column) in self.columns.iter().enumerate() {
            let mut key = String::from(if i > 0 { "," } else { "" });
            write_json_string(&mut key, column)?;
            key.push(':');
            keys.push(key);
        }
        let keep = self.keep;
        // One reused line per row, as in `write_csv_rows_to`.
        let mut line = String::new();
        (self.rows)(&mut |row: &[&str]| {
            line.clear();
            line.push('{');
            for (key, cell) in keys.iter().zip(kept(row, &keep)) {
                line.push_str(key);
                if is_json_number(cell) {
                    line.push_str(cell);
                } else {
                    write_json_string(&mut line, cell)?;
                }
            }
            line.push_str("}\n");
            out.write_str(&line)
        })
    }

    /// Renders the artifact as a JSON-lines string (delegates to
    /// [`Artifact::write_jsonl_to`]).
    pub fn jsonl(self) -> String {
        let mut out = String::new();
        self.write_jsonl_to(&mut out)
            .expect("writing to a String cannot fail");
        out
    }
}

/// The cells of `row` the column mask `keep` writes, in order.
fn kept<'r>(row: &'r [&'r str], keep: &'r [bool]) -> impl Iterator<Item = &'r str> + 'r {
    debug_assert_eq!(row.len(), keep.len(), "a row has one cell per column");
    row.iter()
        .zip(keep)
        .filter_map(|(cell, &keep)| keep.then_some(*cell))
}

/// Writes `s` as a JSON string literal, escaping per RFC 8259. Every byte
/// that needs an escape is ASCII, so the runs between them are whole
/// UTF-8 and each goes out with one write.
fn write_json_string<W: fmt::Write + ?Sized>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        match escape {
            Some(escape) => out.write_str(escape)?,
            None => write!(out, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// Whether `s` is a valid JSON number literal per the RFC 8259 grammar
/// (`-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`). Such cells are
/// emitted verbatim as bare numbers — the digits the CSV encoding carries
/// — so the check is strict: `007`, `1.`, `+1`, `NaN` and `inf` all fail
/// and fall back to strings.
fn is_json_number(s: &str) -> bool {
    let mut rest = s.strip_prefix('-').unwrap_or(s).as_bytes();
    // Integer part: `0` alone, or a non-zero digit followed by digits.
    match rest {
        [b'0', tail @ ..] => rest = tail,
        [b'1'..=b'9', ..] => {
            let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
            rest = &rest[digits..];
        }
        _ => return false,
    }
    // Optional fraction: `.` followed by one or more digits.
    if let [b'.', tail @ ..] = rest {
        let digits = tail.iter().take_while(|b| b.is_ascii_digit()).count();
        if digits == 0 {
            return false;
        }
        rest = &tail[digits..];
    }
    // Optional exponent: `e`/`E`, optional sign, one or more digits.
    if let [b'e' | b'E', tail @ ..] = rest {
        let tail = match tail {
            [b'+' | b'-', t @ ..] => t,
            t => t,
        };
        let digits = tail.iter().take_while(|b| b.is_ascii_digit()).count();
        if digits == 0 {
            return false;
        }
        rest = &tail[digits..];
    }
    rest.is_empty()
}

/// Adapts an [`io::Write`] sink to [`fmt::Write`] so artifacts can stream
/// straight into files and sockets; the underlying io error is kept for
/// the caller's message (a bare [`fmt::Error`] carries none).
///
/// # Examples
///
/// ```
/// use actuary_units::{Artifact, IoSink};
/// use std::fmt::Write as _;
///
/// let mut sink = IoSink::new(Vec::new());
/// sink.write_str("x,y\n").unwrap();
/// assert!(sink.take_error().is_none());
/// assert_eq!(sink.into_inner(), b"x,y\n");
/// ```
#[derive(Debug)]
pub struct IoSink<W: io::Write> {
    inner: W,
    error: Option<io::Error>,
}

impl<W: io::Write> IoSink<W> {
    /// Wraps an io sink.
    pub fn new(inner: W) -> Self {
        IoSink { inner, error: None }
    }

    /// The io error behind the last [`fmt::Error`], if any (taking it
    /// resets the sink's error state).
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }

    /// Unwraps the underlying io sink (e.g. to flush a `BufWriter`).
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: io::Write> fmt::Write for IoSink<W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.inner.write_all(s.as_bytes()).map_err(|e| {
            self.error = Some(e);
            fmt::Error
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Artifact<'static> {
        Artifact::new("t", "table", &["a", "b"], |emit| {
            emit(&["1", "x,y"])?;
            emit(&["2", ""])
        })
    }

    #[test]
    fn csv_escapes_and_terminates_rows() {
        assert_eq!(sample().csv(), "a,b\n1,\"x,y\"\n2,\n");
    }

    #[test]
    fn metadata_is_inspectable_before_rendering() {
        let a = sample();
        assert_eq!(a.name(), "t");
        assert_eq!(a.kind(), "table");
        assert_eq!(a.columns(), ["a", "b"]);
    }

    #[test]
    fn named_renames_without_touching_rows() {
        let a = sample().named("renamed");
        assert_eq!(a.name(), "renamed");
        assert_eq!(a.csv(), "a,b\n1,\"x,y\"\n2,\n");
    }

    #[test]
    fn without_columns_drops_header_and_cells_together() {
        let a = || {
            Artifact::new("t", "table", &["a", "b", "c"], |emit| {
                emit(&["1", "x,y", "p"])?;
                emit(&["2", "", "q"])
            })
        };
        let projected = a().without_columns(&["b", "not-a-column"]);
        assert_eq!(projected.name(), "t");
        assert_eq!(projected.kind(), "table");
        assert_eq!(projected.columns(), ["a", "c"]);
        assert_eq!(projected.csv(), "a,c\n1,p\n2,q\n");
        // The JSON-lines writer applies the same mask.
        assert_eq!(
            a().without_columns(&["b"]).jsonl(),
            concat!(
                "{\"artifact\":\"t\",\"kind\":\"table\",\"columns\":[\"a\",\"c\"]}\n",
                "{\"a\":1,\"c\":\"p\"}\n",
                "{\"a\":2,\"c\":\"q\"}\n",
            )
        );
        // Projections compose: dropping `a` from the projected view keeps
        // the source's third cell, not its second.
        let twice = a().without_columns(&["b"]).without_columns(&["a"]);
        assert_eq!(twice.columns(), ["c"]);
        assert_eq!(twice.csv(), "c\np\nq\n");
        // Dropping nothing is the identity.
        assert_eq!(sample().without_columns(&[]).csv(), sample().csv());
    }

    #[test]
    fn streaming_into_a_string_matches_csv() {
        let mut out = String::new();
        sample().write_csv_to(&mut out).unwrap();
        assert_eq!(out, sample().csv());
    }

    #[test]
    fn empty_artifact_is_just_the_header() {
        let a = Artifact::new("empty", "grid", &["only"], |_| Ok(()));
        assert_eq!(a.csv(), "only\n");
    }

    #[test]
    fn row_source_can_borrow_local_state() {
        let rows: Vec<Vec<String>> = vec![vec!["r".to_string()]];
        let a = Artifact::new("borrow", "table", &["c"], |emit| {
            for row in &rows {
                let cells: Vec<&str> = row.iter().map(String::as_str).collect();
                emit(&cells)?;
            }
            Ok(())
        });
        assert_eq!(a.csv(), "c\nr\n");
    }

    #[test]
    fn jsonl_emits_meta_line_then_keyed_rows() {
        assert_eq!(
            sample().jsonl(),
            concat!(
                "{\"artifact\":\"t\",\"kind\":\"table\",\"columns\":[\"a\",\"b\"]}\n",
                "{\"a\":1,\"b\":\"x,y\"}\n",
                "{\"a\":2,\"b\":\"\"}\n",
            )
        );
    }

    #[test]
    fn jsonl_escapes_strings_and_passes_numbers_verbatim() {
        let a = Artifact::new("esc", "table", &["q\"c", "v"], |emit| {
            emit(&["say \"hi\"\n", "-12.5e3"])?;
            emit(&["tab\there\u{1f}ü\\", "007"])
        });
        assert_eq!(
            a.jsonl(),
            concat!(
                "{\"artifact\":\"esc\",\"kind\":\"table\",\"columns\":[\"q\\\"c\",\"v\"]}\n",
                "{\"q\\\"c\":\"say \\\"hi\\\"\\n\",\"v\":-12.5e3}\n",
                "{\"q\\\"c\":\"tab\\there\\u001fü\\\\\",\"v\":\"007\"}\n",
            )
        );
    }

    #[test]
    fn json_number_grammar_is_strict() {
        for ok in [
            "0", "-0", "7", "123", "1.5", "-0.25", "1e3", "2.5E-7", "9e+2",
        ] {
            assert!(is_json_number(ok), "{ok:?} must be a JSON number");
        }
        for bad in [
            "", "-", "007", "1.", ".5", "+1", "1e", "1e+", "NaN", "inf", "0x10", "1_000", "1 ",
        ] {
            assert!(!is_json_number(bad), "{bad:?} must fall back to a string");
        }
    }

    #[test]
    fn rows_only_writers_complete_a_headed_segment() {
        // Header from one rendering plus rows-only continuations must be
        // byte-identical to the one-shot serializers — the invariant the
        // incremental HTTP stream relies on.
        let mut csv = String::new();
        write_csv_row(&mut csv, &["a", "b"]).unwrap();
        sample().write_csv_rows_to(&mut csv).unwrap();
        assert_eq!(csv, sample().csv());

        let full = sample().jsonl();
        let (meta, _) = full.split_once('\n').unwrap();
        let mut jsonl = format!("{meta}\n");
        sample().write_jsonl_rows_to(&mut jsonl).unwrap();
        assert_eq!(jsonl, full);
    }

    #[test]
    fn jsonl_and_csv_render_the_same_cells() {
        // The two sinks consume the same row source; every CSV cell must
        // appear (escaped or verbatim) in the JSON-lines encoding.
        let jsonl = sample().jsonl();
        assert!(jsonl.contains("\"x,y\""), "{jsonl}");
        assert!(jsonl.contains(":1,"), "{jsonl}");
    }

    #[test]
    fn io_sink_round_trips_bytes_and_keeps_errors() {
        /// A writer that fails after `cap` bytes, like a full disk.
        struct Full {
            cap: usize,
        }
        impl io::Write for Full {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if buf.len() > self.cap {
                    Err(io::Error::other("disk full"))
                } else {
                    self.cap -= buf.len();
                    Ok(buf.len())
                }
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut ok = IoSink::new(Vec::new());
        sample().write_csv_to(&mut ok).unwrap();
        assert_eq!(ok.into_inner(), sample().csv().into_bytes());

        let mut full = IoSink::new(Full { cap: 4 });
        assert!(sample().write_csv_to(&mut full).is_err());
        let err = full.take_error().expect("the io cause must be kept");
        assert!(err.to_string().contains("disk full"));
        assert!(full.take_error().is_none(), "taking resets the state");
    }
}
