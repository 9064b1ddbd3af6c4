use std::fmt;

/// A simple text table with fixed headers and string cells.
///
/// Renders as aligned plain text ([`Table::render`]) or GitHub-flavoured
/// Markdown ([`Table::to_markdown`]); its CSV is its [`Table::artifact`].
///
/// # Examples
///
/// ```
/// use actuary_report::Table;
///
/// let mut t = Table::new(vec!["node", "yield"]);
/// t.push_row(vec!["5nm".into(), "43.0%".into()]);
/// t.push_row(vec!["14nm".into(), "53.8%".into()]);
/// assert_eq!(t.row_count(), 2);
/// let text = t.render();
/// assert!(text.contains("5nm"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells, long rows are
    /// truncated to the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        let mut row = row;
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows (each padded/truncated to the header width).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.headers.len()
    }

    /// Column widths: max display length of header and cells.
    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        widths
    }

    /// Renders aligned plain text with a header separator.
    pub fn render(&self) -> String {
        let widths = self.widths();
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let parts: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<width$}", width = w))
                .collect();
            parts.join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("| ");
        out.push_str(&self.headers.join(" | "));
        out.push_str(" |\n|");
        for _ in &self.headers {
            out.push_str("---|");
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str("| ");
            out.push_str(&row.join(" | "));
            out.push_str(" |\n");
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(vec!["name", "value"]);
        t.push_row(vec!["alpha".into(), "1".into()]);
        t.push_row(vec!["b".into(), "22.5".into()]);
        t
    }

    #[test]
    fn alignment_pads_columns() {
        let text = sample().render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // header, separator, 2 rows
        assert!(lines[0].starts_with("name "));
        assert!(lines[2].starts_with("alpha"));
        // All rows have the same rendered width.
        assert!(lines[2].trim_end().len() <= lines[0].len() + 2);
    }

    #[test]
    fn markdown_shape() {
        let md = sample().to_markdown();
        assert!(md.starts_with("| name | value |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| alpha | 1 |"));
    }

    #[test]
    fn rows_are_padded_and_truncated() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push_row(vec!["only".into()]);
        t.push_row(vec!["x".into(), "y".into(), "z".into()]);
        assert_eq!(t.row_count(), 2);
        let md = t.to_markdown();
        assert!(md.contains("| only |  |"));
        assert!(!md.contains('z'), "extra cells are dropped");
    }

    #[test]
    fn display_matches_render() {
        let t = sample();
        assert_eq!(t.to_string(), t.render());
    }
}
