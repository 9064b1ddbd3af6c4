//! A dependency-free parser for the TOML subset scenario files use.
//!
//! The offline build has no registry TOML or serialization crates, so this
//! crate owns its own lexer/parser. The subset covers everything scenario files need:
//!
//! * comments (`# …`), blank lines;
//! * `[table]` and `[[array-of-tables]]` headers with dotted paths;
//! * `key = value` with bare (`[A-Za-z0-9_-]`) or quoted keys, including
//!   dotted key paths;
//! * basic `"…"` strings (with `\"`, `\\`, `\n`, `\r`, `\t`, `\uXXXX`
//!   escapes) and literal `'…'` strings;
//! * integers (with `_` separators), floats, booleans;
//! * single-line arrays of any supported value.
//!
//! Multi-line strings/arrays, inline tables and dates are *not* supported;
//! they fail with a diagnostic naming the line and column, as does every
//! other malformed construct. The parser never panics on any input — this
//! is asserted by a proptest over arbitrary strings.

use std::fmt;

/// A source position: 1-based line and column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}", self.line, self.col)
    }
}

/// A parse failure, pointing at the offending line and column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Where the problem is.
    pub pos: Pos,
    /// What the problem is.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A parsed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string (basic or literal).
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A single-line array; elements keep their own positions.
    Array(Vec<(Value, Pos)>),
    /// A sub-table (`[a.b]` or a dotted key prefix).
    Table(Table),
    /// An array of tables (`[[a.b]]`).
    Tables(Vec<Table>),
}

impl Value {
    /// Human name of the value's type, for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "a string",
            Value::Int(_) => "an integer",
            Value::Float(_) => "a float",
            Value::Bool(_) => "a boolean",
            Value::Array(_) => "an array",
            Value::Table(_) => "a table",
            Value::Tables(_) => "an array of tables",
        }
    }
}

/// One `key = value` (or sub-table) entry of a table.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The key, unquoted.
    pub key: String,
    /// Position of the key (for "unknown key" diagnostics).
    pub key_pos: Pos,
    /// Position of the value (for type diagnostics).
    pub value_pos: Pos,
    /// The value.
    pub value: Value,
}

/// A table: entries in insertion order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    /// Position of the table header (or of the first key that implied it).
    pub pos: Pos,
    entries: Vec<Entry>,
    /// Whether the table was named by an explicit `[header]` (duplicate
    /// explicit headers are rejected).
    explicit: bool,
}

impl Default for Pos {
    fn default() -> Self {
        Pos { line: 1, col: 1 }
    }
}

impl Table {
    /// An empty table at `pos`. A front end that reads something other
    /// than TOML text (the CLI reads flags) builds its document from these
    /// and [`Table::push`], never by writing TOML text.
    pub fn new(pos: Pos) -> Self {
        Table {
            pos,
            entries: Vec::new(),
            explicit: false,
        }
    }

    /// Appends `key = value`, its key and value both at `pos`.
    pub fn push(&mut self, key: &str, pos: Pos, value: Value) {
        self.entries.push(Entry {
            key: key.to_string(),
            key_pos: pos,
            value_pos: pos,
            value,
        });
    }

    /// Looks up an entry by key.
    pub fn get(&self, key: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.key == key)
    }

    /// All entries, in insertion order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn get_mut(&mut self, key: &str) -> Option<&mut Entry> {
        self.entries.iter_mut().find(|e| e.key == key)
    }
}

/// Parses a complete document into its root table.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the line and column of the first
/// malformed construct.
///
/// # Examples
///
/// ```
/// use actuary_scenario::toml::{parse, Value};
///
/// let doc = parse("name = \"demo\"\n[nodes.7nm]\nwafer_price_usd = 9_346\n").unwrap();
/// assert!(matches!(doc.get("name").unwrap().value, Value::Str(_)));
/// let err = parse("flow = chip-last\n").unwrap_err();
/// assert_eq!((err.pos.line, err.pos.col), (1, 8));
/// ```
pub fn parse(input: &str) -> Result<Table, ParseError> {
    let mut root = Table::new(Pos { line: 1, col: 1 });
    // Path of the table the current `key = value` lines land in; empty =
    // root. Re-resolved per line (paths are short).
    let mut current: Vec<String> = Vec::new();
    for (index, raw_line) in input.lines().enumerate() {
        let line_no = (index + 1) as u32;
        let mut cur = Cursor::new(raw_line, line_no);
        cur.skip_ws();
        if cur.at_end_or_comment() {
            continue;
        }
        if cur.peek() == Some('[') {
            current = parse_header(&mut cur, &mut root)?;
        } else {
            parse_key_value(&mut cur, &mut root, &current)?;
        }
    }
    Ok(root)
}

/// Character cursor over one line, tracking the column.
struct Cursor {
    chars: Vec<char>,
    i: usize,
    line: u32,
}

impl Cursor {
    fn new(line: &str, line_no: u32) -> Self {
        Cursor {
            chars: line.chars().collect(),
            i: 0,
            line: line_no,
        }
    }

    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: (self.i + 1) as u32,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.i).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.i += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t')) {
            self.i += 1;
        }
    }

    /// Whether the rest of the line is only whitespace or a comment.
    fn at_end_or_comment(&self) -> bool {
        matches!(self.peek(), None | Some('#'))
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            pos: self.pos(),
            message: message.into(),
        }
    }

    /// Errors unless the rest of the line is whitespace/comment.
    fn expect_line_end(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.at_end_or_comment() {
            Ok(())
        } else {
            Err(self.error(format!(
                "unexpected trailing content {:?}",
                self.chars[self.i..].iter().collect::<String>()
            )))
        }
    }
}

fn is_bare_key_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.'
}

/// Parses one key segment: bare (without dots) or quoted.
fn parse_key_segment(cur: &mut Cursor) -> Result<(String, Pos), ParseError> {
    cur.skip_ws();
    let pos = cur.pos();
    match cur.peek() {
        Some('"') | Some('\'') => {
            let s = parse_string(cur)?;
            Ok((s, pos))
        }
        Some(c) if is_bare_key_char(c) && c != '.' => {
            let mut key = String::new();
            while let Some(c) = cur.peek() {
                if is_bare_key_char(c) && c != '.' {
                    key.push(c);
                    cur.i += 1;
                } else {
                    break;
                }
            }
            Ok((key, pos))
        }
        Some(c) => Err(cur.error(format!("expected a key, got {c:?}"))),
        None => Err(cur.error("expected a key, got end of line")),
    }
}

/// Parses a dotted key path (`a.b."c d"`).
fn parse_key_path(cur: &mut Cursor) -> Result<Vec<(String, Pos)>, ParseError> {
    let mut path = vec![parse_key_segment(cur)?];
    loop {
        cur.skip_ws();
        if cur.peek() == Some('.') {
            cur.bump();
            path.push(parse_key_segment(cur)?);
        } else {
            return Ok(path);
        }
    }
}

/// Handles a `[path]` / `[[path]]` header line; returns the new current
/// path.
fn parse_header(cur: &mut Cursor, root: &mut Table) -> Result<Vec<String>, ParseError> {
    let header_pos = cur.pos();
    cur.bump(); // consume '['
    let array = cur.peek() == Some('[');
    if array {
        cur.bump();
    }
    let path = parse_key_path(cur)?;
    cur.skip_ws();
    for _ in 0..if array { 2 } else { 1 } {
        if cur.peek() == Some(']') {
            cur.bump();
        } else {
            return Err(cur.error(if array {
                "expected `]]` closing the array-of-tables header"
            } else {
                "expected `]` closing the table header"
            }));
        }
    }
    cur.expect_line_end()?;

    // Walk to the parent of the last segment, descending into the newest
    // element of any array-of-tables on the way.
    let Some((last_entry, parents)) = path.split_last() else {
        return Err(cur.error("expected at least one key segment in the table header"));
    };
    let (last, last_pos) = last_entry.clone();
    let mut table = root;
    for (segment, seg_pos) in parents {
        table = descend(table, segment, *seg_pos)?;
    }
    if array {
        match table.get_mut(&last) {
            None => {
                table.entries.push(Entry {
                    key: last,
                    key_pos: last_pos,
                    value_pos: header_pos,
                    value: Value::Tables(vec![Table::new(header_pos)]),
                });
            }
            Some(entry) => match &mut entry.value {
                Value::Tables(tables) => tables.push(Table::new(header_pos)),
                other => {
                    return Err(ParseError {
                        pos: last_pos,
                        message: format!(
                            "key `{}` is already defined as {}, cannot extend it as an \
                             array of tables",
                            entry.key,
                            other.type_name()
                        ),
                    })
                }
            },
        }
    } else {
        match table.get_mut(&last) {
            None => {
                let mut t = Table::new(header_pos);
                t.explicit = true;
                table.entries.push(Entry {
                    key: last,
                    key_pos: last_pos,
                    value_pos: header_pos,
                    value: Value::Table(t),
                });
            }
            Some(entry) => match &mut entry.value {
                Value::Table(t) if !t.explicit => t.explicit = true,
                Value::Table(_) => {
                    return Err(ParseError {
                        pos: last_pos,
                        message: format!("table `{}` is defined twice", entry.key),
                    })
                }
                other => {
                    return Err(ParseError {
                        pos: last_pos,
                        message: format!(
                            "key `{}` is already defined as {}, cannot redefine it as a table",
                            entry.key,
                            other.type_name()
                        ),
                    })
                }
            },
        }
    }
    Ok(path.into_iter().map(|(s, _)| s).collect())
}

/// Descends one segment, creating an implicit table if absent and entering
/// the last element of an array of tables.
fn descend<'t>(table: &'t mut Table, segment: &str, pos: Pos) -> Result<&'t mut Table, ParseError> {
    let idx = match table.entries.iter().position(|e| e.key == segment) {
        Some(idx) => idx,
        None => {
            table.entries.push(Entry {
                key: segment.to_string(),
                key_pos: pos,
                value_pos: pos,
                value: Value::Table(Table::new(pos)),
            });
            table.entries.len() - 1
        }
    };
    match &mut table.entries[idx].value {
        Value::Table(t) => Ok(t),
        Value::Tables(tables) => match tables.last_mut() {
            Some(t) => Ok(t),
            None => Err(ParseError {
                pos,
                message: format!("array of tables `{segment}` has no elements"),
            }),
        },
        other => Err(ParseError {
            pos,
            message: format!(
                "key `{segment}` is already defined as {}, cannot use it as a table",
                other.type_name()
            ),
        }),
    }
}

/// Handles a `key = value` line inside the table at `current`.
fn parse_key_value(
    cur: &mut Cursor,
    root: &mut Table,
    current: &[String],
) -> Result<(), ParseError> {
    let path = parse_key_path(cur)?;
    cur.skip_ws();
    if cur.peek() != Some('=') {
        return Err(cur.error("expected `=` after the key"));
    }
    cur.bump();
    cur.skip_ws();
    let value_pos = cur.pos();
    let value = parse_value(cur)?;
    cur.expect_line_end()?;

    let Some((last_entry, parents)) = path.split_last() else {
        return Err(cur.error("expected a key before `=`"));
    };
    let (key, key_pos) = last_entry.clone();
    let mut table = root;
    for segment in current {
        // The current path was established by a header, so this never
        // fails; descend re-resolves it to satisfy the borrow checker.
        table = descend(table, segment, Pos::default())?;
    }
    for (segment, seg_pos) in parents {
        table = descend(table, segment, *seg_pos)?;
    }
    if let Some(existing) = table.get(&key) {
        return Err(ParseError {
            pos: key_pos,
            message: format!(
                "duplicate key `{key}` (first defined at {})",
                existing.key_pos
            ),
        });
    }
    table.entries.push(Entry {
        key,
        key_pos,
        value_pos,
        value,
    });
    Ok(())
}

/// Parses one value at the cursor.
fn parse_value(cur: &mut Cursor) -> Result<Value, ParseError> {
    match cur.peek() {
        Some('"') | Some('\'') => Ok(Value::Str(parse_string(cur)?)),
        Some('[') => parse_array(cur),
        Some('{') => Err(cur.error("inline tables are not supported; use a [table] header")),
        Some(_) => parse_scalar(cur),
        None => Err(cur.error("expected a value, got end of line")),
    }
}

/// Parses a basic or literal string (the opening quote is at the cursor).
fn parse_string(cur: &mut Cursor) -> Result<String, ParseError> {
    let Some(quote) = cur.bump() else {
        return Err(cur.error("expected a string"));
    };
    let mut out = String::new();
    loop {
        match cur.bump() {
            None => {
                return Err(cur.error(format!(
                    "unterminated string (multi-line strings are not supported); \
                     expected closing {quote:?}"
                )))
            }
            Some(c) if c == quote => return Ok(out),
            Some('\\') if quote == '"' => {
                let escape_pos = cur.pos();
                match cur.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{0008}'),
                    Some('f') => out.push('\u{000C}'),
                    Some('u') => {
                        let mut code = String::new();
                        for _ in 0..4 {
                            match cur.bump() {
                                Some(h) if h.is_ascii_hexdigit() => code.push(h),
                                _ => {
                                    return Err(ParseError {
                                        pos: escape_pos,
                                        message: "\\u escape needs four hex digits".to_string(),
                                    })
                                }
                            }
                        }
                        let n = u32::from_str_radix(&code, 16).map_err(|_| ParseError {
                            pos: escape_pos,
                            message: "\\u escape needs four hex digits".to_string(),
                        })?;
                        match char::from_u32(n) {
                            Some(c) => out.push(c),
                            None => {
                                return Err(ParseError {
                                    pos: escape_pos,
                                    message: format!("\\u{code} is not a valid character"),
                                })
                            }
                        }
                    }
                    other => {
                        return Err(ParseError {
                            pos: escape_pos,
                            message: match other {
                                Some(c) => format!("unsupported escape `\\{c}`"),
                                None => "unsupported escape at end of line".to_string(),
                            },
                        })
                    }
                }
            }
            Some(c) => out.push(c),
        }
    }
}

/// Parses a single-line array.
fn parse_array(cur: &mut Cursor) -> Result<Value, ParseError> {
    cur.bump(); // consume '['
    let mut items = Vec::new();
    loop {
        cur.skip_ws();
        match cur.peek() {
            None | Some('#') => {
                return Err(cur.error(
                    "unterminated array (multi-line arrays are not supported); expected `]`",
                ))
            }
            Some(']') => {
                cur.bump();
                return Ok(Value::Array(items));
            }
            _ => {
                let pos = cur.pos();
                let value = parse_value(cur)?;
                items.push((value, pos));
                cur.skip_ws();
                match cur.peek() {
                    Some(',') => {
                        cur.bump();
                    }
                    Some(']') | None | Some('#') => {}
                    Some(c) => {
                        return Err(
                            cur.error(format!("expected `,` or `]` in the array, got {c:?}"))
                        )
                    }
                }
            }
        }
    }
}

/// Parses a boolean or number token.
fn parse_scalar(cur: &mut Cursor) -> Result<Value, ParseError> {
    let start_pos = cur.pos();
    let mut token = String::new();
    while let Some(c) = cur.peek() {
        if c.is_ascii_alphanumeric() || matches!(c, '+' | '-' | '.' | '_') {
            token.push(c);
            cur.i += 1;
        } else {
            break;
        }
    }
    if token.is_empty() {
        return Err(cur.error(format!(
            "expected a value, got {:?}",
            cur.peek().map(String::from).unwrap_or_default()
        )));
    }
    match token.as_str() {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    let bad = |what: &str| ParseError {
        pos: start_pos,
        message: format!("invalid {what} {token:?}"),
    };
    let numeric = token.replace('_', "");
    if numeric.contains(['.', 'e', 'E']) {
        let f: f64 = numeric.parse().map_err(|_| bad("float"))?;
        if !f.is_finite() {
            return Err(bad("float"));
        }
        Ok(Value::Float(f))
    } else if numeric.starts_with("0x") || numeric.starts_with("0o") || numeric.starts_with("0b") {
        Err(ParseError {
            pos: start_pos,
            message: format!("non-decimal integers are not supported, got {token:?}"),
        })
    } else {
        numeric.parse().map(Value::Int).map_err(|_| ParseError {
            pos: start_pos,
            message: format!(
                "invalid value {token:?} (expected a string, number, boolean, or array)"
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pos_of(err: &ParseError) -> (u32, u32) {
        (err.pos.line, err.pos.col)
    }

    #[test]
    fn parses_scalars_and_positions() {
        let doc = parse(concat!(
            "# a scenario\n",
            "name = \"demo\"\n",
            "count = 4\n",
            "price = 9_346.5\n",
            "on = true\n",
        ))
        .unwrap();
        assert_eq!(doc.get("name").unwrap().value, Value::Str("demo".into()));
        assert_eq!(doc.get("count").unwrap().value, Value::Int(4));
        assert_eq!(doc.get("price").unwrap().value, Value::Float(9346.5));
        assert_eq!(doc.get("on").unwrap().value, Value::Bool(true));
        let entry = doc.get("price").unwrap();
        assert_eq!((entry.key_pos.line, entry.key_pos.col), (4, 1));
        assert_eq!((entry.value_pos.line, entry.value_pos.col), (4, 9));
    }

    #[test]
    fn parses_tables_and_arrays_of_tables() {
        let doc = parse(concat!(
            "[nodes.7nm]\n",
            "defect = 0.09\n",
            "[nodes.7nm.d2d]\n",
            "area_fraction = 0.1\n",
            "[[portfolio]]\n",
            "name = \"a\"\n",
            "[[portfolio]]\n",
            "name = \"b\"\n",
            "[[portfolio.system]]\n",
            "name = \"sys\"\n",
        ))
        .unwrap();
        let Value::Table(nodes) = &doc.get("nodes").unwrap().value else {
            panic!("nodes must be a table");
        };
        let Value::Table(n7) = &nodes.get("7nm").unwrap().value else {
            panic!("7nm must be a table");
        };
        assert_eq!(n7.get("defect").unwrap().value, Value::Float(0.09));
        assert!(matches!(n7.get("d2d").unwrap().value, Value::Table(_)));
        let Value::Tables(jobs) = &doc.get("portfolio").unwrap().value else {
            panic!("portfolio must be an array of tables");
        };
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].get("name").unwrap().value, Value::Str("a".into()));
        // The nested [[portfolio.system]] lands in the *last* element.
        assert!(jobs[0].get("system").is_none());
        assert!(matches!(
            jobs[1].get("system").unwrap().value,
            Value::Tables(_)
        ));
    }

    #[test]
    fn parses_arrays_and_dotted_keys() {
        let doc = parse(concat!(
            "areas = [100, 200.5, 300]\n",
            "labels = [\"a\", 'b',]\n",
            "d2d.area_fraction = 0.1\n",
        ))
        .unwrap();
        let Value::Array(areas) = &doc.get("areas").unwrap().value else {
            panic!("array");
        };
        assert_eq!(areas.len(), 3);
        assert_eq!(areas[1].0, Value::Float(200.5));
        assert_eq!((areas[1].1.line, areas[1].1.col), (1, 15));
        let Value::Array(labels) = &doc.get("labels").unwrap().value else {
            panic!("array");
        };
        assert_eq!(labels.len(), 2);
        let Value::Table(d2d) = &doc.get("d2d").unwrap().value else {
            panic!("dotted key must create a table");
        };
        assert_eq!(d2d.get("area_fraction").unwrap().value, Value::Float(0.1));
    }

    #[test]
    fn string_escapes() {
        let doc = parse("s = \"a\\\"b\\\\c\\n\\u0041\"\n").unwrap();
        assert_eq!(doc.get("s").unwrap().value, Value::Str("a\"b\\c\nA".into()));
    }

    #[test]
    fn rejects_malformed_input_with_positions() {
        // (input, expected line, expected column, message fragment)
        let cases: &[(&str, u32, u32, &str)] = &[
            ("flow = chip-last\n", 1, 8, "invalid value"),
            ("a = 1\na = 2\n", 2, 1, "duplicate key `a`"),
            ("a = \"unterminated\n", 1, 18, "unterminated string"),
            ("a = [1, 2\n", 1, 10, "unterminated array"),
            ("a = {b = 1}\n", 1, 5, "inline tables are not supported"),
            ("[t]\n[t]\n", 2, 2, "defined twice"),
            ("a = 1\n[a]\n", 2, 2, "already defined as an integer"),
            ("= 3\n", 1, 1, "expected a key"),
            ("a 3\n", 1, 3, "expected `=`"),
            ("a = 3 junk\n", 1, 7, "trailing content"),
            ("[unclosed\n", 1, 10, "expected `]`"),
            ("a = 1.2.3\n", 1, 5, "invalid float"),
            ("a = 0xff\n", 1, 5, "non-decimal"),
            ("a = \"\\q\"\n", 1, 7, "unsupported escape"),
        ];
        for (input, line, col, fragment) in cases {
            let err = parse(input).expect_err(input);
            assert_eq!(pos_of(&err), (*line, *col), "{input:?}: {err}");
            assert!(
                err.message.contains(fragment),
                "{input:?}: {err} must mention {fragment:?}"
            );
        }
    }

    #[test]
    fn header_after_array_of_tables_extends_last_element() {
        let doc = parse("[[jobs]]\nname = \"a\"\n[jobs.sub]\nx = 1\n").unwrap();
        let Value::Tables(jobs) = &doc.get("jobs").unwrap().value else {
            panic!("array of tables");
        };
        assert!(matches!(jobs[0].get("sub").unwrap().value, Value::Table(_)));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let doc = parse("\n# comment\n  \t\na = 1 # trailing\n").unwrap();
        assert_eq!(doc.get("a").unwrap().value, Value::Int(1));
    }

    #[test]
    fn quoted_keys() {
        let doc = parse("\"2.5d\" = 1\n['lit key'] \nx = 2\n").unwrap();
        assert_eq!(doc.get("2.5d").unwrap().value, Value::Int(1));
        let Value::Table(t) = &doc.get("lit key").unwrap().value else {
            panic!("quoted header");
        };
        assert_eq!(t.get("x").unwrap().value, Value::Int(2));
    }
}
