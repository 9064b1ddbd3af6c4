//! A small Rust lexer: just enough tokenization for reliable *syntactic*
//! invariant checks.
//!
//! The lexer understands the constructs that defeat naive grepping —
//! line comments, nested block comments, string/raw-string/byte-string
//! and char literals (vs lifetimes), numeric literals — and two pieces of
//! structure the checks need:
//!
//! - **test regions**: tokens inside a `#[cfg(test)]` (or `#[test]`) item
//!   body are flagged [`Token::in_test`], so production-only checks skip
//!   test code without being fooled by nesting;
//! - **allow directives**: a comment containing `lint:allow(check-name)`
//!   exempts findings of that check on the same or the following line;
//!   `lint:allow-file(check-name)` exempts the whole file.
//!
//! It is *not* a parser: it never builds an AST, so checks are phrased
//! over token patterns. That is the right trade for a lint that must stay
//! std-only and fast, and the fixture tests pin exactly which patterns
//! each check recognizes.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `unwrap`, `cfg`, ...). Raw
    /// identifiers (`r#type`) are stored without the `r#` prefix.
    Ident,
    /// A string literal of any flavor (`"…"`, `r#"…"#`, `b"…"`). The
    /// token text is the *inner* source text, uncooked (escapes are not
    /// processed).
    Str,
    /// A character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// A lifetime (`'a`, `'static`), distinguished from char literals.
    Lifetime,
    /// A numeric literal. [`Token::is_float`] tells integers and floats
    /// apart.
    Num,
    /// An operator or punctuation token; multi-char operators that matter
    /// for disambiguation (`==`, `!=`, `::`, `..`, `->`, `=>`, ...) are
    /// single tokens.
    Op,
}

/// One lexed token with its source line (1-based).
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Token text (see [`TokenKind`] for what is stored per kind).
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: u32,
    /// True when the token sits inside a `#[cfg(test)]`/`#[test]` item
    /// body — test-only code the production checks must skip.
    pub in_test: bool,
}

impl Token {
    /// True for numeric literals that are floats (`1.0`, `1e-9`, `2f64`).
    pub fn is_float(&self) -> bool {
        if self.kind != TokenKind::Num {
            return false;
        }
        let t = self.text.as_str();
        if t.starts_with("0x") || t.starts_with("0o") || t.starts_with("0b") {
            return false;
        }
        t.contains('.')
            || t.ends_with("f32")
            || t.ends_with("f64")
            || t.bytes().any(|b| b == b'e' || b == b'E')
    }
}

/// An `lint:allow(...)` directive found in a comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The check name inside the parentheses.
    pub check: String,
    /// 1-based line the directive appears on (`0` for file-scope allows).
    pub line: u32,
    /// True for `lint:allow-file(...)` (whole-file exemption).
    pub file_scope: bool,
}

/// A fully lexed source file.
#[derive(Debug)]
pub struct LexedFile {
    /// All significant tokens, in source order.
    pub tokens: Vec<Token>,
    /// All allow directives found in comments.
    pub allows: Vec<Allow>,
}

impl LexedFile {
    /// True when a finding of `check` at `line` is exempted by an allow
    /// directive (file-scope, same line, or the immediately preceding
    /// line — supporting both trailing and standalone allow comments).
    pub fn allowed(&self, check: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.check == check && (a.file_scope || a.line == line || a.line + 1 == line))
    }
}

/// Lexes `source`, producing tokens (with test regions marked) and allow
/// directives. Never fails: unterminated constructs simply end at EOF —
/// the real compiler is the arbiter of validity, the lexer only needs to
/// not mis-classify what follows valid code.
pub fn lex(source: &str) -> LexedFile {
    let mut cur = Cursor::new(source);
    let mut tokens = Vec::new();
    let mut allows = Vec::new();

    while let Some(c) = cur.peek() {
        let line = cur.line;
        match c {
            _ if c.is_whitespace() => {
                cur.bump();
            }
            '/' if cur.peek2() == Some('/') => {
                let text = cur.consume_line_comment();
                scan_allow(&text, line, &mut allows);
            }
            '/' if cur.peek2() == Some('*') => {
                cur.consume_block_comment(&mut allows);
            }
            'r' if matches!(cur.peek2(), Some('"') | Some('#')) && cur.raw_string_ahead(1) => {
                let inner = cur.consume_raw_string();
                tokens.push(token(TokenKind::Str, inner, line));
            }
            'b' if cur.peek2() == Some('"') => {
                cur.bump();
                let inner = cur.consume_quoted_string();
                tokens.push(token(TokenKind::Str, inner, line));
            }
            'b' if cur.peek2() == Some('r') && cur.raw_string_ahead(2) => {
                cur.bump();
                let inner = cur.consume_raw_string();
                tokens.push(token(TokenKind::Str, inner, line));
            }
            'b' if cur.peek2() == Some('\'') => {
                cur.bump();
                let inner = cur.consume_char_literal();
                tokens.push(token(TokenKind::Char, inner, line));
            }
            'r' if cur.peek2() == Some('#') && is_ident_start(cur.peek_at(2)) => {
                // Raw identifier r#type: strip the prefix, keep the name.
                cur.bump();
                cur.bump();
                let name = cur.consume_ident();
                tokens.push(token(TokenKind::Ident, name, line));
            }
            _ if is_ident_start(Some(c)) => {
                let name = cur.consume_ident();
                tokens.push(token(TokenKind::Ident, name, line));
            }
            _ if c.is_ascii_digit() => {
                let num = cur.consume_number();
                tokens.push(token(TokenKind::Num, num, line));
            }
            '"' => {
                let inner = cur.consume_quoted_string();
                tokens.push(token(TokenKind::Str, inner, line));
            }
            '\'' => {
                let (kind, text) = cur.consume_quote_or_lifetime();
                tokens.push(token(kind, text, line));
            }
            _ => {
                let op = cur.consume_op();
                tokens.push(token(TokenKind::Op, op, line));
            }
        }
    }

    mark_test_regions(&mut tokens);
    LexedFile { tokens, allows }
}

fn token(kind: TokenKind, text: String, line: u32) -> Token {
    Token {
        kind,
        text,
        line,
        in_test: false,
    }
}

fn is_ident_start(c: Option<char>) -> bool {
    matches!(c, Some(c) if c == '_' || c.is_alphabetic())
}

/// Extracts `lint:allow(name)` / `lint:allow-file(name)` directives from
/// one comment's text. Multiple directives per comment are honored.
fn scan_allow(text: &str, line: u32, allows: &mut Vec<Allow>) {
    let mut offset_line = line;
    for (i, comment_line) in text.split('\n').enumerate() {
        if i > 0 {
            offset_line += 1;
        }
        let mut rest = comment_line;
        while let Some(pos) = rest.find("lint:allow") {
            rest = &rest[pos + "lint:allow".len()..];
            let file_scope = rest.starts_with("-file");
            let after = if file_scope {
                &rest["-file".len()..]
            } else {
                rest
            };
            if let Some(stripped) = after.strip_prefix('(') {
                if let Some(end) = stripped.find(')') {
                    allows.push(Allow {
                        check: stripped[..end].trim().to_string(),
                        line: if file_scope { 0 } else { offset_line },
                        file_scope,
                    });
                    rest = &stripped[end + 1..];
                    continue;
                }
            }
            break;
        }
    }
}

/// Marks tokens inside `#[cfg(test)]` / `#[test]` item bodies.
///
/// Recognizes the attribute token sequences `# [ cfg ( test ) ]` and
/// `# [ test ]`; once seen, the next `{` at or below the attribute's
/// brace depth opens a test region that closes with its matching `}`.
/// A `;` before any `{` (e.g. `#[cfg(test)] mod tests;`) cancels the
/// pending region. Regions nest: anything inside an open region is test
/// code regardless of further attributes.
fn mark_test_regions(tokens: &mut [Token]) {
    let mut depth: i32 = 0;
    let mut open_regions: Vec<i32> = Vec::new();
    let mut pending: Option<i32> = None;

    let mut i = 0;
    while i < tokens.len() {
        // Attribute detection looks ahead without consuming.
        if tokens[i].kind == TokenKind::Op && tokens[i].text == "#" && pending.is_none() {
            if let Some(len) = test_attr_len(&tokens[i..]) {
                pending = Some(depth);
                for t in tokens.iter_mut().skip(i).take(len) {
                    t.in_test = true;
                }
                i += len;
                continue;
            }
        }
        let is_open = tokens[i].kind == TokenKind::Op && tokens[i].text == "{";
        let is_close = tokens[i].kind == TokenKind::Op && tokens[i].text == "}";
        let is_semi = tokens[i].kind == TokenKind::Op && tokens[i].text == ";";

        if is_open {
            if let Some(attr_depth) = pending {
                if depth <= attr_depth {
                    open_regions.push(depth);
                    pending = None;
                }
            }
            depth += 1;
        }
        if is_close {
            depth -= 1;
            if open_regions.last().is_some_and(|d| depth <= *d) {
                open_regions.pop();
                // The closing brace itself still belongs to the region.
                tokens[i].in_test = true;
                i += 1;
                continue;
            }
        }
        if is_semi {
            if let Some(attr_depth) = pending {
                if depth <= attr_depth {
                    pending = None;
                }
            }
        }
        if !open_regions.is_empty() || pending.is_some() {
            tokens[i].in_test = true;
        }
        i += 1;
    }
}

/// If `tokens` starts with `#[cfg(test)]` or `#[test]`, returns the
/// attribute's token length.
fn test_attr_len(tokens: &[Token]) -> Option<usize> {
    let txt = |i: usize| -> Option<&str> { tokens.get(i).map(|t| t.text.as_str()) };
    if txt(0)? != "#" || txt(1)? != "[" {
        return None;
    }
    if txt(2)? == "test" && txt(3)? == "]" {
        return Some(4);
    }
    if txt(2)? == "cfg" && txt(3)? == "(" && txt(4)? == "test" && txt(5)? == ")" && txt(6)? == "]" {
        return Some(7);
    }
    None
}

/// Char-level scanning state.
struct Cursor<'s> {
    rest: std::str::Chars<'s>,
    line: u32,
}

impl<'s> Cursor<'s> {
    fn new(source: &'s str) -> Self {
        Cursor {
            rest: source.chars(),
            line: 1,
        }
    }

    fn peek(&self) -> Option<char> {
        self.rest.clone().next()
    }

    fn peek2(&self) -> Option<char> {
        self.rest.clone().nth(1)
    }

    fn peek_at(&self, n: usize) -> Option<char> {
        self.rest.clone().nth(n)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.rest.next();
        if c == Some('\n') {
            self.line += 1;
        }
        c
    }

    /// True when position `start` begins a raw-string body: zero or more
    /// `#` then `"`. Used to tell `r"..."`/`r#"..."#` from identifiers
    /// like `r#type` or plain `r2`.
    fn raw_string_ahead(&self, start: usize) -> bool {
        let mut it = self.rest.clone().skip(start);
        loop {
            match it.next() {
                Some('#') => continue,
                Some('"') => return true,
                _ => return false,
            }
        }
    }

    /// Consumes `//...` to end of line, returning the comment text.
    fn consume_line_comment(&mut self) -> String {
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        text
    }

    /// Consumes a (possibly nested) `/* ... */` block comment, scanning
    /// its text for allow directives line by line.
    fn consume_block_comment(&mut self, allows: &mut Vec<Allow>) {
        let start_line = self.line;
        let mut text = String::new();
        self.bump();
        self.bump();
        let mut nesting = 1u32;
        while nesting > 0 {
            match (self.peek(), self.peek2()) {
                (Some('/'), Some('*')) => {
                    nesting += 1;
                    text.push_str("/*");
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    nesting -= 1;
                    text.push_str("*/");
                    self.bump();
                    self.bump();
                }
                (Some(c), _) => {
                    text.push(c);
                    self.bump();
                }
                (None, _) => break,
            }
        }
        scan_allow(&text, start_line, allows);
    }

    /// Consumes a `"..."` string (opening quote at cursor), returning the
    /// inner text uncooked. `\"` and `\\` are honored so the terminator
    /// is found correctly; multi-line strings are supported.
    fn consume_quoted_string(&mut self) -> String {
        let mut inner = String::new();
        self.bump();
        while let Some(c) = self.bump() {
            match c {
                '"' => break,
                '\\' => {
                    inner.push('\\');
                    if let Some(esc) = self.bump() {
                        inner.push(esc);
                    }
                }
                _ => inner.push(c),
            }
        }
        inner
    }

    /// Consumes `r"..."` / `r##"..."##` (cursor on the `r`), returning
    /// the inner text. No escapes exist in raw strings.
    fn consume_raw_string(&mut self) -> String {
        self.bump(); // r
        let mut hashes = 0usize;
        while self.peek() == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        let mut inner = String::new();
        'scan: while let Some(c) = self.bump() {
            if c == '"' {
                // A quote only terminates when followed by `hashes` hashes.
                let mut it = self.rest.clone();
                for _ in 0..hashes {
                    if it.next() != Some('#') {
                        inner.push('"');
                        continue 'scan;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
            inner.push(c);
        }
        inner
    }

    /// Consumes a char literal body (cursor on the opening `'`).
    fn consume_char_literal(&mut self) -> String {
        let mut inner = String::new();
        self.bump();
        while let Some(c) = self.bump() {
            match c {
                '\'' => break,
                '\\' => {
                    inner.push('\\');
                    if let Some(esc) = self.bump() {
                        inner.push(esc);
                    }
                }
                _ => inner.push(c),
            }
        }
        inner
    }

    /// At a `'`: decides lifetime vs char literal.
    ///
    /// `'a'` is a char, `'a` / `'static` are lifetimes: after the quote,
    /// an identifier char NOT followed by a closing quote means lifetime.
    fn consume_quote_or_lifetime(&mut self) -> (TokenKind, String) {
        let next = self.peek2();
        let after = self.peek_at(2);
        if is_ident_start(next) && after != Some('\'') {
            self.bump(); // '
            let name = self.consume_ident();
            (TokenKind::Lifetime, name)
        } else {
            (TokenKind::Char, self.consume_char_literal())
        }
    }

    fn consume_ident(&mut self) -> String {
        let mut name = String::new();
        while let Some(c) = self.peek() {
            if c == '_' || c.is_alphanumeric() {
                name.push(c);
                self.bump();
            } else {
                break;
            }
        }
        name
    }

    /// Consumes a numeric literal: digits/underscores, a fractional part
    /// (only when `.` is followed by a digit, so ranges `0..n` and method
    /// calls `1.max(…)` stay separate tokens), an exponent, and any
    /// alphanumeric suffix (`u32`, `f64`, hex digits).
    fn consume_number(&mut self) -> String {
        let mut num = String::new();
        while let Some(c) = self.peek() {
            let continues = c.is_ascii_alphanumeric()
                || c == '_'
                || (c == '.' && self.peek2().is_some_and(|d| d.is_ascii_digit()))
                || ((c == '+' || c == '-')
                    && (num.ends_with('e') || num.ends_with('E'))
                    && !num.starts_with("0x"));
            if !continues {
                break;
            }
            num.push(c);
            self.bump();
        }
        num
    }

    /// Consumes one operator token, greedily matching the multi-char
    /// operators the checks care to keep whole.
    fn consume_op(&mut self) -> String {
        const TWO_CHAR: [&str; 13] = [
            "==", "!=", "<=", ">=", "=>", "->", "::", "..", "&&", "||", "+=", "-=", "*=",
        ];
        let a = self.bump().unwrap_or(' ');
        if let Some(b) = self.peek() {
            let mut two = String::new();
            two.push(a);
            two.push(b);
            if TWO_CHAR.contains(&two.as_str()) {
                self.bump();
                return two;
            }
        }
        a.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(file: &LexedFile) -> Vec<(&str, bool)> {
        file.tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| (t.text.as_str(), t.in_test))
            .collect()
    }

    #[test]
    fn strings_hide_their_contents_from_ident_scanning() {
        let f = lex(r#"let s = "unwrap() inside a string"; s.len()"#);
        let names: Vec<&str> = idents(&f).iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["let", "s", "s", "len"]);
        assert!(f
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Str && t.text.contains("unwrap()")));
    }

    #[test]
    fn raw_strings_with_hashes_and_quotes() {
        let f = lex(r###"let s = r#"has "quotes" and unwrap()"#; done()"###);
        let names: Vec<&str> = idents(&f).iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["let", "s", "done"]);
    }

    #[test]
    fn nested_block_comments_do_not_leak_tokens() {
        let f = lex("/* outer /* inner unwrap() */ still comment */ fn live() {}");
        let names: Vec<&str> = idents(&f).iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["fn", "live"]);
    }

    #[test]
    fn cfg_test_module_marks_tokens() {
        let src =
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { prod() }\n}\nfn after() {}";
        let f = lex(src);
        let got = idents(&f);
        assert_eq!(
            got,
            [
                ("fn", false),
                ("prod", false),
                ("cfg", true),
                ("test", true),
                ("mod", true),
                ("tests", true),
                ("fn", true),
                ("t", true),
                ("prod", true),
                ("fn", false),
                ("after", false),
            ]
        );
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = lex("fn f<'a>(x: &'a str) -> &'a str { x } let c = 'x'; let n = '\\n';");
        let lifetimes: Vec<&str> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, ["a", "a", "a"]);
        let chars: Vec<&str> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(chars, ["x", "\\n"]);
    }

    #[test]
    fn float_and_integer_literals() {
        let f = lex("let a = 1.5; let b = 10; let c = 1e-9; let d = 2f64; let r = 0..10;");
        let nums: Vec<(&str, bool)> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Num)
            .map(|t| (t.text.as_str(), t.is_float()))
            .collect();
        assert_eq!(
            nums,
            [
                ("1.5", true),
                ("10", false),
                ("1e-9", true),
                ("2f64", true),
                ("0", false),
                ("10", false),
            ]
        );
    }

    #[test]
    fn allow_directives_record_line_and_scope() {
        let src =
            "// lint:allow-file(unit-suffix)\nlet x = 1; // lint:allow(float-eq): exact guard\n";
        let f = lex(src);
        assert!(f.allowed("unit-suffix", 40));
        assert!(f.allowed("float-eq", 2));
        assert!(f.allowed("float-eq", 3), "allow covers the next line too");
        assert!(!f.allowed("float-eq", 4));
        assert!(!f.allowed("no-panic", 2));
    }
}
