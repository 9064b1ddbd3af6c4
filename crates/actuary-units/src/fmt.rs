//! Small formatting helpers shared by the unit types and the report crate.

/// Formats an unsigned integer with `,` thousands separators.
///
/// # Examples
///
/// ```
/// use actuary_units::fmt_thousands;
///
/// assert_eq!(fmt_thousands(0), "0");
/// assert_eq!(fmt_thousands(1_234_567), "1,234,567");
/// ```
pub fn fmt_thousands(value: u64) -> String {
    let digits = value.to_string();
    let bytes = digits.as_bytes();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, b) in bytes.iter().enumerate() {
        if i > 0 && (bytes.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(*b as char);
    }
    out
}

/// Formats a fraction (`0.253`) as a percentage string (`"25.3%"`).
///
/// # Examples
///
/// ```
/// use actuary_units::format_percent;
///
/// assert_eq!(format_percent(0.253, 1), "25.3%");
/// assert_eq!(format_percent(1.0, 0), "100%");
/// ```
pub fn format_percent(fraction: f64, decimals: usize) -> String {
    format!("{:.*}%", decimals, fraction * 100.0)
}

/// Formats a dimensionless ratio such as a normalized cost (`"1.73x"`).
///
/// # Examples
///
/// ```
/// use actuary_units::format_ratio;
///
/// assert_eq!(format_ratio(1.7321, 2), "1.73x");
/// ```
pub fn format_ratio(ratio: f64, decimals: usize) -> String {
    format!("{ratio:.decimals$}x")
}

/// Escapes one RFC-4180 CSV field: quotes it when it contains a comma,
/// quote, or line break, doubling embedded quotes.
///
/// Lives in the base layer so both the DSE and report layers can emit CSV
/// without an edge between them.
///
/// # Examples
///
/// ```
/// use actuary_units::csv_escape;
///
/// assert_eq!(csv_escape("plain"), "plain");
/// assert_eq!(csv_escape("a,b"), "\"a,b\"");
/// assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
/// ```
pub fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Writes one record to `out` as an RFC-4180 CSV line (`\n` terminated) —
/// the one CSV row writer, behind every [`Artifact`](crate::Artifact), so
/// huge documents (a 10⁶-cell exploration grid) never materialize as one
/// `String`.
///
/// # Errors
///
/// Propagates the sink's [`std::fmt::Error`] (infallible for `String`).
///
/// # Examples
///
/// ```
/// use actuary_units::write_csv_row;
///
/// let mut out = String::new();
/// write_csv_row(&mut out, &["1", "x,y"]).unwrap();
/// assert_eq!(out, "1,\"x,y\"\n");
/// ```
pub fn write_csv_row<W: std::fmt::Write + ?Sized, S: AsRef<str>>(
    out: &mut W,
    record: &[S],
) -> std::fmt::Result {
    for (i, field) in record.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        out.write_str(&csv_escape(field.as_ref()))?;
    }
    out.write_char('\n')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousands_separator_groups_of_three() {
        assert_eq!(fmt_thousands(0), "0");
        assert_eq!(fmt_thousands(1), "1");
        assert_eq!(fmt_thousands(12), "12");
        assert_eq!(fmt_thousands(123), "123");
        assert_eq!(fmt_thousands(1_234), "1,234");
        assert_eq!(fmt_thousands(12_345), "12,345");
        assert_eq!(fmt_thousands(123_456), "123,456");
        assert_eq!(fmt_thousands(1_234_567), "1,234,567");
        assert_eq!(fmt_thousands(u64::MAX), "18,446,744,073,709,551,615");
    }

    #[test]
    fn percent_formatting() {
        assert_eq!(format_percent(0.5, 0), "50%");
        assert_eq!(format_percent(0.1234, 2), "12.34%");
        assert_eq!(format_percent(-0.05, 0), "-5%");
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(format_ratio(2.0, 1), "2.0x");
        assert_eq!(format_ratio(0.333, 2), "0.33x");
    }

    #[test]
    fn csv_escaping_rules() {
        assert_eq!(csv_escape(""), "");
        assert_eq!(csv_escape("simple"), "simple");
        assert_eq!(csv_escape("with,comma"), "\"with,comma\"");
        assert_eq!(csv_escape("with\nnewline"), "\"with\nnewline\"");
        assert_eq!(csv_escape("with\rreturn"), "\"with\rreturn\"");
        assert_eq!(csv_escape("q\"uote"), "\"q\"\"uote\"");
    }
}
