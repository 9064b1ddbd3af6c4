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

/// Writes `value` with `decimals` digits after the point: the bytes of
/// `format!("{value:.decimals$}")`, without the formatting machinery for
/// the values a cost table holds.
///
/// A non-negative value below 2⁵² once scaled by `10^decimals` (up to 9
/// decimals) is rounded in integer arithmetic: the scaled product lies
/// within one unit in the last place of the exact one, so unless its
/// fraction is that close to one half, rounding it names the same integer
/// as rounding the exact value. Every other value (negative, non-finite,
/// too large, or within a few units in the last place of a tie) goes
/// through `{:.decimals$}` itself.
///
/// # Errors
///
/// Propagates the sink's [`std::fmt::Error`] (infallible for `String`).
///
/// # Examples
///
/// ```
/// use actuary_units::write_fixed;
///
/// let mut out = String::new();
/// write_fixed(&mut out, 1234.5678915, 6).unwrap();
/// out.push(' ');
/// write_fixed(&mut out, 0.125, 2).unwrap();
/// assert_eq!(out, "1234.567892 0.12");
/// ```
pub fn write_fixed<W: std::fmt::Write + ?Sized>(
    out: &mut W,
    value: f64,
    decimals: usize,
) -> std::fmt::Result {
    const SCALE: [f64; 10] = [1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9];
    const LIMIT: f64 = 4_503_599_627_370_496.0; // 2^52
    if decimals < SCALE.len() && value.is_sign_positive() {
        let scaled = value * SCALE[decimals];
        // NaN and infinity fail the bound.
        if scaled < LIMIT {
            let whole = scaled.trunc();
            let fraction = scaled - whole;
            if (fraction - 0.5).abs() > scaled * 4.0 * f64::EPSILON {
                let units = whole as u64 + u64::from(fraction > 0.5);
                return write_units(out, units, decimals);
            }
        }
    }
    write!(out, "{value:.decimals$}")
}

/// Writes `units` as a decimal with its last `decimals` digits after the
/// point.
fn write_units<W: std::fmt::Write + ?Sized>(
    out: &mut W,
    mut units: u64,
    decimals: usize,
) -> std::fmt::Result {
    // 20 digits of u64::MAX, the point, and the zeros of 0.000000000.
    let mut text = [b'0'; 32];
    let mut start = text.len();
    let mut digits = 0;
    while units > 0 || digits <= decimals {
        if digits == decimals && decimals > 0 {
            start -= 1;
            text[start] = b'.';
        }
        start -= 1;
        text[start] = b'0' + (units % 10) as u8;
        units /= 10;
        digits += 1;
    }
    out.write_str(std::str::from_utf8(&text[start..]).map_err(|_| std::fmt::Error)?)
}

/// Writes one record to `out` as an RFC-4180 CSV line (`\n` terminated) —
/// the one CSV row writer, behind every [`Artifact`](crate::Artifact), so
/// huge documents (a 10⁶-cell exploration grid) never materialize as one
/// `String`. Each field goes straight into the sink, quoted only when it
/// holds a comma, quote or line break (embedded quotes doubled).
///
/// Lives in the base layer so both the DSE and report layers can emit CSV
/// without an edge between them.
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
/// write_csv_row(&mut out, &["1", "x,y", "say \"hi\""]).unwrap();
/// assert_eq!(out, "1,\"x,y\",\"say \"\"hi\"\"\"\n");
/// ```
pub fn write_csv_row<W: std::fmt::Write + ?Sized, S: AsRef<str>>(
    out: &mut W,
    record: &[S],
) -> std::fmt::Result {
    write_csv_fields(out, record.iter().map(AsRef::as_ref))
}

/// [`write_csv_row`] over any sequence of borrowed fields (the kept cells
/// of a projected artifact row).
pub(crate) fn write_csv_fields<'f, W: std::fmt::Write + ?Sized>(
    out: &mut W,
    fields: impl IntoIterator<Item = &'f str>,
) -> std::fmt::Result {
    for (i, field) in fields.into_iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        write_csv_field(out, field)?;
    }
    out.write_char('\n')
}

/// Writes one CSV field: verbatim, or quoted with its quotes doubled when
/// it holds a comma, quote or line break.
fn write_csv_field<W: std::fmt::Write + ?Sized>(out: &mut W, field: &str) -> std::fmt::Result {
    if !field
        .bytes()
        .any(|b| matches!(b, b',' | b'"' | b'\n' | b'\r'))
    {
        return out.write_str(field);
    }
    out.write_char('"')?;
    for (i, part) in field.split('"').enumerate() {
        if i > 0 {
            out.write_str("\"\"")?;
        }
        out.write_str(part)?;
    }
    out.write_char('"')
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

    /// The `{:.N}` rendering [`write_fixed`] must reproduce.
    fn fixed(value: f64, decimals: usize) -> (String, String) {
        let mut fast = String::new();
        write_fixed(&mut fast, value, decimals).unwrap();
        (fast, format!("{value:.decimals$}"))
    }

    #[test]
    fn fixed_point_matches_the_formatter_on_edge_values() {
        let edges = [
            0.0,
            -0.0,
            5e-324,
            1e-7,
            0.5,
            1.5,
            2.5,
            0.125,
            0.0000005,
            0.0000015,
            0.0000025,
            999_999.999_999_5,
            4_503_599_627.370_496,
            9.007_199_254_740_992e15,
            1e300,
            -1.25,
            -0.000_000_4,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for value in edges {
            for decimals in 0..12 {
                let (fast, slow) = fixed(value, decimals);
                assert_eq!(fast, slow, "{value:e} at {decimals} decimals");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// Random magnitudes, and the ties `(k + ½)·10^-N` with the values
        /// a few units in the last place either side, render as `{:.N}`.
        #[test]
        fn fixed_point_matches_the_formatter(
            mantissa in 1.0f64..10.0,
            exponent in -12i32..16,
            tie in 0u64..100_000_000,
            nudge in -4i64..5,
            decimals in 0usize..10,
        ) {
            let random = mantissa * 10f64.powi(exponent);
            let near_tie =
                f64::from_bits(((tie as f64 + 0.5) / 10f64.powi(decimals as i32)).to_bits().wrapping_add_signed(nudge));
            for value in [random, near_tie, -random] {
                let (fast, slow) = fixed(value, decimals);
                proptest::prop_assert!(fast == slow, "{value:e} at {decimals}: {fast} != {slow}");
            }
        }
    }

    #[test]
    fn csv_escaping_rules() {
        let field = |f: &str| {
            let mut out = String::new();
            write_csv_row(&mut out, &[f]).unwrap();
            out.strip_suffix('\n').unwrap().to_string()
        };
        assert_eq!(field(""), "");
        assert_eq!(field("simple"), "simple");
        assert_eq!(field("non-ASCII ü²"), "non-ASCII ü²");
        assert_eq!(field("with,comma"), "\"with,comma\"");
        assert_eq!(field("with\nnewline"), "\"with\nnewline\"");
        assert_eq!(field("with\rreturn"), "\"with\rreturn\"");
        assert_eq!(field("q\"uote"), "\"q\"\"uote\"");
        assert_eq!(field("\"\""), "\"\"\"\"\"\"");
    }
}
