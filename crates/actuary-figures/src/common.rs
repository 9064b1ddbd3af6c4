//! Shared helpers for figure reproduction.

use std::fmt;

/// One qualitative claim from the paper's prose about a figure, with the
/// value this reproduction measured and whether it holds.
///
/// `EXPERIMENTS.md` is generated from these records, and the integration
/// suite asserts `pass` for every claim of every figure.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeCheck {
    /// The paper's claim, quoted or paraphrased.
    pub claim: String,
    /// What the paper states (target value or direction).
    pub expected: String,
    /// What this reproduction measured.
    pub measured: String,
    /// Whether the measured value satisfies the claim.
    pub pass: bool,
}

impl ShapeCheck {
    /// Builds a check from a predicate result.
    pub fn new(
        claim: impl Into<String>,
        expected: impl Into<String>,
        measured: impl Into<String>,
        pass: bool,
    ) -> Self {
        ShapeCheck {
            claim: claim.into(),
            expected: expected.into(),
            measured: measured.into(),
            pass,
        }
    }
}

impl fmt::Display for ShapeCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} (paper: {}, measured: {})",
            if self.pass { "PASS" } else { "FAIL" },
            self.claim,
            self.expected,
            self.measured
        )
    }
}

/// Formats a fraction as a percent string for check records.
pub(crate) fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_marks_pass_and_fail() {
        let ok = ShapeCheck::new("claim", "x > 1", "1.5", true);
        assert!(ok.to_string().starts_with("[PASS]"));
        let bad = ShapeCheck::new("claim", "x > 1", "0.5", false);
        assert!(bad.to_string().starts_with("[FAIL]"));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.256), "25.6%");
    }
}
