//! The verification harness (paper §IV-C).
//!
//! Before probing, the user obtains one or more reference outputs from a
//! baseline compilation. Benchmarks print figures of merit and
//! self-diagnosing checksums; some lines (run times, simulated cycle
//! counts) legitimately vary between compilations, so the verifier
//! accepts *ignore patterns*: a line pair where both sides match the
//! same pattern is accepted regardless of the differing values.

use crate::textpat::Pattern;

/// Why verification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mismatch {
    /// The program trapped or did not run.
    ExecutionFailed(String),
    /// Output differs from every reference; carries the first diverging
    /// line of the closest reference.
    OutputDiffers {
        /// 1-based line number of the first difference.
        line: usize,
        /// Expected line (from the reference).
        expected: String,
        /// Actual line.
        actual: String,
    },
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mismatch::ExecutionFailed(e) => write!(f, "execution failed: {e}"),
            Mismatch::OutputDiffers {
                line,
                expected,
                actual,
            } => write!(
                f,
                "output differs at line {line}: expected {expected:?}, got {actual:?}"
            ),
        }
    }
}

/// The verifier: reference outputs plus ignore patterns.
#[derive(Debug, Clone)]
pub struct Verifier {
    references: Vec<String>,
    ignore: Vec<Pattern>,
}

impl Verifier {
    /// Builds a verifier from reference outputs and ignore-pattern
    /// sources (see [`crate::textpat`] for the syntax).
    pub fn new(references: Vec<String>, ignore_patterns: &[String]) -> Self {
        Verifier {
            references,
            ignore: ignore_patterns.iter().map(|p| Pattern::parse(p)).collect(),
        }
    }

    /// Single exact reference, no ignores.
    pub fn exact(reference: String) -> Self {
        Verifier {
            references: vec![reference],
            ignore: Vec::new(),
        }
    }

    /// Checks `stdout` against the references.
    pub fn check(&self, stdout: &str) -> Result<(), Mismatch> {
        let mut best: Option<Mismatch> = None;
        let mut best_line = 0usize;
        for r in &self.references {
            match self.check_one(r, stdout) {
                Ok(()) => return Ok(()),
                Err(m) => {
                    let line = match &m {
                        Mismatch::OutputDiffers { line, .. } => *line,
                        _ => 0,
                    };
                    if best.is_none() || line > best_line {
                        best_line = line;
                        best = Some(m);
                    }
                }
            }
        }
        Err(best.unwrap_or(Mismatch::ExecutionFailed("no references".into())))
    }

    fn check_one(&self, reference: &str, stdout: &str) -> Result<(), Mismatch> {
        let want: Vec<&str> = reference.lines().collect();
        let got: Vec<&str> = stdout.lines().collect();
        let n = want.len().max(got.len());
        for i in 0..n {
            let w = want.get(i).copied().unwrap_or("<missing>");
            let g = got.get(i).copied().unwrap_or("<missing>");
            if w == g {
                continue;
            }
            // A volatile line: both sides must match the same pattern.
            let excused = self.ignore.iter().any(|p| p.matches(w) && p.matches(g));
            if !excused {
                return Err(Mismatch::OutputDiffers {
                    line: i + 1,
                    expected: w.to_owned(),
                    actual: g.to_owned(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_passes() {
        let v = Verifier::exact("a\nb\n".into());
        assert!(v.check("a\nb\n").is_ok());
        assert!(v.check("a\nc\n").is_err());
    }

    #[test]
    fn ignore_pattern_excuses_volatile_lines() {
        let v = Verifier::new(
            vec!["checksum=42\nRuntime: 100 cycles\n".into()],
            &["Runtime: <int> cycles".into()],
        );
        assert!(v.check("checksum=42\nRuntime: 97 cycles\n").is_ok());
        // Checksum changes are NOT excused.
        let e = v.check("checksum=41\nRuntime: 100 cycles\n").unwrap_err();
        match e {
            Mismatch::OutputDiffers { line, .. } => assert_eq!(line, 1),
            _ => panic!("{e}"),
        }
        // A volatile line must still have the right shape.
        assert!(v.check("checksum=42\nRuntime: fast cycles\n").is_err());
    }

    #[test]
    fn missing_or_extra_lines_fail() {
        let v = Verifier::exact("a\nb\n".into());
        assert!(v.check("a\n").is_err());
        assert!(v.check("a\nb\nc\n").is_err());
    }

    #[test]
    fn multiple_references_any_match() {
        let v = Verifier::new(vec!["mesh=271\n".into(), "mesh=272\n".into()], &[]);
        assert!(v.check("mesh=271\n").is_ok());
        assert!(v.check("mesh=272\n").is_ok());
        assert!(v.check("mesh=273\n").is_err());
    }

    #[test]
    fn reports_deepest_divergence() {
        let v = Verifier::new(vec!["a\nx\n".into(), "a\nb\nc\n".into()], &[]);
        let e = v.check("a\nb\nd\n").unwrap_err();
        match e {
            Mismatch::OutputDiffers { line, .. } => assert_eq!(line, 3),
            _ => panic!(),
        }
    }

    #[test]
    fn truncated_output_pinpoints_first_missing_line() {
        // A probe killed mid-run (trap, fuel, injected hang) leaves a
        // truncated stdout; the mismatch must point at the first line
        // the reference still expected.
        let v = Verifier::exact("header\nrow 1\nrow 2\nchecksum=9\n".into());
        let e = v.check("header\nrow 1\n").unwrap_err();
        assert_eq!(
            e,
            Mismatch::OutputDiffers {
                line: 3,
                expected: "row 2".into(),
                actual: "<missing>".into(),
            }
        );
    }

    #[test]
    fn extra_trailing_output_is_a_mismatch() {
        // Garbage appended after a correct transcript (e.g. a corrupted
        // write) is classified at the first extra line, with the
        // reference side reported missing.
        let v = Verifier::exact("a\nb\n".into());
        let e = v.check("a\nb\n\u{7f}garbled probe output\n").unwrap_err();
        assert_eq!(
            e,
            Mismatch::OutputDiffers {
                line: 3,
                expected: "<missing>".into(),
                actual: "\u{7f}garbled probe output".into(),
            }
        );
    }

    #[test]
    fn ignore_patterns_do_not_excuse_truncation_or_extras() {
        // An ignore pattern excuses value drift on a line both sides
        // *have* — it must not excuse a line that exists on only one
        // side, even if the present side matches the pattern.
        let v = Verifier::new(
            vec!["checksum=42\nRuntime: 100 cycles\n".into()],
            &["Runtime: <int> cycles".into()],
        );
        // Truncated: the volatile line is missing entirely.
        let e = v.check("checksum=42\n").unwrap_err();
        assert_eq!(
            e,
            Mismatch::OutputDiffers {
                line: 2,
                expected: "Runtime: 100 cycles".into(),
                actual: "<missing>".into(),
            }
        );
        // Extra: a second volatile-shaped line the reference never had.
        let extra = "checksum=42\nRuntime: 97 cycles\nRuntime: 3 cycles\n";
        let e = v.check(extra).unwrap_err();
        assert_eq!(
            e,
            Mismatch::OutputDiffers {
                line: 3,
                expected: "<missing>".into(),
                actual: "Runtime: 3 cycles".into(),
            }
        );
    }
}
