//! The reproduction of the paper's evaluation, and the load-test harness.
//!
//! Every table and figure of the paper is a row of [`figures::FIGURES`]
//! (DESIGN.md §3 is the index) and the `repro` binary is their one driver:
//! `repro <name>` prints a figure as machine-readable CSV — `# `-prefixed
//! comment lines carry section headers and paper-vs-measured summaries —
//! `repro audit` asserts [`figures::bounds`] on the numbers those summaries
//! print, and `repro all <dir>` writes every figure and the digest of their
//! comments from one set of [`inputs::Inputs`], then audits.
//!
//! Scale is controlled by the `FAASRAIL_SCALE` environment variable:
//! `small` (default; ~2 K-function traces, seconds per figure) or `paper`
//! (full 49.7 K-function / 908 M-invocation scale; use release builds), and
//! the seed every figure shares by `FAASRAIL_SEED` (default 42).

pub mod figures;
pub mod harness;
pub mod inputs;

use faasrail_stats::ecdf::{Ecdf, WeightedEcdf};
use std::fmt::{Display, Write};

/// Experiment scale for the figures: the traces' one scale.
pub use faasrail_trace::Scale;

/// What a figure produces: its CSV text, and the numbers its summary lines
/// state, by name — the audit reads those and recomputes nothing.
#[derive(Debug, Default)]
pub struct Out {
    pub text: String,
    /// `(name, value)` in recording order.
    pub stats: Vec<(&'static str, f64)>,
}

impl Out {
    /// Append one CSV row.
    pub fn row(&mut self, row: impl Display) {
        writeln!(self.text, "{row}").expect("writing to a String");
    }

    /// Append one `# `-prefixed comment line (section header / summary).
    pub fn comment(&mut self, comment: impl Display) {
        self.row(format_args!("# {comment}"));
    }

    /// Record a summary number under `name` and hand it back, so the line
    /// that prints it is formatted from what was recorded.
    pub fn stat(&mut self, name: &'static str, value: f64) -> f64 {
        self.stats.push((name, value));
        value
    }

    /// An unweighted CDF as `label,x,F(x)` rows, downsampled to `points`
    /// quantile points (figures don't need millions of rows).
    pub fn cdf(&mut self, label: &str, ecdf: &Ecdf, points: usize) {
        for i in 0..=points {
            let q = i as f64 / points as f64;
            let x = ecdf.inverse_interp(q);
            self.row(format_args!("{label},{x:.6},{q:.6}"));
        }
    }

    /// A weighted CDF as `label,x,F(x)` rows over its support (downsampled
    /// to at most `points` support values).
    pub fn wcdf(&mut self, label: &str, wecdf: &WeightedEcdf, points: usize) {
        let n = wecdf.len();
        let step = (n / points).max(1);
        for i in (0..n).step_by(step) {
            let x = wecdf.values()[i];
            self.row(format_args!("{label},{x:.6},{:.6}", wecdf.cumulative()[i]));
        }
        if !(n - 1).is_multiple_of(step) {
            let x = wecdf.values()[n - 1];
            self.row(format_args!("{label},{x:.6},1.000000"));
        }
    }

    /// A `(x, y)` curve as `label,x,y` rows, every `step`-th point.
    pub fn curve(&mut self, label: &str, points: &[(f64, f64)], step: usize) {
        for (x, y) in points.iter().step_by(step) {
            self.row(format_args!("{label},{x:.6},{y:.6}"));
        }
    }

    /// A time series as `label,index,value` rows.
    pub fn series(&mut self, label: &str, values: &[f64]) {
        for (i, v) in values.iter().enumerate() {
            self.row(format_args!("{label},{i},{v:.6}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_keeps_lines_and_stats_in_order() {
        let mut out = Out::default();
        out.comment(format!("head {}", 1));
        let v = out.stat("a.b", 0.25);
        out.row(format!("x,{v:.2}"));
        out.series("s", &[0.5]);
        out.curve("c", &[(0.1, 0.2), (0.3, 0.4), (0.5, 0.6)], 2);
        assert_eq!(
            out.text,
            "# head 1\nx,0.25\ns,0,0.500000\nc,0.100000,0.200000\nc,0.500000,0.600000\n"
        );
        assert_eq!(out.stats, [("a.b", 0.25)]);
    }
}
