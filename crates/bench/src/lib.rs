//! # synthir-bench
//!
//! The experiment harness: one module per figure of the paper's evaluation,
//! each able to regenerate the figure's data as CSV rows plus a textual
//! summary of the expected *shape* (who wins, by roughly what factor).
//!
//! | module | paper figure | experiment |
//! |--------|--------------|------------|
//! | [`fig5`] | Fig. 5 | table-based vs sum-of-products combinational logic |
//! | [`fig6`] | Fig. 6 | table-based vs case-style FSMs, with/without annotation |
//! | [`fig8`] | Fig. 8 | state propagation across flop boundaries |
//! | [`fig9`] | Fig. 9 | Smart Memories PCtrl: Full / Auto / Manual |
//!
//! Binaries `fig5`..`fig9` print the rows; `all_figures` runs everything.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fig5;
pub mod fig6;
pub mod fig8;
pub mod fig9;

use synthir_netlist::Library;
use synthir_rtl::elaborate::Elaborated;
use synthir_synth::{compile_netlist, CompileResult, SynthError, SynthOptions};

/// A generic experiment data point: a labelled (x, y) area pair in µm².
#[derive(Clone, Debug, PartialEq)]
pub struct AreaPoint {
    /// Point label (parameters).
    pub label: String,
    /// Reference (direct / baseline) area.
    pub x: f64,
    /// Measured (flexible / optimized) area.
    pub y: f64,
}

impl AreaPoint {
    /// `y / x`, the area ratio the paper's scatter plots visualize.
    pub fn ratio(&self) -> f64 {
        if self.x == 0.0 {
            f64::NAN
        } else {
            self.y / self.x
        }
    }
}

/// Formats points as a CSV table with the given column names.
pub fn to_csv(points: &[AreaPoint], xname: &str, yname: &str) -> String {
    let mut s = format!("label,{xname},{yname},ratio\n");
    for p in points {
        s.push_str(&format!(
            "{},{:.1},{:.1},{:.3}\n",
            p.label,
            p.x,
            p.y,
            p.ratio()
        ));
    }
    s
}

/// Compiles `elab` with the uncached flow ([`compile_netlist`]). The
/// criterion benches time compiles of one design in a loop, so they and the
/// figure samples they time compile through here: every timed compile is
/// a real one, never a compile-cache hit.
///
/// # Errors
///
/// Whatever [`compile_netlist`] returns.
pub fn compile_fresh(
    elab: &Elaborated,
    lib: &Library,
    opts: &SynthOptions,
) -> Result<CompileResult, SynthError> {
    compile_netlist(
        elab.netlist.clone(),
        elab.fsm.as_ref(),
        &elab.annotations,
        lib,
        opts,
    )
}

/// Geometric mean of the y/x ratios (summary statistic for scatter plots).
pub fn geomean_ratio(points: &[AreaPoint]) -> f64 {
    let logs: Vec<f64> = points
        .iter()
        .map(AreaPoint::ratio)
        .filter(|r| r.is_finite() && *r > 0.0)
        .map(f64::ln)
        .collect();
    if logs.is_empty() {
        return f64::NAN;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_and_ratio() {
        let pts = vec![
            AreaPoint {
                label: "a".into(),
                x: 10.0,
                y: 20.0,
            },
            AreaPoint {
                label: "b".into(),
                x: 10.0,
                y: 5.0,
            },
        ];
        let csv = to_csv(&pts, "direct", "table");
        assert!(csv.starts_with("label,direct,table,ratio"));
        assert!(csv.contains("a,10.0,20.0,2.000"));
        let g = geomean_ratio(&pts);
        assert!((g - 1.0).abs() < 1e-9);
    }
}
