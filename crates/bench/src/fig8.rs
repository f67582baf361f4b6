//! Fig. 8: state propagation and folding across flop boundaries.
//!
//! The design of the paper's Fig. 7: a one-hot decoder feeding (optionally
//! through a flop bank) a mask-and-mux consumer that is entirely redundant
//! when the bus is truly one-hot. The experiment sweeps the bus width
//! n ∈ {2, 4, 8, 16, 32, 64, 128}, the flop flavour, and three tool
//! configurations (regular, retimed, state-annotated), comparing each
//! generic design against its hand-specialized direct version.

use crate::{compile_fresh, AreaPoint};
use synthir_logic::ValueSet;
use synthir_netlist::Library;
use synthir_rtl::{elaborate, Expr, Module, RegReset, Register, ResetKind};
use synthir_synth::SynthOptions;

/// Flop flavour between the decoder and the consumer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlopVariant {
    /// Purely combinational (the control case that always optimizes).
    NoFlop,
    /// Flop without reset.
    Plain,
    /// Flop with synchronous reset.
    SyncReset,
    /// Flop with asynchronous reset.
    AsyncReset,
}

impl FlopVariant {
    /// All variants, in the paper's legend order.
    pub fn all() -> [FlopVariant; 4] {
        [
            FlopVariant::NoFlop,
            FlopVariant::Plain,
            FlopVariant::SyncReset,
            FlopVariant::AsyncReset,
        ]
    }
}

/// Tool configuration series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig8Series {
    /// Default compile.
    Regular,
    /// Compile with retiming enabled.
    Retimed,
    /// Generic design carries a generator-derived one-hot annotation on the
    /// flopped bus.
    StateAnnotated,
}

/// Builds the Fig. 7 design.
///
/// Interface: `sel` (log2 n bits), `a`, `b` (1 bit each); outputs `r`
/// (the one-hot bus, the design's payload) and `z` (the consumer output
/// whose mux is redundant under the one-hot invariant).
pub fn fig8_module(n: usize, flop: FlopVariant, generic: bool) -> Module {
    assert!(n.is_power_of_two() && (2..=128).contains(&n));
    let sel_bits = n.trailing_zeros() as usize;
    let mut m = Module::new(format!(
        "fig8_n{n}_{flop:?}_{}",
        if generic { "gen" } else { "dir" }
    ));
    m.add_input("sel", sel_bits);
    m.add_input("a", 1);
    m.add_input("b", 1);
    // One-hot decoder.
    let dec_bits: Vec<Expr> = (0..n)
        .map(|i| Expr::reference("sel").eq_const(sel_bits, i as u128))
        .collect();
    m.add_wire("y", n, Expr::concat(dec_bits));
    let bus = match flop {
        FlopVariant::NoFlop => "y".to_string(),
        _ => {
            let kind = match flop {
                FlopVariant::Plain => ResetKind::None,
                FlopVariant::SyncReset => ResetKind::Sync,
                FlopVariant::AsyncReset => ResetKind::Async,
                FlopVariant::NoFlop => unreachable!(),
            };
            m.add_register(Register {
                name: "r".into(),
                width: n,
                next: Expr::reference("y"),
                reset: RegReset { kind, value: 0 },
            });
            "r".to_string()
        }
    };
    m.add_output("bus", n, Expr::reference(&bus));
    if generic {
        // any = |(bus & (bus << 1)) — always 0 on a one-hot bus.
        let shifted = Expr::reference(&bus).shl_const(n, 1);
        let masked = Expr::reference(&bus).and(shifted);
        m.add_wire("any_adjacent", 1, masked.reduce_or());
        m.add_output(
            "z",
            1,
            Expr::reference("any_adjacent").mux(Expr::reference("a"), Expr::reference("b")),
        );
    } else {
        // The direct designer knows the invariant: the mux is gone.
        m.add_output("z", 1, Expr::reference("a"));
    }
    m
}

/// Runs one (n, flop, series) sample: x = direct area (default compile),
/// y = generic area under the series' tool configuration.
pub fn sample(n: usize, flop: FlopVariant, series: Fig8Series) -> AreaPoint {
    let lib = Library::vt90();
    let direct = fig8_module(n, flop, false);
    let base_opts = SynthOptions::default();
    let r_direct = compile_fresh(&elaborate(&direct).expect("elaborates"), &lib, &base_opts)
        .expect("compiles");

    let mut generic = fig8_module(n, flop, true);
    let opts = match series {
        Fig8Series::Regular => base_opts.clone(),
        Fig8Series::Retimed => SynthOptions::default().with_retime(),
        Fig8Series::StateAnnotated => base_opts.clone(),
    };
    if series == Fig8Series::StateAnnotated && flop != FlopVariant::NoFlop {
        generic.annotate("r", ValueSet::one_hot(n as u32));
    }
    let r_generic =
        compile_fresh(&elaborate(&generic).expect("elaborates"), &lib, &opts).expect("compiles");
    AreaPoint {
        label: format!("n{n}_{flop:?}_{series:?}"),
        x: r_direct.area.total(),
        y: r_generic.area.total(),
    }
}

/// The paper's width sweep.
pub fn paper_widths() -> Vec<usize> {
    vec![2, 4, 8, 16, 32, 64, 128]
}

/// Runs a full series over the width sweep and flop variants.
pub fn run(widths: &[usize], series: Fig8Series) -> Vec<AreaPoint> {
    let mut out = Vec::new();
    for &n in widths {
        for flop in FlopVariant::all() {
            out.push(sample(n, flop, series));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_flop_always_ideal() {
        for series in [Fig8Series::Regular, Fig8Series::StateAnnotated] {
            let p = sample(8, FlopVariant::NoFlop, series);
            assert!(
                (p.ratio() - 1.0).abs() < 0.05,
                "{}: ratio {:.3}",
                p.label,
                p.ratio()
            );
        }
    }

    #[test]
    fn flops_block_propagation_until_annotated() {
        let regular = sample(8, FlopVariant::SyncReset, Fig8Series::Regular);
        assert!(
            regular.ratio() > 1.1,
            "regular ratio {:.3}",
            regular.ratio()
        );
        let anno = sample(8, FlopVariant::SyncReset, Fig8Series::StateAnnotated);
        assert!(
            (anno.ratio() - 1.0).abs() < 0.05,
            "annotated ratio {:.3}",
            anno.ratio()
        );
    }

    #[test]
    fn annotation_stops_helping_past_32() {
        let anno64 = sample(64, FlopVariant::SyncReset, Fig8Series::StateAnnotated);
        assert!(anno64.ratio() > 1.05, "n=64 ratio {:.3}", anno64.ratio());
    }

    #[test]
    fn retiming_depends_on_flop_type() {
        let plain = sample(8, FlopVariant::Plain, Fig8Series::Retimed);
        let asyncr = sample(8, FlopVariant::AsyncReset, Fig8Series::Retimed);
        // Reset-less flops retime (and may beat the direct baseline, which
        // keeps its n flops); async-reset flops do not.
        assert!(
            plain.ratio() < 1.0,
            "plain retimed ratio {:.3}",
            plain.ratio()
        );
        assert!(
            asyncr.ratio() > 1.1,
            "async retimed ratio {:.3}",
            asyncr.ratio()
        );
    }
}
