//! Compiling the same design twice must give the same netlist quality.
//!
//! Every `HashMap`/`HashSet` draws its own random hash keys, so iteration
//! order differs between two maps over the same keys even within one
//! process. A pass that lets that order reach a decision — summing `f64`
//! areas in set order, or taking the first qualifying entry of a map —
//! makes area, timing and gate count vary from one compile to the next.
//! Each design below is compiled several times in this process and every
//! run must agree bit for bit. The runs call the uncached
//! [`compile_netlist`]: through `compile`, every run after the second
//! would be served from the compile cache and prove nothing.

use synthir_bench::fig8::{fig8_module, FlopVariant};
use synthir_core::format_conv::from_kiss2;
use synthir_core::random::random_fsm;
use synthir_netlist::Library;
use synthir_rtl::elaborate::Elaborated;
use synthir_rtl::{elaborate, Expr, Module, RegReset, Register, ResetKind};
use synthir_synth::{compile_netlist, SynthOptions};

const RUNS: usize = 8;

/// Area and critical path as raw bits (no tolerance), plus the gate count.
fn qor(elab: &Elaborated, lib: &Library, opts: &SynthOptions) -> (u64, u64, usize) {
    let r = compile_netlist(
        elab.netlist.clone(),
        elab.fsm.as_ref(),
        &elab.annotations,
        lib,
        opts,
    )
    .expect("design compiles");
    (
        r.area.total().to_bits(),
        r.timing.critical_delay.to_bits(),
        r.netlist.num_gates(),
    )
}

fn assert_repeatable(label: &str, module: &Module, opts: &SynthOptions) {
    let lib = Library::vt90();
    let elab = elaborate(module).expect("design elaborates");
    let first = qor(&elab, &lib, opts);
    for run in 1..RUNS {
        let again = qor(&elab, &lib, opts);
        assert_eq!(
            again,
            first,
            "{label}: run {run} gave area {} µm² / {} ns / {} gates, run 0 gave {} µm² / {} ns / {} gates",
            f64::from_bits(again.0),
            f64::from_bits(again.1),
            again.2,
            f64::from_bits(first.0),
            f64::from_bits(first.1),
            first.2,
        );
    }
}

#[test]
fn shipped_controllers_compile_repeatably() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks");
    for name in ["traffic_light", "seq_detect", "elevator", "dma_ctrl"] {
        let text = std::fs::read_to_string(format!("{dir}/{name}.kiss2"))
            .expect("shipped benchmark exists");
        let spec = from_kiss2(name, &text).expect("shipped benchmark parses");
        for (style, module) in [
            ("annotated table", spec.to_table_module(true)),
            ("programmable", spec.to_programmable_module()),
        ] {
            let label = format!("{name} {style}");
            assert_repeatable(&label, &module, &SynthOptions::default());
        }
    }
}

#[test]
fn random_annotated_fsms_compile_repeatably() {
    for (m, n, s, seed) in [(2, 2, 5, 1), (3, 4, 7, 2), (3, 3, 11, 3), (4, 5, 6, 4)] {
        let spec = random_fsm(m, n, s, seed);
        let label = format!("random_fsm(m={m}, n={n}, s={s}, seed={seed})");
        assert_repeatable(
            &label,
            &spec.to_table_module(true),
            &SynthOptions::default(),
        );
    }
}

/// Four Fig. 7 decoder banks, two reset-less and two with a synchronous
/// reset to the decoder's `sel = 0` word, behind one shared consumer. Both
/// flop groups qualify for backward retiming, so the result depends on the
/// order in which retiming visits them.
fn two_group_fig8_module(n: usize) -> Module {
    let sel_bits = n.trailing_zeros() as usize;
    let mut m = Module::new("fig8_two_groups");
    m.add_input("a", 1);
    m.add_input("b", 1);
    let mut any: Option<Expr> = None;
    for (bank, kind) in [
        ("p", ResetKind::None),
        ("s", ResetKind::Sync),
        ("q", ResetKind::None),
        ("t", ResetKind::Sync),
    ] {
        let sel = format!("sel_{bank}");
        let r = format!("r_{bank}");
        m.add_input(&sel, sel_bits);
        let decoder = (0..n)
            .map(|i| Expr::reference(&sel).eq_const(sel_bits, i as u128))
            .collect();
        m.add_register(Register {
            name: r.clone(),
            width: n,
            next: Expr::concat(decoder),
            reset: RegReset { kind, value: 1 },
        });
        m.add_output(format!("bus_{bank}"), n, Expr::reference(&r));
        let adjacent = Expr::reference(&r)
            .and(Expr::reference(&r).shl_const(n, 1))
            .reduce_or();
        any = Some(match any {
            Some(acc) => acc.or(adjacent),
            None => adjacent,
        });
    }
    m.add_wire("any_adjacent", 1, any.expect("four banks"));
    m.add_output(
        "z",
        1,
        Expr::reference("any_adjacent").mux(Expr::reference("a"), Expr::reference("b")),
    );
    m
}

#[test]
fn fig8_retimed_designs_compile_repeatably() {
    let opts = SynthOptions::default().with_retime();
    for n in [4, 8, 16] {
        for flop in [FlopVariant::Plain, FlopVariant::SyncReset] {
            let label = format!("fig8 n={n} {flop:?} retimed");
            assert_repeatable(&label, &fig8_module(n, flop, true), &opts);
        }
        let label = format!("fig8 two flop groups n={n} retimed");
        assert_repeatable(&label, &two_group_fig8_module(n), &opts);
    }
}
