//! The synthesis flow ends at the technology mapper, with no sweep after
//! it: `cut_map` must emit no dead gate, so a mapped netlist, and the
//! netlist `compile_netlist` returns, sweeps to nothing.

use synthir_core::format_conv::from_kiss2;
use synthir_core::random::random_fsm;
use synthir_netlist::{Library, Netlist};
use synthir_rtl::{elaborate, Module};
use synthir_synth::{compile_netlist, cut_map, SynthOptions};

/// The shipped KISS2 controllers in every lowering style, plus a Fig. 6
/// sample (random FSM, m = 2, n = 8, s = 8) as a case and an annotated
/// table.
fn designs() -> Vec<(String, Module)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks");
    let mut out = Vec::new();
    for name in ["traffic_light", "seq_detect", "elevator", "dma_ctrl"] {
        let text = std::fs::read_to_string(format!("{dir}/{name}.kiss2"))
            .expect("shipped benchmark exists");
        let spec = from_kiss2(name, &text).expect("shipped benchmark parses");
        for (style, module) in [
            ("table", spec.to_table_module(false)),
            ("annotated", spec.to_table_module(true)),
            ("case", spec.to_case_module()),
            ("programmable", spec.to_programmable_module()),
        ] {
            out.push((format!("{name} {style}"), module));
        }
    }
    let spec = random_fsm(2, 8, 8, 1);
    out.push(("fig6 case".into(), spec.to_case_module()));
    out.push(("fig6 annotated".into(), spec.to_table_module(true)));
    out
}

fn assert_sweeps_to_nothing(label: &str, nl: &Netlist) {
    let dead = nl.clone().sweep();
    assert_eq!(dead, 0, "{label}: {dead} dead gates");
}

#[test]
fn mapped_controllers_have_no_dead_gates() {
    let lib = Library::vt90();
    for (label, module) in designs() {
        let mut nl = elaborate(&module).expect("design elaborates").netlist;
        cut_map(&mut nl, &lib);
        assert_sweeps_to_nothing(&label, &nl);
    }
}

#[test]
fn compiled_controllers_sweep_to_nothing() {
    let lib = Library::vt90();
    let base = SynthOptions::default();
    for opts in [base.clone(), base.with_verify_each_pass()] {
        for (label, module) in designs() {
            let elab = elaborate(&module).expect("design elaborates");
            let r = compile_netlist(
                elab.netlist.clone(),
                elab.fsm.as_ref(),
                &elab.annotations,
                &lib,
                &opts,
            )
            .expect("design compiles");
            let label = format!("{label} (verify_each_pass {})", opts.verify_each_pass);
            assert_sweeps_to_nothing(&label, &r.netlist);
        }
    }
}
