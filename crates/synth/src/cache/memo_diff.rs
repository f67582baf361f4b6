//! The elaboration memo serves exactly what a fresh elaboration gives.
//!
//! Over the corpus the key pin uses — the shipped KISS2 controllers in all
//! four lowering styles, the PCtrl Flexible and Auto lowerings, and a
//! seeded `random_fsm` grid — each module is elaborated through
//! [`elaborate`] until the memo has admitted it (its second miss), then
//! once more under a module name it has never seen, and compared with
//! [`elaborate_fresh`] under that name: the same netlist, signal map, FSM
//! nets and annotations, the same netlist key state, and the same compile
//! key. Modules without a memory (the case style) are elaborated fresh by
//! both paths and must agree too.

use super::compile_key;
use crate::options::SynthOptions;
use smpctrl::rtl::{pctrl_module, PctrlStyle};
use smpctrl::MemoryConfig;
use synthir_core::format_conv::from_kiss2;
use synthir_core::random::random_fsm;
use synthir_core::FsmSpec;
use synthir_netlist::Library;
use synthir_rtl::{elaborate, elaborate_fresh, Module};

fn shipped(name: &str) -> FsmSpec {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks");
    let text = std::fs::read_to_string(format!("{dir}/{name}.kiss2")).expect("shipped benchmark");
    from_kiss2(name, &text).expect("shipped benchmark parses")
}

fn four_styles(spec: &FsmSpec) -> [(&'static str, Module); 4] {
    [
        ("table", spec.to_table_module(false)),
        ("annotated", spec.to_table_module(true)),
        ("case", spec.to_case_module()),
        ("programmable", spec.to_programmable_module()),
    ]
}

/// Elaborates `module` through the memo until a third sighting, renamed,
/// and checks it against a fresh elaboration under the new name.
fn check(label: &str, module: &Module) {
    let lib = Library::vt90();
    let opts = SynthOptions::default();
    for _ in 0..2 {
        let e = elaborate(module).expect("corpus elaborates");
        assert!(
            e == elaborate_fresh(module).unwrap(),
            "{label}: a miss differs"
        );
    }
    let mut renamed = module.clone();
    renamed.set_name(format!("{}_renamed", module.name()));
    let hit = elaborate(&renamed).expect("corpus elaborates");
    let fresh = elaborate_fresh(&renamed).expect("corpus elaborates");
    assert!(hit.netlist == fresh.netlist, "{label}: netlists differ");
    assert_eq!(hit.netlist.name(), renamed.name(), "{label}");
    assert_eq!(hit.signals, fresh.signals, "{label}: signal maps");
    assert_eq!(hit.fsm, fresh.fsm, "{label}: FSM nets");
    assert_eq!(hit.annotations, fresh.annotations, "{label}: annotations");
    assert_eq!(
        hit.netlist.key_state(),
        fresh.netlist.key_state(),
        "{label}: key state"
    );
    assert_eq!(
        compile_key(&hit, &lib, &opts),
        compile_key(&fresh, &lib, &opts),
        "{label}: compile key"
    );
}

#[test]
fn memo_hits_equal_fresh_elaborations_over_the_key_pin_corpus() {
    for name in ["traffic_light", "seq_detect", "elevator", "dma_ctrl"] {
        for (style, m) in four_styles(&shipped(name)) {
            check(&format!("{name} {style}"), &m);
        }
    }
    for (tag, cfg) in [
        ("cached", MemoryConfig::cached()),
        ("uncached", MemoryConfig::uncached()),
    ] {
        for (flavor, style) in [
            ("flexible", PctrlStyle::Flexible),
            ("auto", PctrlStyle::Bound),
        ] {
            let m = pctrl_module(&cfg, style).expect("pctrl lowers");
            check(&format!("pctrl {tag} {flavor}"), &m);
        }
    }
    for (m, n, s, seed) in [(1, 2, 2, 1), (2, 8, 3, 2), (2, 8, 16, 3), (4, 4, 5, 4)] {
        for (style, module) in four_styles(&random_fsm(m, n, s, seed)) {
            check(
                &format!("random_fsm({m}, {n}, {s}, {seed}) {style}"),
                &module,
            );
        }
    }
}

/// The whole Fig. 6 grid (m ∈ {2, 8}, n ∈ {2, 8, 16}, s ∈ {2, 3, 8, 16,
/// 17}) in all four styles. The largest programmable lowerings exceed the
/// memo's budget, so they are never stored and every sighting is fresh.
#[test]
#[ignore = "release-only: the m = 8, s ≥ 16 lowerings elaborate to ~10⁵ gates"]
fn memo_hits_equal_fresh_elaborations_over_the_fig6_grid() {
    for (m, n, s) in synthir_bench::fig6::paper_grid() {
        for (style, module) in four_styles(&random_fsm(m, n, s, 1)) {
            check(&format!("m={m} n={n} s={s} {style}"), &module);
        }
    }
}
