//! Cross-crate integration tests: partial evaluation must be *sound* —
//! every specialized controller behaves exactly like its flexible parent
//! programmed with the same table.

use synthir::core::random::{random_fsm, random_microprogram};
use synthir::core::sequencer::{generate, SequencerOptions};
use synthir::netlist::Library;
use synthir::rtl::elaborate;
use synthir::sim::{check_seq_equiv, EquivOptions};
use synthir::synth::{compile, SynthOptions};

/// The compiled table FSM equals its uncompiled elaboration, across random
/// specs and all optimization paths (plain / annotated).
#[test]
fn compiled_fsm_equals_elaborated_fsm() {
    let lib = Library::vt90();
    let opts = SynthOptions::default();
    for seed in 0..6u64 {
        let spec = random_fsm(2, 4, 3 + (seed as usize % 4), seed);
        for annotated in [false, true] {
            let module = spec.to_table_module(annotated);
            let elab = elaborate(&module).unwrap();
            let compiled = compile(&elab, &lib, &opts).unwrap();
            let verdict =
                check_seq_equiv(&elab.netlist, &compiled.netlist, &EquivOptions::new()).unwrap();
            assert!(
                verdict.is_equivalent(),
                "seed {seed} annotated {annotated}: {verdict:?}"
            );
        }
    }
}

/// The case style and the table style of the same spec are sequentially
/// equivalent after compilation.
#[test]
fn styles_agree_after_compile() {
    let lib = Library::vt90();
    let opts = SynthOptions::default();
    for seed in [3u64, 9] {
        let spec = random_fsm(2, 3, 5, seed);
        let a = compile(&elaborate(&spec.to_case_module()).unwrap(), &lib, &opts).unwrap();
        let b = compile(
            &elaborate(&spec.to_table_module(true)).unwrap(),
            &lib,
            &opts,
        )
        .unwrap();
        let verdict = check_seq_equiv(&a.netlist, &b.netlist, &EquivOptions::new()).unwrap();
        assert!(verdict.is_equivalent(), "seed {seed}: {verdict:?}");
    }
}

/// Compiled sequencers (with every annotation enabled) keep the behaviour
/// of their microprogram.
#[test]
fn compiled_sequencer_matches_reference() {
    let lib = Library::vt90();
    let opts = SynthOptions::default();
    for seed in 0..4u64 {
        let program = random_microprogram(10, 2, seed);
        let module = generate(
            &program,
            SequencerOptions {
                register_outputs: true,
                annotate_fsm: true,
                annotate_fields: true,
                ..Default::default()
            },
        )
        .unwrap();
        let elab = elaborate(&module).unwrap();
        let compiled = compile(&elab, &lib, &opts).unwrap();
        let verdict =
            check_seq_equiv(&elab.netlist, &compiled.netlist, &EquivOptions::new()).unwrap();
        assert!(verdict.is_equivalent(), "seed {seed}: {verdict:?}");
    }
}

/// The PCtrl flavours stay equivalent to their own elaborations (Auto and
/// Manual must not change behaviour while shrinking area).
#[test]
fn pctrl_optimization_is_sound() {
    use synthir::pctrl::rtl::{pctrl_module, PctrlStyle};
    use synthir::pctrl::MemoryConfig;
    let lib = Library::vt90();
    let opts = SynthOptions::default();
    for cfg in [MemoryConfig::cached(), MemoryConfig::uncached()] {
        for style in [PctrlStyle::Bound, PctrlStyle::BoundAnnotated] {
            let module = pctrl_module(&cfg, style).unwrap();
            let elab = elaborate(&module).unwrap();
            let compiled = compile(&elab, &lib, &opts).unwrap();
            let verdict =
                check_seq_equiv(&elab.netlist, &compiled.netlist, &EquivOptions::new()).unwrap();
            assert!(
                verdict.is_equivalent(),
                "{} {style:?}: {verdict:?}",
                cfg.tag()
            );
        }
    }
}
