//! Scale test for resynthesis: the runtime-programmable lowering of a
//! random FSM (m = 5 inputs, s = 17 states, about 95k elaborated gates and
//! 21.5k config and state flops), the shape of the designs the paper's
//! flexible controllers compile to.
//!
//! Nearly every cone of such a design (read-mux outputs, write-decoder
//! terms, next-state logic) is one the pass must refuse: too wide to
//! collapse, or unable to pay for its own rebuild. Refusing them has to
//! stay cheap, so `resynthesize` has a budget of 1 s. The area must be
//! exactly 609 457.1 µm², what collapsing and minimizing every cone gives:
//! a cheap refusal only rejects a cone the exact cost test would reject
//! too, so it changes no rebuild. The test is `#[ignore]`d because the
//! whole compile takes seconds even in release; run it with
//! `cargo test --release -p synthir-synth -- --ignored`.

use std::time::Duration;
use synthir_core::random::random_fsm;
use synthir_netlist::Library;
use synthir_rtl::elaborate;
use synthir_synth::{compile_netlist, SynthOptions};

#[test]
#[ignore = "release-only scale test: a ~95k-gate programmable lowering"]
fn resynthesis_of_a_programmable_lowering_stays_within_budget() {
    let spec = random_fsm(5, 16, 17, 0);
    let elab = elaborate(&spec.to_programmable_module()).unwrap();
    assert!(
        elab.netlist.num_gates() > 90_000,
        "{} gates",
        elab.netlist.num_gates()
    );
    // Uncached: the pass times below must come from a real compile.
    let r = compile_netlist(
        elab.netlist,
        elab.fsm.as_ref(),
        &elab.annotations,
        &Library::vt90(),
        &SynthOptions::default(),
    )
    .unwrap();
    let resynth = r.stats.iter().find(|s| s.name == "resynthesize").unwrap();
    assert!(
        resynth.elapsed < Duration::from_secs(1),
        "resynthesize took {:?} on {} gates",
        resynth.elapsed,
        resynth.gates_before
    );
    assert!(
        (r.area.total() - 609_457.1).abs() <= 0.05,
        "{:.2} µm², not the 609 457.1 µm² of collapsing every cone",
        r.area.total()
    );
}
