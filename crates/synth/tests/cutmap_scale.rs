//! Scale test for the technology mapper: the largest plain-table point of
//! the Fig. 6 grid (m = 8 inputs, s = 17 states, about 172k elaborated
//! gates).
//!
//! Cut enumeration, matching and cover selection are linear in the AIG,
//! so `cutmap` has to stay within a budget far above its linear cost. Its
//! area must not exceed 72 780 µm², what the former peephole rule mapper
//! produced on this design. The test is `#[ignore]`d because the whole
//! compile takes seconds even in release; run it with
//! `cargo test --release -p synthir-synth -- --ignored`.

use std::time::Duration;
use synthir_core::random::random_fsm;
use synthir_netlist::Library;
use synthir_rtl::elaborate;
use synthir_synth::{compile_netlist, SynthOptions};

#[test]
#[ignore = "release-only scale test: a ~172k-gate compile"]
fn cut_mapper_maps_the_largest_fig6_table_within_budget() {
    let spec = random_fsm(8, 16, 17, 0);
    let elab = elaborate(&spec.to_table_module(false)).unwrap();
    assert!(
        elab.netlist.num_gates() > 150_000,
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
    let cutmap = r.stats.iter().find(|s| s.name == "cutmap").unwrap();
    assert!(
        cutmap.elapsed < Duration::from_secs(3),
        "cutmap took {:?} on {} gates",
        cutmap.elapsed,
        cutmap.gates_before
    );
    assert!(
        r.area.total() <= 72_780.0,
        "{:.1} µm² over the rule mapper's 72 780 µm²",
        r.area.total()
    );
}
