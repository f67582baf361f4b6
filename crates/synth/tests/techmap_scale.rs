//! Scale test for the rule mapper: the largest plain-table point of the
//! Fig. 6 grid (m = 8 inputs, s = 17 states, about 172k elaborated gates).
//!
//! A mapping round must cost time linear in the netlist, so `techmap` has
//! to stay within a budget far above its linear cost and far below the
//! quadratic one (tens of seconds at this size). The test is `#[ignore]`d
//! because the whole compile takes seconds even in release; run it with
//! `cargo test --release -p synthir-synth -- --ignored`.

use std::time::Duration;
use synthir_core::random::random_fsm;
use synthir_netlist::Library;
use synthir_rtl::elaborate;
use synthir_synth::{compile, SynthOptions};

#[test]
#[ignore = "release-only scale test: a ~172k-gate compile"]
fn rule_mapper_maps_the_largest_fig6_table_within_budget() {
    let spec = random_fsm(8, 16, 17, 0);
    let elab = elaborate(&spec.to_table_module(false)).unwrap();
    assert!(
        elab.netlist.num_gates() > 150_000,
        "{} gates",
        elab.netlist.num_gates()
    );
    let r = compile(&elab, &Library::vt90(), &SynthOptions::default()).unwrap();
    let techmap = r.stats.iter().find(|s| s.name == "techmap").unwrap();
    assert!(
        techmap.elapsed < Duration::from_secs(3),
        "techmap took {:?} on {} gates",
        techmap.elapsed,
        techmap.gates_before
    );
}
