//! Property-based tests: every synthesis pass must preserve the function
//! of randomly generated netlists.

use proptest::prelude::*;
use synthir_netlist::{GateKind, NetId, Netlist};
use synthir_sim::{check_comb_equiv, EquivOptions};

/// Builds a random combinational netlist over `n_inputs` inputs with
/// `n_gates` gates, outputs on the last few nets.
fn random_netlist(n_inputs: usize, n_gates: usize, seed: u64) -> Netlist {
    let mut nl = Netlist::new("rand");
    let mut pool: Vec<NetId> = nl.add_input("x", n_inputs);
    let kinds = [
        GateKind::And2,
        GateKind::Or2,
        GateKind::Xor2,
        GateKind::Nand2,
        GateKind::Nor2,
        GateKind::Inv,
        GateKind::Mux2,
        GateKind::Xnor2,
    ];
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..n_gates {
        let kind = kinds[(next() % kinds.len() as u64) as usize];
        let ins: Vec<NetId> = (0..kind.arity())
            .map(|_| pool[(next() % pool.len() as u64) as usize])
            .collect();
        let out = nl.add_gate(kind, &ins);
        pool.push(out);
    }
    let n_out = 3.min(pool.len());
    let outs: Vec<NetId> = pool[pool.len() - n_out..].to_vec();
    nl.add_output("y", &outs);
    nl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn resynthesis_preserves_function(seed in any::<u64>()) {
        let golden = random_netlist(6, 20, seed);
        let mut opt = golden.clone();
        synthir_synth::resynth::resynthesize(&mut opt, &synthir_netlist::Library::vt90());
        let res = check_comb_equiv(&golden, &opt, &EquivOptions::new()).unwrap();
        prop_assert!(res.is_equivalent(), "{res:?}");
    }

    #[test]
    fn cutmap_preserves_function(seed in any::<u64>()) {
        let golden = random_netlist(5, 24, seed);
        let mut opt = golden.clone();
        synthir_synth::cut_map(&mut opt, &synthir_netlist::Library::vt90());
        let res = check_comb_equiv(&golden, &opt, &EquivOptions::new()).unwrap();
        prop_assert!(res.is_equivalent(), "{res:?}");
    }

    #[test]
    fn full_flow_preserves_function_and_never_grows_area(seed in any::<u64>()) {
        let golden = random_netlist(6, 28, seed);
        let lib = synthir_netlist::Library::vt90();
        let opts = synthir_synth::SynthOptions::default();
        let r = synthir_synth::flow::compile_netlist(
            golden.clone(), None, &[], &lib, &opts,
        ).unwrap();
        let res = check_comb_equiv(&golden, &r.netlist, &EquivOptions::new()).unwrap();
        prop_assert!(res.is_equivalent(), "{res:?}");
        let before = golden.area_report(&lib).total();
        prop_assert!(
            r.area.total() <= before * 1.01,
            "area grew: {} -> {}",
            before,
            r.area.total()
        );
    }
}
