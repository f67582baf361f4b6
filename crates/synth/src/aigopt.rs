//! The AIG cleanup pass: the netlist-facing wrapper around the
//! [`synthir_aig`] optimization core.
//!
//! One invocation folds constants and shares logic without fixpoint loops
//! over the flat netlist: the netlist is imported into a structurally
//! hashed And-Inverter Graph — where constant folding, sharing, and two-level
//! simplification happen *at construction* — locally rewritten (2-input-cut
//! NPN resynthesis plus dangling-node sweep), optionally SAT-swept, and
//! exported back. Port names, flop reset/init semantics, and the FSM /
//! value-set annotations the paper's flow depends on are carried across the
//! round-trip by literal maps.

use synthir_aig::{from_netlist, optimize, to_netlist, AigLit, SweepOptions};
use synthir_netlist::{NetId, Netlist};
use synthir_rtl::elaborate::{FsmNets, NetGroupValues};

/// Runs the AIG cleanup over `nl` in place, remapping the FSM metadata and
/// value-set annotations onto the rebuilt netlist. Returns the number of
/// rewrites: gates eliminated across the round-trip (construction-time
/// folding included) plus SAT-sweep merges.
pub fn aig_optimize(
    nl: &mut Netlist,
    mut fsm: Option<&mut FsmNets>,
    annotations: &mut [NetGroupValues],
    sat_sweep: bool,
) -> usize {
    let gates_before = nl.num_gates();
    let Ok(imp) = from_netlist(nl) else {
        // Cyclic netlists are rejected by `compile`'s validation before any
        // pass runs; a failure here means "leave the netlist untouched".
        return 0;
    };
    // Literals that must stay materialized across the rebuild: the FSM
    // state vector and every annotated net group.
    let mut keep: Vec<AigLit> = Vec::new();
    let net_keep = |keep: &mut Vec<AigLit>, nets: &[NetId]| -> bool {
        let lits: Option<Vec<AigLit>> = nets.iter().map(|&n| imp.lits.get(n)).collect();
        match lits {
            Some(lits) => {
                keep.extend(&lits);
                true
            }
            None => false,
        }
    };
    let fsm_mapped = fsm
        .as_ref()
        .is_some_and(|f| net_keep(&mut keep, &f.state_nets));
    let anno_mapped: Vec<bool> = annotations
        .iter()
        .map(|g| net_keep(&mut keep, &g.nets))
        .collect();

    let sweep_opts = SweepOptions::default();
    let (opt, stats) = optimize(&imp.aig, &keep, sat_sweep.then_some(&sweep_opts));
    let exp = to_netlist(
        &opt.aig,
        &keep.iter().map(|&l| opt.lit(l)).collect::<Vec<_>>(),
    );

    // Remap the metadata through import → optimize → export.
    let remap = |nets: &mut [NetId]| {
        for n in nets.iter_mut() {
            let lit = opt.lit(imp.lits.get(*n).expect("kept net was mapped"));
            *n = exp.net_of(lit).expect("kept literal has a net");
        }
    };
    if fsm_mapped {
        if let Some(f) = &mut fsm {
            remap(&mut f.state_nets);
        }
    }
    for (g, mapped) in annotations.iter_mut().zip(&anno_mapped) {
        if *mapped {
            remap(&mut g.nets);
        } else {
            // A net of this group was invisible to the import (cannot
            // happen for elaborated designs); neutralize the group rather
            // than let stale ids alias the rebuilt netlist.
            g.nets.clear();
        }
    }
    *nl = exp.netlist;
    gates_before.saturating_sub(nl.num_gates()) + stats.sat_merges
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthir_logic::ValueSet;
    use synthir_netlist::{GateKind, ResetKind};

    #[test]
    fn folds_and_shares_in_one_call() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_input("b", 1)[0];
        let c1 = nl.const1();
        let x = nl.add_gate(GateKind::And2, &[a, c1]); // == a
        let y = nl.add_gate(GateKind::And2, &[x, b]);
        let z = nl.add_gate(GateKind::And2, &[b, a]); // == y after folding
        let w = nl.add_gate(GateKind::Or2, &[y, z]); // == y
        nl.add_output("w", &[w]);
        let n = aig_optimize(&mut nl, None, &mut [], false);
        assert!(n >= 1);
        // One And2 remains.
        assert_eq!(nl.num_gates(), 1);
        nl.validate().unwrap();
    }

    #[test]
    fn fsm_metadata_is_remapped_onto_surviving_flops() {
        let mut nl = Netlist::new("t");
        let rst = nl.add_input("rst", 1)[0];
        let d = nl.add_input("d", 1)[0];
        // A state register behind a removable double inverter.
        let i1 = nl.add_gate(GateKind::Inv, &[d]);
        let i2 = nl.add_gate(GateKind::Inv, &[i1]);
        let q = nl.add_gate(
            GateKind::Dff {
                reset: ResetKind::Sync,
                init: false,
            },
            &[i2, rst],
        );
        nl.add_output("q", &[q]);
        let mut fsm = FsmNets {
            state_nets: vec![q],
            codes: vec![0, 1],
            reset_code: 0,
        };
        aig_optimize(&mut nl, Some(&mut fsm), &mut [], false);
        // The state net survived and is still flop-driven.
        let sq = fsm.state_nets[0];
        let drv = nl.driver(sq).expect("state net driven");
        assert!(nl.gate(drv).kind.is_sequential());
        assert_eq!(nl.flop_count(), 1);
        // The double inverter is gone.
        assert_eq!(nl.num_gates(), 1);
    }

    #[test]
    fn annotations_follow_their_nets() {
        let mut nl = Netlist::new("t");
        let x = nl.add_input("x", 2);
        let i1 = nl.add_gate(GateKind::Inv, &[x[0]]);
        let g0 = nl.add_gate(GateKind::Inv, &[i1]); // == x[0]
        let y = nl.add_gate(GateKind::And2, &[g0, x[1]]);
        nl.add_output("y", &[y]);
        let mut annos = vec![NetGroupValues {
            nets: vec![g0, x[1]],
            values: ValueSet::from_values(2, [0b01u128, 0b10]),
        }];
        aig_optimize(&mut nl, None, &mut annos, false);
        // Every annotated net exists in the rebuilt netlist and feeds the
        // surviving logic (g0 collapsed onto the input).
        for &n in &annos[0].nets {
            assert!(n.index() < nl.num_nets());
        }
        nl.validate().unwrap();
    }
}
