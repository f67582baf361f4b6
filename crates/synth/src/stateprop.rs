//! State propagation and folding (the `1 < k < 2^n` generalization of
//! constant propagation — Section III-B of the paper).
//!
//! Given a *value-set annotation* on a group of nets (e.g. "this 8-bit bus
//! is one-hot"), the pass evaluates every net computable from the group over
//! all `k` values. Nets that are constant across the whole set are folded;
//! nets with identical columns are merged (the "merging nodes under
//! observability" optimization of the paper's reference \[16\]).
//!
//! Two faithful limitations of the commercial tool are modelled:
//!
//! * **flop boundaries stop propagation** — the cone exploration never
//!   crosses a sequential element, so an annotation on logic *before* a flop
//!   does nothing for logic *after* it (the paper's Fig. 8 finding); and
//! * **an effort cap on `k`** — sets wider than [`MAX_VALUESET`] are
//!   ignored, which reproduces the
//!   paper's observation that annotating subfields wider than 32 bits stops
//!   being effective.

use std::collections::{HashMap, HashSet};
use synthir_netlist::{topo, NetId, Netlist};
use synthir_rtl::elaborate::NetGroupValues;

/// The flow's cap on value-set size (`k` in the paper): annotations with
/// more values are ignored, which reproduces the paper's observation that
/// manual annotation stops helping beyond 32-bit one-hot subfields.
pub const MAX_VALUESET: usize = 32;

/// Applies state propagation and folding for each annotated group.
/// Returns the number of nets folded or merged.
pub fn state_propagate(nl: &mut Netlist, groups: &[NetGroupValues], max_k: usize) -> usize {
    let mut changed = 0;
    for g in groups {
        changed += propagate_group(nl, g, max_k);
    }
    if changed > 0 {
        nl.sweep();
    }
    changed
}

fn propagate_group(nl: &mut Netlist, group: &NetGroupValues, max_k: usize) -> usize {
    let values = group.values.widen(max_k);
    let Some(k) = values.len() else {
        return 0; // unconstrained after widening: the tool gives up
    };
    if k == 0 || group.nets.is_empty() {
        return 0;
    }
    let vals: Vec<u128> = values
        .iter_values()
        .expect("constrained set enumerates")
        .collect();

    // Find the cone: nets computable from the group and constants only,
    // never crossing a flop boundary.
    let Ok(order) = topo::topological_order(nl) else {
        return 0;
    };
    let group_nets: HashSet<NetId> = group.nets.iter().copied().collect();
    let mut supported: HashSet<NetId> = group_nets.clone();
    let mut cone: Vec<(NetId, synthir_netlist::GateId)> = Vec::new();
    for gid in &order {
        let g = nl.gate(*gid);
        if g.kind.is_sequential() {
            continue; // flop boundary: propagation stops here
        }
        if g.kind.is_constant() {
            supported.insert(g.output);
            continue;
        }
        if g.inputs.iter().all(|i| supported.contains(i)) && !group_nets.contains(&g.output) {
            supported.insert(g.output);
            cone.push((g.output, *gid));
        }
    }
    if cone.is_empty() {
        return 0;
    }

    // Evaluate the cone over all k values, 64 per word.
    let words = k.div_ceil(64);
    let mut sigs: HashMap<NetId, Vec<u64>> = HashMap::new();
    for (n, _) in &cone {
        sigs.insert(*n, vec![0u64; words]);
    }
    let mut net_vals = vec![0u64; nl.num_nets()];
    for w in 0..words {
        for (bit_idx, &net) in group.nets.iter().enumerate() {
            let mut word = 0u64;
            for b in 0..64 {
                let vi = w * 64 + b;
                if vi < k && vals[vi] >> bit_idx & 1 != 0 {
                    word |= 1 << b;
                }
            }
            net_vals[net.index()] = word;
        }
        for (_, g) in nl.gates() {
            if g.kind.is_constant() {
                net_vals[g.output.index()] = g.kind.eval_words(&[]);
            }
        }
        let mut ins = Vec::with_capacity(4);
        for (n, gid) in &cone {
            let g = nl.gate(*gid);
            ins.clear();
            ins.extend(g.inputs.iter().map(|i| net_vals[i.index()]));
            let v = g.kind.eval_words(&ins);
            net_vals[n.index()] = v;
            sigs.get_mut(n).expect("cone net")[w] = v;
        }
    }

    // Mask for the tail of the last word.
    let tail_bits = k - (words - 1) * 64;
    let tail_mask = if tail_bits == 64 {
        u64::MAX
    } else {
        (1u64 << tail_bits) - 1
    };
    let is_const = |sig: &[u64], val: bool| -> bool {
        for (i, &w) in sig.iter().enumerate() {
            let mask = if i + 1 == sig.len() {
                tail_mask
            } else {
                u64::MAX
            };
            let expect = if val { mask } else { 0 };
            if w & mask != expect {
                return false;
            }
        }
        true
    };

    let mut changed = 0;
    let mut reps: HashMap<Vec<u64>, NetId> = HashMap::new();
    for (n, _) in &cone {
        let sig = sigs[n].clone();
        if is_const(&sig, false) {
            let c = nl.const0();
            nl.replace_net_uses(*n, c);
            changed += 1;
        } else if is_const(&sig, true) {
            let c = nl.const1();
            nl.replace_net_uses(*n, c);
            changed += 1;
        } else {
            let mut key = sig;
            if let Some(last) = key.last_mut() {
                *last &= tail_mask;
            }
            match reps.get(&key) {
                Some(&rep) => {
                    nl.replace_net_uses(*n, rep);
                    changed += 1;
                }
                None => {
                    reps.insert(key, *n);
                }
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthir_logic::ValueSet;
    use synthir_netlist::{GateKind, ResetKind};

    /// The paper's ones-counter example: over a one-hot bus, `|(y & (y<<1))`
    /// is constant 0 and should fold away.
    fn pairwise_and_design(n: usize, annotate: bool) -> (Netlist, Vec<NetGroupValues>, NetId) {
        let mut nl = Netlist::new("t");
        let y = nl.add_input("y", n);
        let mut terms = Vec::new();
        for i in 0..n - 1 {
            terms.push(nl.add_gate(GateKind::And2, &[y[i], y[i + 1]]));
        }
        let mut acc = terms[0];
        for &t in &terms[1..] {
            acc = nl.add_gate(GateKind::Or2, &[acc, t]);
        }
        nl.add_output("any_adjacent", &[acc]);
        let groups = if annotate {
            vec![NetGroupValues {
                nets: y,
                values: ValueSet::one_hot(n as u32),
            }]
        } else {
            vec![]
        };
        (nl, groups, acc)
    }

    #[test]
    fn folds_onehot_invariant_to_constant() {
        let (mut nl, groups, _) = pairwise_and_design(8, true);
        let changed = state_propagate(&mut nl, &groups, 32);
        assert!(changed > 0);
        assert_eq!(nl.as_constant(nl.output_nets()[0]), Some(false));
        assert_eq!(nl.num_gates(), 1); // just the const cell
    }

    #[test]
    fn no_annotation_no_folding() {
        let (mut nl, groups, _) = pairwise_and_design(8, false);
        let before = nl.num_gates();
        let changed = state_propagate(&mut nl, &groups, 32);
        assert_eq!(changed, 0);
        assert_eq!(nl.num_gates(), before);
    }

    #[test]
    fn widening_limit_disables_large_sets() {
        let (mut nl, groups, _) = pairwise_and_design(40, true);
        // k = 40 > 32: the tool's effort limit ignores the annotation.
        let changed = state_propagate(&mut nl, &groups, 32);
        assert_eq!(changed, 0);
        // With a higher limit it works.
        let changed = state_propagate(&mut nl, &groups, 64);
        assert!(changed > 0);
    }

    #[test]
    fn stops_at_flop_boundary() {
        // annotation on y, but the consumer logic reads flop(y): no folding.
        let n = 4;
        let mut nl = Netlist::new("t");
        let y = nl.add_input("y", n);
        let r: Vec<NetId> = y
            .iter()
            .map(|&b| {
                nl.add_gate(
                    GateKind::Dff {
                        reset: ResetKind::None,
                        init: false,
                    },
                    &[b],
                )
            })
            .collect();
        let t = nl.add_gate(GateKind::And2, &[r[0], r[1]]);
        nl.add_output("o", &[t]);
        let groups = vec![NetGroupValues {
            nets: y.clone(),
            values: ValueSet::one_hot(n as u32),
        }];
        let changed = state_propagate(&mut nl, &groups, 32);
        assert_eq!(changed, 0, "propagation must not cross the flops");
        // Annotating the flop outputs themselves does fold.
        let groups = vec![NetGroupValues {
            nets: r,
            values: ValueSet::one_hot(n as u32),
        }];
        let changed = state_propagate(&mut nl, &groups, 32);
        assert!(changed > 0);
        assert_eq!(nl.as_constant(nl.output_nets()[0]), Some(false));
    }

    #[test]
    fn merges_equal_columns() {
        // Over the set {01, 10}, y0 and !y1 are the same function.
        let mut nl = Netlist::new("t");
        let y = nl.add_input("y", 2);
        let ny1 = nl.add_gate(GateKind::Inv, &[y[1]]);
        let a = nl.add_gate(GateKind::And2, &[y[0], y[0]]); // buf-ish
        nl.add_output("p", &[ny1]);
        nl.add_output("q", &[a]);
        let groups = vec![NetGroupValues {
            nets: y,
            values: ValueSet::from_values(2, [0b01, 0b10]),
        }];
        let changed = state_propagate(&mut nl, &groups, 32);
        assert!(changed >= 1);
        assert_eq!(nl.output_nets()[0], nl.output_nets()[1]);
    }

    #[test]
    fn constant_singleton_set_acts_like_constant_propagation() {
        // k = 1: the degenerate case the paper notes is ordinary constprop.
        let mut nl = Netlist::new("t");
        let y = nl.add_input("y", 3);
        let t0 = nl.add_gate(GateKind::And2, &[y[0], y[1]]);
        let t1 = nl.add_gate(GateKind::Or2, &[t0, y[2]]);
        nl.add_output("o", &[t1]);
        let groups = vec![NetGroupValues {
            nets: y,
            values: ValueSet::constant(3, 0b011),
        }];
        state_propagate(&mut nl, &groups, 32);
        assert_eq!(nl.as_constant(nl.output_nets()[0]), Some(true));
    }
}
