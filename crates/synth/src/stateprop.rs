//! State propagation and folding (the `1 < k < 2^n` generalization of
//! constant propagation — Section III-B of the paper).
//!
//! Given a *value-set annotation* on a group of nets (e.g. "this 8-bit bus
//! is one-hot"), the pass evaluates every net computable from the group over
//! all `k` values. Nets that are constant across the whole set are folded;
//! nets with identical columns are merged (the "merging nodes under
//! observability" optimization of the paper's reference \[16\]).
//!
//! One topological scan finds the group's forward cone. The cone is then
//! compiled into one `conefn::Cone` program whose leaves are the group
//! nets, and simulated with the value set's patterns, 64 values per word.
//! A group net that a gate drives (a decoder's outputs, say) is read at the
//! net, as the annotation describes it, never through its driver.
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

use crate::conefn::Cone;
use std::collections::hash_map::Entry;
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
    let mut cone: Vec<NetId> = Vec::new();
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
            cone.push(g.output);
        }
    }
    if cone.is_empty() {
        return 0;
    }

    // Evaluate the cone over all k values, 64 per word, as one program
    // whose leaves are the group nets. A group net driven by a constant is
    // no leaf, so it reads as that constant.
    let (leaves, support): (Vec<usize>, Vec<NetId>) = (group.nets.iter().copied().enumerate())
        .filter(|&(_, n)| nl.as_constant(n).is_none())
        .unzip();
    let words = k.div_ceil(64);
    // Bits past the k-th value are masked off every signature.
    let mask = |w: usize| match k - w * 64 {
        bits @ 1..64 => (1u64 << bits) - 1,
        _ => u64::MAX,
    };
    let value_word = |i: usize, w: usize| -> u64 {
        let bit = leaves[i];
        (0..64)
            .filter(|b| vals.get(w * 64 + b).is_some_and(|v| v >> bit & 1 != 0))
            .fold(0, |word, b| word | 1 << b)
    };
    let mut sigs = vec![vec![0u64; words]; cone.len()];
    Cone::new(nl, &cone, &support).simulate(words, value_word, |r, w, word| {
        sigs[r][w] = word & mask(w);
    });

    let zeros = vec![0u64; words];
    let ones: Vec<u64> = (0..words).map(mask).collect();
    let mut changed = 0;
    let mut reps: HashMap<Vec<u64>, NetId> = HashMap::new();
    for (&n, sig) in cone.iter().zip(sigs) {
        let rep = if sig == zeros {
            nl.const0()
        } else if sig == ones {
            nl.const1()
        } else {
            match reps.entry(sig) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    e.insert(n);
                    continue;
                }
            }
        };
        nl.replace_net_uses(n, rep);
        changed += 1;
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

    /// A group driven by a comb decoder: the annotation (a narrower set
    /// than the decoder can produce) holds at the group nets, so the cone
    /// program must read them as its leaves. Walking on into the decoder
    /// would either read its inputs, outside the program's support, or
    /// evaluate the decoder and lose the annotation's constants.
    #[test]
    fn decoder_driven_group_is_read_at_its_nets() {
        let mut nl = Netlist::new("t");
        let x = nl.add_input("x", 2);
        let nx: Vec<NetId> = x
            .iter()
            .map(|&b| nl.add_gate(GateKind::Inv, &[b]))
            .collect();
        let d = vec![
            nl.add_gate(GateKind::And2, &[nx[0], nx[1]]),
            nl.add_gate(GateKind::And2, &[x[0], nx[1]]),
            nl.add_gate(GateKind::And2, &[nx[0], x[1]]),
            nl.add_gate(GateKind::And2, &[x[0], x[1]]),
        ];
        let high = nl.add_gate(GateKind::Or2, &[d[2], d[3]]);
        let d0 = nl.add_gate(GateKind::And2, &[d[0], d[0]]);
        let nd1 = nl.add_gate(GateKind::Inv, &[d[1]]);
        nl.add_output("high", &[high]);
        nl.add_output("d0", &[d0]);
        nl.add_output("nd1", &[nd1]);
        // The designer's claim: only the two low decoder outputs fire.
        let groups = vec![NetGroupValues {
            nets: d,
            values: ValueSet::from_values(4, [0b0001, 0b0010]),
        }];
        let changed = state_propagate(&mut nl, &groups, 32);
        assert_eq!(changed, 2);
        let outs = nl.output_nets();
        assert_eq!(nl.as_constant(outs[0]), Some(false), "d2 | d3 folds to 0");
        assert_eq!(outs[2], outs[1], "!d1 merges into d0");
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
