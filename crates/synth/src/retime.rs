//! Forward retiming.
//!
//! The paper's Fig. 8 experiment enables retiming to see whether the tool
//! can rescue state propagation across flop boundaries: by moving flops
//! forward through the downstream logic, the foldable computation becomes
//! purely combinational and the ordinary optimizations apply. The paper
//! found the effect *inconsistent* and dependent on the flop's reset type.
//!
//! This implementation models that behaviour: a combinational cone whose
//! sources are all flops can absorb them into a single flop at its root,
//! **provided** the flops have no asynchronous reset (the new init value is
//! recomputed by evaluating the cone over the old init values, which is not
//! sound for level-sensitive async-reset behaviour — the same reason
//! commercial tools decline) and the flops fan out only into that cone.

use crate::conefn::Cone;
use synthir_netlist::{topo, GateId, GateKind, NetId, Netlist, ResetKind};

/// Widest cone (in support nets) either retiming direction will move flops
/// across; wider cones keep their flops where they are.
pub const MAX_CONE_SUPPORT: usize = 16;

/// Applies backward retiming: a bank of flops whose D pins are computed by
/// a combinational cone from primary inputs only can be replaced by flops
/// *on those inputs*, with the cone recomputed after the flops — exposing
/// it to combinational optimization (the rescue Fig. 8 hopes for).
///
/// The catch is the reset value: the new flops need an init vector whose
/// image under the cone equals the old flops' init vector. For resettable
/// flops (sync or async) the pass searches for such a preimage and
/// *declines* when none exists — e.g. an all-zero reset behind a one-hot
/// decoder, which has no preimage. Reset-less flops have no architectural
/// reset state, so the pass proceeds regardless. This is the mechanism
/// behind the paper's observation that retiming success depends
/// inconsistently on the flop type.
///
/// Returns the number of banks retimed.
pub fn retime_backward(nl: &mut Netlist) -> usize {
    let mut count = 0;
    while let Some(bank) = find_backward_candidate(nl) {
        apply_backward(nl, &bank);
        count += 1;
        nl.sweep();
    }
    count
}

struct BackwardBank {
    flops: Vec<GateId>,
    support: Vec<NetId>,
    init_assignment: u64,
}

fn find_backward_candidate(nl: &Netlist) -> Option<BackwardBank> {
    // Group flops by (reset kind, reset net). Ordered, so the first
    // qualifying bank — and with it the result — is the same every run.
    let mut groups: std::collections::BTreeMap<(ResetKind, Option<NetId>), Vec<GateId>> =
        std::collections::BTreeMap::new();
    for (id, g) in nl.gates() {
        if let GateKind::Dff { reset, .. } = g.kind {
            groups
                .entry((reset, g.inputs.get(1).copied()))
                .or_default()
                .push(id);
        }
    }
    'groups: for ((reset, _rst), flops) in groups {
        if flops.len() < 2 {
            continue;
        }
        // Union support of the D cones must be primary inputs only.
        let mut support: std::collections::BTreeSet<NetId> = std::collections::BTreeSet::new();
        for &f in &flops {
            for s in topo::comb_support(nl, nl.gate(f).inputs[0]) {
                if nl.driver(s).is_some() {
                    continue 'groups; // fed by another gate/flop: skip group
                }
                support.insert(s);
            }
        }
        let support: Vec<NetId> = support.into_iter().collect();
        if support.is_empty() || support.len() > MAX_CONE_SUPPORT || support.len() >= flops.len() {
            continue;
        }
        // The D cones must be consumed only by this bank's D pins.
        let fanout = nl.fanout_map();
        let out_nets: std::collections::HashSet<NetId> = nl.output_nets().into_iter().collect();
        let mut cone_gates: std::collections::HashSet<GateId> = std::collections::HashSet::new();
        for &f in &flops {
            cone_gates.extend(topo::cone_gates(nl, nl.gate(f).inputs[0]));
        }
        let flop_set: std::collections::HashSet<GateId> = flops.iter().copied().collect();
        let escapes = cone_gates.iter().any(|&cg| {
            let out = nl.gate(cg).output;
            out_nets.contains(&out)
                || fanout[out.index()]
                    .iter()
                    .any(|g| !cone_gates.contains(g) && !flop_set.contains(g))
        });
        if escapes {
            continue;
        }
        // Find an init preimage: an assignment of the support whose cone
        // image equals the flop init vector.
        let ds: Vec<NetId> = flops.iter().map(|&f| nl.gate(f).inputs[0]).collect();
        let d_tts = Cone::new(nl, &ds, &support).truth_tables();
        let inits: Vec<bool> = flops
            .iter()
            .map(|&f| match nl.gate(f).kind {
                GateKind::Dff { init, .. } => init,
                _ => unreachable!(),
            })
            .collect();
        let mut preimage: Option<u64> = None;
        for a in 0..1u64 << support.len() {
            if d_tts
                .iter()
                .zip(&inits)
                .all(|(tt, &want)| tt.eval(a as usize) == want)
            {
                preimage = Some(a);
                break;
            }
        }
        let init_assignment = match (preimage, reset) {
            (Some(a), _) => a,
            // Reset-less flops have no architectural reset state to
            // preserve; any power-up value is as (un)defined as before.
            (None, ResetKind::None) => 0,
            (None, _) => continue, // resettable without a preimage: decline
        };
        return Some(BackwardBank {
            flops,
            support,
            init_assignment,
        });
    }
    None
}

fn apply_backward(nl: &mut Netlist, bank: &BackwardBank) {
    let (reset, rst_net) = match nl.gate(bank.flops[0]).kind {
        GateKind::Dff { reset, .. } => (reset, nl.gate(bank.flops[0]).inputs.get(1).copied()),
        _ => unreachable!(),
    };
    // New flops on the support.
    let mut sub: std::collections::HashMap<NetId, NetId> = std::collections::HashMap::new();
    for (i, &s) in bank.support.iter().enumerate() {
        let kind = GateKind::Dff {
            reset,
            init: bank.init_assignment >> i & 1 != 0,
        };
        let q = match (reset, rst_net) {
            (ResetKind::None, _) => nl.add_gate(kind, &[s]),
            (_, Some(r)) => nl.add_gate(kind, &[s, r]),
            (_, None) => nl.add_gate(kind, &[s]),
        };
        sub.insert(s, q);
    }
    // Recompute each old flop's function combinationally after the new
    // flops, and rewire its consumers.
    for &f in &bank.flops {
        let d = nl.gate(f).inputs[0];
        let q_old = nl.gate(f).output;
        let cone = topo::cone_gates(nl, d);
        let mut local = sub.clone();
        for gid in cone {
            let g = nl.gate(gid).clone();
            let inputs: Vec<NetId> = g
                .inputs
                .iter()
                .map(|i| local.get(i).copied().unwrap_or(*i))
                .collect();
            let new_out = nl.add_gate(g.kind, &inputs);
            local.insert(g.output, new_out);
        }
        let new_q = local[&d];
        nl.replace_net_uses(q_old, new_q);
    }
}

/// Applies forward retiming greedily. Returns the number of cones retimed.
pub fn retime_forward(nl: &mut Netlist) -> usize {
    let mut count = 0;
    while let Some(root) = find_candidate(nl) {
        apply(nl, root);
        count += 1;
        nl.sweep();
    }
    count
}

/// A retimable cone root: a comb net whose support consists purely of
/// non-async flops that (a) have no feedback and (b) fan out only into this
/// cone, where absorbing them reduces the flop count.
fn find_candidate(nl: &Netlist) -> Option<NetId> {
    let fanout = nl.fanout_map();
    for (_, g) in nl.gates() {
        if g.kind.is_sequential() || g.kind.is_constant() {
            continue;
        }
        let root = g.output;
        let support = topo::comb_support(nl, root);
        if support.len() < 2 || support.len() > MAX_CONE_SUPPORT {
            continue;
        }
        // Every source must be a flop without async reset.
        let mut flops: Vec<GateId> = Vec::new();
        let mut ok = true;
        for &s in &support {
            match nl.driver(s) {
                Some(d) => {
                    let dg = nl.gate(d);
                    match dg.kind {
                        GateKind::Dff { reset, .. } if reset != ResetKind::Async => {
                            flops.push(d);
                        }
                        _ => {
                            ok = false;
                            break;
                        }
                    }
                }
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            continue;
        }
        // Mixed reset kinds are not retimable as a group.
        let kinds: std::collections::HashSet<ResetKind> = flops
            .iter()
            .map(|&f| match nl.gate(f).kind {
                GateKind::Dff { reset, .. } => reset,
                _ => unreachable!(),
            })
            .collect();
        if kinds.len() != 1 {
            continue;
        }
        // No feedback: the flops' D cones must not read any absorbed flop.
        let support_set: std::collections::HashSet<NetId> = support.iter().copied().collect();
        if flops.iter().any(|&f| {
            topo::comb_support(nl, nl.gate(f).inputs[0])
                .iter()
                .any(|s| support_set.contains(s))
        }) {
            continue;
        }
        // The flops must fan out only into this cone (and the cone's root
        // gate set), otherwise duplication would grow the design. Output
        // ports count as external fanout.
        let out_nets: std::collections::HashSet<NetId> = nl.output_nets().into_iter().collect();
        let cone: std::collections::HashSet<GateId> =
            topo::cone_gates(nl, root).into_iter().collect();
        if support
            .iter()
            .any(|s| out_nets.contains(s) || fanout[s.index()].iter().any(|g| !cone.contains(g)))
        {
            continue;
        }
        // Intermediate cone nets must not escape either, or the old cone
        // (and its flops) would survive the rewrite.
        let escapes = cone.iter().any(|&cg| {
            let out = nl.gate(cg).output;
            out != root
                && (out_nets.contains(&out)
                    || fanout[out.index()].iter().any(|g| !cone.contains(g)))
        });
        if escapes {
            continue;
        }
        // Profitable: strictly fewer flops afterwards.
        if flops.len() < 2 {
            continue;
        }
        return Some(root);
    }
    None
}

fn apply(nl: &mut Netlist, root: NetId) {
    let support = topo::comb_support(nl, root);
    let flops: Vec<GateId> = support
        .iter()
        .map(|&s| nl.driver(s).expect("validated"))
        .collect();
    let (reset_kind, rst_net) = match nl.gate(flops[0]).kind {
        GateKind::Dff { reset, .. } => (reset, nl.gate(flops[0]).inputs.get(1).copied()),
        _ => unreachable!(),
    };
    // New init = cone evaluated on the old init vector.
    let tt = Cone::new(nl, &[root], &support).truth_table();
    let mut init_minterm = 0usize;
    for (i, &f) in flops.iter().enumerate() {
        if let GateKind::Dff { init, .. } = nl.gate(f).kind {
            if init {
                init_minterm |= 1 << i;
            }
        }
    }
    let new_init = tt.eval(init_minterm);
    // Clone the cone with flop outputs substituted by flop D inputs.
    let mut sub: std::collections::HashMap<NetId, NetId> = std::collections::HashMap::new();
    for &f in &flops {
        let g = nl.gate(f);
        sub.insert(g.output, g.inputs[0]);
    }
    let cone = topo::cone_gates(nl, root);
    for gid in cone {
        let g = nl.gate(gid).clone();
        let inputs: Vec<NetId> = g
            .inputs
            .iter()
            .map(|i| sub.get(i).copied().unwrap_or(*i))
            .collect();
        let new_out = nl.add_gate(g.kind, &inputs);
        sub.insert(g.output, new_out);
    }
    let new_d = sub[&root];
    let kind = GateKind::Dff {
        reset: reset_kind,
        init: new_init,
    };
    let new_q = match (reset_kind, rst_net) {
        (ResetKind::None, _) => nl.add_gate(kind, &[new_d]),
        (_, Some(r)) => nl.add_gate(kind, &[new_d, r]),
        (_, None) => nl.add_gate(kind, &[new_d]),
    };
    nl.replace_net_uses(root, new_q);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// decoder-ish pipeline: flops feed a reduction whose flops fan out
    /// nowhere else — retimable to a single flop.
    fn reduction_design(reset: ResetKind, n: usize) -> Netlist {
        let mut nl = Netlist::new("t");
        let x = nl.add_input("x", n);
        let rst = if reset == ResetKind::None {
            None
        } else {
            Some(nl.add_input("rst", 1)[0])
        };
        let r: Vec<NetId> = x
            .iter()
            .map(|&b| {
                let kind = GateKind::Dff { reset, init: false };
                match rst {
                    None => nl.add_gate(kind, &[b]),
                    Some(rn) => nl.add_gate(kind, &[b, rn]),
                }
            })
            .collect();
        let mut acc = r[0];
        for &b in &r[1..] {
            acc = nl.add_gate(GateKind::Or2, &[acc, b]);
        }
        nl.add_output("any", &[acc]);
        nl
    }

    #[test]
    fn absorbs_flops_into_one() {
        for reset in [ResetKind::None, ResetKind::Sync] {
            let mut nl = reduction_design(reset, 6);
            assert_eq!(nl.flop_count(), 6);
            let n = retime_forward(&mut nl);
            assert!(n >= 1, "{reset:?}");
            assert_eq!(nl.flop_count(), 1, "{reset:?}");
        }
    }

    #[test]
    fn declines_async_reset() {
        let mut nl = reduction_design(ResetKind::Async, 6);
        let n = retime_forward(&mut nl);
        assert_eq!(n, 0);
        assert_eq!(nl.flop_count(), 6);
    }

    #[test]
    fn preserves_sequential_behaviour() {
        let golden = reduction_design(ResetKind::Sync, 5);
        let mut retimed = golden.clone();
        retime_forward(&mut retimed);
        let res =
            synthir_sim::check_seq_equiv(&golden, &retimed, &synthir_sim::EquivOptions::new())
                .unwrap();
        assert!(res.is_equivalent(), "{res:?}");
    }

    #[test]
    fn respects_external_fanout() {
        // One of the flops also drives an output port: cannot retime.
        let mut nl = reduction_design(ResetKind::Sync, 4);
        let some_flop_q = nl
            .gates()
            .find(|(_, g)| g.kind.is_sequential())
            .map(|(_, g)| g.output)
            .unwrap();
        nl.add_output("peek", &[some_flop_q]);
        let n = retime_forward(&mut nl);
        assert_eq!(n, 0);
    }

    #[test]
    fn skips_feedback_loops() {
        // A toggle flop (q feeds its own D) must never be absorbed.
        let mut nl = Netlist::new("t");
        let q1 = nl.add_net();
        let q2 = nl.add_net();
        let nq1 = nl.add_gate(GateKind::Inv, &[q1]);
        let kind = GateKind::Dff {
            reset: ResetKind::None,
            init: false,
        };
        nl.attach_gate(kind, &[nq1], q1).unwrap();
        let nq2 = nl.add_gate(GateKind::Inv, &[q2]);
        nl.attach_gate(kind, &[nq2], q2).unwrap();
        let y = nl.add_gate(GateKind::And2, &[q1, q2]);
        nl.add_output("y", &[y]);
        let n = retime_forward(&mut nl);
        assert_eq!(n, 0);
        assert_eq!(nl.flop_count(), 2);
    }
}
