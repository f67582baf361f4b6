//! Topological traversal and cone analysis.

use crate::netgraph::{GateId, NetId, Netlist};
use crate::NetlistError;
use std::collections::HashSet;

/// Returns the live gates in a topological order of the combinational
/// dependency graph: a gate appears after the drivers of all its inputs.
/// Flops are ordered first (their outputs are combinational sources; their
/// inputs are not edges of this graph).
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the combinational part is
/// cyclic.
pub fn topological_order(nl: &Netlist) -> Result<Vec<GateId>, NetlistError> {
    let mut order = Vec::with_capacity(nl.num_gates());
    // 0 = unvisited, 1 = on stack, 2 = done
    let mut mark = vec![0u8; nl.num_nets()];
    let mut seq_first = Vec::new();
    for (id, g) in nl.gates() {
        if g.kind.is_sequential() {
            seq_first.push(id);
            mark[g.output.index()] = 2;
        }
    }
    // Iterative DFS from every driven net.
    for (id, _) in nl.gates() {
        visit(nl, id, &mut mark, &mut order)?;
    }
    let mut result = seq_first;
    result.extend(order);
    Ok(result)
}

fn visit(
    nl: &Netlist,
    gate: GateId,
    mark: &mut [u8],
    order: &mut Vec<GateId>,
) -> Result<(), NetlistError> {
    let out = nl.gate(gate).output;
    if mark[out.index()] == 2 {
        return Ok(());
    }
    // Iterative DFS with an explicit stack of (gate, next input index).
    let mut stack: Vec<(GateId, usize)> = vec![(gate, 0)];
    mark[out.index()] = 1;
    while let Some((g, idx)) = stack.pop() {
        let gi = nl.gate(g);
        if gi.kind.is_sequential() {
            // Should not happen: flop outputs are pre-marked done.
            mark[gi.output.index()] = 2;
            continue;
        }
        if idx >= gi.inputs.len() {
            mark[gi.output.index()] = 2;
            order.push(g);
            continue;
        }
        stack.push((g, idx + 1));
        let inp = gi.inputs[idx];
        match mark[inp.index()] {
            2 => {}
            1 => return Err(NetlistError::CombinationalCycle),
            _ => {
                if let Some(d) = nl.driver(inp) {
                    if nl.gate(d).kind.is_sequential() {
                        mark[inp.index()] = 2;
                    } else {
                        mark[inp.index()] = 1;
                        stack.push((d, 0));
                    }
                } else {
                    // Primary input or dangling: a source.
                    mark[inp.index()] = 2;
                }
            }
        }
    }
    Ok(())
}

/// The combinational sources a net depends on: primary inputs, flop
/// outputs, and undriven nets reachable through combinational gates only.
/// Constant nets are not reported (they impose no constraint).
pub fn comb_support(nl: &Netlist, net: NetId) -> Vec<NetId> {
    comb_support_within(nl, net, usize::MAX).expect("no support exceeds usize::MAX")
}

/// [`comb_support`] if it has at most `max` nets, else `None`. The walk
/// stops at the first source past `max`, so refusing a wide cone costs
/// only the part of it visited until then.
pub fn comb_support_within(nl: &Netlist, net: NetId, max: usize) -> Option<Vec<NetId>> {
    let mut support = Vec::new();
    let mut seen: HashSet<NetId> = HashSet::new();
    let mut stack = vec![net];
    while let Some(n) = stack.pop() {
        if !seen.insert(n) {
            continue;
        }
        match nl.driver(n) {
            // A constant has no inputs: it contributes nothing.
            Some(g) if !nl.gate(g).kind.is_sequential() => {
                stack.extend(nl.gate(g).inputs.iter().copied());
            }
            _ => {
                if support.len() == max {
                    return None;
                }
                support.push(n);
            }
        }
    }
    support.sort();
    Some(support)
}

/// The combinational gates in the fan-in cone of a net (excluding flops and
/// constants), in topological order (inputs before consumers).
pub fn cone_gates(nl: &Netlist, net: NetId) -> Vec<GateId> {
    let mut seen: HashSet<GateId> = HashSet::new();
    let mut post = Vec::new();
    // DFS with explicit stack; post-order gives topological order.
    let mut stack: Vec<(NetId, bool)> = vec![(net, false)];
    let mut visited_nets: HashSet<NetId> = HashSet::new();
    while let Some((n, expanded)) = stack.pop() {
        let Some(g) = nl.driver(n) else { continue };
        let gate = nl.gate(g);
        if gate.kind.is_sequential() || gate.kind.is_constant() {
            continue;
        }
        if expanded {
            if seen.insert(g) {
                post.push(g);
            }
            continue;
        }
        if !visited_nets.insert(n) {
            continue;
        }
        stack.push((n, true));
        for &inp in &gate.inputs {
            stack.push((inp, false));
        }
    }
    post
}

/// Logic depth (number of combinational gates on the longest path) of each
/// net, for quick structural statistics.
pub fn logic_depths(nl: &Netlist) -> Result<Vec<usize>, NetlistError> {
    let order = topological_order(nl)?;
    let mut depth = vec![0usize; nl.num_nets()];
    for g in order {
        let gate = nl.gate(g);
        if gate.kind.is_sequential() || gate.kind.is_constant() {
            continue;
        }
        let d = gate
            .inputs
            .iter()
            .map(|i| depth[i.index()])
            .max()
            .unwrap_or(0)
            + 1;
        depth[gate.output.index()] = d;
    }
    Ok(depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{GateKind, ResetKind};

    fn chain() -> (Netlist, Vec<NetId>) {
        let mut nl = Netlist::new("chain");
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_input("b", 1)[0];
        let x = nl.add_gate(GateKind::And2, &[a, b]);
        let y = nl.add_gate(GateKind::Inv, &[x]);
        let z = nl.add_gate(GateKind::Or2, &[y, a]);
        nl.add_output("z", &[z]);
        (nl, vec![a, b, x, y, z])
    }

    #[test]
    fn topo_respects_dependencies() {
        let (nl, _) = chain();
        let order = topological_order(&nl).unwrap();
        assert_eq!(order.len(), 3);
        let pos: std::collections::HashMap<GateId, usize> =
            order.iter().enumerate().map(|(i, &g)| (g, i)).collect();
        for (id, g) in nl.gates() {
            for &inp in &g.inputs {
                if let Some(d) = nl.driver(inp) {
                    assert!(pos[&d] < pos[&id], "driver after consumer");
                }
            }
        }
    }

    #[test]
    fn cycle_detected() {
        let mut nl = Netlist::new("cyc");
        let a = nl.add_input("a", 1)[0];
        let loop_net = nl.add_net();
        let x = nl.add_gate(GateKind::And2, &[a, loop_net]);
        nl.attach_gate(GateKind::Inv, &[x], loop_net).unwrap();
        nl.add_output("x", &[x]);
        assert!(matches!(
            topological_order(&nl),
            Err(NetlistError::CombinationalCycle)
        ));
    }

    #[test]
    fn flops_break_cycles() {
        let mut nl = Netlist::new("seq");
        let q = nl.add_net();
        let nq = nl.add_gate(GateKind::Inv, &[q]);
        nl.attach_gate(
            GateKind::Dff {
                reset: ResetKind::None,
                init: false,
            },
            &[nq],
            q,
        )
        .unwrap();
        nl.add_output("q", &[q]);
        let order = topological_order(&nl).unwrap();
        assert_eq!(order.len(), 2);
    }

    #[test]
    fn support_finds_sources() {
        let (nl, nets) = chain();
        let z = nets[4];
        let sup = comb_support(&nl, z);
        assert_eq!(sup, vec![nets[0], nets[1]]);
    }

    #[test]
    fn support_stops_at_flops() {
        let mut nl = Netlist::new("seq");
        let d = nl.add_input("d", 1)[0];
        let q = nl.add_gate(
            GateKind::Dff {
                reset: ResetKind::None,
                init: false,
            },
            &[d],
        );
        let y = nl.add_gate(GateKind::Inv, &[q]);
        nl.add_output("y", &[y]);
        assert_eq!(comb_support(&nl, y), vec![q]);
    }

    #[test]
    fn cone_is_topological() {
        let (nl, nets) = chain();
        let cone = cone_gates(&nl, nets[4]);
        assert_eq!(cone.len(), 3);
        // First gate of the cone must be the AND (deepest).
        assert_eq!(nl.gate(cone[0]).kind, GateKind::And2);
        assert_eq!(nl.gate(cone[2]).kind, GateKind::Or2);
    }

    #[test]
    fn depths() {
        let (nl, nets) = chain();
        let d = logic_depths(&nl).unwrap();
        assert_eq!(d[nets[2].index()], 1);
        assert_eq!(d[nets[3].index()], 2);
        assert_eq!(d[nets[4].index()], 3);
    }
}
