//! Per-net use counts: what resynthesis asks of a fanout map, kept current
//! in place instead of rebuilt per query.

use std::collections::HashMap;
use synthir_netlist::{topo, Library, NetId, Netlist};

/// How often each net is used: once per gate-input pin reading it (so
/// `And2(a, a)` uses `a` twice) and once per output-port bit. Every live
/// gate counts, including dead ones an earlier rewrite left for the final
/// sweep, exactly as [`Netlist::fanout_map`] lists them.
#[derive(Debug, PartialEq)]
pub(crate) struct UseCounts {
    refs: Vec<u32>,
}

impl UseCounts {
    pub(crate) fn count(nl: &Netlist) -> Self {
        let mut refs = vec![0u32; nl.num_nets()];
        for (_, g) in nl.gates() {
            for &i in &g.inputs {
                refs[i.index()] += 1;
            }
        }
        for p in nl.outputs() {
            for &n in &p.nets {
                refs[n.index()] += 1;
            }
        }
        UseCounts { refs }
    }

    /// The area of the cone gates that would die if every consumer of
    /// `root` were rewired away: the root's driver, then every cone gate
    /// whose uses all come from dying gates. Visiting the cone in reverse
    /// topological order settles each gate's consumers before the gate, so
    /// one pass counts, per cone gate, the uses that dying gates take away
    /// (the `deref` walk), in a cone-local tally that leaves `self` as it
    /// is. The areas are summed in the cone's topological order, so the
    /// `f64` total — and every accept/reject decision made on it — is the
    /// same every run.
    pub(crate) fn dying_area(&self, nl: &Netlist, root: NetId, lib: &Library) -> f64 {
        let cone = topo::cone_gates(nl, root); // topological: inputs first
        let pos: HashMap<NetId, usize> = cone
            .iter()
            .enumerate()
            .map(|(j, &g)| (nl.gate(g).output, j))
            .collect();
        // Per cone gate: the uses of its output by dying cone gates.
        let mut lost = vec![0u32; cone.len()];
        let mut dying = vec![false; cone.len()];
        for (j, &g) in cone.iter().enumerate().rev() {
            let gate = nl.gate(g);
            if gate.output == root || self.refs[gate.output.index()] == lost[j] {
                dying[j] = true;
                for i in &gate.inputs {
                    if let Some(&p) = pos.get(i) {
                        lost[p] += 1;
                    }
                }
            }
        }
        cone.iter()
            .zip(&dying)
            .filter(|(_, &d)| d)
            .map(|(&g, _)| lib.area(nl.gate(g).kind))
            .sum()
    }
}
