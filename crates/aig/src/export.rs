//! AIG → Netlist conversion.
//!
//! The lowering is polarity-aware: an AND node whose consumers mostly read
//! the complemented edge becomes a `Nand2` (no inverter), and a node whose
//! fanins are both complemented becomes a `Nor2`/`Or2` — so the all-AND
//! normal form does not cost inverter cells on the way back to gates. The
//! exported netlist feeds the netlist-level passes of the synthesis flow
//! (FSM re-encoding, state propagation, resynthesis); technology mapping
//! imports their result into an AIG again and does not depend on the
//! gate shapes chosen here.

use crate::graph::{Aig, AigLit, AigNode, FxMap};
use synthir_netlist::{GateKind, NetId, Netlist, ResetKind};

/// The result of lowering an AIG back to a gate-level netlist.
#[derive(Clone, Debug)]
pub struct NetlistExport {
    /// The exported netlist: `And2`/`Inv` gates, constant sources, and
    /// `Dff`s with their original reset flavour and init value.
    pub netlist: Netlist,
    /// A net for every literal the export materialized — both phases where
    /// an inverter exists. Callers remap annotations through this.
    pub nets: FxMap<AigLit, NetId>,
}

impl NetlistExport {
    /// The net carrying a literal, if it was materialized.
    pub fn net_of(&self, l: AigLit) -> Option<NetId> {
        self.nets.get(&l).copied()
    }
}

/// Lowers an AIG to a netlist of `And2`/`Inv` gates (plus constants and
/// flops), emitting only nodes live toward the output ports — the
/// dangling-node sweep is implicit. Port names/widths/order and flop
/// reset/init semantics are preserved exactly.
///
/// `keep` lists extra literals that must receive nets even if nothing
/// observable reads them (FSM state vectors and value-set annotation
/// groups ride through here).
pub fn to_netlist(aig: &Aig, keep: &[AigLit]) -> NetlistExport {
    let live = aig.live_marks(keep);
    let mut nl = Netlist::new(aig.name());
    let mut exp = Exporter {
        node_net: vec![None; aig.node_count()],
        inv_net: vec![None; aig.node_count()],
        nets: FxMap::default(),
    };
    // Which polarity of each node do its consumers actually read? Emitting
    // the majority polarity directly (And2 vs Nand2, Nor2 vs Or2) keeps
    // inverters off the high-fanout side.
    let mut compl_uses = vec![0usize; aig.node_count()];
    let mut plain_uses = vec![0usize; aig.node_count()];
    {
        let mut count = |l: AigLit| {
            if l.is_complemented() {
                compl_uses[l.node() as usize] += 1;
            } else {
                plain_uses[l.node() as usize] += 1;
            }
        };
        for (i, n) in aig.nodes().iter().enumerate() {
            if let AigNode::And(a, b) = *n {
                if live[i] {
                    count(a);
                    count(b);
                }
            }
        }
        for l in aig.latches() {
            if live[l.output as usize] {
                count(l.next);
                count(l.reset_lit);
            }
        }
        for p in aig.output_ports() {
            for &l in &p.lits {
                count(l);
            }
        }
        for &l in keep {
            count(l);
        }
    }
    // MUX/XOR reconstruction: `!((s & d1') & ... )` — concretely, a node
    // `w = !(s & d1) & !(!s & d0)` whose two AND children exist only to
    // feed it — denotes `!w = s ? d1 : d0`. The library's `Mux2`/`Xor2`
    // cells are cheaper than the three 2-input gates the generic lowering
    // would emit, and resynthesis — which prices the cones it collapses by
    // their cells' area — then sees one gate instead of three. Roots are
    // planned before their children (reverse index order) so chained
    // patterns never absorb a node that another pattern still reads.
    struct MuxPlan {
        sel: AigLit,
        d0: AigLit,
        d1: AigLit,
    }
    let mut plan: Vec<Option<MuxPlan>> = (0..aig.node_count()).map(|_| None).collect();
    let mut emitted = live.clone();
    let single_compl_use = |i: usize| plain_uses[i] == 0 && compl_uses[i] == 1;
    for i in (0..aig.node_count()).rev() {
        if !emitted[i] {
            continue;
        }
        let AigNode::And(x, y) = aig.nodes()[i] else {
            continue;
        };
        if !x.is_complemented() || !y.is_complemented() || x.node() == y.node() {
            continue;
        }
        let (u, v) = (x.node() as usize, y.node() as usize);
        let (AigNode::And(p, q), AigNode::And(r, t)) = (aig.nodes()[u], aig.nodes()[v]) else {
            continue;
        };
        if !single_compl_use(u) || !single_compl_use(v) {
            continue;
        }
        let found = [(p, q), (q, p)].into_iter().find_map(|(s, d1)| {
            if !s == r {
                Some((s, d1, t))
            } else if !s == t {
                Some((s, d1, r))
            } else {
                None
            }
        });
        if let Some((sel, d1, d0)) = found {
            plan[i] = Some(MuxPlan { sel, d0, d1 });
            emitted[u] = false;
            emitted[v] = false;
        }
    }
    // n-ary tree clustering: a chain of single-fanout ANDs re-fuses into
    // one `And3`/`And4` (complement flavours become NAND/NOR/OR), which
    // restores the n-ary structure espresso-style SOP emission had before
    // the AIG normalized it to 2-input form. The n-ary cells are cheaper
    // than 2-input chains, and the fewer, wider gates keep resynthesis's
    // cone walks short. Roots before children again, so a chain is
    // absorbed into its outermost surviving node.
    let mut tree: Vec<Option<Vec<AigLit>>> = vec![None; aig.node_count()];
    let single_plain_use = |i: usize| plain_uses[i] == 1 && compl_uses[i] == 0;
    for i in (0..aig.node_count()).rev() {
        if !emitted[i] || plan[i].is_some() {
            continue;
        }
        let AigNode::And(a, b) = aig.nodes()[i] else {
            continue;
        };
        let mut leaves = vec![a, b];
        while leaves.len() < 4 {
            let pos = leaves.iter().position(|l| {
                let n = l.node() as usize;
                !l.is_complemented()
                    && matches!(aig.nodes()[n], AigNode::And(..))
                    && single_plain_use(n)
                    && emitted[n]
                    && plan[n].is_none()
            });
            let Some(p) = pos else { break };
            let child = leaves[p].node();
            let AigNode::And(x, y) = aig.nodes()[child as usize] else {
                unreachable!("position matched an AND");
            };
            leaves.swap_remove(p);
            leaves.push(x);
            leaves.push(y);
            emitted[child as usize] = false;
        }
        if leaves.len() > 2 {
            tree[i] = Some(leaves);
        }
    }
    // Input ports first: the interface is preserved wholesale, live or not.
    for p in aig.input_ports() {
        let nets = nl.add_input(&p.name, p.lits.len());
        for (&l, &n) in p.lits.iter().zip(&nets) {
            exp.node_net[l.node() as usize] = Some(n);
        }
    }
    // Latch output nets exist before any cone (they are sources).
    for l in aig.latches() {
        if live[l.output as usize] {
            exp.node_net[l.output as usize] = Some(nl.add_net());
        }
    }
    // AND nodes in index order: fanins always precede.
    for (i, n) in aig.nodes().iter().enumerate() {
        if let AigNode::And(a, b) = *n {
            if !emitted[i] {
                continue;
            }
            let want_compl = compl_uses[i] > plain_uses[i];
            if let Some(m) = &plan[i] {
                // `!node = sel ? d1 : d0`.
                let s = exp.lit_net(&mut nl, m.sel);
                let n0 = exp.lit_net(&mut nl, m.d0);
                if m.d1 == !m.d0 {
                    // Degenerates to sel ^ d0.
                    if want_compl {
                        exp.inv_net[i] = Some(nl.add_gate(GateKind::Xor2, &[s, n0]));
                    } else {
                        exp.node_net[i] = Some(nl.add_gate(GateKind::Xnor2, &[s, n0]));
                    }
                } else {
                    let n1 = exp.lit_net(&mut nl, m.d1);
                    exp.inv_net[i] = Some(nl.add_gate(GateKind::Mux2, &[s, n0, n1]));
                }
                continue;
            }
            if let Some(leaves) = &tree[i] {
                let all_compl = leaves.iter().all(|l| l.is_complemented());
                let ins: Vec<NetId> = leaves
                    .iter()
                    .map(|&l| exp.lit_net(&mut nl, if all_compl { !l } else { l }))
                    .collect();
                use GateKind::*;
                let kind = match (leaves.len(), all_compl, want_compl) {
                    (3, false, false) => And3,
                    (3, false, true) => Nand3,
                    (3, true, false) => Nor3,
                    (3, true, true) => Or3,
                    (4, false, false) => And4,
                    (4, false, true) => Nand4,
                    (4, true, false) => Nor4,
                    (4, true, true) => Or4,
                    _ => unreachable!("trees have 3 or 4 leaves"),
                };
                let out = nl.add_gate(kind, &ins);
                if want_compl {
                    exp.inv_net[i] = Some(out);
                } else {
                    exp.node_net[i] = Some(out);
                }
                continue;
            }
            // Both fanins complemented: a NOR/OR over the plain sides
            // avoids two inverters outright.
            let (kind, ins) = if a.is_complemented() && b.is_complemented() {
                let na = exp.lit_net(&mut nl, !a);
                let nb = exp.lit_net(&mut nl, !b);
                (
                    if want_compl {
                        GateKind::Or2
                    } else {
                        GateKind::Nor2
                    },
                    [na, nb],
                )
            } else {
                let na = exp.lit_net(&mut nl, a);
                let nb = exp.lit_net(&mut nl, b);
                (
                    if want_compl {
                        GateKind::Nand2
                    } else {
                        GateKind::And2
                    },
                    [na, nb],
                )
            };
            let out = nl.add_gate(kind, &ins);
            if want_compl {
                exp.inv_net[i] = Some(out);
            } else {
                exp.node_net[i] = Some(out);
            }
        }
    }
    // Flops: D (and reset) pins may need inverters created above.
    for l in aig.latches() {
        if !live[l.output as usize] {
            continue;
        }
        let q = exp.node_net[l.output as usize].expect("latch net pre-created");
        let d = exp.lit_net(&mut nl, l.next);
        let kind = GateKind::Dff {
            reset: l.reset,
            init: l.init,
        };
        let inputs: Vec<NetId> = match l.reset {
            ResetKind::None => vec![d],
            _ => vec![d, exp.lit_net(&mut nl, l.reset_lit)],
        };
        nl.attach_gate(kind, &inputs, q)
            .expect("latch net has no other driver");
    }
    for p in aig.output_ports() {
        let nets: Vec<NetId> = p.lits.iter().map(|&l| exp.lit_net(&mut nl, l)).collect();
        nl.add_output(&p.name, &nets);
    }
    // Materialize the kept literals and record every mapping.
    for &l in keep {
        exp.lit_net(&mut nl, l);
    }
    for (i, plain) in exp.node_net.iter().enumerate() {
        if let Some(n) = plain {
            exp.nets.insert(AigLit::new(i as u32, false), *n);
        }
        if let Some(n) = exp.inv_net[i] {
            exp.nets.insert(AigLit::new(i as u32, true), n);
        }
    }
    NetlistExport {
        netlist: nl,
        nets: exp.nets,
    }
}

struct Exporter {
    /// Net of each node's plain literal (when materialized).
    node_net: Vec<Option<NetId>>,
    /// Net of each node's complemented literal (when materialized).
    inv_net: Vec<Option<NetId>>,
    nets: FxMap<AigLit, NetId>,
}

impl Exporter {
    /// The net carrying a literal, creating constants and (memoized)
    /// inverters on demand. Either polarity may be the physically emitted
    /// gate; the other is derived through one inverter.
    fn lit_net(&mut self, nl: &mut Netlist, l: AigLit) -> NetId {
        if let Some(v) = l.as_constant() {
            let n = nl.constant(v);
            self.nets.insert(l, n);
            return n;
        }
        let node = l.node() as usize;
        let (want, other) = if l.is_complemented() {
            (&self.inv_net, &self.node_net)
        } else {
            (&self.node_net, &self.inv_net)
        };
        if let Some(n) = want[node] {
            return n;
        }
        let base = other[node]
            .unwrap_or_else(|| panic!("literal {l:?} has no net — not live and not kept"));
        let n = nl.add_gate(GateKind::Inv, &[base]);
        if l.is_complemented() {
            self.inv_net[node] = Some(n);
        } else {
            self.node_net[node] = Some(n);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_emits_ports_and_structure() {
        let mut g = Aig::new("t");
        let a = g.add_input_port("a", 1)[0];
        let b = g.add_input_port("b", 1)[0];
        let y = g.and(a, b);
        g.add_output_port("y", &[!y]);
        let exp = to_netlist(&g, &[]);
        let nl = &exp.netlist;
        assert_eq!(nl.name(), "t");
        assert_eq!(nl.inputs().len(), 2);
        assert_eq!(nl.outputs().len(), 1);
        // The output reads the complement, so a single NAND is emitted.
        assert_eq!(nl.num_gates(), 1);
        let g0 = nl.driver(nl.output_nets()[0]).unwrap();
        assert_eq!(nl.gate(g0).kind, GateKind::Nand2);
        nl.validate().unwrap();
        assert!(exp.net_of(!y).is_some());
    }

    #[test]
    fn complemented_fanins_become_nor_or_or() {
        let mut g = Aig::new("t");
        let a = g.add_input_port("a", 1)[0];
        let b = g.add_input_port("b", 1)[0];
        let nor = g.and(!a, !b);
        g.add_output_port("nor", &[nor]);
        let exp = to_netlist(&g, &[]);
        assert_eq!(exp.netlist.num_gates(), 1);
        let d = exp.netlist.driver(exp.netlist.output_nets()[0]).unwrap();
        assert_eq!(exp.netlist.gate(d).kind, GateKind::Nor2);

        let mut g = Aig::new("t");
        let a = g.add_input_port("a", 1)[0];
        let b = g.add_input_port("b", 1)[0];
        let or = !g.and(!a, !b);
        g.add_output_port("or", &[or]);
        let exp = to_netlist(&g, &[]);
        assert_eq!(exp.netlist.num_gates(), 1);
        let d = exp.netlist.driver(exp.netlist.output_nets()[0]).unwrap();
        assert_eq!(exp.netlist.gate(d).kind, GateKind::Or2);
    }

    #[test]
    fn dangling_nodes_are_swept() {
        let mut g = Aig::new("t");
        let a = g.add_input_port("a", 1)[0];
        let b = g.add_input_port("b", 1)[0];
        let _dead = g.and(a, b);
        let keepme = g.and(!a, b);
        g.add_output_port("y", &[keepme]);
        let exp = to_netlist(&g, &[]);
        // !a and (!a & b): two gates; the dead AND is gone.
        assert_eq!(exp.netlist.num_gates(), 2);
        assert_eq!(exp.net_of(AigLit::new(_dead.node(), false)), None);
    }

    #[test]
    fn kept_literals_survive_without_observers() {
        let mut g = Aig::new("t");
        let a = g.add_input_port("a", 1)[0];
        let b = g.add_input_port("b", 1)[0];
        let dead = g.and(a, b);
        g.add_output_port("y", &[a]);
        let exp = to_netlist(&g, &[dead]);
        assert!(exp.net_of(dead).is_some());
        assert_eq!(exp.netlist.num_gates(), 1);
    }

    #[test]
    fn latch_semantics_round_through() {
        use synthir_netlist::ResetKind;
        let mut g = Aig::new("t");
        let d = g.add_input_port("d", 1)[0];
        let rst = g.add_input_port("rst", 1)[0];
        let q = g.add_latch(ResetKind::Async, true);
        g.set_latch_next(q, !d, rst);
        g.add_output_port("q", &[q]);
        let exp = to_netlist(&g, &[]);
        let nl = &exp.netlist;
        assert_eq!(nl.flop_count(), 1);
        let (_, flop) = nl
            .gates()
            .find(|(_, g)| g.kind.is_sequential())
            .expect("flop exported");
        assert_eq!(
            flop.kind,
            GateKind::Dff {
                reset: ResetKind::Async,
                init: true
            }
        );
        assert_eq!(flop.inputs.len(), 2);
        nl.validate().unwrap();
    }
}
