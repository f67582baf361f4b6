//! Technology mapping: rewriting the generic And/Or/Inv/Mux network into
//! the cheaper inverting cells of the library (NAND/NOR/AOI/OAI) and wider
//! fan-in gates.
//!
//! A greedy peephole mapper: each rule fires only when the intermediate
//! nets it swallows have no other fanout, so the rewrite is always
//! area-neutral or better under [`synthir_netlist::Library::vt90`].

use crate::uses::UseCounts;
use synthir_netlist::{GateId, GateKind, NetId, Netlist};

/// Runs the peephole mapper to a fixpoint. Returns the number of rewrites.
pub fn techmap(nl: &mut Netlist) -> usize {
    let mut total = 0;
    loop {
        let n = map_once(nl);
        total += n;
        nl.sweep();
        if n == 0 {
            break;
        }
    }
    total
}

fn map_once(nl: &mut Netlist) -> usize {
    let fanout = nl.fanout_map();
    let out_nets: std::collections::HashSet<_> = nl.output_nets().into_iter().collect();
    let single_fanout = |nl: &Netlist, gid: GateId| -> bool {
        let out = nl.gate(gid).output;
        fanout[out.index()].len() == 1 && !out_nets.contains(&out)
    };
    let mut uses = UseCounts::count(nl);
    let gids: Vec<GateId> = nl.gates().map(|(id, _)| id).collect();
    let mut count = 0;
    for gid in gids {
        if !nl.is_live(gid) {
            continue;
        }
        let g = nl.gate(gid).clone();
        use GateKind::*;
        match g.kind {
            // Inv(And*) -> Nand*, Inv(Or*) -> Nor* (absorb the inner gate).
            Inv => {
                let Some(inner) = nl.driver(g.inputs[0]) else {
                    continue;
                };
                if !single_fanout(nl, inner) {
                    continue;
                }
                let ig = nl.gate(inner).clone();
                let mapped = match ig.kind {
                    And2 => Some(Nand2),
                    And3 => Some(Nand3),
                    And4 => Some(Nand4),
                    Or2 => Some(Nor2),
                    Or3 => Some(Nor3),
                    Or4 => Some(Nor4),
                    Xor2 => Some(Xnor2),
                    Xnor2 => Some(Xor2),
                    Nand2 => Some(And2),
                    Nor2 => Some(Or2),
                    _ => None,
                };
                // AOI/OAI patterns: Inv(Or2(And2(a,b), c)) etc.
                if ig.kind == Or2 {
                    if let Some((aoi_inputs, wide)) = match_and_or(nl, &uses, &ig, true) {
                        let kind = if wide { Aoi22 } else { Aoi21 };
                        uses.rewrite(nl, gid, kind, &aoi_inputs);
                        count += 1;
                        continue;
                    }
                }
                if ig.kind == And2 {
                    if let Some((oai_inputs, wide)) = match_and_or(nl, &uses, &ig, false) {
                        let kind = if wide { Oai22 } else { Oai21 };
                        uses.rewrite(nl, gid, kind, &oai_inputs);
                        count += 1;
                        continue;
                    }
                }
                if let Some(kind) = mapped {
                    uses.rewrite(nl, gid, kind, &ig.inputs);
                    count += 1;
                }
            }
            // Widen AND/OR trees: And2(And2(a,b), c) -> And3 when the inner
            // gate has a single fanout.
            And2 | Or2 => {
                let widened = try_widen(nl, &mut uses, gid, &g, &single_fanout);
                if widened {
                    count += 1;
                }
            }
            _ => {}
        }
    }
    debug_assert_eq!(uses, UseCounts::count(nl), "use counts drifted");
    count
}

/// For an Or2 (when `and_inner`) finds `Or2(And2(a,b), c)` → `[a,b,c]`
/// (Aoi21) or `Or2(And2(a,b), And2(c,d))` → `[a,b,c,d]` (Aoi22); dual for
/// And2 with Or2 children. Inner gates must be single-fanout as of the
/// round's rewrites so far.
fn match_and_or(
    nl: &Netlist,
    uses: &UseCounts,
    outer: &synthir_netlist::Gate,
    and_inner: bool,
) -> Option<(Vec<NetId>, bool)> {
    let want = if and_inner {
        GateKind::And2
    } else {
        GateKind::Or2
    };
    let inner_of = |n: NetId| -> Option<&synthir_netlist::Gate> {
        let d = nl.driver(n)?;
        let g = nl.gate(d);
        if g.kind == want && uses.single(n) {
            Some(g)
        } else {
            None
        }
    };
    match (inner_of(outer.inputs[0]), inner_of(outer.inputs[1])) {
        (Some(a), Some(b)) => Some((
            vec![a.inputs[0], a.inputs[1], b.inputs[0], b.inputs[1]],
            true,
        )),
        (Some(a), None) => Some((vec![a.inputs[0], a.inputs[1], outer.inputs[1]], false)),
        (None, Some(b)) => Some((vec![b.inputs[0], b.inputs[1], outer.inputs[0]], false)),
        (None, None) => None,
    }
}

fn try_widen(
    nl: &mut Netlist,
    uses: &mut UseCounts,
    gid: GateId,
    g: &synthir_netlist::Gate,
    single_fanout: &dyn Fn(&Netlist, GateId) -> bool,
) -> bool {
    let (two, three, four) = match g.kind {
        GateKind::And2 => (GateKind::And2, GateKind::And3, GateKind::And4),
        GateKind::Or2 => (GateKind::Or2, GateKind::Or3, GateKind::Or4),
        _ => return false,
    };
    for (i, &inp) in g.inputs.iter().enumerate() {
        let Some(inner) = nl.driver(inp) else {
            continue;
        };
        let ig = nl.gate(inner).clone();
        if ig.kind != two || !single_fanout(nl, inner) {
            continue;
        }
        let other = g.inputs[1 - i];
        // Check whether the other side is also a mergeable pair -> 4-input.
        if let Some(oinner) = nl.driver(other) {
            let og = nl.gate(oinner).clone();
            if og.kind == two && single_fanout(nl, oinner) {
                uses.rewrite(
                    nl,
                    gid,
                    four,
                    &[ig.inputs[0], ig.inputs[1], og.inputs[0], og.inputs[1]],
                );
                return true;
            }
        }
        uses.rewrite(nl, gid, three, &[ig.inputs[0], ig.inputs[1], other]);
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthir_netlist::Library;

    #[test]
    fn inv_and_becomes_nand() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_input("b", 1)[0];
        let x = nl.add_gate(GateKind::And2, &[a, b]);
        let y = nl.add_gate(GateKind::Inv, &[x]);
        nl.add_output("y", &[y]);
        techmap(&mut nl);
        assert_eq!(nl.num_gates(), 1);
        let g = nl.driver(nl.output_nets()[0]).unwrap();
        assert_eq!(nl.gate(g).kind, GateKind::Nand2);
    }

    #[test]
    fn aoi21_pattern() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_input("b", 1)[0];
        let c = nl.add_input("c", 1)[0];
        let ab = nl.add_gate(GateKind::And2, &[a, b]);
        let o = nl.add_gate(GateKind::Or2, &[ab, c]);
        let y = nl.add_gate(GateKind::Inv, &[o]);
        nl.add_output("y", &[y]);
        techmap(&mut nl);
        assert_eq!(nl.num_gates(), 1);
        let g = nl.driver(nl.output_nets()[0]).unwrap();
        assert_eq!(nl.gate(g).kind, GateKind::Aoi21);
    }

    #[test]
    fn and_tree_widens() {
        let mut nl = Netlist::new("t");
        let x = nl.add_input("x", 4);
        let t1 = nl.add_gate(GateKind::And2, &[x[0], x[1]]);
        let t2 = nl.add_gate(GateKind::And2, &[x[2], x[3]]);
        let y = nl.add_gate(GateKind::And2, &[t1, t2]);
        nl.add_output("y", &[y]);
        techmap(&mut nl);
        assert_eq!(nl.num_gates(), 1);
        let g = nl.driver(nl.output_nets()[0]).unwrap();
        assert_eq!(nl.gate(g).kind, GateKind::And4);
    }

    #[test]
    fn shared_nodes_not_absorbed() {
        // The And2 feeds both the Inv and an output: must stay an And2.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_input("b", 1)[0];
        let x = nl.add_gate(GateKind::And2, &[a, b]);
        let y = nl.add_gate(GateKind::Inv, &[x]);
        nl.add_output("y", &[y]);
        nl.add_output("x", &[x]);
        techmap(&mut nl);
        assert_eq!(nl.num_gates(), 2);
    }

    #[test]
    fn mapping_reduces_area_and_preserves_function() {
        // (a&b) | (c&d), inverted — classic AOI22.
        let mut nl = Netlist::new("t");
        let x = nl.add_input("x", 4);
        let ab = nl.add_gate(GateKind::And2, &[x[0], x[1]]);
        let cd = nl.add_gate(GateKind::And2, &[x[2], x[3]]);
        let o = nl.add_gate(GateKind::Or2, &[ab, cd]);
        let y = nl.add_gate(GateKind::Inv, &[o]);
        nl.add_output("y", &[y]);
        let lib = Library::vt90();
        let before_area = nl.area_report(&lib).combinational;
        let golden = nl.clone();
        techmap(&mut nl);
        let after_area = nl.area_report(&lib).combinational;
        assert!(after_area < before_area);
        let res =
            synthir_sim::check_comb_equiv(&golden, &nl, &synthir_sim::EquivOptions::new()).unwrap();
        assert!(res.is_equivalent());
    }
}
