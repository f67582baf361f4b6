//! Constant propagation and folding (the `k = 1` case of the paper's
//! optimization taxonomy).
//!
//! Bound configuration tables elaborate into mux trees over constant leaves;
//! this pass is what collapses them. The rules also clean up after the other
//! passes (buffer/double-inverter removal, mux strength reduction, constant
//! flop elimination).

use synthir_netlist::{GateId, GateKind, NetId, Netlist};

/// Runs constant folding to a fixpoint. Returns the number of rewrites
/// applied.
pub fn const_fold(nl: &mut Netlist) -> usize {
    let mut total = 0;
    loop {
        let n = fold_once(nl);
        total += n;
        nl.sweep();
        if n == 0 {
            break;
        }
    }
    total
}

enum Action {
    ReplaceConst(bool),
    ReplaceNet(NetId),
    Rewrite(GateKind, Vec<NetId>),
}

fn fold_once(nl: &mut Netlist) -> usize {
    let Ok(order) = synthir_netlist::topo::topological_order(nl) else {
        return 0;
    };
    let mut count = 0;
    for gid in order {
        if !nl.is_live(gid) {
            continue;
        }
        let Some(action) = simplify(nl, gid) else {
            continue;
        };
        let out = nl.gate(gid).output;
        match action {
            Action::ReplaceConst(v) => {
                let c = nl.constant(v);
                nl.replace_net_uses(out, c);
            }
            Action::ReplaceNet(n) => {
                nl.replace_net_uses(out, n);
            }
            Action::Rewrite(kind, inputs) => {
                nl.rewrite_gate(gid, kind, &inputs);
            }
        }
        count += 1;
    }
    count
}

/// The constant value of a net, if driven by a constant gate.
fn cval(nl: &Netlist, n: NetId) -> Option<bool> {
    nl.as_constant(n)
}

/// Whether `a` is the complement of `b` (one drives the other through an
/// inverter).
fn complements(nl: &Netlist, a: NetId, b: NetId) -> bool {
    let inv_of = |x: NetId| -> Option<NetId> {
        nl.driver(x).and_then(|g| {
            let gate = nl.gate(g);
            if gate.kind == GateKind::Inv {
                Some(gate.inputs[0])
            } else {
                None
            }
        })
    };
    inv_of(a) == Some(b) || inv_of(b) == Some(a)
}

#[allow(clippy::too_many_lines)]
fn simplify(nl: &mut Netlist, gid: GateId) -> Option<Action> {
    let gate = nl.gate(gid).clone();
    let ins = &gate.inputs;
    let c: Vec<Option<bool>> = ins.iter().map(|&n| cval(nl, n)).collect();
    use GateKind::*;
    match gate.kind {
        Const0 | Const1 => None,
        Buf => Some(Action::ReplaceNet(ins[0])),
        Inv => match c[0] {
            Some(v) => Some(Action::ReplaceConst(!v)),
            None => {
                // Inv(Inv(x)) = x
                let d = nl.driver(ins[0])?;
                let dg = nl.gate(d);
                if dg.kind == Inv {
                    Some(Action::ReplaceNet(dg.inputs[0]))
                } else {
                    None
                }
            }
        },
        And2 | And3 | And4 | Or2 | Or3 | Or4 | Nand2 | Nand3 | Nand4 | Nor2 | Nor3 | Nor4 => {
            let (is_and, inverted) = match gate.kind {
                And2 | And3 | And4 => (true, false),
                Nand2 | Nand3 | Nand4 => (true, true),
                Or2 | Or3 | Or4 => (false, false),
                _ => (false, true),
            };
            // In AND terms: absorbing = 0, identity = 1; dual for OR.
            let absorbing = !is_and;
            let mut kept: Vec<NetId> = Vec::new();
            for (i, &n) in ins.iter().enumerate() {
                match c[i] {
                    Some(v) if v == absorbing => {
                        return Some(Action::ReplaceConst(absorbing ^ inverted));
                    }
                    Some(_) => {} // identity: drop
                    None => {
                        if !kept.contains(&n) {
                            kept.push(n);
                        }
                    }
                }
            }
            // Complementary pair → absorbing result.
            for i in 0..kept.len() {
                for j in i + 1..kept.len() {
                    if complements(nl, kept[i], kept[j]) {
                        return Some(Action::ReplaceConst(absorbing ^ inverted));
                    }
                }
            }
            match kept.len() {
                0 => Some(Action::ReplaceConst(!absorbing ^ inverted)),
                1 => {
                    if inverted {
                        Some(Action::Rewrite(Inv, kept))
                    } else {
                        Some(Action::ReplaceNet(kept[0]))
                    }
                }
                k if k < ins.len() || kept != *ins => {
                    let kind = match (is_and, inverted, k) {
                        (true, false, 2) => And2,
                        (true, false, 3) => And3,
                        (true, true, 2) => Nand2,
                        (true, true, 3) => Nand3,
                        (false, false, 2) => Or2,
                        (false, false, 3) => Or3,
                        (false, true, 2) => Nor2,
                        (false, true, 3) => Nor3,
                        _ => return None, // 4 distinct inputs: nothing to do
                    };
                    Some(Action::Rewrite(kind, kept))
                }
                _ => None,
            }
        }
        Xor2 | Xnor2 => {
            let base_inverted = gate.kind == Xnor2;
            match (c[0], c[1]) {
                (Some(a), Some(b)) => Some(Action::ReplaceConst((a ^ b) != base_inverted)),
                (Some(v), None) | (None, Some(v)) => {
                    let other = if c[0].is_some() { ins[1] } else { ins[0] };
                    if v != base_inverted {
                        Some(Action::Rewrite(Inv, vec![other]))
                    } else {
                        Some(Action::ReplaceNet(other))
                    }
                }
                (None, None) => {
                    if ins[0] == ins[1] {
                        Some(Action::ReplaceConst(base_inverted))
                    } else if complements(nl, ins[0], ins[1]) {
                        Some(Action::ReplaceConst(!base_inverted))
                    } else {
                        None
                    }
                }
            }
        }
        Mux2 => {
            let (s, d0, d1) = (ins[0], ins[1], ins[2]);
            match (c[0], c[1], c[2]) {
                (Some(false), _, _) => Some(Action::ReplaceNet(d0)),
                (Some(true), _, _) => Some(Action::ReplaceNet(d1)),
                (None, Some(a), Some(b)) => Some(if a == b {
                    Action::ReplaceConst(a)
                } else if b {
                    Action::Rewrite(Buf, vec![s])
                } else {
                    Action::Rewrite(Inv, vec![s])
                }),
                (None, Some(false), None) => Some(Action::Rewrite(And2, vec![s, d1])),
                (None, Some(true), None) => {
                    // !s | d1
                    let ns = nl.add_gate(Inv, &[s]);
                    Some(Action::Rewrite(Or2, vec![ns, d1]))
                }
                (None, None, Some(false)) => {
                    // !s & d0
                    let ns = nl.add_gate(Inv, &[s]);
                    Some(Action::Rewrite(And2, vec![ns, d0]))
                }
                (None, None, Some(true)) => Some(Action::Rewrite(Or2, vec![s, d0])),
                (None, None, None) => {
                    if d0 == d1 {
                        Some(Action::ReplaceNet(d0))
                    } else if s == d1 || complements(nl, s, d0) {
                        // s ? s : d0 == s | d0 ; also (!s==d0) case: s?d1:!s
                        if s == d1 {
                            Some(Action::Rewrite(Or2, vec![s, d0]))
                        } else {
                            None
                        }
                    } else if s == d0 {
                        // s ? d1 : s == s & d1
                        Some(Action::Rewrite(And2, vec![s, d1]))
                    } else {
                        None
                    }
                }
            }
        }
        Aoi21 | Oai21 | Aoi22 | Oai22 => {
            // These appear only after technology mapping, which runs after
            // folding; any constants remaining here are handled by a
            // conservative rule: full constant evaluation only.
            if c.iter().all(|v| v.is_some()) {
                let vals: Vec<bool> = c.iter().map(|v| v.unwrap()).collect();
                Some(Action::ReplaceConst(gate.kind.eval(&vals)))
            } else {
                None
            }
        }
        Dff { init, .. } => {
            // A flop whose D pin is a constant equal to its init/reset value
            // never changes: fold to the constant.
            if c[0] == Some(init) {
                Some(Action::ReplaceConst(init))
            } else if ins[0] == gate.output {
                // Pure self-loop holds its init value forever.
                Some(Action::ReplaceConst(init))
            } else {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthir_netlist::{Library, ResetKind};

    #[test]
    fn folds_constant_and() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let c1 = nl.const1();
        let y = nl.add_gate(GateKind::And2, &[a, c1]);
        nl.add_output("y", &[y]);
        const_fold(&mut nl);
        // The AND is gone; output is the input directly.
        assert_eq!(nl.output_nets()[0], a);
        assert_eq!(nl.num_gates(), 0);
    }

    #[test]
    fn folds_mux_tree_of_constants() {
        // A 4:1 constant mux tree = a 2-input function; folding should
        // reduce it to a couple of gates at most.
        let mut nl = Netlist::new("t");
        let s = nl.add_input("s", 2);
        let c0 = nl.const0();
        let c1 = nl.const1();
        // Table 0,1,1,0 = XOR.
        let lo = nl.add_gate(GateKind::Mux2, &[s[0], c0, c1]);
        let hi = nl.add_gate(GateKind::Mux2, &[s[0], c1, c0]);
        let y = nl.add_gate(GateKind::Mux2, &[s[1], lo, hi]);
        nl.add_output("y", &[y]);
        const_fold(&mut nl);
        let lib = Library::vt90();
        // XOR as mux-of-buf/inv: folding gives mux(s1, s0, !s0) — small.
        assert!(nl.area_report(&lib).combinational <= 2.0 * lib.area(GateKind::Xor2));
        assert!(nl.num_gates() <= 3);
    }

    #[test]
    fn removes_double_inverters_and_buffers() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_gate(GateKind::Buf, &[a]);
        let i1 = nl.add_gate(GateKind::Inv, &[b]);
        let i2 = nl.add_gate(GateKind::Inv, &[i1]);
        nl.add_output("y", &[i2]);
        const_fold(&mut nl);
        assert_eq!(nl.output_nets()[0], a);
    }

    #[test]
    fn folds_xor_identities() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let same = nl.add_gate(GateKind::Xor2, &[a, a]);
        let na = nl.add_gate(GateKind::Inv, &[a]);
        let comp = nl.add_gate(GateKind::Xnor2, &[a, na]);
        nl.add_output("z", &[same]);
        nl.add_output("c", &[comp]);
        const_fold(&mut nl);
        assert_eq!(nl.as_constant(nl.output_nets()[0]), Some(false));
        assert_eq!(nl.as_constant(nl.output_nets()[1]), Some(false));
    }

    #[test]
    fn and_with_complement_is_zero() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let na = nl.add_gate(GateKind::Inv, &[a]);
        let y = nl.add_gate(GateKind::And2, &[a, na]);
        nl.add_output("y", &[y]);
        const_fold(&mut nl);
        assert_eq!(nl.as_constant(nl.output_nets()[0]), Some(false));
    }

    #[test]
    fn constant_flop_folds() {
        let mut nl = Netlist::new("t");
        let c0 = nl.const0();
        let rst = nl.add_input("rst", 1)[0];
        let q = nl.add_gate(
            GateKind::Dff {
                reset: ResetKind::Sync,
                init: false,
            },
            &[c0, rst],
        );
        nl.add_output("q", &[q]);
        const_fold(&mut nl);
        assert_eq!(nl.flop_count(), 0);
        assert_eq!(nl.as_constant(nl.output_nets()[0]), Some(false));
    }

    #[test]
    fn flop_with_nonmatching_constant_kept() {
        // D=1 but init=0: the flop output changes after the first cycle, so
        // it must not fold.
        let mut nl = Netlist::new("t");
        let c1 = nl.const1();
        let q = nl.add_gate(
            GateKind::Dff {
                reset: ResetKind::None,
                init: false,
            },
            &[c1],
        );
        nl.add_output("q", &[q]);
        const_fold(&mut nl);
        assert_eq!(nl.flop_count(), 1);
    }

    #[test]
    fn mux_strength_reduction() {
        let mut nl = Netlist::new("t");
        let s = nl.add_input("s", 1)[0];
        let d = nl.add_input("d", 1)[0];
        let c0 = nl.const0();
        let y = nl.add_gate(GateKind::Mux2, &[s, c0, d]);
        nl.add_output("y", &[y]);
        const_fold(&mut nl);
        let g = nl.driver(nl.output_nets()[0]).unwrap();
        assert_eq!(nl.gate(g).kind, GateKind::And2);
    }

    #[test]
    fn nary_gates_shrink() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_input("b", 1)[0];
        let c1 = nl.const1();
        let y = nl.add_gate(GateKind::And3, &[a, c1, b]);
        nl.add_output("y", &[y]);
        const_fold(&mut nl);
        let g = nl.driver(nl.output_nets()[0]).unwrap();
        assert_eq!(nl.gate(g).kind, GateKind::And2);
        // Nand with a zero input is constant one.
        let mut nl2 = Netlist::new("t2");
        let a2 = nl2.add_input("a", 1)[0];
        let c0 = nl2.const0();
        let y2 = nl2.add_gate(GateKind::Nand3, &[a2, c0, a2]);
        nl2.add_output("y", &[y2]);
        const_fold(&mut nl2);
        assert_eq!(nl2.as_constant(nl2.output_nets()[0]), Some(true));
    }
}
