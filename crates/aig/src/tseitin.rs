//! Tseitin CNF encoding of AIG cones: the one path from this workspace's
//! graphs to the [`synthir_sat`] CDCL solver.
//!
//! Each AND node encodes as one solver variable and three clauses, and a
//! complemented edge is a complemented solver literal, so inverters and the
//! NAND/NOR/XNOR/AOI gate flavours cost nothing. Encoding is cone-local:
//! only the nodes a root reaches get variables. SAT sweeping proves its
//! candidate merges through this encoder, and the equivalence checker in
//! `synthir-sim` builds its combinational and bounded-model-checking miters
//! as one AIG and hands the miter target to [`satisfy`].

use crate::graph::{Aig, AigLit, AigNode};
use synthir_sat::{Lit, SatResult, Solver};

/// A solver plus the node → solver-literal map of every node encoded so far.
pub(crate) struct Tseitin {
    solver: Solver,
    vars: Vec<Option<Lit>>,
}

impl Tseitin {
    /// An encoder for `aig` over an empty solver; node 0 maps to a literal
    /// fixed false.
    pub(crate) fn new(aig: &Aig) -> Tseitin {
        let mut solver = Solver::new();
        let true_lit = Lit::positive(solver.new_var());
        solver.add_clause(&[true_lit]);
        let mut vars = vec![None; aig.node_count()];
        vars[0] = Some(!true_lit);
        Tseitin { solver, vars }
    }

    /// The solver literal of `l`, Tseitin-encoding its cone first: one
    /// variable and three clauses per AND node not yet encoded, inputs and
    /// latch outputs as free variables. Iterative, so arbitrarily deep
    /// graphs cannot overflow the stack.
    pub(crate) fn encode(&mut self, aig: &Aig, l: AigLit) -> Lit {
        let lit_of = |vars: &[Option<Lit>], l: AigLit| -> Lit {
            let v = vars[l.node() as usize].expect("fanin encoded");
            if l.is_complemented() {
                !v
            } else {
                v
            }
        };
        let mut stack: Vec<(u32, bool)> = vec![(l.node(), false)];
        while let Some((node, expanded)) = stack.pop() {
            if self.vars[node as usize].is_some() {
                continue;
            }
            match aig.nodes()[node as usize] {
                AigNode::Const0 => unreachable!("node 0 is pre-encoded"),
                AigNode::Input | AigNode::Latch(_) => {
                    self.vars[node as usize] = Some(Lit::positive(self.solver.new_var()));
                }
                AigNode::And(a, b) => {
                    if expanded {
                        let la = lit_of(&self.vars, a);
                        let lb = lit_of(&self.vars, b);
                        let t = Lit::positive(self.solver.new_var());
                        self.solver.add_clause(&[!t, la]);
                        self.solver.add_clause(&[!t, lb]);
                        self.solver.add_clause(&[t, !la, !lb]);
                        self.vars[node as usize] = Some(t);
                    } else {
                        stack.push((node, true));
                        for f in [a, b] {
                            if self.vars[f.node() as usize].is_none() {
                                stack.push((f.node(), false));
                            }
                        }
                    }
                }
            }
        }
        lit_of(&self.vars, l)
    }

    /// Adds a clause over literals returned by [`Tseitin::encode`].
    pub(crate) fn add_clause(&mut self, lits: &[Lit]) {
        self.solver.add_clause(lits);
    }

    /// Solves the clauses so far; see [`satisfy`] for the model's shape.
    pub(crate) fn solve(&mut self, aig: &Aig) -> Option<Vec<bool>> {
        self.solve_limited(aig, u64::MAX)
            .expect("an unlimited search always answers")
    }

    /// [`Tseitin::solve`] within a conflict budget: `None` when the budget
    /// runs out first.
    pub(crate) fn solve_limited(
        &mut self,
        aig: &Aig,
        max_conflicts: u64,
    ) -> Option<Option<Vec<bool>>> {
        if self.solver.solve_limited(max_conflicts)? == SatResult::Unsat {
            return Some(None);
        }
        let mut model = vec![false; aig.node_count()];
        for (node, v) in self.vars.iter().enumerate() {
            if let Some(l) = v {
                if matches!(aig.nodes()[node], AigNode::Input | AigNode::Latch(_)) {
                    model[node] = self.solver.model_value(*l);
                }
            }
        }
        Some(Some(model))
    }
}

/// Asks the solver for an input/latch valuation that makes `target` true.
///
/// Returns `None` when none exists — a proof that `target` is constant
/// false. A target that already hashed to [`AigLit::FALSE`] is answered
/// without a solver call. Otherwise the model holds one value per node,
/// index-aligned with [`Aig::nodes`]: the witness on input and latch nodes
/// (false for those outside `target`'s cone), false on every other node.
pub fn satisfy(aig: &Aig, target: AigLit) -> Option<Vec<bool>> {
    satisfy_within(aig, target, u64::MAX).expect("an unlimited search always answers")
}

/// [`satisfy`] within a budget of `max_conflicts` solver conflicts:
/// `None` when the budget runs out before an answer, otherwise `Some` of
/// what [`satisfy`] returns.
pub fn satisfy_within(aig: &Aig, target: AigLit, max_conflicts: u64) -> Option<Option<Vec<bool>>> {
    if target == AigLit::FALSE {
        return Some(None);
    }
    let mut enc = Tseitin::new(aig);
    let t = enc.encode(aig, target);
    enc.add_clause(&[t]);
    enc.solve_limited(aig, max_conflicts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn satisfy_finds_a_witness_or_proves_false() {
        let mut g = Aig::new("t");
        let a = g.add_input();
        let b = g.add_input();
        let c = g.add_input();
        let y = g.and(a, !b);
        let model = satisfy(&g, y).expect("a & !b is satisfiable");
        assert!(model[a.node() as usize] && !model[b.node() as usize]);
        // (a & b) & c vs a & (b & c): hashing keeps both, the solver proves
        // their difference unsatisfiable.
        let ab = g.and(a, b);
        let y1 = g.and(ab, c);
        let bc = g.and(b, c);
        let y2 = g.and(a, bc);
        let miter = g.xor(y1, y2);
        assert_ne!(miter, AigLit::FALSE);
        assert_eq!(satisfy(&g, miter), None);
        assert!(satisfy(&g, AigLit::TRUE).is_some());
        assert_eq!(satisfy(&g, AigLit::FALSE), None);
    }

    /// A 50 000-deep AND chain encodes without recursion.
    #[test]
    fn deep_cones_are_stack_safe() {
        let mut g = Aig::new("chain");
        let inputs: Vec<AigLit> = (0..2).map(|_| g.add_input()).collect();
        let mut acc = inputs[0];
        for i in 0..50_000 {
            let x = g.add_input();
            acc = if i % 2 == 0 {
                g.and(acc, x)
            } else {
                g.or(acc, x)
            };
        }
        let target = g.and(acc, inputs[1]);
        let model = satisfy(&g, target).expect("satisfiable");
        let vals = g.simulate(|n| if model[n as usize] { 1 } else { 0 });
        assert_eq!(Aig::lit_value(&vals, target) & 1, 1);
    }
}
