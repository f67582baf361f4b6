//! Tseitin CNF encoding of AIG cones: the one path from this workspace's
//! graphs to the [`synthir_sat`] CDCL solver.
//!
//! The encoding works on *supergates* rather than single AND nodes (Eén,
//! Mishchenko, Sörensson, "Applying Logic Synthesis for Speeding Up SAT",
//! SAT 2007). An AND node absorbs every uncomplemented AND fanin that has
//! exactly one fanout and no solver variable yet, recursively; what is left
//! are its leaves: complemented edges, shared nodes, inputs and latch
//! outputs. The supergate `t = AND(l1 … ln)` then encodes as one variable,
//! one binary clause `(!t | li)` per leaf and one long clause
//! `(t | !l1 | … | !ln)`. A complemented edge is a complemented solver
//! literal, so inverters and the NAND/NOR/XNOR/AOI gate flavours cost
//! nothing, and a sum of products (a PLA miter) becomes two-level CNF
//! instead of chains of two-input ANDs.
//!
//! Encoding is cone-local: only the nodes a root reaches get clauses. A
//! node absorbed into one root's supergate has no variable of its own; if
//! a later encode asks for it, it is encoded again as a root
//! of its own, which is sound (its definition is implied by the same
//! leaves). SAT sweeping proves its candidate merges through this encoder,
//! and the equivalence checker in `synthir-sim` builds its combinational
//! and bounded-model-checking miters as one AIG and hands the miter target
//! to [`satisfy`].

use crate::graph::{Aig, AigLit, AigNode};
use synthir_sat::{Lit, SatResult, Solver, Stats};

/// Marks the nodes with exactly one AND fanout: the nodes a supergate may
/// absorb. Count it once per graph and share it between encoders.
pub(crate) fn single_fanout(aig: &Aig) -> Vec<bool> {
    let mut count = vec![0u8; aig.node_count()];
    for node in aig.nodes() {
        if let AigNode::And(a, b) = *node {
            for f in [a, b] {
                let c = &mut count[f.node() as usize];
                *c = c.saturating_add(1);
            }
        }
    }
    count.into_iter().map(|c| c == 1).collect()
}

/// A solver plus the node → solver-literal map of every node encoded so far.
pub(crate) struct Tseitin<'a> {
    solver: Solver,
    vars: Vec<Option<Lit>>,
    /// [`single_fanout`] of the graph being encoded.
    single: &'a [bool],
    /// The leaves of the supergates being encoded, innermost last.
    leaves: Vec<AigLit>,
    /// Scratch for walking a supergate and for its long clause.
    walk: Vec<AigLit>,
    clause: Vec<Lit>,
}

/// A stack entry of [`Tseitin::encode`] whose leaves are not collected yet.
const UNEXPANDED: usize = usize::MAX;

impl<'a> Tseitin<'a> {
    /// An encoder for `aig` over an empty solver; node 0 maps to a literal
    /// fixed false. `single` is [`single_fanout`] of `aig`.
    pub(crate) fn new(aig: &Aig, single: &'a [bool]) -> Tseitin<'a> {
        let mut solver = Solver::new();
        let true_lit = Lit::positive(solver.new_var());
        solver.add_clause(&[true_lit]);
        let mut vars = vec![None; aig.node_count()];
        vars[0] = Some(!true_lit);
        Tseitin {
            solver,
            vars,
            single,
            leaves: Vec::new(),
            walk: Vec::new(),
            clause: Vec::new(),
        }
    }

    fn lit_of(&self, l: AigLit) -> Lit {
        let v = self.vars[l.node() as usize].expect("leaf encoded");
        if l.is_complemented() {
            !v
        } else {
            v
        }
    }

    /// The solver literal of `l`, Tseitin-encoding its cone first: one
    /// variable per supergate not yet encoded, inputs and latch outputs as
    /// free variables. Iterative, so arbitrarily deep graphs cannot
    /// overflow the stack.
    pub(crate) fn encode(&mut self, aig: &Aig, l: AigLit) -> Lit {
        // `(node, UNEXPANDED)`, or `(node, start)` once the node's leaves
        // sit at `leaves[start..]` with their own entries above it.
        let mut stack: Vec<(u32, usize)> = vec![(l.node(), UNEXPANDED)];
        while let Some((node, start)) = stack.pop() {
            if start != UNEXPANDED {
                self.define(node as usize, start);
                continue;
            }
            if self.vars[node as usize].is_some() {
                continue;
            }
            match aig.nodes()[node as usize] {
                AigNode::Const0 => unreachable!("node 0 is pre-encoded"),
                AigNode::Input | AigNode::Latch(_) => {
                    self.vars[node as usize] = Some(Lit::positive(self.solver.new_var()));
                }
                AigNode::And(a, b) => {
                    let start = self.leaves.len();
                    self.collect_leaves(aig, a, b);
                    stack.push((node, start));
                    for &f in &self.leaves[start..] {
                        if self.vars[f.node() as usize].is_none() {
                            stack.push((f.node(), UNEXPANDED));
                        }
                    }
                }
            }
        }
        self.lit_of(l)
    }

    /// Appends the leaves of the supergate over fanins `a` and `b`.
    fn collect_leaves(&mut self, aig: &Aig, a: AigLit, b: AigLit) {
        self.walk.clear();
        self.walk.extend([b, a]);
        while let Some(f) = self.walk.pop() {
            let n = f.node() as usize;
            if !f.is_complemented() && self.single[n] && self.vars[n].is_none() {
                if let AigNode::And(x, y) = aig.nodes()[n] {
                    self.walk.extend([y, x]);
                    continue;
                }
            }
            self.leaves.push(f);
        }
    }

    /// Gives `node` a variable `t` with `t ↔ AND(leaves[start..])` and pops
    /// those leaves, all of which are encoded by now.
    fn define(&mut self, node: usize, start: usize) {
        let t = Lit::positive(self.solver.new_var());
        self.clause.clear();
        self.clause.push(t);
        for k in start..self.leaves.len() {
            let x = self.lit_of(self.leaves[k]);
            self.solver.add_clause(&[!t, x]);
            self.clause.push(!x);
        }
        self.solver.add_clause(&self.clause);
        self.leaves.truncate(start);
        self.vars[node] = Some(t);
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
    satisfy_with_stats(aig, target).0
}

/// [`satisfy`] plus the solver's search counters for the call (all zero
/// when the target hashed to false).
pub fn satisfy_with_stats(aig: &Aig, target: AigLit) -> (Option<Vec<bool>>, Stats) {
    let (answer, stats) = satisfy_counted(aig, target, u64::MAX);
    (answer.expect("an unlimited search always answers"), stats)
}

/// [`satisfy`] within a budget of `max_conflicts` solver conflicts:
/// `None` when the budget runs out before an answer, otherwise `Some` of
/// what [`satisfy`] returns.
pub fn satisfy_within(aig: &Aig, target: AigLit, max_conflicts: u64) -> Option<Option<Vec<bool>>> {
    satisfy_counted(aig, target, max_conflicts).0
}

fn satisfy_counted(
    aig: &Aig,
    target: AigLit,
    max_conflicts: u64,
) -> (Option<Option<Vec<bool>>>, Stats) {
    if target == AigLit::FALSE {
        return (Some(None), Stats::default());
    }
    let single = single_fanout(aig);
    let mut enc = Tseitin::new(aig, &single);
    let t = enc.encode(aig, target);
    enc.add_clause(&[t]);
    let answer = enc.solve_limited(aig, max_conflicts);
    (answer, enc.solver.stats())
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

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Simulation word `w` of an exhaustive sweep over `inputs`: inputs 0–5
    /// vary inside the word, the rest follow the bits of `w`.
    fn exhaustive_word(inputs: &[AigLit], node: u32, w: usize) -> u64 {
        const MASKS: [u64; 6] = [
            0xAAAA_AAAA_AAAA_AAAA,
            0xCCCC_CCCC_CCCC_CCCC,
            0xF0F0_F0F0_F0F0_F0F0,
            0xFF00_FF00_FF00_FF00,
            0xFFFF_0000_FFFF_0000,
            0xFFFF_FFFF_0000_0000,
        ];
        let i = inputs
            .iter()
            .position(|l| l.node() == node)
            .expect("an input");
        match i {
            0..=5 => MASKS[i],
            _ if w >> (i - 6) & 1 != 0 => u64::MAX,
            _ => 0,
        }
    }

    /// The supergate encoding against exhaustive simulation on random AIGs
    /// of up to 12 inputs: fanins lean towards recent nodes, so chains of
    /// single-fanout ANDs (absorbed) mix with shared nodes and complemented
    /// edges (leaves). The verdict must match simulation, and every model
    /// must make its target true.
    #[test]
    fn supergate_encoding_matches_exhaustive_simulation() {
        let mut rng = 0x7_5E17u64;
        let (mut sat, mut unsat) = (0, 0);
        for case in 0..120 {
            let mut g = Aig::new("random");
            let n_in: usize = 2 + case % 11;
            let inputs: Vec<AigLit> = (0..n_in).map(|_| g.add_input()).collect();
            let mut lits = inputs.clone();
            for _ in 0..8 + case % 40 {
                let pick = |rng: &mut u64| {
                    let r = splitmix(rng);
                    let back = if r & 3 == 0 {
                        lits.len()
                    } else {
                        3.min(lits.len())
                    };
                    let l = lits[lits.len() - 1 - (r >> 8) as usize % back];
                    l.with_complement(r >> 2 & 3 == 0)
                };
                let (a, b) = (pick(&mut rng), pick(&mut rng));
                let y = g.and(a, b);
                lits.push(y);
            }
            let words = 1usize << n_in.saturating_sub(6);
            let live = if n_in >= 6 {
                u64::MAX
            } else {
                (1u64 << (1 << n_in)) - 1
            };
            for _ in 0..4 {
                let r = splitmix(&mut rng);
                let x = lits[r as usize % lits.len()];
                let y = lits[(r >> 32) as usize % lits.len()];
                let target = if r >> 20 & 1 != 0 {
                    g.and(x, !y)
                } else {
                    g.xor(x, y)
                };
                let reachable = (0..words).any(|w| {
                    let v = g.simulate(|n| exhaustive_word(&inputs, n, w));
                    Aig::lit_value(&v, target) & live != 0
                });
                match satisfy(&g, target) {
                    Some(model) => {
                        assert!(reachable, "case {case}: SAT for an unreachable target");
                        let v = g.simulate(|n| if model[n as usize] { 1 } else { 0 });
                        assert_eq!(Aig::lit_value(&v, target) & 1, 1, "case {case}");
                        sat += 1;
                    }
                    None => {
                        assert!(!reachable, "case {case}: UNSAT for a reachable target");
                        unsat += 1;
                    }
                }
            }
        }
        assert!(sat > 50 && unsat > 20, "{sat} SAT, {unsat} UNSAT");
    }

    /// A second root inside the first root's supergate: `y` is absorbed when
    /// `z` is encoded, then asked for on its own. Its fresh variable must
    /// be tied to the same leaves, so `z → y` and `y ↔ a & b & c` hold.
    #[test]
    fn an_absorbed_node_encodes_as_its_own_root() {
        let mut g = Aig::new("t");
        let [a, b, c, d] = [0; 4].map(|_| g.add_input());
        let x = g.and(a, b);
        let y = g.and(x, c);
        let z = g.and(y, d);
        let single = single_fanout(&g);
        let query = |extra: &dyn Fn(Lit, Lit, Lit) -> Vec<Vec<Lit>>| {
            let mut enc = Tseitin::new(&g, &single);
            let tz = enc.encode(&g, z);
            assert!(enc.vars[y.node() as usize].is_none(), "y was absorbed");
            let ty = enc.encode(&g, y);
            let ta = enc.encode(&g, a);
            for clause in extra(tz, ty, ta) {
                enc.add_clause(&clause);
            }
            enc.solve(&g)
        };
        assert_eq!(query(&|tz, ty, _| vec![vec![tz], vec![!ty]]), None);
        assert_eq!(query(&|_, ty, ta| vec![vec![ty], vec![!ta]]), None);
        let model = query(&|tz, ty, _| vec![vec![!tz], vec![ty]]).expect("y & !d");
        assert!(!model[d.node() as usize]);
        assert!([a, b, c].iter().all(|l| model[l.node() as usize]));
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
