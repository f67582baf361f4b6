//! Algebraic factoring: building multi-level logic from a two-level cover.

use std::collections::HashMap;
use synthir_logic::{cube::Literal, Cover, Cube};
use synthir_netlist::{GateKind, NetId, Netlist};

/// Emits a multi-level And/Or/Inv network computing `cover` over the given
/// support nets (variable `i` of the cover reads `support[i]`). Returns the
/// root net.
///
/// Factoring is recursive most-common-literal division, the classic "weak
/// division" heuristic: `F = l·Q + R` where `l` is the literal occurring in
/// the most cubes.
///
/// # Panics
///
/// Panics if `cover.nvars() != support.len()`.
pub fn emit_cover(nl: &mut Netlist, cover: &Cover, support: &[NetId]) -> NetId {
    assert_eq!(cover.nvars(), support.len(), "support arity mismatch");
    if cover.is_empty() {
        return nl.const0();
    }
    if cover.cubes().iter().any(|c| c.literal_count() == 0) {
        return nl.const1();
    }
    let mut ctx = Emit {
        nl,
        support: support.to_vec(),
        inv_cache: HashMap::new(),
    };
    ctx.factor(cover.cubes().to_vec())
}

struct Emit<'a> {
    nl: &'a mut Netlist,
    support: Vec<NetId>,
    inv_cache: HashMap<NetId, NetId>,
}

impl Emit<'_> {
    fn literal_net(&mut self, var: usize, positive: bool) -> NetId {
        let base = self.support[var];
        if positive {
            base
        } else {
            if let Some(&n) = self.inv_cache.get(&base) {
                return n;
            }
            let n = self.nl.add_gate(GateKind::Inv, &[base]);
            self.inv_cache.insert(base, n);
            n
        }
    }

    fn cube_net(&mut self, cube: &Cube) -> NetId {
        let lits: Vec<NetId> = (0..cube.nvars())
            .filter_map(|v| match cube.literal(v) {
                Literal::DontCare => None,
                Literal::Positive => Some(self.literal_net(v, true)),
                Literal::Negative => Some(self.literal_net(v, false)),
            })
            .collect();
        self.tree(&lits, GateKind::And2)
    }

    fn tree(&mut self, nets: &[NetId], kind: GateKind) -> NetId {
        match nets.len() {
            0 => match kind {
                GateKind::And2 => self.nl.const1(),
                _ => self.nl.const0(),
            },
            1 => nets[0],
            _ => {
                let mid = nets.len() / 2;
                let lo = self.tree(&nets[..mid], kind);
                let hi = self.tree(&nets[mid..], kind);
                self.nl.add_gate(kind, &[lo, hi])
            }
        }
    }

    fn factor(&mut self, cubes: Vec<Cube>) -> NetId {
        debug_assert!(!cubes.is_empty());
        if cubes.len() == 1 {
            return self.cube_net(&cubes[0]);
        }
        // Count literal occurrences.
        let nvars = cubes[0].nvars();
        let mut best: Option<(usize, bool, usize)> = None; // (var, positive, count)
        for v in 0..nvars {
            let mut pos = 0;
            let mut neg = 0;
            for c in &cubes {
                match c.literal(v) {
                    Literal::Positive => pos += 1,
                    Literal::Negative => neg += 1,
                    Literal::DontCare => {}
                }
            }
            for (polarity, count) in [(true, pos), (false, neg)] {
                if count >= 2 && best.map(|(_, _, bc)| count > bc).unwrap_or(true) {
                    best = Some((v, polarity, count));
                }
            }
        }
        match best {
            None => {
                // No shared literal: flat sum of products.
                let terms: Vec<NetId> = cubes.iter().map(|c| self.cube_net(c)).collect();
                self.tree(&terms, GateKind::Or2)
            }
            Some((var, positive, _)) => {
                let want = if positive {
                    Literal::Positive
                } else {
                    Literal::Negative
                };
                let mut q = Vec::new();
                let mut r = Vec::new();
                for c in cubes {
                    if c.literal(var) == want {
                        q.push(c.with_literal(var, Literal::DontCare));
                    } else {
                        r.push(c);
                    }
                }
                let lit = self.literal_net(var, positive);
                let q_net = if q.len() == 1 && q[0].literal_count() == 0 {
                    // l·1 = l
                    lit
                } else {
                    let qn = self.factor(q);
                    self.nl.add_gate(GateKind::And2, &[lit, qn])
                };
                if r.is_empty() {
                    q_net
                } else {
                    let rn = self.factor(r);
                    self.nl.add_gate(GateKind::Or2, &[q_net, rn])
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conefn::Cone;
    use synthir_logic::TruthTable;

    fn check_cover(cover: &Cover, nvars: usize) {
        let mut nl = Netlist::new("t");
        let support = nl.add_input("x", nvars);
        let root = emit_cover(&mut nl, cover, &support);
        nl.add_output("y", &[root]);
        let tt = Cone::new(&nl, &[root], &support).truth_table();
        let expected = cover.to_truth_table(nvars);
        assert_eq!(tt, expected, "emitted logic must match cover");
    }

    #[test]
    fn emits_constants() {
        let mut nl = Netlist::new("t");
        let support = nl.add_input("x", 2);
        let zero = emit_cover(&mut nl, &Cover::empty(2), &support);
        assert_eq!(nl.as_constant(zero), Some(false));
        let one = emit_cover(&mut nl, &Cover::tautology_cover(2), &support);
        assert_eq!(nl.as_constant(one), Some(true));
    }

    #[test]
    fn emits_single_cube() {
        // a & !c
        check_cover(&Cover::from_cubes(3, [Cube::new(3, 0b001, 0b101)]), 3);
    }

    #[test]
    fn emits_majority() {
        let tt = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        let cover = synthir_logic::espresso::minimize_tt(&tt, None);
        check_cover(&cover, 3);
    }

    #[test]
    fn emits_random_covers() {
        for seed in 0..10u64 {
            let tt = TruthTable::from_fn(5, |m| {
                (m as u64).wrapping_mul(0x9E37 ^ seed).wrapping_add(seed) % 7 < 3
            });
            let cover = synthir_logic::espresso::minimize_tt(&tt, None);
            check_cover(&cover, 5);
        }
    }

    #[test]
    fn factoring_shares_literals() {
        // a&b + a&c + a&d: factoring should produce a & (b+c+d):
        // 1 AND for the product, OR tree, no repeated a-literals.
        let cover = Cover::from_cubes(
            4,
            [
                Cube::new(4, 0b0011, 0b0011),
                Cube::new(4, 0b0101, 0b0101),
                Cube::new(4, 0b1001, 0b1001),
            ],
        );
        let mut nl = Netlist::new("t");
        let support = nl.add_input("x", 4);
        let root = emit_cover(&mut nl, &cover, &support);
        nl.add_output("y", &[root]);
        // Factored form: 2 OR + 1 AND = 3 gates (flat would be 3 AND + 2 OR).
        assert!(nl.num_gates() <= 4, "got {} gates", nl.num_gates());
    }
}
