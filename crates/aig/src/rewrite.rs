//! Local AIG rewriting: rebuild-with-rules plus 2-input-cut NPN
//! resynthesis, the dangling-node sweep (`compact`), and constant-latch
//! folding (`fold_constant_latches`).
//!
//! The rewriter re-derives every live AND through [`Aig::and`] in a fresh
//! graph, so the construction-time one-/two-level rules and hash-consing
//! get a second chance after upstream merges have changed fanins. On top
//! of that, each rebuilt node whose two-level neighbourhood spans at most
//! two distinct leaf variables is replaced by the *canonical minimal*
//! implementation of its 2-input function (one of the 16 NPN-classified
//! two-variable functions): constants, single literals, one AND, or an
//! XOR/XNOR pair — never more nodes than the structural form it replaces.

use crate::graph::{Aig, AigLit, AigNode};

/// The outcome of a rebuild-style pass: the new graph plus the old-node →
/// new-literal map used to carry kept literals (annotations) across.
#[derive(Clone, Debug)]
pub struct Rebuilt {
    /// The rebuilt graph.
    pub aig: Aig,
    /// `map[node]` is the literal the old node's plain literal became.
    /// Dead, un-kept nodes map to [`AigLit::FALSE`] and must not be read.
    pub map: Vec<AigLit>,
}

impl Rebuilt {
    /// Translates an old-graph literal into the rebuilt graph.
    pub fn lit(&self, l: AigLit) -> AigLit {
        l.translate(&self.map)
    }

    /// Chains a second rebuild: the result maps original literals straight
    /// into `next`'s graph.
    pub fn then(self, next: Rebuilt) -> Rebuilt {
        Rebuilt {
            map: self.map.iter().map(|&l| next.lit(l)).collect(),
            aig: next.aig,
        }
    }
}

/// Rebuilds `aig`, re-running the construction rules and the 2-cut NPN
/// minimization on every live AND, to a fixpoint (bounded at four rounds —
/// in practice one or two suffice). `keep` lists extra literals that must
/// stay mapped (annotation carriers). Returns the rebuilt graph and the
/// composed literal map.
pub fn rewrite(aig: &Aig, keep: &[AigLit]) -> Rebuilt {
    let mut current = rebuild(aig, keep, &[], npn_step);
    // Further rounds only pay off while the previous one shrank the graph
    // — the common mid-flow case (a graph already normalized at import)
    // stops after the single pass above.
    let mut prev_count = aig.and_count();
    for _ in 0..3 {
        if current.aig.and_count() >= prev_count {
            break;
        }
        prev_count = current.aig.and_count();
        let keep2: Vec<AigLit> = keep.iter().map(|&l| current.lit(l)).collect();
        let next = rebuild(&current.aig, &keep2, &[], npn_step);
        current = Rebuilt {
            map: compose(&current.map, &next),
            aig: next.aig,
        };
    }
    current
}

/// Rebuilds `aig` dropping dead nodes, with no resynthesis beyond the
/// construction rules — the explicit dangling-node sweep.
pub fn compact(aig: &Aig, keep: &[AigLit]) -> Rebuilt {
    rebuild(aig, keep, &[], |g, _, _, a, b| g.and(a, b))
}

/// Replaces every latch that never leaves its `init` value by that
/// constant, to a fixpoint. A latch qualifies when its next-state literal
/// is the constant equal to `init`, or its own output: whatever its reset
/// flavour, reset only reloads `init`. Folding one latch can make another
/// latch's next state constant, so rounds repeat until none folds.
///
/// Returns `None` when no latch folds, so the caller keeps its graph (and
/// its node order) untouched.
pub fn fold_constant_latches(aig: &Aig) -> Option<Rebuilt> {
    let mut folded: Option<Rebuilt> = None;
    loop {
        let g = folded.as_ref().map_or(aig, |r| &r.aig);
        let consts: Vec<Option<bool>> = g
            .latches()
            .iter()
            .map(|l| {
                let holds = l.next == g.constant(l.init) || l.next == AigLit::new(l.output, false);
                holds.then_some(l.init)
            })
            .collect();
        if consts.iter().all(Option::is_none) {
            return folded;
        }
        let next = rebuild(g, &[], &consts, |g, _, _, a, b| g.and(a, b));
        folded = Some(match folded {
            Some(prev) => prev.then(next),
            None => next,
        });
    }
}

/// The rewriter's per-AND step for [`Aig::copy_ands`].
fn npn_step(g: &mut Aig, _: &[AigLit], _: usize, a: AigLit, b: AigLit) -> AigLit {
    and_npn(g, a, b)
}

fn compose(first: &[AigLit], then: &Rebuilt) -> Vec<AigLit> {
    first.iter().map(|&l| then.lit(l)).collect()
}

/// One rebuild round: copies inputs/latches, re-derives live ANDs through
/// `and` (see [`Aig::copy_ands`]), and rewires latches and output ports.
/// `consts[i] = Some(v)` replaces latch `i` by the constant `v` (its
/// next-state and reset cones are then not kept alive by it); latches past
/// the end of `consts` are copied. Shared by the rewriter, [`compact`],
/// [`fold_constant_latches`], and SAT sweeping's merge step.
pub(crate) fn rebuild(
    aig: &Aig,
    keep: &[AigLit],
    consts: &[Option<bool>],
    and: impl FnMut(&mut Aig, &[AigLit], usize, AigLit, AigLit) -> AigLit,
) -> Rebuilt {
    let folded_to = |i: usize| consts.get(i).copied().flatten();
    let live = aig.live_marks_cut(keep, |i| folded_to(i).is_some());
    let mut out = Aig::new(aig.name());
    let mut map: Vec<AigLit> = vec![AigLit::FALSE; aig.node_count()];
    // Ports first (interface preserved), then stray inputs in node order.
    let mut ported: Vec<bool> = vec![false; aig.node_count()];
    for p in aig.input_ports() {
        let lits = out.add_input_port(&p.name, p.lits.len());
        for (&old, &new) in p.lits.iter().zip(&lits) {
            map[old.node() as usize] = new;
            ported[old.node() as usize] = true;
        }
    }
    for (i, n) in aig.nodes().iter().enumerate() {
        if matches!(n, AigNode::Input) && !ported[i] {
            map[i] = out.add_input();
        }
    }
    for (i, l) in aig.latches().iter().enumerate() {
        if live[l.output as usize] {
            map[l.output as usize] = match folded_to(i) {
                Some(v) => out.constant(v),
                None => out.add_latch(l.reset, l.init),
            };
        }
    }
    out.copy_ands(aig, &live, &mut map, and);
    for (i, old) in aig.latches().iter().enumerate() {
        if !live[old.output as usize] || folded_to(i).is_some() {
            continue;
        }
        let q = map[old.output as usize];
        out.set_latch_next(q, old.next.translate(&map), old.reset_lit.translate(&map));
    }
    for p in aig.output_ports() {
        let lits: Vec<AigLit> = p.lits.iter().map(|&l| l.translate(&map)).collect();
        out.add_output_port(&p.name, &lits);
    }
    Rebuilt { aig: out, map }
}

/// `and(a, b)` with the 2-input-cut NPN step: if the two-level
/// neighbourhood of the conjunction spans at most two distinct leaf nodes,
/// emit the canonical minimal form of its 2-variable function instead of
/// the structural conjunction.
fn and_npn(g: &mut Aig, a: AigLit, b: AigLit) -> AigLit {
    // Collect the leaf nodes of the 2-level cut: a literal's own node when
    // it is not an AND, its fanin nodes otherwise.
    let mut leaves: [u32; 4] = [u32::MAX; 4];
    let mut n_leaves = 0usize;
    let add = |leaves: &mut [u32; 4], n_leaves: &mut usize, node: u32| {
        if !leaves[..*n_leaves].contains(&node) {
            if *n_leaves == 4 {
                return false;
            }
            leaves[*n_leaves] = node;
            *n_leaves += 1;
        }
        true
    };
    for l in [a, b] {
        match g.nodes()[l.node() as usize] {
            AigNode::And(x, y) => {
                if !add(&mut leaves, &mut n_leaves, x.node())
                    || !add(&mut leaves, &mut n_leaves, y.node())
                {
                    return g.and(a, b);
                }
            }
            _ => {
                if !add(&mut leaves, &mut n_leaves, l.node()) {
                    return g.and(a, b);
                }
            }
        }
    }
    if n_leaves > 2 {
        return g.and(a, b);
    }
    // Degenerate cuts (constants in the neighbourhood) still work: the
    // truth-table words below treat them as ordinary variables and the
    // construction rules collapse the result.
    let (x, y) = (leaves[0], if n_leaves == 2 { leaves[1] } else { leaves[0] });
    const WX: u8 = 0b1010;
    const WY: u8 = 0b1100;
    let word = |l: AigLit| -> u8 {
        let base = match g.nodes()[l.node() as usize] {
            AigNode::And(p, q) => {
                let wp =
                    if p.node() == x { WX } else { WY } ^ if p.is_complemented() { 0xF } else { 0 };
                let wq =
                    if q.node() == x { WX } else { WY } ^ if q.is_complemented() { 0xF } else { 0 };
                wp & wq
            }
            AigNode::Const0 => 0,
            _ => {
                if l.node() == x {
                    WX
                } else {
                    WY
                }
            }
        } & 0xF;
        if l.is_complemented() {
            !base & 0xF
        } else {
            base
        }
    };
    // A constant leaf (node 0) contributes the all-zero column via the
    // `AigNode::Const0` arm above, so truth tables that would need that
    // column active simply cannot arise — the match below stays total.
    let tt = word(a) & word(b);
    let lx = AigLit::new(x, false);
    let ly = AigLit::new(y, false);
    match tt {
        0x0 => AigLit::FALSE,
        0xF => AigLit::TRUE,
        0xA => lx,
        0x5 => !lx,
        0xC => ly,
        0x3 => !ly,
        0x8 => g.and(lx, ly),
        0x2 => g.and(lx, !ly),
        0x4 => g.and(!lx, ly),
        0x1 => g.and(!lx, !ly),
        0x7 => !g.and(lx, ly),
        0xD => !g.and(lx, !ly),
        0xB => !g.and(!lx, ly),
        0xE => !g.and(!lx, !ly),
        0x6 => g.xor(lx, ly),
        0x9 => !g.xor(lx, ly),
        _ => unreachable!("4-bit truth table"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rewrite_collapses_structural_xor() {
        // Build XOR the long way (4 ANDs via NANDs) and let the rewriter
        // find the 3-node form (or better).
        let mut g = Aig::new("t");
        let a = g.add_input_port("a", 1)[0];
        let b = g.add_input_port("b", 1)[0];
        let nab = !g.and(a, b);
        let x = g.and(a, nab);
        let y = g.and(b, nab);
        let res = g.or(x, y); // = a ^ b
        g.add_output_port("y", &[res]);
        let r = rewrite(&g, &[]);
        assert!(r.aig.and_count() <= 3, "{} ANDs", r.aig.and_count());
        // Function preserved.
        let check = |g: &Aig, out: AigLit| {
            let vals = g.simulate(|n| {
                let i = g.input_nodes().iter().position(|&v| v == n).unwrap();
                [0xAAAA_AAAA_AAAA_AAAAu64, 0xCCCC_CCCC_CCCC_CCCC][i]
            });
            Aig::lit_value(&vals, out) & 0xF
        };
        let old = check(&g, res);
        let new = check(&r.aig, r.aig.output_ports()[0].lits[0]);
        assert_eq!(old, new);
        assert_eq!(old, 0b0110);
    }

    #[test]
    fn compact_drops_dead_nodes_and_latches() {
        use synthir_netlist::ResetKind;
        let mut g = Aig::new("t");
        let a = g.add_input_port("a", 1)[0];
        let b = g.add_input_port("b", 1)[0];
        let _dead = g.and(a, b);
        let dead_latch = g.add_latch(ResetKind::None, false);
        g.set_latch_next(dead_latch, a, AigLit::FALSE);
        let keep = g.and(!a, !b);
        g.add_output_port("y", &[keep]);
        let r = compact(&g, &[]);
        assert_eq!(r.aig.and_count(), 1);
        assert!(r.aig.latches().is_empty() || r.aig.latches().len() < g.latches().len());
    }

    /// A one-latch graph per reset flavour and init value: input `x`, the
    /// reset pin `rst` (wired only when the flavour has one), and the
    /// latch output on port `q`. `next(q, x)` is its next state.
    fn one_latch(
        reset: synthir_netlist::ResetKind,
        init: bool,
        next: impl Fn(&mut Aig, AigLit, AigLit) -> AigLit,
    ) -> Aig {
        use synthir_netlist::ResetKind;
        let mut g = Aig::new("t");
        let x = g.add_input_port("x", 1)[0];
        let rst = g.add_input_port("rst", 1)[0];
        let q = g.add_latch(reset, init);
        let nx = next(&mut g, q, x);
        let rst = if reset == ResetKind::None {
            AigLit::FALSE
        } else {
            rst
        };
        g.set_latch_next(q, nx, rst);
        g.add_output_port("q", &[q]);
        g
    }

    fn each_flavour(mut f: impl FnMut(synthir_netlist::ResetKind, bool)) {
        use synthir_netlist::ResetKind;
        for reset in [ResetKind::None, ResetKind::Sync, ResetKind::Async] {
            for init in [false, true] {
                f(reset, init);
            }
        }
    }

    #[test]
    fn latch_tied_to_its_init_folds() {
        each_flavour(|reset, init| {
            let g = one_latch(reset, init, |g, _, _| g.constant(init));
            let r = fold_constant_latches(&g).expect("the latch folds");
            assert!(r.aig.latches().is_empty(), "{reset:?} init {init}");
            assert_eq!(r.aig.output_ports()[0].lits[0], r.aig.constant(init));
            assert_eq!(r.aig.input_ports().len(), 2, "interface kept");
        });
    }

    #[test]
    fn self_loop_latch_folds() {
        each_flavour(|reset, init| {
            let g = one_latch(reset, init, |_, q, _| q);
            let r = fold_constant_latches(&g).expect("the latch folds");
            assert!(r.aig.latches().is_empty(), "{reset:?} init {init}");
            assert_eq!(r.aig.output_ports()[0].lits[0], r.aig.constant(init));
        });
    }

    #[test]
    fn latch_chain_folds_in_a_second_round() {
        use synthir_netlist::ResetKind;
        each_flavour(|reset, init| {
            // `a` holds `init`; `b` loads `a`, so it holds `init` too — but
            // only once `a` is a constant. `y = b & x` keeps `b` observed.
            let mut g = Aig::new("t");
            let x = g.add_input_port("x", 1)[0];
            let rst = g.add_input_port("rst", 1)[0];
            let rst = if reset == ResetKind::None {
                AigLit::FALSE
            } else {
                rst
            };
            let a = g.add_latch(ResetKind::Sync, init);
            let b = g.add_latch(reset, init);
            let init_lit = g.constant(init);
            g.set_latch_next(a, init_lit, rst);
            g.set_latch_next(b, a, rst);
            let y = g.and(b, x);
            g.add_output_port("y", &[y]);
            let r = fold_constant_latches(&g).expect("both latches fold");
            assert!(r.aig.latches().is_empty(), "{reset:?} init {init}");
            let want = if init { r.lit(x) } else { AigLit::FALSE };
            assert_eq!(r.aig.output_ports()[0].lits[0], want);
            assert_eq!(r.lit(b), r.aig.constant(init));
        });
    }

    #[test]
    fn latches_that_change_state_stay() {
        each_flavour(|reset, init| {
            // Loads the other constant after the first cycle.
            let g = one_latch(reset, init, |g, _, _| g.constant(!init));
            assert!(fold_constant_latches(&g).is_none(), "{reset:?} init {init}");
            // Toggles every cycle.
            let g = one_latch(reset, init, |_, q, _| !q);
            assert!(fold_constant_latches(&g).is_none(), "{reset:?} init {init}");
            // Samples the input.
            let g = one_latch(reset, init, |_, _, x| x);
            assert!(fold_constant_latches(&g).is_none(), "{reset:?} init {init}");
        });
    }

    #[test]
    fn folding_keeps_the_other_latches_and_drops_dead_cones() {
        use synthir_netlist::ResetKind;
        // `a` holds false; its reset cone `x0 & x1` is read by nothing else
        // and goes with it. `t` toggles and stays.
        let mut g = Aig::new("t");
        let x = g.add_input_port("x", 2);
        let a = g.add_latch(ResetKind::Sync, false);
        let t = g.add_latch(ResetKind::None, true);
        let rst = g.and(x[0], x[1]);
        g.set_latch_next(a, a, rst);
        g.set_latch_next(t, !t, AigLit::FALSE);
        let y = g.and(a, t);
        let z = g.or(t, x[0]);
        g.add_output_port("y", &[y, z]);
        assert_eq!(g.and_count(), 3);
        let r = fold_constant_latches(&g).expect("`a` folds");
        assert_eq!(r.aig.latches().len(), 1);
        assert!(r.aig.latches()[0].init);
        assert_eq!(r.aig.output_ports()[0].lits[0], AigLit::FALSE);
        assert_eq!(r.aig.and_count(), 1, "only `t | x0` is left");
    }

    #[test]
    fn rewrite_preserves_interface_and_latches() {
        use synthir_netlist::ResetKind;
        let mut g = Aig::new("t");
        let d = g.add_input_port("d", 2);
        let rst = g.add_input_port("rst", 1)[0];
        let q = g.add_latch(ResetKind::Sync, true);
        let nx = g.and(d[0], d[1]);
        g.set_latch_next(q, nx, rst);
        g.add_output_port("q", &[q]);
        let r = rewrite(&g, &[]);
        assert_eq!(r.aig.input_ports().len(), 2);
        assert_eq!(r.aig.input_ports()[0].name, "d");
        assert_eq!(r.aig.latches().len(), 1);
        let l = r.aig.latches()[0];
        assert_eq!(l.reset, ResetKind::Sync);
        assert!(l.init);
    }
}
