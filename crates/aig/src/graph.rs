//! The And-Inverter Graph: literals, nodes, and hash-consed construction.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use synthir_netlist::ResetKind;

/// A multiply-fold hasher (FxHash-style) for the hot structural-hashing
/// table: the keys are two packed `u32`s, where SipHash's per-call setup
/// cost dominates. Not DoS-resistant — fine for compiler-internal maps.
#[derive(Default)]
pub struct FxHasher(u64);

const FX_SEED: u64 = 0x51_7C_C1_B7_27_22_0A_95;

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(FX_SEED);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// A `HashMap` using [`FxHasher`].
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// An AIG literal: a node index plus a complement bit packed into a `u32`.
///
/// Literal `0` is constant false and literal `1` constant true (the
/// complemented edge to node 0). Negation is free — it flips the low bit —
/// which is what makes the AIG the cheapest IR to normalize: inverters and
/// all the NAND/NOR/XNOR/AOI gate flavours vanish into edge attributes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AigLit(pub(crate) u32);

impl AigLit {
    /// Constant false: the uncomplemented edge to node 0.
    pub const FALSE: AigLit = AigLit(0);
    /// Constant true: the complemented edge to node 0.
    pub const TRUE: AigLit = AigLit(1);

    /// Builds a literal from a node index and a complement flag.
    pub fn new(node: u32, complemented: bool) -> AigLit {
        AigLit(node << 1 | u32::from(complemented))
    }

    /// The index of the node this literal points at.
    pub fn node(self) -> u32 {
        self.0 >> 1
    }

    /// Whether the edge is complemented.
    pub fn is_complemented(self) -> bool {
        self.0 & 1 != 0
    }

    /// This literal with the complement bit set to `c`.
    pub fn with_complement(self, c: bool) -> AigLit {
        AigLit(self.0 & !1 | u32::from(c))
    }

    /// Whether this is one of the two constant literals.
    pub fn is_constant(self) -> bool {
        self.node() == 0
    }

    /// The constant value, if this is a constant literal.
    pub fn as_constant(self) -> Option<bool> {
        (self.node() == 0).then_some(self.is_complemented())
    }

    /// Translates this literal into another graph through a node map, where
    /// `map[node]` is the literal that node's plain literal became.
    pub fn translate(self, map: &[AigLit]) -> AigLit {
        let m = map[self.node() as usize];
        AigLit(m.0 ^ u32::from(self.is_complemented()))
    }
}

impl std::ops::Not for AigLit {
    type Output = AigLit;
    fn not(self) -> AigLit {
        AigLit(self.0 ^ 1)
    }
}

impl std::fmt::Debug for AigLit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_complemented() {
            write!(f, "!n{}", self.node())
        } else {
            write!(f, "n{}", self.node())
        }
    }
}

/// One AIG node. Node 0 is always [`AigNode::Const0`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AigNode {
    /// The constant-false source (node 0 only).
    Const0,
    /// A primary-input bit.
    Input,
    /// A latch (flop) output; the latch's next-state function and reset
    /// semantics live in the [`Latch`] entry this index points at.
    Latch(u32),
    /// The conjunction of two literals.
    And(AigLit, AigLit),
}

/// A sequential element: the AIG analogue of a netlist `Dff`, keeping the
/// reset flavour and init value intact so a round-trip through the AIG
/// preserves flop semantics exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Latch {
    /// The node holding the latch's output.
    pub output: u32,
    /// Next-state function (the D pin), set via [`Aig::set_latch_next`]
    /// once the fanin cone exists (latch outputs may feed their own cone).
    pub next: AigLit,
    /// Reset behaviour, mirrored from the netlist flop.
    pub reset: ResetKind,
    /// The reset pin ([`AigLit::FALSE`] when `reset` is [`ResetKind::None`]).
    pub reset_lit: AigLit,
    /// Reset / power-up value.
    pub init: bool,
}

/// A named port: the bus structure a netlist round-trip must preserve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AigPort {
    /// Port name.
    pub name: String,
    /// The port's bits, LSB first. Input ports hold uncomplemented input
    /// node literals; output ports hold arbitrary literals.
    pub lits: Vec<AigLit>,
}

/// A structurally-hashed And-Inverter Graph.
///
/// Construction *is* optimization: [`Aig::and`] folds constants, applies
/// one- and two-level simplification rules (idempotence, contradiction,
/// subsumption, substitution, resolution), and hash-conses structurally
/// identical nodes, so the graph never contains two ANDs with the same
/// (normalized) fanins. Nodes live in a flat `Vec` in topological order —
/// every AND's fanins precede it — which makes downstream passes
/// (simulation, CNF encoding, rewriting, netlist export) single linear
/// sweeps with no traversal bookkeeping.
#[derive(Clone, Debug, Default)]
pub struct Aig {
    name: String,
    nodes: Vec<AigNode>,
    strash: FxMap<(AigLit, AigLit), u32>,
    inputs: Vec<u32>,
    input_ports: Vec<AigPort>,
    output_ports: Vec<AigPort>,
    latches: Vec<Latch>,
}

impl Aig {
    /// Creates an empty AIG named `name` (containing only the constant
    /// node).
    pub fn new(name: impl Into<String>) -> Aig {
        Aig {
            name: name.into(),
            nodes: vec![AigNode::Const0],
            ..Default::default()
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All nodes, index order (node 0 is the constant).
    pub fn nodes(&self) -> &[AigNode] {
        &self.nodes
    }

    /// Total node count (constant + inputs + latches + ANDs).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of AND nodes — the structural size measure.
    pub fn and_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, AigNode::And(..)))
            .count()
    }

    /// The primary-input nodes, creation order.
    pub fn input_nodes(&self) -> &[u32] {
        &self.inputs
    }

    /// Named input ports.
    pub fn input_ports(&self) -> &[AigPort] {
        &self.input_ports
    }

    /// Named output ports.
    pub fn output_ports(&self) -> &[AigPort] {
        &self.output_ports
    }

    /// The latches.
    pub fn latches(&self) -> &[Latch] {
        &self.latches
    }

    /// Creates a fresh primary-input bit outside any port (used by
    /// cone-local imports where seeded nets become free inputs).
    pub fn add_input(&mut self) -> AigLit {
        let id = self.push(AigNode::Input);
        self.inputs.push(id);
        AigLit::new(id, false)
    }

    /// Declares a named input port of `width` bits; returns its literals
    /// (LSB first).
    pub fn add_input_port(&mut self, name: impl Into<String>, width: usize) -> Vec<AigLit> {
        let lits: Vec<AigLit> = (0..width).map(|_| self.add_input()).collect();
        self.input_ports.push(AigPort {
            name: name.into(),
            lits: lits.clone(),
        });
        lits
    }

    /// Declares a named output port over existing literals (LSB first).
    pub fn add_output_port(&mut self, name: impl Into<String>, lits: &[AigLit]) {
        self.output_ports.push(AigPort {
            name: name.into(),
            lits: lits.to_vec(),
        });
    }

    /// Creates a latch with the given reset flavour and init value; the
    /// next-state and reset literals are wired later with
    /// [`Aig::set_latch_next`] (latch cones may be cyclic through the latch
    /// itself). Returns the latch's output literal.
    pub fn add_latch(&mut self, reset: ResetKind, init: bool) -> AigLit {
        let idx = self.latches.len() as u32;
        let id = self.push(AigNode::Latch(idx));
        self.latches.push(Latch {
            output: id,
            next: AigLit::FALSE,
            reset,
            reset_lit: AigLit::FALSE,
            init,
        });
        AigLit::new(id, false)
    }

    /// Wires a latch's next-state and reset literals.
    ///
    /// # Panics
    ///
    /// Panics if `output` is not an uncomplemented latch literal.
    pub fn set_latch_next(&mut self, output: AigLit, next: AigLit, reset_lit: AigLit) {
        assert!(!output.is_complemented(), "latch output must be plain");
        let AigNode::Latch(idx) = self.nodes[output.node() as usize] else {
            panic!("set_latch_next on a non-latch node");
        };
        let l = &mut self.latches[idx as usize];
        l.next = next;
        l.reset_lit = reset_lit;
    }

    /// Copies the live AND nodes of `src` into this graph, in `src`'s
    /// topological order — the one copy loop behind rebuild-style passes and
    /// miter construction.
    ///
    /// `map[node]` is the literal of this graph that `src`'s node became: the
    /// caller seeds every source (constant, inputs, latch outputs) the live
    /// ANDs reach, and the copy fills in each live AND. `and(dst, map, node,
    /// a, b)` builds AND `node` from its translated fanins — plain
    /// [`Aig::and`], or a resynthesis or substitution step. Nodes with
    /// `live[node]` unset are skipped and keep their seed.
    pub fn copy_ands(
        &mut self,
        src: &Aig,
        live: &[bool],
        map: &mut [AigLit],
        mut and: impl FnMut(&mut Aig, &[AigLit], usize, AigLit, AigLit) -> AigLit,
    ) {
        for (i, node) in src.nodes.iter().enumerate() {
            if let AigNode::And(a, b) = *node {
                if live[i] {
                    let (na, nb) = (a.translate(map), b.translate(map));
                    map[i] = and(self, map, i, na, nb);
                }
            }
        }
    }

    fn push(&mut self, n: AigNode) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(n);
        id
    }

    /// The conjunction of two literals, with constant folding, one- and
    /// two-level rewriting, and structural hashing applied at construction
    /// time.
    pub fn and(&mut self, a: AigLit, b: AigLit) -> AigLit {
        // Normalize operand order so permuted duplicates hash alike.
        let (a, b) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        // Level-one rules.
        if a == AigLit::FALSE || a == !b {
            return AigLit::FALSE;
        }
        if a == AigLit::TRUE {
            return b;
        }
        if a == b {
            return a;
        }
        if let Some(l) = self.two_level(a, b) {
            return l;
        }
        if let Some(&id) = self.strash.get(&(a, b)) {
            return AigLit::new(id, false);
        }
        let id = self.push(AigNode::And(a, b));
        self.strash.insert((a, b), id);
        AigLit::new(id, false)
    }

    /// The fanins of a literal's node, if it is an AND.
    fn fanins(&self, l: AigLit) -> Option<(AigLit, AigLit)> {
        match self.nodes[l.node() as usize] {
            AigNode::And(x, y) => Some((x, y)),
            _ => None,
        }
    }

    /// Two-level simplification of `and(a, b)`: inspects the fanins of AND
    /// operands (one level below) for contradiction, idempotence,
    /// subsumption, substitution, and resolution — the rules that make the
    /// hash-consed AIG strictly stronger than gate-level structural
    /// hashing. Returns `Some` when the conjunction reduces.
    fn two_level(&mut self, a: AigLit, b: AigLit) -> Option<AigLit> {
        let fa = self.fanins(a);
        let fb = self.fanins(b);
        // One operand is a plain AND.
        for (and_lit, other) in [(a, b), (b, a)] {
            if and_lit.is_complemented() {
                continue;
            }
            if let Some((x, y)) = self.fanins(and_lit) {
                if other == !x || other == !y {
                    return Some(AigLit::FALSE); // contradiction
                }
                if other == x || other == y {
                    return Some(and_lit); // idempotence
                }
            }
        }
        // One operand is a complemented AND.
        for (nand_lit, other) in [(a, b), (b, a)] {
            if !nand_lit.is_complemented() {
                continue;
            }
            if let Some((x, y)) = self.fanins(nand_lit) {
                if other == !x || other == !y {
                    return Some(other); // subsumption
                }
                // Substitution: x & !(x & y) == x & !y.
                if other == x {
                    return Some(self.and(other, !y));
                }
                if other == y {
                    return Some(self.and(other, !x));
                }
            }
        }
        // Both plain ANDs: cross-fanin contradiction.
        if !a.is_complemented() && !b.is_complemented() {
            if let (Some((a0, a1)), Some((b0, b1))) = (fa, fb) {
                if a0 == !b0 || a0 == !b1 || a1 == !b0 || a1 == !b1 {
                    return Some(AigLit::FALSE);
                }
            }
        }
        // Plain AND times complemented AND (both orientations).
        for (p, q) in [(a, b), (b, a)] {
            if p.is_complemented() || !q.is_complemented() {
                continue;
            }
            if let (Some((p0, p1)), Some((q0, q1))) = (self.fanins(p), self.fanins(q)) {
                // Redundancy: (p0 & p1) & !(q0 & q1) == p0 & p1 when some
                // q fanin is the complement of some p fanin.
                if q0 == !p0 || q0 == !p1 || q1 == !p0 || q1 == !p1 {
                    return Some(p);
                }
                // Substitution: (p0 & p1) & !(p0 & y) == p0 & p1 & !y.
                if q0 == p0 || q0 == p1 {
                    return Some(self.and(p, !q1));
                }
                if q1 == p0 || q1 == p1 {
                    return Some(self.and(p, !q0));
                }
            }
        }
        // Both complemented ANDs: resolution.
        if a.is_complemented() && b.is_complemented() {
            if let (Some((a0, a1)), Some((b0, b1))) = (fa, fb) {
                if (a0 == b0 && a1 == !b1) || (a0 == b1 && a1 == !b0) {
                    return Some(!a0);
                }
                if (a1 == b1 && a0 == !b0) || (a1 == b0 && a0 == !b1) {
                    return Some(!a1);
                }
            }
        }
        None
    }

    /// `a | b` (via De Morgan).
    pub fn or(&mut self, a: AigLit, b: AigLit) -> AigLit {
        !self.and(!a, !b)
    }

    /// `a ^ b` (three ANDs at most, fewer after folding).
    pub fn xor(&mut self, a: AigLit, b: AigLit) -> AigLit {
        let l = self.and(a, !b);
        let r = self.and(!a, b);
        self.or(l, r)
    }

    /// `sel ? t : e`.
    pub fn mux(&mut self, sel: AigLit, t: AigLit, e: AigLit) -> AigLit {
        let th = self.and(sel, t);
        let el = self.and(!sel, e);
        self.or(th, el)
    }

    /// The conjunction of a slice (true for the empty slice).
    pub fn and_all(&mut self, lits: &[AigLit]) -> AigLit {
        lits.iter().fold(AigLit::TRUE, |acc, &l| self.and(acc, l))
    }

    /// The disjunction of a slice (false for the empty slice).
    pub fn or_all(&mut self, lits: &[AigLit]) -> AigLit {
        lits.iter().fold(AigLit::FALSE, |acc, &l| self.or(acc, l))
    }

    /// The constant literal for `v`.
    pub fn constant(&self, v: bool) -> AigLit {
        if v {
            AigLit::TRUE
        } else {
            AigLit::FALSE
        }
    }

    /// Bit-parallel simulation: evaluates every node over 64 patterns at
    /// once. `source` supplies the word for each input/latch node (by node
    /// index); returns one word per node, index-aligned with
    /// [`Aig::nodes`].
    pub fn simulate(&self, mut source: impl FnMut(u32) -> u64) -> Vec<u64> {
        let mut vals = vec![0u64; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            vals[i] = match *n {
                AigNode::Const0 => 0,
                AigNode::Input | AigNode::Latch(_) => source(i as u32),
                AigNode::And(a, b) => lit_word(&vals, a) & lit_word(&vals, b),
            };
        }
        vals
    }

    /// Reads a literal out of a [`Aig::simulate`] result.
    pub fn lit_value(vals: &[u64], l: AigLit) -> u64 {
        lit_word(vals, l)
    }

    /// Liveness marks: the nodes transitively observable from the output
    /// ports (plus `extra` roots), where reaching a latch pulls in its
    /// next-state and reset cones — the fixpoint a dangling-node sweep
    /// keeps. Dead latches (observing nothing and observed by nothing) are
    /// *not* marked, mirroring `Netlist::sweep`.
    pub fn live_marks(&self, extra: &[AigLit]) -> Vec<bool> {
        self.live_marks_cut(extra, |_| false)
    }

    /// [`Aig::live_marks`] where the latches `cut` selects (by latch index)
    /// keep only their output node alive, not their next-state and reset
    /// cones.
    pub(crate) fn live_marks_cut(
        &self,
        extra: &[AigLit],
        cut: impl Fn(usize) -> bool,
    ) -> Vec<bool> {
        let mut mark = vec![false; self.nodes.len()];
        let mut stack: Vec<u32> = Vec::new();
        let seed = |mark: &mut Vec<bool>, stack: &mut Vec<u32>, l: AigLit| {
            if !mark[l.node() as usize] {
                mark[l.node() as usize] = true;
                stack.push(l.node());
            }
        };
        for p in &self.output_ports {
            for &l in &p.lits {
                seed(&mut mark, &mut stack, l);
            }
        }
        for &l in extra {
            seed(&mut mark, &mut stack, l);
        }
        while let Some(n) = stack.pop() {
            match self.nodes[n as usize] {
                AigNode::And(a, b) => {
                    for f in [a, b] {
                        seed(&mut mark, &mut stack, f);
                    }
                }
                AigNode::Latch(idx) if !cut(idx as usize) => {
                    let l = self.latches[idx as usize];
                    seed(&mut mark, &mut stack, l.next);
                    seed(&mut mark, &mut stack, l.reset_lit);
                }
                AigNode::Const0 | AigNode::Input | AigNode::Latch(_) => {}
            }
        }
        mark
    }
}

/// The 64-pattern word of a literal given per-node simulation values.
fn lit_word(vals: &[u64], l: AigLit) -> u64 {
    let v = vals[l.node() as usize];
    if l.is_complemented() {
        !v
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding() {
        let l = AigLit::new(5, true);
        assert_eq!(l.node(), 5);
        assert!(l.is_complemented());
        assert_eq!((!l).node(), 5);
        assert!(!(!l).is_complemented());
        assert_eq!(AigLit::FALSE.as_constant(), Some(false));
        assert_eq!(AigLit::TRUE.as_constant(), Some(true));
        assert_eq!(l.as_constant(), None);
        assert_eq!(!AigLit::FALSE, AigLit::TRUE);
    }

    #[test]
    fn constant_folding_at_construction() {
        let mut g = Aig::new("t");
        let a = g.add_input();
        assert_eq!(g.and(a, AigLit::FALSE), AigLit::FALSE);
        assert_eq!(g.and(a, AigLit::TRUE), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, !a), AigLit::FALSE);
        assert_eq!(g.and_count(), 0);
    }

    #[test]
    fn structural_hashing_dedups_permutations() {
        let mut g = Aig::new("t");
        let a = g.add_input();
        let b = g.add_input();
        let x = g.and(a, b);
        let y = g.and(b, a);
        assert_eq!(x, y);
        assert_eq!(g.and_count(), 1);
    }

    /// Every construction rule must be functionally sound: compare
    /// `and(a, b)` against the brute-force conjunction over all input
    /// minterms, for every pair of literals in a randomly grown graph.
    #[test]
    fn construction_rules_are_sound() {
        let mut state = 0x1234_5678_9ABC_DEFFu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..50 {
            let mut g = Aig::new("t");
            let inputs: Vec<AigLit> = (0..4).map(|_| g.add_input()).collect();
            // Patterns: input i gets the standard truth-table word.
            let masks = [
                0xAAAA_AAAA_AAAA_AAAAu64,
                0xCCCC_CCCC_CCCC_CCCC,
                0xF0F0_F0F0_F0F0_F0F0,
                0xFF00_FF00_FF00_FF00,
            ];
            let mut lits: Vec<AigLit> = vec![AigLit::FALSE, AigLit::TRUE];
            lits.extend(&inputs);
            // Grow a random graph, checking soundness of every and().
            for _ in 0..60 {
                let a = lits[(rng() % lits.len() as u64) as usize];
                let b = lits[(rng() % lits.len() as u64) as usize];
                let (a, b) = (
                    a.with_complement(a.is_complemented() ^ (rng() & 1 != 0)),
                    b.with_complement(b.is_complemented() ^ (rng() & 1 != 0)),
                );
                let y = g.and(a, b);
                let vals = g.simulate(|n| {
                    let i = g.input_nodes().iter().position(|&x| x == n).unwrap();
                    masks[i]
                });
                let got = Aig::lit_value(&vals, y);
                let want = Aig::lit_value(&vals, a) & Aig::lit_value(&vals, b);
                assert_eq!(got, want, "round {round}: and({a:?}, {b:?}) = {y:?}");
                lits.push(y);
            }
        }
    }

    #[test]
    fn two_level_rules_reduce() {
        let mut g = Aig::new("t");
        let a = g.add_input();
        let b = g.add_input();
        let ab = g.and(a, b);
        // Idempotence: (a & b) & a == a & b.
        assert_eq!(g.and(ab, a), ab);
        // Contradiction: (a & b) & !a == 0.
        assert_eq!(g.and(ab, !a), AigLit::FALSE);
        // Subsumption: !(a & b) & !a == !a.
        assert_eq!(g.and(!ab, !a), !a);
        // Substitution: !(a & b) & a == a & !b.
        let anb = g.and(a, !b);
        assert_eq!(g.and(!ab, a), anb);
        // Resolution: !(a & b) & !(a & !b) == !a.
        let an_b = g.and(a, !b);
        assert_eq!(g.and(!ab, !an_b), !a);
    }

    #[test]
    fn xor_mux_or_semantics() {
        let mut g = Aig::new("t");
        let a = g.add_input();
        let b = g.add_input();
        let s = g.add_input();
        let o = g.or(a, b);
        let x = g.xor(a, b);
        let m = g.mux(s, a, b);
        let masks = [
            0xAAAA_AAAA_AAAA_AAAAu64,
            0xCCCC_CCCC_CCCC_CCCC,
            0xF0F0_F0F0_F0F0_F0F0,
        ];
        let vals = g.simulate(|n| {
            let i = g.input_nodes().iter().position(|&x| x == n).unwrap();
            masks[i]
        });
        assert_eq!(Aig::lit_value(&vals, o), masks[0] | masks[1]);
        assert_eq!(Aig::lit_value(&vals, x), masks[0] ^ masks[1]);
        assert_eq!(
            Aig::lit_value(&vals, m),
            masks[2] & masks[0] | !masks[2] & masks[1]
        );
    }

    #[test]
    fn latches_round_their_metadata() {
        let mut g = Aig::new("t");
        let d = g.add_input();
        let rst = g.add_input();
        let q = g.add_latch(ResetKind::Sync, true);
        g.set_latch_next(q, d, rst);
        let l = g.latches()[0];
        assert_eq!(l.next, d);
        assert_eq!(l.reset_lit, rst);
        assert_eq!(l.reset, ResetKind::Sync);
        assert!(l.init);
    }
}
