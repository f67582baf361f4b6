//! Cone compilation: a combinational cone resolved once to a straight-line
//! program over slots, then simulated block by block.
//!
//! `Cone` is the one place where the synthesis passes compile a cone to
//! evaluate it: resynthesis (one per root), FSM re-encoding (one over every
//! root it tracks), state propagation (an annotated group's forward cone)
//! and backward retiming (a flop bank's D cones).
//!
//! Slots number the values a cone program computes: the support nets
//! first (`0..k`), then the constants 0 and 1 (`k`, `k + 1`), then the
//! cone's gates in topological order, each with its inputs resolved to
//! slots. Support nets are leaves: the walk never expands them, even where
//! a gate drives one, so a caller can cut a cone at any nets it likes.
//! Nothing here scales with the size of the netlist.

use std::collections::HashMap;
use synthir_logic::{BitVec, TruthTable};
use synthir_netlist::{topo, GateKind, NetId, Netlist};

/// How many 64-pattern words [`Cone::simulate`] evaluates per pass.
const BLOCK: usize = 16;

/// One gate of a [`Cone`] program: never a constant or a flop.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Op {
    pub(crate) kind: GateKind,
    /// The slots of the gate's inputs; the first `kind.arity()` are used.
    pub(crate) ins: [usize; 4],
    /// The net the gate drives.
    pub(crate) out: NetId,
}

/// A combinational cone of one or more roots, compiled to a straight-line
/// program over slots (see the [module docs](self)).
#[derive(Debug)]
pub(crate) struct Cone {
    /// The support nets, in slot order.
    pub(crate) support: Vec<NetId>,
    /// The gates in topological order; gate `j` computes slot
    /// `support.len() + 2 + j`.
    pub(crate) ops: Vec<Op>,
    /// The slot of each root.
    pub(crate) roots: Vec<usize>,
}

/// What the walk knows about a net: support net `i`, a gate output whose
/// fan-in is still being walked, or the output of the program's `j`-th
/// gate.
#[derive(Clone, Copy)]
enum Node {
    Leaf(usize),
    Open,
    Gate(usize),
}

impl Cone {
    /// The cone of `root` over its whole combinational support (the sources
    /// it reads, sorted by id), or `None` past `max_support` support nets:
    /// the support walk ([`topo::comb_support_within`]) stops at the first
    /// source past the limit, so refusing a wide cone is cheap.
    pub(crate) fn collapse(nl: &Netlist, root: NetId, max_support: usize) -> Option<Cone> {
        let support = topo::comb_support_within(nl, root, max_support)?;
        Some(Cone::new(nl, &[root], &support))
    }

    /// The cone of `roots` over `support`, one program for all of them. A
    /// root may be a support net or a constant net, and may be listed more
    /// than once. The gates are in the order [`topo::cone_gates`] lists
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if the cone reads a source outside `support` (other than a
    /// constant), naming that net, or holds a combinational cycle.
    pub(crate) fn new(nl: &Netlist, roots: &[NetId], support: &[NetId]) -> Cone {
        let k = support.len();
        let mut nodes = HashMap::new();
        nodes.extend(support.iter().enumerate().map(|(i, &s)| (s, Node::Leaf(i))));
        // Depth-first over the fan-in; the post-order is topological.
        let mut gates = Vec::new();
        let mut stack: Vec<_> = roots.iter().rev().map(|&r| (r, false)).collect();
        while let Some((n, expanded)) = stack.pop() {
            if expanded {
                nodes.insert(n, Node::Gate(gates.len()));
                gates.push(nl.gate(nl.driver(n).expect("expanded nets are driven")));
                continue;
            }
            match nodes.get(&n) {
                // Everything above an open net's entry on the stack lies in
                // its fan-in.
                Some(Node::Open) => panic!("combinational cycle through {n:?}"),
                Some(_) => continue,
                None => {}
            }
            match nl.driver(n).map(|g| nl.gate(g)) {
                Some(g) if g.kind.is_constant() => {}
                Some(g) if !g.kind.is_sequential() => {
                    nodes.insert(n, Node::Open);
                    stack.push((n, true));
                    stack.extend(g.inputs.iter().map(|&i| (i, false)));
                }
                _ => panic!("cone of {roots:?} depends on {n:?}, which is not in the support"),
            }
        }
        let slot = |n: NetId| match nodes.get(&n) {
            Some(&Node::Leaf(i)) => i,
            Some(&Node::Gate(j)) => k + 2 + j,
            _ => k + usize::from(nl.as_constant(n).expect("the walk resolved every net")),
        };
        let ops = gates.iter().map(|gate| {
            let ins = std::array::from_fn(|p| gate.inputs.get(p).map_or(0, |&i| slot(i)));
            let (kind, out) = (gate.kind, gate.output);
            Op { kind, ins, out }
        });
        Cone {
            ops: ops.collect(),
            roots: roots.iter().map(|&r| slot(r)).collect(),
            support: support.to_vec(),
        }
    }

    /// Simulates the program over `n_words` 64-pattern words, a block of
    /// words at a time, gate by gate ([`GateKind::eval_block`]), so each
    /// gate's kind is dispatched once per block. `source(i, w)` supplies
    /// word `w` of support net `i`; `sink(r, w, word)` receives word `w` of
    /// root `r`.
    pub(crate) fn simulate(
        &self,
        n_words: usize,
        mut source: impl FnMut(usize, usize) -> u64,
        mut sink: impl FnMut(usize, usize, u64),
    ) {
        let k = self.support.len();
        let mut vals = vec![[0u64; BLOCK]; k + 2 + self.ops.len()];
        vals[k + 1] = [u64::MAX; BLOCK];
        for first in (0..n_words).step_by(BLOCK) {
            let len = BLOCK.min(n_words - first);
            for (i, v) in vals[..k].iter_mut().enumerate() {
                for (b, word) in v[..len].iter_mut().enumerate() {
                    *word = source(i, first + b);
                }
            }
            for (j, op) in self.ops.iter().enumerate() {
                let pins = op.ins.map(|s| vals[s]);
                vals[k + 2 + j] = op.kind.eval_block(&pins[..op.kind.arity()]);
            }
            for (r, &s) in self.roots.iter().enumerate() {
                for (b, &word) in vals[s][..len].iter().enumerate() {
                    sink(r, first + b, word);
                }
            }
        }
    }

    /// The function of every root over the support: variable `i` of each
    /// table is `support[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the support has more than 24 nets.
    pub(crate) fn truth_tables(&self) -> Vec<TruthTable> {
        let k = self.support.len();
        assert!(k <= 24, "cone support too large to enumerate");
        let n_words = (1usize << k).div_ceil(64);
        let mut words = vec![Vec::with_capacity(n_words); self.roots.len()];
        self.simulate(n_words, variable_word, |r, _, word| words[r].push(word));
        let table = |w| TruthTable::from_bits(k, BitVec::from_words(1 << k, w));
        words.into_iter().map(table).collect()
    }

    /// The function of the first root.
    pub(crate) fn truth_table(&self) -> TruthTable {
        self.truth_tables().swap_remove(0)
    }
}

/// Word `w` of the 64-pattern simulation vector of variable `i`: bit `b`
/// is bit `i` of the pattern index `w * 64 + b`.
pub(crate) fn variable_word(i: usize, w: usize) -> u64 {
    const LOW: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    match LOW.get(i) {
        Some(&word) => word,
        None if w >> (i - 6) & 1 != 0 => u64::MAX,
        None => 0,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use synthir_netlist::{topo, ResetKind};

    /// The whole-netlist formulation the cone programs replaced: one value
    /// per net of the netlist, every combinational gate evaluated in a
    /// whole-netlist topological order, word by word. Support nets are
    /// free variables, whatever drives them; other sources read as 0.
    fn cone_functions_oracle(nl: &Netlist, roots: &[NetId], support: &[NetId]) -> Vec<TruthTable> {
        let order = topo::topological_order(nl).unwrap();
        let n_patterns = 1usize << support.len();
        let mut bits = vec![synthir_logic::BitVec::zeros(n_patterns); roots.len()];
        let mut vals = vec![0u64; nl.num_nets()];
        for w in 0..n_patterns.div_ceil(64) {
            for (i, &s) in support.iter().enumerate() {
                let mut word = 0u64;
                for b in 0..64 {
                    let p = w * 64 + b;
                    if p < n_patterns && p >> i & 1 != 0 {
                        word |= 1 << b;
                    }
                }
                vals[s.index()] = word;
            }
            let mut ins: Vec<u64> = Vec::with_capacity(4);
            for &gid in &order {
                let g = nl.gate(gid);
                if g.kind.is_sequential() || support.contains(&g.output) {
                    continue;
                }
                ins.clear();
                ins.extend(g.inputs.iter().map(|i| vals[i.index()]));
                vals[g.output.index()] = g.kind.eval_words(&ins);
            }
            for (bv, r) in bits.iter_mut().zip(roots) {
                let rootw = vals[r.index()];
                for b in 0..64 {
                    let p = w * 64 + b;
                    if p < n_patterns && rootw >> b & 1 != 0 {
                        bv.set(p, true);
                    }
                }
            }
        }
        let k = support.len();
        bits.into_iter()
            .map(|b| TruthTable::from_bits(k, b))
            .collect()
    }

    /// A deterministic SplitMix64 stream for the random-netlist tests.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// A random netlist with the shapes the cone routines must get right:
    /// constant and duplicated gate inputs (`And2(a, a)`), flops both in
    /// the fan-in (fed by inputs or by logic) and reading logic, internal
    /// nets that are also output ports, fanout shared across cones, and —
    /// on odd seeds — dead gates left unswept by a rewiring, as a rebuild
    /// leaves them.
    pub(crate) fn random_netlist(seed: u64) -> Netlist {
        let mut rng = Rng(seed);
        let mut nl = Netlist::new("rand");
        let n_in = 3 + rng.below(8);
        let mut pool = nl.add_input("x", n_in);
        let consts = [nl.const0(), nl.const1()];
        let kinds: Vec<GateKind> = GateKind::all_combinational()
            .into_iter()
            .filter(|k| k.arity() > 0)
            .collect();
        let flop = GateKind::Dff {
            reset: ResetKind::None,
            init: false,
        };
        for batch in 0..2 {
            // Flops whose outputs the next batch of logic reads.
            for _ in 0..rng.below(3) {
                let d = pool[rng.below(pool.len())];
                pool.push(nl.add_gate(flop, &[d]));
            }
            for _ in 0..6 + rng.below(20 + 10 * batch) {
                let kind = kinds[rng.below(kinds.len())];
                let mut ins: Vec<NetId> = Vec::with_capacity(kind.arity());
                for _ in 0..kind.arity() {
                    let recent = pool.len().saturating_sub(6);
                    let n = match rng.below(10) {
                        0 => consts[rng.below(2)],
                        1 if !ins.is_empty() => ins[rng.below(ins.len())],
                        2..=5 => pool[recent + rng.below(pool.len() - recent)],
                        _ => pool[rng.below(pool.len())],
                    };
                    ins.push(n);
                }
                pool.push(nl.add_gate(kind, &ins));
            }
        }
        let logic = &pool[n_in..];
        for i in 0..1 + rng.below(3) {
            let d = logic[rng.below(logic.len())];
            let q = nl.add_gate(flop, &[d]);
            nl.add_output(format!("q{i}"), &[q]);
        }
        for i in 0..1 + rng.below(4) {
            let y = logic[rng.below(logic.len())];
            nl.add_output(format!("y{i}"), &[y]);
        }
        nl.add_output("last", &[*pool.last().unwrap()]);
        if seed % 2 == 1 {
            // Rewire one internal net to an older net: its driver (and
            // maybe more) stays in the netlist, dead, until a sweep.
            let j = n_in + rng.below(pool.len() - n_in);
            nl.replace_net_uses(pool[j], pool[rng.below(j)]);
        }
        nl
    }

    #[test]
    fn cone_local_simulation_matches_whole_netlist_oracle() {
        let oracle = |nl: &Netlist, root: NetId, support: &[NetId]| {
            cone_functions_oracle(nl, &[root], support).swap_remove(0)
        };
        let (mut checked, mut multiword, mut multi_root, mut cut) = (0, 0, 0, 0);
        for seed in 0..200u64 {
            let nl = random_netlist(seed);
            let sources: Vec<NetId> = (0..nl.num_nets() as u32)
                .map(NetId)
                .filter(|&n| nl.driver(n).is_none_or(|g| nl.gate(g).kind.is_sequential()))
                .collect();
            // Every net is a root once: the constant nets and the sources
            // (a root that is its own support) as well as the logic.
            for root in (0..nl.num_nets() as u32).map(NetId) {
                let support = topo::comb_support(&nl, root);
                if support.len() > 12 {
                    continue;
                }
                let tt = Cone::new(&nl, &[root], &support).truth_table();
                assert_eq!(tt, oracle(&nl, root, &support), "seed {seed} root {root:?}");
                checked += 1;
                if support.len() > 6 {
                    multiword += 1;
                }
                if support.len() == 12 {
                    continue;
                }
                // A reordered superset of the support: one extra source the
                // cone ignores, variables in reverse order.
                if let Some(&extra) = sources.iter().find(|s| !support.contains(s)) {
                    let mut wider = support.clone();
                    wider.push(extra);
                    wider.reverse();
                    assert_eq!(
                        Cone::new(&nl, &[root], &wider).truth_table(),
                        oracle(&nl, root, &wider),
                        "seed {seed} root {root:?} over {wider:?}"
                    );
                }
                // A gate-driven net of the cone added to the support: it is
                // a free variable, and the walk must not expand it.
                let gates = topo::cone_gates(&nl, root);
                if let Some(&g) = gates.get(seed as usize % gates.len().max(1)) {
                    let inner = nl.gate(g).output;
                    let mut with_cut = support.clone();
                    with_cut.insert(seed as usize % (support.len() + 1), inner);
                    let tt = Cone::new(&nl, &[root], &with_cut).truth_table();
                    assert_eq!(
                        tt,
                        oracle(&nl, root, &with_cut),
                        "seed {seed} root {root:?} cut at {inner:?}"
                    );
                    let var = with_cut.iter().position(|&n| n == inner).unwrap();
                    if tt.support().contains(&var) {
                        cut += 1; // the root reads the cut net as a variable
                    }
                }
            }
            // Multi-root cones: a window of consecutive nets as roots,
            // over their joint support plus, on odd windows, one
            // gate-driven net of theirs.
            let nets: Vec<NetId> = (0..nl.num_nets() as u32).map(NetId).collect();
            for (w, roots) in nets.chunks(3).enumerate() {
                let mut support: Vec<NetId> = roots
                    .iter()
                    .flat_map(|&r| topo::comb_support(&nl, r))
                    .collect();
                support.sort();
                support.dedup();
                if w % 2 == 1 {
                    let inner = roots.iter().find_map(|&r| topo::cone_gates(&nl, r).pop());
                    support.extend(inner.map(|g| nl.gate(g).output));
                }
                if support.len() > 12 {
                    continue;
                }
                let mut doubled = roots.to_vec();
                doubled.push(roots[0]); // a root listed twice
                assert_eq!(
                    Cone::new(&nl, &doubled, &support).truth_tables(),
                    cone_functions_oracle(&nl, &doubled, &support),
                    "seed {seed} roots {doubled:?}"
                );
                multi_root += 1;
            }
        }
        assert!(
            checked > 5000 && multiword > 500 && multi_root > 1000 && cut > 1000,
            "{checked} cones, {multiword} multi-word, {multi_root} multi-root, {cut} cut"
        );
    }

    /// `Cone::collapse` and `topo::comb_support_within` find the support
    /// `topo::comb_support` finds and refuse exactly the cones wider than
    /// their limit; `Cone::collapse` lists the cone's gates in
    /// `topo::cone_gates` order (the order the dying area's `f64` sum
    /// depends on).
    #[test]
    fn bounded_support_walk_matches_full_walk() {
        let mut refused = 0;
        for seed in 0..200u64 {
            let nl = random_netlist(seed);
            for root in (0..nl.num_nets() as u32).map(NetId) {
                let full = topo::comb_support(&nl, root);
                let gates: Vec<NetId> = topo::cone_gates(&nl, root)
                    .iter()
                    .map(|&g| nl.gate(g).output)
                    .collect();
                for max in [0, 1, 3, 6, 14] {
                    let bounded = topo::comb_support_within(&nl, root, max);
                    assert_eq!(bounded, (full.len() <= max).then(|| full.clone()));
                    match Cone::collapse(&nl, root, max) {
                        Some(cone) => {
                            assert!(full.len() <= max, "seed {seed} root {root:?} max {max}");
                            assert_eq!(cone.support, full, "seed {seed} root {root:?}");
                            let outs: Vec<NetId> = cone.ops.iter().map(|op| op.out).collect();
                            assert_eq!(outs, gates, "seed {seed} root {root:?}");
                        }
                        None => {
                            assert!(full.len() > max, "seed {seed} root {root:?} max {max}");
                            refused += 1;
                        }
                    }
                }
            }
        }
        assert!(refused > 5000, "only {refused} refusals");
    }

    #[test]
    #[should_panic(expected = "combinational cycle")]
    fn combinational_cycle_panics() {
        let mut nl = Netlist::new("cyc");
        let a = nl.add_input("a", 1)[0];
        let loop_net = nl.add_net();
        let x = nl.add_gate(GateKind::And2, &[a, loop_net]);
        nl.attach_gate(GateKind::Inv, &[x], loop_net).unwrap();
        Cone::collapse(&nl, x, 4);
    }

    #[test]
    #[should_panic(expected = "not in the support")]
    fn source_missing_from_support_panics() {
        let mut nl = Netlist::new("missing");
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_input("b", 1)[0];
        let y = nl.add_gate(GateKind::Or2, &[a, b]);
        nl.add_output("y", &[y]);
        Cone::new(&nl, &[y], &[a]);
    }

    #[test]
    fn extracts_majority() {
        let mut nl = Netlist::new("maj");
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_input("b", 1)[0];
        let c = nl.add_input("c", 1)[0];
        let ab = nl.add_gate(GateKind::And2, &[a, b]);
        let bc = nl.add_gate(GateKind::And2, &[b, c]);
        let ac = nl.add_gate(GateKind::And2, &[a, c]);
        let t = nl.add_gate(GateKind::Or2, &[ab, bc]);
        let y = nl.add_gate(GateKind::Or2, &[t, ac]);
        nl.add_output("y", &[y]);
        let cone = Cone::collapse(&nl, y, 8).unwrap();
        assert_eq!(cone.support.len(), 3);
        // Variable order follows support (sorted by NetId = a, b, c).
        let expected = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        assert_eq!(cone.truth_table(), expected);
    }

    #[test]
    fn respects_support_limit() {
        let mut nl = Netlist::new("wide");
        let xs = nl.add_input("x", 6);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = nl.add_gate(GateKind::And2, &[acc, x]);
        }
        nl.add_output("y", &[acc]);
        assert!(Cone::collapse(&nl, acc, 5).is_none());
        assert!(Cone::collapse(&nl, acc, 6).is_some());
    }

    #[test]
    fn constants_in_cone() {
        let mut nl = Netlist::new("c");
        let a = nl.add_input("a", 1)[0];
        let c1 = nl.const1();
        let y = nl.add_gate(GateKind::And2, &[a, c1]);
        nl.add_output("y", &[y]);
        let cone = Cone::collapse(&nl, y, 4).unwrap();
        assert_eq!(cone.support.len(), 1);
        assert_eq!(cone.truth_table(), TruthTable::variable(1, 0));
    }

    #[test]
    fn wide_cone_multiword() {
        // 7 inputs → 128 patterns → 2 words.
        let mut nl = Netlist::new("parity7");
        let xs = nl.add_input("x", 7);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = nl.add_gate(GateKind::Xor2, &[acc, x]);
        }
        nl.add_output("y", &[acc]);
        let tt = Cone::collapse(&nl, acc, 7).unwrap().truth_table();
        let expected = TruthTable::from_fn(7, |m| m.count_ones() % 2 == 1);
        assert_eq!(tt, expected);
    }
}
