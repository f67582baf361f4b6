//! Cone extraction: collapsing a combinational cone to a truth table.

use std::collections::HashMap;
use synthir_logic::TruthTable;
use synthir_netlist::{topo, GateKind, NetId, Netlist};

/// The complete function of a combinational cone rooted at `root`, expressed
/// over the cone's support (primary inputs and flop outputs), or `None` if
/// the support exceeds `max_support`.
///
/// Variable `i` of the returned table corresponds to `support[i]`.
pub fn cone_function(
    nl: &Netlist,
    root: NetId,
    max_support: usize,
) -> Option<(Vec<NetId>, TruthTable)> {
    let support = topo::comb_support_within(nl, root, max_support)?;
    let tt = cone_function_on(nl, root, &support);
    Some((support, tt))
}

/// The function of a cone over an explicitly provided support ordering.
///
/// Only the cone is simulated: every support net, every constant the cone
/// reads and every cone gate gets its own slot, so the cost is
/// O(cone · 2^k / 64) — nothing here scales with the size of the netlist.
/// `root` may itself be a support net or a constant net. A support entry
/// that is driven by a constant or by a cone gate is shadowed by that
/// driver.
///
/// # Panics
///
/// Panics if the cone depends on a source outside `support` (other than
/// constants), naming that net, or if `support.len() > 24`.
pub fn cone_function_on(nl: &Netlist, root: NetId, support: &[NetId]) -> TruthTable {
    let k = support.len();
    assert!(k <= 24, "cone support too large to enumerate");
    let gates = topo::cone_gates(nl, root);
    // Slots: `0..k` the support variables, `k` and `k + 1` the constants 0
    // and 1, then one slot per cone gate in topological order.
    let mut slot_of: HashMap<NetId, usize> = HashMap::with_capacity(k + gates.len());
    for (i, &s) in support.iter().enumerate() {
        slot_of.insert(s, i);
    }
    for (j, &gid) in gates.iter().enumerate() {
        slot_of.insert(nl.gate(gid).output, k + 2 + j);
    }
    let slot = |n: NetId| -> usize {
        match nl.as_constant(n) {
            Some(v) => k + usize::from(v),
            None => *slot_of.get(&n).unwrap_or_else(|| {
                panic!("cone of {root:?} depends on {n:?}, which is not in the support")
            }),
        }
    };
    // The cone as a straight-line program over slots, resolved once.
    let program: Vec<(GateKind, [usize; 4])> = gates
        .iter()
        .map(|&gid| {
            let g = nl.gate(gid);
            let mut ins = [0; 4];
            for (dst, &i) in ins.iter_mut().zip(&g.inputs) {
                *dst = slot(i);
            }
            (g.kind, ins)
        })
        .collect();
    let root_slot = slot(root);
    let n_patterns = 1usize << k;
    let n_words = n_patterns.div_ceil(64);
    // Words are simulated a block at a time, gate by gate, so each gate's
    // kind is dispatched once per block. A table shorter than a block is
    // simulated over a whole block and cut to length.
    let mut vals = vec![[0u64; BLOCK]; k + 2 + gates.len()];
    vals[k + 1] = [u64::MAX; BLOCK];
    let mut root_words = Vec::with_capacity(n_words.next_multiple_of(BLOCK));
    for first in (0..n_words).step_by(BLOCK) {
        // Pattern p (global index w*64 + bit) assigns support[i] the i-th
        // address bit of the pattern index.
        for (i, v) in vals[..k].iter_mut().enumerate() {
            *v = std::array::from_fn(|b| variable_word(i, first + b));
        }
        for (j, (kind, ins)) in program.iter().enumerate() {
            let pins = ins.map(|s| vals[s]);
            vals[k + 2 + j] = kind.eval_block(&pins[..kind.arity()]);
        }
        root_words.extend_from_slice(&vals[root_slot]);
    }
    root_words.truncate(n_words);
    TruthTable::from_bits(k, synthir_logic::BitVec::from_words(n_patterns, root_words))
}

/// How many 64-pattern words [`cone_function_on`] simulates per pass over
/// the cone.
const BLOCK: usize = 16;

/// Word `w` of the 64-pattern simulation vector of variable `i`: bit `b`
/// is bit `i` of the pattern index `w * 64 + b`.
fn variable_word(i: usize, w: usize) -> u64 {
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
    use synthir_netlist::ResetKind;

    /// The whole-netlist formulation `cone_function_on` replaced: one value
    /// per net of the netlist, every constant gate rescanned per word.
    /// Sources outside `support` read as 0.
    fn cone_function_on_oracle(nl: &Netlist, root: NetId, support: &[NetId]) -> TruthTable {
        let k = support.len();
        let gates = topo::cone_gates(nl, root);
        let n_patterns = 1usize << k;
        let words = n_patterns.div_ceil(64);
        let mut bits = synthir_logic::BitVec::zeros(n_patterns);
        let mut vals = vec![0u64; nl.num_nets()];
        for w in 0..words {
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
            for (_, g) in nl.gates() {
                if g.kind.is_constant() {
                    vals[g.output.index()] = g.kind.eval_words(&[]);
                }
            }
            let mut ins: Vec<u64> = Vec::with_capacity(4);
            for &gid in &gates {
                let g = nl.gate(gid);
                ins.clear();
                ins.extend(g.inputs.iter().map(|i| vals[i.index()]));
                vals[g.output.index()] = g.kind.eval_words(&ins);
            }
            let rootw = vals[root.index()];
            for b in 0..64 {
                let p = w * 64 + b;
                if p < n_patterns && rootw >> b & 1 != 0 {
                    bits.set(p, true);
                }
            }
        }
        TruthTable::from_bits(k, bits)
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
        let mut multiword = 0;
        let mut checked = 0;
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
                let tt = cone_function_on(&nl, root, &support);
                assert_eq!(
                    tt,
                    cone_function_on_oracle(&nl, root, &support),
                    "seed {seed} root {root:?}"
                );
                checked += 1;
                if support.len() > 6 {
                    multiword += 1;
                }
                // A reordered superset of the support: one extra source the
                // cone ignores, variables in reverse order.
                if let Some(&extra) = sources.iter().find(|s| !support.contains(s)) {
                    if support.len() < 12 {
                        let mut wider = support.clone();
                        wider.push(extra);
                        wider.reverse();
                        assert_eq!(
                            cone_function_on(&nl, root, &wider),
                            cone_function_on_oracle(&nl, root, &wider),
                            "seed {seed} root {root:?} over {wider:?}"
                        );
                    }
                }
            }
        }
        assert!(
            checked > 5000 && multiword > 500,
            "{checked} cones, {multiword} multi-word"
        );
    }

    #[test]
    fn bounded_support_walk_matches_full_walk() {
        let mut refused = 0;
        for seed in 0..200u64 {
            let nl = random_netlist(seed);
            for root in (0..nl.num_nets() as u32).map(NetId) {
                let full = topo::comb_support(&nl, root);
                for max in [0, 1, 3, 6, 14] {
                    let bounded = topo::comb_support_within(&nl, root, max);
                    if full.len() <= max {
                        assert_eq!(bounded.as_ref(), Some(&full), "seed {seed} root {root:?}");
                    } else {
                        assert_eq!(bounded, None, "seed {seed} root {root:?} max {max}");
                        refused += 1;
                    }
                }
            }
        }
        assert!(refused > 5000, "only {refused} refusals");
    }

    #[test]
    #[should_panic(expected = "not in the support")]
    fn source_missing_from_support_panics() {
        let mut nl = Netlist::new("missing");
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_input("b", 1)[0];
        let y = nl.add_gate(GateKind::Or2, &[a, b]);
        nl.add_output("y", &[y]);
        cone_function_on(&nl, y, &[a]);
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
        let (support, tt) = cone_function(&nl, y, 8).unwrap();
        assert_eq!(support.len(), 3);
        // Variable order follows support (sorted by NetId = a, b, c).
        let expected = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        assert_eq!(tt, expected);
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
        assert!(cone_function(&nl, acc, 5).is_none());
        assert!(cone_function(&nl, acc, 6).is_some());
    }

    #[test]
    fn constants_in_cone() {
        let mut nl = Netlist::new("c");
        let a = nl.add_input("a", 1)[0];
        let c1 = nl.const1();
        let y = nl.add_gate(GateKind::And2, &[a, c1]);
        nl.add_output("y", &[y]);
        let (support, tt) = cone_function(&nl, y, 4).unwrap();
        assert_eq!(support.len(), 1);
        assert_eq!(tt, TruthTable::variable(1, 0));
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
        let (_, tt) = cone_function(&nl, acc, 7).unwrap();
        let expected = TruthTable::from_fn(7, |m| m.count_ones() % 2 == 1);
        assert_eq!(tt, expected);
    }
}
