//! FSM extraction, unreachable-state pruning, and re-encoding.
//!
//! The paper's Fig. 6 experiment shows that a synthesis tool cannot detect
//! the state register of a *table-based* FSM (the coding style hides it), so
//! non-power-of-two state counts synthesize poorly — until the designer adds
//! the `set_fsm_state_vector` / `set_fsm_encoding` annotations, after which
//! table-based and case-statement styles synthesize nearly identically.
//!
//! This pass is that machinery. It only runs when FSM metadata
//! ([`synthir_rtl::elaborate::FsmNets`]) is present — metadata that the
//! case-statement coding style attaches automatically (mimicking the tool's
//! idiom recognition) and that a generator can derive from its tables for
//! the table-based style (the paper's recommendation).
//!
//! Given the state register, the pass:
//! 1. extracts the state-transition graph by exhaustive evaluation: every
//!    next-state, output and flop-input root that reads the state is
//!    compiled into one cone program over the state nets and the free
//!    inputs (`conefn::Cone`), simulated once per reachable state code
//!    with the state bits as constant words and all input combinations
//!    bit-parallel,
//! 2. prunes states unreachable from the reset state (the "Manual"
//!    optimization of the Fig. 9 PCtrl experiment),
//! 3. re-encodes the reachable states (binary / one-hot / Gray), and
//! 4. rebuilds next-state and output logic with the unused codes as
//!    don't-cares.

use crate::conefn::{variable_word, Cone};
use crate::factor::emit_cover;
use crate::options::FsmEncoding;
use crate::SynthError;
use std::collections::{BTreeSet, HashMap, HashSet};
use synthir_logic::espresso::EspressoOptions;
use synthir_logic::TruthTable;
use synthir_netlist::{topo, GateId, GateKind, NetId, Netlist, ResetKind};
use synthir_rtl::elaborate::FsmNets;

/// Enumeration budget for FSM extraction, in state × input combinations.
/// A state register whose cones need more is left alone
/// ([`SynthError::FsmExtraction`]), like a synthesis tool giving up.
pub const FSM_ENUM_LIMIT: usize = 1 << 18;

/// Re-encodes the FSM with encoding `enc`, rewriting the netlist.
///
/// # Errors
///
/// Returns [`SynthError::FsmExtraction`] when the state register is damaged
/// (a state net no longer driven by a flop) or the extraction exceeds
/// [`FSM_ENUM_LIMIT`]; callers typically treat this as "skip the pass",
/// exactly like a synthesis tool giving up on FSM extraction.
///
/// # Panics
///
/// Panics if the logic it extracts holds a combinational cycle
/// ([`Netlist::validate`] rejects such a netlist, as `compile` does first).
pub fn fsm_reencode(nl: &mut Netlist, fsm: &FsmNets, enc: FsmEncoding) -> Result<(), SynthError> {
    let state_width = fsm.state_nets.len();
    if state_width == 0 || state_width > 24 {
        return Err(SynthError::FsmExtraction(format!(
            "state register width {state_width} unsupported"
        )));
    }
    // Locate the state flops.
    let mut state_flops: Vec<GateId> = Vec::new();
    for &q in &fsm.state_nets {
        let Some(g) = nl.driver(q) else {
            return Err(SynthError::FsmExtraction(
                "state net has no driver (already folded?)".into(),
            ));
        };
        if !nl.gate(g).kind.is_sequential() {
            return Err(SynthError::FsmExtraction(
                "state net not driven by a flop".into(),
            ));
        }
        state_flops.push(g);
    }
    let (reset_kind, rst_net) = {
        let g = nl.gate(state_flops[0]);
        match g.kind {
            GateKind::Dff { reset, .. } => (reset, g.inputs.get(1).copied()),
            _ => unreachable!(),
        }
    };
    let state_d: Vec<NetId> = state_flops.iter().map(|&g| nl.gate(g).inputs[0]).collect();

    // Roots whose logic must be re-expressed over the new encoding: only
    // those that actually depend on the state register. Logic behind other
    // flop boundaries (e.g. a datapath fed from registered controller
    // outputs) is untouched — exactly the scope a tool's FSM extraction
    // has.
    let depends_on_state = |nl: &Netlist, root: NetId| {
        topo::comb_support(nl, root)
            .iter()
            .any(|s| fsm.state_nets.contains(s))
    };
    let output_roots: Vec<NetId> = nl
        .output_nets()
        .into_iter()
        .filter(|&r| depends_on_state(nl, r))
        .collect();
    let other_flops: Vec<GateId> = nl
        .gates()
        .filter(|(id, g)| {
            g.kind.is_sequential() && !state_flops.contains(id) && depends_on_state(nl, g.inputs[0])
        })
        .map(|(id, _)| id)
        .collect();
    let other_d: Vec<NetId> = other_flops.iter().map(|&g| nl.gate(g).inputs[0]).collect();

    // The free inputs: every non-state comb source feeding a rebuilt root.
    let mut others: BTreeSet<NetId> = BTreeSet::new();
    for &root in output_roots.iter().chain(&other_d).chain(&state_d) {
        for s in topo::comb_support(nl, root) {
            if !fsm.state_nets.contains(&s) {
                others.insert(s);
            }
        }
    }
    let others: Vec<NetId> = others.into_iter().collect();
    let f = others.len();
    let max_codes = 1usize << state_width.min(20);
    if f > 20 || max_codes.saturating_mul(1 << f) > FSM_ENUM_LIMIT {
        return Err(SynthError::FsmExtraction(format!(
            "enumeration budget exceeded ({} inputs, {} possible codes)",
            f, max_codes
        )));
    }

    // --- 1. and 2. Extract the state graph reachable from reset. ---
    // Tracked roots: the next-state bits, then the outputs, then the other
    // flops' D inputs.
    let mut roots = state_d.clone();
    roots.extend(&output_roots);
    roots.extend(&other_d);
    let graph = StateGraph::extract(nl, fsm, &roots, &others, max_codes)?;
    let reachable = &graph.codes;
    let n_states = reachable.len();
    let idx_of: HashMap<u128, usize> = reachable.iter().enumerate().map(|(i, &c)| (c, i)).collect();

    // --- 3. Choose the new encoding. ---
    let new_codes: Vec<u128> = match enc {
        FsmEncoding::Binary => (0..n_states as u128).collect(),
        FsmEncoding::Gray => (0..n_states as u128).map(|i| i ^ (i >> 1)).collect(),
        FsmEncoding::OneHot => (0..n_states).map(|i| 1u128 << i).collect(),
        FsmEncoding::Keep => reachable.clone(),
    };
    let new_width = match enc {
        FsmEncoding::OneHot => n_states,
        FsmEncoding::Keep => state_width,
        _ => {
            let mut w = 1;
            while (1usize << w) < n_states {
                w += 1;
            }
            w
        }
    };
    if new_width + f > 22 {
        return Err(SynthError::FsmExtraction(
            "re-encoded truth tables too wide".into(),
        ));
    }
    let code_of_pattern: HashMap<u128, usize> =
        new_codes.iter().enumerate().map(|(i, &c)| (c, i)).collect();

    // --- 4. Rebuild logic over [new_state, others]. ---
    let total_vars = new_width + f;
    let dc_tt = TruthTable::from_fn(total_vars, |m| {
        let pat = (m & ((1 << new_width) - 1)) as u128;
        !code_of_pattern.contains_key(&pat)
    });
    let espresso_opts = EspressoOptions::default();

    let new_q: Vec<NetId> = (0..new_width)
        .map(|i| nl.add_named_net(format!("fsm_state[{i}]")))
        .collect();
    let mut support: Vec<NetId> = new_q.clone();
    support.extend(others.iter().copied());

    // Collect the truth table of every root to rebuild (next-state bits,
    // outputs, non-state flop D inputs), then minimize them as one batch:
    // the per-root jobs are independent, so the batch driver runs them
    // concurrently (`synthir_logic::par`) with identical results.
    let root_tt = |value_of: &dyn Fn(usize, usize) -> bool| -> TruthTable {
        // value_of(state_idx, combo)
        TruthTable::from_fn(total_vars, |m| {
            let pat = (m & ((1 << new_width) - 1)) as u128;
            match code_of_pattern.get(&pat) {
                Some(&si) => value_of(si, m >> new_width),
                None => false,
            }
        })
    };
    let mut root_tts: Vec<TruthTable> = Vec::new();
    for bit in 0..new_width {
        root_tts.push(root_tt(&|si, combo| {
            new_codes[idx_of[&graph.next_code(si, combo)]] >> bit & 1 != 0
        }));
    }
    for r in state_width..roots.len() {
        root_tts.push(root_tt(&|si, combo| graph.value(si, r, combo)));
    }
    let covers =
        synthir_logic::espresso::minimize_tt_batch(&root_tts, Some(&dc_tt), &espresso_opts);
    let mut cover_it = covers.iter();
    let mut next_root = |nl: &mut Netlist| -> NetId {
        emit_cover(nl, cover_it.next().expect("one cover per root"), &support)
    };

    // Next-state bits.
    let mut new_state_d: Vec<NetId> = Vec::with_capacity(new_width);
    for _ in 0..new_width {
        new_state_d.push(next_root(nl));
    }
    // Output roots.
    let mut new_outputs: Vec<(NetId, NetId)> = Vec::new();
    for &o in &output_roots {
        new_outputs.push((o, next_root(nl)));
    }
    // Non-state flop D roots.
    let mut new_other_d: Vec<(GateId, NetId)> = Vec::new();
    for &fgate in other_flops.iter() {
        new_other_d.push((fgate, next_root(nl)));
    }

    // --- 5. Stitch the new logic in. ---
    let new_reset_code = new_codes[idx_of[&fsm.reset_code]];
    for (i, &q) in new_q.iter().enumerate() {
        let init = new_reset_code >> i & 1 != 0;
        let kind = GateKind::Dff {
            reset: reset_kind,
            init,
        };
        let inputs: Vec<NetId> = match (reset_kind, rst_net) {
            (ResetKind::None, _) => vec![new_state_d[i]],
            (_, Some(r)) => vec![new_state_d[i], r],
            (_, None) => vec![new_state_d[i]],
        };
        nl.attach_gate(kind, &inputs, q)
            .expect("fresh state net is undriven");
    }
    for (old, new) in new_outputs {
        nl.replace_net_uses(old, new);
    }
    for (fgate, new_d) in new_other_d {
        let g = nl.gate(fgate).clone();
        let mut inputs = g.inputs.clone();
        inputs[0] = new_d;
        nl.rewrite_gate(fgate, g.kind, &inputs);
    }
    nl.sweep();
    Ok(())
}

/// The part of an FSM's state graph reachable from reset: for every
/// reachable code (sorted), the value of every tracked root at every
/// free-input combination, `words` words per root, root after root. Roots
/// `0..width` are the next-state bits.
struct StateGraph {
    codes: Vec<u128>,
    values: Vec<Vec<u64>>,
    words: usize,
    width: usize,
}

impl StateGraph {
    /// Extracts the graph breadth-first from the reset code, simulating one
    /// cone program over `[state nets, others]` per reachable code (the
    /// state bits constant words) and failing past `max_codes` codes.
    /// `roots` starts with the state flops' D inputs in state-bit order.
    fn extract(
        nl: &Netlist,
        fsm: &FsmNets,
        roots: &[NetId],
        others: &[NetId],
        max_codes: usize,
    ) -> Result<StateGraph, SynthError> {
        let width = fsm.state_nets.len();
        let combos = 1usize << others.len();
        let words = combos.div_ceil(64);
        let mut support = fsm.state_nets.clone();
        support.extend(others);
        let cone = Cone::new(nl, roots, &support);
        let mut graph = StateGraph {
            codes: vec![fsm.reset_code],
            values: Vec::new(),
            words,
            width,
        };
        let mut seen: HashSet<u128> = HashSet::from([fsm.reset_code]);
        while let Some(&code) = graph.codes.get(graph.values.len()) {
            if graph.codes.len() > max_codes {
                return Err(SynthError::FsmExtraction("state explosion".into()));
            }
            let mut values = vec![0u64; roots.len() * words];
            let state_word = |i: usize| if code >> i & 1 != 0 { u64::MAX } else { 0 };
            cone.simulate(
                words,
                |i, w| match i.checked_sub(width) {
                    None => state_word(i),
                    Some(v) => variable_word(v, w),
                },
                |r, w, word| values[r * words + w] = word,
            );
            graph.values.push(values);
            let si = graph.values.len() - 1;
            for combo in 0..combos {
                let next = graph.next_code(si, combo);
                if seen.insert(next) {
                    graph.codes.push(next);
                }
            }
        }
        let mut states: Vec<(u128, Vec<u64>)> = graph.codes.into_iter().zip(graph.values).collect();
        states.sort_by_key(|&(code, _)| code);
        (graph.codes, graph.values) = states.into_iter().unzip();
        Ok(graph)
    }

    /// The value of root `r` in the `si`-th reachable state under input
    /// combination `combo`.
    fn value(&self, si: usize, r: usize, combo: usize) -> bool {
        self.values[si][r * self.words + combo / 64] >> (combo % 64) & 1 != 0
    }

    /// The code the `si`-th reachable state steps to under `combo`.
    fn next_code(&self, si: usize, combo: usize) -> u128 {
        (0..self.width)
            .filter(|&i| self.value(si, i, combo))
            .fold(0, |code, i| code | 1 << i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-state counter written over 2 bits: state 3 is unreachable. The
    /// direct netlist wastes logic treating code 3 as a care condition.
    fn mod3_counter(extra_wasteful: bool) -> (Netlist, FsmNets) {
        let mut nl = Netlist::new("mod3");
        let rst = nl.add_input("rst", 1)[0];
        let en = nl.add_input("en", 1)[0];
        let q0 = nl.add_net();
        let q1 = nl.add_net();
        // next0 = en ? !q0 & !q1 : q0 ; next1 = en ? q0 : q1
        let nq0 = nl.add_gate(GateKind::Inv, &[q0]);
        let nq1 = nl.add_gate(GateKind::Inv, &[q1]);
        let both0 = nl.add_gate(GateKind::And2, &[nq0, nq1]);
        let d0 = nl.add_gate(GateKind::Mux2, &[en, q0, both0]);
        let mut next1 = q0;
        if extra_wasteful {
            // Same function, clumsier structure.
            let t = nl.add_gate(GateKind::And2, &[q0, q0]);
            next1 = nl.add_gate(GateKind::Or2, &[t, both0]);
            // (q0 | (!q0 & !q1)) differs from q0 at state 0; mask with q0:
            next1 = nl.add_gate(GateKind::And2, &[next1, q0]);
        }
        let d1 = nl.add_gate(GateKind::Mux2, &[en, q1, next1]);
        let kind = GateKind::Dff {
            reset: ResetKind::Sync,
            init: false,
        };
        nl.attach_gate(kind, &[d0, rst], q0).unwrap();
        nl.attach_gate(kind, &[d1, rst], q1).unwrap();
        // Output: one-hot decode of the state.
        let s0 = nl.add_gate(GateKind::And2, &[nq0, nq1]);
        let s1 = nl.add_gate(GateKind::And2, &[q0, nq1]);
        let s2 = nl.add_gate(GateKind::And2, &[nq0, q1]);
        nl.add_output("onehot", &[s0, s1, s2]);
        let fsm = FsmNets {
            state_nets: vec![q0, q1],
            codes: vec![0, 1, 2],
            reset_code: 0,
        };
        (nl, fsm)
    }

    #[test]
    fn reencode_preserves_behaviour() {
        let (mut nl, fsm) = mod3_counter(false);
        let golden = nl.clone();
        fsm_reencode(&mut nl, &fsm, FsmEncoding::Binary).unwrap();
        let res =
            synthir_sim::check_seq_equiv(&golden, &nl, &synthir_sim::EquivOptions::new()).unwrap();
        assert!(res.is_equivalent(), "{res:?}");
    }

    #[test]
    fn onehot_encoding_uses_one_flop_per_state() {
        let (mut nl, fsm) = mod3_counter(false);
        let golden = mod3_counter(false).0;
        fsm_reencode(&mut nl, &fsm, FsmEncoding::OneHot).unwrap();
        // One-hot over 3 states allocates 3 state bits, but the third is
        // inferable from the other two and may be swept.
        assert!(nl.flop_count() >= 2 && nl.flop_count() <= 3);
        let res =
            synthir_sim::check_seq_equiv(&golden, &nl, &synthir_sim::EquivOptions::new()).unwrap();
        assert!(res.is_equivalent(), "{res:?}");
    }

    #[test]
    fn gray_and_keep_encodings_work() {
        for enc in [FsmEncoding::Gray, FsmEncoding::Keep, FsmEncoding::Binary] {
            let (mut nl, fsm) = mod3_counter(false);
            let golden = nl.clone();
            fsm_reencode(&mut nl, &fsm, enc).unwrap();
            let res = synthir_sim::check_seq_equiv(&golden, &nl, &synthir_sim::EquivOptions::new())
                .unwrap();
            assert!(res.is_equivalent(), "{enc:?}: {res:?}");
        }
    }

    /// The per-code whole-netlist evaluator extraction ran before cone
    /// programs: one value per net of the netlist, every combinational
    /// gate evaluated in a whole-netlist topological order, the tracked
    /// roots copied out bit by bit.
    fn eval_code_oracle(
        nl: &Netlist,
        fsm: &FsmNets,
        roots: &[NetId],
        others: &[NetId],
        code: u128,
    ) -> Vec<synthir_logic::BitVec> {
        let order = topo::topological_order(nl).unwrap();
        let combos = 1usize << others.len();
        let mut vals = vec![0u64; nl.num_nets()];
        let mut out = vec![synthir_logic::BitVec::zeros(combos); roots.len()];
        for w in 0..combos.div_ceil(64) {
            for (i, &s) in others.iter().enumerate() {
                let mut word = 0u64;
                for b in 0..64 {
                    let p = w * 64 + b;
                    if p < combos && p >> i & 1 != 0 {
                        word |= 1 << b;
                    }
                }
                vals[s.index()] = word;
            }
            for (i, &s) in fsm.state_nets.iter().enumerate() {
                vals[s.index()] = if code >> i & 1 != 0 { u64::MAX } else { 0 };
            }
            let mut ins = Vec::with_capacity(4);
            for &gid in &order {
                let g = nl.gate(gid);
                if g.kind.is_sequential() {
                    continue;
                }
                ins.clear();
                ins.extend(g.inputs.iter().map(|i| vals[i.index()]));
                vals[g.output.index()] = g.kind.eval_words(&ins);
            }
            for (bv, r) in out.iter_mut().zip(roots) {
                for b in 0..64 {
                    let p = w * 64 + b;
                    if p < combos && vals[r.index()] >> b & 1 != 0 {
                        bv.set(p, true);
                    }
                }
            }
        }
        out
    }

    /// The state graph of `fsm` over every output port bit, checked against
    /// a breadth-first search over the whole-netlist oracle: the same
    /// reachable codes, and every next-state and output bit equal.
    fn checked_state_graph(nl: &Netlist, fsm: &FsmNets) -> StateGraph {
        let mut roots: Vec<NetId> = fsm
            .state_nets
            .iter()
            .map(|&q| nl.gate(nl.driver(q).unwrap()).inputs[0])
            .collect();
        roots.extend(nl.output_nets());
        let mut others = nl.input_nets();
        others.extend(
            nl.gates()
                .filter(|(_, g)| g.kind.is_sequential() && !fsm.state_nets.contains(&g.output))
                .map(|(_, g)| g.output),
        );
        let graph = StateGraph::extract(nl, fsm, &roots, &others, 1 << 12).unwrap();
        let width = fsm.state_nets.len();
        let mut codes = vec![fsm.reset_code];
        let mut tables = Vec::new();
        while let Some(&code) = codes.get(tables.len()) {
            let bits = eval_code_oracle(nl, fsm, &roots, &others, code);
            for combo in 0..1 << others.len() {
                let next = (0..width)
                    .filter(|&i| bits[i].get(combo))
                    .fold(0, |c, i| c | 1 << i);
                if !codes.contains(&next) {
                    codes.push(next);
                }
            }
            tables.push((code, bits));
        }
        tables.sort_by_key(|&(code, _)| code);
        assert_eq!(graph.codes, tables.iter().map(|t| t.0).collect::<Vec<_>>());
        for (si, (code, bits)) in tables.iter().enumerate() {
            for (r, bv) in bits.iter().enumerate() {
                for combo in 0..bv.len() {
                    assert_eq!(
                        graph.value(si, r, combo),
                        bv.get(combo),
                        "code {code} root {r}"
                    );
                }
            }
        }
        graph
    }

    /// Random annotated table FSMs, some states unreachable: the extracted
    /// tables match the oracle before re-encoding and after it in every
    /// encoding, and the re-encoded machine steps through the same outputs
    /// as the original from reset.
    #[test]
    fn extracted_tables_match_whole_netlist_oracle() {
        use synthir_core::fsm::FsmSpec;
        let mut rng = 0x5EED_u64;
        let mut below = |n: usize| {
            rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let mut pruned = 0;
        for seed in 0..24 {
            let (m, n, s) = (1 + below(3), 1 + below(3), 2 + below(6));
            let reach = 1 + below(s);
            // States below `reach` step only among themselves.
            let next: Vec<Vec<usize>> = (0..s)
                .map(|i| {
                    (0..1 << m)
                        .map(|_| below(if i < reach { reach } else { s }))
                        .collect()
                })
                .collect();
            let out: Vec<Vec<u128>> = (0..s)
                .map(|_| (0..1 << m).map(|_| below(1 << n) as u128).collect())
                .collect();
            let spec = FsmSpec::from_dense("rand", m, n, &next, &out).unwrap();
            let e = synthir_rtl::elaborate(&spec.to_table_module(true)).unwrap();
            let (mut nl, mut fsm) = (e.netlist, e.fsm.unwrap());
            if seed % 2 == 1 {
                crate::aigopt::aig_optimize(&mut nl, Some(&mut fsm), &mut [], false);
            }
            let before = checked_state_graph(&nl, &fsm);
            pruned += usize::from(before.codes.len() < s);
            for enc in [
                FsmEncoding::Binary,
                FsmEncoding::Gray,
                FsmEncoding::OneHot,
                FsmEncoding::Keep,
            ] {
                let mut after = nl.clone();
                fsm_reencode(&mut after, &fsm, enc).unwrap();
                let flops: Vec<(NetId, bool)> = after
                    .gates()
                    .filter_map(|(_, g)| match g.kind {
                        GateKind::Dff { init, .. } => Some((g.output, init)),
                        _ => None,
                    })
                    .collect();
                let reencoded = FsmNets {
                    state_nets: flops.iter().map(|f| f.0).collect(),
                    codes: Vec::new(),
                    reset_code: (0..flops.len())
                        .filter(|&i| flops[i].1)
                        .fold(0, |c, i| c | 1 << i),
                };
                let graph = checked_state_graph(&after, &reencoded);
                // Step both machines from reset in lockstep.
                let (wa, wb) = (fsm.state_nets.len(), reencoded.state_nets.len());
                let index = |g: &StateGraph, code| g.codes.binary_search(&code).unwrap();
                let mut pairs = vec![(
                    index(&before, fsm.reset_code),
                    index(&graph, reencoded.reset_code),
                )];
                let mut seen: HashSet<(usize, usize)> = pairs.iter().copied().collect();
                while let Some((a, b)) = pairs.pop() {
                    for combo in 0..1 << nl.input_nets().len() {
                        for o in 0..n {
                            assert_eq!(
                                before.value(a, wa + o, combo),
                                graph.value(b, wb + o, combo),
                                "seed {seed} {enc:?}: output {o} under {combo}"
                            );
                        }
                        let step = (
                            index(&before, before.next_code(a, combo)),
                            index(&graph, graph.next_code(b, combo)),
                        );
                        if seen.insert(step) {
                            pairs.push(step);
                        }
                    }
                }
            }
        }
        assert!(pruned > 5, "only {pruned} machines with unreachable states");
    }

    #[test]
    fn fails_cleanly_without_state_flops() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let y = nl.add_gate(GateKind::Inv, &[a]);
        nl.add_output("y", &[y]);
        let fsm = FsmNets {
            state_nets: vec![a],
            codes: vec![0, 1],
            reset_code: 0,
        };
        assert!(matches!(
            fsm_reencode(&mut nl, &fsm, FsmEncoding::Binary),
            Err(SynthError::FsmExtraction(_))
        ));
    }
}
