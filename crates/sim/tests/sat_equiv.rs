//! Oracle tests: SAT verdicts against exhaustive simulation. Every pair is
//! also evaluated by [`CombSim`] on all 2^n input patterns (n ≤ 13), a
//! reference that shares no code with the AIG miter.
//!
//! Two families per seed:
//!
//! * a *known-equivalent* pair — the same random DAG, with the right side
//!   rewritten gate-by-gate through De Morgan identities (AND → NAND+INV,
//!   OR → NOR+INV, …), so SAT must return UNSAT on the miter;
//! * an *independent* pair — two different random DAGs over the same
//!   interface, where SAT and simulation must agree on the verdict
//!   (usually inequivalent, occasionally equivalent by chance on tiny
//!   functions), and every counterexample must be a pattern on which the
//!   simulated outputs differ.

use synthir_netlist::{GateKind, NetId, Netlist};
use synthir_sim::{check_comb_equiv, CombSim, EquivOptions, EquivResult};

struct SplitMix {
    state: u64,
}

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random combinational DAG over `ninputs` 1-bit ports and `nouts`
/// outputs.
fn random_netlist(name: &str, ninputs: usize, ngates: usize, nouts: usize, seed: u64) -> Netlist {
    let mut rng = SplitMix::new(seed);
    let mut nl = Netlist::new(name);
    let mut pool: Vec<NetId> = (0..ninputs)
        .map(|i| nl.add_input(format!("i{i}"), 1)[0])
        .collect();
    for _ in 0..ngates {
        let pick = |rng: &mut SplitMix, pool: &[NetId]| pool[rng.below(pool.len() as u64) as usize];
        let a = pick(&mut rng, &pool);
        let b = pick(&mut rng, &pool);
        let c = pick(&mut rng, &pool);
        let n = match rng.below(8) {
            0 => nl.add_gate(GateKind::And2, &[a, b]),
            1 => nl.add_gate(GateKind::Or2, &[a, b]),
            2 => nl.add_gate(GateKind::Xor2, &[a, b]),
            3 => nl.add_gate(GateKind::Nand2, &[a, b]),
            4 => nl.add_gate(GateKind::Nor2, &[a, b]),
            5 => nl.add_gate(GateKind::Inv, &[a]),
            6 => nl.add_gate(GateKind::Mux2, &[a, b, c]),
            _ => nl.add_gate(GateKind::Xnor2, &[a, b]),
        };
        pool.push(n);
    }
    for o in 0..nouts {
        let n = pool[pool.len() - 1 - o % pool.len().min(8)];
        nl.add_output(format!("o{o}"), &[n]);
    }
    nl
}

/// Rebuilds `nl` with every gate replaced by a De Morgan-equivalent
/// composition — structurally different, functionally identical.
fn demorgan_twin(nl: &Netlist) -> Netlist {
    let mut out = Netlist::new(nl.name());
    let mut map: std::collections::HashMap<NetId, NetId> = std::collections::HashMap::new();
    for p in nl.inputs() {
        let nets = out.add_input(p.name.clone(), p.nets.len());
        for (old, new) in p.nets.iter().zip(nets) {
            map.insert(*old, new);
        }
    }
    // Gates were created in topological creation order for this generator.
    let mut gates: Vec<_> = nl.gates().collect();
    gates.sort_by_key(|(id, _)| *id);
    for (_, g) in gates {
        let ins: Vec<NetId> = g.inputs.iter().map(|i| map[i]).collect();
        let n = match g.kind {
            GateKind::And2 => {
                let t = out.add_gate(GateKind::Nand2, &[ins[0], ins[1]]);
                out.add_gate(GateKind::Inv, &[t])
            }
            GateKind::Or2 => {
                let na = out.add_gate(GateKind::Inv, &[ins[0]]);
                let nb = out.add_gate(GateKind::Inv, &[ins[1]]);
                out.add_gate(GateKind::Nand2, &[na, nb])
            }
            GateKind::Nand2 => {
                let t = out.add_gate(GateKind::And2, &[ins[0], ins[1]]);
                out.add_gate(GateKind::Inv, &[t])
            }
            GateKind::Nor2 => {
                let na = out.add_gate(GateKind::Inv, &[ins[0]]);
                let nb = out.add_gate(GateKind::Inv, &[ins[1]]);
                out.add_gate(GateKind::And2, &[na, nb])
            }
            GateKind::Xor2 => {
                let t = out.add_gate(GateKind::Xnor2, &[ins[0], ins[1]]);
                out.add_gate(GateKind::Inv, &[t])
            }
            GateKind::Xnor2 => {
                let t = out.add_gate(GateKind::Xor2, &[ins[0], ins[1]]);
                out.add_gate(GateKind::Inv, &[t])
            }
            GateKind::Inv => {
                let t = out.add_gate(GateKind::Inv, &[ins[0]]);
                let t2 = out.add_gate(GateKind::Inv, &[t]);
                out.add_gate(GateKind::Inv, &[t2])
            }
            GateKind::Mux2 => {
                // sel ? d1 : d0 == (sel & d1) | (!sel & d0)
                let a = out.add_gate(GateKind::And2, &[ins[0], ins[2]]);
                let ns = out.add_gate(GateKind::Inv, &[ins[0]]);
                let b = out.add_gate(GateKind::And2, &[ns, ins[1]]);
                out.add_gate(GateKind::Or2, &[a, b])
            }
            other => {
                let inv: Vec<NetId> = ins.clone();
                out.add_gate(other, &inv)
            }
        };
        map.insert(g.output, n);
    }
    for p in nl.outputs() {
        let nets: Vec<NetId> = p.nets.iter().map(|n| map[n]).collect();
        out.add_output(p.name.clone(), &nets);
    }
    out
}

/// Every output bit of `nl` on all 2^n assignments of its input bits
/// (ports in order, LSB first; minterm `m` is bit `m % 64` of word
/// `m / 64`), output-major.
fn exhaustive_outputs(nl: &Netlist) -> Vec<Vec<u64>> {
    let sim = CombSim::new(nl).unwrap();
    let ins: Vec<NetId> = nl.inputs().iter().flat_map(|p| p.nets.clone()).collect();
    let words = (1u64 << ins.len()).div_ceil(64);
    let vals: Vec<Vec<u64>> = (0..words)
        .map(|w| {
            let word = |i: usize| (0..64).fold(0u64, |v, k| v | ((w * 64 + k) >> i & 1) << k);
            let sources: Vec<(NetId, u64)> =
                ins.iter().enumerate().map(|(i, &n)| (n, word(i))).collect();
            sim.eval_with(nl, &sources)
        })
        .collect();
    let outs = nl.outputs().iter().flat_map(|p| p.nets.clone());
    outs.map(|o| vals.iter().map(|v| v[o.index()]).collect())
        .collect()
}

#[test]
fn sat_proves_known_equivalent_twins() {
    for seed in 0..40u64 {
        let ninputs = 4 + (seed % 10) as usize; // 4..=13 bits
        let l = random_netlist("rand", ninputs, 30, 3, seed * 77 + 1);
        let r = demorgan_twin(&l);
        let sat = check_comb_equiv(&l, &r, &EquivOptions::new()).unwrap();
        assert!(sat.is_equivalent(), "seed {seed}: twin must be UNSAT");
        assert_eq!(
            exhaustive_outputs(&l),
            exhaustive_outputs(&r),
            "seed {seed}: simulation disagrees"
        );
    }
}

#[test]
fn sat_and_exhaustive_simulation_agree_on_independent_random_pairs() {
    let mut inequivalent = 0;
    for seed in 0..40u64 {
        let ninputs = 4 + (seed % 8) as usize;
        let l = random_netlist("rand", ninputs, 25, 2, seed * 131 + 3);
        let r = random_netlist("rand", ninputs, 25, 2, seed * 131 + 500_000);
        let sat = check_comb_equiv(&l, &r, &EquivOptions::new()).unwrap();
        let (tl, tr) = (exhaustive_outputs(&l), exhaustive_outputs(&r));
        assert_eq!(
            sat.is_equivalent(),
            tl == tr,
            "seed {seed}: SAT and simulation disagree"
        );
        if let EquivResult::Inequivalent(cex) = &sat {
            inequivalent += 1;
            // The SAT counterexample must be a minterm on which the
            // simulated outputs differ, with the values it reports.
            assert_ne!(cex.left, cex.right, "seed {seed}");
            let m: usize = (0..ninputs)
                .map(|k| (cex.inputs[&format!("i{k}")] as usize) << k)
                .sum();
            let o: usize = cex.output[1..].parse().unwrap();
            let bit = |t: &[Vec<u64>]| u128::from(t[o][m / 64] >> (m % 64) & 1);
            assert_eq!((bit(&tl), bit(&tr)), (cex.left, cex.right), "seed {seed}");
        }
    }
    assert!(
        inequivalent > 20,
        "random pairs should mostly differ, got {inequivalent}"
    );
}
