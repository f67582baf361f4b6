//! Property tests: `Netlist -> Aig -> Netlist` round trips (with rewriting
//! and SAT sweeping applied) are proved equivalent to the original by the
//! SAT checks (miters for combinational designs, induction plus BMC for
//! sequential ones), and cross-checked by the netlist simulators, which
//! share no code with the AIG: exhaustive [`CombSim`] evaluation and a deep
//! random [`SeqSim`] lockstep.

use std::collections::HashMap;
use synthir_aig::{from_netlist, optimize, to_netlist, SweepOptions};
use synthir_netlist::{GateKind, Library, NetId, Netlist, ResetKind};
use synthir_sim::{check_comb_equiv, check_seq_equiv, CombSim, EquivOptions, SeqSim};

/// Deterministic xorshift for the generators.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random combinational netlist over every gate kind, `n_in` input bits
/// and `n_out` outputs.
fn random_comb_netlist(n_in: usize, n_out: usize, gates: usize, seed: u64) -> Netlist {
    let mut rng = Rng(seed | 1);
    let mut nl = Netlist::new(format!("rand{seed}"));
    let mut nets: Vec<NetId> = nl.add_input("x", n_in);
    let kinds: Vec<GateKind> = GateKind::all_combinational()
        .into_iter()
        .filter(|k| !k.is_constant())
        .collect();
    // Sprinkle the constants in occasionally too.
    nets.push(nl.const0());
    nets.push(nl.const1());
    for _ in 0..gates {
        let kind = kinds[rng.below(kinds.len())];
        let ins: Vec<NetId> = (0..kind.arity())
            .map(|_| nets[rng.below(nets.len())])
            .collect();
        let y = nl.add_gate(kind, &ins);
        nets.push(y);
    }
    let outs: Vec<NetId> = (0..n_out)
        .map(|_| nets[nets.len() - 1 - rng.below(gates.min(8))])
        .collect();
    nl.add_output("y", &outs);
    nl
}

/// A random sequential netlist: a combinational core plus flop banks
/// covering every reset flavour and both init values.
fn random_seq_netlist(n_in: usize, flops: usize, gates: usize, seed: u64) -> Netlist {
    let mut rng = Rng(seed | 1);
    let mut nl = Netlist::new(format!("randseq{seed}"));
    let rst = nl.add_input("rst", 1)[0];
    let mut nets: Vec<NetId> = nl.add_input("x", n_in);
    // Flop outputs participate in the combinational pool.
    let mut qs: Vec<NetId> = Vec::new();
    for _ in 0..flops {
        let q = nl.add_net();
        qs.push(q);
        nets.push(q);
    }
    let kinds = [
        GateKind::And2,
        GateKind::Or2,
        GateKind::Xor2,
        GateKind::Nand2,
        GateKind::Inv,
        GateKind::Mux2,
        GateKind::Aoi21,
    ];
    for _ in 0..gates {
        let kind = kinds[rng.below(kinds.len())];
        let ins: Vec<NetId> = (0..kind.arity())
            .map(|_| nets[rng.below(nets.len())])
            .collect();
        nets.push(nl.add_gate(kind, &ins));
    }
    let resets = [ResetKind::None, ResetKind::Sync, ResetKind::Async];
    for (i, &q) in qs.iter().enumerate() {
        let d = nets[nets.len() - 1 - rng.below(gates.min(6))];
        let reset = resets[i % resets.len()];
        let init = i % 2 == 0;
        let kind = GateKind::Dff { reset, init };
        let ins: Vec<NetId> = match reset {
            ResetKind::None => vec![d],
            _ => vec![d, rst],
        };
        nl.attach_gate(kind, &ins, q).unwrap();
    }
    let outs: Vec<NetId> = (0..3)
        .map(|_| nets[nets.len() - 1 - rng.below(5)])
        .collect();
    nl.add_output("y", &outs);
    nl.add_output("q", &qs);
    nl
}

/// [`random_seq_netlist`] with some flops rewired to never leave their
/// init value: D tied to the init constant, to the flop's own output, or to
/// an earlier such flop with the same init (which only folds once that one
/// has). Others are tied to the opposite constant, which must not fold.
fn constant_flop_netlist(seed: u64) -> Netlist {
    let mut nl = random_seq_netlist(4, 8, 18, seed);
    let mut rng = Rng(seed.rotate_left(32) | 1);
    let flops: Vec<_> = nl
        .gates()
        .filter(|(_, g)| g.kind.is_sequential())
        .map(|(id, g)| (id, *g))
        .collect();
    let mut holding: Vec<(NetId, bool)> = Vec::new();
    for (id, g) in flops {
        let GateKind::Dff { init, .. } = g.kind else {
            unreachable!("sequential gates are flops")
        };
        let mut ins = g.inputs().to_vec();
        ins[0] = match rng.below(5) {
            0 => nl.constant(init),
            1 => g.output,
            2 => match holding.iter().find(|&&(_, i)| i == init) {
                Some(&(q, _)) => q,
                None => g.output,
            },
            3 => nl.constant(!init),
            _ => continue,
        };
        if nl.as_constant(ins[0]) != Some(!init) {
            holding.push((g.output, init));
        }
        nl.rewrite_gate(id, g.kind, &ins);
    }
    nl
}

/// Every net value of `nl` on all 2^n assignments of its `x` bus, 64
/// minterms per word, read at the `y` bus.
fn exhaustive_outputs(nl: &Netlist) -> Vec<u64> {
    let sim = CombSim::new(nl).unwrap();
    let x = &nl.input("x").unwrap().nets;
    let y = &nl.output("y").unwrap().nets;
    let mut out = Vec::new();
    for w in 0..(1u64 << x.len()).div_ceil(64) {
        let word = |i: usize| (0..64).fold(0u64, |v, k| v | ((w * 64 + k) >> i & 1) << k);
        let sources: Vec<(NetId, u64)> = x.iter().enumerate().map(|(i, &n)| (n, word(i))).collect();
        let vals = sim.eval_with(nl, &sources);
        out.extend(y.iter().map(|n| vals[n.index()]));
    }
    out
}

/// Cycles of the random lockstep that probes past the BMC depth.
const LOCKSTEP_CYCLES: usize = 256;

/// Both designs from reset through [`SeqSim`] on the same random `x`
/// sequence (`rst` held low) for [`LOCKSTEP_CYCLES`] cycles: `true` when
/// every output agrees every cycle.
fn lockstep_agrees(l: &Netlist, r: &Netlist, seed: u64) -> bool {
    let (mut ls, mut rs) = (SeqSim::new(l).unwrap(), SeqSim::new(r).unwrap());
    let mask = (1u128 << l.input("x").unwrap().nets.len()) - 1;
    let mut rng = Rng(seed | 1);
    (0..LOCKSTEP_CYCLES).all(|_| {
        let inputs = HashMap::from([("x".to_string(), u128::from(rng.next()) & mask)]);
        ls.step(&inputs) == rs.step(&inputs)
    })
}

#[test]
fn comb_round_trip_is_equivalent() {
    for seed in 0..24u64 {
        let nl = random_comb_netlist(6, 3, 24, 0xC0 + seed);
        let imp = from_netlist(&nl).unwrap();
        let exp = to_netlist(&imp.aig, &[]);
        // SAT proves the plain round trip…
        let res = check_comb_equiv(&nl, &exp.netlist, &EquivOptions::new()).unwrap();
        assert!(res.is_equivalent(), "seed {seed}: plain round trip");
        // …and exhaustive simulation independently agrees (6-bit interface).
        assert_eq!(
            exhaustive_outputs(&nl),
            exhaustive_outputs(&exp.netlist),
            "seed {seed}: simulation disagrees"
        );
    }
}

#[test]
fn comb_round_trip_with_rewrite_and_sweep_is_equivalent() {
    for seed in 0..16u64 {
        let nl = random_comb_netlist(7, 4, 30, 0x5A0 + seed);
        let imp = from_netlist(&nl).unwrap();
        let (opt, stats) = optimize(&imp.aig, &[], Some(&SweepOptions::default()));
        assert!(
            stats.ands_after <= stats.ands_before,
            "seed {seed}: optimization grew the graph"
        );
        let exp = to_netlist(&opt.aig, &[]);
        let res = check_comb_equiv(&nl, &exp.netlist, &EquivOptions::new()).unwrap();
        assert!(res.is_equivalent(), "seed {seed}: optimized round trip");
    }
}

#[test]
fn seq_round_trip_preserves_flop_semantics() {
    for seed in 0..12u64 {
        let nl = random_seq_netlist(4, 5, 20, 0xF10 + seed);
        let imp = from_netlist(&nl).unwrap();
        let exp = to_netlist(&imp.aig, &[]);
        // Reset flavours and init values survive verbatim.
        let hist = |n: &Netlist| {
            let mut h: HashMap<GateKind, usize> = HashMap::new();
            for (_, g) in n.gates() {
                if g.kind.is_sequential() {
                    *h.entry(g.kind).or_insert(0) += 1;
                }
            }
            h
        };
        let (orig, round) = (hist(&nl), hist(&exp.netlist));
        for (kind, count) in &round {
            assert!(
                orig.get(kind).is_some_and(|c| c >= count),
                "seed {seed}: flop kind {kind:?} appeared from nowhere"
            );
        }
        // SAT proves it (by induction, or BMC over the first cycles);
        // random lockstep probes deep.
        let res = check_seq_equiv(&nl, &exp.netlist, &EquivOptions::new()).unwrap();
        assert!(res.is_equivalent(), "seed {seed}: SAT found a difference");
        assert!(
            lockstep_agrees(&nl, &exp.netlist, seed),
            "seed {seed}: lockstep divergence"
        );
    }
}

#[test]
fn seq_round_trip_with_optimization_is_equivalent() {
    for seed in 0..8u64 {
        let nl = random_seq_netlist(4, 4, 18, 0xBEE + seed);
        let imp = from_netlist(&nl).unwrap();
        let (opt, _) = optimize(&imp.aig, &[], Some(&SweepOptions::default()));
        let exp = to_netlist(&opt.aig, &[]);
        let res = check_seq_equiv(&nl, &exp.netlist, &EquivOptions::new()).unwrap();
        assert!(res.is_equivalent(), "seed {seed}: optimized sequential");
        assert!(
            lockstep_agrees(&nl, &exp.netlist, seed),
            "seed {seed}: lockstep divergence"
        );
    }
}

#[test]
fn round_trip_preserves_ports_and_kept_nets() {
    let nl = random_comb_netlist(5, 2, 12, 99);
    let imp = from_netlist(&nl).unwrap();
    let exp = to_netlist(&imp.aig, &[]);
    let names = |ports: &[synthir_netlist::Port]| -> Vec<(String, usize)> {
        ports
            .iter()
            .map(|p| (p.name.clone(), p.nets.len()))
            .collect()
    };
    assert_eq!(names(nl.inputs()), names(exp.netlist.inputs()));
    assert_eq!(names(nl.outputs()), names(exp.netlist.outputs()));
    // Interior nets marked "keep" survive with nets attached.
    let some_net = nl.gates().next().map(|(_, g)| g.output).unwrap();
    let lit = imp.lits.get(some_net).unwrap();
    let exp = to_netlist(&imp.aig, &[lit]);
    assert!(exp.net_of(lit).is_some());
}

#[test]
fn deep_chain_import_does_not_overflow_the_stack() {
    // 10k-gate inverter chain: the import's topological walk and the SAT
    // miter must stay iterative end to end.
    let mut nl = Netlist::new("chain");
    let a = nl.add_input("a", 1)[0];
    let mut n = a;
    for _ in 0..10_000 {
        n = nl.add_gate(GateKind::Inv, &[n]);
    }
    nl.add_output("y", &[n]);
    let imp = from_netlist(&nl).unwrap();
    // The whole chain folds to a single buffered literal.
    assert_eq!(imp.aig.and_count(), 0);
    let exp = to_netlist(&imp.aig, &[]);
    let res = check_comb_equiv(&nl, &exp.netlist, &EquivOptions::new()).unwrap();
    assert!(res.is_equivalent());
}

#[test]
fn cut_map_folds_constant_flops_equivalently() {
    let lib = Library::vt90();
    let (mut before, mut after) = (0, 0);
    for seed in 0..12u64 {
        let nl = constant_flop_netlist(0xC0F + seed);
        let mut mapped = nl.clone();
        synthir_synth::cut_map(&mut mapped, &lib);
        // No flop that provably holds its init value survives the mapper.
        for (_, g) in mapped.gates() {
            if let GateKind::Dff { init, .. } = g.kind {
                let d = g.inputs()[0];
                assert!(
                    mapped.as_constant(d) != Some(init) && d != g.output,
                    "seed {seed}: a constant flop survived"
                );
            }
        }
        before += nl.flop_count();
        after += mapped.flop_count();
        let res = check_seq_equiv(&nl, &mapped, &EquivOptions::new()).unwrap();
        assert!(res.is_equivalent(), "seed {seed}: SAT found a difference");
        assert!(
            lockstep_agrees(&nl, &mapped, seed),
            "seed {seed}: lockstep divergence"
        );
    }
    assert!(after < before, "no flop folded: {before} -> {after}");
}
