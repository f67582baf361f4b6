//! Differential test of the flat [`Netlist`] against the formulation it
//! replaced: one heap `Vec` of inputs per gate and one `String` per named
//! net, with the live-gate count found by scanning every slot.
//!
//! Seeded random sequences of every mutating operation run on both; after
//! each one the two must agree on gates, drivers, names, ports, fanout and
//! the gate count, and the old model's word encoding (the layout cache
//! keys are made of) must equal the new one's.

use super::{Fanout, GateId, NetId, Netlist, Port};
use crate::cell::{GateKind, ResetKind};
use crate::NetlistError;
use std::collections::HashMap;

#[derive(Clone, Debug, PartialEq)]
struct OldGate {
    kind: GateKind,
    inputs: Vec<NetId>,
    output: NetId,
}

/// The Vec-per-gate netlist, reduced to the state and operations the
/// flat one must reproduce.
#[derive(Default)]
struct Oracle {
    net_names: Vec<Option<String>>,
    gates: Vec<Option<OldGate>>,
    driver: Vec<Option<GateId>>,
    inputs: Vec<Port>,
    outputs: Vec<Port>,
    const_nets: [Option<NetId>; 2],
}

impl Oracle {
    fn add_net(&mut self) -> NetId {
        let id = NetId(self.net_names.len() as u32);
        self.net_names.push(None);
        self.driver.push(None);
        id
    }

    fn add_named_net(&mut self, name: String) -> NetId {
        let id = self.add_net();
        self.net_names[id.index()] = Some(name);
        id
    }

    fn add_input(&mut self, name: &str, width: usize) -> Vec<NetId> {
        let nets: Vec<NetId> = (0..width)
            .map(|i| self.add_named_net(format!("{name}[{i}]")))
            .collect();
        self.inputs.push(Port {
            name: name.into(),
            nets: nets.clone(),
        });
        nets
    }

    fn attach_gate(
        &mut self,
        kind: GateKind,
        inputs: &[NetId],
        output: NetId,
    ) -> Result<GateId, NetlistError> {
        if inputs.len() != kind.arity() {
            return Err(NetlistError::ArityMismatch {
                kind,
                got: inputs.len(),
                expected: kind.arity(),
            });
        }
        if self.driver[output.index()].is_some() {
            return Err(NetlistError::MultipleDrivers { net: output });
        }
        let id = GateId(self.gates.len() as u32);
        self.gates.push(Some(OldGate {
            kind,
            inputs: inputs.to_vec(),
            output,
        }));
        self.driver[output.index()] = Some(id);
        Ok(id)
    }

    fn add_gate(&mut self, kind: GateKind, inputs: &[NetId]) -> NetId {
        let output = self.add_net();
        self.attach_gate(kind, inputs, output).expect("valid gate");
        output
    }

    fn constant(&mut self, value: bool) -> NetId {
        let i = usize::from(value);
        if let Some(n) = self.const_nets[i] {
            return n;
        }
        let kind = if value {
            GateKind::Const1
        } else {
            GateKind::Const0
        };
        let n = self.add_gate(kind, &[]);
        self.const_nets[i] = Some(n);
        n
    }

    fn remove_gate(&mut self, id: GateId) {
        if let Some(g) = self.gates[id.index()].take() {
            self.driver[g.output.index()] = None;
            for cn in &mut self.const_nets {
                if *cn == Some(g.output) {
                    *cn = None;
                }
            }
        }
    }

    fn replace_net_uses(&mut self, old: NetId, new: NetId) {
        let map = HashMap::from([(old, new)]);
        self.remap_uses(&map);
    }

    fn remap_uses(&mut self, map: &HashMap<NetId, NetId>) {
        for g in self.gates.iter_mut().flatten() {
            for inp in &mut g.inputs {
                if let Some(&n) = map.get(inp) {
                    *inp = n;
                }
            }
        }
        for p in &mut self.outputs {
            for n in &mut p.nets {
                if let Some(&m) = map.get(n) {
                    *n = m;
                }
            }
        }
    }

    fn rewrite_gate(&mut self, id: GateId, kind: GateKind, inputs: &[NetId]) {
        let g = self.gates[id.index()].as_mut().expect("live gate");
        g.kind = kind;
        g.inputs = inputs.to_vec();
    }

    fn fanout_map(&self) -> Vec<Vec<GateId>> {
        let mut fo = vec![Vec::new(); self.net_names.len()];
        for (i, g) in self.gates.iter().enumerate() {
            for &inp in g.iter().flat_map(|g| &g.inputs) {
                fo[inp.index()].push(GateId(i as u32));
            }
        }
        fo
    }

    fn sweep(&mut self) -> usize {
        let mut live = vec![false; self.gates.len()];
        let mut stack: Vec<GateId> = Vec::new();
        let outs: Vec<NetId> = self.outputs.iter().flat_map(|p| p.nets.clone()).collect();
        for net in outs {
            if let Some(g) = self.driver[net.index()] {
                if !live[g.index()] {
                    live[g.index()] = true;
                    stack.push(g);
                }
            }
        }
        while let Some(g) = stack.pop() {
            let inputs = self.gates[g.index()].as_ref().unwrap().inputs.clone();
            for inp in inputs {
                if let Some(d) = self.driver[inp.index()] {
                    if !live[d.index()] {
                        live[d.index()] = true;
                        stack.push(d);
                    }
                }
            }
        }
        let mut removed = 0;
        for (i, alive) in live.iter().enumerate() {
            if self.gates[i].is_some() && !alive {
                self.remove_gate(GateId(i as u32));
                removed += 1;
            }
        }
        removed
    }

    fn num_gates(&self) -> usize {
        self.gates.iter().filter(|g| g.is_some()).count()
    }

    /// The word encoding as the Vec-per-gate netlist wrote it.
    fn encode_words(&self) -> Vec<u32> {
        let mut out = vec![self.net_names.len() as u32, self.gates.len() as u32];
        out.extend(self.const_nets.iter().map(|c| c.map_or(0, |n| n.0 + 1)));
        for slot in &self.gates {
            match slot {
                None => out.push(0),
                Some(g) => {
                    out.push(g.kind.word_code() + 1);
                    out.extend(g.inputs.iter().map(|n| n.0));
                    out.push(g.output.0);
                }
            }
        }
        out.extend(self.net_names.chunks(32).map(|chunk| {
            chunk
                .iter()
                .enumerate()
                .fold(0u32, |m, (i, n)| m | u32::from(n.is_some()) << i)
        }));
        let push_str = |out: &mut Vec<u32>, s: &str| {
            out.push(s.len() as u32);
            out.extend(s.as_bytes().chunks(4).map(|c| {
                let mut b = [0u8; 4];
                b[..c.len()].copy_from_slice(c);
                u32::from_le_bytes(b)
            }));
        };
        for name in self.net_names.iter().flatten() {
            push_str(&mut out, name);
        }
        for ports in [&self.inputs, &self.outputs] {
            out.push(ports.len() as u32);
            for p in ports {
                push_str(&mut out, &p.name);
                out.push(p.nets.len() as u32);
                out.extend(p.nets.iter().map(|n| n.0));
            }
        }
        out
    }
}

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

fn every_kind() -> Vec<GateKind> {
    let mut kinds = GateKind::all_combinational();
    for reset in [ResetKind::None, ResetKind::Sync, ResetKind::Async] {
        for init in [false, true] {
            kinds.push(GateKind::Dff { reset, init });
        }
    }
    kinds
}

fn assert_agree(nl: &Netlist, o: &Oracle, step: &str) {
    assert_eq!(nl.num_nets(), o.net_names.len(), "{step}: net count");
    assert_eq!(nl.num_gates(), o.num_gates(), "{step}: live-gate count");
    let gates: Vec<(GateId, OldGate)> = nl
        .gates()
        .map(|(id, g)| {
            let old = OldGate {
                kind: g.kind,
                inputs: g.inputs().to_vec(),
                output: g.output,
            };
            (id, old)
        })
        .collect();
    let old_gates: Vec<(GateId, OldGate)> = o
        .gates
        .iter()
        .enumerate()
        .filter_map(|(i, g)| g.clone().map(|g| (GateId(i as u32), g)))
        .collect();
    assert_eq!(gates, old_gates, "{step}: gates");
    let fanout: Fanout = nl.fanout_map();
    let counts = nl.fanout_counts();
    for (i, fo) in o.fanout_map().iter().enumerate() {
        let net = NetId(i as u32);
        assert_eq!(nl.driver(net), o.driver[i], "{step}: driver of {net:?}");
        assert_eq!(
            nl.net_name(net),
            o.net_names[i].as_deref(),
            "{step}: name of {net:?}"
        );
        assert_eq!(fanout.of(net), &fo[..], "{step}: fanout of {net:?}");
        assert_eq!(counts[i] as usize, fo.len(), "{step}: fanout count");
    }
    // `validate` skips the search when gate ids already order the
    // combinational edges; it must agree with the search.
    let searched = nl
        .gates()
        .find(|&(id, g)| nl.driver(g.output) != Some(id))
        .map_or_else(
            || crate::topo::topological_order(nl).map(|_| ()),
            |(_, g)| Err(NetlistError::MultipleDrivers { net: g.output }),
        );
    assert_eq!(nl.validate(), searched, "{step}: validate");
    assert_eq!(nl.inputs(), &o.inputs[..], "{step}: input ports");
    assert_eq!(nl.outputs(), &o.outputs[..], "{step}: output ports");
    let mut words = Vec::new();
    nl.encode_words(&mut words);
    assert_eq!(words, o.encode_words(), "{step}: word encoding");
    let back = Netlist::decode_words(nl.name(), &words).expect("own encoding decodes");
    assert!(&back == nl, "{step}: decode ∘ encode");
    assert!(&nl.clone() == nl, "{step}: clone");
}

/// One seeded run of `steps` random operations on both models.
fn run(seed: u64, steps: usize) {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let kinds = every_kind();
    let mut nl = Netlist::new(format!("diff{seed}"));
    let mut o = Oracle::default();
    let width = 1 + rng.below(4);
    assert_eq!(nl.add_input("x", width), o.add_input("x", width));
    for step in 0..steps {
        let nets = nl.num_nets();
        let net = |rng: &mut Rng| NetId(rng.below(nets) as u32);
        let op = rng.below(15);
        let label = format!("seed {seed} step {step} op {op}");
        match op {
            0..=3 => {
                let kind = kinds[rng.below(kinds.len())];
                let ins: Vec<NetId> = (0..kind.arity()).map(|_| net(&mut rng)).collect();
                assert_eq!(nl.add_gate(kind, &ins), o.add_gate(kind, &ins), "{label}");
            }
            4 => {
                // Any net, driven or not; a wrong arity now and then.
                let kind = kinds[rng.below(kinds.len())];
                let arity = if rng.below(8) == 0 {
                    (kind.arity() + 1) % 5
                } else {
                    kind.arity()
                };
                let ins: Vec<NetId> = (0..arity).map(|_| net(&mut rng)).collect();
                let out = net(&mut rng);
                let got = nl.attach_gate(kind, &ins, out);
                assert_eq!(got, o.attach_gate(kind, &ins, out), "{label}");
            }
            5 => {
                let name = match rng.below(4) {
                    0 => String::new(),
                    1 => format!("ñ→{}", rng.below(100)),
                    _ => format!("w{}[{}]", rng.below(10), rng.below(1000)),
                };
                let a = nl.add_named_net(&name);
                assert_eq!(a, o.add_named_net(name), "{label}");
            }
            6 => assert_eq!(nl.add_net(), o.add_net(), "{label}"),
            7 => {
                let slots = o.gates.len().max(1);
                let id = GateId(rng.below(slots) as u32);
                if id.index() < o.gates.len() {
                    nl.remove_gate(id);
                    o.remove_gate(id);
                }
            }
            8 => {
                let (a, b) = (net(&mut rng), net(&mut rng));
                nl.replace_net_uses(a, b);
                o.replace_net_uses(a, b);
            }
            9 => {
                let map: HashMap<NetId, NetId> = (0..1 + rng.below(4))
                    .map(|_| (net(&mut rng), net(&mut rng)))
                    .collect();
                nl.remap_uses(&map);
                o.remap_uses(&map);
            }
            10 => {
                // The cached constants stay constants.
                let live: Vec<GateId> = nl
                    .gates()
                    .filter(|(_, g)| !g.kind.is_constant())
                    .map(|(id, _)| id)
                    .collect();
                if !live.is_empty() {
                    let id = live[rng.below(live.len())];
                    let kind = kinds[rng.below(kinds.len())];
                    let ins: Vec<NetId> = (0..kind.arity()).map(|_| net(&mut rng)).collect();
                    nl.rewrite_gate(id, kind, &ins);
                    o.rewrite_gate(id, kind, &ins);
                }
            }
            11 => assert_eq!(nl.sweep(), o.sweep(), "{label}"),
            12 => {
                let v = rng.below(2) == 1;
                assert_eq!(nl.constant(v), o.constant(v), "{label}");
            }
            13 => {
                let port: Vec<NetId> = (0..1 + rng.below(3)).map(|_| net(&mut rng)).collect();
                let name = format!("y{step}");
                nl.add_output(name.clone(), &port);
                o.outputs.push(Port { name, nets: port });
            }
            _ => {
                let (name, w) = (format!("in{step}"), 1 + rng.below(3));
                assert_eq!(nl.add_input(name.clone(), w), o.add_input(&name, w));
            }
        }
        assert_agree(&nl, &o, &label);
    }
}

#[test]
fn flat_netlist_matches_the_vec_per_gate_model() {
    for seed in 0..40 {
        run(seed, 150);
    }
}

#[test]
fn rewrite_gate_panics_on_arity_mismatch_like_the_old_model() {
    let mut nl = Netlist::new("t");
    let a = nl.add_input("a", 2);
    let y = nl.add_gate(GateKind::And2, &a);
    let g = nl.driver(y).unwrap();
    let r = std::panic::catch_unwind(move || nl.rewrite_gate(g, GateKind::And3, &a));
    assert!(r.is_err());
}
