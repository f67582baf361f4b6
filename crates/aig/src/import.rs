//! Netlist → AIG conversion.

use crate::graph::{Aig, AigLit};
use crate::AigError;
use synthir_netlist::{topo, Gate, GateKind, NetId, Netlist, ResetKind};

/// A dense net → literal map (nets are small dense indices, so a flat
/// vector beats hashing on the import hot path).
#[derive(Clone, Debug, Default)]
pub struct NetLits {
    slots: Vec<Option<AigLit>>,
}

impl NetLits {
    fn with_capacity(nets: usize) -> NetLits {
        NetLits {
            slots: vec![None; nets],
        }
    }

    /// The literal of `net`, if the import assigned one.
    pub fn get(&self, net: NetId) -> Option<AigLit> {
        self.slots.get(net.index()).copied().flatten()
    }

    /// Whether `net` has a literal.
    pub fn contains(&self, net: NetId) -> bool {
        self.get(net).is_some()
    }

    fn insert(&mut self, net: NetId, l: AigLit) {
        if net.index() >= self.slots.len() {
            self.slots.resize(net.index() + 1, None);
        }
        self.slots[net.index()] = Some(l);
    }

    /// Iterates over the mapped `(net, literal)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NetId, AigLit)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.map(|l| (NetId(i as u32), l)))
    }
}

/// The result of importing a full netlist: the AIG plus the net → literal
/// map callers use to carry annotations (FSM state vectors, value-set
/// groups) across the round-trip.
#[derive(Clone, Debug)]
pub struct NetlistImport {
    /// The imported graph.
    pub aig: Aig,
    /// A literal for every net of the source netlist that the import
    /// visited (all driven nets, primary inputs, and flop outputs).
    pub lits: NetLits,
}

/// Imports a whole netlist: ports become AIG input/output ports, flops
/// become latches (reset flavour, reset cone, and init value preserved),
/// and every combinational gate is normalized into ANDs and complemented
/// edges — constant folding and structural hashing happen as a side effect
/// of construction.
///
/// Undriven internal nets import as constant false, matching the
/// simulator convention.
///
/// # Errors
///
/// Returns [`AigError::Cyclic`] if the combinational part is cyclic.
pub fn from_netlist(nl: &Netlist) -> Result<NetlistImport, AigError> {
    let order = topo::topological_order(nl).map_err(|e| AigError::Cyclic(e.to_string()))?;
    let mut imp = Importer {
        aig: Aig::new(nl.name()),
        lits: NetLits::with_capacity(nl.num_nets()),
    };
    for p in nl.inputs() {
        let port_lits = imp.aig.add_input_port(&p.name, p.nets.len());
        for (&net, &lit) in p.nets.iter().zip(&port_lits) {
            imp.lits.insert(net, lit);
        }
    }
    // Latches first: their outputs are combinational sources, and
    // `topological_order` lists them before the logic anyway.
    for (_, g) in nl.gates() {
        if let GateKind::Dff { reset, init } = g.kind {
            let q = imp.aig.add_latch(reset, init);
            imp.lits.insert(g.output, q);
        }
    }
    // Undriven nets that are not primary inputs read as constant false
    // (the simulator convention).
    for (_, g) in nl.gates() {
        for &i in &g.inputs {
            if nl.driver(i).is_none() && !imp.lits.contains(i) {
                imp.lits.insert(i, AigLit::FALSE);
            }
        }
    }
    for p in nl.outputs() {
        for &n in &p.nets {
            if nl.driver(n).is_none() && !imp.lits.contains(n) {
                imp.lits.insert(n, AigLit::FALSE);
            }
        }
    }
    for gid in order {
        let g = nl.gate(gid);
        if g.kind.is_sequential() {
            continue;
        }
        let lit = imp.gate_lit(g);
        imp.lits.insert(g.output, lit);
    }
    // Wire latch next-state and reset cones now that every net has a
    // literal.
    for (_, g) in nl.gates() {
        if let GateKind::Dff { reset, .. } = g.kind {
            let q = imp.lits.get(g.output).expect("latch mapped");
            let next = imp.net_lit(g.inputs[0]);
            let reset_lit = match reset {
                ResetKind::None => AigLit::FALSE,
                _ => imp.net_lit(g.inputs[1]),
            };
            imp.aig.set_latch_next(q, next, reset_lit);
        }
    }
    for p in nl.outputs() {
        let port_lits: Vec<AigLit> = p.nets.iter().map(|&n| imp.net_lit(n)).collect();
        imp.aig.add_output_port(&p.name, &port_lits);
    }
    Ok(NetlistImport {
        aig: imp.aig,
        lits: imp.lits,
    })
}

/// Shared import state: the graph under construction and the net →
/// literal map.
struct Importer {
    aig: Aig,
    lits: NetLits,
}

impl Importer {
    /// The literal of a net (every net is mapped before its readers).
    fn net_lit(&self, net: NetId) -> AigLit {
        self.lits.get(net).expect("net mapped before use")
    }

    /// Normalizes one combinational gate into the AIG.
    ///
    /// # Panics
    ///
    /// Panics on sequential gates (callers filter them).
    fn gate_lit(&mut self, g: &Gate) -> AigLit {
        let ins: Vec<AigLit> = g.inputs.iter().map(|&n| self.net_lit(n)).collect();
        let aig = &mut self.aig;
        use GateKind::*;
        match g.kind {
            Const0 => AigLit::FALSE,
            Const1 => AigLit::TRUE,
            Buf => ins[0],
            Inv => !ins[0],
            And2 | And3 | And4 => aig.and_all(&ins),
            Nand2 | Nand3 | Nand4 => !aig.and_all(&ins),
            Or2 | Or3 | Or4 => aig.or_all(&ins),
            Nor2 | Nor3 | Nor4 => !aig.or_all(&ins),
            Xor2 => aig.xor(ins[0], ins[1]),
            Xnor2 => !aig.xor(ins[0], ins[1]),
            Mux2 => aig.mux(ins[0], ins[2], ins[1]),
            Aoi21 => {
                let ab = aig.and(ins[0], ins[1]);
                !aig.or(ab, ins[2])
            }
            Oai21 => {
                let ab = aig.or(ins[0], ins[1]);
                !aig.and(ab, ins[2])
            }
            Aoi22 => {
                let ab = aig.and(ins[0], ins[1]);
                let cd = aig.and(ins[2], ins[3]);
                !aig.or(ab, cd)
            }
            Oai22 => {
                let ab = aig.or(ins[0], ins[1]);
                let cd = aig.or(ins[2], ins[3]);
                !aig.and(ab, cd)
            }
            Dff { .. } => unreachable!("sequential gates are handled by the caller"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Importing one netlist twice into one graph over shared inputs — the
    /// shape of an equivalence miter — yields identical output literals, so
    /// the miter target hashes to false with no solver call.
    #[test]
    fn double_import_over_shared_inputs_hashes_to_a_false_miter() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 2);
        let b = nl.add_input("b", 1)[0];
        let x = nl.add_gate(GateKind::Xor2, &[a[0], b]);
        let m = nl.add_gate(GateKind::Mux2, &[a[1], x, b]);
        let y = nl.add_gate(GateKind::Aoi21, &[m, a[0], x]);
        nl.add_output("y", &[y, m]);
        let g = from_netlist(&nl).unwrap().aig;
        let live = g.live_marks(&[]);
        let mut miter = Aig::new("miter");
        let shared: Vec<AigLit> = (0..3).map(|_| miter.add_input()).collect();
        let mut outs = Vec::new();
        let mut sizes = Vec::new();
        for _ in 0..2 {
            let mut map = vec![AigLit::FALSE; g.node_count()];
            let ports = g.input_ports().iter().flat_map(|p| &p.lits);
            for (old, &new) in ports.zip(&shared) {
                map[old.node() as usize] = new;
            }
            miter.copy_ands(&g, &live, &mut map, |m, _, _, a, b| m.and(a, b));
            let port = &g.output_ports()[0];
            outs.push(
                port.lits
                    .iter()
                    .map(|l| l.translate(&map))
                    .collect::<Vec<_>>(),
            );
            sizes.push(miter.and_count());
        }
        assert_eq!(outs[0], outs[1]);
        assert_eq!(sizes[0], sizes[1], "the second copy hashed onto the first");
        let diffs: Vec<AigLit> = (0..2).map(|i| miter.xor(outs[0][i], outs[1][i])).collect();
        assert_eq!(miter.or_all(&diffs), AigLit::FALSE);
    }
}
