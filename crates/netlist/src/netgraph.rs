//! The netlist graph structure.

use crate::cell::GateKind;
use crate::library::Library;
use crate::report::AreaReport;
use crate::sha256::UnitHasher;
use crate::NetlistError;
use std::collections::HashMap;
use std::sync::OnceLock;

#[cfg(test)]
mod oracle;
mod words;

pub use words::EncodedNetlist;

/// Identifier of a net (a single-bit wire).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// Identifier of a gate instance.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct GateId(pub u32);

impl NetId {
    /// The net's index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl GateId {
    /// The gate's index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The most input pins a gate kind has (`And4`, `Or4`, `Nand4`, `Nor4`,
/// `Aoi22`, `Oai22`; a flop has at most two).
pub(crate) const MAX_PINS: usize = 4;

/// The value of every pin past a gate's arity, so that two gates with the
/// same kind, inputs and output are equal as plain data.
const NO_PIN: NetId = NetId(u32::MAX);

/// A single-output gate instance: plain `Copy` data, its input pins held
/// inline.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    /// The gate kind.
    pub kind: GateKind,
    /// The first `kind.arity()` pins are the inputs; the rest are
    /// [`NO_PIN`].
    pins: [NetId; MAX_PINS],
    /// Output net.
    pub output: NetId,
}

impl Gate {
    /// # Panics
    ///
    /// Panics unless `inputs` has exactly `kind.arity()` nets.
    fn new(kind: GateKind, inputs: &[NetId], output: NetId) -> Gate {
        assert_eq!(inputs.len(), kind.arity(), "arity mismatch for {kind:?}");
        let pins = std::array::from_fn(|i| inputs.get(i).copied().unwrap_or(NO_PIN));
        Gate { kind, pins, output }
    }

    /// Input nets, in the order defined by [`GateKind`].
    pub fn inputs(&self) -> &[NetId] {
        &self.pins[..self.kind.arity()]
    }

    fn inputs_mut(&mut self) -> &mut [NetId] {
        let arity = self.kind.arity();
        &mut self.pins[..arity]
    }
}

impl std::fmt::Debug for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gate")
            .field("kind", &self.kind)
            .field("inputs", &self.inputs())
            .field("output", &self.output)
            .finish()
    }
}

/// A named port bus.
#[derive(Clone, Debug, PartialEq)]
pub struct Port {
    /// Port name.
    pub name: String,
    /// The port's nets, least-significant bit first.
    pub nets: Vec<NetId>,
}

/// The names of the named nets, all in one string.
///
/// A net can only be named when it is created, and a new net has the
/// highest id so far, so appending keeps `ends` sorted by net.
#[derive(Clone, Debug, Default, PartialEq)]
struct NetNames {
    /// Every name, concatenated in net order.
    text: String,
    /// Per named net, in ascending net order: the net and the end of its
    /// name in `text` (a name starts where the previous one ends).
    ends: Vec<(NetId, u32)>,
}

impl NetNames {
    /// Records that the text appended since the last name names `net`.
    fn close(&mut self, net: NetId) {
        debug_assert!(self.ends.last().is_none_or(|&(n, _)| n < net));
        let end = u32::try_from(self.text.len()).expect("net names total under 4 GiB");
        self.ends.push((net, end));
    }

    fn get(&self, net: NetId) -> Option<&str> {
        let i = self.ends.binary_search_by_key(&net, |&(n, _)| n).ok()?;
        Some(&self.text[self.start(i) as usize..self.ends[i].1 as usize])
    }

    fn start(&self, i: usize) -> u32 {
        if i == 0 {
            0
        } else {
            self.ends[i - 1].1
        }
    }

    /// The named nets and their names, in net order.
    fn iter(&self) -> impl Iterator<Item = (NetId, &str)> + '_ {
        (0..self.ends.len()).map(|i| {
            let (net, end) = self.ends[i];
            (net, &self.text[self.start(i) as usize..end as usize])
        })
    }
}

/// Per-net fanout in compressed-row form: see [`Netlist::fanout_map`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Fanout {
    /// Net `n`'s readers are `gates[offsets[n]..offsets[n + 1]]`.
    offsets: Vec<u32>,
    gates: Vec<GateId>,
}

impl Fanout {
    /// The live gates reading `net`, in gate-id order; a gate reading the
    /// net on several pins appears once per pin.
    pub fn of(&self, net: NetId) -> &[GateId] {
        let i = net.index();
        &self.gates[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// The memoized [`Netlist::key_state`]. It is a function of the rest of the
/// netlist, so equality ignores it (and `Debug` leaves it out).
#[derive(Clone, Default)]
struct KeyMemo(OnceLock<UnitHasher>);

impl PartialEq for KeyMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// A flat gate-level module.
///
/// See the [crate-level documentation](crate) for the layout and an
/// example. Equality is structural and exact: the same name, gate slots
/// (removed gates included), net numbering, net names, ports and cached
/// constant nets.
#[derive(Clone, Default, PartialEq)]
pub struct Netlist {
    name: String,
    /// Gate slots in id order; `None` is a removed gate.
    gates: Vec<Option<Gate>>,
    /// Per net: the gate driving it.
    driver: Vec<Option<GateId>>,
    names: NetNames,
    inputs: Vec<Port>,
    outputs: Vec<Port>,
    const_nets: [Option<NetId>; 2],
    /// How many slots of `gates` hold a gate.
    live: usize,
    /// Cleared by every method that changes what `encode_words` writes.
    key: KeyMemo,
}

impl std::fmt::Debug for Netlist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Netlist")
            .field("name", &self.name)
            .field("gates", &self.gates)
            .field("driver", &self.driver)
            .field("names", &self.names)
            .field("inputs", &self.inputs)
            .field("outputs", &self.outputs)
            .field("const_nets", &self.const_nets)
            .field("live", &self.live)
            .finish_non_exhaustive()
    }
}

impl Netlist {
    /// Creates an empty netlist named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the module. The name is not encoded, so the
    /// [`Netlist::key_state`] is kept.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The [`UnitHasher`] after hashing this netlist's
    /// [`Netlist::encode_words`]: the state every key that starts with the
    /// netlist continues from. It is computed on first use and kept, in
    /// clones too, until a method changes the netlist.
    pub fn key_state(&self) -> &UnitHasher {
        self.key.0.get_or_init(|| {
            let mut words = Vec::new();
            self.encode_words(&mut words);
            words::key_state_of(&words)
        })
    }

    /// Forgets the [`Netlist::key_state`]: every method that changes what
    /// [`Netlist::encode_words`] writes calls this.
    fn edited(&mut self) {
        self.key.0.take();
    }

    /// Reserves room for at least `gates` more gates and `nets` more nets,
    /// so that building a netlist of a known size does not regrow its
    /// arrays.
    pub fn reserve(&mut self, gates: usize, nets: usize) {
        self.gates.reserve(gates);
        self.driver.reserve(nets);
    }

    /// Creates a fresh anonymous net.
    pub fn add_net(&mut self) -> NetId {
        self.edited();
        let id = NetId(self.driver.len() as u32);
        self.driver.push(None);
        id
    }

    /// Creates a fresh net named by `name`'s display form, which is written
    /// straight into the netlist's name store (pass `format_args!` to build
    /// a name without an intermediate `String`).
    pub fn add_named_net(&mut self, name: impl std::fmt::Display) -> NetId {
        use std::fmt::Write;
        let id = self.add_net();
        write!(self.names.text, "{name}").expect("a name's Display does not fail");
        self.names.close(id);
        id
    }

    /// The optional name of a net.
    pub fn net_name(&self, net: NetId) -> Option<&str> {
        self.names.get(net)
    }

    /// Number of nets ever created (including dangling ones).
    pub fn num_nets(&self) -> usize {
        self.driver.len()
    }

    /// Declares an input port bus of `width` bits; returns its nets
    /// (LSB first).
    pub fn add_input(&mut self, name: impl Into<String>, width: usize) -> Vec<NetId> {
        self.edited();
        let name = name.into();
        let nets: Vec<NetId> = (0..width)
            .map(|i| self.add_named_net(format_args!("{name}[{i}]")))
            .collect();
        self.inputs.push(Port {
            name,
            nets: nets.clone(),
        });
        nets
    }

    /// Declares an output port bus connected to existing nets (LSB first).
    pub fn add_output(&mut self, name: impl Into<String>, nets: &[NetId]) {
        self.edited();
        self.outputs.push(Port {
            name: name.into(),
            nets: nets.to_vec(),
        });
    }

    /// Input ports.
    pub fn inputs(&self) -> &[Port] {
        &self.inputs
    }

    /// Output ports.
    pub fn outputs(&self) -> &[Port] {
        &self.outputs
    }

    /// Looks up an input port by name.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownPort`] if no such input exists.
    pub fn input(&self, name: &str) -> Result<&Port, NetlistError> {
        self.inputs
            .iter()
            .find(|p| p.name == name)
            .ok_or_else(|| NetlistError::UnknownPort { name: name.into() })
    }

    /// Looks up an output port by name.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownPort`] if no such output exists.
    pub fn output(&self, name: &str) -> Result<&Port, NetlistError> {
        self.outputs
            .iter()
            .find(|p| p.name == name)
            .ok_or_else(|| NetlistError::UnknownPort { name: name.into() })
    }

    /// All primary-input nets in port order.
    pub fn input_nets(&self) -> Vec<NetId> {
        self.inputs
            .iter()
            .flat_map(|p| p.nets.iter().copied())
            .collect()
    }

    /// All primary-output nets in port order.
    pub fn output_nets(&self) -> Vec<NetId> {
        self.outputs
            .iter()
            .flat_map(|p| p.nets.iter().copied())
            .collect()
    }

    /// Adds a gate, creating and returning its output net.
    ///
    /// # Panics
    ///
    /// Panics on input-arity mismatch.
    pub fn add_gate(&mut self, kind: GateKind, inputs: &[NetId]) -> NetId {
        self.try_add_gate(kind, inputs).expect("valid gate")
    }

    /// Adds a gate, creating and returning its output net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] if the number of inputs does
    /// not match the gate kind.
    pub fn try_add_gate(
        &mut self,
        kind: GateKind,
        inputs: &[NetId],
    ) -> Result<NetId, NetlistError> {
        if inputs.len() != kind.arity() {
            return Err(NetlistError::ArityMismatch {
                kind,
                got: inputs.len(),
                expected: kind.arity(),
            });
        }
        let output = self.add_net();
        self.attach_gate(kind, inputs, output)?;
        Ok(output)
    }

    /// Adds a gate driving an existing (so far undriven) net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] or
    /// [`NetlistError::MultipleDrivers`].
    pub fn attach_gate(
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
        self.edited();
        let id = GateId(self.gates.len() as u32);
        self.gates.push(Some(Gate::new(kind, inputs, output)));
        self.driver[output.index()] = Some(id);
        self.live += 1;
        Ok(id)
    }

    /// The constant-zero net (created on first use).
    pub fn const0(&mut self) -> NetId {
        if let Some(n) = self.const_nets[0] {
            return n;
        }
        let n = self.add_gate(GateKind::Const0, &[]);
        self.const_nets[0] = Some(n);
        n
    }

    /// The constant-one net (created on first use).
    pub fn const1(&mut self) -> NetId {
        if let Some(n) = self.const_nets[1] {
            return n;
        }
        let n = self.add_gate(GateKind::Const1, &[]);
        self.const_nets[1] = Some(n);
        n
    }

    /// The constant net for `value`.
    pub fn constant(&mut self, value: bool) -> NetId {
        if value {
            self.const1()
        } else {
            self.const0()
        }
    }

    /// Whether `net` is one of the cached constant nets, and its value.
    pub fn as_constant(&self, net: NetId) -> Option<bool> {
        match self.driver(net).map(|g| self.gate(g).kind) {
            Some(GateKind::Const0) => Some(false),
            Some(GateKind::Const1) => Some(true),
            _ => None,
        }
    }

    /// The gate driving a net, if any.
    pub fn driver(&self, net: NetId) -> Option<GateId> {
        self.driver[net.index()]
    }

    /// A live gate by id.
    ///
    /// # Panics
    ///
    /// Panics if the gate was removed.
    pub fn gate(&self, id: GateId) -> &Gate {
        self.gates[id.index()].as_ref().expect("live gate")
    }

    /// Whether a gate id refers to a live gate.
    pub fn is_live(&self, id: GateId) -> bool {
        self.gates
            .get(id.index())
            .map(|g| g.is_some())
            .unwrap_or(false)
    }

    /// Iterator over live gates.
    pub fn gates(&self) -> impl Iterator<Item = (GateId, &Gate)> + '_ {
        self.gates
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.as_ref().map(|g| (GateId(i as u32), g)))
    }

    /// Number of live gates.
    pub fn num_gates(&self) -> usize {
        self.live
    }

    /// Removes a gate, leaving its output net undriven.
    pub fn remove_gate(&mut self, id: GateId) {
        if let Some(g) = self.gates[id.index()].take() {
            self.edited();
            self.live -= 1;
            self.driver[g.output.index()] = None;
            for cn in &mut self.const_nets {
                if *cn == Some(g.output) {
                    debug_assert!(g.kind.is_constant());
                    *cn = None;
                }
            }
        }
    }

    /// Rewires every use of `old` (gate inputs and output ports) to `new`.
    /// The driver of `old`, if any, is left in place (and will be swept if
    /// it becomes dead).
    pub fn replace_net_uses(&mut self, old: NetId, new: NetId) {
        if old == new {
            return;
        }
        self.rewire(|n| (n == old).then_some(new));
    }

    /// Rewires every use of each key net (gate inputs and output ports) to
    /// its mapped net in one sweep — the bulk form of
    /// [`Netlist::replace_net_uses`], used by passes that accumulate many
    /// merges and apply them at once instead of rescanning the netlist per
    /// merge. Drivers of the remapped nets are left in place (dead ones are
    /// removed by [`Netlist::sweep`]).
    pub fn remap_uses(&mut self, map: &HashMap<NetId, NetId>) {
        if map.is_empty() {
            return;
        }
        self.rewire(|n| map.get(&n).copied());
    }

    /// Replaces each gate input and output-port net `n` for which `to(n)`
    /// is `Some`.
    fn rewire(&mut self, to: impl Fn(NetId) -> Option<NetId>) {
        self.edited();
        let gate_pins = self.gates.iter_mut().flatten().flat_map(Gate::inputs_mut);
        let port_nets = self.outputs.iter_mut().flat_map(|p| p.nets.iter_mut());
        for n in gate_pins.chain(port_nets) {
            if let Some(m) = to(*n) {
                *n = m;
            }
        }
    }

    /// Rewrites one gate in place (same output net, new kind/inputs). A
    /// cached constant net whose driver stops being that constant is
    /// forgotten, so [`Netlist::constant`] makes a fresh one.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch or if the gate is dead.
    pub fn rewrite_gate(&mut self, id: GateId, kind: GateKind, inputs: &[NetId]) {
        self.edited();
        let g = self.gates[id.index()].as_mut().expect("live gate");
        *g = Gate::new(kind, inputs, g.output);
        for (cn, k) in self
            .const_nets
            .iter_mut()
            .zip([GateKind::Const0, GateKind::Const1])
        {
            if *cn == Some(g.output) && kind != k {
                *cn = None;
            }
        }
    }

    /// Per net, how many pins of live gates read it.
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.num_nets()];
        for (_, g) in self.gates() {
            for &inp in g.inputs() {
                counts[inp.index()] += 1;
            }
        }
        counts
    }

    /// Per-net fanout: the live gates reading each net, as one flat array
    /// (see [`Fanout::of`]).
    pub fn fanout_map(&self) -> Fanout {
        let mut offsets = Vec::with_capacity(self.num_nets() + 1);
        offsets.push(0u32);
        let mut total = 0;
        for c in self.fanout_counts() {
            total += c;
            offsets.push(total);
        }
        // Fill each net's range from its front; `next` ends as `offsets`
        // shifted by one net.
        let mut next = offsets[..self.num_nets()].to_vec();
        let mut gates = vec![GateId(0); total as usize];
        for (id, g) in self.gates() {
            for &inp in g.inputs() {
                let at = &mut next[inp.index()];
                gates[*at as usize] = id;
                *at += 1;
            }
        }
        Fanout { offsets, gates }
    }

    /// Removes gates whose outputs transitively reach no output port.
    /// Returns the number of gates removed.
    pub fn sweep(&mut self) -> usize {
        let mut live = vec![false; self.gates.len()];
        let mut stack: Vec<GateId> = Vec::new();
        for p in &self.outputs {
            for &net in &p.nets {
                if let Some(g) = self.driver(net) {
                    if !live[g.index()] {
                        live[g.index()] = true;
                        stack.push(g);
                    }
                }
            }
        }
        while let Some(g) = stack.pop() {
            for &inp in self.gate(g).inputs() {
                if let Some(d) = self.driver(inp) {
                    if !live[d.index()] {
                        live[d.index()] = true;
                        stack.push(d);
                    }
                }
            }
        }
        let before = self.live;
        for (i, alive) in live.iter().enumerate() {
            if !alive {
                self.remove_gate(GateId(i as u32));
            }
        }
        before - self.live
    }
    /// Gate-count histogram by kind.
    pub fn gate_histogram(&self) -> HashMap<GateKind, usize> {
        let mut h = HashMap::new();
        for (_, g) in self.gates() {
            *h.entry(g.kind).or_insert(0) += 1;
        }
        h
    }

    /// Computes the area report under a library.
    pub fn area_report(&self, lib: &Library) -> AreaReport {
        let mut comb = 0.0;
        let mut seq = 0.0;
        for (_, g) in self.gates() {
            let a = lib.area(g.kind);
            if g.kind.is_sequential() {
                seq += a;
            } else {
                comb += a;
            }
        }
        AreaReport {
            combinational: comb,
            sequential: seq,
        }
    }

    /// Number of sequential elements.
    pub fn flop_count(&self) -> usize {
        self.gates().filter(|(_, g)| g.kind.is_sequential()).count()
    }

    /// Checks structural invariants: drivers are consistent and the
    /// combinational part is acyclic. (Arity holds by construction.)
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (id, g) in self.gates() {
            if self.driver[g.output.index()] != Some(id) {
                return Err(NetlistError::MultipleDrivers { net: g.output });
            }
        }
        if self.ids_order_comb_edges() {
            return Ok(());
        }
        crate::topo::topological_order(self).map(|_| ())
    }

    /// Whether every combinational gate reads only nets driven by lower
    /// gate ids, flops, constants or nothing. Then gate ids are a
    /// topological order and the netlist is acyclic without a search, as
    /// for a netlist built driver first (elaboration, decoding, mapping).
    fn ids_order_comb_edges(&self) -> bool {
        self.gates().all(|(id, g)| {
            g.kind.is_sequential()
                || g.inputs().iter().all(|&n| match self.driver(n) {
                    None => true,
                    Some(d) => {
                        let k = self.gate(d).kind;
                        d < id || k.is_sequential() || k.is_constant()
                    }
                })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::ResetKind;

    fn tiny() -> Netlist {
        let mut nl = Netlist::new("tiny");
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_input("b", 1)[0];
        let y = nl.add_gate(GateKind::And2, &[a, b]);
        nl.add_output("y", &[y]);
        nl
    }

    #[test]
    fn build_and_query() {
        let nl = tiny();
        assert_eq!(nl.num_gates(), 1);
        assert_eq!(nl.inputs().len(), 2);
        assert_eq!(nl.output("y").unwrap().nets.len(), 1);
        assert!(nl.output("z").is_err());
        let y = nl.output_nets()[0];
        let g = nl.driver(y).unwrap();
        assert_eq!(nl.gate(g).kind, GateKind::And2);
        nl.validate().unwrap();
    }

    #[test]
    fn arity_checked() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let r = nl.try_add_gate(GateKind::And2, &[a]);
        assert!(matches!(r, Err(NetlistError::ArityMismatch { .. })));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let y = nl.add_gate(GateKind::Buf, &[a]);
        let r = nl.attach_gate(GateKind::Inv, &[a], y);
        assert!(matches!(r, Err(NetlistError::MultipleDrivers { .. })));
    }

    #[test]
    fn constants_are_cached() {
        let mut nl = Netlist::new("t");
        let c0 = nl.const0();
        assert_eq!(nl.const0(), c0);
        assert_eq!(nl.as_constant(c0), Some(false));
        let c1 = nl.const1();
        assert_eq!(nl.as_constant(c1), Some(true));
        assert_eq!(nl.constant(true), c1);
    }

    #[test]
    fn replace_net_uses_rewires() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_input("b", 1)[0];
        let y = nl.add_gate(GateKind::And2, &[a, b]);
        nl.add_output("y", &[y]);
        let c1 = nl.const1();
        nl.replace_net_uses(b, c1);
        let g = nl.driver(y).unwrap();
        assert_eq!(nl.gate(g).inputs()[1], c1);
    }

    #[test]
    fn sweep_removes_dead_logic() {
        let mut nl = tiny();
        let a = nl.input("a").unwrap().nets[0];
        // Dead inverter.
        let _dead = nl.add_gate(GateKind::Inv, &[a]);
        assert_eq!(nl.num_gates(), 2);
        let removed = nl.sweep();
        assert_eq!(removed, 1);
        assert_eq!(nl.num_gates(), 1);
    }

    #[test]
    fn sweep_keeps_sequential_loops_reaching_outputs() {
        let mut nl = Netlist::new("counter_bit");
        let q = nl.add_net();
        let nq = nl.add_gate(GateKind::Inv, &[q]);
        let rst = nl.add_input("rst", 1)[0];
        nl.attach_gate(
            GateKind::Dff {
                reset: ResetKind::Sync,
                init: false,
            },
            &[nq, rst],
            q,
        )
        .unwrap();
        nl.add_output("q", &[q]);
        assert_eq!(nl.sweep(), 0);
        assert_eq!(nl.num_gates(), 2);
    }

    #[test]
    fn validate_finds_cycles_whatever_the_gate_order() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let late = nl.add_net();
        // Built consumer first: ids do not order this acyclic netlist.
        let y = nl.add_gate(GateKind::And2, &[a, late]);
        nl.attach_gate(GateKind::Inv, &[a], late).unwrap();
        nl.add_output("y", &[y]);
        nl.validate().unwrap();
        // Closing a loop through the later gate.
        let g = nl.driver(late).unwrap();
        nl.rewrite_gate(g, GateKind::Inv, &[y]);
        assert_eq!(nl.validate(), Err(NetlistError::CombinationalCycle));
        // A gate reading itself.
        let mut nl = Netlist::new("self_loop");
        let x = nl.add_net();
        nl.attach_gate(GateKind::Buf, &[x], x).unwrap();
        assert_eq!(nl.validate(), Err(NetlistError::CombinationalCycle));
    }

    #[test]
    fn area_report_splits_comb_seq() {
        let mut nl = tiny();
        let a = nl.input("a").unwrap().nets[0];
        let q = nl.add_gate(
            GateKind::Dff {
                reset: ResetKind::None,
                init: false,
            },
            &[a],
        );
        nl.add_output("q", &[q]);
        let lib = Library::vt90();
        let rep = nl.area_report(&lib);
        assert!(rep.combinational > 0.0);
        assert!(rep.sequential > 10.0);
        assert_eq!(rep.total(), rep.combinational + rep.sequential);
        assert_eq!(nl.flop_count(), 1);
    }

    #[test]
    fn histogram_counts_kinds() {
        let nl = tiny();
        let h = nl.gate_histogram();
        assert_eq!(h.get(&GateKind::And2), Some(&1));
    }

    #[test]
    fn rewrite_gate_in_place() {
        let mut nl = tiny();
        let y = nl.output_nets()[0];
        let g = nl.driver(y).unwrap();
        let ins = *nl.gate(g);
        nl.rewrite_gate(g, GateKind::Or2, ins.inputs());
        assert_eq!(nl.gate(g).kind, GateKind::Or2);
        nl.validate().unwrap();
    }

    #[test]
    fn rewriting_a_cached_constant_forgets_it() {
        let mut nl = tiny();
        let a = nl.input("a").unwrap().nets[0];
        for v in [false, true] {
            let c = nl.constant(v);
            nl.rewrite_gate(nl.driver(c).unwrap(), GateKind::Buf, &[a]);
            let fresh = nl.constant(v);
            assert_ne!(fresh, c);
            assert_eq!(nl.as_constant(fresh), Some(v));
        }
        // Rewriting a constant into itself keeps the cache.
        let c = nl.const0();
        nl.rewrite_gate(nl.driver(c).unwrap(), GateKind::Const0, &[]);
        assert_eq!(nl.const0(), c);
    }
}
