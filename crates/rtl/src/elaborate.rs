//! Elaboration: bit-blasting RTL modules into gate-level netlists.
//!
//! [`elaborate()`] serves repeated modules from a process-wide memo;
//! [`elaborate_fresh`] is the elaborator itself.

use crate::expr::{BinOp, Expr, ReduceOp};
use crate::module::{Memory, Module};
use crate::RtlError;
use std::collections::HashMap;
use std::sync::OnceLock;
use synthir_logic::ValueSet;
use synthir_netlist::sha256::{Digest, UnitHasher};
use synthir_netlist::store::{Lookup, Store, BUDGET};
use synthir_netlist::{EncodedNetlist, GateKind, NetId, Netlist, ResetKind};

/// A value-set annotation resolved to concrete nets (LSB first).
#[derive(Clone, Debug, PartialEq)]
pub struct NetGroupValues {
    /// The nets of the annotated group, LSB first.
    pub nets: Vec<NetId>,
    /// The values the group may take.
    pub values: ValueSet,
}

/// FSM metadata resolved to concrete nets.
#[derive(Clone, Debug, PartialEq)]
pub struct FsmNets {
    /// State-register output nets, LSB first.
    pub state_nets: Vec<NetId>,
    /// The reachable-by-construction state codes.
    pub codes: Vec<u128>,
    /// The reset state's code.
    pub reset_code: u128,
}

/// The result of elaborating a [`Module`].
#[derive(Clone, Debug, PartialEq)]
pub struct Elaborated {
    /// The gate-level netlist.
    pub netlist: Netlist,
    /// Map from signal names (inputs, wires, register outputs) to nets.
    pub signals: HashMap<String, Vec<NetId>>,
    /// FSM metadata carried through from the module, if any.
    pub fsm: Option<FsmNets>,
    /// Value-set annotations resolved to nets.
    pub annotations: Vec<NetGroupValues>,
}

/// Elaborates a module into a netlist, serving a module that declares a
/// memory from a process-wide memo.
///
/// A chip generator asks for the same hardware again and again: a
/// programmable lowering depends only on its interface, and a memory is
/// where elaboration expands depth × width into gates. So a module with a
/// memory is keyed by the SHA-256 of its [`Module::encode_words`] (which
/// leaves out the name) and looked up in a byte-budgeted [`Store`] of
/// [`BUDGET`] bytes; the doorkeeper admits an elaboration on its second
/// miss. A hit is the stored elaboration under `m`'s name, equal to what
/// [`elaborate_fresh`] returns, and its netlist already carries its
/// [`Netlist::key_state`], so a compile cache keyed on it hashes only what
/// follows the netlist. A module without a memory costs about as much to
/// hash as to elaborate, so it is always elaborated fresh. Errors are never
/// memoized.
///
/// # Errors
///
/// As [`elaborate_fresh`].
pub fn elaborate(m: &Module) -> Result<Elaborated, RtlError> {
    if m.memories().is_empty() {
        return elaborate_fresh(m);
    }
    let digest = module_key(m);
    match memo().lookup(&digest) {
        Lookup::Hit(stored) => Ok(stored.elaborated(m.name())),
        Lookup::Miss { admit } => {
            let e = elaborate_fresh(m)?;
            if admit {
                let stored = Memoized::new(&e);
                let bytes = stored.bytes();
                memo().insert(digest, stored, bytes);
            }
            Ok(e)
        }
    }
}

/// The memo key of a module: the SHA-256 of its word encoding, hashed as
/// 16-bit units.
fn module_key(m: &Module) -> Digest {
    let mut words = Vec::new();
    m.encode_words(&mut words);
    let mut h = UnitHasher::new();
    h.update(&words);
    h.finish()
}

fn memo() -> &'static Store<Memoized> {
    static MEMO: OnceLock<Store<Memoized>> = OnceLock::new();
    MEMO.get_or_init(|| Store::new(BUDGET))
}

/// One memoized elaboration: the netlist as its encoding and key state
/// (a third of the flat netlist's bytes), the rest as it is.
struct Memoized {
    netlist: EncodedNetlist,
    signals: Vec<(String, Vec<NetId>)>,
    fsm: Option<FsmNets>,
    annotations: Vec<NetGroupValues>,
}

impl Memoized {
    fn new(e: &Elaborated) -> Memoized {
        Memoized {
            netlist: e.netlist.to_encoded(),
            signals: e
                .signals
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            fsm: e.fsm.clone(),
            annotations: e.annotations.clone(),
        }
    }

    /// The bytes this entry counts against the budget.
    fn bytes(&self) -> usize {
        let nets = |n: &[NetId]| std::mem::size_of_val(n);
        let signals: usize = self
            .signals
            .iter()
            .map(|(k, v)| std::mem::size_of::<(String, Vec<NetId>)>() + k.len() + nets(v))
            .sum();
        let fsm = self.fsm.as_ref().map_or(0, |f| {
            nets(&f.state_nets) + std::mem::size_of_val(&f.codes[..])
        });
        let annotations: usize = self
            .annotations
            .iter()
            .map(|a| {
                let values = match &a.values {
                    ValueSet::All { .. } => 0,
                    ValueSet::Values { values, .. } => 16 * values.len(),
                };
                std::mem::size_of::<NetGroupValues>() + nets(&a.nets) + values
            })
            .sum();
        std::mem::size_of::<Memoized>() + self.netlist.bytes() + signals + fsm + annotations
    }

    /// The stored elaboration, its module named `name`.
    fn elaborated(&self, name: &str) -> Elaborated {
        Elaborated {
            netlist: self.netlist.decode(name),
            signals: self.signals.iter().cloned().collect(),
            fsm: self.fsm.clone(),
            annotations: self.annotations.clone(),
        }
    }
}

/// Elaborates a module into a netlist, without the memo of
/// [`elaborate()`].
///
/// # Errors
///
/// Returns an [`RtlError`] for undeclared or duplicate signals, width
/// mismatches, out-of-range indices, combinational wire cycles, or
/// ill-formed memories.
pub fn elaborate_fresh(m: &Module) -> Result<Elaborated, RtlError> {
    m.check_names()?;
    let mut ctx = Ctx::new(m)?;
    ctx.resolve_wires()?;
    ctx.elaborate_outputs()?;
    ctx.elaborate_registers()?;
    ctx.elaborate_memories()?;
    ctx.finish()
}

struct Ctx<'m> {
    m: &'m Module,
    nl: Netlist,
    signals: HashMap<String, Vec<NetId>>,
    /// Per programmable memory: storage nets `[word][bit]`.
    mem_storage: HashMap<String, Vec<Vec<NetId>>>,
    rst: Option<NetId>,
}

impl<'m> Ctx<'m> {
    fn new(m: &'m Module) -> Result<Self, RtlError> {
        // Validated before sizing: an ill-formed depth must be refused, not
        // reserved for.
        for mem in m.memories() {
            validate_memory(mem)?;
        }
        let mut nl = Netlist::new(m.name());
        let (gates, nets) = size_hint(m);
        nl.reserve(gates, nets);
        let mut signals = HashMap::new();
        for (name, width) in m.inputs() {
            let nets = nl.add_input(name.clone(), *width);
            signals.insert(name.clone(), nets);
        }
        let rst = if m.needs_reset() {
            Some(match signals.get("rst") {
                Some(nets) if nets.len() == 1 => nets[0],
                Some(_) => {
                    return Err(RtlError::WidthMismatch {
                        context: "reset input `rst`".into(),
                        left: signals["rst"].len(),
                        right: 1,
                    })
                }
                None => nl.add_input("rst", 1)[0],
            })
        } else {
            None
        };
        // Pre-create register output nets so next-state logic can reference
        // them.
        for r in m.registers() {
            let nets: Vec<NetId> = (0..r.width)
                .map(|i| nl.add_named_net(format_args!("{}[{i}]", r.name)))
                .collect();
            signals.insert(r.name.clone(), nets);
        }
        // Pre-create storage for programmable memories.
        let mut mem_storage = HashMap::new();
        for mem in m.memories() {
            if mem.contents.is_none() {
                let words: Vec<Vec<NetId>> = (0..mem.depth)
                    .map(|w| {
                        (0..mem.width)
                            .map(|b| nl.add_named_net(format_args!("{}[{w}][{b}]", mem.name)))
                            .collect()
                    })
                    .collect();
                mem_storage.insert(mem.name.clone(), words);
            }
        }
        Ok(Ctx {
            m,
            nl,
            signals,
            mem_storage,
            rst,
        })
    }

    /// Topologically orders and elaborates the named wires.
    fn resolve_wires(&mut self) -> Result<(), RtlError> {
        let wires = self.m.wires();
        let index: HashMap<&str, usize> = wires
            .iter()
            .enumerate()
            .map(|(i, (n, _, _))| (n.as_str(), i))
            .collect();
        // 0 unvisited, 1 in progress, 2 done
        let mut state = vec![0u8; wires.len()];
        let mut order: Vec<usize> = Vec::with_capacity(wires.len());
        fn dfs(
            i: usize,
            wires: &[(String, usize, Expr)],
            index: &HashMap<&str, usize>,
            state: &mut [u8],
            order: &mut Vec<usize>,
        ) -> Result<(), RtlError> {
            match state[i] {
                2 => return Ok(()),
                1 => {
                    return Err(RtlError::CombinationalLoop {
                        name: wires[i].0.clone(),
                    })
                }
                _ => {}
            }
            state[i] = 1;
            for r in wires[i].2.references() {
                if let Some(&j) = index.get(r.as_str()) {
                    dfs(j, wires, index, state, order)?;
                }
            }
            state[i] = 2;
            order.push(i);
            Ok(())
        }
        for i in 0..wires.len() {
            dfs(i, wires, &index, &mut state, &mut order)?;
        }
        for i in order {
            let (name, width, expr) = &wires[i];
            let mut nets = Vec::with_capacity(*width);
            self.elab_expr(expr, &mut nets)?;
            if nets.len() != *width {
                return Err(RtlError::WidthMismatch {
                    context: format!("wire `{name}`"),
                    left: nets.len(),
                    right: *width,
                });
            }
            self.signals.insert(name.clone(), nets);
        }
        Ok(())
    }

    fn elaborate_outputs(&mut self) -> Result<(), RtlError> {
        let mut nets = Vec::new();
        for (name, width, expr) in self.m.outputs() {
            nets.clear();
            self.elab_expr(expr, &mut nets)?;
            if nets.len() != *width {
                return Err(RtlError::WidthMismatch {
                    context: format!("output `{name}`"),
                    left: nets.len(),
                    right: *width,
                });
            }
            self.nl.add_output(name.clone(), &nets);
        }
        Ok(())
    }

    fn elaborate_registers(&mut self) -> Result<(), RtlError> {
        let mut d = Vec::new();
        for r in self.m.registers() {
            d.clear();
            self.elab_expr(&r.next, &mut d)?;
            if d.len() != r.width {
                return Err(RtlError::WidthMismatch {
                    context: format!("register `{}` next-state", r.name),
                    left: d.len(),
                    right: r.width,
                });
            }
            let q = &self.signals[&r.name];
            for bit in 0..r.width {
                let init = r.reset.value >> bit & 1 != 0;
                let kind = GateKind::Dff {
                    reset: r.reset.kind,
                    init,
                };
                let with_rst;
                let inputs: &[NetId] = match r.reset.kind {
                    ResetKind::None => &d[bit..=bit],
                    _ => {
                        with_rst = [d[bit], self.rst.expect("reset input exists")];
                        &with_rst
                    }
                };
                self.nl
                    .attach_gate(kind, inputs, q[bit])
                    .expect("pre-created q net is undriven");
            }
        }
        Ok(())
    }

    fn elaborate_memories(&mut self) -> Result<(), RtlError> {
        // Every read site has been elaborated; the write logic is the
        // storage's last use.
        let mut mem_storage = std::mem::take(&mut self.mem_storage);
        for mem in self.m.memories() {
            if mem.contents.is_some() {
                continue; // bound tables produce logic at their read sites
            }
            let (addr_sig, data_sig, en_sig) =
                mem.write_port.as_ref().ok_or_else(|| RtlError::BadMemory {
                    context: format!("programmable memory `{}` needs a write port", mem.name),
                })?;
            let addr = self.lookup(addr_sig)?.to_vec();
            let data = self.lookup(data_sig)?.to_vec();
            let en = self.lookup(en_sig)?;
            let abits = log2_exact(mem.depth).expect("validated");
            if addr.len() != abits {
                return Err(RtlError::WidthMismatch {
                    context: format!("memory `{}` write address", mem.name),
                    left: addr.len(),
                    right: abits,
                });
            }
            if data.len() != mem.width {
                return Err(RtlError::WidthMismatch {
                    context: format!("memory `{}` write data", mem.name),
                    left: data.len(),
                    right: mem.width,
                });
            }
            if en.len() != 1 {
                return Err(RtlError::WidthMismatch {
                    context: format!("memory `{}` write enable", mem.name),
                    left: en.len(),
                    right: 1,
                });
            }
            let en = en[0];
            let storage = mem_storage.remove(&mem.name).expect("storage exists");
            for (w, word_nets) in storage.iter().enumerate() {
                // wen_w = en & (addr == w)
                let eq = self.addr_eq(&addr, w as u128);
                let wen = self.nl.add_gate(GateKind::And2, &[en, eq]);
                for (b, &q) in word_nets.iter().enumerate() {
                    let d = self.nl.add_gate(GateKind::Mux2, &[wen, q, data[b]]);
                    self.nl
                        .attach_gate(
                            GateKind::Dff {
                                reset: ResetKind::None,
                                init: false,
                            },
                            &[d],
                            q,
                        )
                        .expect("storage net is undriven");
                }
            }
        }
        Ok(())
    }

    /// AND-tree comparator `addr == value`: the address bits, inverted
    /// where `value` has a zero, all built before the tree.
    fn addr_eq(&mut self, addr: &[NetId], value: u128) -> NetId {
        // An address has at most `usize::BITS` bits (the depth is a
        // power-of-two `usize`), so the terms fit on the stack.
        let mut terms = [NetId(0); usize::BITS as usize];
        let terms = &mut terms[..addr.len()];
        for (i, (t, &a)) in terms.iter_mut().zip(addr).enumerate() {
            *t = if value >> i & 1 != 0 {
                a
            } else {
                self.nl.add_gate(GateKind::Inv, &[a])
            };
        }
        self.and_tree(terms)
    }

    fn and_tree(&mut self, bits: &[NetId]) -> NetId {
        self.reduce_tree(bits, GateKind::And2)
    }

    fn reduce_tree(&mut self, bits: &[NetId], kind: GateKind) -> NetId {
        match bits.len() {
            0 => match kind {
                GateKind::And2 => self.nl.const1(),
                _ => self.nl.const0(),
            },
            1 => bits[0],
            _ => {
                let mid = bits.len() / 2;
                let lo = self.reduce_tree(&bits[..mid], kind);
                let hi = self.reduce_tree(&bits[mid..], kind);
                self.nl.add_gate(kind, &[lo, hi])
            }
        }
    }

    fn lookup(&self, name: &str) -> Result<&[NetId], RtlError> {
        self.signals
            .get(name)
            .map(Vec::as_slice)
            .ok_or_else(|| RtlError::UnknownSignal { name: name.into() })
    }

    /// Elaborates `e` and appends its nets (LSB first) to `out`.
    ///
    /// Operands are elaborated onto the end of `out` and replaced there by
    /// the result, so no expression allocates a vector of its own; gates
    /// are created in the same order as operand-first evaluation.
    fn elab_expr(&mut self, e: &Expr, out: &mut Vec<NetId>) -> Result<(), RtlError> {
        let s = out.len();
        match e {
            Expr::Ref(name) => out.extend_from_slice(self.lookup(name)?),
            Expr::Const { width, value } => {
                for i in 0..*width {
                    out.push(self.nl.constant(value >> i & 1 != 0));
                }
            }
            Expr::Not(a) => {
                self.elab_expr(a, out)?;
                for n in &mut out[s..] {
                    *n = self.nl.add_gate(GateKind::Inv, &[*n]);
                }
            }
            Expr::Bin { op, a, b } => {
                let mid = self.elab_pair(a, b, out, || format!("{op:?}"))?;
                let kind = match op {
                    BinOp::And => GateKind::And2,
                    BinOp::Or => GateKind::Or2,
                    BinOp::Xor => GateKind::Xor2,
                };
                for i in 0..mid - s {
                    out[s + i] = self.nl.add_gate(kind, &[out[s + i], out[mid + i]]);
                }
                out.truncate(mid);
            }
            Expr::Reduce { op, a } => {
                self.elab_expr(a, out)?;
                let kind = match op {
                    ReduceOp::Or => GateKind::Or2,
                    ReduceOp::And => GateKind::And2,
                    ReduceOp::Xor => GateKind::Xor2,
                };
                let r = self.reduce_tree(&out[s..], kind);
                out.truncate(s);
                out.push(r);
            }
            Expr::Mux { sel, on0, on1 } => {
                self.elab_expr(sel, out)?;
                if out.len() - s != 1 {
                    return Err(RtlError::WidthMismatch {
                        context: "mux select".into(),
                        left: out.len() - s,
                        right: 1,
                    });
                }
                let sel = out.pop().expect("one select bit");
                let mid = self.elab_pair(on0, on1, out, || "mux arms".into())?;
                for i in 0..mid - s {
                    out[s + i] = self
                        .nl
                        .add_gate(GateKind::Mux2, &[sel, out[s + i], out[mid + i]]);
                }
                out.truncate(mid);
            }
            Expr::Index { a, bit } => {
                self.elab_expr(a, out)?;
                let n = *out[s..].get(*bit).ok_or(RtlError::OutOfRange {
                    context: format!("index {bit}"),
                })?;
                out.truncate(s);
                out.push(n);
            }
            Expr::Slice { a, lo, width } => {
                self.elab_expr(a, out)?;
                let len = out.len() - s;
                if lo + width > len {
                    return Err(RtlError::OutOfRange {
                        context: format!("slice [{lo} +: {width}] of {len}-bit value"),
                    });
                }
                out.copy_within(s + lo..s + lo + width, s);
                out.truncate(s + width);
            }
            Expr::Concat(parts) => {
                for p in parts {
                    self.elab_expr(p, out)?;
                }
            }
            Expr::Eq { a, b } => {
                let mid = self.elab_pair(a, b, out, || "eq".into())?;
                for i in 0..mid - s {
                    out[s + i] = self
                        .nl
                        .add_gate(GateKind::Xnor2, &[out[s + i], out[mid + i]]);
                }
                let r = self.and_tree(&out[s..mid]);
                out.truncate(s);
                out.push(r);
            }
            Expr::Inc(a) => {
                self.elab_expr(a, out)?;
                let mut carry: Option<NetId> = None;
                for n in &mut out[s..] {
                    let bit = *n;
                    match carry {
                        None => {
                            *n = self.nl.add_gate(GateKind::Inv, &[bit]);
                            carry = Some(bit);
                        }
                        Some(c) => {
                            *n = self.nl.add_gate(GateKind::Xor2, &[bit, c]);
                            carry = Some(self.nl.add_gate(GateKind::And2, &[bit, c]));
                        }
                    }
                }
            }
            Expr::ReadMem { mem, addr } => {
                let m: &'m Module = self.m;
                let mem = m
                    .memory(mem)
                    .ok_or_else(|| RtlError::UnknownSignal { name: mem.clone() })?;
                self.elab_expr(addr, out)?;
                let abits = log2_exact(mem.depth).ok_or_else(|| RtlError::BadMemory {
                    context: format!(
                        "memory `{}` depth {} is not a power of two",
                        mem.name, mem.depth
                    ),
                })?;
                if out.len() - s != abits {
                    return Err(RtlError::WidthMismatch {
                        context: format!("memory `{}` read address", mem.name),
                        left: out.len() - s,
                        right: abits,
                    });
                }
                // One read multiplexer tree per output bit, after the
                // address: a bound table's leaves are constants (the
                // structure the synthesis engine partially evaluates), a
                // programmable memory's the storage flops.
                let mut leaves = Vec::with_capacity(mem.depth);
                for b in 0..mem.width {
                    leaves.clear();
                    match &mem.contents {
                        Some(words) => {
                            for w in words {
                                leaves.push(self.nl.constant(w >> b & 1 != 0));
                            }
                        }
                        None => {
                            leaves.extend(self.mem_storage[&mem.name].iter().map(|word| word[b]));
                        }
                    }
                    let r = self.mux_tree(&leaves, &out[s..s + abits]);
                    out.push(r);
                }
                out.drain(s..s + abits);
            }
        }
        Ok(())
    }

    /// Elaborates two equal-width operands onto `out`, one after the
    /// other; returns where the second starts.
    fn elab_pair(
        &mut self,
        a: &Expr,
        b: &Expr,
        out: &mut Vec<NetId>,
        context: impl FnOnce() -> String,
    ) -> Result<usize, RtlError> {
        let s = out.len();
        self.elab_expr(a, out)?;
        let mid = out.len();
        self.elab_expr(b, out)?;
        if mid - s != out.len() - mid {
            return Err(RtlError::WidthMismatch {
                context: context(),
                left: mid - s,
                right: out.len() - mid,
            });
        }
        Ok(mid)
    }

    /// Builds a read multiplexer tree: `leaves.len() == 2^addr.len()`,
    /// selecting leaf `addr`.
    fn mux_tree(&mut self, leaves: &[NetId], addr: &[NetId]) -> NetId {
        debug_assert_eq!(leaves.len(), 1 << addr.len());
        if addr.is_empty() {
            return leaves[0];
        }
        let msb = addr[addr.len() - 1];
        let half = leaves.len() / 2;
        let lo = self.mux_tree(&leaves[..half], &addr[..addr.len() - 1]);
        let hi = self.mux_tree(&leaves[half..], &addr[..addr.len() - 1]);
        self.nl.add_gate(GateKind::Mux2, &[msb, lo, hi])
    }

    fn finish(mut self) -> Result<Elaborated, RtlError> {
        let fsm = match &self.m.fsm {
            None => None,
            Some(info) => Some(FsmNets {
                state_nets: self.lookup(&info.state_reg)?.to_vec(),
                codes: info.codes.clone(),
                reset_code: info.reset_code,
            }),
        };
        let mut annotations = Vec::new();
        for a in &self.m.annotations {
            let nets = self.lookup(&a.signal)?;
            if nets.len() != a.values.width() as usize {
                return Err(RtlError::WidthMismatch {
                    context: format!("annotation on `{}`", a.signal),
                    left: nets.len(),
                    right: a.values.width() as usize,
                });
            }
            annotations.push(NetGroupValues {
                nets: nets.to_vec(),
                values: a.values.clone(),
            });
        }
        self.nl.sweep();
        self.nl
            .validate()
            .expect("elaboration produces valid netlists");
        Ok(Elaborated {
            netlist: self.nl,
            signals: self.signals,
            fsm,
            annotations,
        })
    }
}

/// About how many gates and nets elaborating `m` creates, so the netlist's
/// arrays are allocated once: a memory is where depth × width expands
/// (storage flops, write multiplexers and word decoders for a programmable
/// one, a read tree per bit for either), and registers add a flop per bit.
fn size_hint(m: &Module) -> (usize, usize) {
    let mut gates: usize = m.registers().iter().map(|r| r.width).sum();
    let mut nets = gates;
    for mem in m.memories() {
        let cells = mem.depth.saturating_mul(mem.width);
        if mem.contents.is_none() {
            let abits = mem.depth.trailing_zeros() as usize;
            let decode = mem.depth.saturating_mul(2 * abits + 1);
            gates = gates
                .saturating_add(cells.saturating_mul(3))
                .saturating_add(decode);
            nets = nets
                .saturating_add(cells.saturating_mul(4))
                .saturating_add(decode);
        } else {
            gates = gates.saturating_add(cells);
            nets = nets.saturating_add(cells);
        }
    }
    (gates, nets)
}

fn validate_memory(mem: &Memory) -> Result<(), RtlError> {
    if log2_exact(mem.depth).is_none() {
        return Err(RtlError::BadMemory {
            context: format!(
                "memory `{}` depth {} is not a power of two",
                mem.name, mem.depth
            ),
        });
    }
    if let Some(words) = &mem.contents {
        if words.len() != mem.depth {
            return Err(RtlError::BadMemory {
                context: format!(
                    "memory `{}` has {} contents words for depth {}",
                    mem.name,
                    words.len(),
                    mem.depth
                ),
            });
        }
        if mem.width < 128 {
            for (i, w) in words.iter().enumerate() {
                if *w >= 1u128 << mem.width {
                    return Err(RtlError::BadMemory {
                        context: format!("memory `{}` word {i} exceeds width", mem.name),
                    });
                }
            }
        }
    }
    Ok(())
}

fn log2_exact(n: usize) -> Option<usize> {
    if n.is_power_of_two() {
        Some(n.trailing_zeros() as usize)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{RegReset, Register};

    #[test]
    fn combinational_expressions() {
        let mut m = Module::new("comb");
        m.add_input("a", 4);
        m.add_input("b", 4);
        m.add_wire("w", 4, Expr::reference("a").and(Expr::reference("b")));
        m.add_output("y", 1, Expr::reference("w").reduce_or());
        m.add_output("p", 1, Expr::reference("a").reduce_xor());
        m.add_output("e", 1, Expr::reference("a").eq(Expr::reference("b")));
        let e = elaborate(&m).unwrap();
        assert!(e.netlist.num_gates() > 0);
        assert_eq!(e.netlist.outputs().len(), 3);
        assert_eq!(e.signals["w"].len(), 4);
    }

    #[test]
    fn width_mismatch_detected() {
        let mut m = Module::new("bad");
        m.add_input("a", 4);
        m.add_input("b", 2);
        m.add_output("y", 4, Expr::reference("a").and(Expr::reference("b")));
        assert!(matches!(elaborate(&m), Err(RtlError::WidthMismatch { .. })));
    }

    #[test]
    fn unknown_signal_detected() {
        let mut m = Module::new("bad");
        m.add_output("y", 1, Expr::reference("ghost"));
        assert!(matches!(elaborate(&m), Err(RtlError::UnknownSignal { .. })));
    }

    #[test]
    fn wire_cycle_detected() {
        let mut m = Module::new("loop");
        m.add_wire("x", 1, Expr::reference("y"));
        m.add_wire("y", 1, Expr::reference("x"));
        m.add_output("o", 1, Expr::reference("x"));
        assert!(matches!(
            elaborate(&m),
            Err(RtlError::CombinationalLoop { .. })
        ));
    }

    #[test]
    fn registers_get_reset_input() {
        let mut m = Module::new("reg");
        m.add_input("d", 2);
        m.add_register(Register {
            name: "q".into(),
            width: 2,
            next: Expr::reference("d"),
            reset: RegReset {
                kind: ResetKind::Sync,
                value: 0b10,
            },
        });
        m.add_output("o", 2, Expr::reference("q"));
        let e = elaborate(&m).unwrap();
        assert!(e.netlist.input("rst").is_ok());
        assert_eq!(e.netlist.flop_count(), 2);
        // The reset value is encoded in the flop inits.
        let inits: Vec<bool> = e.signals["q"]
            .iter()
            .map(|&q| {
                let g = e.netlist.driver(q).unwrap();
                match e.netlist.gate(g).kind {
                    GateKind::Dff { init, .. } => init,
                    _ => panic!("not a flop"),
                }
            })
            .collect();
        assert_eq!(inits, vec![false, true]);
    }

    #[test]
    fn bound_rom_elaborates_to_logic_only() {
        let mut m = Module::new("rom");
        m.add_input("addr", 2);
        m.add_memory(Memory {
            name: "t".into(),
            width: 3,
            depth: 4,
            contents: Some(vec![0b000, 0b101, 0b011, 0b111]),
            write_port: None,
        });
        m.add_output("data", 3, Expr::read_mem("t", Expr::reference("addr")));
        let e = elaborate(&m).unwrap();
        assert_eq!(e.netlist.flop_count(), 0);
        assert!(e.netlist.num_gates() > 0);
    }

    #[test]
    fn programmable_memory_elaborates_to_flops() {
        let mut m = Module::new("cfg");
        m.add_input("waddr", 2);
        m.add_input("wdata", 3);
        m.add_input("wen", 1);
        m.add_input("raddr", 2);
        m.add_memory(Memory {
            name: "t".into(),
            width: 3,
            depth: 4,
            contents: None,
            write_port: Some(("waddr".into(), "wdata".into(), "wen".into())),
        });
        m.add_output("data", 3, Expr::read_mem("t", Expr::reference("raddr")));
        let e = elaborate(&m).unwrap();
        assert_eq!(e.netlist.flop_count(), 12); // 4 words x 3 bits
    }

    /// A depth that is not a power of two is refused, also one so large
    /// that sizing the netlist from it first would overflow.
    #[test]
    fn bad_memory_depth_rejected() {
        for (depth, contents) in [
            (3, Some(vec![0, 1, 0])),
            ((1 << (usize::BITS - 2)) + 1, None),
        ] {
            let mut m = Module::new("bad");
            m.add_input("addr", 2);
            m.add_input("wdata", 1);
            m.add_input("wen", 1);
            m.add_memory(Memory {
                name: "t".into(),
                width: 1,
                depth,
                write_port: contents
                    .is_none()
                    .then(|| ("addr".into(), "wdata".into(), "wen".into())),
                contents,
            });
            m.add_output("d", 1, Expr::read_mem("t", Expr::reference("addr")));
            assert!(
                matches!(elaborate(&m), Err(RtlError::BadMemory { .. })),
                "depth {depth}"
            );
        }
    }

    #[test]
    fn fsm_and_annotations_resolved() {
        use synthir_logic::ValueSet;
        let mut m = Module::new("fsm");
        m.add_input("go", 1);
        m.add_register(Register {
            name: "state".into(),
            width: 2,
            next: Expr::reference("go")
                .mux(Expr::reference("state"), Expr::reference("state").inc()),
            reset: RegReset {
                kind: ResetKind::Sync,
                value: 0,
            },
        });
        m.add_output("s", 2, Expr::reference("state"));
        m.set_fsm(crate::module::FsmInfo {
            state_reg: "state".into(),
            codes: vec![0, 1, 2],
            reset_code: 0,
        });
        m.annotate("state", ValueSet::from_values(2, [0, 1, 2]));
        let e = elaborate(&m).unwrap();
        let fsm = e.fsm.unwrap();
        assert_eq!(fsm.state_nets.len(), 2);
        assert_eq!(fsm.codes, vec![0, 1, 2]);
        assert_eq!(e.annotations.len(), 1);
        assert_eq!(e.annotations[0].nets, e.signals["state"]);
    }

    #[test]
    fn inc_is_correct_width() {
        let mut m = Module::new("inc");
        m.add_input("a", 4);
        m.add_output("y", 4, Expr::reference("a").inc());
        let e = elaborate(&m).unwrap();
        assert_eq!(e.netlist.output("y").unwrap().nets.len(), 4);
    }

    /// A module with every kind of field: an input, a wire, an output, a
    /// register with a reset, a programmable and a bound memory, FSM
    /// metadata and an annotation. `tag` names one input, so that tests
    /// sharing the process-wide memo do not share modules.
    fn featureful(tag: &str) -> Module {
        let mut m = Module::new("featureful");
        m.add_input(tag, 1);
        m.add_input("waddr", 2);
        m.add_input("wdata", 2);
        m.add_input("wen", 1);
        m.add_memory(Memory {
            name: "cfg".into(),
            width: 2,
            depth: 4,
            contents: None,
            write_port: Some(("waddr".into(), "wdata".into(), "wen".into())),
        });
        m.add_memory(Memory {
            name: "rom".into(),
            width: 2,
            depth: 2,
            contents: Some(vec![1, 2]),
            write_port: None,
        });
        m.add_wire(
            "next",
            2,
            Expr::read_mem(
                "cfg",
                Expr::concat(vec![
                    Expr::reference(tag),
                    Expr::reference("state").index(0),
                ]),
            ),
        );
        m.add_register(Register {
            name: "state".into(),
            width: 2,
            next: Expr::reference("next"),
            reset: RegReset {
                kind: ResetKind::Sync,
                value: 1,
            },
        });
        m.add_output(
            "y",
            2,
            Expr::read_mem("rom", Expr::reference("state").index(1)).xor(Expr::reference("state")),
        );
        m.set_fsm(crate::module::FsmInfo {
            state_reg: "state".into(),
            codes: vec![0, 1, 2],
            reset_code: 1,
        });
        m.annotate("state", ValueSet::from_values(2, [0, 1, 2]));
        m
    }

    fn rebuild(m: &Module, edit: impl FnOnce(&mut Parts)) -> Module {
        let mut p = Parts {
            inputs: m.inputs().to_vec(),
            outputs: m.outputs().to_vec(),
            wires: m.wires().to_vec(),
            regs: m.registers().to_vec(),
            mems: m.memories().to_vec(),
        };
        edit(&mut p);
        let mut out = Module::new(m.name());
        for (n, w) in p.inputs {
            out.add_input(n, w);
        }
        for (n, w, e) in p.outputs {
            out.add_output(n, w, e);
        }
        for (n, w, e) in p.wires {
            out.add_wire(n, w, e);
        }
        for r in p.regs {
            out.add_register(r);
        }
        for mem in p.mems {
            out.add_memory(mem);
        }
        out.fsm = m.fsm.clone();
        out.annotations = m.annotations.clone();
        out
    }

    /// A module's declarations, to edit one field at a time.
    struct Parts {
        inputs: Vec<(String, usize)>,
        outputs: Vec<(String, usize, Expr)>,
        wires: Vec<(String, usize, Expr)>,
        regs: Vec<Register>,
        mems: Vec<Memory>,
    }

    #[test]
    fn every_single_field_change_alters_the_memo_key_and_the_name_does_not() {
        let base = featureful("go");
        let mut renamed = base.clone();
        renamed.set_name("another");
        assert_eq!(module_key(&renamed), module_key(&base));
        assert_eq!(rebuild(&base, |_| {}).name(), base.name());
        assert_eq!(module_key(&rebuild(&base, |_| {})), module_key(&base));

        let mut variants: Vec<(&str, Module)> = vec![
            ("an input name", featureful("gO")),
            ("an input width", rebuild(&base, |p| p.inputs[0].1 = 2)),
            (
                "an extra input",
                rebuild(&base, |p| p.inputs.push(("z".into(), 1))),
            ),
            (
                "an output name",
                rebuild(&base, |p| p.outputs[0].0 = "z".into()),
            ),
            ("an output width", rebuild(&base, |p| p.outputs[0].1 = 3)),
            (
                "an output expression",
                rebuild(&base, |p| {
                    p.outputs[0].2 = Expr::reference("state").and(Expr::reference("next"))
                }),
            ),
            (
                "a wire expression",
                rebuild(&base, |p| p.wires[0].2 = Expr::reference("state").inc()),
            ),
            (
                "a register name",
                rebuild(&base, |p| p.regs[0].name = "s".into()),
            ),
            (
                "a register next state",
                rebuild(&base, |p| p.regs[0].next = Expr::reference("next").not()),
            ),
            (
                "a reset kind",
                rebuild(&base, |p| p.regs[0].reset.kind = ResetKind::Async),
            ),
            (
                "a reset value",
                rebuild(&base, |p| p.regs[0].reset.value = 2),
            ),
            (
                "a memory name",
                rebuild(&base, |p| p.mems[1].name = "tab".into()),
            ),
            ("a memory width", rebuild(&base, |p| p.mems[0].width = 3)),
            ("a memory depth", rebuild(&base, |p| p.mems[0].depth = 8)),
            (
                "a memory word",
                rebuild(&base, |p| p.mems[1].contents = Some(vec![1, 3])),
            ),
            (
                "bound contents",
                rebuild(&base, |p| p.mems[0].contents = Some(vec![0; 4])),
            ),
            (
                "a write port",
                rebuild(&base, |p| {
                    p.mems[0].write_port = Some(("wdata".into(), "waddr".into(), "wen".into()))
                }),
            ),
            (
                "no memory",
                rebuild(&base, |p| {
                    p.mems.pop();
                }),
            ),
        ];
        for e in [
            Expr::constant(2, 3),
            Expr::reference("state").or(Expr::reference("next")),
            Expr::reference("state").xor(Expr::reference("next")),
            Expr::reference("state")
                .reduce_or()
                .mux(Expr::constant(2, 0), Expr::constant(2, 1)),
            Expr::reference("state")
                .reduce_and()
                .mux(Expr::constant(2, 0), Expr::constant(2, 1)),
            Expr::reference("state")
                .reduce_xor()
                .mux(Expr::constant(2, 0), Expr::constant(2, 1)),
            Expr::reference("state").slice(0, 2),
            Expr::concat(vec![Expr::reference("state").index(1), Expr::bit(true)]),
            Expr::reference("state")
                .eq(Expr::reference("next"))
                .mux(Expr::constant(2, 0), Expr::constant(2, 1)),
        ] {
            variants.push(("an expression node", rebuild(&base, |p| p.outputs[0].2 = e)));
        }
        let mut m = base.clone();
        m.fsm.as_mut().unwrap().codes.push(3);
        variants.push(("an FSM code", m));
        let mut m = base.clone();
        m.fsm.as_mut().unwrap().reset_code = 0;
        variants.push(("the FSM reset code", m));
        let mut m = base.clone();
        m.fsm.as_mut().unwrap().state_reg = "next".into();
        variants.push(("the FSM state register", m));
        let mut m = base.clone();
        m.fsm = None;
        variants.push(("no FSM metadata", m));
        let mut m = base.clone();
        m.annotations[0].values = ValueSet::from_values(2, [0, 1, 3]);
        variants.push(("an annotation value", m));
        let mut m = base.clone();
        m.annotations[0].values = ValueSet::all(2);
        variants.push(("an unconstrained annotation", m));
        let mut m = base.clone();
        m.annotations[0].signal = "next".into();
        variants.push(("an annotated signal", m));

        let mut keys = vec![module_key(&base)];
        for (label, m) in &variants {
            let k = module_key(m);
            assert!(!keys.contains(&k), "{label}: the key collides");
            keys.push(k);
        }
    }

    #[test]
    fn a_hit_equals_a_fresh_elaboration_under_the_callers_name() {
        let m = featureful("hit");
        let fresh = elaborate_fresh(&m).unwrap();
        for i in 0..3 {
            let mut named = m.clone();
            named.set_name(format!("hit{i}"));
            let e = elaborate(&named).unwrap();
            let mut want = fresh.clone();
            want.netlist.set_name(format!("hit{i}"));
            assert_eq!(e, want, "elaboration {i}");
            assert_eq!(e.netlist.key_state(), fresh.netlist.key_state());
        }
        assert!(
            memo().contains(&module_key(&m)),
            "admitted on its second miss"
        );
    }

    #[test]
    fn modules_without_a_memory_are_not_memoized() {
        let mut m = Module::new("plain");
        m.add_input("only_in_this_test", 2);
        m.add_output("y", 1, Expr::reference("only_in_this_test").reduce_xor());
        for _ in 0..3 {
            assert_eq!(elaborate(&m).unwrap(), elaborate_fresh(&m).unwrap());
        }
        assert!(!memo().contains(&module_key(&m)));
    }

    #[test]
    fn errors_are_never_memoized() {
        let bad = [
            rebuild(&featureful("err"), |p| p.outputs[0].1 = 5),
            rebuild(&featureful("err"), |p| p.mems[0].depth = 3),
            rebuild(&featureful("err"), |p| p.mems[0].write_port = None),
            rebuild(&featureful("err"), |p| {
                p.wires[0].2 = Expr::reference("ghost")
            }),
        ];
        for m in &bad {
            let want = elaborate_fresh(m).unwrap_err();
            for _ in 0..3 {
                assert_eq!(elaborate(m).unwrap_err(), want);
            }
            assert!(!memo().contains(&module_key(m)), "{want}");
        }
    }

    #[test]
    fn threads_elaborating_one_module_agree() {
        let m = featureful("threads");
        let fresh = elaborate_fresh(&m).unwrap();
        let start = std::sync::Barrier::new(2);
        let results: Vec<Vec<Elaborated>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..4).map(|_| elaborate(&m).unwrap()).collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for e in results.iter().flatten() {
            assert_eq!(e, &fresh);
            assert_eq!(e.netlist.key_state(), fresh.netlist.key_state());
        }
        assert!(memo().contains(&module_key(&m)));
    }
}
