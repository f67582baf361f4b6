//! Elaboration: bit-blasting RTL modules into gate-level netlists.

use crate::expr::{BinOp, Expr, ReduceOp};
use crate::module::{Memory, Module};
use crate::RtlError;
use std::collections::HashMap;
use synthir_logic::ValueSet;
use synthir_netlist::{GateKind, NetId, Netlist, ResetKind};

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
#[derive(Clone, Debug)]
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

/// Elaborates a module into a netlist.
///
/// # Errors
///
/// Returns an [`RtlError`] for undeclared or duplicate signals, width
/// mismatches, out-of-range indices, combinational wire cycles, or
/// ill-formed memories.
pub fn elaborate(m: &Module) -> Result<Elaborated, RtlError> {
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
        let mut nl = Netlist::new(m.name());
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
            validate_memory(mem)?;
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
            let nets = self.elab_expr(expr)?;
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
        for (name, width, expr) in self.m.outputs() {
            let nets = self.elab_expr(expr)?;
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
        for r in self.m.registers() {
            let d = self.elab_expr(&r.next)?;
            if d.len() != r.width {
                return Err(RtlError::WidthMismatch {
                    context: format!("register `{}` next-state", r.name),
                    left: d.len(),
                    right: r.width,
                });
            }
            let q = self.signals[&r.name].clone();
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
            let addr = self.lookup(addr_sig)?;
            let data = self.lookup(data_sig)?;
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
            let storage = mem_storage.remove(&mem.name).expect("storage exists");
            for (w, word_nets) in storage.iter().enumerate() {
                // wen_w = en & (addr == w)
                let eq = self.addr_eq(&addr, w as u128);
                let wen = self.nl.add_gate(GateKind::And2, &[en[0], eq]);
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

    /// AND-tree comparator `addr == value`.
    fn addr_eq(&mut self, addr: &[NetId], value: u128) -> NetId {
        let bits: Vec<NetId> = addr
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                if value >> i & 1 != 0 {
                    a
                } else {
                    self.nl.add_gate(GateKind::Inv, &[a])
                }
            })
            .collect();
        self.and_tree(&bits)
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

    fn lookup(&self, name: &str) -> Result<Vec<NetId>, RtlError> {
        self.signals
            .get(name)
            .cloned()
            .ok_or_else(|| RtlError::UnknownSignal { name: name.into() })
    }

    fn elab_expr(&mut self, e: &Expr) -> Result<Vec<NetId>, RtlError> {
        match e {
            Expr::Ref(name) => self.lookup(name),
            Expr::Const { width, value } => Ok((0..*width)
                .map(|i| self.nl.constant(value >> i & 1 != 0))
                .collect()),
            Expr::Not(a) => {
                let a = self.elab_expr(a)?;
                Ok(a.iter()
                    .map(|&n| self.nl.add_gate(GateKind::Inv, &[n]))
                    .collect())
            }
            Expr::Bin { op, a, b } => {
                let a = self.elab_expr(a)?;
                let b = self.elab_expr(b)?;
                if a.len() != b.len() {
                    return Err(RtlError::WidthMismatch {
                        context: format!("{op:?}"),
                        left: a.len(),
                        right: b.len(),
                    });
                }
                let kind = match op {
                    BinOp::And => GateKind::And2,
                    BinOp::Or => GateKind::Or2,
                    BinOp::Xor => GateKind::Xor2,
                };
                Ok(a.iter()
                    .zip(&b)
                    .map(|(&x, &y)| self.nl.add_gate(kind, &[x, y]))
                    .collect())
            }
            Expr::Reduce { op, a } => {
                let a = self.elab_expr(a)?;
                let kind = match op {
                    ReduceOp::Or => GateKind::Or2,
                    ReduceOp::And => GateKind::And2,
                    ReduceOp::Xor => GateKind::Xor2,
                };
                Ok(vec![self.reduce_tree(&a, kind)])
            }
            Expr::Mux { sel, on0, on1 } => {
                let sel = self.elab_expr(sel)?;
                if sel.len() != 1 {
                    return Err(RtlError::WidthMismatch {
                        context: "mux select".into(),
                        left: sel.len(),
                        right: 1,
                    });
                }
                let on0 = self.elab_expr(on0)?;
                let on1 = self.elab_expr(on1)?;
                if on0.len() != on1.len() {
                    return Err(RtlError::WidthMismatch {
                        context: "mux arms".into(),
                        left: on0.len(),
                        right: on1.len(),
                    });
                }
                Ok(on0
                    .iter()
                    .zip(&on1)
                    .map(|(&d0, &d1)| self.nl.add_gate(GateKind::Mux2, &[sel[0], d0, d1]))
                    .collect())
            }
            Expr::Index { a, bit } => {
                let a = self.elab_expr(a)?;
                a.get(*bit).map(|&n| vec![n]).ok_or(RtlError::OutOfRange {
                    context: format!("index {bit}"),
                })
            }
            Expr::Slice { a, lo, width } => {
                let a = self.elab_expr(a)?;
                if lo + width > a.len() {
                    return Err(RtlError::OutOfRange {
                        context: format!("slice [{lo} +: {width}] of {}-bit value", a.len()),
                    });
                }
                Ok(a[*lo..lo + width].to_vec())
            }
            Expr::Concat(parts) => {
                let mut out = Vec::new();
                for p in parts {
                    out.extend(self.elab_expr(p)?);
                }
                Ok(out)
            }
            Expr::Eq { a, b } => {
                let a = self.elab_expr(a)?;
                let b = self.elab_expr(b)?;
                if a.len() != b.len() {
                    return Err(RtlError::WidthMismatch {
                        context: "eq".into(),
                        left: a.len(),
                        right: b.len(),
                    });
                }
                let bits: Vec<NetId> = a
                    .iter()
                    .zip(&b)
                    .map(|(&x, &y)| self.nl.add_gate(GateKind::Xnor2, &[x, y]))
                    .collect();
                Ok(vec![self.and_tree(&bits)])
            }
            Expr::Inc(a) => {
                let a = self.elab_expr(a)?;
                let mut out = Vec::with_capacity(a.len());
                let mut carry: Option<NetId> = None;
                for &bit in &a {
                    match carry {
                        None => {
                            out.push(self.nl.add_gate(GateKind::Inv, &[bit]));
                            carry = Some(bit);
                        }
                        Some(c) => {
                            out.push(self.nl.add_gate(GateKind::Xor2, &[bit, c]));
                            carry = Some(self.nl.add_gate(GateKind::And2, &[bit, c]));
                        }
                    }
                }
                Ok(out)
            }
            Expr::ReadMem { mem, addr } => {
                let m: &'m Module = self.m;
                let mem = m
                    .memory(mem)
                    .ok_or_else(|| RtlError::UnknownSignal { name: mem.clone() })?;
                let addr = self.elab_expr(addr)?;
                let abits = log2_exact(mem.depth).ok_or_else(|| RtlError::BadMemory {
                    context: format!(
                        "memory `{}` depth {} is not a power of two",
                        mem.name, mem.depth
                    ),
                })?;
                if addr.len() != abits {
                    return Err(RtlError::WidthMismatch {
                        context: format!("memory `{}` read address", mem.name),
                        left: addr.len(),
                        right: abits,
                    });
                }
                match &mem.contents {
                    Some(words) => {
                        // Bound table: mux tree with constant leaves, one per
                        // output bit. This is the structure the synthesis
                        // engine partially evaluates.
                        let mut out = Vec::with_capacity(mem.width);
                        for b in 0..mem.width {
                            let leaves: Vec<NetId> = (0..mem.depth)
                                .map(|w| self.nl.constant(words[w] >> b & 1 != 0))
                                .collect();
                            out.push(self.mux_tree(&leaves, &addr));
                        }
                        Ok(out)
                    }
                    None => {
                        let mut out = Vec::with_capacity(mem.width);
                        for b in 0..mem.width {
                            let leaves: Vec<NetId> = self.mem_storage[&mem.name]
                                .iter()
                                .map(|word| word[b])
                                .collect();
                            out.push(self.mux_tree(&leaves, &addr));
                        }
                        Ok(out)
                    }
                }
            }
        }
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
            Some(info) => {
                let nets = self.lookup(&info.state_reg)?;
                Some(FsmNets {
                    state_nets: nets,
                    codes: info.codes.clone(),
                    reset_code: info.reset_code,
                })
            }
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
                nets,
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

    #[test]
    fn bad_memory_depth_rejected() {
        let mut m = Module::new("bad");
        m.add_input("addr", 2);
        m.add_memory(Memory {
            name: "t".into(),
            width: 1,
            depth: 3,
            contents: Some(vec![0, 1, 0]),
            write_port: None,
        });
        m.add_output("d", 1, Expr::read_mem("t", Expr::reference("addr")));
        assert!(matches!(elaborate(&m), Err(RtlError::BadMemory { .. })));
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
}
