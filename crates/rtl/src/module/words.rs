//! A `u32` word encoding of a [`Module`]: see [`Module::encode_words`].

use super::{FsmInfo, Memory, Module, RegReset, Register, SignalAnnotation};
use crate::expr::{BinOp, Expr, ReduceOp};
use synthir_logic::ValueSet;
use synthir_netlist::ResetKind;

impl Module {
    /// Appends the module's word encoding to `out`.
    ///
    /// The encoding keeps everything but the module name: every input,
    /// output, wire, register and memory in declaration order with all
    /// their fields (expressions as prefix trees, memory contents, write
    /// ports, reset kinds and values), the FSM metadata and every
    /// annotation. Every variable-length field carries its length and
    /// every variant its tag, so two modules that differ in anything but
    /// their name encode to different word streams: a content hash of the
    /// words keys the elaboration memo of [`crate::elaborate()`], which
    /// serves a hit under the caller's name.
    pub fn encode_words(&self, out: &mut Vec<u32>) {
        // Destructured so that a new field cannot be left out silently.
        let Module {
            name: _,
            inputs,
            outputs,
            wires,
            regs,
            mems,
            fsm,
            annotations,
        } = self;
        push_size(out, inputs.len());
        for (name, width) in inputs {
            push_str(out, name);
            push_size(out, *width);
        }
        for ports in [outputs, wires] {
            push_size(out, ports.len());
            for (name, width, e) in ports {
                push_str(out, name);
                push_size(out, *width);
                push_expr(out, e);
            }
        }
        push_size(out, regs.len());
        for Register {
            name,
            width,
            next,
            reset: RegReset { kind, value },
        } in regs
        {
            push_str(out, name);
            push_size(out, *width);
            push_expr(out, next);
            out.push(match kind {
                ResetKind::None => 0,
                ResetKind::Sync => 1,
                ResetKind::Async => 2,
            });
            push_u128(out, *value);
        }
        push_size(out, mems.len());
        for Memory {
            name,
            width,
            depth,
            contents,
            write_port,
        } in mems
        {
            push_str(out, name);
            push_size(out, *width);
            push_size(out, *depth);
            match contents {
                None => out.push(0),
                Some(words) => {
                    out.push(1);
                    push_size(out, words.len());
                    for &w in words {
                        push_u128(out, w);
                    }
                }
            }
            match write_port {
                None => out.push(0),
                Some((addr, data, en)) => {
                    out.push(1);
                    for s in [addr, data, en] {
                        push_str(out, s);
                    }
                }
            }
        }
        match fsm {
            None => out.push(0),
            Some(FsmInfo {
                state_reg,
                codes,
                reset_code,
            }) => {
                out.push(1);
                push_str(out, state_reg);
                push_size(out, codes.len());
                for &c in codes {
                    push_u128(out, c);
                }
                push_u128(out, *reset_code);
            }
        }
        push_size(out, annotations.len());
        for SignalAnnotation { signal, values } in annotations {
            push_str(out, signal);
            match values {
                ValueSet::All { width } => out.extend([0, *width]),
                ValueSet::Values { width, values } => {
                    out.extend([1, *width]);
                    push_size(out, values.len());
                    for &v in values {
                        push_u128(out, v);
                    }
                }
            }
        }
    }
}

/// An expression as a prefix tree: a tag per node, then its fields.
fn push_expr(out: &mut Vec<u32>, e: &Expr) {
    let bin = |op: &BinOp| match op {
        BinOp::And => 0,
        BinOp::Or => 1,
        BinOp::Xor => 2,
    };
    let reduce = |op: &ReduceOp| match op {
        ReduceOp::Or => 0,
        ReduceOp::And => 1,
        ReduceOp::Xor => 2,
    };
    match e {
        Expr::Ref(name) => {
            out.push(0);
            push_str(out, name);
        }
        Expr::Const { width, value } => {
            out.push(1);
            push_size(out, *width);
            push_u128(out, *value);
        }
        Expr::Not(a) => {
            out.push(2);
            push_expr(out, a);
        }
        Expr::Bin { op, a, b } => {
            out.extend([3, bin(op)]);
            push_expr(out, a);
            push_expr(out, b);
        }
        Expr::Reduce { op, a } => {
            out.extend([4, reduce(op)]);
            push_expr(out, a);
        }
        Expr::Mux { sel, on0, on1 } => {
            out.push(5);
            for x in [sel, on0, on1] {
                push_expr(out, x);
            }
        }
        Expr::Index { a, bit } => {
            out.push(6);
            push_size(out, *bit);
            push_expr(out, a);
        }
        Expr::Slice { a, lo, width } => {
            out.push(7);
            push_size(out, *lo);
            push_size(out, *width);
            push_expr(out, a);
        }
        Expr::Concat(parts) => {
            out.push(8);
            push_size(out, parts.len());
            for p in parts {
                push_expr(out, p);
            }
        }
        Expr::Eq { a, b } => {
            out.push(9);
            push_expr(out, a);
            push_expr(out, b);
        }
        Expr::Inc(a) => {
            out.push(10);
            push_expr(out, a);
        }
        Expr::ReadMem { mem, addr } => {
            out.push(11);
            push_str(out, mem);
            push_expr(out, addr);
        }
    }
}

/// A size as one word, or as the escape `u32::MAX` and its two halves.
fn push_size(out: &mut Vec<u32>, n: usize) {
    match u32::try_from(n) {
        Ok(w) if w != u32::MAX => out.push(w),
        _ => {
            let n = n as u64;
            out.extend([u32::MAX, n as u32, (n >> 32) as u32]);
        }
    }
}

fn push_u128(out: &mut Vec<u32>, v: u128) {
    out.extend((0..4).map(|i| (v >> (32 * i)) as u32));
}

/// A string as its byte length and its bytes, four per word.
fn push_str(out: &mut Vec<u32>, s: &str) {
    push_size(out, s.len());
    out.extend(s.as_bytes().chunks(4).map(|c| {
        let mut b = [0u8; 4];
        b[..c.len()].copy_from_slice(c);
        u32::from_le_bytes(b)
    }));
}
