//! Structural Verilog export.
//!
//! Emits a gate-level Verilog module for a [`Netlist`], so that designs
//! produced by the generator can be inspected or cross-checked with external
//! tools. The output uses primitive-gate instantiations plus behavioural
//! always-blocks for the flops.

use crate::cell::{GateKind, ResetKind};
use crate::netgraph::{NetId, Netlist};
use std::fmt::Write;

/// Renders the netlist as structural Verilog.
///
/// # Examples
///
/// ```
/// use synthir_netlist::{GateKind, Netlist, verilog};
///
/// let mut nl = Netlist::new("inv");
/// let a = nl.add_input("a", 1)[0];
/// let y = nl.add_gate(GateKind::Inv, &[a]);
/// nl.add_output("y", &[y]);
/// let v = verilog::to_verilog(&nl);
/// assert!(v.contains("module inv"));
/// assert!(v.contains("not"));
/// ```
pub fn to_verilog(nl: &Netlist) -> String {
    let mut s = String::new();
    let has_flops = nl.flop_count() > 0;
    // Elaborated designs carry their reset as an explicit 1-bit `rst`
    // input port; only a hand-built netlist with flops needs one invented.
    let has_rst_port = nl.inputs().iter().any(|p| p.name == "rst");
    let mut ports: Vec<String> = Vec::new();
    if has_flops {
        ports.push("clk".into());
        if !has_rst_port {
            ports.push("rst".into());
        }
    }
    ports.extend(nl.inputs().iter().map(|p| sanitize(&p.name)));
    ports.extend(nl.outputs().iter().map(|p| sanitize(&p.name)));
    let _ = writeln!(s, "module {} ({});", sanitize(nl.name()), ports.join(", "));
    if has_flops {
        let _ = writeln!(s, "  input clk;");
        if !has_rst_port {
            let _ = writeln!(s, "  input rst;");
        }
    }
    for p in nl.inputs() {
        let _ = writeln!(s, "  input [{}:0] {};", p.nets.len() - 1, sanitize(&p.name));
    }
    for p in nl.outputs() {
        let _ = writeln!(
            s,
            "  output [{}:0] {};",
            p.nets.len() - 1,
            sanitize(&p.name)
        );
    }
    // Wires for every driven net.
    for (_, g) in nl.gates() {
        let _ = writeln!(s, "  wire {};", wire(nl, g.output));
    }
    // Map input-port nets to their bus selects.
    let _ = writeln!(s);
    for (idx, (_, g)) in nl.gates().enumerate() {
        let out = wire(nl, g.output);
        let ins: Vec<String> = g.inputs().iter().map(|&n| net_ref(nl, n)).collect();
        match g.kind {
            GateKind::Const0 => {
                let _ = writeln!(s, "  assign {out} = 1'b0;");
            }
            GateKind::Const1 => {
                let _ = writeln!(s, "  assign {out} = 1'b1;");
            }
            GateKind::Buf => {
                let _ = writeln!(s, "  buf g{idx} ({out}, {});", ins[0]);
            }
            GateKind::Inv => {
                let _ = writeln!(s, "  not g{idx} ({out}, {});", ins[0]);
            }
            GateKind::And2 | GateKind::And3 | GateKind::And4 => {
                let _ = writeln!(s, "  and g{idx} ({out}, {});", ins.join(", "));
            }
            GateKind::Or2 | GateKind::Or3 | GateKind::Or4 => {
                let _ = writeln!(s, "  or g{idx} ({out}, {});", ins.join(", "));
            }
            GateKind::Nand2 | GateKind::Nand3 | GateKind::Nand4 => {
                let _ = writeln!(s, "  nand g{idx} ({out}, {});", ins.join(", "));
            }
            GateKind::Nor2 | GateKind::Nor3 | GateKind::Nor4 => {
                let _ = writeln!(s, "  nor g{idx} ({out}, {});", ins.join(", "));
            }
            GateKind::Xor2 => {
                let _ = writeln!(s, "  xor g{idx} ({out}, {});", ins.join(", "));
            }
            GateKind::Xnor2 => {
                let _ = writeln!(s, "  xnor g{idx} ({out}, {});", ins.join(", "));
            }
            GateKind::Mux2 => {
                let _ = writeln!(s, "  assign {out} = {} ? {} : {};", ins[0], ins[2], ins[1]);
            }
            GateKind::Aoi21 => {
                let _ = writeln!(
                    s,
                    "  assign {out} = ~(({} & {}) | {});",
                    ins[0], ins[1], ins[2]
                );
            }
            GateKind::Oai21 => {
                let _ = writeln!(
                    s,
                    "  assign {out} = ~(({} | {}) & {});",
                    ins[0], ins[1], ins[2]
                );
            }
            GateKind::Aoi22 => {
                let _ = writeln!(
                    s,
                    "  assign {out} = ~(({} & {}) | ({} & {}));",
                    ins[0], ins[1], ins[2], ins[3]
                );
            }
            GateKind::Oai22 => {
                let _ = writeln!(
                    s,
                    "  assign {out} = ~(({} | {}) & ({} | {}));",
                    ins[0], ins[1], ins[2], ins[3]
                );
            }
            GateKind::Dff { reset, init } => {
                let init_lit = if init { "1'b1" } else { "1'b0" };
                let _ = writeln!(s, "  reg {out}_q;");
                match reset {
                    ResetKind::None => {
                        let _ = writeln!(s, "  always @(posedge clk) {out}_q <= {};", ins[0]);
                    }
                    ResetKind::Sync => {
                        let _ = writeln!(
                            s,
                            "  always @(posedge clk) {out}_q <= {} ? {init_lit} : {};",
                            ins[1], ins[0]
                        );
                    }
                    ResetKind::Async => {
                        let _ = writeln!(
                            s,
                            "  always @(posedge clk or posedge {}) if ({}) {out}_q <= {init_lit}; else {out}_q <= {};",
                            ins[1], ins[1], ins[0]
                        );
                    }
                }
                let _ = writeln!(s, "  assign {out} = {out}_q;");
            }
        }
    }
    // Output port connections.
    for p in nl.outputs() {
        for (i, &n) in p.nets.iter().enumerate() {
            let _ = writeln!(
                s,
                "  assign {}[{}] = {};",
                sanitize(&p.name),
                i,
                net_ref(nl, n)
            );
        }
    }
    let _ = writeln!(s, "endmodule");
    s
}

fn wire(nl: &Netlist, n: NetId) -> String {
    let _ = nl;
    format!("n{}", n.0)
}

fn net_ref(nl: &Netlist, n: NetId) -> String {
    // Input-port bits refer to the port select; internal nets use wire names.
    for p in nl.inputs() {
        if let Some(pos) = p.nets.iter().position(|&x| x == n) {
            return format!("{}[{}]", sanitize(&p.name), pos);
        }
    }
    if nl.driver(n).is_some() {
        wire(nl, n)
    } else {
        // Undriven, non-port net: tie low with a comment marker.
        "1'b0 /*undriven*/".into()
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{GateKind, ResetKind};

    #[test]
    fn combinational_module() {
        let mut nl = Netlist::new("comb");
        let a = nl.add_input("a", 2);
        let y = nl.add_gate(GateKind::Xor2, &[a[0], a[1]]);
        nl.add_output("y", &[y]);
        let v = to_verilog(&nl);
        assert!(v.contains("module comb (a, y);"));
        assert!(v.contains("xor"));
        assert!(v.contains("assign y[0]"));
        assert!(!v.contains("clk"));
        assert!(v.ends_with("endmodule\n"));
    }

    #[test]
    fn sequential_module_declares_clock() {
        let mut nl = Netlist::new("seq");
        let d = nl.add_input("d", 1)[0];
        let rst = nl.add_input("reset_in", 1)[0];
        let q = nl.add_gate(
            GateKind::Dff {
                reset: ResetKind::Async,
                init: true,
            },
            &[d, rst],
        );
        nl.add_output("q", &[q]);
        let v = to_verilog(&nl);
        assert!(v.contains("input clk;"));
        assert!(v.contains("posedge clk or posedge"));
        assert!(v.contains("1'b1"));
    }

    #[test]
    fn sanitizes_names() {
        let mut nl = Netlist::new("bad name!");
        let a = nl.add_input("a", 1)[0];
        let y = nl.add_gate(GateKind::Buf, &[a]);
        nl.add_output("y", &[y]);
        let v = to_verilog(&nl);
        assert!(v.contains("module bad_name_"));
    }
}
