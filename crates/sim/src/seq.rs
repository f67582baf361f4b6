//! Cycle-accurate sequential simulation.

use crate::comb::CombSim;
use crate::SimError;
use std::collections::HashMap;
use synthir_netlist::{GateId, GateKind, NetId, Netlist, ResetKind};

/// A cycle-accurate simulator for a sequential netlist.
///
/// One `step` = one rising clock edge: combinational logic settles from the
/// current state and inputs, then every flop samples its D pin. Reset is
/// modelled through the netlist's explicit `rst` input (present on designs
/// whose registers declared a reset); [`SeqSim::reset`] forces every flop to
/// its declared init value, which also models power-on for reset-less flops.
///
/// Inputs and outputs are addressed by port name with `u128` bus values.
#[derive(Debug)]
pub struct SeqSim<'nl> {
    nl: &'nl Netlist,
    sim: CombSim,
    flops: Vec<(GateId, NetId)>,
    state: HashMap<NetId, bool>,
}

impl<'nl> SeqSim<'nl> {
    /// Prepares a simulator and applies reset.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidNetlist`] if the combinational part is
    /// cyclic.
    pub fn new(nl: &'nl Netlist) -> Result<Self, SimError> {
        let sim = CombSim::new(nl)?;
        let flops: Vec<(GateId, NetId)> = nl
            .gates()
            .filter(|(_, g)| g.kind.is_sequential())
            .map(|(id, g)| (id, g.output))
            .collect();
        let mut s = SeqSim {
            nl,
            sim,
            flops,
            state: HashMap::new(),
        };
        s.reset();
        Ok(s)
    }

    /// Forces every flop to its declared init/reset value.
    pub fn reset(&mut self) {
        self.state.clear();
        for &(id, q) in &self.flops {
            if let GateKind::Dff { init, .. } = self.nl.gate(id).kind {
                self.state.insert(q, init);
            }
        }
    }

    /// Current value of a flop output net.
    pub fn flop_state(&self, q: NetId) -> Option<bool> {
        self.state.get(&q).copied()
    }

    /// Advances one clock cycle with the given input-port values and returns
    /// the output-port values observed *before* the edge (Moore-style
    /// sampling of the settled combinational network).
    ///
    /// Missing inputs default to zero; unknown names are ignored.
    pub fn step(&mut self, inputs: &HashMap<String, u128>) -> HashMap<String, u128> {
        let vals = self.settle(inputs);
        let outputs = self.read_outputs(&vals);
        // Clock edge: sample D pins (with reset semantics from the rst pin).
        let mut next: Vec<(NetId, bool)> = Vec::with_capacity(self.flops.len());
        for &(id, q) in &self.flops {
            let g = self.nl.gate(id);
            let GateKind::Dff { reset, init } = g.kind else {
                continue;
            };
            let d = vals[g.inputs()[0].index()] & 1 != 0;
            let v = match reset {
                ResetKind::None => d,
                ResetKind::Sync | ResetKind::Async => {
                    let rst = vals[g.inputs()[1].index()] & 1 != 0;
                    if rst {
                        init
                    } else {
                        d
                    }
                }
            };
            next.push((q, v));
        }
        for (q, v) in next {
            self.state.insert(q, v);
        }
        outputs
    }

    /// Evaluates the combinational network without clocking (useful for
    /// Mealy-style output inspection).
    pub fn peek(&self, inputs: &HashMap<String, u128>) -> HashMap<String, u128> {
        let vals = self.settle(inputs);
        self.read_outputs(&vals)
    }

    fn settle(&self, inputs: &HashMap<String, u128>) -> Vec<u64> {
        let mut sources: Vec<(NetId, u64)> = Vec::new();
        for p in self.nl.inputs() {
            let v = inputs.get(&p.name).copied().unwrap_or(0);
            for (i, &n) in p.nets.iter().enumerate() {
                sources.push((n, if v >> i & 1 != 0 { u64::MAX } else { 0 }));
            }
        }
        for (&q, &v) in &self.state {
            sources.push((q, if v { u64::MAX } else { 0 }));
        }
        self.sim.eval_with(self.nl, &sources)
    }

    fn read_outputs(&self, vals: &[u64]) -> HashMap<String, u128> {
        let mut out = HashMap::new();
        for p in self.nl.outputs() {
            let mut v = 0u128;
            for (i, &n) in p.nets.iter().enumerate() {
                if vals[n.index()] & 1 != 0 {
                    v |= 1 << i;
                }
            }
            out.insert(p.name.clone(), v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter2() -> Netlist {
        // 2-bit counter with sync reset.
        let mut nl = Netlist::new("counter2");
        let rst = nl.add_input("rst", 1)[0];
        let q0 = nl.add_net();
        let q1 = nl.add_net();
        let d0 = nl.add_gate(GateKind::Inv, &[q0]);
        let d1 = nl.add_gate(GateKind::Xor2, &[q1, q0]);
        nl.attach_gate(
            GateKind::Dff {
                reset: ResetKind::Sync,
                init: false,
            },
            &[d0, rst],
            q0,
        )
        .unwrap();
        nl.attach_gate(
            GateKind::Dff {
                reset: ResetKind::Sync,
                init: false,
            },
            &[d1, rst],
            q1,
        )
        .unwrap();
        nl.add_output("count", &[q0, q1]);
        nl
    }

    #[test]
    fn counter_counts() {
        let nl = counter2();
        let mut sim = SeqSim::new(&nl).unwrap();
        let idle = HashMap::new();
        let seq: Vec<u128> = (0..6).map(|_| sim.step(&idle)["count"]).collect();
        assert_eq!(seq, vec![0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn sync_reset_clears() {
        let nl = counter2();
        let mut sim = SeqSim::new(&nl).unwrap();
        let idle = HashMap::new();
        sim.step(&idle);
        sim.step(&idle);
        assert_eq!(sim.peek(&idle)["count"], 2);
        let mut rst = HashMap::new();
        rst.insert("rst".to_string(), 1u128);
        sim.step(&rst);
        assert_eq!(sim.peek(&idle)["count"], 0);
    }

    #[test]
    fn reset_restores_init_values() {
        let mut nl = Netlist::new("t");
        let d = nl.add_input("d", 1)[0];
        let q = nl.add_gate(
            GateKind::Dff {
                reset: ResetKind::None,
                init: true,
            },
            &[d],
        );
        nl.add_output("q", &[q]);
        let mut sim = SeqSim::new(&nl).unwrap();
        let idle = HashMap::new();
        assert_eq!(sim.peek(&idle)["q"], 1);
        sim.step(&idle); // d = 0
        assert_eq!(sim.peek(&idle)["q"], 0);
        sim.reset();
        assert_eq!(sim.peek(&idle)["q"], 1);
    }

    #[test]
    fn moore_sampling_is_pre_edge() {
        let nl = counter2();
        let mut sim = SeqSim::new(&nl).unwrap();
        let idle = HashMap::new();
        // The value returned by the first step is the reset state.
        assert_eq!(sim.step(&idle)["count"], 0);
    }
}
