//! Bit-parallel combinational simulation.

use crate::SimError;
use synthir_netlist::{topo, GateId, NetId, Netlist};

/// A prepared combinational simulator over a netlist.
///
/// Evaluates all combinational gates in topological order with 64 patterns
/// packed per word. Sequential gate outputs (flop Q pins) are treated as
/// *sources*: their values must be supplied alongside the primary inputs
/// (or default to 0).
#[derive(Debug, Clone)]
pub struct CombSim {
    order: Vec<GateId>,
    num_nets: usize,
}

impl CombSim {
    /// Prepares a simulator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidNetlist`] if the combinational part is
    /// cyclic.
    pub fn new(nl: &Netlist) -> Result<Self, SimError> {
        let order =
            topo::topological_order(nl).map_err(|e| SimError::InvalidNetlist(e.to_string()))?;
        Ok(CombSim {
            order,
            num_nets: nl.num_nets(),
        })
    }

    /// Evaluates every net for 64 packed patterns given source values.
    ///
    /// `sources` assigns pattern words to source nets (primary inputs and
    /// flop outputs); unassigned sources evaluate to all-zero. The caller
    /// must pass the same netlist the simulator was built from.
    pub fn eval_with(&self, nl: &Netlist, sources: &[(NetId, u64)]) -> Vec<u64> {
        let mut vals = vec![0u64; self.num_nets];
        for &(n, v) in sources {
            vals[n.index()] = v;
        }
        let mut ins: Vec<u64> = Vec::with_capacity(4);
        for &g in &self.order {
            let gate = nl.gate(g);
            if gate.kind.is_sequential() {
                continue;
            }
            ins.clear();
            ins.extend(gate.inputs().iter().map(|i| vals[i.index()]));
            vals[gate.output.index()] = gate.kind.eval_words(&ins);
        }
        vals
    }
}

/// A simulator bound to a borrowed netlist, offering the ergonomic
/// [`CombSimBound::eval`].
#[derive(Debug)]
pub struct CombSimBound<'nl> {
    sim: CombSim,
    nl: &'nl Netlist,
}

impl<'nl> CombSimBound<'nl> {
    /// Prepares a bound simulator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidNetlist`] if the combinational part is
    /// cyclic.
    pub fn new(nl: &'nl Netlist) -> Result<Self, SimError> {
        Ok(CombSimBound {
            sim: CombSim::new(nl)?,
            nl,
        })
    }

    /// Evaluates every net for 64 packed patterns given source values.
    pub fn eval(&self, sources: &[(NetId, u64)]) -> Vec<u64> {
        self.sim.eval_with(self.nl, sources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthir_netlist::GateKind;

    #[test]
    fn evaluates_patterns_in_parallel() {
        let mut nl = Netlist::new("maj");
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_input("b", 1)[0];
        let c = nl.add_input("c", 1)[0];
        let ab = nl.add_gate(GateKind::And2, &[a, b]);
        let bc = nl.add_gate(GateKind::And2, &[b, c]);
        let ac = nl.add_gate(GateKind::And2, &[a, c]);
        let t = nl.add_gate(GateKind::Or2, &[ab, bc]);
        let y = nl.add_gate(GateKind::Or2, &[t, ac]);
        nl.add_output("y", &[y]);

        let sim = CombSimBound::new(&nl).unwrap();
        // All 8 minterms in one word: bit k of each input word = minterm k.
        let aw = 0b10101010u64;
        let bw = 0b11001100u64;
        let cw = 0b11110000u64;
        let vals = sim.eval(&[(a, aw), (b, bw), (c, cw)]);
        let y = vals[y.index()] & 0xFF;
        // Majority: minterms 3,5,6,7.
        assert_eq!(y, 0b11101000);
    }

    #[test]
    fn unassigned_sources_default_to_zero() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_input("b", 1)[0];
        let y = nl.add_gate(GateKind::Or2, &[a, b]);
        nl.add_output("y", &[y]);
        let sim = CombSimBound::new(&nl).unwrap();
        let vals = sim.eval(&[(a, u64::MAX)]);
        assert_eq!(vals[y.index()], u64::MAX);
        let vals = sim.eval(&[]);
        assert_eq!(vals[y.index()], 0);
    }

    #[test]
    fn flop_outputs_are_sources() {
        use synthir_netlist::ResetKind;
        let mut nl = Netlist::new("t");
        let d = nl.add_input("d", 1)[0];
        let q = nl.add_gate(
            GateKind::Dff {
                reset: ResetKind::None,
                init: false,
            },
            &[d],
        );
        let y = nl.add_gate(GateKind::Inv, &[q]);
        nl.add_output("y", &[y]);
        let sim = CombSimBound::new(&nl).unwrap();
        let vals = sim.eval(&[(q, 0b01)]);
        assert_eq!(vals[y.index()] & 0b11, 0b10);
    }
}
