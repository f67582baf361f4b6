//! Static timing analysis.
//!
//! The paper's experiments "only compare designs that synthesized to
//! identical timing targets"; this module provides the measurement. The
//! delay model is per-cell pin-to-output delay plus a crude fanout term,
//! with flop clock-to-Q as launch and setup time as capture margin.
//!
//! Every delay comes from the [`Library`]'s per-cell metadata table
//! (`Library::combinational_cells`, flop rows included) — nothing is
//! hardcoded here — so the technology mapper's choices ([`crate::cutmap`])
//! show up honestly in the reported area/delay tradeoff: a bigger-but-faster
//! cell pays for it in area and is credited for it in `critical_delay`,
//! from the same rows the mapper itself optimized against.

use synthir_netlist::{topo, Library, NetId, Netlist};

/// The result of static timing analysis.
#[derive(Clone, Debug, PartialEq)]
pub struct TimingReport {
    /// Longest register-to-register / input-to-register / register-to-output
    /// path delay in ns (including clock-to-Q and setup where applicable).
    pub critical_delay: f64,
    /// The net where the critical path ends.
    pub critical_net: Option<NetId>,
    /// Per-net arrival times (ns).
    pub arrival: Vec<f64>,
}

impl TimingReport {
    /// Whether the design meets a clock period (ns).
    pub fn meets(&self, clock_ns: f64) -> bool {
        self.critical_delay <= clock_ns
    }

    /// Slack against a clock period (ns); positive means timing is met.
    pub fn slack(&self, clock_ns: f64) -> f64 {
        clock_ns - self.critical_delay
    }
}

/// Runs static timing analysis.
///
/// # Panics
///
/// Panics if the netlist has a combinational cycle (validate first).
pub fn sta(nl: &Netlist, lib: &Library) -> TimingReport {
    let order = topo::topological_order(nl).expect("acyclic netlist");
    let fanout = nl.fanout_counts();
    let mut arrival = vec![0.0f64; nl.num_nets()];
    // Launch points: flop outputs start at clock-to-Q.
    for (_, g) in nl.gates() {
        if g.kind.is_sequential() {
            arrival[g.output.index()] = lib.delay(g.kind);
        }
    }
    let mut critical = 0.0f64;
    let mut critical_net = None;
    for gid in order {
        let g = nl.gate(gid);
        if g.kind.is_sequential() || g.kind.is_constant() {
            continue;
        }
        let input_arrival = g
            .inputs()
            .iter()
            .map(|i| arrival[i.index()])
            .fold(0.0, f64::max);
        let fo = f64::from(fanout[g.output.index()].saturating_sub(1));
        let t = input_arrival + lib.delay(g.kind) + fo * lib.fanout_delay;
        arrival[g.output.index()] = t;
        if t > critical {
            critical = t;
            critical_net = Some(g.output);
        }
    }
    // Capture at flop D pins requires setup margin.
    let mut critical_delay = critical;
    for (_, g) in nl.gates() {
        if g.kind.is_sequential() {
            let t = arrival[g.inputs()[0].index()] + lib.setup_time;
            if t > critical_delay {
                critical_delay = t;
                critical_net = Some(g.inputs()[0]);
            }
        }
    }
    // Primary outputs capture without margin.
    for net in nl.output_nets() {
        if arrival[net.index()] > critical_delay {
            critical_delay = arrival[net.index()];
            critical_net = Some(net);
        }
    }
    TimingReport {
        critical_delay,
        critical_net,
        arrival,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthir_netlist::{GateKind, ResetKind};

    #[test]
    fn chain_delay_accumulates() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let mut n = a;
        for _ in 0..5 {
            n = nl.add_gate(GateKind::Inv, &[n]);
        }
        nl.add_output("y", &[n]);
        let lib = Library::vt90();
        let rep = sta(&nl, &lib);
        let expected = 5.0 * lib.delay(GateKind::Inv);
        assert!((rep.critical_delay - expected).abs() < 1e-9);
        assert!(rep.meets(1.0));
        assert!(!rep.meets(expected / 2.0));
    }

    #[test]
    fn flop_paths_include_clk_q_and_setup() {
        let mut nl = Netlist::new("t");
        let d = nl.add_input("d", 1)[0];
        let kind = GateKind::Dff {
            reset: ResetKind::None,
            init: false,
        };
        let q = nl.add_gate(kind, &[d]);
        let x = nl.add_gate(GateKind::Inv, &[q]);
        let _q2 = nl.add_gate(kind, &[x]);
        nl.add_output("q2", &[_q2]);
        let lib = Library::vt90();
        let rep = sta(&nl, &lib);
        let expected = lib.delay(kind) + lib.delay(GateKind::Inv) + lib.setup_time;
        assert!((rep.critical_delay - expected).abs() < 1e-9);
    }

    #[test]
    fn fanout_penalty() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let x = nl.add_gate(GateKind::Inv, &[a]);
        // Three consumers of x.
        let y1 = nl.add_gate(GateKind::Inv, &[x]);
        let y2 = nl.add_gate(GateKind::Inv, &[x]);
        let y3 = nl.add_gate(GateKind::Inv, &[x]);
        nl.add_output("y1", &[y1]);
        nl.add_output("y2", &[y2]);
        nl.add_output("y3", &[y3]);
        let lib = Library::vt90();
        let rep = sta(&nl, &lib);
        let expected = lib.delay(GateKind::Inv) + 2.0 * lib.fanout_delay + lib.delay(GateKind::Inv);
        assert!((rep.critical_delay - expected).abs() < 1e-9);
    }

    #[test]
    fn slack_sign() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let y = nl.add_gate(GateKind::Inv, &[a]);
        nl.add_output("y", &[y]);
        let rep = sta(&nl, &Library::vt90());
        assert!(rep.slack(5.0) > 0.0);
        assert!(rep.slack(0.0) < 0.0);
    }
}
