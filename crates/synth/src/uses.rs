//! Per-net use counts: what resynthesis asks of a fanout map, kept current
//! in place instead of rebuilt per query.

use crate::conefn::Cone;
use synthir_netlist::{Library, Netlist};

/// How often each net is used: once per gate-input pin reading it (so
/// `And2(a, a)` uses `a` twice) and once per output-port bit. Every live
/// gate counts, including dead ones an earlier rewrite left for the final
/// sweep, exactly as [`Netlist::fanout_counts`] counts them.
#[derive(Debug, PartialEq)]
pub(crate) struct UseCounts {
    refs: Vec<u32>,
}

impl UseCounts {
    pub(crate) fn count(nl: &Netlist) -> Self {
        let mut refs = nl.fanout_counts();
        for n in nl.outputs().iter().flat_map(|p| &p.nets) {
            refs[n.index()] += 1;
        }
        UseCounts { refs }
    }

    /// The area of the gates of a single-root `cone` that would die if
    /// every consumer of its root were rewired away: the root's driver,
    /// then every cone gate whose uses all come from dying gates. Visiting
    /// the program in reverse topological order settles each gate's
    /// consumers before the gate, so one pass counts, per slot, the uses
    /// that dying gates take away (the `deref` walk), in a cone-local tally
    /// that leaves `self` as it is. The areas are summed in the cone's
    /// topological order, so the `f64` total — and every accept/reject
    /// decision made on it — is the same every run.
    pub(crate) fn dying_area(&self, cone: &Cone, lib: &Library) -> f64 {
        let root = cone.roots[0];
        let first = cone.support.len() + 2; // the slot of gate 0
        let ops = &cone.ops;
        // Per slot: the uses of its value by dying cone gates.
        let mut lost = vec![0u32; first + ops.len()];
        let mut dying = vec![false; ops.len()];
        for (j, op) in ops.iter().enumerate().rev() {
            if first + j == root || self.refs[op.out.index()] == lost[first + j] {
                dying[j] = true;
                for &i in &op.ins[..op.kind.arity()] {
                    lost[i] += 1;
                }
            }
        }
        ops.iter()
            .zip(&dying)
            .filter(|(_, &d)| d)
            .map(|(op, _)| lib.area(op.kind))
            .sum()
    }
}
