//! SAT sweeping: merging functionally equivalent AIG nodes.
//!
//! Candidate equivalences come from bit-parallel random simulation: nodes
//! whose 64-bit signature words agree (up to complement) land in the same
//! class. Each candidate is then *proved* against its class representative
//! by the CDCL solver on a cone-local miter — UNSAT merges the node (with
//! the right phase), SAT yields a distinguishing pattern that refines the
//! remaining candidates. Latch outputs are free variables throughout, so a
//! proven merge is sound sequentially as well as combinationally.

use crate::graph::{Aig, AigLit, AigNode};
use crate::rewrite::{self, Rebuilt};
use crate::tseitin::Tseitin;
use std::collections::HashMap;

/// Effort knobs for [`sat_sweep`].
#[derive(Clone, Copy, Debug)]
pub struct SweepOptions {
    /// Number of 64-pattern simulation words per signature.
    pub sim_words: usize,
    /// RNG seed for the random stimulus.
    pub seed: u64,
    /// Budget on SAT calls; when exhausted the sweep keeps the merges
    /// proved so far and stops.
    pub max_sat_calls: usize,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            sim_words: 4,
            seed: 0xA1_65ED,
            max_sat_calls: 2000,
        }
    }
}

/// The outcome of a sweep.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// The merged graph plus the old-node → new-literal map.
    pub rebuilt: Rebuilt,
    /// Nodes merged into an equivalent representative.
    pub merges: usize,
    /// UNSAT (proof) results.
    pub proofs: usize,
    /// SAT (refutation) results — candidate pairs simulation could not
    /// tell apart but the solver could.
    pub refutations: usize,
}

/// Runs SAT sweeping over the live part of `aig`. `keep` literals stay
/// mapped (annotation carriers). The result may contain dangling cones
/// where merges cut fanout — run [`crate::rewrite::compact`] afterwards.
pub fn sat_sweep(aig: &Aig, keep: &[AigLit], opts: &SweepOptions) -> SweepResult {
    let live = aig.live_marks(keep);
    let n = aig.node_count();
    // Signatures: `sim_words` words per node of shared random stimulus.
    let mut sigs: Vec<Vec<u64>> = vec![Vec::with_capacity(opts.sim_words); n];
    for w in 0..opts.sim_words.max(1) {
        let vals = aig.simulate(|node| splitmix(opts.seed ^ (u64::from(node) << 20) ^ w as u64));
        for (node, v) in vals.iter().enumerate() {
            sigs[node].push(*v);
        }
    }
    // Candidate classes keyed by phase-canonical signature.
    let mut classes: HashMap<Vec<u64>, Vec<(u32, bool)>> = HashMap::new();
    for (node, sig) in sigs.iter().enumerate() {
        if !live[node] {
            continue;
        }
        let phase = sig[0] & 1 != 0;
        let canon: Vec<u64> = if phase {
            sig.iter().map(|w| !w).collect()
        } else {
            sig.clone()
        };
        classes.entry(canon).or_default().push((node as u32, phase));
    }
    let mut work: Vec<Vec<(u32, bool)>> = classes.into_values().filter(|c| c.len() >= 2).collect();
    // Deterministic processing order regardless of hash iteration.
    for c in &mut work {
        c.sort_unstable();
    }
    work.sort_unstable();

    let mut equiv: Vec<Option<AigLit>> = vec![None; n];
    let mut merges = 0usize;
    let mut proofs = 0usize;
    let mut refutations = 0usize;
    let mut sat_calls = 0usize;
    'outer: while let Some(group) = work.pop() {
        let (repr, repr_phase) = group[0];
        let mut split: Vec<(u32, bool)> = Vec::new();
        let mut idx = 1;
        while idx < group.len() {
            let (member, phase) = group[idx];
            idx += 1;
            if !matches!(aig.nodes()[member as usize], AigNode::And(..)) {
                continue; // sources cannot be replaced
            }
            if sat_calls >= opts.max_sat_calls {
                break 'outer;
            }
            sat_calls += 1;
            let diff = phase != repr_phase;
            match prove_pair(aig, repr, member, diff) {
                None => {
                    proofs += 1;
                    merges += 1;
                    equiv[member as usize] = Some(AigLit::new(repr, diff));
                }
                Some(pattern) => {
                    refutations += 1;
                    // Refine: members the pattern separates from the
                    // representative form their own candidate group. The
                    // refuted member is split off unconditionally (the
                    // model proves it differs), so this group strictly
                    // shrinks and the loop terminates.
                    let vals =
                        aig.simulate(|node| if pattern[node as usize] { u64::MAX } else { 0 });
                    let bit = |node: u32, ph: bool| (vals[node as usize] & 1 != 0) ^ ph;
                    let repr_bit = bit(repr, repr_phase);
                    split.push((member, phase));
                    let mut still: Vec<(u32, bool)> = Vec::new();
                    for &(m, p) in &group[idx..] {
                        if bit(m, p) == repr_bit {
                            still.push((m, p));
                        } else {
                            split.push((m, p));
                        }
                    }
                    if split.len() >= 2 {
                        work.push(std::mem::take(&mut split));
                    } else {
                        split.clear();
                    }
                    // Continue with the members that still agree.
                    let mut regroup = vec![(repr, repr_phase)];
                    regroup.extend(still);
                    if regroup.len() >= 2 {
                        work.push(regroup);
                    }
                    continue 'outer;
                }
            }
        }
    }

    // Rebuild with the proven merges applied: a merged node takes its
    // representative's (earlier, already copied) literal.
    let rebuilt = rewrite::rebuild(aig, keep, &[], |g, map, i, a, b| match equiv[i] {
        Some(e) => e.translate(map),
        None => g.and(a, b),
    });
    SweepResult {
        rebuilt,
        merges,
        proofs,
        refutations,
    }
}

/// Asks the solver whether `member == repr ^ diff` over all input/latch
/// valuations of their shared cone. `None` is a proof; a model holds the
/// input/latch values of a distinguishing pattern.
fn prove_pair(aig: &Aig, repr: u32, member: u32, diff: bool) -> Option<Vec<bool>> {
    let mut enc = Tseitin::new(aig);
    let a = enc.encode(aig, AigLit::new(repr, false));
    let b = enc.encode(aig, AigLit::new(member, diff));
    // Miter: a != b.
    enc.add_clause(&[a, b]);
    enc.add_clause(&[!a, !b]);
    enc.solve(aig)
}

fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two structurally different forms of the same function merge.
    #[test]
    fn merges_functionally_equal_nodes() {
        let mut g = Aig::new("t");
        let a = g.add_input_port("a", 1)[0];
        let b = g.add_input_port("b", 1)[0];
        let c = g.add_input_port("c", 1)[0];
        // y1 = (a & b) & c, y2 = a & (b & c): structurally distinct nodes.
        let ab = g.and(a, b);
        let y1 = g.and(ab, c);
        let bc = g.and(b, c);
        let y2 = g.and(a, bc);
        assert_ne!(y1, y2, "hashing alone must not see through this");
        g.add_output_port("y1", &[y1]);
        g.add_output_port("y2", &[y2]);
        let res = sat_sweep(&g, &[], &SweepOptions::default());
        assert!(res.merges >= 1, "{res:?}");
        let r = &res.rebuilt;
        assert_eq!(r.lit(y1), r.lit(y2));
        // Function preserved.
        let masks = [
            0xAAAA_AAAA_AAAA_AAAAu64,
            0xCCCC_CCCC_CCCC_CCCC,
            0xF0F0_F0F0_F0F0_F0F0,
        ];
        let vals = r.aig.simulate(|n| {
            let i = r.aig.input_nodes().iter().position(|&v| v == n).unwrap();
            masks[i]
        });
        assert_eq!(
            Aig::lit_value(&vals, r.lit(y1)) & 0xFF,
            masks[0] & masks[1] & masks[2] & 0xFF
        );
    }

    /// Complement-phase equivalences merge too.
    #[test]
    fn merges_complement_pairs() {
        let mut g = Aig::new("t");
        let a = g.add_input_port("a", 1)[0];
        let b = g.add_input_port("b", 1)[0];
        // De Morgan twins: !(a & b) vs (!a | !b) built the long way.
        let nab = !g.and(a, b);
        let x = g.and(!a, !b); // !a & !b — NOT equal to nab
        let o = g.or(!a, !b); // == nab, but or() folds via hashing already…
        let _ = x;
        g.add_output_port("p", &[nab]);
        g.add_output_port("q", &[o]);
        // Hashing already unifies these; make a genuinely different pair:
        // q2 = mux(a, !b, 1) == !(a & b).
        let q2 = g.mux(a, !b, AigLit::TRUE);
        g.add_output_port("r", &[q2]);
        let res = sat_sweep(&g, &[], &SweepOptions::default());
        let r = &res.rebuilt;
        assert_eq!(r.lit(nab), r.lit(q2), "{res:?}");
    }

    /// Inequivalent nodes with colliding signatures must not merge: use a
    /// single simulation word and many nodes so collisions are plausible,
    /// then check functional preservation.
    #[test]
    fn never_merges_inequivalent_nodes() {
        let mut g = Aig::new("t");
        let inputs: Vec<AigLit> = (0..6).map(|_| g.add_input()).collect();
        let mut outs = Vec::new();
        let mut lits = inputs.clone();
        let mut state = 7u64;
        for _ in 0..40 {
            state = splitmix(state);
            let a = lits[(state % lits.len() as u64) as usize];
            state = splitmix(state);
            let b = lits[(state % lits.len() as u64) as usize];
            state = splitmix(state);
            let y = match state % 3 {
                0 => g.and(a, !b),
                1 => g.or(a, b),
                _ => g.xor(a, b),
            };
            lits.push(y);
            outs.push(y);
        }
        for (i, &o) in outs.iter().enumerate() {
            g.add_output_port(format!("o{i}"), &[o]);
        }
        let res = sat_sweep(
            &g,
            &[],
            &SweepOptions {
                sim_words: 1,
                ..Default::default()
            },
        );
        let r = &res.rebuilt;
        // Exhaustive check over all 64 input minterms.
        let old_vals = g.simulate(|n| tt_word(&g, n));
        let new_vals = r.aig.simulate(|n| tt_word(&r.aig, n));
        for &o in &outs {
            assert_eq!(
                Aig::lit_value(&old_vals, o),
                Aig::lit_value(&new_vals, r.lit(o)),
                "sweep changed a function"
            );
        }
    }

    fn tt_word(g: &Aig, node: u32) -> u64 {
        let i = g.input_nodes().iter().position(|&v| v == node).unwrap();
        // 6-variable truth-table stimulus.
        [
            0xAAAA_AAAA_AAAA_AAAAu64,
            0xCCCC_CCCC_CCCC_CCCC,
            0xF0F0_F0F0_F0F0_F0F0,
            0xFF00_FF00_FF00_FF00,
            0xFFFF_0000_FFFF_0000,
            0xFFFF_FFFF_0000_0000,
        ][i]
    }
}
