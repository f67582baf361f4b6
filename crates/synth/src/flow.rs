//! The `compile` flow: the pass pipeline a synthesis run executes.

use crate::cache::CompileCache;
use crate::options::SynthOptions;
use crate::timing::{sta, TimingReport};
use crate::SynthError;
use std::time::{Duration, Instant};
use synthir_netlist::{AreaReport, Library, Netlist};
use synthir_rtl::elaborate::{Elaborated, FsmNets, NetGroupValues};

/// One pass's record in [`CompileResult::stats`]: what ran, how much it
/// changed, and what it cost.
#[derive(Clone, Debug)]
pub struct PassStat {
    /// Pass name (`aig_opt`, `state_propagation`, `resynthesize`, …).
    pub name: &'static str,
    /// Number of rewrites/merges/folds the pass applied (pass-specific
    /// unit; 0 for a pass that ran but changed nothing).
    pub rewrites: usize,
    /// Live gate count entering the pass.
    pub gates_before: usize,
    /// Live gate count leaving the pass.
    pub gates_after: usize,
    /// Wall-clock time the pass took.
    pub elapsed: Duration,
}

/// The output of a [`compile`] run.
#[derive(Clone, Debug)]
pub struct CompileResult {
    /// The optimized, mapped netlist.
    pub netlist: Netlist,
    /// Area under the provided library.
    pub area: AreaReport,
    /// Static timing of the result.
    pub timing: TimingReport,
    /// Structured per-pass statistics, in execution order; through
    /// [`compile`], the last record is the cache's own (`compile_cache`).
    pub stats: Vec<PassStat>,
}

/// Compiles an elaborated module: the equivalent of a `compile` run of the
/// commercial tool the paper used, including its partial-evaluation
/// behaviour.
///
/// Repeated inputs are served from the process-wide content-addressed
/// cache ([`CompileCache::global`]); the result is the one
/// [`compile_netlist`] gives, under `elab`'s module name, and `stats` ends
/// with a `compile_cache` record (see [`crate::cache`]).
///
/// # Errors
///
/// Returns [`SynthError::InvalidNetlist`] if the input netlist is
/// malformed. FSM extraction failures are *not* errors: like the real tool,
/// the flow silently skips the pass (recorded in `stats`).
pub fn compile(
    elab: &Elaborated,
    lib: &Library,
    opts: &SynthOptions,
) -> Result<CompileResult, SynthError> {
    CompileCache::global().compile(elab, lib, opts)
}

/// Compiles a raw netlist with optional FSM metadata and annotations: the
/// uncached flow every [`compile`] miss runs.
///
/// The front half of the flow runs on the structurally-hashed
/// And-Inverter Graph ([`crate::aigopt`]): one graph-construction pass —
/// with local rewriting and the optional SAT sweep
/// ([`SynthOptions::sat_sweep`]) — folds constants and shares logic before
/// the netlist is handed to FSM re-encoding, optional retiming, state
/// propagation and resynthesis. Technology mapping ([`crate::cutmap`])
/// closes the flow: it imports the result into the AIG once more and
/// emits library cells from k-feasible cuts, with no dead gate left to
/// sweep. Every pass is timed and recorded in [`CompileResult::stats`]
/// and, under [`SynthOptions::verify_each_pass`], SAT-checked against the
/// netlist before it, so the netlist returned is the last one checked.
///
/// # Errors
///
/// Returns [`SynthError::InvalidNetlist`] if the input netlist is malformed.
pub fn compile_netlist(
    mut nl: Netlist,
    fsm: Option<&FsmNets>,
    annotations: &[NetGroupValues],
    lib: &Library,
    opts: &SynthOptions,
) -> Result<CompileResult, SynthError> {
    nl.validate()
        .map_err(|e| SynthError::InvalidNetlist(e.to_string()))?;
    let mut passes = Passes {
        stats: Vec::new(),
        verifier: PassVerifier::new(opts.verify_each_pass, &nl),
    };
    // The AIG round-trips rebuild the netlist, so the metadata must follow
    // it through owned, remappable copies.
    let mut fsm: Option<FsmNets> = fsm.cloned();
    let mut annos: Vec<NetGroupValues> = annotations.to_vec();

    // 1. Baseline cleanup: constant folding plus sharing in one AIG pass.
    passes.run(&mut nl, |nl| {
        let merged = crate::aigopt::aig_optimize(nl, fsm.as_mut(), &mut annos, opts.sat_sweep);
        ("aig_opt", merged)
    })?;

    // 2. FSM re-encoding (only with metadata, like the real tool). Its only
    // error is an extraction it gives up on, which leaves the netlist as
    // it was: the pass is recorded as skipped.
    if let Some(f) = fsm.as_ref() {
        passes.run(&mut nl, |nl| {
            match crate::fsmreencode::fsm_reencode(nl, f, opts.fsm_encoding) {
                Ok(()) => ("fsm_reencode", 1),
                Err(_) => ("fsm_reencode_skipped", 1),
            }
        })?;
    }

    // 3. Optional retiming (Fig. 8's "Retimed" variants): forward moves
    // flop banks past their downstream cones; backward moves them onto the
    // inputs of their driving cones. Both expose previously flop-separated
    // logic to combinational optimization.
    if opts.retime {
        passes.run(&mut nl, |nl| {
            let moved = crate::retime::retime_forward(nl) + crate::retime::retime_backward(nl);
            ("retime", moved)
        })?;
    }

    // 4. State propagation and folding over annotated groups.
    if !annos.is_empty() {
        passes.run(&mut nl, |nl| {
            let folded =
                crate::stateprop::state_propagate(nl, &annos, crate::stateprop::MAX_VALUESET);
            ("state_propagation", folded)
        })?;
    }

    // 5. Collapse-and-re-cover resynthesis.
    passes.run(&mut nl, |nl| {
        ("resynthesize", crate::resynth::resynthesize(nl, lib))
    })?;

    // 6. Technology mapping, the last pass: the netlist is re-imported into
    // the AIG (which folds constants and hashes structure on the way in,
    // and folds latches that never leave their init value) and the mapped
    // netlist is emitted directly from the chosen cuts: at most one cell,
    // and one shared inverter, per AIG node, and no dead gate. The
    // netlist returned is the one its check proved.
    passes.run(&mut nl, |nl| ("cutmap", crate::cutmap::cut_map(nl, lib)))?;
    nl.validate()
        .map_err(|e| SynthError::InvalidNetlist(e.to_string()))?;

    let area = nl.area_report(lib);
    let timing = sta(&nl, lib);
    Ok(CompileResult {
        netlist: nl,
        area,
        timing,
        stats: passes.stats,
    })
}

/// The passes of one compile so far: [`Passes::run`] is the one way a
/// pass runs, so every pass is timed, recorded and verified alike.
struct Passes {
    stats: Vec<PassStat>,
    verifier: PassVerifier,
}

impl Passes {
    /// Runs one pass on `nl` — `pass` returns its name and its `rewrites`
    /// statistic — records its [`PassStat`] and verifies the result.
    fn run(
        &mut self,
        nl: &mut Netlist,
        pass: impl FnOnce(&mut Netlist) -> (&'static str, usize),
    ) -> Result<(), SynthError> {
        let gates_before = nl.num_gates();
        let t0 = Instant::now();
        let (name, rewrites) = pass(nl);
        self.stats.push(PassStat {
            name,
            rewrites,
            gates_before,
            gates_after: nl.num_gates(),
            elapsed: t0.elapsed(),
        });
        self.verifier.check(nl, name)
    }
}

/// The `verify_each_pass` debug harness: holds the netlist as of the last
/// verified pass and SAT-checks each new snapshot against it, so the
/// flow's last check proves the very netlist it returns.
///
/// Pure combinational designs use the miter check. Anything with flops goes
/// through the sequential SAT check: an induction prover first proves the
/// snapshot equivalent at every depth when the pass kept a correspondence
/// between the two designs' signals (nearly every pass does), and whatever
/// it cannot prove is bounded-model-checked 6 cycles from reset. A pass
/// that changes behaviour within those cycles is caught with BMC's
/// concrete, cycle-numbered counterexample in the error message. A pass
/// that left the netlist as it was (a skipped `fsm_reencode`) needs no
/// proof.
struct PassVerifier {
    prev: Option<Netlist>,
}

impl PassVerifier {
    fn new(enabled: bool, nl: &Netlist) -> Self {
        PassVerifier {
            prev: enabled.then(|| nl.clone()),
        }
    }

    fn check(&mut self, nl: &Netlist, pass: &'static str) -> Result<(), SynthError> {
        let Some(prev) = &self.prev else {
            return Ok(());
        };
        if prev == nl {
            return Ok(());
        }
        use synthir_sim::{check_comb_equiv, check_seq_equiv, EquivOptions};
        let mut eopts = EquivOptions::new();
        eopts.bmc_depth = 6;
        let res = if prev.flop_count() == 0 && nl.flop_count() == 0 {
            check_comb_equiv(prev, nl, &eopts)
        } else {
            check_seq_equiv(prev, nl, &eopts)
        }
        .map_err(|e| SynthError::PassVerification(format!("after `{pass}`: {e}")))?;
        match res {
            synthir_sim::EquivResult::Equivalent => {
                self.prev = Some(nl.clone());
                Ok(())
            }
            synthir_sim::EquivResult::Inequivalent(cex) => {
                Err(SynthError::PassVerification(format!(
                    "pass `{pass}` changed behaviour: output `{}` differs \
                     ({:#x} vs {:#x}) for inputs {:?}",
                    cex.output, cex.left, cex.right, cex.inputs
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthir_logic::TruthTable;
    use synthir_rtl::{elaborate, styles};

    fn random_tt(inputs: usize, seed: u64) -> TruthTable {
        TruthTable::from_fn(inputs, |m| {
            let h = (m as u64 + 1)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ seed)
                .rotate_left(17)
                .wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
            h >> 63 != 0
        })
    }

    /// The Fig. 5 claim in miniature: a table-based module and a direct SOP
    /// module for the same function compile to similar areas.
    #[test]
    fn table_matches_sop_after_compile() {
        let lib = Library::vt90();
        let opts = SynthOptions::default();
        for seed in 0..5u64 {
            let tts: Vec<TruthTable> = (0..4).map(|i| random_tt(5, seed * 16 + i)).collect();
            let covers: Vec<synthir_logic::Cover> = tts
                .iter()
                .map(|t| synthir_logic::espresso::minimize_tt(t, None))
                .collect();
            let words: Vec<u128> = (0..32)
                .map(|m| {
                    tts.iter()
                        .enumerate()
                        .fold(0u128, |acc, (i, t)| acc | (u128::from(t.eval(m)) << i))
                })
                .collect();
            let sop = styles::sop_module("sop", 5, &covers);
            let tab = styles::table_module("tab", 5, 4, &words);
            let r_sop = compile(&elaborate(&sop).unwrap(), &lib, &opts).unwrap();
            let r_tab = compile(&elaborate(&tab).unwrap(), &lib, &opts).unwrap();
            // Equivalent results...
            let res = synthir_sim::check_comb_equiv(
                &r_sop.netlist,
                &r_tab.netlist,
                &synthir_sim::EquivOptions::new(),
            )
            .unwrap();
            assert!(res.is_equivalent(), "seed {seed}: {res:?}");
            // ...with areas within 40% of each other.
            let a = r_sop.area.total();
            let b = r_tab.area.total();
            assert!(
                (a - b).abs() / a.max(b) < 0.4,
                "seed {seed}: sop {a:.1} vs table {b:.1}"
            );
        }
    }

    /// The partial-evaluation headline: the programmable table costs flops
    /// and read logic; the bound table costs neither.
    #[test]
    #[allow(clippy::needless_range_loop)]
    fn bound_table_removes_all_sequential_area() {
        let lib = Library::vt90();
        let opts = SynthOptions::default();
        let words: Vec<u128> = (0..16).map(|m| (m as u128 * 7) & 0x7).collect();
        let full = styles::table_module_programmable("full", 4, 3);
        let auto = styles::table_module("auto", 4, 3, &words);
        let r_full = compile(&elaborate(&full).unwrap(), &lib, &opts).unwrap();
        let r_auto = compile(&elaborate(&auto).unwrap(), &lib, &opts).unwrap();
        assert!(r_full.area.sequential > 0.0);
        assert_eq!(r_auto.area.sequential, 0.0);
        assert!(r_auto.area.total() < 0.25 * r_full.area.total());
        // And the specialized design equals the programmed flexible one
        // (checked functionally on the combinational read path by binding
        // the config port): here we simply check the auto result against
        // the truth table directly.
        let sim = synthir_sim::CombSim::new(&r_auto.netlist).unwrap();
        let x = r_auto.netlist.input("x").unwrap().nets.clone();
        for m in 0..16usize {
            let sources: Vec<_> = x
                .iter()
                .enumerate()
                .map(|(i, &n)| (n, if m >> i & 1 != 0 { u64::MAX } else { 0u64 }))
                .collect();
            let vals = sim.eval_with(&r_auto.netlist, &sources);
            let y = r_auto.netlist.output("y").unwrap().nets.clone();
            let mut got = 0u128;
            for (i, &n) in y.iter().enumerate() {
                if vals[n.index()] & 1 != 0 {
                    got |= 1 << i;
                }
            }
            assert_eq!(got, words[m], "minterm {m}");
        }
    }

    /// `verify_each_pass` SAT-checks every pass against its predecessor —
    /// on healthy passes the flow completes and the results are identical
    /// to an unverified run. Covers both the combinational miter (SOP
    /// module, no flops) and the sequential BMC (table FSM) checkers.
    #[test]
    fn verify_each_pass_accepts_healthy_flows() {
        let lib = Library::vt90();
        let base = SynthOptions::default();
        let verified = base.clone().with_verify_each_pass();
        assert!(verified.verify_each_pass);
        // Combinational: a direct SOP module.
        let tts: Vec<TruthTable> = (0..2).map(|i| random_tt(4, 99 + i)).collect();
        let covers: Vec<synthir_logic::Cover> = tts
            .iter()
            .map(|t| synthir_logic::espresso::minimize_tt(t, None))
            .collect();
        let sop = styles::sop_module("sop", 4, &covers);
        let elab = elaborate(&sop).unwrap();
        let r = compile(&elab, &lib, &verified).unwrap();
        let r0 = compile(&elab, &lib, &base).unwrap();
        assert_eq!(r.netlist.num_gates(), r0.netlist.num_gates());
        // Sequential: a bound table FSM (flops + reset).
        let words: Vec<u128> = (0..16).map(|m| (m as u128 * 5) & 0x7).collect();
        let tab = styles::table_module("tab", 4, 3, &words);
        let elab = elaborate(&tab).unwrap();
        let r = compile(&elab, &lib, &verified).unwrap();
        assert!(r.netlist.num_gates() > 0);
    }

    /// The AIG pipeline with SAT sweeping stays verified too.
    #[test]
    fn verify_each_pass_accepts_sat_sweeping() {
        let lib = Library::vt90();
        let opts = SynthOptions::default()
            .with_sat_sweep()
            .with_verify_each_pass();
        let words: Vec<u128> = (0..32).map(|m| (m as u128 * 11) & 0xF).collect();
        let tab = styles::table_module("tab", 5, 4, &words);
        let r = compile(&elaborate(&tab).unwrap(), &lib, &opts).unwrap();
        assert!(r.netlist.num_gates() > 0);
        assert!(r.stats.iter().any(|s| s.name == "aig_opt"));
    }

    /// The compiled netlist is proved equivalent to the unsynthesized
    /// elaboration by the SAT engine, and its area stays within a recorded
    /// ceiling (the flow's area on these designs when the ceilings were
    /// taken; a regression past it fails).
    #[test]
    fn compile_proves_against_elaboration_within_area_ceiling() {
        let lib = Library::vt90();
        let opts = SynthOptions::default();
        let eopts = synthir_sim::EquivOptions::new();
        for (seed, ceiling) in [(0u64, 91.0), (1, 46.2), (2, 84.0), (3, 0.0)] {
            let words: Vec<u128> = (0..32)
                .map(|m| ((m as u128).wrapping_mul(37 + seed as u128)) & 0x1F)
                .collect();
            let tab = styles::table_module("tab", 5, 5, &words);
            let elab = elaborate(&tab).unwrap();
            let r = compile(&elab, &lib, &opts).unwrap();
            let res = synthir_sim::check_seq_equiv(&elab.netlist, &r.netlist, &eopts).unwrap();
            assert!(res.is_equivalent(), "seed {seed}: {res:?}");
            assert!(
                r.area.total() <= ceiling * 1.001,
                "seed {seed}: {:.1} µm² over the {ceiling:.1} µm² ceiling",
                r.area.total()
            );
        }
    }

    /// A pass that changes sequential behaviour is refused with a
    /// counterexample that names its cycle: a flipped flop `init`, an
    /// inverted next-state function, and two swapped state codes.
    #[test]
    fn pass_verifier_refuses_sequential_mutants_with_a_cycle_numbered_counterexample() {
        use synthir_core::fsm::FsmSpec;
        use synthir_netlist::GateKind;
        let out = vec![vec![0, 1], vec![2, 3], vec![1, 0], vec![3, 2]];
        let table = |next: Vec<Vec<usize>>| {
            let spec = FsmSpec::from_dense("m", 1, 2, &next, &out).unwrap();
            elaborate(&spec.to_table_module(false)).unwrap().netlist
        };
        let golden = table(vec![vec![1, 2], vec![2, 3], vec![3, 0], vec![0, 1]]);
        let flop = golden
            .gates()
            .find(|(_, g)| g.kind.is_sequential())
            .map(|(id, g)| (id, *g))
            .unwrap();
        let GateKind::Dff { reset, init } = flop.1.kind else {
            unreachable!("sequential gates are flops")
        };
        let mut flipped_init = golden.clone();
        let kind = GateKind::Dff { reset, init: !init };
        flipped_init.rewrite_gate(flop.0, kind, flop.1.inputs());
        let mut inverted_next = golden.clone();
        let mut ins = flop.1.inputs().to_vec();
        ins[0] = inverted_next.add_gate(GateKind::Inv, &[ins[0]]);
        inverted_next.rewrite_gate(flop.0, flop.1.kind, &ins);
        let swapped_codes = table(vec![vec![2, 1], vec![1, 3], vec![3, 0], vec![0, 2]]);
        for (name, mutant) in [
            ("flipped init", flipped_init),
            ("inverted next state", inverted_next),
            ("swapped state codes", swapped_codes),
        ] {
            let mut verifier = PassVerifier::new(true, &golden);
            match verifier.check(&mutant, "mutant") {
                Err(SynthError::PassVerification(msg)) => assert!(
                    msg.contains("pass `mutant` changed behaviour") && msg.contains("\"__cycle\""),
                    "{name}: {msg}"
                ),
                other => panic!("{name}: expected a counterexample, got {other:?}"),
            }
        }
    }

    /// A flop tied to its init value feeds a second flop: neither ever
    /// leaves its init value, so neither survives — with no FSM metadata
    /// and no annotation to start any other pass.
    #[test]
    fn constant_flop_chain_compiles_to_no_flops() {
        use synthir_netlist::{GateKind, ResetKind};
        let lib = Library::vt90();
        let mut nl = Netlist::new("chain");
        let a = nl.add_input("a", 1)[0];
        let rst = nl.add_input("rst", 1)[0];
        let zero = nl.constant(false);
        let sync = GateKind::Dff {
            reset: ResetKind::Sync,
            init: false,
        };
        let q1 = nl.add_gate(sync, &[zero, rst]);
        let plain = GateKind::Dff {
            reset: ResetKind::None,
            init: false,
        };
        let q2 = nl.add_gate(plain, &[q1]);
        let y = nl.add_gate(GateKind::Xor2, &[a, q2]);
        nl.add_output("y", &[y]);
        assert_eq!(nl.flop_count(), 2);
        let r = compile_netlist(nl.clone(), None, &[], &lib, &SynthOptions::default()).unwrap();
        assert_eq!(r.netlist.flop_count(), 0);
        assert_eq!(r.area.sequential, 0.0);
        let res = synthir_sim::check_seq_equiv(&nl, &r.netlist, &synthir_sim::EquivOptions::new())
            .unwrap();
        assert!(res.is_equivalent(), "{res:?}");
    }

    #[test]
    fn compile_reports_stats_and_timing() {
        let lib = Library::vt90();
        let words: Vec<u128> = (0..8).map(|m| m as u128 % 2).collect();
        let tab = styles::table_module("t", 3, 1, &words);
        let r = compile(&elaborate(&tab).unwrap(), &lib, &SynthOptions::default()).unwrap();
        assert!(!r.stats.is_empty());
        let s = &r.stats[0];
        assert_eq!(s.name, "aig_opt");
        assert!(s.gates_before >= s.gates_after);
        assert!(r.timing.critical_delay >= 0.0);
        assert!(r.timing.meets(5.0), "tiny logic must meet 5ns");
    }
}
