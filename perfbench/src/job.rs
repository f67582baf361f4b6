//! One job: the path a `synthir fsm` / `synthir equiv` user takes, driven
//! through each crate's public functions — and the independent oracle
//! that checks its output.

use crate::gen::{PlaModel, Rng};
use crate::trace::Tracer;
use crate::workload::{Design, Input, Style, Workload};
use std::collections::{BTreeMap, HashMap};
use synthir_netlist::{Library, Netlist};
use synthir_sim::{EquivEngine, EquivOptions, EquivResult, SeqSim};
use synthir_synth::CompileResult;

/// Cycles of random stimulus per simulation oracle.
const ORACLE_CYCLES: usize = 64;
/// BMC depth of the signoff sequential checks.
const BMC_DEPTH: usize = 4;

/// What a job produced.
pub struct JobOut {
    /// The elaborated (unsynthesized) netlist; the table side for pairs,
    /// the left PLA for miters.
    pub elab: Netlist,
    /// The compile result (absent for PLA miters).
    pub compiled: Option<CompileResult>,
    /// The right-hand netlist of an equivalence job.
    pub other: Option<Netlist>,
    /// The equivalence verdict of a signoff job.
    pub verdict: Option<EquivResult>,
}

/// The QoR of one compiled design.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Qor {
    /// `AreaReport::total`, µm².
    pub area: f64,
    /// `TimingReport::critical_delay`, ns.
    pub critical: f64,
    /// Mapped gate count.
    pub gates: usize,
}

impl JobOut {
    /// The QoR of the compiled design, if the job compiled one.
    pub fn qor(&self) -> Option<Qor> {
        self.compiled.as_ref().map(|r| Qor {
            area: r.area.total(),
            critical: r.timing.critical_delay,
            gates: r.netlist.num_gates(),
        })
    }
}

/// Per-layer counters gathered in the traced run.
pub type Counters = BTreeMap<&'static str, f64>;

fn add(c: &mut Counters, key: &'static str, v: f64) {
    *c.entry(key).or_default() += v;
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn parse_kiss2(
    tr: &mut Tracer,
    p: Option<usize>,
    job: usize,
    name: &str,
    text: &str,
) -> Result<synthir_core::FsmSpec, String> {
    tr.time("core.parse", p, job, || {
        synthir_core::format_conv::from_kiss2(name, text)
    })
    .map_err(err)
}

fn lower(spec: &synthir_core::FsmSpec, style: Style) -> synthir_rtl::Module {
    match style {
        Style::Plain => spec.to_table_module(false),
        Style::Annotated => spec.to_table_module(true),
        Style::Case => spec.to_case_module(),
        Style::Programmable => spec.to_programmable_module(),
    }
}

fn elaborate(
    tr: &mut Tracer,
    p: Option<usize>,
    job: usize,
    m: &synthir_rtl::Module,
    counters: &mut Counters,
) -> Result<synthir_rtl::Elaborated, String> {
    let e = tr
        .time("rtl.elaborate", p, job, || synthir_rtl::elaborate(m))
        .map_err(err)?;
    if tr.on() {
        add(counters, "rtl.gates_out", e.netlist.num_gates() as f64);
        add(counters, "rtl.flops_out", e.netlist.flop_count() as f64);
    }
    Ok(e)
}

/// Compiles under a `synth.compile` span and rebuilds one child span per
/// pass from `CompileResult::stats` (durations only: the flow's checks run
/// between passes, so their positions inside the compile are unknown).
fn compile(
    tr: &mut Tracer,
    p: Option<usize>,
    job: usize,
    e: &synthir_rtl::Elaborated,
    lib: &Library,
    w: &Workload,
    counters: &mut Counters,
) -> Result<CompileResult, String> {
    let id = tr.open("synth.compile", p, job);
    let r = synthir_synth::compile(e, lib, &w.opts).map_err(err);
    tr.close(id);
    let r = r?;
    if tr.on() {
        for s in &r.stats {
            tr.record(format!("synth.{}", s.name), s.elapsed, id, job);
            let key = match s.name {
                "aig_opt" => Some("synth.aig_opt_rewrites"),
                "state_propagation" => Some("synth.state_propagation_rewrites"),
                "resynthesize" => Some("synth.resynthesize_rewrites"),
                _ => None,
            };
            if let Some(key) = key {
                add(counters, key, s.rewrites as f64);
            }
        }
        add(counters, "synth.gates_out", r.netlist.num_gates() as f64);
    }
    Ok(r)
}

/// Runs one job. Everything between entry and return is the job's
/// latency; the oracle and the AIG probe run afterwards.
pub fn run(
    w: &Workload,
    d: &Design,
    lib: &Library,
    tr: &mut Tracer,
    job: usize,
    counters: &mut Counters,
) -> Result<JobOut, String> {
    let root = tr.open("job", None, job);
    let out = run_inner(w, d, lib, tr, root, job, counters);
    tr.close(root);
    out
}

fn run_inner(
    w: &Workload,
    d: &Design,
    lib: &Library,
    tr: &mut Tracer,
    p: Option<usize>,
    job: usize,
    counters: &mut Counters,
) -> Result<JobOut, String> {
    match &d.input {
        Input::Fsm { text, style, .. } => {
            let spec = parse_kiss2(tr, p, job, &d.name, text)?;
            let m = tr.time("core.lower", p, job, || lower(&spec, *style));
            let e = elaborate(tr, p, job, &m, counters)?;
            let r = compile(tr, p, job, &e, lib, w, counters)?;
            Ok(JobOut {
                elab: e.netlist,
                compiled: Some(r),
                other: None,
                verdict: None,
            })
        }
        Input::Ucode { text, annotate } => {
            let (program, _) = tr
                .time("core.parse", p, job, || {
                    synthir_cli::ucode::assemble_source(&d.name, text)
                })
                .map_err(|e| e.0)?;
            let opts = synthir_core::sequencer::SequencerOptions {
                flexible: false,
                register_outputs: true,
                annotate_fsm: *annotate,
                annotate_fields: *annotate,
            };
            let m = tr
                .time("core.lower", p, job, || {
                    synthir_core::sequencer::generate(&program, opts)
                })
                .map_err(err)?;
            let e = elaborate(tr, p, job, &m, counters)?;
            let r = compile(tr, p, job, &e, lib, w, counters)?;
            Ok(JobOut {
                elab: e.netlist,
                compiled: Some(r),
                other: None,
                verdict: None,
            })
        }
        Input::Pctrl { cfg, style } => {
            let m = tr
                .time("pctrl.module", p, job, || {
                    smpctrl::rtl::pctrl_module(cfg, *style)
                })
                .map_err(err)?;
            let e = elaborate(tr, p, job, &m, counters)?;
            let r = compile(tr, p, job, &e, lib, w, counters)?;
            Ok(JobOut {
                elab: e.netlist,
                compiled: Some(r),
                other: None,
                verdict: None,
            })
        }
        Input::SeqPair {
            text, case_text, ..
        } => {
            let spec = parse_kiss2(tr, p, job, &d.name, text)?;
            let case_spec = parse_kiss2(tr, p, job, &d.name, case_text)?;
            let table = tr.time("core.lower", p, job, || spec.to_table_module(true));
            let case = tr.time("core.lower", p, job, || case_spec.to_case_module());
            let e = elaborate(tr, p, job, &table, counters)?;
            let ce = elaborate(tr, p, job, &case, counters)?;
            let r = compile(tr, p, job, &e, lib, w, counters)?;
            let mut eo = EquivOptions::new();
            eo.engine = EquivEngine::Sat;
            eo.bmc_depth = BMC_DEPTH;
            let verdict = tr
                .time("sim.equiv", p, job, || {
                    synthir_sim::check_seq_equiv(&r.netlist, &ce.netlist, &eo)
                })
                .map_err(err)?;
            Ok(JobOut {
                elab: e.netlist,
                compiled: Some(r),
                other: Some(ce.netlist),
                verdict: Some(verdict),
            })
        }
        Input::PlaPair { a_text, b_text, .. } => {
            let (a, b) = tr.time("core.parse", p, job, || {
                (
                    synthir_logic::pla::Pla::parse(a_text),
                    synthir_logic::pla::Pla::parse(b_text),
                )
            });
            let (a, b) = (a.map_err(err)?, b.map_err(err)?);
            let (na, nb) = tr.time("core.lower", p, job, || {
                (
                    synthir_cli::equiv::pla_netlist("a", &a),
                    synthir_cli::equiv::pla_netlist("b", &b),
                )
            });
            let mut eo = EquivOptions::new();
            eo.engine = EquivEngine::Sat;
            let verdict = tr
                .time("sim.equiv", p, job, || {
                    synthir_sim::check_comb_equiv(&na, &nb, &eo)
                })
                .map_err(err)?;
            Ok(JobOut {
                elab: na,
                compiled: None,
                other: Some(nb),
                verdict: Some(verdict),
            })
        }
    }
}

/// The traced run's AIG-layer probe on a job's elaborated netlist: import,
/// optimize (SAT-swept on `signoff`), and 4-input priority cuts.
pub fn aig_probe(w: &Workload, out: &JobOut, tr: &mut Tracer, job: usize, counters: &mut Counters) {
    let imported = tr.time("aig.import", None, job, || {
        synthir_aig::from_netlist(&out.elab)
    });
    let Ok(imported) = imported else {
        return;
    };
    let sweep = synthir_aig::SweepOptions::default();
    let (rebuilt, stats) = tr.time("aig.optimize", None, job, || {
        synthir_aig::optimize(&imported.aig, &[], w.opts.sat_sweep.then_some(&sweep))
    });
    let cuts = tr.time("aig.cuts", None, job, || {
        synthir_aig::enumerate_cuts(&rebuilt.aig, 4, 8)
    });
    add(counters, "aig.ands_in", stats.ands_before as f64);
    add(counters, "aig.ands_out", stats.ands_after as f64);
    add(
        counters,
        "aig.cut_count",
        cuts.iter().map(Vec::len).sum::<usize>() as f64,
    );
    add(counters, "aig.node_count", rebuilt.aig.node_count() as f64);
    add(
        counters,
        "sat.sweep_calls",
        (stats.sat_proofs + stats.sat_refutations) as f64,
    );
    add(counters, "sat.sweep_merges", stats.sat_merges as f64);
}

/// Checks a job's output against a reference that never comes from
/// `synth`: the generator's FSM spec, the elaborated unsynthesized
/// netlist, or the verdict known by construction.
pub fn check(d: &Design, out: &JobOut, seed: u64) -> Result<(), String> {
    let compiled = out.compiled.as_ref().map(|r| &r.netlist);
    match &d.input {
        Input::Fsm {
            style: Style::Programmable,
            ..
        }
        | Input::Ucode { .. }
        | Input::Pctrl { .. } => lockstep(compiled.expect("compiled"), &out.elab, seed),
        Input::Fsm { reference, .. } => spec_trace(compiled.expect("compiled"), reference, seed),
        Input::SeqPair {
            reference,
            equivalent,
            ..
        } => {
            let nl = compiled.expect("compiled");
            spec_trace(nl, reference, seed)?;
            let other = out.other.as_ref().expect("case side");
            match (out.verdict.as_ref().expect("verdict"), equivalent) {
                (EquivResult::Equivalent, true) => Ok(()),
                (EquivResult::Inequivalent(cex), false) => replay_seq(nl, other, cex),
                (v, _) => Err(format!(
                    "verdict {} differs from the known answer",
                    verdict_name(v)
                )),
            }
        }
        Input::PlaPair {
            a, b, equivalent, ..
        } => {
            let other = out.other.as_ref().expect("right PLA");
            match (out.verdict.as_ref().expect("verdict"), equivalent) {
                (EquivResult::Equivalent, true) => Ok(()),
                (EquivResult::Inequivalent(cex), false) => replay_comb(&out.elab, other, a, b, cex),
                (v, _) => Err(format!(
                    "verdict {} differs from the known answer",
                    verdict_name(v)
                )),
            }
        }
    }
}

fn verdict_name(v: &EquivResult) -> &'static str {
    if v.is_equivalent() {
        "Equivalent"
    } else {
        "Inequivalent"
    }
}

/// Simulates the compiled netlist from reset over a seeded random input
/// trace and compares every cycle's outputs with `FsmSpec::eval`.
fn spec_trace(nl: &Netlist, spec: &synthir_core::FsmSpec, seed: u64) -> Result<(), String> {
    let mut sim = SeqSim::new(nl).map_err(err)?;
    let mut rng = Rng::new(seed);
    let mut state = spec.reset_state();
    let mut inputs = HashMap::new();
    for cycle in 0..ORACLE_CYCLES {
        let x = rng.bits(spec.num_inputs()) as u64;
        inputs.insert("in".to_string(), u128::from(x));
        let got = sim.step(&inputs).get("out").copied().unwrap_or(0);
        let (next, want) = spec.eval(state, x);
        if got != want {
            return Err(format!(
                "cycle {cycle}: out {got:#x}, spec says {want:#x} (input {x:#x})"
            ));
        }
        state = next;
    }
    Ok(())
}

/// Drives the compiled and the elaborated netlists from reset with the
/// same random stimulus — config writes included — and compares every
/// output each cycle.
fn lockstep(compiled: &Netlist, elab: &Netlist, seed: u64) -> Result<(), String> {
    let mut a = SeqSim::new(compiled).map_err(err)?;
    let mut b = SeqSim::new(elab).map_err(err)?;
    let mut rng = Rng::new(seed);
    let ports: Vec<(String, usize)> = elab
        .inputs()
        .iter()
        .filter(|p| p.name != "rst")
        .map(|p| (p.name.clone(), p.nets.len()))
        .collect();
    let mut inputs = HashMap::new();
    for cycle in 0..ORACLE_CYCLES {
        for (name, width) in &ports {
            inputs.insert(name.clone(), rng.bits(*width));
        }
        let (oa, ob) = (a.step(&inputs), b.step(&inputs));
        for p in elab.outputs() {
            if oa.get(&p.name) != ob.get(&p.name) {
                return Err(format!(
                    "cycle {cycle}: output `{}` is {:?}, unsynthesized design gives {:?}",
                    p.name,
                    oa.get(&p.name),
                    ob.get(&p.name)
                ));
            }
        }
    }
    Ok(())
}

/// Replays a BMC counterexample (`name@t` inputs up to `__cycle`) through
/// `SeqSim` on both sides and requires the reported difference.
fn replay_seq(
    left: &Netlist,
    right: &Netlist,
    cex: &synthir_sim::Counterexample,
) -> Result<(), String> {
    let cycle = *cex
        .inputs
        .get("__cycle")
        .ok_or("counterexample has no cycle")? as usize;
    if cycle >= BMC_DEPTH {
        return Err(format!("counterexample cycle {cycle} beyond the BMC depth"));
    }
    let (mut a, mut b) = (
        SeqSim::new(left).map_err(err)?,
        SeqSim::new(right).map_err(err)?,
    );
    for t in 0..=cycle {
        let mut inputs = HashMap::new();
        for p in left.inputs() {
            if let Some(v) = cex.inputs.get(&format!("{}@{t}", p.name)) {
                inputs.insert(p.name.clone(), *v);
            }
        }
        let (oa, ob) = (a.step(&inputs), b.step(&inputs));
        if t == cycle {
            let (va, vb) = (oa.get(&cex.output), ob.get(&cex.output));
            if va == vb || va != Some(&cex.left) || vb != Some(&cex.right) {
                return Err(format!("counterexample does not replay: {va:?} vs {vb:?}"));
            }
        }
    }
    Ok(())
}

/// Replays a miter counterexample on both netlists and on the generator's
/// PLA models.
fn replay_comb(
    left: &Netlist,
    right: &Netlist,
    a: &PlaModel,
    b: &PlaModel,
    cex: &synthir_sim::Counterexample,
) -> Result<(), String> {
    let x = *cex.inputs.get("in").ok_or("counterexample has no `in`")?;
    if a.eval(x as u64) == b.eval(x as u64) {
        return Err("counterexample is not a difference of the PLA models".into());
    }
    let eval = |nl: &Netlist| -> Result<u128, String> {
        let mut sim = SeqSim::new(nl).map_err(err)?;
        let mut inputs = HashMap::new();
        inputs.insert("in".to_string(), x);
        Ok(sim.step(&inputs)[&cex.output])
    };
    let (va, vb) = (eval(left)?, eval(right)?);
    if va == vb || va != cex.left || vb != cex.right {
        return Err(format!(
            "counterexample does not replay: {va:#x} vs {vb:#x}"
        ));
    }
    Ok(())
}
