//! `synthir equiv` — the methodology's soundness check, as a command.
//!
//! The paper's central claim only holds if the specialized controller is
//! input/output-equivalent to the flexible one it came from. This
//! subcommand checks exactly that:
//!
//! * for KISS2 specs, the two lowerings are compared with
//!   [`synthir_sim::check_seq_equiv`] — reset both, drive identical input
//!   sequences, compare every output, every cycle — as a SAT proof:
//!   induction, else bounded model checking to `--depth` cycles;
//! * a `programmable` side is checked *program-then-compare*: its tables
//!   are first written through its config port (one word per cycle) and
//!   the state register is re-reset — the hardware analogue of binding the
//!   generator parameters. The prover then starts that side from the
//!   programmed state with the write port tied off, so program-then-compare
//!   is the same proof as a pair of bound styles;
//! * for a pair of `.pla` files, the ON-set covers are lowered to
//!   two-level gate networks and checked combinationally by a SAT miter,
//!   which proves equivalence (or produces a concrete counterexample) at
//!   any width.
//!
//! `--vcd` dumps the left design (programmed, if programmable) as a
//! waveform for debugging: the counterexample's input prefix replayed up
//! to the failing cycle, or a seeded run when the designs are equivalent.

use crate::args::Args;
use crate::fsm::Style;
use crate::{design_name, CliError, CmdResult};
use std::collections::HashMap;
use synthir_core::format_conv::from_kiss2;
use synthir_core::FsmSpec;
use synthir_logic::cube::Literal;
use synthir_logic::pla::Pla;
use synthir_netlist::{GateKind, Library, NetId, Netlist, ResetKind};
use synthir_rtl::elaborate;
use synthir_sim::{
    check_comb_equiv, check_seq_equiv, Counterexample, EquivOptions, EquivResult, SeqSim,
};
use synthir_synth::{flow::compile, flow::compile_netlist, SynthOptions};

/// Usage text for `synthir equiv`.
pub const USAGE: &str = "\
usage: synthir equiv <spec.kiss2> [options]
   or: synthir equiv <a.kiss2> <b.kiss2> [options]
   or: synthir equiv <a.pla> <b.pla> [options]

Checks input/output equivalence of two lowerings of a KISS2 spec (or of
two specs sharing an interface). Against the `programmable` style the
check programs the config tables first, then compares (program-then-
compare). Two .pla operands are compared combinationally (ON-set covers
under f-type semantics).

Every check is a SAT proof: a miter for .pla pairs; for KISS2 lowerings,
program-then-compare included, an induction proof, else a bounded model
check from reset to --depth cycles.

options:
  --left <style>   left coding style (default table; .kiss2 only)
  --right <style>  right coding style (default programmable; .kiss2 only)
  --cycles <n>     length of the --vcd run on an equivalent pair (default
                   256; .kiss2 only)
  --depth <k>      bounded-model-check depth (default 8; .kiss2 only)
  --seed <s>       seed of the --vcd run's inputs and of the induction
                   prover's simulation, which cannot change a verdict
                   (default 0x5EED; .kiss2 only)
  --synth          compare synthesized netlists instead of elaborations
  --vcd <file>     dump the left design as VCD (.kiss2 only), programmed
                   if programmable: the counterexample's inputs up to the
                   failing cycle when INEQUIVALENT, else a seeded --cycles
                   run
";

/// Boolean flags `synthir equiv` accepts (each documented in [`USAGE`]).
pub const FLAGS: &[&str] = &["synth"];

/// Valued options `synthir equiv` accepts (each documented in [`USAGE`]).
pub const OPTIONS: &[&str] = &["left", "right", "cycles", "depth", "seed", "vcd"];

/// The verdict line printed on success.
pub const EQUIVALENT: &str = "EQUIVALENT";

/// Runs the subcommand; returns the text for stdout.
///
/// A found counterexample is reported as an error (nonzero exit), with the
/// distinguishing cycle and values in the message.
///
/// # Errors
///
/// Returns [`CliError`] for bad arguments, unparsable specs, incompatible
/// interfaces, or an inequivalence counterexample.
pub fn run(args: &Args) -> CmdResult {
    let (left_path, right_path) = match args.positionals() {
        [one] => (one.as_str(), one.as_str()),
        [l, r] => (l.as_str(), r.as_str()),
        other => {
            return Err(CliError(format!(
                "expected one or two .kiss2/.pla operands, got {}",
                other.len()
            )))
        }
    };
    let is_pla = |p: &str| p.ends_with(".pla");
    match (is_pla(left_path), is_pla(right_path)) {
        (true, true) => return run_pla_pair(args, left_path, right_path),
        (false, false) => {}
        _ => {
            return Err(CliError(
                "cannot mix .pla and .kiss2 operands in one check".into(),
            ))
        }
    }
    let left_style = Style::parse(args.option("left").unwrap_or("table"))?;
    let right_style = Style::parse(args.option("right").unwrap_or("programmable"))?;
    let cycles: usize = args.option_parsed("cycles", 256)?;
    let seed: u64 = args.option_parsed("seed", 0x5EED)?;
    let depth: usize = args.option_parsed("depth", 8)?;
    for (name, v) in [("cycles", cycles), ("depth", depth)] {
        if v == 0 {
            return Err(CliError(format!("--{name} must be at least 1")));
        }
    }

    let read = |path: &str| -> Result<FsmSpec, CliError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError(format!("cannot read `{path}`: {e}")))?;
        Ok(from_kiss2(design_name(path), &text)?)
    };
    let left_spec = read(left_path)?;
    let right_spec = read(right_path)?;
    if left_spec.num_inputs() != right_spec.num_inputs()
        || left_spec.num_outputs() != right_spec.num_outputs()
    {
        return Err(CliError(format!(
            "interface mismatch: {}×{} vs {}×{} input/output bits",
            left_spec.num_inputs(),
            left_spec.num_outputs(),
            right_spec.num_inputs(),
            right_spec.num_outputs()
        )));
    }

    // Program-then-compare as a proof: a programmable side is lowered,
    // `programmed`, and checked with its config write port bound to 0.
    let mut opts = EquivOptions::new();
    opts.seed = seed;
    opts.bmc_depth = depth;
    let lower = |spec: &FsmSpec, style: Style, binds: &mut HashMap<String, u128>| {
        let elab = elaborate(&style.lower(spec))?;
        let nl = if args.flag("synth") {
            compile(&elab, &Library::vt90(), &SynthOptions::default())?.netlist
        } else {
            elab.netlist
        };
        if style != Style::Programmable {
            return Ok(nl);
        }
        binds.extend(WRITE_PORT.map(|port| (port.to_string(), 0)));
        programmed(&nl, spec)
    };
    let left_nl = lower(&left_spec, left_style, &mut opts.bind_left)?;
    let right_nl = lower(&right_spec, right_style, &mut opts.bind_right)?;

    let mut out = format!(
        "left  : {} ({:?}, {} gates)\nright : {} ({:?}, {} gates)\n",
        left_spec.name(),
        left_style,
        left_nl.num_gates(),
        right_spec.name(),
        right_style,
        right_nl.num_gates(),
    );

    let vcd = args.option("vcd");
    match check_seq_equiv(&left_nl, &right_nl, &opts)? {
        EquivResult::Equivalent => {
            if let Some(path) = vcd {
                record_vcd(&left_nl, cycles, seed, path)?;
            }
            out.push_str(&format!(
                "{EQUIVALENT} for all input sequences up to {depth} cycles (BMC proof)\n"
            ));
            Ok(out)
        }
        EquivResult::Inequivalent(cex) => {
            if let Some(path) = vcd {
                record_counterexample(&left_nl, &cex, path)?;
            }
            Err(inequivalent(&cex))
        }
    }
}

/// The `.pla`-pair path: lower both ON-set covers to two-level gate
/// networks over a shared `in`/`out` bus interface and prove them
/// equivalent (or not) with a combinational SAT miter.
fn run_pla_pair(args: &Args, left_path: &str, right_path: &str) -> CmdResult {
    for opt in ["left", "right", "vcd", "cycles", "depth", "seed"] {
        if args.option(opt).is_some() {
            return Err(CliError(format!("--{opt} does not apply to .pla operands")));
        }
    }
    let read = |path: &str| -> Result<Pla, CliError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError(format!("cannot read `{path}`: {e}")))?;
        Ok(Pla::parse(&text)?)
    };
    let left = read(left_path)?;
    let right = read(right_path)?;
    if left.num_inputs != right.num_inputs || left.num_outputs != right.num_outputs {
        return Err(CliError(format!(
            "interface mismatch: {}×{} vs {}×{} input/output bits",
            left.num_inputs, left.num_outputs, right.num_inputs, right.num_outputs
        )));
    }
    let lower = |pla: &Pla, name: &str| -> Result<Netlist, CliError> {
        let nl = pla_netlist(name, pla);
        if args.flag("synth") {
            let r = compile_netlist(nl, None, &[], &Library::vt90(), &SynthOptions::default())?;
            Ok(r.netlist)
        } else {
            Ok(nl)
        }
    };
    let left_nl = lower(&left, &design_name(left_path))?;
    let right_nl = lower(&right, &design_name(right_path))?;

    let mut out = format!(
        "left  : {} ({} inputs, {} outputs, {} terms, {} gates)\nright : {} ({} inputs, {} outputs, {} terms, {} gates)\n",
        design_name(left_path),
        left.num_inputs,
        left.num_outputs,
        left.term_count(),
        left_nl.num_gates(),
        design_name(right_path),
        right.num_inputs,
        right.num_outputs,
        right.term_count(),
        right_nl.num_gates(),
    );

    match check_comb_equiv(&left_nl, &right_nl, &EquivOptions::new())? {
        EquivResult::Equivalent => {
            out.push_str(&format!("{EQUIVALENT} (proved by SAT)\n"));
            Ok(out)
        }
        EquivResult::Inequivalent(cex) => Err(inequivalent(&cex)),
    }
}

/// The error that reports a counterexample.
fn inequivalent(cex: &Counterexample) -> CliError {
    CliError(format!(
        "INEQUIVALENT: output `{}` differs: left {:#x} vs right {:#x} (inputs {:?})",
        cex.output, cex.left, cex.right, cex.inputs
    ))
}

/// Lowers a PLA's ON-set covers (f-type semantics) to a flat two-level
/// gate network: one `in` bus, one `out` bus, an AND per product term and
/// an OR per output. Public so tests (and other front ends) can reuse the
/// exact lowering the `equiv` subcommand checks.
pub fn pla_netlist(name: &str, pla: &Pla) -> Netlist {
    let mut nl = Netlist::new(name);
    let ins = nl.add_input("in", pla.num_inputs);
    let fold = |nl: &mut Netlist, kind: GateKind, nets: &[NetId]| -> NetId {
        let mut acc = nets[0];
        for &n in &nets[1..] {
            acc = nl.add_gate(kind, &[acc, n]);
        }
        acc
    };
    let mut outs = Vec::with_capacity(pla.num_outputs);
    for cover in &pla.on {
        let mut terms: Vec<NetId> = Vec::with_capacity(cover.cubes().len());
        for cube in cover.cubes() {
            let mut lits: Vec<NetId> = Vec::new();
            for (v, &net) in ins.iter().enumerate() {
                match cube.literal(v) {
                    Literal::DontCare => {}
                    Literal::Positive => lits.push(net),
                    Literal::Negative => {
                        let inv = nl.add_gate(GateKind::Inv, &[net]);
                        lits.push(inv);
                    }
                }
            }
            terms.push(match lits.len() {
                0 => nl.const1(),
                _ => fold(&mut nl, GateKind::And2, &lits),
            });
        }
        outs.push(match terms.len() {
            0 => nl.const0(),
            _ => fold(&mut nl, GateKind::Or2, &terms),
        });
    }
    nl.add_output("out", &outs);
    nl
}

/// The config write port of the `programmable` style.
const WRITE_PORT: [&str; 4] = ["cfg_addr", "cfg_next", "cfg_out", "cfg_wen"];

/// Programs a flexible design and returns it as a bound one: `spec`'s
/// table words are written through the `cfg_*` port, one word per cycle,
/// and the state register is re-reset (it wandered during programming).
/// The copy's flops then start in the state the simulator holds, so the
/// reset-less config flops start out holding the program.
///
/// # Panics
///
/// Panics if a flop with reset wiring does not hold its `init` after the
/// re-reset.
fn programmed(nl: &Netlist, spec: &FsmSpec) -> Result<Netlist, CliError> {
    let mut sim = SeqSim::new(nl)?;
    let (next_words, out_words) = spec.to_table_words();
    for (addr, (&next, &out)) in next_words.iter().zip(&out_words).enumerate() {
        sim.step(&HashMap::from([
            ("cfg_addr".to_string(), addr as u128),
            ("cfg_next".to_string(), next),
            ("cfg_out".to_string(), out),
            ("cfg_wen".to_string(), 1),
        ]));
    }
    sim.step(&HashMap::from([("rst".to_string(), 1)]));
    let mut bound = nl.clone();
    for (id, g) in nl.gates() {
        if let GateKind::Dff { reset, init } = g.kind {
            let state = sim.flop_state(g.output).expect("every flop has a state");
            assert!(
                reset == ResetKind::None || state == init,
                "a reset flop holds its init after reset"
            );
            bound.rewrite_gate(id, GateKind::Dff { reset, init: state }, g.inputs());
        }
    }
    Ok(bound)
}

/// Records a seeded standalone run of one design for `--vcd` on an
/// equivalent pair (the proof itself came from `check_seq_equiv`).
fn record_vcd(nl: &Netlist, cycles: usize, seed: u64, path: &str) -> Result<(), CliError> {
    let in_width = nl
        .inputs()
        .iter()
        .find(|p| p.name == "in")
        .map(|p| p.nets.len())
        .unwrap_or(1);
    let mask = if in_width >= 64 {
        u64::MAX
    } else {
        (1u64 << in_width) - 1
    };
    let mut rng = seed;
    let text = synthir_sim::vcd::record_run(nl, cycles, |_| {
        let mut m = HashMap::new();
        m.insert("in".to_string(), (splitmix_next(&mut rng) & mask) as u128);
        m
    })?;
    write_file(path, text)
}

/// Replays a counterexample through one design for `--vcd`:
/// its `name@t` input prefix, cycle by cycle, so the dump's last timestep
/// is the reported `__cycle`.
fn record_counterexample(nl: &Netlist, cex: &Counterexample, path: &str) -> Result<(), CliError> {
    let last = cex.inputs.get("__cycle").map(|&c| c as usize);
    let last = last.expect("sequential counterexamples report their `__cycle`");
    let mut frames = vec![HashMap::new(); last + 1];
    for (key, &v) in &cex.inputs {
        let Some((name, t)) = key.rsplit_once('@') else {
            continue;
        };
        if let Some(frame) = t.parse().ok().and_then(|t: usize| frames.get_mut(t)) {
            frame.insert(name.to_string(), v);
        }
    }
    let text = synthir_sim::vcd::record_run(nl, last + 1, |t| std::mem::take(&mut frames[t]))?;
    write_file(path, text)
}

fn write_file(path: &str, text: String) -> Result<(), CliError> {
    std::fs::write(path, text).map_err(|e| CliError(format!("cannot write `{path}`: {e}")))
}

/// One SplitMix64 step — the stimulus generator of the `--vcd` run.
fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOGGLE: &str = ".i 1\n.o 1\n.r off\n1 off on 1\n- off off 0\n1 on off 0\n- on on 1\n.e\n";
    /// Like TOGGLE but the `on` state drives 0 — behaviourally different.
    const BROKEN: &str = ".i 1\n.o 1\n.r off\n1 off on 1\n- off off 0\n1 on off 0\n- on on 0\n.e\n";

    fn write_temp(name: &str, text: &str) -> String {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, text).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn parse(raw: &[&str]) -> Args {
        Args::parse(raw, FLAGS, OPTIONS).unwrap()
    }

    #[test]
    fn table_vs_case_is_equivalent() {
        let p = write_temp("cli_eq_tc.kiss2", TOGGLE);
        let out = run(&parse(&[&p, "--left", "table", "--right", "case"])).unwrap();
        assert!(out.contains(EQUIVALENT), "{out}");
    }

    #[test]
    fn table_vs_programmable_programs_then_compares() {
        let p = write_temp("cli_eq_tp.kiss2", TOGGLE);
        let out = run(&parse(&[&p, "--left", "table", "--right", "programmable"])).unwrap();
        assert!(out.contains(EQUIVALENT), "{out}");
    }

    #[test]
    fn synthesized_vs_programmable_is_equivalent() {
        let p = write_temp("cli_eq_sp.kiss2", TOGGLE);
        let out = run(&parse(&[
            &p,
            "--left",
            "table",
            "--right",
            "programmable",
            "--synth",
        ]))
        .unwrap();
        assert!(out.contains(EQUIVALENT), "{out}");
    }

    /// Different specs are refuted with a sequential counterexample, bound
    /// or programmed, each spec on either side.
    #[test]
    fn different_specs_are_caught() {
        let a = write_temp("cli_eq_a.kiss2", TOGGLE);
        let b = write_temp("cli_eq_b.kiss2", BROKEN);
        for (l, r) in [(&a, &b), (&b, &a)] {
            for (ls, rs) in [
                ("table", "table"),
                ("table", "programmable"),
                ("programmable", "case"),
            ] {
                let e = run(&parse(&[l, r, "--left", ls, "--right", rs])).unwrap_err();
                cex_cycle(&e.to_string());
            }
        }
    }

    #[test]
    fn vcd_is_dumped() {
        let p = write_temp("cli_eq_vcd.kiss2", TOGGLE);
        let vcd = std::env::temp_dir().join("cli_eq_dump.vcd");
        let vcd_s = vcd.to_string_lossy().into_owned();
        let out = run(&parse(&[&p, "--right", "programmable", "--vcd", &vcd_s])).unwrap();
        assert!(out.contains(EQUIVALENT), "{out}");
        let text = std::fs::read_to_string(&vcd).unwrap();
        assert!(text.contains("$enddefinitions"), "{text}");
        // Bound-vs-bound path writes one too.
        let out = run(&parse(&[&p, "--right", "case", "--vcd", &vcd_s])).unwrap();
        assert!(out.contains(EQUIVALENT), "{out}");
    }

    /// On an inequivalent pair `--vcd` replays the counterexample through
    /// the left design, programmed if programmable: one timestep per cycle
    /// up to the reported `__cycle`, so the dump ends at `#(__cycle + 1)`,
    /// and it is written before the error.
    #[test]
    fn vcd_replays_the_counterexample_of_a_bound_pair() {
        let a = write_temp("cli_eq_vcd_cex_a.kiss2", TOGGLE);
        let b = write_temp("cli_eq_vcd_cex_b.kiss2", BROKEN);
        let vcd = std::env::temp_dir().join("cli_eq_vcd_cex.vcd");
        let vcd_s = vcd.to_string_lossy().into_owned();
        for (l, r, ls) in [(&a, &b, "table"), (&b, &a, "programmable")] {
            let _ = std::fs::remove_file(&vcd);
            let e = run(&parse(&[
                l, r, "--left", ls, "--right", "table", "--vcd", &vcd_s,
            ]))
            .unwrap_err()
            .to_string();
            let text = std::fs::read_to_string(&vcd).unwrap();
            let last = text.lines().last().unwrap();
            assert_eq!(last, format!("#{}", cex_cycle(&e) + 1), "{ls}: {text}");
        }
    }

    /// The `__cycle` an INEQUIVALENT message reports.
    fn cex_cycle(e: &str) -> usize {
        assert!(e.contains("INEQUIVALENT"), "{e}");
        e.split("\"__cycle\": ")
            .nth(1)
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no __cycle in {e}"))
    }

    #[test]
    fn interface_mismatch_is_an_error() {
        let a = write_temp("cli_eq_w1.kiss2", TOGGLE);
        let b = write_temp("cli_eq_w2.kiss2", ".i 2\n.o 1\n.r s\n-- s s 0\n");
        let e = run(&parse(&[&a, &b])).unwrap_err();
        assert!(e.to_string().contains("interface mismatch"), "{e}");
    }

    #[test]
    fn bmc_engine_on_kiss2_bound_styles() {
        let p = write_temp("cli_eq_bmc.kiss2", TOGGLE);
        let out = run(&parse(&[
            &p, "--left", "table", "--right", "case", "--depth", "5",
        ]))
        .unwrap();
        assert!(out.contains("BMC proof"), "{out}");
        // A behavioural difference is caught within the unrolling.
        let a = write_temp("cli_eq_bmc_a.kiss2", TOGGLE);
        let b = write_temp("cli_eq_bmc_b.kiss2", BROKEN);
        let e = run(&parse(&[&a, &b, "--left", "table", "--right", "table"])).unwrap_err();
        assert!(e.to_string().contains("INEQUIVALENT"), "{e}");
    }

    /// Program-then-compare goes through the same prover as a bound pair,
    /// so its verdict is the BMC proof line.
    #[test]
    fn programmable_path_is_a_bmc_proof() {
        let p = write_temp("cli_eq_noclaim.kiss2", TOGGLE);
        let out = run(&parse(&[&p, "--right", "programmable"])).unwrap();
        assert!(
            out.contains(&format!(
                "{EQUIVALENT} for all input sequences up to 8 cycles (BMC proof)"
            )),
            "{out}"
        );
    }

    /// The programmed copy carries the program in its config flops' `init`:
    /// flipping one of them is a different controller, and the proof sees
    /// it.
    #[test]
    fn flipped_config_flop_is_refuted() {
        let spec = from_kiss2("toggle", TOGGLE).unwrap();
        let table = elaborate(&Style::Table.lower(&spec)).unwrap().netlist;
        let flexible = elaborate(&Style::Programmable.lower(&spec))
            .unwrap()
            .netlist;
        let good = programmed(&flexible, &spec).unwrap();
        let mut opts = EquivOptions::new();
        opts.bind_right
            .extend(WRITE_PORT.map(|port| (port.to_string(), 0)));
        assert!(check_seq_equiv(&table, &good, &opts)
            .unwrap()
            .is_equivalent());
        let config: Vec<_> = good
            .gates()
            .filter_map(|(id, g)| match g.kind {
                GateKind::Dff {
                    reset: ResetKind::None,
                    init,
                } => Some((id, init, *g)),
                _ => None,
            })
            .collect();
        assert!(!config.is_empty(), "the flexible design has config flops");
        for (id, init, g) in config {
            let mut bad = good.clone();
            let kind = GateKind::Dff {
                reset: ResetKind::None,
                init: !init,
            };
            bad.rewrite_gate(id, kind, g.inputs());
            let res = check_seq_equiv(&table, &bad, &opts).unwrap();
            assert!(!res.is_equivalent(), "flop {id:?} flipped");
        }
    }

    const PLA_A: &str = ".i 3\n.o 1\n11- 1\n1-1 1\n-11 1\n.e\n";
    /// Same majority function, restated with minterm cubes.
    const PLA_B: &str = ".i 3\n.o 1\n110 1\n101 1\n011 1\n111 1\n.e\n";
    /// AND3 — differs from majority.
    const PLA_C: &str = ".i 3\n.o 1\n111 1\n.e\n";

    #[test]
    fn pla_pairs_are_checked_combinationally() {
        let a = write_temp("cli_eq_maj_a.pla", PLA_A);
        let b = write_temp("cli_eq_maj_b.pla", PLA_B);
        let out = run(&parse(&[&a, &b])).unwrap();
        assert!(out.contains("EQUIVALENT (proved by SAT)"), "{out}");
        let c = write_temp("cli_eq_and3.pla", PLA_C);
        let e = run(&parse(&[&a, &c])).unwrap_err();
        assert!(e.to_string().contains("INEQUIVALENT"), "{e}");
    }

    #[test]
    fn pla_and_kiss2_operands_cannot_mix() {
        let a = write_temp("cli_eq_mix.kiss2", TOGGLE);
        let b = write_temp("cli_eq_mix.pla", PLA_A);
        let e = run(&parse(&[&a, &b])).unwrap_err();
        assert!(e.to_string().contains("cannot mix"), "{e}");
        // And kiss2-only options do not apply to PLA pairs — including the
        // sequential knobs, which would otherwise be silently ignored.
        let c = write_temp("cli_eq_mix2.pla", PLA_B);
        for bad in [
            ["--left", "table"],
            ["--depth", "3"],
            ["--cycles", "9"],
            ["--seed", "1"],
        ] {
            let e = run(&parse(&[&b, &c, bad[0], bad[1]])).unwrap_err();
            assert!(e.to_string().contains("does not apply"), "{bad:?}: {e}");
        }
    }

    /// The checks would run one cycle anyway, so a verdict "up to 0 cycles"
    /// misreports what was checked: zero is refused instead.
    #[test]
    fn zero_depth_or_cycles_is_an_error() {
        let p = write_temp("cli_eq_zero.kiss2", TOGGLE);
        for opt in ["--depth", "--cycles"] {
            let e = run(&parse(&[
                &p, "--left", "table", "--right", "case", opt, "0",
            ]))
            .unwrap_err();
            assert!(e.to_string().contains(opt), "{opt}: {e}");
        }
    }

    /// SAT is the only prover, so there is no `--engine` to pick one: the
    /// option is refused as unknown rather than silently ignored.
    #[test]
    fn unknown_engine_is_an_error() {
        let a = write_temp("cli_eq_engine.kiss2", TOGGLE);
        for engine in ["sat", "bdd"] {
            let e = Args::parse(&[a.as_str(), "--engine", engine], FLAGS, OPTIONS).unwrap_err();
            assert!(e.to_string().contains("unknown option `--engine`"), "{e}");
        }
    }
}
