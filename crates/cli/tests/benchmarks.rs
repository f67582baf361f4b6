//! End-to-end runs of every shipped benchmark through the CLI pipelines —
//! the offline demonstration the README promises, as a test.

use synthir_cli::args::Args;
use synthir_cli::{equiv, fsm, pla, ucode};

fn bench_path(name: &str) -> String {
    format!("{}/../../benchmarks/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn kiss2_benchmarks() -> Vec<String> {
    let dir = format!("{}/../../benchmarks", env!("CARGO_MANIFEST_DIR"));
    let mut v: Vec<String> = std::fs::read_dir(dir)
        .expect("benchmarks/ exists")
        .filter_map(|e| Some(e.ok()?.path().to_string_lossy().into_owned()))
        .filter(|p| p.ends_with(".kiss2"))
        .collect();
    v.sort();
    assert!(
        v.len() >= 3,
        "expected at least 3 KISS2 benchmarks, got {v:?}"
    );
    v
}

/// The ISSUE's acceptance flow: `synthir fsm <x>.kiss2 --style table -o
/// out.v --report` runs end-to-end, and the emitted module is equivalent to
/// the programmable baseline under `synthir equiv`.
#[test]
fn every_kiss2_benchmark_synthesizes_and_matches_programmable_baseline() {
    for path in kiss2_benchmarks() {
        let out_v = std::env::temp_dir().join(format!(
            "bench_{}.v",
            std::path::Path::new(&path)
                .file_stem()
                .unwrap()
                .to_string_lossy()
        ));
        let out_v = out_v.to_string_lossy().into_owned();
        let args = Args::parse(
            &[
                path.as_str(),
                "--style",
                "table",
                "-o",
                out_v.as_str(),
                "--report",
            ],
            &["report", "no-synth"],
            &["style", "o", "clock"],
        )
        .unwrap();
        let out = fsm::run(&args).unwrap();
        assert!(out.contains("area"), "{path}: {out}");
        let verilog = std::fs::read_to_string(&out_v).unwrap();
        assert!(verilog.contains("module "), "{path}: no module in {out_v}");

        let eq_args = Args::parse(
            &[
                path.as_str(),
                "--left",
                "table",
                "--right",
                "programmable",
                "--synth",
            ],
            &["synth"],
            &["left", "right", "cycles", "seed", "vcd"],
        )
        .unwrap();
        let eq = equiv::run(&eq_args).unwrap();
        assert!(eq.contains(equiv::EQUIVALENT), "{path}: {eq}");
    }
}

/// Every KISS2 benchmark also agrees across all three bound styles.
#[test]
fn kiss2_benchmarks_agree_across_bound_styles() {
    for path in kiss2_benchmarks() {
        for style in ["table-annotated", "case"] {
            let args = Args::parse(
                &[path.as_str(), "--left", "table", "--right", style],
                &["synth"],
                &["left", "right", "cycles", "seed", "vcd"],
            )
            .unwrap();
            let out = equiv::run(&args).unwrap();
            assert!(out.contains(equiv::EQUIVALENT), "{path} vs {style}: {out}");
        }
    }
}

#[test]
fn pla_benchmarks_minimize() {
    for (name, expect_fewer) in [("majority.pla", false), ("one_hot.pla", true)] {
        let path = bench_path(name);
        let args = Args::parse(&[path.as_str(), "--stats"], &["stats", "echo"], &["o"]).unwrap();
        let out = pla::run(&args).unwrap();
        assert!(out.contains("terms"), "{name}: {out}");
        if expect_fewer {
            // The fr-type benchmark has exploitable don't-cares.
            let nums: Vec<usize> = out
                .lines()
                .find(|l| l.starts_with("terms"))
                .unwrap()
                .split(|c: char| !c.is_ascii_digit())
                .filter(|s| !s.is_empty())
                .map(|s| s.parse().unwrap())
                .collect();
            assert!(nums[1] < nums[0], "{name}: {out}");
        }
    }
}

fn equiv_args(raw: &[&str]) -> Args {
    Args::parse(raw, equiv::FLAGS, equiv::OPTIONS).unwrap()
}

/// The wide pair: 32 shared input bits, far beyond exhaustive enumeration.
/// The SAT miter, the only prover, proves equivalence.
#[test]
fn wide_pla_pair_is_proved_by_sat_only() {
    let a = bench_path("wide_ctrl_a.pla");
    let b = bench_path("wide_ctrl_b.pla");
    let out = equiv::run(&equiv_args(&[&a, &b])).unwrap();
    assert!(out.contains("EQUIVALENT (proved by SAT)"), "{out}");
}

/// Injecting an inequivalence (dropping one product term) yields a concrete
/// SAT counterexample.
#[test]
fn wide_pla_injected_inequivalence_yields_counterexample() {
    let a = bench_path("wide_ctrl_a.pla");
    let text = std::fs::read_to_string(bench_path("wide_ctrl_b.pla")).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    let last_term = lines
        .iter()
        .rposition(|l| !l.is_empty() && !l.starts_with('.') && !l.starts_with('#'))
        .expect("term lines");
    lines.remove(last_term);
    let broken: String = lines
        .iter()
        .map(|l| if l.starts_with(".p") { ".p 39" } else { l })
        .collect::<Vec<_>>()
        .join("\n");
    let path = std::env::temp_dir().join("bench_wide_ctrl_b_broken.pla");
    std::fs::write(&path, broken + "\n").unwrap();
    let path = path.to_string_lossy().into_owned();

    let err = equiv::run(&equiv_args(&[&a, &path])).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("INEQUIVALENT"), "{msg}");
    assert!(msg.contains("inputs"), "{msg}");
}

/// The wide pair stays equivalent through the full synthesis flow
/// (`--synth`), SAT-checked — partial evaluation is sound at widths no
/// exhaustive check can reach.
#[test]
fn wide_pla_pair_survives_synthesis() {
    let a = bench_path("wide_ctrl_a.pla");
    let b = bench_path("wide_ctrl_b.pla");
    let out = equiv::run(&equiv_args(&[&a, &b, "--synth"])).unwrap();
    assert!(out.contains("proved"), "{out}");
}

/// The SAT check proves the KISS2 benchmarks' bound styles equivalent.
#[test]
fn kiss2_benchmarks_bmc_proves_bound_styles() {
    for path in kiss2_benchmarks() {
        let out = equiv::run(&equiv_args(&[
            &path, "--left", "table", "--right", "case", "--depth", "5",
        ]))
        .unwrap();
        assert!(out.contains("BMC proof"), "{path}: {out}");
    }
}

/// Program-then-compare is a SAT proof on every KISS2 benchmark: `table`
/// and `case` against `programmable` in either position, and
/// `programmable` against itself, elaborated and synthesized.
#[test]
fn kiss2_benchmarks_bmc_prove_program_then_compare() {
    let pairs = [
        ("table", "programmable"),
        ("programmable", "table"),
        ("case", "programmable"),
        ("programmable", "case"),
        ("programmable", "programmable"),
    ];
    for path in kiss2_benchmarks() {
        for (left, right) in pairs {
            for synth in [None, Some("--synth")] {
                let mut raw = vec![path.as_str(), "--left", left, "--right", right];
                raw.extend(synth);
                let out = equiv::run(&equiv_args(&raw)).unwrap();
                assert!(
                    out.contains(&format!(
                        "{} for all input sequences up to 8 cycles (BMC proof)",
                        equiv::EQUIVALENT
                    )),
                    "{path} {left} vs {right} {synth:?}: {out}"
                );
            }
        }
    }
}

#[test]
fn ucode_benchmark_assembles_and_synthesizes() {
    let path = bench_path("dma_copy.uasm");
    let args = Args::parse(
        &[path.as_str(), "--report", "--disasm"],
        &[
            "report",
            "flexible",
            "register-outputs",
            "annotate",
            "disasm",
        ],
        &["o", "clock"],
    )
    .unwrap();
    let out = ucode::run(&args).unwrap();
    assert!(out.contains("instructions"), "{out}");
    assert!(out.contains("area"), "{out}");
}

/// On every shipped controller the compiled netlist is proved equivalent to
/// its elaborated, unsynthesized netlist by the SAT check (induction, else
/// BMC from reset), and its area stays within a recorded per-controller ceiling —
/// the default flow's area in `BENCH_synth.json` when the ceilings were
/// taken. The verified flow (`verify_each_pass`) stays green with the AIG
/// passes (SAT sweeping included) in the loop.
#[test]
fn compiled_benchmarks_match_elaboration_within_area_ceilings() {
    use synthir_core::format_conv::from_kiss2;
    use synthir_netlist::Library;
    use synthir_rtl::elaborate;
    use synthir_sim::{check_seq_equiv, EquivOptions};
    use synthir_synth::{compile, SynthOptions};

    let lib = Library::vt90();
    let eopts = EquivOptions::new();
    for path in kiss2_benchmarks() {
        let name = std::path::Path::new(&path).file_stem().unwrap();
        let ceiling = match name.to_str().unwrap() {
            "dma_ctrl" => 73.5,
            "elevator" => 100.1,
            "seq_detect" => 58.8,
            "traffic_light" => 95.2,
            other => panic!("{other}: no recorded area ceiling"),
        };
        let text = std::fs::read_to_string(&path).unwrap();
        let spec = from_kiss2("bench", &text).unwrap();
        let elab = elaborate(&spec.to_table_module(true)).unwrap();
        let r = compile(&elab, &lib, &SynthOptions::default()).unwrap();
        let res = check_seq_equiv(&elab.netlist, &r.netlist, &eopts).unwrap();
        assert!(
            res.is_equivalent(),
            "{path}: compile changed behaviour: {res:?}"
        );
        assert!(
            r.area.total() <= ceiling * 1.001,
            "{path}: {:.1} µm² over the {ceiling:.1} µm² ceiling",
            r.area.total()
        );
        // Verified flows: every AIG pass is SAT-checked against its
        // predecessor, with and without sweeping.
        let verified = SynthOptions::default().with_verify_each_pass();
        compile(&elab, &lib, &verified).unwrap();
        let swept = SynthOptions::default()
            .with_sat_sweep()
            .with_verify_each_pass();
        compile(&elab, &lib, &swept).unwrap();
    }
}

/// Every shipped controller — KISS2 table and programmable lowerings, and
/// the PLAs — compiles to a netlist SAT proves equivalent to its
/// elaboration (for the PLAs narrow enough, exhaustive simulation agrees),
/// and no larger than the area the former peephole rule mapper reached on
/// it, recorded per design.
#[test]
fn cut_mapper_matches_rule_mapper_on_every_controller() {
    use synthir_cli::equiv::pla_netlist;
    use synthir_core::format_conv::from_kiss2;
    use synthir_logic::pla::Pla;
    use synthir_netlist::Library;
    use synthir_rtl::elaborate;
    use synthir_sim::{check_comb_equiv, check_seq_equiv, CombSim, EquivOptions};
    use synthir_synth::{compile, flow::compile_netlist, CompileResult, SynthOptions};

    // The rule mapper's area (µm²) on each design.
    const RULE_MAPPER_AREA: [(&str, f64); 12] = [
        ("dma_ctrl.kiss2 table", 73.5),
        ("dma_ctrl.kiss2 programmable", 2791.6),
        ("elevator.kiss2 table", 100.1),
        ("elevator.kiss2 programmable", 2349.9),
        ("seq_detect.kiss2 table", 58.8),
        ("seq_detect.kiss2 programmable", 745.5),
        ("traffic_light.kiss2 table", 95.2),
        ("traffic_light.kiss2 programmable", 3233.3),
        ("majority.pla", 46.2),
        ("one_hot.pla", 39.9),
        ("wide_ctrl_a.pla", 320.6),
        ("wide_ctrl_b.pla", 490.7),
    ];
    let within = |label: &str, r: &CompileResult| {
        let (_, ceiling) = RULE_MAPPER_AREA
            .iter()
            .find(|(design, _)| *design == label)
            .unwrap_or_else(|| panic!("{label}: no recorded rule-mapper area"));
        assert!(
            r.stats.iter().any(|s| s.name == "cutmap"),
            "{label}: cutmap pass missing from stats"
        );
        // Cell areas are multiples of 0.1 µm², like the recorded figures.
        assert!(
            r.area.total() <= ceiling + 0.05,
            "{label}: {:.1} µm² over the rule mapper's {ceiling:.1} µm²",
            r.area.total()
        );
    };
    let file_name = |path: &str| {
        let name = std::path::Path::new(path).file_name().unwrap();
        name.to_string_lossy().into_owned()
    };

    let lib = Library::vt90();
    let opts = SynthOptions::default();
    let sat = EquivOptions::new();
    // Every output bit on all 2^n values of the `in` bus, 64 per word.
    let exhaustive = |nl: &synthir_netlist::Netlist| -> Vec<u64> {
        let sim = CombSim::new(nl).unwrap();
        let ins = &nl.input("in").unwrap().nets;
        let outs = &nl.output("out").unwrap().nets;
        let mut words = Vec::new();
        for w in 0..(1u64 << ins.len()).div_ceil(64) {
            let word = |i: usize| (0..64).fold(0u64, |v, k| v | ((w * 64 + k) >> i & 1) << k);
            let sources: Vec<_> = ins.iter().enumerate().map(|(i, &n)| (n, word(i))).collect();
            let vals = sim.eval_with(nl, &sources);
            words.extend(outs.iter().map(|o| vals[o.index()]));
        }
        words
    };

    // KISS2 controllers, bound and programmable lowerings: sequential SAT
    // proof against the elaboration.
    for path in kiss2_benchmarks() {
        let name = file_name(&path);
        let text = std::fs::read_to_string(&path).unwrap();
        let spec = from_kiss2("bench", &text).unwrap();
        for (style, module) in [
            ("table", spec.to_table_module(true)),
            ("programmable", spec.to_programmable_module()),
        ] {
            let label = format!("{name} {style}");
            let elab = elaborate(&module).unwrap();
            let r = compile(&elab, &lib, &opts).unwrap();
            let res = check_seq_equiv(&elab.netlist, &r.netlist, &sat).unwrap();
            assert!(res.is_equivalent(), "{label}: compile changed behaviour");
            within(&label, &r);
        }
    }

    // PLA controllers: combinational SAT proof, plus exhaustive simulation
    // wherever the interface is narrow enough to enumerate.
    let dir = format!("{}/../../benchmarks", env!("CARGO_MANIFEST_DIR"));
    let mut plas: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| Some(e.ok()?.path().to_string_lossy().into_owned()))
        .filter(|p| p.ends_with(".pla"))
        .collect();
    plas.sort();
    assert!(plas.len() >= 2, "expected PLA benchmarks, got {plas:?}");
    for path in plas {
        let name = file_name(&path);
        let text = std::fs::read_to_string(&path).unwrap();
        let pla = Pla::parse(&text).unwrap();
        let nl = pla_netlist("ctrl", &pla);
        let r = compile_netlist(nl.clone(), None, &[], &lib, &opts).unwrap();
        let res = check_comb_equiv(&nl, &r.netlist, &sat).unwrap();
        assert!(
            res.is_equivalent(),
            "{name}: compile changed behaviour (SAT)"
        );
        if pla.num_inputs <= 16 {
            assert!(
                exhaustive(&nl) == exhaustive(&r.netlist),
                "{name}: compile changed behaviour (simulation)"
            );
        }
        within(&name, &r);
    }
}

/// The verified flow stays green through technology mapping: every pass,
/// `cutmap` included, is SAT-checked against its predecessor on every
/// KISS2 benchmark.
#[test]
fn cut_mapper_survives_verify_each_pass_on_all_benchmarks() {
    use synthir_core::format_conv::from_kiss2;
    use synthir_netlist::Library;
    use synthir_rtl::elaborate;
    use synthir_synth::{compile, SynthOptions};

    let lib = Library::vt90();
    let opts = SynthOptions::default().with_verify_each_pass();
    for path in kiss2_benchmarks() {
        let text = std::fs::read_to_string(&path).unwrap();
        let spec = from_kiss2("bench", &text).unwrap();
        let elab = elaborate(&spec.to_table_module(true)).unwrap();
        let r = compile(&elab, &lib, &opts).unwrap();
        assert!(r.netlist.num_gates() > 0);
    }
}

/// `synthir help <command>` long help covers every flag and option the
/// dispatcher accepts — the FLAGS/OPTIONS tables the binary parses with
/// must each be documented in the corresponding USAGE text.
#[test]
fn long_help_covers_every_flag() {
    let commands: [(&str, &str, &[&str], &[&str]); 4] = [
        ("fsm", fsm::USAGE, fsm::FLAGS, fsm::OPTIONS),
        ("pla", pla::USAGE, pla::FLAGS, pla::OPTIONS),
        ("ucode", ucode::USAGE, ucode::FLAGS, ucode::OPTIONS),
        ("equiv", equiv::USAGE, equiv::FLAGS, equiv::OPTIONS),
    ];
    for (cmd, usage, flags, options) in commands {
        for name in flags.iter().chain(options.iter()) {
            let spelled = if name.len() == 1 {
                format!("-{name}")
            } else {
                format!("--{name}")
            };
            assert!(
                usage.contains(&spelled),
                "`synthir {cmd}` help does not document `{spelled}`"
            );
        }
    }
}
