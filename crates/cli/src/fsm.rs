//! `synthir fsm` — KISS2 state machine to synthesized Verilog.
//!
//! The full paper pipeline as one command: read a `.kiss2` FSM spec, lower
//! it in one of the coding styles the paper compares, run the
//! partial-evaluating synthesis flow, and emit structural Verilog plus an
//! area/timing/power report.

use crate::args::Args;
use crate::report::{render, ReportOptions};
use crate::{design_name, CliError, CmdResult};
use synthir_core::format_conv::from_kiss2;
use synthir_core::FsmSpec;
use synthir_netlist::{verilog, Library};
use synthir_rtl::{elaborate, Module};
use synthir_synth::{flow::compile, SynthOptions};

/// Usage text for `synthir fsm`.
pub const USAGE: &str = "\
usage: synthir fsm <spec.kiss2> [options]

Reads a KISS2 FSM specification, lowers it in a coding style, synthesizes
it with the partial-evaluating flow, maps it onto library cells with the
cut-based technology mapper, and writes structural Verilog.

options:
  --style <s>     coding style: table (default), table-annotated, case,
                  programmable
  -o <file>       write structural Verilog to <file> ('-' for stdout)
  --report        print the area/timing/power report
  --json          print the synthesis result (cells, area, timing, pass
                  statistics) as JSON instead of prose
  --clock <ns>    clock period for the slack line (default 2.0)
  --no-synth      elaborate only; skip the synthesis flow
  --sat-sweep     enable SAT sweeping inside the AIG cleanup pass
  --verify-passes SAT-check the netlist after every synthesis pass against
                  its predecessor (slow; debug aid)
";

/// Boolean flags `synthir fsm` accepts (each documented in [`USAGE`]).
pub const FLAGS: &[&str] = &["report", "json", "no-synth", "verify-passes", "sat-sweep"];

/// Valued options `synthir fsm` accepts (each documented in [`USAGE`]).
pub const OPTIONS: &[&str] = &["style", "o", "clock"];

/// The FSM coding styles the CLI can lower to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Style {
    /// Bound lookup tables (next-state + output memories), no annotation.
    Table,
    /// Bound lookup tables with the `fsm_state_vector` annotation attached.
    TableAnnotated,
    /// Minimized sum-of-products ("direct" / case-statement) style.
    Case,
    /// Runtime-programmable tables behind a config write port.
    Programmable,
}

impl Style {
    /// Parses a `--style` value.
    pub fn parse(s: &str) -> Result<Style, CliError> {
        match s {
            "table" => Ok(Style::Table),
            "table-annotated" | "annotated" => Ok(Style::TableAnnotated),
            "case" | "direct" => Ok(Style::Case),
            "programmable" | "flexible" | "full" => Ok(Style::Programmable),
            other => Err(CliError(format!(
                "unknown style `{other}` (expected table, table-annotated, case, programmable)"
            ))),
        }
    }

    /// Lowers a spec in this style.
    pub fn lower(self, spec: &FsmSpec) -> Module {
        match self {
            Style::Table => spec.to_table_module(false),
            Style::TableAnnotated => spec.to_table_module(true),
            Style::Case => spec.to_case_module(),
            Style::Programmable => spec.to_programmable_module(),
        }
    }
}

/// Runs the subcommand; returns the text for stdout.
///
/// # Errors
///
/// Returns [`CliError`] for bad arguments, unreadable/unparsable input, or
/// elaboration/synthesis failures.
pub fn run(args: &Args) -> CmdResult {
    let [path] = args.expect_positionals(1, "one <spec.kiss2> operand")? else {
        unreachable!()
    };
    let style = Style::parse(args.option("style").unwrap_or("table"))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read `{path}`: {e}")))?;
    let spec = from_kiss2(design_name(path), &text)?;
    let module = style.lower(&spec);

    let json = args.flag("json");
    if json && args.flag("no-synth") {
        return Err(CliError(
            "--json reports the synthesis result; drop --no-synth".into(),
        ));
    }
    let mut out = String::new();
    if !json {
        out.push_str(&format!(
            "{}: {} states ({} reachable), {} inputs, {} outputs → {}\n",
            spec.name(),
            spec.state_count(),
            spec.reachable_states().len(),
            spec.num_inputs(),
            spec.num_outputs(),
            module.name(),
        ));
    }

    let elab = elaborate(&module)?;
    let lib = Library::vt90();
    let report_opts = ReportOptions {
        clock_ns: args.option_parsed("clock", ReportOptions::default().clock_ns)?,
        ..Default::default()
    };

    let netlist = if args.flag("no-synth") {
        out.push_str(&format!(
            "elaborated: {} gates ({} flops), synthesis skipped\n",
            elab.netlist.num_gates(),
            elab.netlist.flop_count()
        ));
        if args.flag("report") {
            out.push_str(&crate::report::render_netlist_stats(
                &elab.netlist,
                &lib,
                &report_opts,
            ));
        }
        elab.netlist
    } else {
        let mut sopts = SynthOptions::default();
        if args.flag("verify-passes") {
            sopts.verify_each_pass = true;
        }
        if args.flag("sat-sweep") {
            sopts.sat_sweep = true;
        }
        let r = compile(&elab, &lib, &sopts)?;
        if json {
            out.push_str(&format!(
                "{{\n  \"design\": \"{}\",\n  \"states\": {},\n  \"reachable_states\": {},\n  \
                 \"gates\": {},\n  \"flops\": {},\n  \"area_um2\": {:.2},\n  \
                 \"area_sequential_um2\": {:.2},\n  \"critical_ns\": {:.4},\n  \"passes\": {}\n}}\n",
                crate::report::json_escape(module.name()),
                spec.state_count(),
                spec.reachable_states().len(),
                r.netlist.num_gates(),
                r.netlist.flop_count(),
                r.area.total(),
                r.area.sequential,
                r.timing.critical_delay,
                crate::report::pass_stats_json(&r.stats),
            ));
        } else if args.flag("report") {
            out.push_str(&render(module.name(), &r, &lib, &report_opts));
        } else {
            out.push_str(&format!(
                "synthesized: {} gates ({} flops), area {:.1} µm², critical {:.3} ns\n",
                r.netlist.num_gates(),
                r.netlist.flop_count(),
                r.area.total(),
                r.timing.critical_delay
            ));
        }
        r.netlist
    };

    if let Some(vpath) = args.option("o") {
        let v = verilog::to_verilog(&netlist);
        if vpath == "-" {
            out.push_str(&v);
        } else {
            std::fs::write(vpath, &v)
                .map_err(|e| CliError(format!("cannot write `{vpath}`: {e}")))?;
            out.push_str(&format!("wrote {vpath} ({} lines)\n", v.lines().count()));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOGGLE: &str = ".i 1\n.o 1\n.r off\n1 off on 1\n- off off 0\n1 on off 0\n- on on 1\n.e\n";

    fn write_temp(name: &str, text: &str) -> String {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, text).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn fsm_pipeline_runs_and_reports() {
        let path = write_temp("cli_fsm_toggle.kiss2", TOGGLE);
        let args = Args::parse(
            &[path.as_str(), "--style", "table", "--report", "-o", "-"],
            &["report", "no-synth"],
            &["style", "o", "clock"],
        )
        .unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("2 states"), "{out}");
        assert!(out.contains("area"), "{out}");
        assert!(out.contains("module cli_fsm_toggle_table"), "{out}");
    }

    #[test]
    fn all_styles_lower() {
        let path = write_temp("cli_fsm_styles.kiss2", TOGGLE);
        for style in ["table", "table-annotated", "case", "programmable"] {
            let args = Args::parse(
                &[path.as_str(), "--style", style],
                &["report", "no-synth"],
                &["style", "o", "clock"],
            )
            .unwrap();
            let out = run(&args).unwrap();
            assert!(out.contains("synthesized"), "style {style}: {out}");
        }
    }

    #[test]
    fn no_synth_skips_the_flow() {
        let path = write_temp("cli_fsm_nosynth.kiss2", TOGGLE);
        let args = Args::parse(
            &[path.as_str(), "--no-synth"],
            &["report", "no-synth"],
            &["style", "o", "clock"],
        )
        .unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("synthesis skipped"), "{out}");
        // --report still works without the synthesis flow: it renders the
        // netlist-only statistics.
        let args = Args::parse(
            &[path.as_str(), "--no-synth", "--report"],
            &["report", "no-synth"],
            &["style", "o", "clock"],
        )
        .unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("area"), "{out}");
        assert!(out.contains("power"), "{out}");
    }

    #[test]
    fn verify_passes_flag_runs_the_checked_flow() {
        let path = write_temp("cli_fsm_verify.kiss2", TOGGLE);
        let args = Args::parse(
            &[path.as_str(), "--verify-passes"],
            &["report", "no-synth", "verify-passes"],
            &["style", "o", "clock"],
        )
        .unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("synthesized"), "{out}");
    }

    #[test]
    fn json_output_carries_pass_stats() {
        let path = write_temp("cli_fsm_json.kiss2", TOGGLE);
        let parse = |raw: &[&str]| Args::parse(raw, FLAGS, OPTIONS);
        let out = run(&parse(&[path.as_str(), "--json"]).unwrap()).unwrap();
        for needle in [
            "\"design\"",
            "\"gates\"",
            "\"area_um2\"",
            "\"passes\"",
            "\"aig_opt\"",
            "\"rewrites\"",
        ] {
            assert!(out.contains(needle), "missing {needle} in {out}");
        }
        // The sweep flag parses and runs too.
        let args = parse(&[path.as_str(), "--json", "--sat-sweep"]).unwrap();
        assert!(run(&args).unwrap().contains("\"passes\""));
        // There is one pass pipeline, so no switch selects another.
        assert!(parse(&[path.as_str(), "--json", "--no-aig"]).is_err());
    }

    /// A design compiled again in one process is served by the compile
    /// cache: its third run at the latest is a hit (the cache admits a
    /// result on its second sighting), and every run's pass list still
    /// names the mapping pass and ends with the cache's own record.
    #[test]
    fn json_of_a_repeated_design_lists_the_cache_and_the_mapper() {
        let path = write_temp("cli_fsm_json_repeat.kiss2", TOGGLE);
        let args = Args::parse(
            &[path.as_str(), "--json", "--style", "case"],
            FLAGS,
            OPTIONS,
        )
        .unwrap();
        let runs: Vec<String> = (0..3).map(|_| run(&args).unwrap()).collect();
        for out in &runs {
            assert!(out.contains("\"name\": \"cutmap\""), "{out}");
            let last_pass = out.rsplit("{\"name\": ").next().unwrap();
            assert!(last_pass.starts_with("\"compile_cache\""), "{out}");
        }
        let hit = "\"name\": \"compile_cache\", \"rewrites\": 1";
        assert!(runs[2].contains(hit), "{}", runs[2]);
        // A hit reports the same design as the first, uncached run.
        let design = |out: &str| out.split("\"passes\"").next().unwrap().to_string();
        assert_eq!(design(&runs[2]), design(&runs[0]));
    }

    #[test]
    fn missing_file_and_bad_style_error() {
        let args = Args::parse(&["/nonexistent.kiss2"], &[], &["style", "o"]).unwrap();
        assert!(run(&args).is_err());
        assert!(Style::parse("bogus").is_err());
    }
}
