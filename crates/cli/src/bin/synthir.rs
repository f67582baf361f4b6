//! The `synthir` command-line tool: controller IRs in, Verilog and reports
//! out. See each subcommand module in `synthir_cli` for the pipelines.

use synthir_cli::{args::Args, equiv, fsm, pla, ucode, CliError};

const USAGE: &str = "\
synthir — controller IRs for chip generators (DATE 2011 reproduction)

usage: synthir <command> [args]

commands:
  fsm    <spec.kiss2>   lower + synthesize a KISS2 FSM, emit Verilog/report
  pla    <in.pla>       minimize an espresso-format PLA with the URP kernel
  ucode  <prog.uasm>    assemble microcode, synthesize its sequencer
  equiv  <spec.kiss2>   equivalence-check two lowerings (SAT proof, or
                        program-then-compare against the programmable
                        baseline), or two .pla files combinationally
  help   [command]      show usage

Run `synthir help <command>` for per-command options.
";

fn dispatch(cmd: &str, raw: &[String]) -> Result<String, CliError> {
    match cmd {
        "fsm" => fsm::run(&Args::parse(raw, fsm::FLAGS, fsm::OPTIONS)?),
        "pla" => pla::run(&Args::parse(raw, pla::FLAGS, pla::OPTIONS)?),
        "ucode" => ucode::run(&Args::parse(raw, ucode::FLAGS, ucode::OPTIONS)?),
        "equiv" => equiv::run(&Args::parse(raw, equiv::FLAGS, equiv::OPTIONS)?),
        "help" | "--help" | "-h" => Ok(match raw.first().map(String::as_str) {
            Some("fsm") => fsm::USAGE.to_string(),
            Some("pla") => pla::USAGE.to_string(),
            Some("ucode") => ucode::USAGE.to_string(),
            Some("equiv") => equiv::USAGE.to_string(),
            _ => USAGE.to_string(),
        }),
        other => Err(CliError(format!("unknown command `{other}`\n\n{USAGE}"))),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        eprint!("{USAGE}");
        std::process::exit(2);
    };
    match dispatch(cmd, &argv[1..]) {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("synthir {cmd}: {e}");
            std::process::exit(1);
        }
    }
}
