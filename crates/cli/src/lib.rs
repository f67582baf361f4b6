//! # synthir-cli
//!
//! The command-line driver that turns the `synthir` workspace into a
//! files-in / files-out tool, in the lineage of the classic two-level and
//! FSM tool chains (espresso's `.pla`, SIS/MCNC's KISS2):
//!
//! * [`fsm`] — `synthir fsm spec.kiss2 --style table -o out.v --report`:
//!   KISS2 state machine → coding style → partial-evaluating synthesis →
//!   structural Verilog + area/timing/power report;
//! * [`pla`] — `synthir pla in.pla -o min.pla`: espresso-format two-level
//!   minimization with the URP kernel (all four `.type` semantics);
//! * [`ucode`] — `synthir ucode prog.uasm -o out.v`: textual microcode →
//!   assembler → microcode sequencer → synthesis;
//! * [`equiv`] — `synthir equiv spec.kiss2 --left table --right
//!   programmable`: the methodology's soundness check as a SAT proof,
//!   program-then-compare included, with optional VCD waveform dump.
//!
//! Each subcommand is a library function taking parsed [`args::Args`], so
//! the whole pipeline is testable without spawning the binary; the
//! `synthir` binary is a thin dispatcher over these modules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod equiv;
pub mod fsm;
pub mod pla;
pub mod report;
pub mod ucode;

/// A CLI-level failure: a message for stderr and a nonzero exit.
#[derive(Debug, Clone, PartialEq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("io error: {e}"))
    }
}

impl From<synthir_core::CoreError> for CliError {
    fn from(e: synthir_core::CoreError) -> Self {
        CliError(e.to_string())
    }
}

impl From<synthir_logic::LogicError> for CliError {
    fn from(e: synthir_logic::LogicError) -> Self {
        CliError(e.to_string())
    }
}

impl From<synthir_rtl::RtlError> for CliError {
    fn from(e: synthir_rtl::RtlError) -> Self {
        CliError(e.to_string())
    }
}

impl From<synthir_synth::SynthError> for CliError {
    fn from(e: synthir_synth::SynthError) -> Self {
        CliError(e.to_string())
    }
}

impl From<synthir_sim::SimError> for CliError {
    fn from(e: synthir_sim::SimError) -> Self {
        CliError(e.to_string())
    }
}

/// The result type of every subcommand: rendered stdout text on success.
pub type CmdResult = Result<String, CliError>;

/// Derives a design name from a file path (the stem, sanitized to an
/// identifier: non-alphanumerics become `_`, leading digits are prefixed).
pub fn design_name(path: &str) -> String {
    let stem = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("design");
    let mut name: String = stem
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if name.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        name.insert(0, 'd');
    }
    name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_names_are_identifiers() {
        assert_eq!(
            design_name("benchmarks/traffic-light.kiss2"),
            "traffic_light"
        );
        assert_eq!(design_name("3way.pla"), "d3way");
        assert_eq!(design_name("x"), "x");
    }
}
