//! # synthir-core
//!
//! Controller intermediate representations for chip generators — the
//! primary contribution of *Kelley et al., "Intermediate Representations for
//! Controllers in Chip Generators" (DATE 2011)*.
//!
//! The paper argues that a chip generator should describe flexible
//! controllers as **tables** — FSM transition tables and microprograms —
//! and emit them in a form that a partial-evaluating synthesis flow can
//! specialize into efficient fixed logic. This crate is that representation
//! layer:
//!
//! * [`fsm::FsmSpec`] — a symbolic finite-state-machine specification that
//!   can be lowered to either the *table-based* coding style (lookup
//!   memories for next-state and output logic, Fig. 2 of the paper) or the
//!   *direct* style the tool's FSM extraction understands;
//! * [`microcode`] — microinstruction formats (horizontal/vertical fields),
//!   microprograms, and sequencing control (the paper's Fig. 3);
//! * [`sequencer`] — lowering of a microprogram to a microcode sequencer
//!   module: µPC, microcode store (programmable or bound), condition
//!   dispatch, and per-field outputs;
//! * the annotations the paper shows are needed for full optimization,
//!   both computed *from the tables themselves*: `fsm_state_vector`
//!   metadata ([`FsmSpec::fsm_info`]) and value-set annotations of
//!   non-optimally-encoded (e.g. one-hot) output fields over the reachable
//!   microcode rows ([`sequencer::generate`]);
//! * [`pe`] — the partial-evaluation driver: compile the flexible and the
//!   specialized instance of a controller and compare;
//! * [`random`] — the seeded random design generators used by the paper's
//!   experiments (their Python scripts, reborn).
//!
//! ## Example: a specialized FSM matches its table
//!
//! ```
//! use synthir_core::fsm::FsmSpec;
//! use synthir_core::random::random_fsm;
//!
//! let spec = random_fsm(2, 3, 5, 42);
//! assert_eq!(spec.state_count(), 5);
//! let module = spec.to_table_module(false);
//! let elab = synthir_rtl::elaborate(&module).unwrap();
//! assert!(elab.netlist.num_gates() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod format_conv;
pub mod fsm;
pub mod microcode;
pub mod minimize;
pub mod pe;
pub mod random;
pub mod sequencer;

pub use fsm::{FsmSpec, StateId};
pub use microcode::{Field, FieldEncoding, MicroInstr, MicroProgram, MicrocodeFormat, NextCtl};

/// Errors produced by the controller-IR layer.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A specification failed validation.
    BadSpec(String),
    /// RTL elaboration failed.
    Rtl(synthir_rtl::RtlError),
    /// Synthesis failed.
    Synth(synthir_synth::SynthError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::BadSpec(e) => write!(f, "bad specification: {e}"),
            CoreError::Rtl(e) => write!(f, "rtl error: {e}"),
            CoreError::Synth(e) => write!(f, "synthesis error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::BadSpec(_) => None,
            CoreError::Rtl(e) => Some(e),
            CoreError::Synth(e) => Some(e),
        }
    }
}

impl From<synthir_rtl::RtlError> for CoreError {
    fn from(e: synthir_rtl::RtlError) -> Self {
        CoreError::Rtl(e)
    }
}

impl From<synthir_synth::SynthError> for CoreError {
    fn from(e: synthir_synth::SynthError) -> Self {
        CoreError::Synth(e)
    }
}
