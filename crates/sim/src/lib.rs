//! # synthir-sim
//!
//! Netlist simulation and equivalence checking.
//!
//! The paper's methodology silently assumes that partial evaluation is
//! *sound*: the specialized controller must behave identically to the
//! flexible controller programmed with the same table. This crate makes that
//! check explicit:
//!
//! * [`CombSim`] — bit-parallel (64 patterns/word) combinational evaluation,
//! * [`SeqSim`] — cycle-accurate sequential simulation with reset handling,
//! * [`equiv`] — SAT-based equivalence under input bindings (used to check
//!   a specialized design against its flexible parent with the
//!   configuration port tied to the table being specialized):
//!   combinational checks are one miter, sequential checks an induction
//!   proof backed by bounded model checking. Every SAT question is one AIG
//!   miter built from per-cycle frames — a single frame, an induction step,
//!   or a bounded unrolling from reset — handed to
//!   [`synthir_aig::satisfy`]. Every counterexample is replayed through the
//!   simulators, which stay independent of the SAT path.
//!
//! ## Example
//!
//! ```
//! use synthir_netlist::{GateKind, Netlist};
//! use synthir_sim::CombSim;
//!
//! let mut nl = Netlist::new("andg");
//! let a = nl.add_input("a", 1)[0];
//! let b = nl.add_input("b", 1)[0];
//! let y = nl.add_gate(GateKind::And2, &[a, b]);
//! nl.add_output("y", &[y]);
//!
//! let sim = CombSim::new(&nl).unwrap();
//! let vals = sim.eval_with(&nl, &[(a, 0b1100), (b, 0b1010)]);
//! assert_eq!(vals[y.index()] & 0b1111, 0b1000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comb;
pub mod equiv;
pub mod seq;
pub mod vcd;

pub use comb::{CombSim, CombSimBound};
pub use equiv::{
    check_comb_equiv, check_seq_equiv, Counterexample, EquivEngine, EquivOptions, EquivResult,
};
pub use seq::SeqSim;

/// Errors produced by simulation and equivalence checking.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The netlist failed validation (e.g. a combinational cycle).
    InvalidNetlist(String),
    /// The two designs' port interfaces are incompatible.
    PortMismatch {
        /// Explanation of the incompatibility.
        context: String,
    },
    /// A bound input was not found or has the wrong width.
    BadBinding {
        /// The offending binding's signal name.
        name: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidNetlist(e) => write!(f, "invalid netlist: {e}"),
            SimError::PortMismatch { context } => write!(f, "port mismatch: {context}"),
            SimError::BadBinding { name } => write!(f, "bad binding for `{name}`"),
        }
    }
}

impl std::error::Error for SimError {}
