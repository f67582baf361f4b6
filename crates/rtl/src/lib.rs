//! # synthir-rtl
//!
//! A small RTL intermediate representation and its elaborator.
//!
//! The paper's experiments compare *coding styles* for the same logical
//! function: sum-of-products assignments, case-statement FSMs, and
//! table-based descriptions backed by (possibly programmable) memories.
//! This crate provides exactly those building blocks:
//!
//! * [`Expr`] — width-checked combinational expressions over named signals,
//! * [`Module`] — a synthesizable module with wires, registers and memories,
//! * [`elaborate()`] — bit-blasting elaboration into a
//!   [`synthir_netlist::Netlist`], served from a process-wide memo for
//!   modules that declare a memory (a generator requests the same
//!   programmable hardware again and again); [`elaborate_fresh`] is the
//!   uncached elaborator,
//! * [`styles`] — canned generators for the paper's coding styles.
//!
//! A [`Module`]'s memory with bound (`Some`) contents elaborates into pure
//! combinational lookup logic — the input that the synthesis engine's
//! partial evaluation collapses. A memory with `None` contents elaborates
//! into a flop array with a write port: the "Full" flexible configuration
//! memory of the paper, which costs area but can be reprogrammed at runtime.
//!
//! ## Example
//!
//! ```
//! use synthir_rtl::{Expr, Module};
//!
//! let mut m = Module::new("xor_gate");
//! m.add_input("a", 1);
//! m.add_input("b", 1);
//! m.add_output("y", 1, Expr::reference("a").xor(Expr::reference("b")));
//! let elab = synthir_rtl::elaborate(&m).unwrap();
//! assert_eq!(elab.netlist.num_gates(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod elaborate;
pub mod expr;
pub mod module;
pub mod pretty;
pub mod styles;

pub use elaborate::{elaborate, elaborate_fresh, Elaborated};
pub use expr::{BinOp, Expr, ReduceOp};
pub use module::{FsmInfo, Memory, Module, RegReset, Register, SignalAnnotation};
pub use synthir_netlist::ResetKind;

/// Errors produced while building or elaborating RTL.
#[derive(Debug, Clone, PartialEq)]
pub enum RtlError {
    /// A referenced signal is not declared in the module.
    UnknownSignal {
        /// The missing signal name.
        name: String,
    },
    /// Two signals of the same name were declared.
    DuplicateSignal {
        /// The clashing name.
        name: String,
    },
    /// An expression's operand widths are inconsistent.
    WidthMismatch {
        /// Description of the offending expression.
        context: String,
        /// Left/actual width.
        left: usize,
        /// Right/expected width.
        right: usize,
    },
    /// A bit index or slice exceeds the operand width.
    OutOfRange {
        /// Description of the offending expression.
        context: String,
    },
    /// Combinational wires form a dependency cycle.
    CombinationalLoop {
        /// A signal on the cycle.
        name: String,
    },
    /// A memory was declared or used inconsistently.
    BadMemory {
        /// Description of the problem.
        context: String,
    },
}

impl std::fmt::Display for RtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtlError::UnknownSignal { name } => write!(f, "unknown signal `{name}`"),
            RtlError::DuplicateSignal { name } => write!(f, "duplicate signal `{name}`"),
            RtlError::WidthMismatch {
                context,
                left,
                right,
            } => write!(f, "width mismatch in {context}: {left} vs {right}"),
            RtlError::OutOfRange { context } => write!(f, "index out of range in {context}"),
            RtlError::CombinationalLoop { name } => {
                write!(f, "combinational loop through `{name}`")
            }
            RtlError::BadMemory { context } => write!(f, "bad memory: {context}"),
        }
    }
}

impl std::error::Error for RtlError {}
