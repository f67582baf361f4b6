//! # synthir-logic
//!
//! Boolean-function kernel for the `synthir` chip-generator toolkit.
//!
//! This crate provides the combinational-logic mathematics that every other
//! layer of the reproduction of *Kelley et al., "Intermediate Representations
//! for Controllers in Chip Generators" (DATE 2011)* is built on:
//!
//! * [`BitVec`] — a growable bit-vector used for truth-table storage and
//!   bit-parallel simulation,
//! * [`TruthTable`] — a complete single-output boolean function of up to 24
//!   variables,
//! * [`Cube`] and [`Cover`] — three-valued product terms and sum-of-products
//!   covers over up to 64 variables,
//! * [`espresso`] — an espresso-style two-level minimizer
//!   (EXPAND / IRREDUNDANT / REDUCE),
//! * [`ValueSet`] — the *state propagation and folding* domain of the paper:
//!   the set of `k` values (`1 <= k <= 2^n`) an `n`-bit signal is known to
//!   take.
//!
//! ## Kernel architecture
//!
//! The hot path of every experiment is two-level minimization. Covers of at
//! most 16 variables are minimized against a dense care set (OFF and DC as
//! minterm bitsets, per-minterm cube counts; see [`espresso`]). For wider
//! covers the cube algebra underneath the loop is implemented as a *unate
//! recursive paradigm* core (private module `urp`): tautology and
//! complementation run with unate-variable reduction, exact 6-variable
//! bitmap leaves, disjoint-support component decomposition, a minterm-count
//! bound, a cofactor memo keyed on cover signatures, and pooled cube
//! buffers; single-cube containment is signature-pruned (sorted by literal
//! count with `care`-mask subset bit-tests) instead of the historical O(n²)
//! scan. The seed implementations survive in [`naive`] as the oracle /
//! benchmark baseline, and [`par`] provides the deterministic
//! thread-parallel map that [`espresso::minimize_batch`] uses to minimize
//! independent PLA outputs concurrently (`SYNTHIR_THREADS` caps the thread
//! count).
//!
//! ## Example
//!
//! ```
//! use synthir_logic::TruthTable;
//!
//! // f = a & b | !a & c  over variables [a, b, c]
//! let f = TruthTable::from_fn(3, |m| {
//!     let (a, b, c) = (m & 1 != 0, m & 2 != 0, m & 4 != 0);
//!     (a && b) || (!a && c)
//! });
//! let cover = synthir_logic::espresso::minimize_tt(&f, None);
//! assert!(cover.cube_count() <= 3);
//! assert_eq!(cover.to_truth_table(3), f);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitvec;
pub mod cover;
pub mod cube;
pub mod espresso;
pub mod naive;
pub mod par;
pub mod pla;
pub mod truthtable;
mod urp;
pub mod valueset;

pub use bitvec::BitVec;
pub use cover::Cover;
pub use cube::Cube;
pub use truthtable::TruthTable;
pub use valueset::ValueSet;

/// Maximum number of variables supported by [`Cube`]/[`Cover`].
pub const MAX_CUBE_VARS: usize = 64;

/// Maximum number of inputs supported by a [`TruthTable`].
pub const MAX_TT_INPUTS: usize = 24;

/// Errors produced by the logic kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogicError {
    /// A function was requested over more variables than supported.
    TooManyVariables {
        /// Requested variable count.
        requested: usize,
        /// Supported maximum.
        max: usize,
    },
    /// Two objects over different variable counts were combined.
    VariableCountMismatch {
        /// Left-hand variable count.
        left: usize,
        /// Right-hand variable count.
        right: usize,
    },
    /// An index (variable or minterm) was out of range.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The valid exclusive bound.
        bound: usize,
    },
    /// A textual format (e.g. PLA) failed to parse.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for LogicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogicError::TooManyVariables { requested, max } => {
                write!(f, "too many variables: {requested} (max {max})")
            }
            LogicError::VariableCountMismatch { left, right } => {
                write!(f, "variable count mismatch: {left} vs {right}")
            }
            LogicError::IndexOutOfRange { index, bound } => {
                write!(f, "index {index} out of range (bound {bound})")
            }
            LogicError::Parse { line, message } => {
                write!(f, "line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for LogicError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = LogicError::TooManyVariables {
            requested: 99,
            max: 64,
        };
        assert!(e.to_string().contains("99"));
        let e = LogicError::VariableCountMismatch { left: 3, right: 4 };
        assert!(e.to_string().contains("3"));
        let e = LogicError::IndexOutOfRange { index: 8, bound: 8 };
        assert!(e.to_string().contains("bound 8"));
    }
}
