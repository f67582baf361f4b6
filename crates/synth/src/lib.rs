//! # synthir-synth
//!
//! A from-scratch logic-synthesis engine with the partial-evaluation
//! abilities the paper investigates.
//!
//! The paper's thesis is that a chip generator can emit flexible,
//! table-based controllers and rely on the synthesis tool to specialize them
//! ("partial evaluation"), *provided* the tool performs:
//!
//! 1. **constant propagation and folding** — the And-Inverter Graph of
//!    [`synthir_aig`] folds constants as it builds every graph ([`aigopt`],
//!    and [`cutmap`]'s import, which also folds latches that never leave
//!    their init value): configuration constants flow through the lookup
//!    structure and collapse it;
//! 2. **two-level re-covering** — [`resynth`]: small cones are collapsed to
//!    truth tables and re-covered with an espresso-style minimizer, which is
//!    what makes a folded table match a hand-written sum-of-products;
//! 3. **state propagation and folding** — [`stateprop`]: known value *sets*
//!    (`1 < k < 2^n`) are propagated through downstream logic — but, as in
//!    the commercial tools the paper measures, **never across flop
//!    boundaries** unless the user supplies an annotation ([`stateprop`]
//!    consumes [`synthir_rtl::elaborate::NetGroupValues`]) or retiming
//!    ([`retime`]) happens to move the boundary;
//! 4. **FSM re-encoding** — [`fsmreencode`]: only when the coding style (or
//!    a manual `set_fsm_state_vector` annotation) identifies the state
//!    register, the engine extracts the state graph, prunes unreachable
//!    states, and re-encodes.
//!
//! [`flow::compile`] sequences these passes like a `compile` run of the
//! commercial tool the paper used, and [`timing`] provides the static
//! timing side of the methodology. A generator compiles the same hardware
//! repeatedly (a programmable controller's tables depend only on its
//! interface widths), so `compile` serves repeated inputs from a
//! content-addressed, byte-budgeted store ([`cache`]) keyed by a SHA-256
//! digest ([`sha256`]) of everything the flow reads;
//! [`flow::compile_netlist`] is the uncached flow itself. The optimized
//! network is lowered to library cells by the cut-based technology mapper
//! ([`cutmap`]):
//! k-feasible cuts on the AIG, NPN-matched against the
//! [`synthir_netlist::Library`] cell metadata, with depth-oriented and
//! area-recovery cover selection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aigopt;
pub mod cache;
mod conefn;
pub mod cutmap;
pub mod factor;
pub mod flow;
pub mod fsmreencode;
pub mod options;
pub mod resynth;
pub mod retime;
pub mod stateprop;
pub mod timing;
mod uses;

pub use cache::CompileCache;
pub use cutmap::cut_map;
pub use flow::{compile, compile_netlist, CompileResult, PassStat};
pub use options::{FsmEncoding, SynthOptions};
/// SHA-256 over words and the streaming key hasher; it lives in
/// [`synthir_netlist`], whose [`Netlist`](synthir_netlist::Netlist)
/// carries the hash state of its own encoding.
pub use synthir_netlist::sha256;
pub use timing::{sta, TimingReport};

/// Errors produced by the synthesis engine.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthError {
    /// The input netlist is structurally invalid.
    InvalidNetlist(String),
    /// An FSM re-encoding was requested but the netlist does not have the
    /// required state/input/output separation within effort limits.
    FsmExtraction(String),
    /// `verify_each_pass` found a pass that changed observable behaviour
    /// (or could not run the check).
    PassVerification(String),
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::InvalidNetlist(e) => write!(f, "invalid netlist: {e}"),
            SynthError::FsmExtraction(e) => write!(f, "fsm extraction failed: {e}"),
            SynthError::PassVerification(e) => write!(f, "pass verification failed: {e}"),
        }
    }
}

impl std::error::Error for SynthError {}
