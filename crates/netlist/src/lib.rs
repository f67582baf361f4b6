//! # synthir-netlist
//!
//! Gate-level netlist intermediate representation for the `synthir`
//! chip-generator toolkit.
//!
//! A [`Netlist`] is a flat module of single-output [`Gate`]s connected by
//! [`NetId`]s, with named input/output port buses. Gates are instances of
//! [`GateKind`]s; a [`Library`] assigns each kind an area and a delay, which
//! is how the experiment harness measures the synthesized area of a design
//! (the stand-in for the paper's TSMC 90 nm report).
//!
//! ## Layout
//!
//! A netlist is a few flat arrays, so copying one is a handful of bulk
//! copies and building one allocates only when an array grows:
//!
//! * **Gates.** One slot per [`GateId`] (a removed gate leaves a hole, so
//!   ids never move). A [`Gate`] is `Copy` plain data: its kind, its output
//!   and four input pins held inline, as no kind has more
//!   ([`Gate::inputs`] is the first `kind.arity()` of them; the unused
//!   ones always hold the same value, so equality stays exact). Rewiring
//!   goes through the netlist ([`Netlist::replace_net_uses`],
//!   [`Netlist::remap_uses`], [`Netlist::rewrite_gate`]); a gate's inputs
//!   are read-only from outside.
//! * **Nets.** One driver entry per [`NetId`]. The netlist counts its live
//!   gates as it goes, so [`Netlist::num_gates`] is O(1).
//! * **Names.** Every net name lives in one string, with a table of the
//!   named nets (sorted by net, since a net is named when it is created)
//!   and where each name ends. [`Netlist::add_named_net`] writes a
//!   `Display` value straight into it, so `format_args!` names a net
//!   without building a `String`.
//! * **Fanout.** [`Netlist::fanout_map`] returns one compressed-row
//!   [`Fanout`] (offsets plus a single gate array); [`Netlist::fanout_counts`]
//!   gives the counts alone.
//!
//! [`Netlist::encode_words`] and [`Netlist::decode_words`] convert to and
//! from a self-delimiting `u32` encoding that keeps every gate and net
//! number; it is what the compile cache hashes and stores. A netlist keeps
//! the [`sha256::UnitHasher`] state after its own encoding
//! ([`Netlist::key_state`]) until it is changed, so every key that starts
//! with the netlist hashes it once, and an [`EncodedNetlist`] stores the
//! words together with that state. [`store::Store`] is the
//! content-addressed, byte-budgeted store behind the compile cache and the
//! elaboration memo.
//!
//! ## Example
//!
//! ```
//! use synthir_netlist::{GateKind, Library, Netlist};
//!
//! let mut nl = Netlist::new("and_or");
//! let a = nl.add_input("a", 1)[0];
//! let b = nl.add_input("b", 1)[0];
//! let c = nl.add_input("c", 1)[0];
//! let ab = nl.add_gate(GateKind::And2, &[a, b]);
//! let y = nl.add_gate(GateKind::Or2, &[ab, c]);
//! nl.add_output("y", &[y]);
//!
//! let lib = Library::vt90();
//! let report = nl.area_report(&lib);
//! assert!(report.combinational > 0.0);
//! assert_eq!(report.sequential, 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod library;
pub mod netgraph;
pub mod power;
pub mod report;
pub mod sha256;
pub mod store;
pub mod topo;
pub mod verilog;

pub use cell::{GateKind, ResetKind};
pub use library::{CellSpec, Library};
pub use netgraph::{EncodedNetlist, Fanout, Gate, GateId, NetId, Netlist, Port};
pub use power::{estimate_power, PowerReport};
pub use report::AreaReport;

/// Errors produced when manipulating netlists.
#[derive(Debug, Clone, PartialEq)]
pub enum NetlistError {
    /// A gate was created with the wrong number of inputs for its kind.
    ArityMismatch {
        /// The gate kind.
        kind: GateKind,
        /// Number of inputs supplied.
        got: usize,
        /// Number of inputs required.
        expected: usize,
    },
    /// A net already has a driver.
    MultipleDrivers {
        /// The net in question.
        net: NetId,
    },
    /// The netlist contains a combinational cycle.
    CombinationalCycle,
    /// A named port was not found.
    UnknownPort {
        /// The requested port name.
        name: String,
    },
    /// [`Netlist::decode_words`] was given words that are not one
    /// [`Netlist::encode_words`] encoding.
    MalformedEncoding {
        /// The word offset where decoding stopped.
        at: usize,
    },
}

impl std::fmt::Display for NetlistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetlistError::ArityMismatch {
                kind,
                got,
                expected,
            } => write!(f, "gate {kind:?} takes {expected} inputs, got {got}"),
            NetlistError::MultipleDrivers { net } => {
                write!(f, "net {net:?} already has a driver")
            }
            NetlistError::CombinationalCycle => {
                write!(f, "netlist contains a combinational cycle")
            }
            NetlistError::UnknownPort { name } => write!(f, "unknown port {name:?}"),
            NetlistError::MalformedEncoding { at } => {
                write!(f, "malformed netlist word encoding at word {at}")
            }
        }
    }
}

impl std::error::Error for NetlistError {}
