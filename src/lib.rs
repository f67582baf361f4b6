//! # synthir
//!
//! Microcode and FSM-table **intermediate representations for controllers
//! in chip generators**, together with the partial-evaluating logic
//! synthesis engine needed to specialize them — a from-scratch Rust
//! reproduction of *Kelley, Wachs, Danowitz, Stevenson, Richardson,
//! Horowitz: "Intermediate Representations for Controllers in Chip
//! Generators", DATE 2011*.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`logic`] — boolean kernel (truth tables, covers, espresso, value
//!   sets);
//! * [`aig`] — the structurally-hashed And-Inverter Graph optimization
//!   core (hash-consing with construction-time folding, local rewriting,
//!   SAT sweeping, netlist round-trips);
//! * [`netlist`] — gate-level IR and the synthetic `vt90` cell library;
//! * [`rtl`] — RTL IR, elaboration, and the paper's coding styles;
//! * [`synth`] — the synthesis flow, its front half running on the AIG
//!   core ([`synth::aigopt`]): cleanup/rewriting/sweeping,
//!   state propagation and folding, resynthesis, FSM re-encoding,
//!   retiming, cut-based technology mapping on the AIG, STA (with an
//!   opt-in per-pass SAT self-check,
//!   [`synth::SynthOptions::verify_each_pass`]);
//! * [`sat`] — a dependency-free CDCL SAT solver;
//! * [`sim`] — simulation and equivalence checking (SAT miters, induction
//!   and BMC — exact at any interface width);
//! * [`core`] — the paper's contribution: controller IRs (FSM specs,
//!   microprograms, sequencers), annotation derivation, the PE driver,
//!   KISS2 FSM I/O, and a microcode assembler;
//! * [`pctrl`] — the Smart Memories protocol-controller model.
//!
//! The workspace also ships the **`synthir` command-line tool**
//! (`crates/cli`), which drives this whole pipeline from interchange
//! files: KISS2 FSMs, espresso-format PLAs, and textual microcode in;
//! synthesized Verilog, area/timing/power reports, and VCD waveforms out.
//! See the repository README for the file-based quickstart.
//!
//! ## Quickstart
//!
//! ```
//! use synthir::core::random::random_fsm;
//! use synthir::core::pe::evaluate_pair;
//! use synthir::netlist::Library;
//! use synthir::synth::SynthOptions;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A random 5-state controller, as a flexible (programmable) design and
//! // as a table-specialized instance.
//! let spec = random_fsm(2, 4, 5, 42);
//! let cmp = evaluate_pair(
//!     &spec.to_programmable_module(),
//!     &spec.to_table_module(false),
//!     &Library::vt90(),
//!     &SynthOptions::default(),
//! )?;
//! assert!(cmp.savings() > 0.5); // PE removes most of the flexible area
//! # Ok(())
//! # }
//! ```
//!
//! ## Performance and threads
//!
//! The boolean kernel under every experiment is a unate-recursive-paradigm
//! espresso: complementation and tautology run with unate reduction,
//! exact small-support bitmap leaves, disjoint-support decomposition, a
//! cofactor memo, and pooled scratch buffers; EXPAND queries the OFF-set
//! through a bucket index and single-cube containment is signature-pruned.
//! See `synthir_logic`'s module docs for the architecture and
//! `BENCH_espresso.json` (regenerated by `cargo bench --bench
//! bench_espresso`) for the tracked speedup over the pre-optimization
//! kernel, which is preserved in `synthir_logic::naive` as the oracle and
//! benchmark baseline.
//!
//! The batch drivers — [`logic::espresso::minimize_batch`],
//! [`logic::espresso::minimize_tt_batch`], and [`logic::par::par_map`] —
//! minimize independent PLA outputs, resynthesis cones, and benchmark
//! design points on scoped OS threads. Results are bit-identical to the
//! serial path (jobs are independent and returned in input order); set
//! `SYNTHIR_THREADS=1` to force single-threaded execution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use smpctrl as pctrl;
pub use synthir_aig as aig;
pub use synthir_core as core;
pub use synthir_logic as logic;
pub use synthir_netlist as netlist;
pub use synthir_rtl as rtl;
pub use synthir_sat as sat;
pub use synthir_sim as sim;
pub use synthir_synth as synth;
