//! # synthir-aig
//!
//! A structurally-hashed **And-Inverter Graph** — the optimization core
//! shared by the synthesis flow, the SAT equivalence engine, and the
//! netlist cleanup passes.
//!
//! Industrial logic-optimization flows (ABC and its descendants) converge
//! on one normalized IR: every combinational function is a DAG of 2-input
//! ANDs with complemented edges, hash-consed at construction so constant
//! folding, sharing, and local simplification happen *while the graph is
//! being built* instead of in fixpoint passes over a flat netlist. This
//! crate is that IR for the `synthir` workspace:
//!
//! * [`Aig`] / [`AigLit`] — the graph: flat topological node storage,
//!   complemented edges, two-level hash-consing with constant folding and
//!   one-/two-level rewriting inside [`Aig::and`], latch nodes carrying
//!   netlist flop semantics (reset flavour + init value) unchanged;
//! * [`import`] — `Netlist → Aig`, preserving port names and flop
//!   semantics and returning the net → literal map annotations ride on;
//! * [`export`] — `Aig → Netlist` with an implicit dangling-node sweep;
//! * [`mod@rewrite`] — local rewriting (2-input-cut NPN resynthesis),
//!   [`rewrite::compact`] and constant-latch folding
//!   ([`rewrite::fold_constant_latches`]);
//! * [`satsweep`] — candidate equivalence classes from 64-bit random
//!   simulation signatures, confirmed by the [`synthir_sat`] CDCL solver
//!   and merged on proof;
//! * [`tseitin`] — the Tseitin CNF encoding of AIG cones, the workspace's
//!   only path to the solver: SAT sweeping proves merges through it, and
//!   [`satisfy`] answers the equivalence checker's miters;
//! * [`cuts`] — k-feasible priority-cut enumeration with per-cut truth
//!   tables, the front half of cut-based technology mapping
//!   (`synthir_synth`'s `cutmap` pass);
//! * [`npn`] — NPN canonicalization of ≤ 4-variable truth tables, the
//!   equivalence the mapper matches cut functions against library cells
//!   under;
//! * [`optimize`] — the bundled pipeline the synthesis flow calls.
//!
//! ## Example
//!
//! ```
//! use synthir_aig::{Aig, AigLit};
//!
//! let mut g = Aig::new("demo");
//! let a = g.add_input_port("a", 1)[0];
//! let b = g.add_input_port("b", 1)[0];
//! let y = g.and(a, b);
//! // Hash-consing: the permuted duplicate is the same node…
//! assert_eq!(g.and(b, a), y);
//! // …and contradictions fold at construction time.
//! assert_eq!(g.and(y, !a), AigLit::FALSE);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cuts;
pub mod export;
pub mod graph;
pub mod import;
pub mod npn;
pub mod rewrite;
pub mod satsweep;
pub mod tseitin;

pub use cuts::{enumerate_cuts, Cut};
pub use export::{to_netlist, NetlistExport};
pub use graph::{Aig, AigLit, AigNode, AigPort, FxMap, Latch};
pub use import::{from_netlist, NetLits, NetlistImport};
pub use npn::{canonicalize, NpnTransform};
pub use rewrite::{compact, fold_constant_latches, rewrite, Rebuilt};
pub use satsweep::{sat_sweep, SweepOptions, SweepResult};
pub use tseitin::{satisfy, satisfy_with_stats, satisfy_within};

/// Errors produced by AIG construction and conversion.
#[derive(Debug, Clone, PartialEq)]
pub enum AigError {
    /// The source netlist's combinational part is cyclic.
    Cyclic(String),
}

impl std::fmt::Display for AigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AigError::Cyclic(e) => write!(f, "cyclic netlist: {e}"),
        }
    }
}

impl std::error::Error for AigError {}

/// Statistics from one [`optimize`] run.
#[derive(Clone, Copy, Debug, Default)]
pub struct OptimizeStats {
    /// AND count before optimization.
    pub ands_before: usize,
    /// AND count after rewriting, sweeping, and compaction.
    pub ands_after: usize,
    /// Nodes merged by SAT sweeping (0 when sweeping is off).
    pub sat_merges: usize,
    /// SAT proofs (UNSAT results) during sweeping.
    pub sat_proofs: usize,
    /// SAT refutations (simulation-signature collisions the solver split).
    pub sat_refutations: usize,
}

/// The bundled optimization pipeline: local rewriting to a fixpoint,
/// optional SAT sweeping, and a final compaction — returning the composed
/// old-literal → new-literal map so callers can carry annotations across.
pub fn optimize(
    aig: &Aig,
    keep: &[AigLit],
    sweep: Option<&SweepOptions>,
) -> (Rebuilt, OptimizeStats) {
    let mut stats = OptimizeStats {
        ands_before: aig.and_count(),
        ..Default::default()
    };
    let mut result = rewrite::rewrite(aig, keep);
    if let Some(opts) = sweep {
        let keep2: Vec<AigLit> = keep.iter().map(|&l| result.lit(l)).collect();
        let swept = satsweep::sat_sweep(&result.aig, &keep2, opts);
        stats.sat_merges = swept.merges;
        stats.sat_proofs = swept.proofs;
        stats.sat_refutations = swept.refutations;
        result = result.then(swept.rebuilt);
        let keep3: Vec<AigLit> = keep.iter().map(|&l| result.lit(l)).collect();
        let compacted = rewrite::compact(&result.aig, &keep3);
        result = result.then(compacted);
    }
    stats.ands_after = result.aig.and_count();
    (result, stats)
}
