//! Cut-based technology mapping on the AIG: the synthesis flow's only
//! mapping step, run on every compile after resynthesis.
//!
//! The resynthesized netlist is imported into an And-Inverter Graph
//! (which folds constants and hashes structure on the way in), latches
//! that never leave their init value are folded to constants
//! ([`synthir_aig::fold_constant_latches`]), and the design is mapped
//! *globally* from it:
//!
//! 1. **Cut enumeration** — every AND node gets a bounded set of
//!    k-feasible priority cuts (k ≤ 4) with per-cut truth tables
//!    ([`synthir_aig::cuts`]);
//! 2. **NPN matching** — each cut function is canonicalized
//!    ([`synthir_aig::npn`]) and looked up in an NPN-indexed view of the
//!    [`Library`]'s cell metadata ([`NpnIndex`]); a hit yields the cell
//!    plus the exact pin permutation/polarities realizing the cut;
//! 3. **Cover selection** — a depth-oriented first pass (min arrival
//!    under the library's per-cell delays), then area-flow and
//!    exact-local-area recovery passes choose one cut per needed node.
//!    Exact-local-area counts references per node *phase*, so it charges
//!    the polarity inverters the way emission builds them: one per node
//!    whose unproduced phase has a reader, shared by all of them (the
//!    accounting of priority-cut mappers; Mishchenko, Cho, Chatterjee,
//!    Brayton, "Combinational and sequential mapping with priority cuts",
//!    ICCAD 2007);
//! 4. **Emission** — the mapped [`Netlist`] is built directly from the
//!    chosen cuts (ports, flop semantics, and polarity-memoized inverters
//!    preserved).
//!
//! Because cut truth tables are contextually sound (reconvergent
//! sub-cones bake in circuit-level don't-cares — see
//! [`synthir_aig::cuts`]), the mapped netlist is functionally equivalent
//! to the input by construction; `SynthOptions::verify_each_pass` and the
//! benchmark cross-proofs check it with SAT anyway.

use synthir_aig::cuts::{enumerate_cuts, Cut};
use synthir_aig::npn::{canonicalize, NpnTransform};
use synthir_aig::{fold_constant_latches, from_netlist, Aig, AigLit, AigNode, FxMap};
use synthir_netlist::{CellSpec, GateKind, Library, NetId, Netlist, ResetKind};

/// Cut width. The library has no cell wider than 4 data pins, which is
/// also [`synthir_aig::cuts::MAX_K`].
const K: usize = 4;
/// Priority-cut bound per node.
const MAX_CUTS: usize = 8;

/// An NPN-indexed view of a [`Library`]'s combinational cell metadata:
/// canonical truth-table class → the cells realizing it, cheapest first.
///
/// # Examples
///
/// ```
/// use synthir_netlist::{GateKind, Library};
/// use synthir_synth::cutmap::NpnIndex;
///
/// let idx = NpnIndex::build(&Library::vt90());
/// // All eight ±(±a · ±b) functions hit the AND2 class; the cheapest
/// // realization is the NAND2 cell.
/// let m = idx.matches(0b1000, 2).expect("AND2 class indexed");
/// assert_eq!(m[0].kind, GateKind::Nand2);
/// // XOR has its own class.
/// assert!(idx.matches(0b0110, 2).is_some());
/// // 3-input XOR matches no single cell.
/// assert!(idx.matches(0b1001_0110, 3).is_none());
/// ```
pub struct NpnIndex {
    classes: FxMap<(u8, u16), Vec<CellMatch>>,
}

/// One library cell in an NPN class.
#[derive(Clone, Copy, Debug)]
pub struct CellMatch {
    /// The cell kind.
    pub kind: GateKind,
    /// The cell's area/delay metadata row.
    pub spec: CellSpec,
    /// Transform mapping the cell's pin function onto the class canon.
    to_canon: NpnTransform,
}

impl NpnIndex {
    /// Builds the index from a library's cell metadata table. Cells with
    /// 2–4 data pins participate; `Buf`/`Inv` are handled as aliases and
    /// constants as tie cells, so they are not indexed.
    ///
    /// One [`canonicalize`] per cell: for the shipped library this costs
    /// a few tens of microseconds, so [`cut_map`] simply rebuilds the
    /// index on every call.
    pub fn build(lib: &Library) -> NpnIndex {
        let mut classes: FxMap<(u8, u16), Vec<CellMatch>> = FxMap::default();
        for (kind, spec) in lib.combinational_cells() {
            let n = kind.arity();
            if !(2..=K).contains(&n) {
                continue;
            }
            let (canon, s) = canonicalize(kind.truth_table(), n);
            classes
                .entry((n as u8, canon))
                .or_default()
                .push(CellMatch {
                    kind: *kind,
                    spec: *spec,
                    to_canon: s,
                });
        }
        for v in classes.values_mut() {
            v.sort_by(|a, b| {
                (a.spec.area, a.spec.delay)
                    .partial_cmp(&(b.spec.area, b.spec.delay))
                    .expect("finite costs")
            });
        }
        NpnIndex { classes }
    }

    /// The cells whose NPN class contains the `n`-variable function `tt`
    /// (cheapest area first), or `None` when no single cell realizes it.
    pub fn matches(&self, tt: u16, n: usize) -> Option<&[CellMatch]> {
        let (canon, _) = canonicalize(tt, n);
        self.classes
            .get(&(n as u8, canon))
            .map(|v: &Vec<CellMatch>| v.as_slice())
    }
}

/// How a node's chosen cut is realized in cells.
#[derive(Clone, Copy, Debug)]
enum Real {
    /// The node function is constant in context: a tie cell.
    Constant(bool),
    /// The node function equals (the complement of) a single leaf: no
    /// gate, just net sharing (plus a memoized inverter when `neg`).
    Alias {
        /// The leaf node aliased to.
        leaf: u32,
        /// Whether the node is the leaf's complement.
        neg: bool,
    },
    /// A library cell over the cut's leaves.
    Cell {
        /// The cell's entry in [`Cands::cells`] (an index rather than the
        /// cell itself keeps candidates small: a mapping holds tens of
        /// thousands of them).
        cell: u8,
        /// The cell computes the *complement* of the node function.
        out_neg: bool,
    },
}

/// One mapping candidate: a realization plus the leaves it reads.
#[derive(Clone, Copy, Debug)]
struct Cand {
    real: Real,
    /// The leaf read by cell pin `j` (an alias reads its one leaf, a tie
    /// cell nothing), complemented when bit `j` of `negs` is set; only the
    /// first `len` entries count. Resolved once when the candidate is
    /// built, so the cover passes — which read them for every candidate
    /// they score, recursively in the exact-area refinement — neither
    /// allocate nor revisit the cut.
    leaves: [u32; K],
    negs: u8,
    len: u8,
}

impl Cand {
    fn new(real: Real, leaves: &[(u32, bool)]) -> Cand {
        let mut cand = Cand {
            real,
            leaves: [0; K],
            negs: 0,
            len: leaves.len() as u8,
        };
        for (j, &(leaf, neg)) in leaves.iter().enumerate() {
            cand.leaves[j] = leaf;
            cand.negs |= u8::from(neg) << j;
        }
        cand
    }

    /// The leaves the realization reads, as (leaf, complemented), in
    /// cell-pin order.
    fn leaves(&self) -> impl Iterator<Item = (u32, bool)> + '_ {
        self.leaves[..self.len as usize]
            .iter()
            .enumerate()
            .map(|(j, &leaf)| (leaf, self.negs >> j & 1 != 0))
    }

    /// Whether the realization physically produces the node's complement,
    /// given the produced phase of every earlier node: aliases carry their
    /// leaf's net, tie cells count as plain.
    fn produces_compl(&self, produced_compl: &[bool]) -> bool {
        match self.real {
            Real::Cell { out_neg, .. } => out_neg,
            Real::Alias { leaf, neg } => produced_compl[leaf as usize] ^ neg,
            Real::Constant(_) => false,
        }
    }

    /// The output-polarity fix-up: consumers reading the phase the
    /// candidate does not physically produce (`u`) pay one inverter; both
    /// tie-cell polarities are free. Conservative (no sharing assumed).
    fn out_fixup(&self, u: Uses, produced_compl: &[bool], inv: &CellSpec) -> f64 {
        if matches!(self.real, Real::Constant(_)) {
            return 0.0;
        }
        let produced = self.produces_compl(produced_compl);
        let both = u.plain > 0 && u.compl > 0;
        let wanted_compl = u.compl > 0 && u.plain == 0;
        if both || (wanted_compl != produced && u.total() > 0) {
            inv.area
        } else {
            0.0
        }
    }
}

/// Every node's candidates in one flat list: node `i`'s are
/// `list[start[i]..start[i + 1]]` (empty for non-AND nodes), and a choice
/// vector holds an index into that range per node.
struct Cands {
    list: Vec<Cand>,
    start: Vec<u32>,
    /// The library cells the candidates use.
    cells: Vec<(GateKind, CellSpec)>,
}

impl Cands {
    fn cell(&self, cand: &Cand) -> Option<(GateKind, CellSpec)> {
        match cand.real {
            Real::Cell { cell, .. } => Some(self.cells[usize::from(cell)]),
            _ => None,
        }
    }

    fn area(&self, cand: &Cand) -> f64 {
        self.cell(cand).map_or(0.0, |(_, spec)| spec.area)
    }

    fn delay(&self, cand: &Cand) -> f64 {
        self.cell(cand).map_or(0.0, |(_, spec)| spec.delay)
    }

    fn of(&self, i: usize) -> &[Cand] {
        &self.list[self.start[i] as usize..self.start[i + 1] as usize]
    }

    fn chosen(&self, i: usize, choice: &[usize]) -> &Cand {
        &self.of(i)[choice[i]]
    }
}

/// The result of mapping an AIG.
struct Mapped {
    netlist: Netlist,
    cells: usize,
}

/// Per-node use counts of each polarity in a cover.
#[derive(Clone, Copy, Default)]
struct Uses {
    plain: u32,
    compl: u32,
}

impl Uses {
    fn total(self) -> u32 {
        self.plain + self.compl
    }
}

/// The flow-facing entry point: maps `nl` with the cut-based mapper,
/// replacing it by the netlist emitted from the chosen cuts. Returns the
/// number of combinational cells emitted — matched cells, polarity
/// fix-up inverters, and tie cells included (the pass's `rewrites`
/// statistic).
///
/// A netlist whose combinational part is cyclic cannot be imported into
/// the AIG: `cut_map` then leaves `nl` untouched and returns `0` (the
/// synthesis flow validates acyclicity before any pass runs, so this
/// only concerns direct callers — validate first to distinguish "cyclic,
/// skipped" from "mapped, zero cells emitted").
pub fn cut_map(nl: &mut Netlist, lib: &Library) -> usize {
    let Ok(imp) = from_netlist(nl) else {
        // Cyclic netlists are rejected by `compile` validation up front;
        // leave the netlist untouched.
        return 0;
    };
    // Only a fold rebuilds the graph: an untouched import keeps its node
    // order, which the mapper's tie-breaks follow.
    let folded = fold_constant_latches(&imp.aig);
    let mapped = map_aig(folded.as_ref().map_or(&imp.aig, |r| &r.aig), lib);
    *nl = mapped.netlist;
    mapped.cells
}

/// Maps an AIG to a netlist of library cells via cut matching and
/// three-phase cover selection.
fn map_aig(aig: &Aig, lib: &Library) -> Mapped {
    let index = NpnIndex::build(lib);
    let inv = lib.cell(GateKind::Inv);
    let live = aig.live_marks(&[]);
    let cands = candidates(aig, &enumerate_cuts(aig, K, MAX_CUTS), &index);

    // Structural polarity/fanout estimates seed the first pass.
    let structural = structural_uses(aig, &live);

    // Pass 1: depth-oriented. Passes 2..: area recovery with real cover
    // references from the previous pass's extraction.
    let mut choice = select(aig, &cands, &inv, Mode::Depth, &structural, None);
    for _ in 0..2 {
        let cover = extract(aig, &cands, &choice, &live);
        choice = select(aig, &cands, &inv, Mode::Area, &structural, Some(&cover));
    }
    // Exact-local-area refinement on the final cover.
    exact_local_area(aig, &cands, &mut choice, &live, &inv);

    let cover = extract(aig, &cands, &choice, &live);
    let mapped = emit(aig, &cands, &choice, &cover, &live);
    debug_assert!(
        {
            let (_, area) = PhaseRefs::of_cover(aig, &cands, &choice, &live, &inv);
            (area - mapped.netlist.area_report(lib).combinational).abs() < 1e-6 * area.max(1.0)
        },
        "the cover's phase accounting disagrees with the emitted area"
    );
    debug_assert_eq!(
        mapped.netlist.clone().sweep(),
        0,
        "the mapper emitted a dead gate"
    );
    mapped
}

/// Builds the candidate realizations of every AND node: per non-trivial
/// cut, a tie cell, an alias, or one candidate per library cell in the
/// cut function's NPN class (cheapest first).
fn candidates(aig: &Aig, cuts: &[Vec<Cut>], index: &NpnIndex) -> Cands {
    // The cell realizations of each distinct cut function met in this
    // call, as (cell, per-pin (cut-leaf index, complemented)): `memo`
    // maps (arity, table) to a range of `cells`.
    let mut memo: FxMap<(u8, u16), (u32, u32)> = FxMap::default();
    let mut cells: Vec<(Real, [(u8, bool); K])> = Vec::new();
    let mut kinds: Vec<(GateKind, CellSpec)> = Vec::new();
    let mut list: Vec<Cand> = Vec::new();
    let mut start: Vec<u32> = Vec::with_capacity(aig.node_count() + 1);
    for (i, node) in aig.nodes().iter().enumerate() {
        start.push(list.len() as u32);
        if !matches!(node, AigNode::And(..)) {
            continue;
        }
        let first = list.len();
        for cut in &cuts[i] {
            if cut.leaves() == [i as u32] {
                continue; // the trivial cut cannot implement its own node
            }
            match cut.len() {
                0 => list.push(Cand::new(Real::Constant(cut.tt & 1 == 1), &[])),
                1 => {
                    let (leaf, neg) = (cut.leaves()[0], cut.tt == 0b01);
                    list.push(Cand::new(Real::Alias { leaf, neg }, &[(leaf, neg)]));
                }
                n => {
                    let (lo, hi) = *memo.entry((n as u8, cut.tt)).or_insert_with(|| {
                        let lo = cells.len() as u32;
                        let (canon, t) = canonicalize(cut.tt, n);
                        let ti = t.inverse(n);
                        for m in index.classes.get(&(n as u8, canon)).into_iter().flatten() {
                            // f = (t⁻¹ ∘ s)·g: cut function f in terms of
                            // the cell function g.
                            let u = ti.compose(&m.to_canon, n);
                            let mut pins = [(0u8, false); K];
                            for v in 0..n {
                                pins[u.perm[v] as usize] = (v as u8, u.flips >> v & 1 != 0);
                            }
                            let cell = kinds.iter().position(|&(k, _)| k == m.kind);
                            let cell = cell.unwrap_or_else(|| {
                                kinds.push((m.kind, m.spec));
                                kinds.len() - 1
                            });
                            let real = Real::Cell {
                                cell: u8::try_from(cell).expect("at most 256 library cells"),
                                out_neg: u.negate,
                            };
                            cells.push((real, pins));
                        }
                        (lo, cells.len() as u32)
                    });
                    for &(real, pins) in &cells[lo as usize..hi as usize] {
                        let mut leaves = [(0u32, false); K];
                        for (slot, &(li, neg)) in leaves.iter_mut().zip(&pins[..n]) {
                            *slot = (cut.leaves()[li as usize], neg);
                        }
                        list.push(Cand::new(real, &leaves[..n]));
                    }
                }
            }
        }
        debug_assert!(list.len() > first, "every AND node has a matchable cut");
    }
    start.push(list.len() as u32);
    Cands {
        list,
        start,
        cells: kinds,
    }
}

/// Structural (AIG-edge) polarity use counts — the seed estimate before
/// any cover exists.
fn structural_uses(aig: &Aig, live: &[bool]) -> Vec<Uses> {
    let mut uses = vec![Uses::default(); aig.node_count()];
    let mut count = |l: AigLit| {
        let u = &mut uses[l.node() as usize];
        if l.is_complemented() {
            u.compl += 1;
        } else {
            u.plain += 1;
        }
    };
    for (i, n) in aig.nodes().iter().enumerate() {
        if let AigNode::And(a, b) = *n {
            if live[i] {
                count(a);
                count(b);
            }
        }
    }
    for l in aig.latches() {
        if live[l.output as usize] {
            count(l.next);
            count(l.reset_lit);
        }
    }
    for p in aig.output_ports() {
        for &l in &p.lits {
            count(l);
        }
    }
    uses
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Depth,
    Area,
}

/// One cover from a choice vector: which nodes are needed, and how often
/// each polarity of each node is read.
struct Cover {
    uses: Vec<Uses>,
}

/// Selects one candidate per AND node in topological order.
///
/// Depth mode minimizes arrival (cell delays plus inverter fix-ups);
/// area mode minimizes area flow — candidate area divided by the node's
/// reference count from the previous cover, so shared logic looks cheap
/// and single-use logic pays full price. Inverter costs are charged when
/// a pin needs the polarity its leaf does not physically produce (the
/// producing phase is known for already-chosen leaves in the same pass).
fn select(
    aig: &Aig,
    cands: &Cands,
    inv: &CellSpec,
    mode: Mode,
    structural: &[Uses],
    prev: Option<&Cover>,
) -> Vec<usize> {
    let n_nodes = aig.node_count();
    let mut choice = vec![0usize; n_nodes];
    let mut arrival = vec![0.0f64; n_nodes];
    let mut flow = vec![0.0f64; n_nodes];
    let mut produced_compl = vec![false; n_nodes];
    for i in 0..n_nodes {
        if !matches!(aig.nodes()[i], AigNode::And(..)) {
            continue;
        }
        // The polarities consumers read, and the reference count area
        // flow divides by.
        let needs = match prev {
            Some(c) if c.uses[i].total() > 0 => c.uses[i],
            _ => structural[i],
        };
        let refs = f64::from(needs.total().max(1));
        let mut best: Option<(f64, f64, usize)> = None;
        for (k, cand) in cands.of(i).iter().enumerate() {
            let mut arr = 0.0f64;
            let mut in_cost = 0.0f64;
            for (leaf, neg) in cand.leaves() {
                let l = leaf as usize;
                let mismatch = neg != produced_compl[l];
                arr = arr.max(arrival[l] + if mismatch { inv.delay } else { 0.0 });
                in_cost += flow[l] + if mismatch { inv.area } else { 0.0 };
            }
            arr += cands.delay(cand);
            let out_pen = cand.out_fixup(needs, &produced_compl, inv);
            let af = (cands.area(cand) + out_pen + in_cost) / refs;
            let key = match mode {
                Mode::Depth => (arr, af),
                Mode::Area => (af, arr),
            };
            if best.is_none_or(|(k0, k1, _)| key < (k0, k1)) {
                best = Some((key.0, key.1, k));
            }
        }
        let (_, _, k) = best.expect("every AND node has a candidate");
        choice[i] = k;
        let cand = &cands.of(i)[k];
        arrival[i] = cand
            .leaves()
            .map(|(l, neg)| {
                arrival[l as usize]
                    + if neg != produced_compl[l as usize] {
                        inv.delay
                    } else {
                        0.0
                    }
            })
            .fold(0.0, f64::max)
            + cands.delay(cand);
        flow[i] =
            (cands.area(cand) + cand.leaves().map(|(l, _)| flow[l as usize]).sum::<f64>()) / refs;
        produced_compl[i] = cand.produces_compl(&produced_compl);
    }
    choice
}

/// Extracts the cover of a choice vector: walks the required-node set
/// from the roots (output ports plus live-latch next/reset cones) and
/// counts polarity uses, resolving aliases onto their leaves.
fn extract(aig: &Aig, cands: &Cands, choice: &[usize], live: &[bool]) -> Cover {
    let mut uses = vec![Uses::default(); aig.node_count()];
    let add = |uses: &mut Vec<Uses>, l: AigLit| {
        let u = &mut uses[l.node() as usize];
        if l.is_complemented() {
            u.compl += 1;
        } else {
            u.plain += 1;
        }
    };
    for p in aig.output_ports() {
        for &l in &p.lits {
            add(&mut uses, l);
        }
    }
    for lat in aig.latches() {
        if live[lat.output as usize] {
            add(&mut uses, lat.next);
            add(&mut uses, lat.reset_lit);
        }
    }
    // Reverse topological: by the time a node is processed, all its
    // consumers have recorded their uses.
    for i in (0..aig.node_count()).rev() {
        if uses[i].total() == 0 || !matches!(aig.nodes()[i], AigNode::And(..)) {
            continue;
        }
        let cand = cands.chosen(i, choice);
        match cand.real {
            Real::Constant(_) => {}
            Real::Alias { leaf, neg } => {
                // Reading this node's plain function is reading
                // leaf ^ neg; forward both phase counts.
                let (p, c) = (uses[i].plain, uses[i].compl);
                let u = &mut uses[leaf as usize];
                if neg {
                    u.compl += p;
                    u.plain += c;
                } else {
                    u.plain += p;
                    u.compl += c;
                }
            }
            Real::Cell { .. } => {
                for (leaf, neg) in cand.leaves() {
                    add(&mut uses, AigLit::new(leaf, neg));
                }
            }
        }
    }
    Cover { uses }
}

/// Reads of every node phase in a cover, counted the way [`emit`] builds
/// the netlist, so the area they add up to is the area it emits: a read of
/// node `n` in phase `p` is one reference to `(n, p)`. A cell holds one
/// reference per pin while either phase of its node is read, an alias
/// passes each phase read on to its leaf, and a node pays one inverter —
/// shared by all its readers — while the phase it does not produce has a
/// reader (inputs and latch outputs produce the plain phase; tie cells
/// produce both).
struct PhaseRefs<'a> {
    nodes: &'a [AigNode],
    cands: &'a Cands,
    inv_area: f64,
    /// `refs[n][p]`: the readers of node `n` in phase `p` (1 = complement).
    refs: Vec<[u32; 2]>,
    /// Every increment, so a trial insertion is undone by decrementing the
    /// logged entries again.
    log: Vec<(u32, bool)>,
}

impl<'a> PhaseRefs<'a> {
    /// The references of the cover `choice` selects from the roots: output
    /// ports plus live-latch next/reset cones, as [`extract`] walks them.
    /// Returns the cover's combinational area with it.
    fn of_cover(
        aig: &'a Aig,
        cands: &'a Cands,
        choice: &[usize],
        live: &[bool],
        inv: &CellSpec,
    ) -> (PhaseRefs<'a>, f64) {
        let mut refs = PhaseRefs {
            nodes: aig.nodes(),
            cands,
            inv_area: inv.area,
            refs: vec![[0; 2]; aig.node_count()],
            log: Vec::new(),
        };
        let mut area = 0.0;
        for p in aig.output_ports() {
            for &l in &p.lits {
                area += refs.ref_lit(choice, l);
            }
        }
        for lat in aig.latches() {
            if live[lat.output as usize] {
                area += refs.ref_lit(choice, lat.next);
                area += refs.ref_lit(choice, lat.reset_lit);
            }
        }
        refs.log.clear();
        (refs, area)
    }

    /// Adds one read of `l`; returns the area the cover grows by.
    fn ref_lit(&mut self, choice: &[usize], l: AigLit) -> f64 {
        let (n, compl) = (l.node() as usize, l.is_complemented());
        let before = self.refs[n];
        self.refs[n][usize::from(compl)] += 1;
        self.log.push((l.node(), compl));
        if before[usize::from(compl)] > 0 {
            return 0.0;
        }
        let cands = self.cands;
        match self.nodes[n] {
            AigNode::And(..) => {
                let cand = cands.chosen(n, choice);
                match cand.real {
                    Real::Constant(_) => 0.0,
                    Real::Alias { leaf, neg } => {
                        self.ref_lit(choice, AigLit::new(leaf, compl ^ neg))
                    }
                    Real::Cell { out_neg, .. } => {
                        let mut area = if compl != out_neg { self.inv_area } else { 0.0 };
                        if before == [0, 0] {
                            area += cands.area(cand);
                            for (leaf, neg) in cand.leaves() {
                                area += self.ref_lit(choice, AigLit::new(leaf, neg));
                            }
                        }
                        area
                    }
                }
            }
            AigNode::Const0 => 0.0,
            AigNode::Input | AigNode::Latch(_) if compl => self.inv_area,
            AigNode::Input | AigNode::Latch(_) => 0.0,
        }
    }

    /// The inverse of [`PhaseRefs::ref_lit`]: removes one read of `l`,
    /// releasing whatever its last reader held.
    fn deref_lit(&mut self, choice: &[usize], l: AigLit) {
        let (n, compl) = (l.node() as usize, l.is_complemented());
        self.refs[n][usize::from(compl)] -= 1;
        if self.refs[n][usize::from(compl)] > 0 || !matches!(self.nodes[n], AigNode::And(..)) {
            return;
        }
        let cands = self.cands;
        let cand = cands.chosen(n, choice);
        match cand.real {
            Real::Constant(_) => {}
            Real::Alias { leaf, neg } => self.deref_lit(choice, AigLit::new(leaf, compl ^ neg)),
            Real::Cell { .. } => {
                if self.refs[n] == [0, 0] {
                    for (leaf, neg) in cand.leaves() {
                        self.deref_lit(choice, AigLit::new(leaf, neg));
                    }
                }
            }
        }
    }

    /// Undoes every increment since the log was last cleared.
    fn undo(&mut self) {
        for (n, compl) in self.log.drain(..) {
            self.refs[n as usize][usize::from(compl)] -= 1;
        }
    }
}

/// Exact-local-area refinement: for each covered node (topological
/// order), re-choose the candidate whose *incremental* area — cell area,
/// the inverters [`emit`] will build for it, plus the exact area of
/// sub-covers not otherwise referenced — is smallest, scored by trial
/// insertion into the cover's [`PhaseRefs`].
fn exact_local_area(aig: &Aig, cands: &Cands, choice: &mut [usize], live: &[bool], inv: &CellSpec) {
    let (mut cover, _) = PhaseRefs::of_cover(aig, cands, choice, live, inv);
    for i in 0..aig.node_count() {
        let read = cover.refs[i];
        if read == [0, 0] || !matches!(aig.nodes()[i], AigNode::And(..)) {
            continue;
        }
        let phases = [false, true]
            .into_iter()
            .filter(|&c| read[usize::from(c)] > 0);
        let lits = || phases.clone().map(|c| AigLit::new(i as u32, c));
        // Take the node out of the cover as if each read phase lost its
        // last reader…
        cover.refs[i] = read.map(|r| u32::from(r > 0));
        for l in lits() {
            cover.deref_lit(choice, l);
        }
        // …score every candidate by the area those readers bring back…
        let mut best = choice[i];
        let mut best_area = f64::INFINITY;
        for k in 0..cands.of(i).len() {
            choice[i] = k;
            let a: f64 = lits().map(|l| cover.ref_lit(choice, l)).sum();
            cover.undo();
            if a < best_area {
                best_area = a;
                best = k;
            }
        }
        // …and commit the winner, readers restored.
        choice[i] = best;
        for l in lits() {
            cover.ref_lit(choice, l);
        }
        cover.log.clear();
        cover.refs[i] = read;
    }
}

/// Emits the mapped netlist from the chosen cover.
fn emit(aig: &Aig, cands: &Cands, choice: &[usize], cover: &Cover, live: &[bool]) -> Mapped {
    let n_nodes = aig.node_count();
    let mut nl = Netlist::new(aig.name());
    // Net of each node polarity, memoized (inverters created on demand).
    let mut plain_net: Vec<Option<NetId>> = vec![None; n_nodes];
    let mut inv_net: Vec<Option<NetId>> = vec![None; n_nodes];

    for p in aig.input_ports() {
        let nets = nl.add_input(&p.name, p.lits.len());
        for (&l, &n) in p.lits.iter().zip(&nets) {
            plain_net[l.node() as usize] = Some(n);
        }
    }
    for lat in aig.latches() {
        if live[lat.output as usize] {
            plain_net[lat.output as usize] = Some(nl.add_net());
        }
    }

    fn resolve(
        nl: &mut Netlist,
        plain_net: &mut [Option<NetId>],
        inv_net: &mut [Option<NetId>],
        l: AigLit,
    ) -> NetId {
        if let Some(v) = l.as_constant() {
            return nl.constant(v);
        }
        let n = l.node() as usize;
        let (want, other) = if l.is_complemented() {
            (&mut inv_net[n], plain_net[n])
        } else {
            (&mut plain_net[n], inv_net[n])
        };
        if let Some(net) = *want {
            return net;
        }
        let base = other.unwrap_or_else(|| panic!("literal {l:?} has no net in the cover"));
        let net = nl.add_gate(GateKind::Inv, &[base]);
        *want = Some(net);
        net
    }

    for i in 0..n_nodes {
        if cover.uses[i].total() == 0 || !matches!(aig.nodes()[i], AigNode::And(..)) {
            continue;
        }
        let cand = cands.chosen(i, choice);
        match cand.real {
            Real::Constant(v) => {
                // Each polarity read is its own free tie cell, so `resolve`
                // never builds Inv(TIELO); an unread one is never built.
                if cover.uses[i].plain > 0 {
                    plain_net[i] = Some(nl.constant(v));
                }
                if cover.uses[i].compl > 0 {
                    inv_net[i] = Some(nl.constant(!v));
                }
            }
            Real::Alias { leaf, neg } => {
                // No gate: each polarity of the node IS the matching
                // polarity of the leaf. Materialize exactly the phases
                // consumers read (resolving through the leaf's memoized
                // nets), so no Inv(Inv(leaf)) chains arise.
                if cover.uses[i].plain > 0 {
                    let net = resolve(
                        &mut nl,
                        &mut plain_net,
                        &mut inv_net,
                        AigLit::new(leaf, neg),
                    );
                    plain_net[i] = Some(net);
                }
                if cover.uses[i].compl > 0 {
                    let net = resolve(
                        &mut nl,
                        &mut plain_net,
                        &mut inv_net,
                        AigLit::new(leaf, !neg),
                    );
                    inv_net[i] = Some(net);
                }
            }
            Real::Cell { cell, out_neg } => {
                let kind = cands.cells[usize::from(cell)].0;
                let mut ins = [NetId(0); K];
                for (net, (leaf, neg)) in ins.iter_mut().zip(cand.leaves()) {
                    *net = resolve(
                        &mut nl,
                        &mut plain_net,
                        &mut inv_net,
                        AigLit::new(leaf, neg),
                    );
                }
                let out = nl.add_gate(kind, &ins[..cand.len as usize]);
                if out_neg {
                    inv_net[i] = Some(out);
                } else {
                    plain_net[i] = Some(out);
                }
            }
        }
    }

    for lat in aig.latches() {
        if !live[lat.output as usize] {
            continue;
        }
        let q = plain_net[lat.output as usize].expect("latch net pre-created");
        let d = resolve(&mut nl, &mut plain_net, &mut inv_net, lat.next);
        let kind = GateKind::Dff {
            reset: lat.reset,
            init: lat.init,
        };
        let inputs: Vec<NetId> = match lat.reset {
            ResetKind::None => vec![d],
            _ => vec![
                d,
                resolve(&mut nl, &mut plain_net, &mut inv_net, lat.reset_lit),
            ],
        };
        nl.attach_gate(kind, &inputs, q)
            .expect("latch net has no other driver");
    }
    for p in aig.output_ports() {
        let nets: Vec<NetId> = p
            .lits
            .iter()
            .map(|&l| resolve(&mut nl, &mut plain_net, &mut inv_net, l))
            .collect();
        nl.add_output(&p.name, &nets);
    }
    // Count every combinational cell that actually landed in the
    // netlist — matched cells, polarity fix-up inverters, tie cells —
    // so the pass's `rewrites` statistic matches what the area report
    // will charge for.
    let cells = nl.gates().filter(|(_, g)| !g.kind.is_sequential()).count();
    Mapped { netlist: nl, cells }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthir_sim::{check_comb_equiv, EquivOptions};

    fn lib() -> Library {
        Library::vt90()
    }

    #[test]
    fn npn_index_realizations_are_correct() {
        // For every indexed class member, re-derive a realization for a
        // random representative of the class and check it pointwise.
        let index = NpnIndex::build(&lib());
        for (&(n, canon), matches) in &index.classes {
            let n = n as usize;
            for m in matches {
                // canon = to_canon · cell_tt: evaluate both sides.
                assert_eq!(
                    m.to_canon.apply(m.kind.truth_table(), n),
                    canon,
                    "{:?} transform is wrong",
                    m.kind
                );
            }
        }
    }

    #[test]
    fn maps_simple_patterns_to_single_cells() {
        // !(a&b | c) is one AOI21 (or an equally-cheap equivalent).
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_input("b", 1)[0];
        let c = nl.add_input("c", 1)[0];
        let ab = nl.add_gate(GateKind::And2, &[a, b]);
        let o = nl.add_gate(GateKind::Or2, &[ab, c]);
        let y = nl.add_gate(GateKind::Inv, &[o]);
        nl.add_output("y", &[y]);
        let golden = nl.clone();
        let cells = cut_map(&mut nl, &lib());
        assert_eq!(cells, 1, "{:?}", nl.gate_histogram());
        let res = check_comb_equiv(&golden, &nl, &EquivOptions::new()).unwrap();
        assert!(res.is_equivalent());
    }

    #[test]
    fn inv_and_becomes_nand() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_input("b", 1)[0];
        let x = nl.add_gate(GateKind::And2, &[a, b]);
        let y = nl.add_gate(GateKind::Inv, &[x]);
        nl.add_output("y", &[y]);
        cut_map(&mut nl, &lib());
        assert_eq!(nl.num_gates(), 1);
        let g = nl.driver(nl.output_nets()[0]).unwrap();
        assert_eq!(nl.gate(g).kind, GateKind::Nand2);
    }

    #[test]
    fn mapping_reduces_area_and_preserves_function() {
        // (a&b) | (c&d), inverted — classic AOI22.
        let mut nl = Netlist::new("t");
        let x = nl.add_input("x", 4);
        let ab = nl.add_gate(GateKind::And2, &[x[0], x[1]]);
        let cd = nl.add_gate(GateKind::And2, &[x[2], x[3]]);
        let o = nl.add_gate(GateKind::Or2, &[ab, cd]);
        let y = nl.add_gate(GateKind::Inv, &[o]);
        nl.add_output("y", &[y]);
        let before_area = nl.area_report(&lib()).combinational;
        let golden = nl.clone();
        cut_map(&mut nl, &lib());
        assert!(nl.area_report(&lib()).combinational < before_area);
        let res = check_comb_equiv(&golden, &nl, &EquivOptions::new()).unwrap();
        assert!(res.is_equivalent());
    }

    #[test]
    fn shared_nodes_not_absorbed() {
        // The And2 feeds both the Inv and an output: one cell per phase
        // (its complement is a Nand2 or an inverter), never a duplicate.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_input("b", 1)[0];
        let x = nl.add_gate(GateKind::And2, &[a, b]);
        let y = nl.add_gate(GateKind::Inv, &[x]);
        nl.add_output("y", &[y]);
        nl.add_output("x", &[x]);
        let golden = nl.clone();
        cut_map(&mut nl, &lib());
        assert_eq!(nl.num_gates(), 2, "{:?}", nl.gate_histogram());
        let res = check_comb_equiv(&golden, &nl, &EquivOptions::new()).unwrap();
        assert!(res.is_equivalent());
    }

    #[test]
    fn maps_wide_and_trees_to_wide_cells() {
        let mut nl = Netlist::new("t");
        let x = nl.add_input("x", 4);
        let t1 = nl.add_gate(GateKind::And2, &[x[0], x[1]]);
        let t2 = nl.add_gate(GateKind::And2, &[x[2], x[3]]);
        let y = nl.add_gate(GateKind::And2, &[t1, t2]);
        nl.add_output("y", &[y]);
        let golden = nl.clone();
        cut_map(&mut nl, &lib());
        assert_eq!(nl.num_gates(), 1);
        let g = nl.driver(nl.output_nets()[0]).unwrap();
        assert_eq!(nl.gate(g).kind, GateKind::And4);
        let res = check_comb_equiv(&golden, &nl, &EquivOptions::new()).unwrap();
        assert!(res.is_equivalent());
    }

    #[test]
    fn and_tree_widens() {
        // A skewed chain ((a&b)&c)&d widens to one And4 like a balanced tree.
        let mut nl = Netlist::new("t");
        let x = nl.add_input("x", 4);
        let t1 = nl.add_gate(GateKind::And2, &[x[0], x[1]]);
        let t2 = nl.add_gate(GateKind::And2, &[t1, x[2]]);
        let y = nl.add_gate(GateKind::And2, &[t2, x[3]]);
        nl.add_output("y", &[y]);
        let golden = nl.clone();
        cut_map(&mut nl, &lib());
        assert_eq!(nl.num_gates(), 1, "{:?}", nl.gate_histogram());
        let g = nl.driver(nl.output_nets()[0]).unwrap();
        assert_eq!(nl.gate(g).kind, GateKind::And4);
        let res = check_comb_equiv(&golden, &nl, &EquivOptions::new()).unwrap();
        assert!(res.is_equivalent());
    }

    #[test]
    fn aoi21_pattern() {
        // Nor2(c, a&b) is !(a&b | c): one Aoi21.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_input("b", 1)[0];
        let c = nl.add_input("c", 1)[0];
        let ab = nl.add_gate(GateKind::And2, &[a, b]);
        let y = nl.add_gate(GateKind::Nor2, &[c, ab]);
        nl.add_output("y", &[y]);
        let golden = nl.clone();
        cut_map(&mut nl, &lib());
        assert_eq!(nl.num_gates(), 1, "{:?}", nl.gate_histogram());
        let g = nl.driver(nl.output_nets()[0]).unwrap();
        assert_eq!(nl.gate(g).kind, GateKind::Aoi21);
        let res = check_comb_equiv(&golden, &nl, &EquivOptions::new()).unwrap();
        assert!(res.is_equivalent());
    }

    #[test]
    fn xor_survives_as_a_cell() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_input("b", 1)[0];
        let y = nl.add_gate(GateKind::Xor2, &[a, b]);
        nl.add_output("y", &[y]);
        let golden = nl.clone();
        cut_map(&mut nl, &lib());
        assert_eq!(nl.num_gates(), 1);
        let g = nl.driver(nl.output_nets()[0]).unwrap();
        assert_eq!(nl.gate(g).kind, GateKind::Xor2);
        let res = check_comb_equiv(&golden, &nl, &EquivOptions::new()).unwrap();
        assert!(res.is_equivalent());
    }

    #[test]
    fn shared_logic_is_not_duplicated() {
        // The And2 feeds both an output and more logic: one cell each.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_input("b", 1)[0];
        let c = nl.add_input("c", 1)[0];
        let ab = nl.add_gate(GateKind::And2, &[a, b]);
        let y = nl.add_gate(GateKind::Or2, &[ab, c]);
        nl.add_output("ab", &[ab]);
        nl.add_output("y", &[y]);
        let golden = nl.clone();
        cut_map(&mut nl, &lib());
        let res = check_comb_equiv(&golden, &nl, &EquivOptions::new()).unwrap();
        assert!(res.is_equivalent());
        assert!(nl.num_gates() <= 2, "{:?}", nl.gate_histogram());
    }

    #[test]
    fn sequential_designs_round_trip() {
        use synthir_sim::check_seq_equiv;
        let mut nl = Netlist::new("t");
        let rst = nl.add_input("rst", 1)[0];
        let d = nl.add_input("d", 1)[0];
        let e = nl.add_input("e", 1)[0];
        let de = nl.add_gate(GateKind::Xor2, &[d, e]);
        let q = nl.add_gate(
            GateKind::Dff {
                reset: ResetKind::Sync,
                init: true,
            },
            &[de, rst],
        );
        let y = nl.add_gate(GateKind::Nand2, &[q, e]);
        nl.add_output("y", &[y]);
        let golden = nl.clone();
        cut_map(&mut nl, &lib());
        assert_eq!(nl.flop_count(), 1);
        let res = check_seq_equiv(&golden, &nl, &EquivOptions::new()).unwrap();
        assert!(res.is_equivalent(), "{res:?}");
    }

    #[test]
    fn random_netlists_map_equivalently_and_cheaply() {
        use synthir_netlist::GateKind::*;
        let lib = lib();
        let kinds = [And2, Or2, Nand2, Nor2, Xor2, Inv, Mux2, Aoi21];
        let mut state = 0x5555_AAAA_1234_8765u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..12 {
            let mut nl = Netlist::new("t");
            let ins = nl.add_input("x", 5);
            let mut nets = ins.clone();
            for _ in 0..30 {
                let kind = kinds[(rng() % kinds.len() as u64) as usize];
                let inputs: Vec<NetId> = (0..kind.arity())
                    .map(|_| nets[(rng() % nets.len() as u64) as usize])
                    .collect();
                nets.push(nl.add_gate(kind, &inputs));
            }
            let outs: Vec<NetId> = (0..3)
                .map(|_| nets[(rng() % nets.len() as u64) as usize])
                .collect();
            nl.add_output("y", &outs);
            let golden = nl.clone();
            cut_map(&mut nl, &lib);
            nl.validate().unwrap();
            assert_eq!(nl.clone().sweep(), 0, "round {round}: dead gates");
            let res = check_comb_equiv(&golden, &nl, &EquivOptions::new()).unwrap();
            assert!(res.is_equivalent(), "round {round}: {res:?}");
        }
    }

    /// `(a & b & c) & (!a & b & d)` is constant 0, but only over the cut
    /// `{a, b, c, d}`: no two-level rule of the AIG sees it. The mapper
    /// ties it low with one cell and builds no tie cell nothing reads.
    #[test]
    fn contextually_constant_cut_emits_only_the_read_tie_cell() {
        let mut nl = Netlist::new("t");
        let x = nl.add_input("x", 4);
        let ab = nl.add_gate(GateKind::And2, &[x[0], x[1]]);
        let abc = nl.add_gate(GateKind::And2, &[ab, x[2]]);
        let na = nl.add_gate(GateKind::Inv, &[x[0]]);
        let nab = nl.add_gate(GateKind::And2, &[na, x[1]]);
        let nabd = nl.add_gate(GateKind::And2, &[nab, x[3]]);
        let y = nl.add_gate(GateKind::And2, &[abc, nabd]);
        nl.add_output("y", &[y]);
        let golden = nl.clone();
        cut_map(&mut nl, &lib());
        assert_eq!(nl.clone().sweep(), 0, "{:?}", nl.gate_histogram());
        let kinds: Vec<GateKind> = nl.gates().map(|(_, g)| g.kind).collect();
        assert_eq!(kinds, [GateKind::Const0], "{:?}", nl.gate_histogram());
        let res = check_comb_equiv(&golden, &nl, &EquivOptions::new()).unwrap();
        assert!(res.is_equivalent());
    }
}
