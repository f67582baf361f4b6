//! An espresso-style heuristic two-level minimizer.
//!
//! This is the partial-evaluation workhorse of the synthesis engine: after
//! configuration constants have been folded into a cone of logic, the cone is
//! collapsed to a truth table and re-covered here, which is how table-based
//! controller logic converges to the quality of a directly-written
//! sum-of-products description (Fig. 5 of the paper).
//!
//! The implementation follows the classic EXPAND / IRREDUNDANT / REDUCE loop
//! of Brayton et al.'s ESPRESSO, operating on [`Cover`]s with an optional
//! don't-care set. It is heuristic (order-sensitive), which is *deliberate*:
//! the paper attributes the scatter of Fig. 5 to the "bumpy optimization
//! surface" of the synthesis tool, and starting the loop from different (but
//! logically equivalent) initial covers reproduces exactly that behaviour.
//!
//! ## Two forms of the care set
//!
//! One function runs the loop: its cube orders, its cost, its best-cover
//! tracking and its single-cube containment are shared. It asks the care set
//! three questions, and the care set comes in two forms:
//!
//! * **Dense** (covers of at most 16 variables): OFF and DC are bitsets of
//!   2^n bits, and each IRREDUNDANT / REDUCE sweep keeps, per minterm, how
//!   many cover cubes contain it. A raise is legal when the raised cube
//!   meets no OFF bit; a cube is redundant when each of its non-DC minterms
//!   has a count of at least two; a cube reduces to the supercube of its
//!   non-DC minterms whose count is one.
//! * **Cubes** (17 to 64 variables): OFF is the cube-list complement of
//!   ON ∪ DC from the unate-recursive kernel of `crate::urp`, indexed for
//!   raise queries; coverage is a cofactored tautology check and the
//!   reduced cube comes from the supercube of a cofactored complement.
//!
//! Both forms answer the same three set questions exactly (the URP
//! complement, tautology check and complement supercube are exact, not
//! approximations), so for a cover of at most 16 variables they return the
//! same cover cube for cube; the unit tests check this differentially for
//! every width up to 16. The threshold bounds the dense arrays, which grow
//! as 2^n whatever the size of the covers: at 16 variables a bitset is 1024
//! words and the counts take 128 KiB per call, still cache-resident; at 24
//! variables (the widest truth table) the counts alone would take 32 MiB per
//! thread. Each count is a `u16`: the cover is free of contained cubes
//! whenever counts are taken, and an antichain over 16 variables puts at
//! most C(16, 8) = 12 870 cubes on one minterm (from 19 variables the bound
//! C(19, 9) = 92 378 no longer fits). The cube form, whose cost follows the
//! covers, is the only one for 25 to 64 variables.
//!
//! Independent outputs are minimized concurrently by [`minimize_batch`] /
//! [`minimize_tt_batch`] (deterministic: identical to the serial order).
//! The pre-optimization implementation is preserved in [`crate::naive`] and
//! benchmarked against this one by `bench_espresso`.

use crate::urp::{BuildMulHasher, VAR_MASK};
use crate::{Cover, Cube, TruthTable};
use std::collections::HashSet;

/// Options controlling the minimization loop.
#[derive(Clone, Debug)]
pub struct EspressoOptions {
    /// Maximum number of EXPAND/IRREDUNDANT/REDUCE sweeps.
    pub max_iterations: usize,
    /// Run the REDUCE phase (disable to ablate; see `ablate_minimize`).
    pub reduce: bool,
}

impl Default for EspressoOptions {
    fn default() -> Self {
        EspressoOptions {
            max_iterations: 4,
            reduce: true,
        }
    }
}

/// Covers of at most this many variables run on the dense care set.
const DENSE_MAX_VARS: usize = 16;

/// Minimizes `on` against the complement of `on ∪ dc`.
///
/// The result covers every minterm of `on`, no minterm of the OFF-set
/// (complement of `on ∪ dc`), and is heuristically minimal in cube count and
/// literal count. The input cover's cube *order* influences the local optimum
/// reached — see the module docs.
///
/// # Examples
///
/// ```
/// use synthir_logic::{Cover, Cube};
/// use synthir_logic::espresso::minimize;
///
/// // f = minterms {0b00, 0b01} of 2 vars = !b
/// let on = Cover::from_cubes(2, [Cube::minterm(2, 0), Cube::minterm(2, 1)]);
/// let min = minimize(&on, None, &Default::default());
/// assert_eq!(min.cube_count(), 1);
/// assert_eq!(min.literal_count(), 1);
/// ```
pub fn minimize(on: &Cover, dc: Option<&Cover>, opts: &EspressoOptions) -> Cover {
    minimize_care(on, dc.map(DcSet::Cover), opts)
}

/// Minimizes a truth table's ON-set (canonical minterm start).
pub fn minimize_tt(tt: &TruthTable, dc: Option<&TruthTable>) -> Cover {
    minimize_care(
        &Cover::from_truth_table(tt),
        dc.map(DcSet::Table),
        &EspressoOptions::default(),
    )
}

/// Minimizes many independent ON-covers against a shared optional DC cover,
/// on up to [`crate::par::max_threads`] threads.
///
/// Results are returned in input order and are bit-identical to calling
/// [`minimize`] serially on each cover: each job is independent and
/// deterministic, so threading only changes wall-clock time. This is the
/// driver the synthesis flow uses to minimize the outputs of a PLA (or the
/// cones of a netlist) concurrently.
pub fn minimize_batch(ons: &[Cover], dc: Option<&Cover>, opts: &EspressoOptions) -> Vec<Cover> {
    crate::par::par_map(ons, |on| minimize(on, dc, opts))
}

/// Per-output minimization of a multi-output function given as one truth
/// table per output bit, sharing one optional don't-care table; parallel
/// through [`crate::par::par_map`], deterministic regardless.
///
/// Each ON-set starts as its canonical minterm cover. A don't-care table of
/// at most 16 variables is loaded straight into the dense care set; a wider
/// one is expanded into a minterm cover once for the whole batch.
pub fn minimize_tt_batch(
    tts: &[TruthTable],
    dc: Option<&TruthTable>,
    opts: &EspressoOptions,
) -> Vec<Cover> {
    let wide_dc = dc
        .filter(|d| !uses_dense(d.inputs()))
        .map(Cover::from_truth_table);
    let dc = wide_dc.as_ref().map(DcSet::Cover).or(dc.map(DcSet::Table));
    crate::par::par_map(tts, |tt| {
        minimize_care(&Cover::from_truth_table(tt), dc, opts)
    })
}

/// A don't-care set in the form the caller holds it.
#[derive(Clone, Copy)]
enum DcSet<'a> {
    Cover(&'a Cover),
    Table(&'a TruthTable),
}

/// Whether a cover over `nvars` variables runs on the dense care set.
fn uses_dense(nvars: usize) -> bool {
    nvars <= DENSE_MAX_VARS
}

/// Picks the care-set form by width and runs the loop.
fn minimize_care(on: &Cover, dc: Option<DcSet<'_>>, opts: &EspressoOptions) -> Cover {
    if uses_dense(on.nvars()) {
        minimize_dense(on, dc, opts)
    } else {
        let dc = match dc {
            Some(DcSet::Cover(c)) => c.clone(),
            Some(DcSet::Table(t)) => Cover::from_truth_table(t),
            None => Cover::empty(on.nvars()),
        };
        minimize_cubes(on, dc, opts)
    }
}

/// The loop on the dense care set (at most [`DENSE_MAX_VARS`] variables).
fn minimize_dense(on: &Cover, dc: Option<DcSet<'_>>, opts: &EspressoOptions) -> Cover {
    if on.is_empty() {
        return Cover::empty(on.nvars());
    }
    match DenseCare::new(on, dc) {
        Some(mut care) => run(on, &mut care, opts),
        None => Cover::tautology_cover(on.nvars()),
    }
}

/// The loop on the cube-list care set (any width).
fn minimize_cubes(on: &Cover, dc: Cover, opts: &EspressoOptions) -> Cover {
    if on.is_empty() {
        return Cover::empty(on.nvars());
    }
    match CubeCare::new(on, dc) {
        Some(mut care) => run(on, &mut care, opts),
        None => Cover::tautology_cover(on.nvars()),
    }
}

/// The set questions the EXPAND / IRREDUNDANT / REDUCE loop asks of its
/// care set. Every cube handed in is disjoint from the OFF-set: the start
/// cover lies in ON, EXPAND only makes legal raises and REDUCE only shrinks.
trait CareSet {
    /// Whether raising literal `v` of `c`, whose literals `raised` are
    /// already raised, would make it meet the OFF-set.
    fn blocks(&self, c: &Cube, raised: u64, v: usize) -> bool;
    /// Starts an IRREDUNDANT or REDUCE sweep over `cubes`.
    fn begin_sweep(&mut self, cubes: &[Cube]);
    /// Whether `cubes[i]` is covered by the other live cubes plus DC; a
    /// covered cube leaves the sweep.
    fn drop_if_covered(&mut self, cubes: &[Cube], alive: &[bool], i: usize) -> bool;
    /// `cubes[i]` shrunk to the smallest cube holding the part of it that
    /// the other cubes and DC miss, or `None` if nothing is missed. The
    /// sweep then holds the returned cube in place of `cubes[i]`.
    fn reduce_cube(&mut self, cubes: &[Cube], i: usize) -> Option<Cube>;
    /// Whether `result` covers `on`, up to DC, and misses the OFF-set.
    fn verify(&self, result: &Cover, on: &Cover) -> bool;
}

/// The loop itself, shared by both care-set forms.
fn run<C: CareSet>(on: &Cover, care: &mut C, opts: &EspressoOptions) -> Cover {
    let mut f = on.clone();
    f.remove_contained_cubes();
    let mut best = f.clone();
    let mut best_cost = cost(&best);

    for iter in 0..opts.max_iterations {
        expand(&mut f, care);
        irredundant(&mut f, care);
        let c = cost(&f);
        if c < best_cost {
            best = f.clone();
            best_cost = c;
        } else if iter > 0 {
            break;
        }
        if opts.reduce {
            reduce(&mut f, care);
        } else {
            break;
        }
    }
    debug_assert!(care.verify(&best, on), "espresso produced wrong cover");
    best
}

/// Cost metric: cubes weighted heavily, then literals.
fn cost(f: &Cover) -> usize {
    f.cube_count() * 256 + f.literal_count()
}

/// EXPAND: enlarge each cube (drop literals) as long as it stays disjoint
/// from the OFF-set; afterwards remove cubes contained in the expanded ones.
///
/// Every expanded cube is prime: a literal that cannot be raised stays
/// unraisable as the cube grows, so no literal of the result can be
/// dropped. One prime contains another only if they are equal, so the
/// single-cube containment pass reduces to dropping repeats (the first
/// occurrence survives, as it does in `Cover::remove_contained_cubes`).
fn expand(f: &mut Cover, care: &impl CareSet) {
    let nvars = f.nvars();
    let mut cubes: Vec<Cube> = f.cubes().to_vec();
    // Expand larger cubes first: they are most likely to absorb others.
    let mut order: Vec<usize> = (0..cubes.len()).collect();
    order.sort_by_key(|&i| cubes[i].literal_count());

    for &i in &order {
        let c = cubes[i];
        let mut raised = 0u64; // R: literals raised so far
        let mut lits = c.care_mask();
        while lits != 0 {
            let v = lits.trailing_zeros() as usize;
            lits &= lits - 1;
            if !care.blocks(&c, raised, v) {
                raised |= 1u64 << v;
            }
        }
        if raised != 0 {
            cubes[i] = Cube::new(nvars, c.value_mask() & !raised, c.care_mask() & !raised);
        }
    }
    #[cfg(debug_assertions)]
    let mut contained = Cover::from_cubes(nvars, cubes.clone());
    let mut seen: HashSet<Cube, BuildMulHasher> = HashSet::default();
    cubes.retain(|c| seen.insert(*c));
    *f = Cover::from_cubes(nvars, cubes);
    #[cfg(debug_assertions)]
    {
        contained.remove_contained_cubes();
        debug_assert_eq!(f, &contained, "an expanded cube is not prime");
    }
}

/// IRREDUNDANT: drop cubes covered by the rest of the cover plus don't-cares.
fn irredundant(f: &mut Cover, care: &mut impl CareSet) {
    let nvars = f.nvars();
    let mut cubes: Vec<Cube> = f.cubes().to_vec();
    // Try to remove small cubes first.
    let mut order: Vec<usize> = (0..cubes.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(cubes[i].literal_count()));
    let mut alive = vec![true; cubes.len()];
    care.begin_sweep(&cubes);
    for &i in &order {
        if care.drop_if_covered(&cubes, &alive, i) {
            alive[i] = false;
        }
    }
    let kept: Vec<Cube> = cubes
        .drain(..)
        .enumerate()
        .filter(|&(j, _)| alive[j])
        .map(|(_, c)| c)
        .collect();
    *f = Cover::from_cubes(nvars, kept);
}

/// REDUCE: shrink each cube to the smallest cube still covering the part of
/// it not covered by the rest of the cover (plus don't-cares), opening room
/// for the next EXPAND to find a different local optimum. Cubes are reduced
/// in cover order, each against the already-reduced cubes before it.
fn reduce(f: &mut Cover, care: &mut impl CareSet) {
    let nvars = f.nvars();
    let mut cubes: Vec<Cube> = f.cubes().to_vec();
    care.begin_sweep(&cubes);
    for i in 0..cubes.len() {
        if let Some(reduced) = care.reduce_cube(&cubes, i) {
            cubes[i] = reduced;
        }
    }
    *f = Cover::from_cubes(nvars, cubes);
}

/// The cube-list care set: the OFF-set as a URP complement, DC as a cover.
struct CubeCare {
    off: OffIndex,
    dc: Cover,
    /// Reused buffer for REDUCE's cofactored covers.
    cof: Vec<Cube>,
}

impl CubeCare {
    /// The care set of `on` and `dc`, or `None` if `on ∪ dc` is a tautology.
    fn new(on: &Cover, dc: Cover) -> Option<Self> {
        let care_union = on.union(&dc);
        if care_union.is_tautology() {
            return None;
        }
        Some(CubeCare {
            off: OffIndex::build(care_union.complement()),
            dc,
            cof: Vec::new(),
        })
    }
}

impl CareSet for CubeCare {
    fn blocks(&self, c: &Cube, raised: u64, v: usize) -> bool {
        self.off.blocks(c, raised, v)
    }

    fn begin_sweep(&mut self, _cubes: &[Cube]) {}

    /// The coverage check cofactors the remaining cubes against the
    /// candidate directly into a pooled buffer
    /// (`urp::cofactored_tautology`), so the sweep allocates no
    /// intermediate covers.
    fn drop_if_covered(&mut self, cubes: &[Cube], alive: &[bool], i: usize) -> bool {
        let rest = cubes
            .iter()
            .enumerate()
            .filter(|&(j, _)| alive[j] && j != i)
            .map(|(_, c)| *c)
            .chain(self.dc.cubes().iter().copied());
        crate::urp::cofactored_tautology(rest, &cubes[i])
    }

    fn reduce_cube(&mut self, cubes: &[Cube], i: usize) -> Option<Cube> {
        // Cofactor the rest of the cover (plus don't-cares) against cube i
        // into a reused buffer, skipping the intermediate Cover build.
        self.cof.clear();
        self.cof.extend(
            cubes
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, c)| c)
                .chain(self.dc.cubes().iter())
                .filter_map(|c| c.cofactor_cube(&cubes[i])),
        );
        // The unique part of cube i: cube_i AND NOT rest, whose smallest
        // enclosing cube is computed directly from cofactor tautology
        // checks (no full complement is ever materialized). Re-applying the
        // cube's own literals gives the reduced cube.
        let sc = crate::urp::supercube_of_complement(cubes[i].nvars(), &self.cof)?;
        cubes[i].intersect(&sc)
    }

    /// `result` must cover `on` minus `dc` exactly and be disjoint from the
    /// OFF-set.
    fn verify(&self, result: &Cover, on: &Cover) -> bool {
        let off = &self.off.off;
        if result.cubes().iter().any(|rc| intersects_cover(rc, off)) {
            return false;
        }
        let rdc = result.union(&self.dc);
        on.cubes().iter().all(|c| rdc.covers_cube(c))
    }
}

/// Bucket index over an OFF-set: cubes grouped by their literal pattern on
/// the `S` most frequent variables, so raise-legality queries can reject
/// whole groups with one mask test.
///
/// Raising literal `v` of a cube with raised-set `R` is illegal exactly
/// when some OFF-cube `k` has conflict mask `conflict(c, k) \ R == {v}`.
/// For small OFF-sets the query is a plain early-exit scan; for large ones
/// the OFF-set is first partitioned by its six most frequent literal
/// variables, and any bucket whose pattern already conflicts the cube on
/// another unraised variable is skipped wholesale — the query touches only
/// the few OFF-cubes that could actually block the raise.
struct OffIndex {
    off: Cover,
    /// `(bucket value, bucket care, member indices)`; empty when the
    /// OFF-set is small enough for plain scans.
    buckets: Vec<(u64, u64, Vec<u32>)>,
}

/// Below this OFF-set size a linear early-exit scan beats the index.
const OFF_INDEX_MIN: usize = 64;

impl OffIndex {
    fn build(off: Cover) -> Self {
        let mut buckets = Vec::new();
        if off.cube_count() >= OFF_INDEX_MIN {
            // The six most frequent literal variables discriminate best.
            let mut freq = [0u32; 64];
            for k in off.cubes() {
                let mut m = k.care_mask();
                while m != 0 {
                    freq[m.trailing_zeros() as usize] += 1;
                    m &= m - 1;
                }
            }
            let mut vars: Vec<usize> = (0..64).filter(|&v| freq[v] > 0).collect();
            vars.sort_by_key(|&v| std::cmp::Reverse(freq[v]));
            vars.truncate(6);
            let s_mask: u64 = vars.iter().map(|&v| 1u64 << v).sum();
            let mut by_key: std::collections::HashMap<(u64, u64), usize> =
                std::collections::HashMap::new();
            for (ki, k) in off.cubes().iter().enumerate() {
                let key = (k.value_mask() & s_mask, k.care_mask() & s_mask);
                let slot = *by_key.entry(key).or_insert_with(|| {
                    buckets.push((key.0, key.1, Vec::new()));
                    buckets.len() - 1
                });
                buckets[slot].2.push(ki as u32);
            }
        }
        OffIndex { off, buckets }
    }

    /// Whether raising literal `v` of `c` (with raised-set `raised`) would
    /// make it intersect the OFF-set.
    fn blocks(&self, c: &Cube, raised: u64, v: usize) -> bool {
        let bit = 1u64 << v;
        let live = !raised & !bit;
        if self.buckets.is_empty() {
            return self.off.cubes().iter().any(|k| {
                let conf = (c.value_mask() ^ k.value_mask()) & c.care_mask() & k.care_mask();
                conf & !raised == bit
            });
        }
        for (bval, bcare, members) in &self.buckets {
            // Every member conflicts `c` at least on the bucket pattern's
            // conflicts; one on an unraised variable other than `v` means
            // no member's remaining conflict can be exactly {v}.
            if (c.value_mask() ^ bval) & c.care_mask() & bcare & live != 0 {
                continue;
            }
            for &ki in members {
                let k = &self.off.cubes()[ki as usize];
                let conf = (c.value_mask() ^ k.value_mask()) & c.care_mask() & k.care_mask();
                if conf & !raised == bit {
                    return true;
                }
            }
        }
        false
    }
}

/// Whether a cube intersects any cube of a cover.
fn intersects_cover(c: &Cube, cover: &Cover) -> bool {
    cover.cubes().iter().any(|k| c.distance(k) == 0)
}

/// The dense care set of a cover of at most [`DENSE_MAX_VARS`] variables:
/// ON, OFF and DC as bitsets plus the per-minterm cube counts of the
/// current sweep.
struct DenseCare {
    grid: Grid,
    on: Vec<u64>,
    off: Vec<u64>,
    dc: Vec<u64>,
    /// How many cubes of the current sweep contain each minterm.
    counts: Vec<u16>,
    /// The minterms whose count is at least two.
    multi: Vec<u64>,
}

/// The bitset layout of an `nvars`-variable space: bit `m % 64` of word
/// `m / 64` is minterm `m`.
#[derive(Clone, Copy)]
struct Grid {
    nvars: usize,
    /// The bits of each word that are minterms (all of them from six
    /// variables up).
    valid: u64,
}

/// A cube's minterms laid out on a [`Grid`]: the same in-word `mask` (set
/// by the literals on variables 0–5) in every word whose index is `base`
/// plus a subset of `free` (the index bits of the cube's don't-care
/// variables from 6 up).
#[derive(Clone, Copy)]
struct Span {
    mask: u64,
    base: usize,
    free: usize,
}

impl Span {
    /// Whether word `w` holds minterms of the cube.
    fn has_word(self, w: usize) -> bool {
        w & !self.free == self.base
    }

    /// The indices of the words holding the cube's minterms, ascending.
    fn words(self) -> impl Iterator<Item = usize> {
        let mut sub = Some(0usize);
        std::iter::from_fn(move || {
            let s = sub?;
            // Next subset of `free` in increasing order; wraps to 0 at the end.
            let next = s.wrapping_sub(self.free) & self.free;
            sub = (next != 0).then_some(next);
            Some(self.base | s)
        })
    }
}

impl Grid {
    fn new(nvars: usize) -> Self {
        debug_assert!(uses_dense(nvars));
        let valid = if nvars >= 6 {
            u64::MAX
        } else {
            (1u64 << (1 << nvars)) - 1
        };
        Grid { nvars, valid }
    }

    fn words(self) -> usize {
        (1usize << self.nvars).div_ceil(64)
    }

    /// The span of the cube with masks `(value, care)`.
    fn span(self, value: u64, care: u64) -> Span {
        let mut mask = self.valid;
        let mut low = care & 0x3f;
        while low != 0 {
            let v = low.trailing_zeros() as usize;
            low &= low - 1;
            mask &= if value >> v & 1 != 0 {
                VAR_MASK[v]
            } else {
                !VAR_MASK[v]
            };
        }
        let high_vars = (1usize << self.nvars.saturating_sub(6)) - 1;
        let high_care = (care >> 6) as usize & high_vars;
        Span {
            mask,
            base: (value >> 6) as usize & high_care,
            free: high_vars & !high_care,
        }
    }

    fn cube_span(self, c: &Cube) -> Span {
        self.span(c.value_mask(), c.care_mask())
    }

    /// The minterms of a cover as a bitset.
    fn bits(self, cover: &Cover) -> Vec<u64> {
        assert_eq!(cover.nvars(), self.nvars, "cover variable count mismatch");
        let mut bits = vec![0; self.words()];
        for c in cover.cubes() {
            let s = self.cube_span(c);
            for w in s.words() {
                bits[w] |= s.mask;
            }
        }
        bits
    }
}

impl DenseCare {
    /// The care set of `on` and `dc`, or `None` if `on ∪ dc` is a tautology.
    fn new(on: &Cover, dc: Option<DcSet<'_>>) -> Option<Self> {
        let grid = Grid::new(on.nvars());
        let on = grid.bits(on);
        let dc = match dc {
            Some(DcSet::Cover(c)) => grid.bits(c),
            Some(DcSet::Table(t)) => {
                assert_eq!(
                    t.inputs(),
                    grid.nvars,
                    "don't-care table variable count mismatch"
                );
                t.bits().words().iter().map(|&w| w & grid.valid).collect()
            }
            None => vec![0; grid.words()],
        };
        let off: Vec<u64> = on
            .iter()
            .zip(&dc)
            .map(|(&on, &dc)| !(on | dc) & grid.valid)
            .collect();
        if off.iter().all(|&w| w == 0) {
            return None;
        }
        Some(DenseCare {
            grid,
            multi: vec![0; grid.words()],
            counts: vec![0; 1 << grid.nvars],
            on,
            off,
            dc,
        })
    }

    /// Takes the minterms `mask` of word `w` out of one cube's counts.
    fn uncount(&mut self, w: usize, mut mask: u64) {
        while mask != 0 {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let k = w * 64 + b;
            self.counts[k] -= 1;
            if self.counts[k] == 1 {
                self.multi[w] &= !(1u64 << b);
            }
        }
    }
}

impl CareSet for DenseCare {
    /// The raised cube meets OFF iff its half with literal `v` flipped does:
    /// the other half is the cube as raised so far, already OFF-disjoint.
    fn blocks(&self, c: &Cube, raised: u64, v: usize) -> bool {
        let s = self
            .grid
            .span(c.value_mask() ^ (1u64 << v), c.care_mask() & !raised);
        s.words().any(|w| self.off[w] & s.mask != 0)
    }

    fn begin_sweep(&mut self, cubes: &[Cube]) {
        self.counts.fill(0);
        for c in cubes {
            let s = self.grid.cube_span(c);
            for w in s.words() {
                let mut mask = s.mask;
                while mask != 0 {
                    // Overflow-free: see the module docs.
                    self.counts[w * 64 + mask.trailing_zeros() as usize] += 1;
                    mask &= mask - 1;
                }
            }
        }
        for (multi, counts) in self.multi.iter_mut().zip(self.counts.chunks(64)) {
            *multi = counts
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n >= 2)
                .fold(0, |acc, (b, _)| acc | 1u64 << b);
        }
    }

    /// Covered iff every non-DC minterm of the cube has another cube on it.
    fn drop_if_covered(&mut self, cubes: &[Cube], _alive: &[bool], i: usize) -> bool {
        let s = self.grid.cube_span(&cubes[i]);
        if s.words()
            .any(|w| s.mask & !self.dc[w] & !self.multi[w] != 0)
        {
            return false;
        }
        for w in s.words() {
            self.uncount(w, s.mask);
        }
        true
    }

    /// The supercube of the cube's non-DC minterms that no other cube holds.
    fn reduce_cube(&mut self, cubes: &[Cube], i: usize) -> Option<Cube> {
        let c = cubes[i];
        let s = self.grid.cube_span(&c);
        // In-word bits, and the AND / OR of the word indices, of the unique
        // minterms: a variable stays a literal iff they all agree on it.
        let (mut low, mut and_w, mut or_w) = (0u64, usize::MAX, 0usize);
        for w in s.words() {
            let unique = s.mask & !self.dc[w] & !self.multi[w];
            if unique != 0 {
                low |= unique;
                and_w &= w;
                or_w |= w;
            }
        }
        if low == 0 {
            return None;
        }
        let (mut value, mut care) = (0u64, 0u64);
        for (v, &var_mask) in VAR_MASK.iter().enumerate().take(self.grid.nvars) {
            if low & !var_mask == 0 {
                value |= 1 << v;
                care |= 1 << v;
            } else if low & var_mask == 0 {
                care |= 1 << v;
            }
        }
        for j in 0..self.grid.nvars.saturating_sub(6) {
            let bit = 1u64 << (j + 6);
            if and_w >> j & 1 != 0 {
                value |= bit;
                care |= bit;
            } else if or_w >> j & 1 == 0 {
                care |= bit;
            }
        }
        let reduced = c.intersect(&Cube::new(self.grid.nvars, value, care))?;
        if reduced != c {
            let r = self.grid.cube_span(&reduced);
            for w in s.words() {
                let kept = if r.has_word(w) { r.mask } else { 0 };
                self.uncount(w, s.mask & !kept);
            }
        }
        Some(reduced)
    }

    /// In bitset form: `result ∧ OFF = 0` and `ON ⊆ result ∪ DC`.
    fn verify(&self, result: &Cover, _on: &Cover) -> bool {
        self.grid
            .bits(result)
            .iter()
            .zip(&self.on)
            .zip(self.off.iter().zip(&self.dc))
            .all(|((&r, &on), (&off, &dc))| r & off == 0 && on & !(r | dc) == 0)
    }
}

/// Smallest single cube containing all cubes of a buffer, or `None` if
/// empty. (Both REDUCE paths compute the supercube of a cube's unique part
/// directly; this reference version remains for its tests.)
#[cfg(test)]
fn supercube(nvars: usize, cubes: &[Cube]) -> Option<Cube> {
    let mut it = cubes.iter();
    let first = *it.next()?;
    let mut value = first.value_mask();
    let mut care = first.care_mask();
    for c in it {
        // A variable stays a literal only if both agree on it.
        let common = care & c.care_mask() & !(value ^ c.value_mask());
        care = common;
        value &= common;
    }
    Some(Cube::new(nvars, value, care))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TruthTable;

    fn check_equiv(on: &TruthTable, dc: Option<&TruthTable>, result: &Cover) {
        for m in 0..on.num_minterms() {
            let is_dc = dc.map(|d| d.eval(m)).unwrap_or(false);
            if is_dc {
                continue;
            }
            assert_eq!(result.eval(m as u64), on.eval(m), "mismatch at minterm {m}");
        }
    }

    #[test]
    fn minimizes_redundant_cover() {
        // !b over 2 vars given as two minterms.
        let on = Cover::from_cubes(2, [Cube::minterm(2, 0), Cube::minterm(2, 1)]);
        let min = minimize(&on, None, &EspressoOptions::default());
        assert_eq!(min.cube_count(), 1);
        assert_eq!(min.literal_count(), 1);
    }

    #[test]
    fn constant_functions() {
        let taut = Cover::from_cubes(1, [Cube::minterm(1, 0), Cube::minterm(1, 1)]);
        let min = minimize(&taut, None, &EspressoOptions::default());
        assert!(min.is_tautology());
        assert_eq!(min.cube_count(), 1);
        let empty = Cover::empty(3);
        assert!(minimize(&empty, None, &EspressoOptions::default()).is_empty());
    }

    #[test]
    fn xor_stays_two_cubes() {
        let tt = TruthTable::from_fn(2, |m| m.count_ones() % 2 == 1);
        let min = minimize_tt(&tt, None);
        assert_eq!(min.cube_count(), 2);
        check_equiv(&tt, None, &min);
    }

    #[test]
    fn majority_function() {
        let tt = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        let min = minimize_tt(&tt, None);
        // Majority-of-3 needs exactly 3 cubes of 2 literals.
        assert_eq!(min.cube_count(), 3);
        assert_eq!(min.literal_count(), 6);
        check_equiv(&tt, None, &min);
    }

    #[test]
    fn dont_cares_shrink_cover() {
        // f = minterm 3 (a&b), dc = minterms {1, 2}: minimal cover is a single
        // 1-literal cube (a or b).
        let on = TruthTable::from_fn(2, |m| m == 3);
        let dc = TruthTable::from_fn(2, |m| m == 1 || m == 2);
        let min = minimize_tt(&on, Some(&dc));
        assert_eq!(min.cube_count(), 1);
        assert_eq!(min.literal_count(), 1);
        check_equiv(&on, Some(&dc), &min);
    }

    #[test]
    fn random_functions_are_covered_exactly() {
        for seed in 0..30u64 {
            let tt = TruthTable::from_fn(6, |m| {
                let h = (m as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ seed);
                (h >> 43) & 1 != 0
            });
            let min = minimize_tt(&tt, None);
            check_equiv(&tt, None, &min);
            // Result should never be larger than the canonical minterm cover.
            assert!(min.cube_count() <= tt.count_ones());
        }
    }

    #[test]
    fn random_functions_with_dc() {
        for seed in 0..15u64 {
            let tt =
                TruthTable::from_fn(5, |m| (m as u64).wrapping_mul(7 + seed).is_multiple_of(3));
            let dc = TruthTable::from_fn(5, |m| {
                (m as u64).wrapping_mul(11 + seed).is_multiple_of(5) && !tt.eval(m)
            });
            let min = minimize_tt(&tt, Some(&dc));
            check_equiv(&tt, Some(&dc), &min);
        }
    }

    #[test]
    fn reduce_ablation_never_better() {
        // Without REDUCE the loop must still be correct (possibly larger).
        let tt = TruthTable::from_fn(5, |m| m % 7 < 3);
        let opts_full = EspressoOptions::default();
        let opts_nored = EspressoOptions {
            reduce: false,
            ..Default::default()
        };
        let full = minimize(&Cover::from_truth_table(&tt), None, &opts_full);
        let nored = minimize(&Cover::from_truth_table(&tt), None, &opts_nored);
        check_equiv(&tt, None, &full);
        check_equiv(&tt, None, &nored);
        assert!(cost(&full) <= cost(&nored));
    }

    #[test]
    fn start_cover_affects_local_optimum_but_not_function() {
        // Same function given as minterms vs as a broad cover: both minimize
        // to equivalent covers (possibly different cubes).
        let tt = TruthTable::from_fn(4, |m| m & 3 != 3);
        let from_minterms = minimize(
            &Cover::from_truth_table(&tt),
            None,
            &EspressoOptions::default(),
        );
        let broad = Cover::from_cubes(
            4,
            [
                Cube::new(4, 0b0000, 0b0001), // !a
                Cube::new(4, 0b0000, 0b0010), // !b
            ],
        );
        let from_broad = minimize(&broad, None, &EspressoOptions::default());
        check_equiv(&tt, None, &from_minterms);
        check_equiv(&tt, None, &from_broad);
    }

    #[test]
    fn supercube_of_two_minterms() {
        let cubes = [Cube::minterm(3, 0b000), Cube::minterm(3, 0b001)];
        let sc = supercube(3, &cubes).unwrap();
        assert_eq!(sc, Cube::new(3, 0b000, 0b110));
    }

    #[test]
    fn batch_matches_serial_minimization() {
        let opts = EspressoOptions::default();
        let tts: Vec<TruthTable> = (0..8u64)
            .map(|seed| {
                TruthTable::from_fn(6, |m| {
                    (m as u64 + 3).wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ seed) >> 61 & 1 != 0
                })
            })
            .collect();
        let batch = minimize_tt_batch(&tts, None, &opts);
        for (tt, cover) in tts.iter().zip(&batch) {
            let serial = minimize(&Cover::from_truth_table(tt), None, &opts);
            assert_eq!(cover.cubes(), serial.cubes(), "parallel must equal serial");
        }
    }

    /// Deterministic xorshift stream for the differential tests.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    /// `n` random cubes whose literals appear with `density` percent.
    fn random_cubes(nvars: usize, n: u64, density: u64, next: &mut impl FnMut() -> u64) -> Cover {
        let cubes: Vec<Cube> = (0..n)
            .map(|_| {
                let (mut value, mut care) = (0u64, 0u64);
                for v in 0..nvars {
                    if next() % 100 < density {
                        care |= 1 << v;
                        value |= (next() & 1) << v;
                    }
                }
                Cube::new(nvars, value, care)
            })
            .collect();
        Cover::from_cubes(nvars, cubes)
    }

    /// Runs both care-set forms on seeded ON covers of `nvars` variables,
    /// minterm starts and random-cube starts, without and with a DC set,
    /// under every REDUCE setting and iteration cap of 1 to 4, and asserts
    /// that they return the same cubes.
    fn dense_matches_cubes(nvars: usize) {
        let seeds = if nvars <= 8 { 12 } else { 5 };
        for seed in 0..seeds {
            let mut next = xorshift(seed * 1000 + nvars as u64);
            let density = 50 + next() % 30;
            let on_cubes = random_cubes(nvars, 2 + next() % 14, density, &mut next);
            // Random DC cubes, or (odd seeds) an unused state code on
            // variables 0–1, the shape `fsm_reencode` passes: a quarter of
            // the space.
            let dc = if seed % 2 == 1 && nvars >= 2 {
                Cover::from_cubes(nvars, [Cube::new(nvars, 0b11, 0b11)])
            } else {
                random_cubes(nvars, 1 + next() % 4, 40 + next() % 30, &mut next)
            };
            let mut starts = vec![
                Cover::from_truth_table(&on_cubes.to_truth_table(nvars)),
                on_cubes,
            ];
            if nvars <= 9 {
                // A random function: from 8 variables its OFF-set passes 64
                // cubes, so the cube form's OFF index takes its bucketed path.
                let tt = TruthTable::from_fn(nvars, |_| next() & 1 != 0);
                starts.push(Cover::from_truth_table(&tt));
            }
            for on in &starts {
                for dc in [None, Some(&dc)] {
                    for reduce in [true, false] {
                        for max_iterations in 1..=4 {
                            let opts = EspressoOptions {
                                max_iterations,
                                reduce,
                            };
                            let dense = minimize_dense(on, dc.map(DcSet::Cover), &opts);
                            let empty = Cover::empty(nvars);
                            let cubes = minimize_cubes(on, dc.unwrap_or(&empty).clone(), &opts);
                            assert_eq!(
                                dense.cubes(),
                                cubes.cubes(),
                                "nvars {nvars}, seed {seed}, dc {}, {opts:?}",
                                dc.is_some()
                            );
                        }
                    }
                }
            }
            // A DC table loads into the same bitset as its cover.
            let opts = EspressoOptions::default();
            let dc_tt = dc.to_truth_table(nvars);
            assert_eq!(
                minimize_dense(&starts[0], Some(DcSet::Table(&dc_tt)), &opts).cubes(),
                minimize_dense(&starts[0], Some(DcSet::Cover(&dc)), &opts).cubes()
            );
        }
    }

    #[test]
    fn dense_matches_cubes_up_to_13_vars() {
        for nvars in 1..=13 {
            dense_matches_cubes(nvars);
        }
    }

    #[test]
    #[ignore = "slow in debug builds; run with --release -- --ignored"]
    fn dense_matches_cubes_14_to_16_vars() {
        for nvars in 14..=16 {
            dense_matches_cubes(nvars);
        }
    }

    #[test]
    fn wide_covers_take_the_cube_path() {
        assert!(uses_dense(DENSE_MAX_VARS) && !uses_dense(DENSE_MAX_VARS + 1));
        let nvars = 17;
        let mut next = xorshift(17);
        let on = random_cubes(nvars, 12, 75, &mut next);
        let dc = random_cubes(nvars, 3, 80, &mut next);
        let opts = EspressoOptions::default();
        let min = minimize(&on, Some(&dc), &opts);
        assert_eq!(min.cubes(), minimize_cubes(&on, dc.clone(), &opts).cubes());
        let dc_tt = dc.to_truth_table(nvars);
        check_equiv(&on.to_truth_table(nvars), Some(&dc_tt), &min);
    }
}
