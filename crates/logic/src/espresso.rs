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
//! All cube algebra underneath the loop (OFF-set complementation,
//! IRREDUNDANT's coverage checks, REDUCE's residue complements) runs on the
//! unate-recursive kernel of `crate::urp`, which keeps its cofactor buffers
//! in a scratch pool so the sweeps stop allocating per recursion step.
//! Independent outputs are minimized concurrently by [`minimize_batch`] /
//! [`minimize_tt_batch`] (deterministic: identical to the serial order).
//! The pre-optimization implementation is preserved in [`crate::naive`] and
//! benchmarked against this one by `bench_espresso`.

use crate::{Cover, Cube, TruthTable};

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
    let nvars = on.nvars();
    if on.is_empty() {
        return Cover::empty(nvars);
    }
    let empty_dc = Cover::empty(nvars);
    let dc = dc.unwrap_or(&empty_dc);
    let care_union = on.union(dc);
    if care_union.is_tautology() {
        return Cover::tautology_cover(nvars);
    }
    let off = care_union.complement();

    let mut f = on.clone();
    f.remove_contained_cubes();
    let mut best = f.clone();
    let mut best_cost = cost(&best);

    for iter in 0..opts.max_iterations {
        expand(&mut f, &off);
        irredundant(&mut f, dc);
        let c = cost(&f);
        if c < best_cost {
            best = f.clone();
            best_cost = c;
        } else if iter > 0 {
            break;
        }
        if opts.reduce {
            reduce(&mut f, dc);
        } else {
            break;
        }
    }
    debug_assert!(verify(&best, on, dc, &off), "espresso produced wrong cover");
    best
}

/// Minimizes a truth table's ON-set (canonical minterm start).
pub fn minimize_tt(tt: &TruthTable, dc: Option<&TruthTable>) -> Cover {
    let on = Cover::from_truth_table(tt);
    let dc_cover = dc.map(Cover::from_truth_table);
    minimize(&on, dc_cover.as_ref(), &EspressoOptions::default())
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
pub fn minimize_tt_batch(
    tts: &[TruthTable],
    dc: Option<&TruthTable>,
    opts: &EspressoOptions,
) -> Vec<Cover> {
    let dc_cover = dc.map(Cover::from_truth_table);
    crate::par::par_map(tts, |tt| {
        minimize(&Cover::from_truth_table(tt), dc_cover.as_ref(), opts)
    })
}

/// Cost metric: cubes weighted heavily, then literals.
fn cost(f: &Cover) -> usize {
    f.cube_count() * 256 + f.literal_count()
}

/// EXPAND: enlarge each cube (drop literals) as long as it stays disjoint
/// from the OFF-set; afterwards remove cubes contained in the expanded ones.
///
/// Raising literal `v` of a cube with raised-set `R` is illegal exactly
/// when some OFF-cube `k` has conflict mask `conflict(c, k) \ R == {v}`.
/// For small OFF-sets the query is a plain early-exit scan; for large ones
/// the OFF-set is first partitioned by its six most frequent literal
/// variables, and any bucket whose pattern already conflicts the cube on
/// another unraised variable is skipped wholesale — the query touches only
/// the few OFF-cubes that could actually block the raise.
fn expand(f: &mut Cover, off: &Cover) {
    let nvars = f.nvars();
    let mut cubes: Vec<Cube> = f.cubes().to_vec();
    // Expand larger cubes first: they are most likely to absorb others.
    let mut order: Vec<usize> = (0..cubes.len()).collect();
    order.sort_by_key(|&i| cubes[i].literal_count());

    let index = OffIndex::build(off);
    for &i in &order {
        let c = cubes[i];
        let mut raised = 0u64; // R: literals raised so far
        let mut lits = c.care_mask();
        while lits != 0 {
            let v = lits.trailing_zeros() as usize;
            lits &= lits - 1;
            if !index.blocks(&c, raised, v) {
                raised |= 1u64 << v;
            }
        }
        if raised != 0 {
            cubes[i] = Cube::new(nvars, c.value_mask() & !raised, c.care_mask() & !raised);
        }
    }
    *f = Cover::from_cubes(nvars, cubes);
    f.remove_contained_cubes();
}

/// Bucket index over an OFF-set: cubes grouped by their literal pattern on
/// the `S` most frequent variables, so raise-legality queries can reject
/// whole groups with one mask test.
struct OffIndex<'a> {
    off: &'a Cover,
    /// `(bucket value, bucket care, member indices)`; empty when the
    /// OFF-set is small enough for plain scans.
    buckets: Vec<(u64, u64, Vec<u32>)>,
}

/// Below this OFF-set size a linear early-exit scan beats the index.
const OFF_INDEX_MIN: usize = 64;

impl<'a> OffIndex<'a> {
    fn build(off: &'a Cover) -> Self {
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

/// IRREDUNDANT: drop cubes covered by the rest of the cover plus don't-cares.
///
/// The coverage check cofactors the remaining cubes against the candidate
/// directly into a pooled scratch buffer (`urp::cofactored_tautology`), so
/// the sweep allocates no intermediate covers.
fn irredundant(f: &mut Cover, dc: &Cover) {
    let nvars = f.nvars();
    let mut cubes: Vec<Cube> = f.cubes().to_vec();
    // Try to remove small cubes first.
    let mut order: Vec<usize> = (0..cubes.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(cubes[i].literal_count()));
    let mut alive = vec![true; cubes.len()];
    for &i in &order {
        alive[i] = false;
        let rest = cubes
            .iter()
            .enumerate()
            .filter(|&(j, _)| alive[j])
            .map(|(_, c)| *c)
            .chain(dc.cubes().iter().copied());
        if !crate::urp::cofactored_tautology(rest, &cubes[i]) {
            alive[i] = true;
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
/// for the next EXPAND to find a different local optimum.
fn reduce(f: &mut Cover, dc: &Cover) {
    let nvars = f.nvars();
    let mut cubes: Vec<Cube> = f.cubes().to_vec();
    let mut cof: Vec<Cube> = Vec::with_capacity(cubes.len() + dc.cube_count());
    for i in 0..cubes.len() {
        // Cofactor the rest of the cover (plus don't-cares) against cube i
        // into a reused buffer, skipping the intermediate Cover build.
        cof.clear();
        cof.extend(
            cubes
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, c)| c)
                .chain(dc.cubes().iter())
                .filter_map(|c| c.cofactor_cube(&cubes[i])),
        );
        // The unique part of cube i: cube_i AND NOT rest, whose smallest
        // enclosing cube is computed directly from cofactor tautology
        // checks (no full complement is ever materialized).
        if let Some(sc) = crate::urp::supercube_of_complement(nvars, &cof) {
            // Re-apply the cube's own literals.
            if let Some(reduced) = expand_back(&cubes[i], &sc) {
                cubes[i] = reduced;
            }
        }
    }
    *f = Cover::from_cubes(nvars, cubes);
}

/// Smallest single cube containing all cubes of a buffer, or `None` if
/// empty. (The production REDUCE path computes the supercube of a
/// complement directly via `urp::supercube_of_complement`; this reference
/// version remains for its tests.)
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

/// Combines a cube with the supercube of its unique part: the reduced cube
/// is `original ∩ supercube-extended-to-original-space`.
fn expand_back(original: &Cube, unique_sc: &Cube) -> Option<Cube> {
    original.intersect(unique_sc)
}

/// Verification helper: `result` must cover `on` minus `dc` exactly and be
/// disjoint from `off`.
fn verify(result: &Cover, on: &Cover, dc: &Cover, off: &Cover) -> bool {
    // result ∩ off must be empty.
    for rc in result.cubes() {
        if intersects_cover(rc, off) {
            return false;
        }
    }
    // result ∪ dc must cover on.
    let rdc = result.union(dc);
    on.cubes().iter().all(|c| rdc.covers_cube(c))
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
}
