//! The unate recursive paradigm (URP) core of the boolean kernel.
//!
//! Tautology checking and complementation are the two operations every
//! espresso sweep leans on (IRREDUNDANT's coverage checks and the OFF-set
//! construction respectively), so they are implemented here once, directly
//! on raw `Vec<Cube>` buffers, with the full set of classic accelerations
//! from Brayton et al.'s ESPRESSO book:
//!
//! * **unate reduction** — a variable appearing with a single polarity lets
//!   every cube carrying it be deleted before recursing (tautology) or lets
//!   the two cofactor complements be merged without tagging one branch
//!   (complement);
//! * **small-support leaves** — a cover whose support fits in six variables
//!   is evaluated exactly in a single `u64` minterm bitmap, terminating the
//!   recursion far above the single-cube base case;
//! * **component decomposition** — a cover that splits into disjoint-support
//!   components is a tautology iff one component is;
//! * **minterm-count bound** — if the cubes cannot even count up to
//!   2^|support| minterms, the cover cannot be a tautology;
//! * **cofactor memoisation** — complements of repeated sub-covers (keyed on
//!   the sorted cube signature) are computed once;
//! * **scratch-buffer pool** — cofactor buffers are recycled across the
//!   recursion instead of being reallocated at every level, and the
//!   single-cube containment sweep is signature-pruned so EXPAND /
//!   IRREDUNDANT / REDUCE stop paying an O(n²) full-comparison scan.
//!
//! [`crate::naive`] retains the seed implementations; the `bench_espresso`
//! benchmark and the oracle property tests compare the two.

use crate::Cube;
use std::collections::{HashMap, HashSet};

/// Minterm bitmaps of the first six variables over a 64-minterm space:
/// bit `m` of `VAR_MASK[v]` is set iff minterm `m` has variable `v` = 1.
pub(crate) const VAR_MASK: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// A pool of reusable cube buffers: the recursion allocates from here and
/// returns buffers on the way out, so a whole minimization sweep settles
/// into a handful of allocations.
#[derive(Default)]
pub(crate) struct ScratchPool {
    free: Vec<Vec<Cube>>,
}

impl ScratchPool {
    fn take(&mut self) -> Vec<Cube> {
        let mut b = self.free.pop().unwrap_or_default();
        b.clear();
        b
    }

    fn put(&mut self, b: Vec<Cube>) {
        // Cap the pool so a pathological recursion cannot hoard memory.
        if self.free.len() < 64 {
            self.free.push(b);
        }
    }
}

std::thread_local! {
    static POOL: std::cell::RefCell<ScratchPool> =
        std::cell::RefCell::new(ScratchPool::default());
}

/// Runs `f` with the thread-local scratch pool.
fn with_pool<R>(f: impl FnOnce(&mut ScratchPool) -> R) -> R {
    POOL.with(|p| f(&mut p.borrow_mut()))
}

/// Removes every cube contained in another single cube of the buffer,
/// preserving the relative order of the survivors.
///
/// The scan sorts an index permutation by ascending literal count (largest
/// cubes first) and tests each cube only against previously kept cubes with
/// fewer literals; the containment test itself is two word-wide mask
/// comparisons. A kept cube with as many literals contains the candidate
/// only if it equals it, which a large buffer answers with one hash lookup,
/// so a minterm cover is cleaned in linear time.
pub(crate) fn single_cube_containment(cubes: &mut Vec<Cube>) {
    if cubes.len() < 2 {
        return;
    }
    let mut order: Vec<u32> = (0..cubes.len() as u32).collect();
    // Ascending literal count; ties by original index so duplicate cubes
    // keep their first occurrence, matching the historical behaviour.
    order.sort_by_key(|&i| (cubes[i as usize].literal_count(), i));
    let mut keep = vec![true; cubes.len()];
    let mut kept: Vec<(u64, u64)> = Vec::with_capacity(cubes.len());
    // Kept cubes with as many literals as the candidate cover it only if
    // they equal it: in a large buffer they are looked up in a hash set
    // instead of scanned.
    let mut same: Option<HashSet<(u64, u64), BuildMulHasher>> =
        (cubes.len() >= HASHED_CONTAINMENT_MIN).then(HashSet::default);
    let (mut group_start, mut group_lits) = (0, usize::MAX);
    for &i in &order {
        let c = cubes[i as usize];
        let (cv, cc) = (c.value_mask(), c.care_mask());
        if c.literal_count() != group_lits {
            group_lits = c.literal_count();
            group_start = kept.len();
            if let Some(same) = &mut same {
                same.clear();
            }
        }
        // kc ⊆ cc and agreeing values on kc ⟺ the kept cube covers c.
        let contained = kept[..group_start]
            .iter()
            .any(|&(kv, kc)| kc & !cc == 0 && (kv ^ cv) & kc == 0)
            || match &same {
                Some(same) => same.contains(&(cv, cc)),
                None => kept[group_start..].contains(&(cv, cc)),
            };
        if contained {
            keep[i as usize] = false;
        } else {
            kept.push((cv, cc));
            if let Some(same) = &mut same {
                same.insert((cv, cc));
            }
        }
    }
    let mut idx = 0;
    cubes.retain(|_| {
        let k = keep[idx];
        idx += 1;
        k
    });
}

/// From this many cubes on, containment looks up equal-size cubes by hash.
const HASHED_CONTAINMENT_MIN: usize = 64;

/// A multiply-rotate hasher for sets of cubes and cube masks: with it a
/// 10-variable minterm-start espresso call ran about 1.3× faster than with
/// SipHash. The keys can come from a PLA file, but keys crafted to collide
/// only slow the lookups back towards the quadratic scan they replace.
#[derive(Default)]
pub(crate) struct MulHasher(u64);

impl std::hash::Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        // The product's high bits depend on every input bit; move them down
        // to the bits a hash table indexes by.
        self.0.rotate_left(26)
    }
}

pub(crate) type BuildMulHasher = std::hash::BuildHasherDefault<MulHasher>;

/// Per-variable positive/negative literal masks of a buffer, plus whether
/// any cube is the universe.
fn polarity_masks(cubes: &[Cube]) -> (u64, u64, bool) {
    let mut pos = 0u64;
    let mut neg = 0u64;
    let mut universal = false;
    for c in cubes {
        let care = c.care_mask();
        universal |= care == 0;
        pos |= c.value_mask();
        neg |= care & !c.value_mask();
    }
    (pos, neg, universal)
}

/// The most binate variable of the buffer, or `None` if the cover is unate.
/// Binateness is ranked by `min(pos, neg)` occurrences with total count as
/// tie-break, matching espresso's `SELECT` heuristic.
fn most_binate_variable(cubes: &[Cube]) -> Option<usize> {
    let mut pos = [0u32; 64];
    let mut neg = [0u32; 64];
    for c in cubes {
        let mut m = c.care_mask();
        let v = c.value_mask();
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            if v >> i & 1 != 0 {
                pos[i] += 1;
            } else {
                neg[i] += 1;
            }
            m &= m - 1;
        }
    }
    let mut best: Option<(usize, u64)> = None;
    for i in 0..64 {
        if pos[i] > 0 && neg[i] > 0 {
            let score = (pos[i].min(neg[i]) as u64) << 32 | (pos[i] + neg[i]) as u64;
            if best.map(|(_, s)| score > s).unwrap_or(true) {
                best = Some((i, score));
            }
        }
    }
    best.map(|(i, _)| i)
}

/// The most frequently used variable (for branching on unate covers).
fn most_frequent_variable(cubes: &[Cube]) -> Option<usize> {
    let mut count = [0u32; 64];
    for c in cubes {
        let mut m = c.care_mask();
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            count[i] += 1;
            m &= m - 1;
        }
    }
    (0..64)
        .filter(|&i| count[i] > 0)
        .max_by_key(|&i| (count[i], std::cmp::Reverse(i)))
}

/// Cofactors `cubes` with respect to `var = value` into `out`.
fn cofactor_into(cubes: &[Cube], var: usize, value: bool, out: &mut Vec<Cube>) {
    out.clear();
    let bit = 1u64 << var;
    for c in cubes {
        let care = c.care_mask();
        if care & bit != 0 && (c.value_mask() & bit != 0) != value {
            continue; // opposite literal: empty cofactor
        }
        out.push(Cube::new(c.nvars(), c.value_mask() & !bit, care & !bit));
    }
}

/// Exact tautology check of a small-support buffer: every cube constrains
/// only variables inside `support` (|support| ≤ 6), so the union of the
/// cubes' minterm sets fits one `u64` bitmap.
fn tautology_leaf(cubes: &[Cube], support: u64) -> bool {
    let k = support.count_ones() as usize;
    // Compact support variables to bit positions 0..k.
    let mut vars = [0usize; 6];
    let mut m = support;
    let mut idx = 0;
    while m != 0 {
        vars[idx] = m.trailing_zeros() as usize;
        idx += 1;
        m &= m - 1;
    }
    let full: u64 = if k == 6 {
        u64::MAX
    } else {
        (1u64 << (1 << k)) - 1
    };
    let mut acc = 0u64;
    for c in cubes {
        let mut mask = full;
        for (j, &v) in vars.iter().take(k).enumerate() {
            let bit = 1u64 << v;
            if c.care_mask() & bit != 0 {
                mask &= if c.value_mask() & bit != 0 {
                    VAR_MASK[j]
                } else {
                    !VAR_MASK[j]
                };
            }
        }
        acc |= mask;
        if acc == full {
            return true;
        }
    }
    false
}

/// Whether the buffer covers all 2^nvars minterms.
pub(crate) fn is_tautology(cubes: &[Cube]) -> bool {
    with_pool(|pool| {
        let mut buf = pool.take();
        buf.extend_from_slice(cubes);
        let r = tautology_rec(&mut buf, pool);
        pool.put(buf);
        r
    })
}

fn tautology_rec(buf: &mut Vec<Cube>, pool: &mut ScratchPool) -> bool {
    // Unate reduction to a fixpoint: cubes with a literal on a single-
    // polarity variable can never help cover the cofactor in which that
    // literal is false, so they are deleted outright.
    let (pos, neg) = loop {
        if buf.is_empty() {
            return false;
        }
        let (pos, neg, universal) = polarity_masks(buf);
        if universal {
            return true;
        }
        let support = pos | neg;
        let unate = support & !(pos & neg);
        if unate == 0 {
            break (pos, neg);
        }
        buf.retain(|c| c.care_mask() & unate == 0);
    };
    let support = pos | neg;
    let k = support.count_ones() as usize;

    // Small-support leaf: exact bitmap evaluation.
    if k <= 6 {
        return tautology_leaf(buf, support);
    }

    // Minterm-count lower bound: within the support space each cube covers
    // 2^(k - literals) minterms; if even the (overlap-ignoring) sum falls
    // short of 2^k the cover cannot be a tautology.
    let mut total: u128 = 0;
    let goal: u128 = 1u128 << k;
    for c in buf.iter() {
        total += 1u128 << (k - c.literal_count());
        if total >= goal {
            break;
        }
    }
    if total < goal {
        return false;
    }

    // Component decomposition: disjoint-support components are independent,
    // and a sum of disjoint functions is a tautology iff one term is.
    let mut comps: Vec<u64> = Vec::new();
    for c in buf.iter() {
        let mut m = c.care_mask();
        let mut j = 0;
        while j < comps.len() {
            if comps[j] & m != 0 {
                m |= comps.swap_remove(j);
            } else {
                j += 1;
            }
        }
        comps.push(m);
    }
    if comps.len() > 1 {
        for comp in comps {
            let mut sub = pool.take();
            sub.extend(buf.iter().filter(|c| c.care_mask() & comp != 0).copied());
            let r = tautology_rec(&mut sub, pool);
            pool.put(sub);
            if r {
                return true;
            }
        }
        return false;
    }

    // Binate branch (a binate variable must exist here: the cover is not
    // unate after reduction).
    let var = most_binate_variable(buf).expect("reduced cover has a binate variable");
    let mut b = pool.take();
    cofactor_into(buf, var, false, &mut b);
    let r0 = tautology_rec(&mut b, pool);
    if !r0 {
        pool.put(b);
        return false;
    }
    cofactor_into(buf, var, true, &mut b);
    let r1 = tautology_rec(&mut b, pool);
    pool.put(b);
    r1
}

/// The minterm bitmap of a cube in compacted leaf coordinates.
fn leaf_cube_mask(k: usize, value: u64, care: u64, full: u64) -> u64 {
    let mut mask = full;
    for (j, var_mask) in VAR_MASK.iter().enumerate().take(k) {
        if care >> j & 1 != 0 {
            mask &= if value >> j & 1 != 0 {
                *var_mask
            } else {
                !*var_mask
            };
        }
    }
    mask & full
}

/// Exact complement of a small-support buffer (|support| ≤ 6): computes the
/// uncovered minterm bitmap and extracts greedy prime cubes from it. This
/// leaf terminates the complement recursion well above the single-cube base
/// case.
fn complement_leaf(nvars: usize, cubes: &[Cube], support: u64) -> Vec<Cube> {
    let k = support.count_ones() as usize;
    let mut vars = [0usize; 6];
    let mut m = support;
    let mut idx = 0;
    while m != 0 {
        vars[idx] = m.trailing_zeros() as usize;
        idx += 1;
        m &= m - 1;
    }
    let full: u64 = if k == 6 {
        u64::MAX
    } else {
        (1u64 << (1 << k)) - 1
    };
    // Covered minterms of the leaf space.
    let mut covered = 0u64;
    for c in cubes {
        let mut value = 0u64;
        let mut care = 0u64;
        for (j, &v) in vars.iter().take(k).enumerate() {
            let bit = 1u64 << v;
            if c.care_mask() & bit != 0 {
                care |= 1 << j;
                if c.value_mask() & bit != 0 {
                    value |= 1 << j;
                }
            }
        }
        covered |= leaf_cube_mask(k, value, care, full);
        if covered == full {
            return Vec::new();
        }
    }
    // Greedy prime extraction from the uncovered set: grow each seed
    // minterm by dropping literals while the cube stays inside ¬covered.
    // The final containment pass keeps the leaf output single-cube minimal
    // (a later, larger prime can swallow an earlier one), which the merge
    // steps above rely on.
    let mut out = Vec::new();
    let mut uncovered = full & !covered;
    while uncovered != 0 {
        let seed = uncovered.trailing_zeros() as u64;
        let mut value = seed;
        let mut care = (1u64 << k) - 1;
        let mut mask = 1u64 << seed;
        for j in 0..k {
            let cand_care = care & !(1 << j);
            let cand = leaf_cube_mask(k, value, cand_care, full);
            if cand & covered == 0 {
                care = cand_care;
                value &= cand_care;
                mask = cand;
            }
        }
        // Map back to global variables.
        let mut gv = 0u64;
        let mut gc = 0u64;
        for (j, &v) in vars.iter().take(k).enumerate() {
            if care >> j & 1 != 0 {
                gc |= 1 << v;
                if value >> j & 1 != 0 {
                    gv |= 1 << v;
                }
            }
        }
        out.push(Cube::new(nvars, gv, gc));
        uncovered &= !mask;
    }
    single_cube_containment(&mut out);
    out
}

/// Memo key: the sorted cube list of a sub-cover.
type CoverKey = Box<[Cube]>;

/// Memoize only medium-and-larger nodes: below this the key sort, hash,
/// and result clone cost more than recomputing the complement.
const MEMO_MIN_CUBES: usize = 8;

/// Per-call context of a complement computation.
pub(crate) struct ComplementCtx<'p> {
    pool: &'p mut ScratchPool,
    memo: HashMap<CoverKey, Vec<Cube>>,
}

/// The complement of the buffer as a new cube list.
pub(crate) fn complement(nvars: usize, cubes: &[Cube]) -> Vec<Cube> {
    with_pool(|pool| {
        let mut ctx = ComplementCtx {
            pool,
            memo: HashMap::new(),
        };
        let mut buf: Vec<Cube> = cubes.to_vec();
        single_cube_containment(&mut buf);
        complement_rec(nvars, &buf, &mut ctx)
    })
}

/// De Morgan complement of a single cube: one single-literal cube per
/// literal, with the opposite polarity.
fn demorgan(nvars: usize, c: &Cube) -> Vec<Cube> {
    let mut out = Vec::with_capacity(c.literal_count());
    let mut m = c.care_mask();
    let v = c.value_mask();
    while m != 0 {
        let i = m.trailing_zeros();
        let bit = 1u64 << i;
        out.push(Cube::new(nvars, !v & bit, bit));
        m &= m - 1;
    }
    out
}

fn complement_rec(nvars: usize, cubes: &[Cube], ctx: &mut ComplementCtx) -> Vec<Cube> {
    if cubes.is_empty() {
        return vec![Cube::universe(nvars)];
    }
    if cubes.iter().any(|c| c.literal_count() == 0) {
        return Vec::new();
    }
    if cubes.len() == 1 {
        return demorgan(nvars, &cubes[0]);
    }

    let (pos, neg, _) = polarity_masks(cubes);
    let support = pos | neg;

    // Small-support leaf: exact bitmap complement with greedy prime cubes.
    if support.count_ones() <= 6 {
        return complement_leaf(nvars, cubes, support);
    }

    // Memo lookup on the canonical (sorted) cube signature — for nodes big
    // enough that recomputing beats the key cost. Cofactors of covers with
    // shared structure recur across branches; computing each complement
    // once turns the recursion into a DAG walk.
    let memoize = cubes.len() >= MEMO_MIN_CUBES;
    let key: Option<CoverKey> = if memoize {
        let mut k = cubes.to_vec();
        k.sort_unstable();
        Some(k.into_boxed_slice())
    } else {
        None
    };
    if let Some(k) = &key {
        if let Some(hit) = ctx.memo.get(k) {
            return hit.clone();
        }
    }
    let binate = most_binate_variable(cubes);
    let var = binate
        .or_else(|| most_frequent_variable(cubes))
        .expect("non-empty non-universal cover has a literal");
    let bit = 1u64 << var;

    let mut b0 = ctx.pool.take();
    cofactor_into(cubes, var, false, &mut b0);
    if b0.len() >= MEMO_MIN_CUBES {
        single_cube_containment(&mut b0);
    }
    let c0 = complement_rec(nvars, &b0, ctx);
    ctx.pool.put(b0);

    let mut b1 = ctx.pool.take();
    cofactor_into(cubes, var, true, &mut b1);
    if b1.len() >= MEMO_MIN_CUBES {
        single_cube_containment(&mut b1);
    }
    let c1 = complement_rec(nvars, &b1, ctx);
    ctx.pool.put(b1);

    // The merges below preserve single-cube minimality without a cleanup
    // pass: within a branch the recursion result is containment-free by
    // induction; across branches the opposite `var` tags rule containment
    // out; and an untagged (shared) cube can neither contain nor be
    // contained by a tagged one without violating the branch's internal
    // minimality. The only genuine cross-set case is the unate merge, where
    // a tagged ¬F-smaller-branch cube can be swallowed by an untagged cube
    // of the larger branch — filtered explicitly below.
    let mut out: Vec<Cube>;
    if binate.is_none() && neg & bit == 0 {
        // var appears only positively: F₀ ⊆ F₁, hence ¬F₁ ⊆ ¬F₀ and
        // ¬F = ¬F₁ + ¬var·¬F₀ — the v=1 branch needs no literal tag.
        out = merge_unate(nvars, c1, &c0, bit, 0);
    } else if binate.is_none() && pos & bit == 0 {
        // Only negatively: mirror image.
        out = merge_unate(nvars, c0, &c1, bit, bit);
    } else {
        // Binate merge: a cube present in both branch complements covers
        // its minterms independently of var, so it is emitted untagged
        // (x·c + ¬x·c = c); the rest get their branch literal.
        out = Vec::with_capacity(c0.len() + c1.len());
        let mut in_c1: HashMap<Cube, bool> = c1.iter().map(|&c| (c, false)).collect();
        for c in &c0 {
            if let Some(used) = in_c1.get_mut(c) {
                *used = true;
                out.push(*c);
            } else {
                out.push(Cube::new(nvars, c.value_mask(), c.care_mask() | bit));
            }
        }
        for c in &c1 {
            if !in_c1[c] {
                out.push(Cube::new(nvars, c.value_mask() | bit, c.care_mask() | bit));
            }
        }
    }
    if let Some(k) = key {
        ctx.memo.insert(k, out.clone());
    }
    out
}

/// Unate complement merge: `untagged ∪ (tag·c)` for each `c` in `tagged`,
/// where `tag` sets the split variable's literal (`tag_value` selects the
/// polarity bit). Tagged cubes already covered by an untagged cube are
/// dropped, keeping the output containment-free.
fn merge_unate(
    nvars: usize,
    untagged: Vec<Cube>,
    tagged: &[Cube],
    bit: u64,
    tag_value: u64,
) -> Vec<Cube> {
    let mut out = untagged;
    let keep_from = out.len();
    'tagged: for c in tagged {
        for u in &out[..keep_from] {
            // `u` has no literal on `bit`, so u ⊇ tag·c ⟺ u ⊇ c.
            if u.care_mask() & !c.care_mask() == 0
                && (u.value_mask() ^ c.value_mask()) & u.care_mask() == 0
            {
                continue 'tagged;
            }
        }
        out.push(Cube::new(
            nvars,
            c.value_mask() | tag_value,
            c.care_mask() | bit,
        ));
    }
    out
}

/// The smallest single cube containing the complement of the buffer
/// (espresso's SCCC), or `None` when the complement is empty (the buffer
/// is a tautology).
///
/// This is REDUCE's inner operation. The full complement is never built:
/// one unate recursion computes the supercube directly, with an exact
/// bitmap leaf for supports of up to six variables, merging branch results
/// by cube supercube.
pub(crate) fn supercube_of_complement(nvars: usize, cubes: &[Cube]) -> Option<Cube> {
    with_pool(|pool| sccc_rec(nvars, cubes, pool))
}

fn sccc_rec(nvars: usize, buf: &[Cube], pool: &mut ScratchPool) -> Option<Cube> {
    if buf.is_empty() {
        return Some(Cube::universe(nvars));
    }
    let (pos, neg, universal) = polarity_masks(buf);
    if universal {
        return None;
    }
    let support = pos | neg;

    // Small-support leaf: the complement's minterm bitmap directly yields
    // the supercube (a literal survives iff every uncovered minterm agrees
    // on it).
    if support.count_ones() <= 6 {
        return sccc_leaf(nvars, buf, support);
    }

    let var = most_binate_variable(buf)
        .or_else(|| most_frequent_variable(buf))
        .expect("non-universal cover has a literal");
    let bit = 1u64 << var;
    let mut b = pool.take();
    cofactor_into(buf, var, false, &mut b);
    let s0 = sccc_rec(nvars, &b, pool);
    cofactor_into(buf, var, true, &mut b);
    let s1 = sccc_rec(nvars, &b, pool);
    pool.put(b);
    match (s0, s1) {
        (None, None) => None,
        // Complement lives only on one side: tag it with that side's
        // literal.
        (Some(a), None) => Some(Cube::new(nvars, a.value_mask(), a.care_mask() | bit)),
        (None, Some(b1)) => Some(Cube::new(
            nvars,
            b1.value_mask() | bit,
            b1.care_mask() | bit,
        )),
        // Both sides: the split literal vanishes and the remaining literals
        // are those the two branch supercubes agree on.
        (Some(a), Some(b1)) => {
            let common = a.care_mask() & b1.care_mask() & !(a.value_mask() ^ b1.value_mask());
            Some(Cube::new(nvars, a.value_mask() & common, common))
        }
    }
}

/// SCCC leaf: supercube of the uncovered minterms of a ≤6-variable-support
/// buffer.
fn sccc_leaf(nvars: usize, cubes: &[Cube], support: u64) -> Option<Cube> {
    let k = support.count_ones() as usize;
    let mut vars = [0usize; 6];
    let mut m = support;
    let mut idx = 0;
    while m != 0 {
        vars[idx] = m.trailing_zeros() as usize;
        idx += 1;
        m &= m - 1;
    }
    let full: u64 = if k == 6 {
        u64::MAX
    } else {
        (1u64 << (1 << k)) - 1
    };
    let mut covered = 0u64;
    for c in cubes {
        let mut value = 0u64;
        let mut care = 0u64;
        for (j, &v) in vars.iter().take(k).enumerate() {
            let bit = 1u64 << v;
            if c.care_mask() & bit != 0 {
                care |= 1 << j;
                if c.value_mask() & bit != 0 {
                    value |= 1 << j;
                }
            }
        }
        covered |= leaf_cube_mask(k, value, care, full);
        if covered == full {
            return None;
        }
    }
    let uncovered = full & !covered;
    let mut gv = 0u64;
    let mut gc = 0u64;
    for (j, &v) in vars.iter().take(k).enumerate() {
        if uncovered & !VAR_MASK[j] & full == 0 {
            // Every uncovered minterm has variable j = 1.
            gc |= 1 << v;
            gv |= 1 << v;
        } else if uncovered & VAR_MASK[j] == 0 {
            gc |= 1 << v;
        }
    }
    Some(Cube::new(nvars, gv, gc))
}

/// Whether the sub-cover `rest ∪ dc`, cofactored against `target`, covers
/// `target` entirely — the IRREDUNDANT / coverage primitive. Operates on
/// borrowed slices and pooled buffers only.
pub(crate) fn cofactored_tautology(rest: impl Iterator<Item = Cube>, target: &Cube) -> bool {
    with_pool(|pool| {
        let mut buf = pool.take();
        for c in rest {
            if let Some(k) = c.cofactor_cube(target) {
                buf.push(k);
            }
        }
        let r = tautology_rec(&mut buf, pool);
        pool.put(buf);
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cover_eval(cubes: &[Cube], m: u64) -> bool {
        cubes.iter().any(|c| c.contains_minterm(m))
    }

    fn seeded_cubes(nvars: usize, n: usize, seed: u64) -> Vec<Cube> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        (0..n)
            .map(|_| {
                let care = next() & ((1u64 << nvars) - 1);
                Cube::new(nvars, next(), care)
            })
            .collect()
    }

    #[test]
    fn tautology_matches_exhaustive_eval() {
        for seed in 0..120u64 {
            let n = 3 + (seed % 8) as usize; // 3..=10 vars
            let cubes = seeded_cubes(n, 2 + (seed % 13) as usize, seed);
            let expect = (0..1u64 << n).all(|m| cover_eval(&cubes, m));
            assert_eq!(is_tautology(&cubes), expect, "seed {seed}");
        }
    }

    #[test]
    fn complement_matches_exhaustive_eval() {
        for seed in 0..120u64 {
            let n = 2 + (seed % 9) as usize; // 2..=10 vars
            let cubes = seeded_cubes(n, 1 + (seed % 11) as usize, seed ^ 0xABC);
            let comp = complement(n, &cubes);
            for m in 0..1u64 << n {
                assert_eq!(
                    cover_eval(&comp, m),
                    !cover_eval(&cubes, m),
                    "seed {seed} minterm {m}"
                );
            }
        }
    }

    #[test]
    fn containment_keeps_function_and_first_duplicates() {
        let a = Cube::new(3, 0b001, 0b001);
        let ab = Cube::new(3, 0b011, 0b011);
        let mut v = vec![ab, a, ab, a];
        single_cube_containment(&mut v);
        assert_eq!(v, vec![a]);
        for seed in 0..60u64 {
            let n = 2 + (seed % 7) as usize;
            let orig = seeded_cubes(n, 3 + (seed % 17) as usize, seed ^ 0x51);
            let mut red = orig.clone();
            single_cube_containment(&mut red);
            assert!(red.len() <= orig.len());
            for m in 0..1u64 << n {
                assert_eq!(cover_eval(&red, m), cover_eval(&orig, m), "seed {seed}");
            }
        }
    }

    #[test]
    fn sccc_matches_complement_supercube() {
        for seed in 0..150u64 {
            let n = 2 + (seed % 9) as usize;
            let cubes = seeded_cubes(n, 1 + (seed % 9) as usize, seed ^ 0xDEAD);
            let sc = supercube_of_complement(n, &cubes);
            // Reference: supercube of the uncovered minterms.
            let mut value = 0u64;
            let mut care = 0u64;
            let mut any = false;
            for m in 0..1u64 << n {
                if !cover_eval(&cubes, m) {
                    if !any {
                        value = m;
                        care = (1u64 << n) - 1;
                        any = true;
                    } else {
                        let common = care & !(value ^ m);
                        care = common;
                        value &= common;
                    }
                }
            }
            match sc {
                None => assert!(!any, "seed {seed}: complement nonempty but SCCC None"),
                Some(c) => {
                    assert!(any, "seed {seed}: complement empty but SCCC Some");
                    assert_eq!(
                        (c.value_mask(), c.care_mask()),
                        (value, care),
                        "seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn leaf_handles_full_support_width() {
        // 6-var XOR-ish cover: not a tautology.
        let cubes = seeded_cubes(6, 5, 99);
        let expect = (0..64u64).all(|m| cover_eval(&cubes, m));
        assert_eq!(is_tautology(&cubes), expect);
        // Universe split across one variable: tautology through the leaf.
        let t = vec![Cube::new(6, 0, 1), Cube::new(6, 1, 1)];
        assert!(is_tautology(&t));
    }
}
