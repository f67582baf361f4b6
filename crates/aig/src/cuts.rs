//! K-feasible cut enumeration with priority pruning and per-cut truth
//! tables.
//!
//! A **cut** of an AND node `n` is a set of nodes (the *leaves*) such that
//! every path from a primary input or latch to `n` passes through a leaf:
//! the cone between the leaves and `n` computes a single-output function of
//! the leaf values, and if a library cell realizes that function, the whole
//! cone collapses into one cell. Cut-based technology mapping enumerates
//! the `k`-feasible cuts (≤ `k` leaves) of every node bottom-up — the cuts
//! of `AND(a, b)` are the pairwise merges of the cuts of `a` and `b`, plus
//! the trivial cut `{n}` — and keeps, per node, a bounded **priority** set
//! of the most promising ones instead of the exponentially many that exist.
//!
//! Each cut carries the truth table of the node's (plain-polarity)
//! function over its leaves in the dense `u16` encoding of
//! [`crate::npn`]: bit `m` is the value on minterm `m`, leaf `i`
//! (ascending node-id order) contributes bit `i` of `m`. Truth tables are
//! support-reduced: a leaf the function does not actually depend on is
//! dropped, so a cut's `leaves` are always its exact support.
//!
//! Cut tables are **contextually** sound, not free-variable-local: a
//! merge composes the actual cone functions along real circuit paths, so
//! a table may bake in facts that hold for every *reachable* leaf
//! valuation (e.g. a reconvergent sub-cone that is constant in context
//! reduces away entirely). The divergence from the free-leaf local
//! function arises through support reduction: once a cut's table drops a
//! vacuous variable, *later merges* combine that reduced fact with cuts
//! over different leaf sets, and the combined table need no longer equal
//! the cone's function over free leaves — concretely, for
//! `x = XOR(y, a)` with `y = a & b & c`, the sub-cone `!a & y` has the
//! empty (constant-false) cut, and merging it gives `x` a `{a, y}` cut
//! with table `!a | y`, not the free-leaf `XNOR(a, y)`; the two differ
//! only on the unreachable valuation `a=0, y=1`. Replacing a node's cone
//! by any cell realizing its cut table therefore preserves the circuit's
//! observable behaviour even where the table differs from the free-leaf
//! local function — mapping gets reconvergence-driven don't-cares at no
//! extra cost. (This is also why the test oracle below checks tables on
//! whole-graph simulations rather than by driving leaves as free
//! variables.)
//!
//! # Examples
//!
//! ```
//! use synthir_aig::{Aig, cuts::enumerate_cuts};
//!
//! let mut g = Aig::new("demo");
//! let a = g.add_input_port("a", 1)[0];
//! let b = g.add_input_port("b", 1)[0];
//! let c = g.add_input_port("c", 1)[0];
//! let ab = g.and(a, b);
//! let y = g.and(ab, c); // y = a & b & c
//! let cuts = enumerate_cuts(&g, 4, 8);
//! // The widest cut of y sees all three inputs with the AND3 function.
//! let wide = cuts[y.node() as usize]
//!     .iter()
//!     .find(|cut| cut.leaves() == [a.node(), b.node(), c.node()])
//!     .expect("3-leaf cut enumerated");
//! assert_eq!(wide.tt, 0x80); // minterm 7 only
//! ```

use crate::graph::{Aig, AigNode};
use crate::npn::{depends_on, swap_adjacent, tt_mask};

/// The maximum cut width the dense `u16` truth tables support.
pub const MAX_K: usize = 4;

/// One cut: up to [`MAX_K`] leaf nodes (ascending id order, exactly the
/// function's support) plus the truth table of the node's plain-polarity
/// function over them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cut {
    leaves: [u32; MAX_K],
    len: u8,
    /// Truth table over `leaves()` (dense encoding, low `2^len` bits).
    pub tt: u16,
}

impl Cut {
    /// The leaf nodes, ascending id order.
    pub fn leaves(&self) -> &[u32] {
        &self.leaves[..self.len as usize]
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the cut has no leaves (the node function is constant).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The trivial cut of a node: the node itself, identity function.
    pub fn trivial(node: u32) -> Cut {
        Cut {
            leaves: [node, 0, 0, 0],
            len: 1,
            tt: 0b10,
        }
    }

    /// A 64-bit Bloom signature of the leaf set: bit `leaf % 64` per leaf.
    fn signature(&self) -> u64 {
        self.leaves().iter().fold(0, |s, &l| s | 1 << (l % 64))
    }

    /// Whether every leaf of `self` is also a leaf of `other`.
    fn dominates(&self, other: &Cut) -> bool {
        self.leaves().iter().all(|l| other.leaves().contains(l))
    }
}

/// Merges two child cuts under an AND: unions the leaf sets (fails when
/// more than `k` leaves result), recomputes the truth table, and
/// support-reduces. `ca`/`cb` are the cuts of the AND's fanin *nodes*;
/// `na`/`nb` complement the child functions for complemented edges.
///
/// Tables are combined as whole 16-bit words: each child table is
/// replicated to four variables, its variables are moved to their union
/// positions by adjacent-variable swaps (highest first, so every swap
/// exchanges a child variable with a vacuous one), complemented per edge,
/// and the two words are ANDed.
fn merge(ca: &Cut, cb: &Cut, na: bool, nb: bool, k: usize) -> Option<Cut> {
    // Union of two sorted leaf lists, recording where each child leaf lands.
    let mut leaves = [0u32; MAX_K];
    let (mut pos_a, mut pos_b) = ([0usize; MAX_K], [0usize; MAX_K]);
    let (la, lb) = (ca.leaves(), cb.leaves());
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < la.len() || j < lb.len() {
        let take_a = j == lb.len() || (i < la.len() && la[i] <= lb[j]);
        let take_b = i == la.len() || (j < lb.len() && lb[j] <= la[i]);
        if n == k {
            return None;
        }
        if take_a {
            leaves[n] = la[i];
            pos_a[i] = n;
            i += 1;
        }
        if take_b {
            leaves[n] = lb[j];
            pos_b[j] = n;
            j += 1;
        }
        n += 1;
    }
    let expand = |c: &Cut, pos: &[usize; MAX_K], neg: bool| -> u16 {
        let mut t = replicate(c.tt, c.len());
        for ci in (0..c.len()).rev() {
            for v in ci..pos[ci] {
                t = swap_adjacent(t, v);
            }
        }
        if neg {
            !t
        } else {
            t
        }
    };
    let tt = expand(ca, &pos_a, na) & expand(cb, &pos_b, nb);
    Some(support_reduce(&leaves[..n], tt))
}

/// Replicates an `n`-variable table across all 16 bits, making variables
/// `n..4` vacuous, so word operations never read unmeaningful bits.
fn replicate(tt: u16, n: usize) -> u16 {
    let mut t = tt & tt_mask(n);
    let mut width = 1 << n;
    while width < 16 {
        t |= t << width;
        width <<= 1;
    }
    t
}

/// Drops leaves the function does not depend on and compresses the truth
/// table accordingly. A vacuous variable is swapped up past the remaining
/// ones, which shifts them down one position — the cofactor without the
/// per-minterm gather.
fn support_reduce(leaves: &[u32], tt: u16) -> Cut {
    let n = leaves.len();
    let mut kept = [0u32; MAX_K];
    let mut kn = 0usize;
    let mut t = replicate(tt, n);
    for (i, &leaf) in leaves.iter().enumerate() {
        // The variable under test always sits at position `kn`: earlier
        // variables were either kept (positions below `kn`) or moved above
        // the `n - i` still untested ones.
        if depends_on(t, kn) {
            kept[kn] = leaf;
            kn += 1;
        } else {
            for v in kn..kn + (n - i) - 1 {
                t = swap_adjacent(t, v);
            }
        }
    }
    Cut {
        leaves: kept,
        len: kn as u8,
        tt: t & tt_mask(kn),
    }
}

/// Enumerates the `k`-feasible priority cuts of every node (`k ≤ 4`),
/// keeping at most `max_cuts` non-trivial cuts per node (smallest first;
/// `0` keeps none) plus the trivial cut, which is always last. Index `i`
/// of the result holds node `i`'s cuts; inputs and latches get only their
/// trivial cut, and the constant node gets a single empty (constant-false)
/// cut.
///
/// # Cost
///
/// Each AND node tries every pair of its fanins' cuts (≤ `(max_cuts + 1)²`
/// pairs; a pair whose 64-bit leaf signatures already show more than `k`
/// leaves is skipped unmerged). A merge is a handful of word operations:
/// the union of two sorted leaf lists, ≤ 2·`k` adjacent-variable swap
/// masks to align the child tables, one AND, and ≤ `k` dependence tests
/// (each dropped variable costs ≤ 3 more swaps). The cuts and tables are identical to
/// the minterm-by-minterm formulation (expand each child table one
/// minterm at a time, cofactor bit by bit), which the unit tests keep as
/// an oracle.
///
/// # Panics
///
/// Panics if `k > MAX_K`.
pub fn enumerate_cuts(aig: &Aig, k: usize, max_cuts: usize) -> Vec<Vec<Cut>> {
    assert!(k <= MAX_K, "dense truth tables support k ≤ {MAX_K}");
    let mut all: Vec<Vec<Cut>> = Vec::with_capacity(aig.node_count());
    // Scratch reused across nodes: the second fanin's cut signatures, the
    // distinct merges of one node and the kept cuts' signatures.
    let mut sigs_b: Vec<u64> = Vec::new();
    let mut merged: Vec<(Cut, u64)> = Vec::new();
    let mut pruned_sigs: Vec<u64> = Vec::new();
    for (i, node) in aig.nodes().iter().enumerate() {
        let cuts = match *node {
            AigNode::Const0 => vec![Cut {
                leaves: [0; MAX_K],
                len: 0,
                tt: 0,
            }],
            AigNode::Input | AigNode::Latch(_) => vec![Cut::trivial(i as u32)],
            AigNode::And(a, b) => {
                let (cuts_a, cuts_b) = (&all[a.node() as usize], &all[b.node() as usize]);
                sigs_b.clear();
                sigs_b.extend(cuts_b.iter().map(Cut::signature));
                merged.clear();
                for ca in cuts_a {
                    let sig_a = ca.signature();
                    for (cb, &sig_b) in cuts_b.iter().zip(&sigs_b) {
                        // Distinct signature bits are distinct leaves: a
                        // union that is already too wide cannot merge.
                        if (sig_a | sig_b).count_ones() as usize > k {
                            continue;
                        }
                        let Some(c) = merge(ca, cb, a.is_complemented(), b.is_complemented(), k)
                        else {
                            continue;
                        };
                        let sig = c.signature();
                        if !merged.iter().any(|&(m, ms)| ms == sig && m == c) {
                            merged.push((c, sig));
                        }
                    }
                }
                // Priority pruning: smaller cuts first (they dominate more
                // and cost less; first-found order within a size), then
                // drop dominated ones. A kept cut whose signature has a bit
                // the candidate's lacks has a leaf the candidate lacks, so
                // it cannot dominate.
                let mut pruned: Vec<Cut> = Vec::with_capacity(max_cuts.min(merged.len()) + 1);
                pruned_sigs.clear();
                'sizes: for len in 0..=k as u8 {
                    for &(c, sig) in merged.iter().filter(|(c, _)| c.len == len) {
                        if pruned.len() == max_cuts {
                            break 'sizes;
                        }
                        let dominated = pruned
                            .iter()
                            .zip(&pruned_sigs)
                            .any(|(p, &ps)| ps & !sig == 0 && p.dominates(&c));
                        if !dominated {
                            pruned_sigs.push(sig);
                            pruned.push(c);
                        }
                    }
                }
                pruned.push(Cut::trivial(i as u32));
                pruned
            }
        };
        all.push(cuts);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AigLit;
    use synthir_netlist::ResetKind;

    /// Soundness oracle: on real whole-graph simulations, a node's value
    /// must equal its cut truth table applied to the leaf values — for
    /// *every* cut. (Cut tables are statements about the node in the
    /// context of the actual circuit: a merge can bake in globally-sound
    /// facts — e.g. a sub-cone that is constant under every reachable
    /// leaf valuation — so driving the leaves as free variables would be
    /// the wrong oracle.)
    fn check_cut(aig: &Aig, node: u32, cut: &Cut, seed: u64) {
        let mut words: Vec<u64> = Vec::new();
        let mut state = seed | 1;
        for _ in 0..aig.node_count() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            words.push(state);
        }
        let vals = aig.simulate(|n| words[n as usize]);
        let got = vals[node as usize];
        let mut want = 0u64;
        for bit in 0..64u32 {
            let m = (0..cut.len()).fold(0u32, |acc, i| {
                acc | (((vals[cut.leaves()[i] as usize] >> bit) & 1) as u32) << i
            });
            want |= u64::from(cut.tt >> m & 1) << bit;
        }
        assert_eq!(got, want, "node {node} cut {:?}", cut.leaves());
    }

    /// The minterm-by-minterm merge [`merge`] must reproduce exactly:
    /// each child table expanded onto the union one minterm at a time,
    /// then support-reduced by bitwise cofactoring.
    fn merge_reference(ca: &Cut, cb: &Cut, na: bool, nb: bool, k: usize) -> Option<Cut> {
        let mut leaves: Vec<u32> = ca.leaves().iter().chain(cb.leaves()).copied().collect();
        leaves.sort_unstable();
        leaves.dedup();
        if leaves.len() > k {
            return None;
        }
        let n = leaves.len();
        let expand = |c: &Cut, neg: bool| -> u16 {
            let pos: Vec<usize> = c
                .leaves()
                .iter()
                .map(|leaf| leaves.iter().position(|l| l == leaf).expect("subset"))
                .collect();
            let mut out = 0u16;
            for m in 0..1u32 << n {
                let mut cm = 0u32;
                for (ci, &p) in pos.iter().enumerate() {
                    cm |= (m >> p & 1) << ci;
                }
                out |= ((c.tt >> cm) & 1 ^ u16::from(neg)) << m;
            }
            out
        };
        Some(support_reduce_reference(
            &leaves,
            expand(ca, na) & expand(cb, nb),
        ))
    }

    fn support_reduce_reference(leaves: &[u32], tt: u16) -> Cut {
        let n = leaves.len();
        let mut kept = [0u32; MAX_K];
        let mut kn = 0usize;
        let mut cur = tt & tt_mask(n);
        for (i, &leaf) in leaves.iter().enumerate() {
            let width = kn + (n - i);
            let pos = cofactor_reference(cur, kn, true, width);
            let neg = cofactor_reference(cur, kn, false, width);
            if pos == neg {
                cur = pos;
            } else {
                kept[kn] = leaf;
                kn += 1;
            }
        }
        Cut {
            leaves: kept,
            len: kn as u8,
            tt: cur & tt_mask(kn),
        }
    }

    /// `tt` over `width` variables with variable `v` bound to `val`,
    /// expressed over the `width - 1` others.
    fn cofactor_reference(tt: u16, v: usize, val: bool, width: usize) -> u16 {
        let mut out = 0u16;
        for m in 0..1u32 << (width - 1) {
            let low = m & ((1 << v) - 1);
            let high = (m >> v) << (v + 1);
            let full = low | high | (u32::from(val) << v);
            out |= ((tt >> full) & 1) << m;
        }
        out
    }

    /// A random cut of `len` distinct leaves drawn from `lo..lo + span`,
    /// with an arbitrary table (vacuous variables and garbage above the
    /// meaningful bits included).
    fn random_cut(rng: &mut impl FnMut() -> u64, len: usize, lo: u32, span: u32) -> Cut {
        let mut leaves = [0u32; MAX_K];
        let mut n = 0;
        while n < len {
            let l = lo + (rng() % u64::from(span)) as u32;
            if !leaves[..n].contains(&l) {
                leaves[n] = l;
                n += 1;
            }
        }
        leaves[..n].sort_unstable();
        Cut {
            leaves,
            len: len as u8,
            tt: rng() as u16,
        }
    }

    /// 120 000 random cut pairs: every `k`, both edge polarities,
    /// overlapping and disjoint leaf sets, empty (constant) cuts.
    #[test]
    fn merge_matches_reference() {
        let mut state = 0xC0FF_EE00_1234_ABCDu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut merged, mut rejected, mut empty) = (0usize, 0usize, 0usize);
        for round in 0..120_000usize {
            let k = round % 5;
            let (na, nb) = (round >> 3 & 1 != 0, round >> 4 & 1 != 0);
            let (la, lb) = ((rng() % 5) as usize, (rng() % 5) as usize);
            let ca = random_cut(&mut rng, la, 1, 6);
            // Alternate leaf pools shared with `ca` (overlap) and disjoint.
            let cb = if round % 3 == 0 {
                random_cut(&mut rng, lb, 100, 6)
            } else {
                random_cut(&mut rng, lb, 1, 6)
            };
            let got = merge(&ca, &cb, na, nb, k);
            assert_eq!(
                got,
                merge_reference(&ca, &cb, na, nb, k),
                "k={k} na={na} nb={nb} ca={ca:?} cb={cb:?}"
            );
            match got {
                Some(c) if c.is_empty() => empty += 1,
                Some(_) => merged += 1,
                None => rejected += 1,
            }
        }
        assert!(merged > 10_000 && rejected > 10_000 && empty > 1_000);
    }

    #[test]
    fn support_reduce_matches_reference() {
        let mut state = 0x7777_1357_2468_0000u64 | 1;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let leaves = [2u32, 5, 9, 11];
        for round in 0..20_000usize {
            let n = round % 5;
            let tt = rng() as u16;
            assert_eq!(
                support_reduce(&leaves[..n], tt),
                support_reduce_reference(&leaves[..n], tt),
                "n={n} tt={tt:#06x}"
            );
        }
    }

    /// The enumeration loop [`enumerate_cuts`] must reproduce: every
    /// pairwise [`merge_reference`], deduplicated in first-found order,
    /// stably sorted by size, dominance-pruned down to `max_cuts`.
    fn enumerate_reference(aig: &Aig, k: usize, max_cuts: usize) -> Vec<Vec<Cut>> {
        let mut all: Vec<Vec<Cut>> = Vec::new();
        for (i, node) in aig.nodes().iter().enumerate() {
            let cuts = match *node {
                AigNode::Const0 => vec![Cut {
                    leaves: [0; MAX_K],
                    len: 0,
                    tt: 0,
                }],
                AigNode::Input | AigNode::Latch(_) => vec![Cut::trivial(i as u32)],
                AigNode::And(a, b) => {
                    let mut merged: Vec<Cut> = Vec::new();
                    for ca in &all[a.node() as usize] {
                        for cb in &all[b.node() as usize] {
                            let na = a.is_complemented();
                            let nb = b.is_complemented();
                            if let Some(c) = merge_reference(ca, cb, na, nb, k) {
                                if !merged.contains(&c) {
                                    merged.push(c);
                                }
                            }
                        }
                    }
                    merged.sort_by_key(|c| c.len);
                    let mut pruned: Vec<Cut> = Vec::new();
                    for c in merged {
                        if pruned.len() == max_cuts {
                            break;
                        }
                        if !pruned.iter().any(|p| p.dominates(&c)) {
                            pruned.push(c);
                        }
                    }
                    pruned.push(Cut::trivial(i as u32));
                    pruned
                }
            };
            all.push(cuts);
        }
        all
    }

    /// Whole enumerations on random graphs (reconvergent, with latches)
    /// equal the reference for every `k` and several priority bounds.
    #[test]
    fn enumerate_cuts_matches_reference() {
        let mut state = 0x5EED_0FC0_75AB_CDEFu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..30 {
            let mut g = Aig::new("t");
            let mut lits: Vec<AigLit> = (0..5).map(|_| g.add_input()).collect();
            if round % 2 == 0 {
                lits.push(g.add_latch(ResetKind::None, false));
            }
            for _ in 0..40 {
                let a = lits[(rng() % lits.len() as u64) as usize];
                let b = lits[(rng() % lits.len() as u64) as usize];
                let a = a.with_complement(a.is_complemented() ^ (rng() & 1 != 0));
                let b = b.with_complement(b.is_complemented() ^ (rng() & 1 != 0));
                let y = g.and(a, b);
                if !y.is_constant() {
                    lits.push(y);
                }
            }
            for k in 0..=MAX_K {
                for max_cuts in [0, 1, 3, 8, 100] {
                    assert_eq!(
                        enumerate_cuts(&g, k, max_cuts),
                        enumerate_reference(&g, k, max_cuts),
                        "round {round} k={k} max_cuts={max_cuts}"
                    );
                }
            }
        }
    }

    /// `max_cuts = 0` keeps only the trivial cut; `1` keeps one more.
    #[test]
    fn max_cuts_bounds_the_non_trivial_cuts() {
        let mut g = Aig::new("t");
        let a = g.add_input();
        let b = g.add_input();
        let c = g.add_input();
        let ab = g.and(a, b);
        let y = g.and(ab, c);
        for max_cuts in 0..3usize {
            let cuts = enumerate_cuts(&g, 4, max_cuts);
            let cs = &cuts[y.node() as usize];
            assert_eq!(cs.len(), max_cuts + 1, "max_cuts={max_cuts}: {cs:?}");
            assert_eq!(cs.last().unwrap().leaves(), [y.node()]);
        }
    }

    #[test]
    fn base_cut_is_the_fanin_pair() {
        let mut g = Aig::new("t");
        let a = g.add_input();
        let b = g.add_input();
        let y = g.and(a, !b);
        let cuts = enumerate_cuts(&g, 4, 8);
        let cs = &cuts[y.node() as usize];
        // Fanin-pair cut plus the trivial cut.
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].leaves(), [a.node(), b.node()]);
        // a & !b over (a=var0, b=var1): minterm {a=1,b=0} = 0b01 → bit 1.
        assert_eq!(cs[0].tt, 0b0010);
        assert_eq!(cs[1].leaves(), [y.node()]);
    }

    #[test]
    fn cuts_grow_through_the_cone_and_match_simulation() {
        let mut g = Aig::new("t");
        let a = g.add_input();
        let b = g.add_input();
        let c = g.add_input();
        let d = g.add_input();
        let ab = g.and(a, b);
        let cd = g.or(c, d);
        let y = g.and(ab, cd);
        let x = g.xor(y, a);
        let cuts = enumerate_cuts(&g, 4, 8);
        for node in 0..g.node_count() as u32 {
            for (ci, cut) in cuts[node as usize].iter().enumerate() {
                check_cut(&g, node, cut, 0x9E37 + ci as u64);
            }
        }
        // y has the 4-leaf cut {a,b,c,d}: (a&b) & (c|d).
        let wide = cuts[y.node() as usize]
            .iter()
            .find(|cu| cu.len() == 4)
            .expect("4-leaf cut");
        assert_eq!(wide.leaves(), [a.node(), b.node(), c.node(), d.node()]);
        let _ = x;
    }

    #[test]
    fn support_reduction_drops_vacuous_leaves() {
        // f = (a & b) | (a & !b) = a: the b leaf must vanish.
        let cut = support_reduce(&[3, 7], 0b1010);
        assert_eq!(cut.leaves(), [3]);
        assert_eq!(cut.tt, 0b10);
        // Constant function: all leaves vanish.
        let c = support_reduce(&[3, 7], 0b1111);
        assert!(c.is_empty());
        assert_eq!(c.tt, 1);
    }

    #[test]
    fn random_graphs_have_sound_cut_tables() {
        let mut state = 0xFEED_FACE_CAFE_BEEFu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20 {
            let mut g = Aig::new("t");
            let inputs: Vec<AigLit> = (0..4).map(|_| g.add_input()).collect();
            let mut lits = inputs.clone();
            for _ in 0..25 {
                let a = lits[(rng() % lits.len() as u64) as usize];
                let b = lits[(rng() % lits.len() as u64) as usize];
                let a = a.with_complement(a.is_complemented() ^ (rng() & 1 != 0));
                let b = b.with_complement(b.is_complemented() ^ (rng() & 1 != 0));
                let y = g.and(a, b);
                if !y.is_constant() {
                    lits.push(y);
                }
            }
            let cuts = enumerate_cuts(&g, 4, 8);
            for node in 0..g.node_count() as u32 {
                for (ci, cut) in cuts[node as usize].iter().enumerate() {
                    check_cut(&g, node, cut, rng() | ci as u64);
                }
            }
        }
    }
}
