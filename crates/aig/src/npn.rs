//! NPN canonicalization of ≤ 4-variable truth tables.
//!
//! Two boolean functions are **NPN-equivalent** when one can be obtained
//! from the other by Negating inputs, Permuting inputs, and/or Negating
//! the output. Technology mapping matches cut functions against library
//! cells *up to* NPN equivalence: a single `AND2` cell realizes all eight
//! functions of the form `±(±a · ±b)` once input/output inverters (free
//! complemented edges in the AIG, real `Inv` cells at netlist emission)
//! are accounted for. Canonicalizing both the cut function and every cell
//! function reduces matching to one hash lookup per cut.
//!
//! Truth tables are the dense `u16` encoding of [`crate::cuts`]: bit `m`
//! is the function value on minterm `m`, variable `i` contributes bit `i`
//! of `m`, and only the low `2^n` bits of an `n`-variable table are
//! meaningful.
//!
//! # Examples
//!
//! ```
//! use synthir_aig::npn::{canonicalize, NpnTransform};
//!
//! // a & !b and !a & b are NPN-equivalent (swap or flip the inputs)…
//! let (c1, t1) = canonicalize(0b0010, 2);
//! let (c2, t2) = canonicalize(0b0100, 2);
//! assert_eq!(c1, c2);
//! // …and each transform really maps its function onto the canon.
//! assert_eq!(t1.apply(0b0010, 2), c1);
//! assert_eq!(t2.apply(0b0100, 2), c2);
//! // XOR is in a different class.
//! let (cx, _) = canonicalize(0b0110, 2);
//! assert_ne!(c1, cx);
//! ```

/// The truth-table word of variable `i` (of up to four), dense encoding.
pub const VAR_MASKS: [u16; 4] = [0xAAAA, 0xCCCC, 0xF0F0, 0xFF00];

/// The all-ones mask of an `n`-variable truth table (`n ≤ 4`).
pub fn tt_mask(n: usize) -> u16 {
    debug_assert!(n <= 4);
    if n == 4 {
        0xFFFF
    } else {
        (1u16 << (1 << n)) - 1
    }
}

/// An NPN transform: an input permutation, per-input complement flags,
/// and an output complement flag.
///
/// Applied to a function `f` by [`NpnTransform::apply`], the result `g`
/// satisfies `g(x_0, …, x_{n-1}) = f(y_0, …, y_{n-1}) ^ negate` with
/// `y_{perm[i]} = x_i ^ flip_i` — i.e. variable `i` of `g` drives
/// variable `perm[i]` of `f`, complemented when bit `i` of `flips` is
/// set. This is exactly the data a technology mapper needs: if a library
/// cell computes `f` over its pins, then `g` is realized by feeding
/// *cut leaf* `i` (inverted per `flips`) into *cell pin* `perm[i]` and
/// inverting the output per `negate`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NpnTransform {
    /// `perm[i]` is the target variable that source variable `i` drives.
    pub perm: [u8; 4],
    /// Bit `i` complements source variable `i` before it drives `perm[i]`.
    pub flips: u8,
    /// Complement the output.
    pub negate: bool,
}

impl NpnTransform {
    /// The identity transform on `n` variables.
    pub fn identity() -> NpnTransform {
        NpnTransform {
            perm: [0, 1, 2, 3],
            flips: 0,
            negate: false,
        }
    }

    /// Applies the transform to an `n`-variable truth table.
    pub fn apply(&self, tt: u16, n: usize) -> u16 {
        let mut out = 0u16;
        for m in 0..1u32 << n {
            let mut target = 0u32;
            for i in 0..n {
                let bit = (m >> i) & 1 ^ u32::from(self.flips >> i & 1);
                target |= bit << self.perm[i];
            }
            let v = (tt >> target) & 1 ^ u16::from(self.negate);
            out |= v << m;
        }
        out
    }

    /// The composition `self ∘ other`: applying the result equals applying
    /// `other` first, then `self` (`(self ∘ other).apply(f) ==
    /// self.apply(other.apply(f))`).
    pub fn compose(&self, other: &NpnTransform, n: usize) -> NpnTransform {
        let mut perm = [0u8; 4];
        let mut flips = 0u8;
        for (i, &p) in self.perm.iter().enumerate().take(n) {
            let mid = p as usize;
            perm[i] = other.perm[mid];
            flips |= ((self.flips >> i & 1) ^ (other.flips >> mid & 1)) << i;
        }
        for (i, p) in perm.iter_mut().enumerate().skip(n) {
            *p = i as u8;
        }
        NpnTransform {
            perm,
            flips,
            negate: self.negate ^ other.negate,
        }
    }

    /// The inverse transform: `t.inverse(n).apply(t.apply(f, n), n) == f`.
    pub fn inverse(&self, n: usize) -> NpnTransform {
        let mut perm = [0u8; 4];
        let mut flips = 0u8;
        for (i, &pj) in self.perm.iter().enumerate().take(n) {
            let j = pj as usize;
            perm[j] = i as u8;
            flips |= (self.flips >> i & 1) << j;
        }
        for (i, p) in perm.iter_mut().enumerate().skip(n) {
            *p = i as u8;
        }
        NpnTransform {
            perm,
            flips,
            negate: self.negate,
        }
    }
}

/// All permutations of `0..n` (n ≤ 4), identity-padded to four entries,
/// in lexicographic order. Static tables: canonicalization sits in the
/// technology mapper's hottest loop, so the permutation sets must not be
/// regenerated (allocated, sorted) per call.
fn permutations(n: usize) -> &'static [[u8; 4]] {
    const P1: [[u8; 4]; 1] = [[0, 1, 2, 3]];
    const P2: [[u8; 4]; 2] = [[0, 1, 2, 3], [1, 0, 2, 3]];
    const P3: [[u8; 4]; 6] = [
        [0, 1, 2, 3],
        [0, 2, 1, 3],
        [1, 0, 2, 3],
        [1, 2, 0, 3],
        [2, 0, 1, 3],
        [2, 1, 0, 3],
    ];
    const P4: [[u8; 4]; 24] = [
        [0, 1, 2, 3],
        [0, 1, 3, 2],
        [0, 2, 1, 3],
        [0, 2, 3, 1],
        [0, 3, 1, 2],
        [0, 3, 2, 1],
        [1, 0, 2, 3],
        [1, 0, 3, 2],
        [1, 2, 0, 3],
        [1, 2, 3, 0],
        [1, 3, 0, 2],
        [1, 3, 2, 0],
        [2, 0, 1, 3],
        [2, 0, 3, 1],
        [2, 1, 0, 3],
        [2, 1, 3, 0],
        [2, 3, 0, 1],
        [2, 3, 1, 0],
        [3, 0, 1, 2],
        [3, 0, 2, 1],
        [3, 1, 0, 2],
        [3, 1, 2, 0],
        [3, 2, 0, 1],
        [3, 2, 1, 0],
    ];
    match n {
        0 | 1 => &P1,
        2 => &P2,
        3 => &P3,
        4 => &P4,
        _ => panic!("NPN tables support at most 4 variables"),
    }
}

/// Swaps adjacent variables `v` and `v + 1` (`v < 3`) of a 16-bit table:
/// minterms with `x_v = 1, x_{v+1} = 0` trade places with their mirror
/// images, everything else stays.
pub(crate) fn swap_adjacent(tt: u16, v: usize) -> u16 {
    // Minterms with x_v = 1 and x_{v+1} = 0; their mirrors sit 2^v higher.
    const UP: [u16; 3] = [0x2222, 0x0C0C, 0x00F0];
    let s = 1 << v;
    let up = UP[v];
    let down = up << s;
    (tt & !(up | down)) | (tt & up) << s | (tt & down) >> s
}

/// Complements variable `v` of a 16-bit table: swaps the halves where
/// `x_v = 0` and `x_v = 1`.
pub(crate) fn flip_var(tt: u16, v: usize) -> u16 {
    let s = 1 << v;
    (tt & VAR_MASKS[v]) >> s | (tt & !VAR_MASKS[v]) << s
}

/// Whether a 16-bit table depends on variable `v`: its two cofactors,
/// aligned onto the `x_v = 0` half, differ.
pub(crate) fn depends_on(tt: u16, v: usize) -> bool {
    (tt & VAR_MASKS[v]) >> (1 << v) != tt & !VAR_MASKS[v]
}

/// Renames the variables of an `n`-variable table: variable `i` of the
/// result is variable `perm[i]` of `tt` (the flip- and negate-free part of
/// [`NpnTransform::apply`]). Bubbles each target variable down into place
/// with adjacent swaps — at most six for four variables.
fn permute(tt: u16, perm: &[u8; 4], n: usize) -> u16 {
    let mut at = [0u8, 1, 2, 3];
    let mut t = tt;
    for (i, &target) in perm.iter().enumerate().take(n) {
        let mut p = i;
        while at[p] != target {
            p += 1;
        }
        while p > i {
            t = swap_adjacent(t, p - 1);
            at.swap(p - 1, p);
            p -= 1;
        }
    }
    t
}

/// Canonicalizes an `n`-variable truth table (`n ≤ 4`) under NPN
/// equivalence by exhaustive search over all `n! · 2ⁿ · 2` (at most 768)
/// transforms: returns the canonical representative — the numerically
/// smallest reachable table — and a transform `t` with
/// `t.apply(tt, n) == canon`.
///
/// Two tables are NPN-equivalent iff their canons are equal, which is the
/// invariant the technology mapper's library index rests on.
///
/// # Cost
///
/// The search works on whole 16-bit table words: each of the ≤ 24
/// permutations is applied once (≤ 6 adjacent-variable swaps), the 2ⁿ
/// input-flip variants of that table follow by one half-swap each, and
/// output negation is a complement. Transforms are visited in the order
/// permutations (lexicographic) × `flips` (ascending) × `negate`
/// (`false`, `true`) and only a strictly smaller table replaces the best,
/// so both the canon *and* the returned transform are exactly those of
/// the one-minterm-at-a-time search over [`NpnTransform::apply`].
pub fn canonicalize(tt: u16, n: usize) -> (u16, NpnTransform) {
    let mask = tt_mask(n);
    let tt = tt & mask;
    let mut best = tt;
    let mut best_t = NpnTransform::identity();
    let mut flipped = [0u16; 16];
    for &perm in permutations(n) {
        flipped[0] = permute(tt, &perm, n);
        for flips in 1..1usize << n {
            // Flip the lowest set variable on top of the variant without it.
            flipped[flips] = flip_var(
                flipped[flips & (flips - 1)],
                flips.trailing_zeros() as usize,
            );
        }
        for (flips, &g) in flipped[..1 << n].iter().enumerate() {
            for (cand, negate) in [(g, false), (!g & mask, true)] {
                if cand < best {
                    best = cand;
                    best_t = NpnTransform {
                        perm,
                        flips: flips as u8,
                        negate,
                    };
                }
            }
        }
    }
    (best, best_t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// The minterm-at-a-time search [`canonicalize`] must reproduce
    /// exactly: every transform in the documented visiting order, each
    /// applied in full by [`NpnTransform::apply`].
    fn canonicalize_reference(tt: u16, n: usize) -> (u16, NpnTransform) {
        let tt = tt & tt_mask(n);
        let mut best = tt;
        let mut best_t = NpnTransform::identity();
        for &perm in permutations(n) {
            for flips in 0..1u8 << n {
                for negate in [false, true] {
                    let t = NpnTransform {
                        perm,
                        flips,
                        negate,
                    };
                    let cand = t.apply(tt, n);
                    if cand < best {
                        best = cand;
                        best_t = t;
                    }
                }
            }
        }
        (best, best_t)
    }

    fn assert_matches_reference(tt: u16, n: usize) {
        assert_eq!(
            canonicalize(tt, n),
            canonicalize_reference(tt, n),
            "n={n} tt={tt:#06x}"
        );
    }

    /// Every table of 0–3 variables: same canon and same transform.
    #[test]
    fn canonicalize_matches_reference_on_every_small_table() {
        for n in 0..=3usize {
            for tt in 0..1u32 << (1 << n) {
                assert_matches_reference(tt as u16, n);
            }
        }
    }

    /// Every library cell function, at its own arity (the index side of
    /// the mapper's matching equation).
    #[test]
    fn canonicalize_matches_reference_on_library_cells() {
        for kind in synthir_netlist::GateKind::all_combinational() {
            assert_matches_reference(kind.truth_table(), kind.arity());
        }
    }

    /// Seeded 4-variable tables, plus tables with high garbage bits the
    /// mask must clear.
    #[test]
    fn canonicalize_matches_reference_on_seeded_four_var_tables() {
        let mut rng = 0x0BAD_5EED_DEC0_DE42u64;
        for _ in 0..2500 {
            assert_matches_reference(xorshift(&mut rng) as u16, 4);
        }
        for n in 0..4usize {
            for _ in 0..50 {
                assert_matches_reference(xorshift(&mut rng) as u16, n);
            }
        }
    }

    /// All 65 536 4-variable tables. About a minute in a debug build, a
    /// few seconds in release: `cargo test --release -p synthir-aig --
    /// --ignored`.
    #[test]
    #[ignore = "exhaustive; run in release with --ignored"]
    fn canonicalize_matches_reference_on_every_four_var_table() {
        for tt in 0..=u16::MAX {
            assert_matches_reference(tt, 4);
        }
    }

    /// The word kernels agree with [`NpnTransform::apply`]: renaming by a
    /// permutation, then flipping each flagged variable, then negating.
    #[test]
    fn word_kernels_match_apply() {
        let mut rng = 0x2468_ACE0_1357_9BDFu64;
        for n in 1..=4usize {
            for _ in 0..300 {
                let t = random_transform(n, &mut rng);
                let f = (xorshift(&mut rng) as u16) & tt_mask(n);
                let mut g = permute(f, &t.perm, n);
                for v in 0..n {
                    if t.flips >> v & 1 != 0 {
                        g = flip_var(g, v);
                    }
                }
                if t.negate {
                    g = !g & tt_mask(n);
                }
                assert_eq!(g, t.apply(f, n), "n={n} t={t:?} f={f:#06x}");
            }
        }
    }

    #[test]
    fn dependence_test_matches_cofactors() {
        let mut rng = 0x1111_2222_3333_4444u64;
        for _ in 0..500 {
            let f = xorshift(&mut rng) as u16;
            for v in 0..4usize {
                let differs = (0..16u32)
                    .filter(|m| m >> v & 1 == 0)
                    .any(|m| (f >> m & 1) != (f >> (m | 1 << v) & 1));
                assert_eq!(depends_on(f, v), differs, "f={f:#06x} v={v}");
            }
        }
    }

    fn random_transform(n: usize, rng: &mut u64) -> NpnTransform {
        let perms = permutations(n);
        NpnTransform {
            perm: perms[(xorshift(rng) % perms.len() as u64) as usize],
            flips: (xorshift(rng) as u8) & ((1u8 << n) - 1),
            negate: xorshift(rng) & 1 != 0,
        }
    }

    #[test]
    fn identity_applies_as_identity() {
        for n in 0..=4usize {
            for tt in [0x0000u16, 0x1234, 0xFFFF, 0x8001] {
                let tt = tt & tt_mask(n);
                assert_eq!(NpnTransform::identity().apply(tt, n), tt);
            }
        }
    }

    #[test]
    fn compose_matches_sequential_application() {
        let mut rng = 0xDEAD_BEEF_1234_5678u64;
        for n in 1..=4usize {
            for _ in 0..200 {
                let t1 = random_transform(n, &mut rng);
                let t2 = random_transform(n, &mut rng);
                let f = (xorshift(&mut rng) as u16) & tt_mask(n);
                let seq = t1.apply(t2.apply(f, n), n);
                let composed = t1.compose(&t2, n).apply(f, n);
                assert_eq!(seq, composed, "n={n} t1={t1:?} t2={t2:?} f={f:#06x}");
            }
        }
    }

    #[test]
    fn inverse_round_trips() {
        let mut rng = 0x1357_9BDF_2468_ACE0u64;
        for n in 1..=4usize {
            for _ in 0..200 {
                let t = random_transform(n, &mut rng);
                let f = (xorshift(&mut rng) as u16) & tt_mask(n);
                assert_eq!(t.inverse(n).apply(t.apply(f, n), n), f);
                assert_eq!(t.apply(t.inverse(n).apply(f, n), n), f);
            }
        }
    }

    /// Exhaustive over every 2-variable function and every transform:
    /// canonicalization is a true NPN-class invariant.
    #[test]
    fn two_var_canon_is_exhaustively_invariant() {
        for tt in 0..16u16 {
            let (canon, t) = canonicalize(tt, 2);
            assert_eq!(t.apply(tt, 2), canon, "transform maps {tt:#x} to canon");
            for &perm in permutations(2) {
                for flips in 0..4u8 {
                    for negate in [false, true] {
                        let var = NpnTransform {
                            perm,
                            flips,
                            negate,
                        }
                        .apply(tt, 2);
                        assert_eq!(
                            canonicalize(var, 2).0,
                            canon,
                            "{tt:#x} variant {var:#x} canonicalizes differently"
                        );
                    }
                }
            }
        }
    }

    /// All 256 3-variable functions: canon invariance under every
    /// transform of the class.
    #[test]
    fn three_var_canon_is_exhaustively_invariant() {
        for tt in 0..256u16 {
            let (canon, t) = canonicalize(tt, 3);
            assert_eq!(t.apply(tt, 3), canon);
            for &perm in permutations(3) {
                for flips in 0..8u8 {
                    let var = NpnTransform {
                        perm,
                        flips,
                        negate: (tt ^ u16::from(flips)) & 1 != 0, // vary both phases across the sweep
                    }
                    .apply(tt, 3);
                    assert_eq!(canonicalize(var, 3).0, canon);
                }
            }
        }
    }

    #[test]
    fn known_classes() {
        // All and-type 2-var functions share one class.
        let and_class: Vec<u16> = vec![
            0b1000, 0b0100, 0b0010, 0b0001, 0b0111, 0b1011, 0b1101, 0b1110,
        ];
        let canon = canonicalize(and_class[0], 2).0;
        for f in and_class {
            assert_eq!(canonicalize(f, 2).0, canon);
        }
        // XOR/XNOR share a class distinct from AND's.
        let x = canonicalize(0b0110, 2).0;
        assert_eq!(canonicalize(0b1001, 2).0, x);
        assert_ne!(x, canon);
    }
}
