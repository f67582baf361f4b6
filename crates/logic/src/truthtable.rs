//! Complete single-output boolean functions.

use crate::{BitVec, LogicError, MAX_TT_INPUTS};

/// A complete truth table for a boolean function of `inputs` variables.
///
/// Minterm `m` assigns variable `i` the value of bit `i` of `m` (variable 0
/// is the least significant address bit).
///
/// # Examples
///
/// ```
/// use synthir_logic::TruthTable;
///
/// let xor = TruthTable::from_fn(2, |m| (m.count_ones() % 2) == 1);
/// assert!(xor.eval(0b01));
/// assert!(!xor.eval(0b11));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    inputs: usize,
    bits: BitVec,
}

impl TruthTable {
    /// Builds a truth table by evaluating `f` on every minterm.
    ///
    /// # Panics
    ///
    /// Panics if `inputs > MAX_TT_INPUTS`.
    pub fn from_fn(inputs: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        assert!(
            inputs <= MAX_TT_INPUTS,
            "truth table over {inputs} inputs exceeds maximum {MAX_TT_INPUTS}"
        );
        TruthTable {
            inputs,
            bits: BitVec::from_fn(1 << inputs, &mut f),
        }
    }

    /// Fallible variant of [`TruthTable::from_fn`].
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::TooManyVariables`] if `inputs > MAX_TT_INPUTS`.
    pub fn try_from_fn(inputs: usize, f: impl FnMut(usize) -> bool) -> Result<Self, LogicError> {
        if inputs > MAX_TT_INPUTS {
            return Err(LogicError::TooManyVariables {
                requested: inputs,
                max: MAX_TT_INPUTS,
            });
        }
        Ok(TruthTable::from_fn(inputs, f))
    }

    /// The constant-false function of `inputs` variables.
    pub fn constant(inputs: usize, value: bool) -> Self {
        TruthTable::from_fn(inputs, |_| value)
    }

    /// The projection onto variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= inputs`.
    pub fn variable(inputs: usize, var: usize) -> Self {
        assert!(var < inputs, "variable {var} out of range ({inputs})");
        TruthTable::from_fn(inputs, |m| m >> var & 1 != 0)
    }

    /// Builds a truth table from an explicit output column
    /// (`bits.len() == 2^inputs`).
    ///
    /// # Panics
    ///
    /// Panics if the length is not `2^inputs`.
    pub fn from_bits(inputs: usize, bits: BitVec) -> Self {
        assert_eq!(bits.len(), 1usize << inputs, "truth table length mismatch");
        TruthTable { inputs, bits }
    }

    /// Number of input variables.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of minterms (`2^inputs`).
    pub fn num_minterms(&self) -> usize {
        1 << self.inputs
    }

    /// Evaluates the function on minterm `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m >= 2^inputs`.
    pub fn eval(&self, m: usize) -> bool {
        self.bits.get(m)
    }

    /// Underlying output column.
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// Number of minterms that evaluate to one.
    pub fn count_ones(&self) -> usize {
        self.bits.count_ones()
    }

    /// Whether the function is constant, and its value if so.
    pub fn as_constant(&self) -> Option<bool> {
        if self.bits.all_zeros() {
            Some(false)
        } else if self.bits.all_ones() {
            Some(true)
        } else {
            None
        }
    }

    /// The positive/negative cofactor with respect to variable `var`.
    ///
    /// The returned table still ranges over the same variable numbering, but
    /// no longer depends on `var`.
    pub fn cofactor(&self, var: usize, value: bool) -> TruthTable {
        assert!(var < self.inputs, "variable out of range");
        TruthTable::from_fn(self.inputs, |m| {
            let m = if value {
                m | (1 << var)
            } else {
                m & !(1 << var)
            };
            self.eval(m)
        })
    }

    /// Whether the function depends on variable `var`: whether its two
    /// cofactors with respect to `var` differ.
    ///
    /// Compared word by word, without building the cofactors: for
    /// `var < 6` each word is compared with itself shifted by `2^var` under
    /// the mask of the minterms with `var` clear; for `var >= 6` the
    /// minterm `m` and `m | 1 << var` sit in words `2^(var - 6)` apart, so
    /// whole words are compared in pairs.
    ///
    /// # Panics
    ///
    /// Panics if `var >= inputs`.
    pub fn depends_on(&self, var: usize) -> bool {
        /// The minterms (of a 64-minterm word) with variable `i` clear.
        const VAR_CLEAR: [u64; 6] = [
            0x5555_5555_5555_5555,
            0x3333_3333_3333_3333,
            0x0F0F_0F0F_0F0F_0F0F,
            0x00FF_00FF_00FF_00FF,
            0x0000_FFFF_0000_FFFF,
            0x0000_0000_FFFF_FFFF,
        ];
        assert!(var < self.inputs, "variable out of range");
        let words = self.bits.words();
        match VAR_CLEAR.get(var) {
            // Bits past the table's end are zero in both operands, so a
            // table shorter than a word compares correctly too.
            Some(&clear) => words.iter().any(|&w| (w ^ w >> (1 << var)) & clear != 0),
            None => {
                let stride = 1 << (var - 6);
                words
                    .chunks_exact(2 * stride)
                    .any(|pair| pair[..stride] != pair[stride..])
            }
        }
    }

    /// The set of variables the function actually depends on.
    pub fn support(&self) -> Vec<usize> {
        (0..self.inputs).filter(|&v| self.depends_on(v)).collect()
    }

    /// Pointwise AND of two functions over the same variables.
    ///
    /// # Panics
    ///
    /// Panics if the input counts differ.
    pub fn and(&self, other: &TruthTable) -> TruthTable {
        assert_eq!(self.inputs, other.inputs);
        let mut bits = self.bits.clone();
        bits.and_assign(&other.bits);
        TruthTable::from_bits(self.inputs, bits)
    }

    /// Pointwise OR of two functions over the same variables.
    ///
    /// # Panics
    ///
    /// Panics if the input counts differ.
    pub fn or(&self, other: &TruthTable) -> TruthTable {
        assert_eq!(self.inputs, other.inputs);
        let mut bits = self.bits.clone();
        bits.or_assign(&other.bits);
        TruthTable::from_bits(self.inputs, bits)
    }

    /// Pointwise XOR of two functions over the same variables.
    ///
    /// # Panics
    ///
    /// Panics if the input counts differ.
    pub fn xor(&self, other: &TruthTable) -> TruthTable {
        assert_eq!(self.inputs, other.inputs);
        let mut bits = self.bits.clone();
        bits.xor_assign(&other.bits);
        TruthTable::from_bits(self.inputs, bits)
    }

    /// The complement of the function.
    pub fn not(&self) -> TruthTable {
        TruthTable::from_bits(self.inputs, self.bits.to_not())
    }

    /// Iterator over the minterms where the function is one.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter_ones()
    }
}

impl std::fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TruthTable({} vars, {:?})", self.inputs, self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_variables() {
        let t = TruthTable::constant(3, true);
        assert_eq!(t.as_constant(), Some(true));
        let f = TruthTable::constant(3, false);
        assert_eq!(f.as_constant(), Some(false));
        let v1 = TruthTable::variable(3, 1);
        assert_eq!(v1.as_constant(), None);
        assert!(v1.eval(0b010));
        assert!(!v1.eval(0b101));
        assert_eq!(v1.support(), vec![1]);
    }

    #[test]
    fn cofactor_removes_dependence() {
        let f = TruthTable::from_fn(3, |m| (m & 1 != 0) && (m & 4 != 0));
        assert!(f.depends_on(0));
        assert!(!f.depends_on(1));
        assert!(f.depends_on(2));
        let c = f.cofactor(0, true);
        assert!(!c.depends_on(0));
        // f with a=1 is just c (var 2).
        assert_eq!(c, TruthTable::variable(3, 2));
        let c0 = f.cofactor(0, false);
        assert_eq!(c0.as_constant(), Some(false));
    }

    #[test]
    fn boolean_algebra() {
        let a = TruthTable::variable(2, 0);
        let b = TruthTable::variable(2, 1);
        let and = a.and(&b);
        assert_eq!(and.count_ones(), 1);
        assert!(and.eval(0b11));
        let or = a.or(&b);
        assert_eq!(or.count_ones(), 3);
        let xor = a.xor(&b);
        assert_eq!(xor.count_ones(), 2);
        // De Morgan.
        assert_eq!(a.and(&b).not(), a.not().or(&b.not()));
    }

    #[test]
    fn try_from_fn_rejects_large() {
        let r = TruthTable::try_from_fn(MAX_TT_INPUTS + 1, |_| false);
        assert!(matches!(r, Err(LogicError::TooManyVariables { .. })));
    }

    #[test]
    fn iter_ones_is_sound() {
        let f = TruthTable::from_fn(4, |m| m % 5 == 0);
        let ones: Vec<usize> = f.iter_ones().collect();
        assert_eq!(ones, vec![0, 5, 10, 15]);
    }

    /// The definition the word-level `depends_on` replaced: the two
    /// cofactors, built bit by bit, differ.
    fn depends_on_oracle(f: &TruthTable, var: usize) -> bool {
        f.cofactor(var, false) != f.cofactor(var, true)
    }

    fn check_against_oracle(f: &TruthTable) {
        let expected: Vec<usize> = (0..f.inputs())
            .filter(|&v| depends_on_oracle(f, v))
            .collect();
        assert_eq!(f.support(), expected, "{f:?}");
        for v in 0..f.inputs() {
            assert_eq!(f.depends_on(v), depends_on_oracle(f, v), "{f:?} var {v}");
        }
    }

    /// A SplitMix64 step, for seeded random tables.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn word_level_depends_on_matches_cofactor_oracle() {
        let mut state = 7u64;
        let mut vacuous = [0usize; 2]; // vacuous variables below 6, at 6 and up
        for k in 0..=10usize {
            check_against_oracle(&TruthTable::constant(k, false));
            check_against_oracle(&TruthTable::constant(k, true));
            for v in 0..k {
                check_against_oracle(&TruthTable::variable(k, v));
            }
            for _ in 0..40 {
                // Dense random tables depend on every variable; a random
                // table over a random subset of the variables leaves the
                // others vacuous, wherever they sit.
                let keep = mix(&mut state) as usize & ((1 << k) - 1);
                let seed = mix(&mut state);
                let dense = TruthTable::from_fn(k, |m| {
                    let mut s = seed ^ m as u64;
                    mix(&mut s) & 1 != 0
                });
                let sparse = TruthTable::from_fn(k, |m| {
                    let mut s = seed ^ (m & keep) as u64;
                    mix(&mut s) & 1 != 0
                });
                check_against_oracle(&dense);
                check_against_oracle(&sparse);
                for v in (0..k).filter(|&v| !sparse.depends_on(v)) {
                    vacuous[usize::from(v >= 6)] += 1;
                }
            }
            // Structured tables: an AND and a parity of every other
            // variable, a threshold over all of them.
            let odd = |m: usize| m & 0x2AA;
            check_against_oracle(&TruthTable::from_fn(k, |m| {
                odd(m) == odd(usize::MAX) & ((1 << k) - 1)
            }));
            check_against_oracle(&TruthTable::from_fn(k, |m| odd(m).count_ones() % 2 == 1));
            check_against_oracle(&TruthTable::from_fn(k, |m| {
                2 * m.count_ones() as usize >= k
            }));
        }
        assert!(
            vacuous[0] > 100 && vacuous[1] > 100,
            "vacuous variables below/at-or-above 6: {vacuous:?}"
        );
    }

    #[test]
    fn support_of_parity_is_all_vars() {
        let f = TruthTable::from_fn(5, |m| m.count_ones() % 2 == 1);
        assert_eq!(f.support().len(), 5);
    }
}
