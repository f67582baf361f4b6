//! A compact growable bit-vector.
//!
//! [`BitVec`] backs [`crate::TruthTable`] storage and the bit-parallel
//! simulation vectors used by the synthesis engine's state-propagation pass.

/// A fixed-length vector of bits packed into `u64` words.
///
/// # Examples
///
/// ```
/// use synthir_logic::BitVec;
///
/// let mut bv = BitVec::zeros(100);
/// bv.set(42, true);
/// assert!(bv.get(42));
/// assert_eq!(bv.count_ones(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates a bit-vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a bit-vector of `len` one bits.
    pub fn ones(len: usize) -> Self {
        let mut bv = BitVec {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        bv.mask_tail();
        bv
    }

    /// Creates a bit-vector from a boolean predicate over bit indices.
    ///
    /// ```
    /// use synthir_logic::BitVec;
    /// let bv = BitVec::from_fn(8, |i| i % 2 == 0);
    /// assert_eq!(bv.count_ones(), 4);
    /// ```
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut bv = BitVec::zeros(len);
        for i in 0..len {
            if f(i) {
                bv.set(i, true);
            }
        }
        bv
    }

    /// Creates a bit-vector of `len` bits from packed words: bit `i` is bit
    /// `i % 64` of word `i / 64`. Bits of the last word past `len` are
    /// ignored.
    ///
    /// ```
    /// use synthir_logic::BitVec;
    /// let bv = BitVec::from_words(4, vec![0b1_0110]);
    /// assert_eq!(bv, BitVec::from_fn(4, |i| i == 1 || i == 2));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` is not `len.div_ceil(64)`.
    pub fn from_words(len: usize, words: Vec<u64>) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(64),
            "{len} bits need {} words",
            len.div_ceil(64)
        );
        let mut bv = BitVec { words, len };
        bv.mask_tail();
        bv
    }

    /// Creates a bit-vector from an iterator of booleans.
    pub fn from_bools(bits: impl IntoIterator<Item = bool>) -> Self {
        let bools: Vec<bool> = bits.into_iter().collect();
        BitVec::from_fn(bools.len(), |i| bools[i])
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range ({})", self.len);
        self.words[i / 64] >> (i % 64) & 1 != 0
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bit index {i} out of range ({})", self.len);
        if v {
            self.words[i / 64] |= 1 << (i % 64);
        } else {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// The packed words: bit `i` is bit `i % 64` of word `i / 64`; bits
    /// past `len` in the last word are zero.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of one bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether every bit is one.
    pub fn all_ones(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Whether every bit is zero.
    pub fn all_zeros(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterator over the indices of one bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }

    /// In-place bitwise AND with another vector of the same length.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// In-place bitwise OR with another vector of the same length.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn or_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// In-place bitwise XOR with another vector of the same length.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= *b;
        }
    }

    /// In-place bitwise NOT.
    pub fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Returns the complement of this vector.
    pub fn to_not(&self) -> BitVec {
        let mut r = self.clone();
        r.not_assign();
        r
    }

    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl std::fmt::Debug for BitVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        let show = self.len.min(64);
        for i in 0..show {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if self.len > 64 {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl std::fmt::Binary for BitVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in (0..self.len).rev() {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        BitVec::from_bools(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitVec::zeros(70);
        assert_eq!(z.len(), 70);
        assert!(z.all_zeros());
        assert!(!z.all_ones());
        let o = BitVec::ones(70);
        assert_eq!(o.count_ones(), 70);
        assert!(o.all_ones());
    }

    #[test]
    fn tail_is_masked_after_not() {
        let mut z = BitVec::zeros(3);
        z.not_assign();
        assert_eq!(z.count_ones(), 3);
        z.not_assign();
        assert!(z.all_zeros());
    }

    #[test]
    fn from_words_matches_from_fn_and_masks_the_tail() {
        let words = vec![0x8000_0000_0000_0001, u64::MAX, 0xF0];
        let bv = BitVec::from_words(130, words.clone());
        let expected = BitVec::from_fn(130, |i| words[i / 64] >> (i % 64) & 1 != 0);
        assert_eq!(bv, expected);
        assert_eq!(bv.count_ones(), 2 + 64);
        assert!(BitVec::from_words(2, vec![u64::MAX]).all_ones());
        assert!(BitVec::from_words(0, vec![]).is_empty());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut bv = BitVec::zeros(130);
        for i in [0, 1, 63, 64, 65, 127, 128, 129] {
            bv.set(i, true);
            assert!(bv.get(i));
        }
        assert_eq!(bv.count_ones(), 8);
        bv.set(64, false);
        assert!(!bv.get(64));
        assert_eq!(bv.count_ones(), 7);
    }

    #[test]
    fn iter_ones_matches_get() {
        let bv = BitVec::from_fn(200, |i| i % 7 == 0);
        let ones: Vec<usize> = bv.iter_ones().collect();
        let expected: Vec<usize> = (0..200).filter(|i| i % 7 == 0).collect();
        assert_eq!(ones, expected);
    }

    #[test]
    fn boolean_ops() {
        let a = BitVec::from_fn(100, |i| i % 2 == 0);
        let b = BitVec::from_fn(100, |i| i % 3 == 0);
        let mut and = a.clone();
        and.and_assign(&b);
        let mut or = a.clone();
        or.or_assign(&b);
        let mut xor = a.clone();
        xor.xor_assign(&b);
        for i in 0..100 {
            assert_eq!(and.get(i), a.get(i) && b.get(i));
            assert_eq!(or.get(i), a.get(i) || b.get(i));
            assert_eq!(xor.get(i), a.get(i) ^ b.get(i));
        }
        assert_eq!(a.to_not().count_ones(), 50);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(8).get(8);
    }

    #[test]
    fn from_bools_and_collect() {
        let bv: BitVec = [true, false, true].into_iter().collect();
        assert_eq!(bv.len(), 3);
        assert!(bv.get(0) && !bv.get(1) && bv.get(2));
        assert_eq!(format!("{bv:b}"), "101");
    }

    #[test]
    fn debug_truncates() {
        let bv = BitVec::zeros(100);
        let dbg = format!("{bv:?}");
        assert!(dbg.contains('…'));
    }
}
