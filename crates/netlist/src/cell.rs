//! Gate kinds and their boolean semantics.

/// Reset behaviour of a flip-flop, matching the three flavours the paper
/// sweeps in its Fig. 8 experiment.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum ResetKind {
    /// No reset pin: the flop powers up in an unknown state (modelled as the
    /// declared init value for simulation purposes).
    None,
    /// Synchronous reset: reset is sampled on the clock edge.
    Sync,
    /// Asynchronous reset: reset forces the output level-sensitively.
    Async,
}

impl std::fmt::Display for ResetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResetKind::None => write!(f, "none"),
            ResetKind::Sync => write!(f, "sync"),
            ResetKind::Async => write!(f, "async"),
        }
    }
}

/// The primitive gate kinds of the synthetic standard-cell library.
///
/// Input ordering conventions:
/// * `Mux2`: `[sel, d0, d1]`, output `sel ? d1 : d0`;
/// * `Aoi21`: `[a, b, c]`, output `!((a & b) | c)`;
/// * `Oai21`: `[a, b, c]`, output `!((a | b) & c)`;
/// * `Aoi22`: `[a, b, c, d]`, output `!((a & b) | (c & d))`;
/// * `Oai22`: `[a, b, c, d]`, output `!((a | b) & (c | d))`;
/// * `Dff`: `[d]` (plus an implicit clock), or `[d, rst]` for resettable
///   flavours.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum GateKind {
    /// Constant logic zero (a tie-low cell; zero area).
    Const0,
    /// Constant logic one (a tie-high cell; zero area).
    Const1,
    /// Non-inverting buffer.
    Buf,
    /// Inverter.
    Inv,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 3-input AND.
    And3,
    /// 3-input OR.
    Or3,
    /// 3-input NAND.
    Nand3,
    /// 3-input NOR.
    Nor3,
    /// 4-input AND.
    And4,
    /// 4-input OR.
    Or4,
    /// 4-input NAND.
    Nand4,
    /// 4-input NOR.
    Nor4,
    /// 2:1 multiplexer.
    Mux2,
    /// AND-OR-invert 2-1.
    Aoi21,
    /// OR-AND-invert 2-1.
    Oai21,
    /// AND-OR-invert 2-2.
    Aoi22,
    /// OR-AND-invert 2-2.
    Oai22,
    /// D flip-flop with the given reset flavour and reset/init value.
    Dff {
        /// Reset behaviour.
        reset: ResetKind,
        /// Reset (and power-up) value.
        init: bool,
    },
}

impl GateKind {
    /// Number of data inputs the gate takes.
    pub fn arity(&self) -> usize {
        match self {
            GateKind::Const0 | GateKind::Const1 => 0,
            GateKind::Buf | GateKind::Inv => 1,
            GateKind::And2
            | GateKind::Or2
            | GateKind::Nand2
            | GateKind::Nor2
            | GateKind::Xor2
            | GateKind::Xnor2 => 2,
            GateKind::And3
            | GateKind::Or3
            | GateKind::Nand3
            | GateKind::Nor3
            | GateKind::Mux2
            | GateKind::Aoi21
            | GateKind::Oai21 => 3,
            GateKind::And4 | GateKind::Or4 | GateKind::Nand4 | GateKind::Nor4 => 4,
            GateKind::Aoi22 | GateKind::Oai22 => 4,
            GateKind::Dff { reset, .. } => match reset {
                ResetKind::None => 1,
                _ => 2,
            },
        }
    }

    /// Whether the gate is a sequential element.
    pub fn is_sequential(&self) -> bool {
        matches!(self, GateKind::Dff { .. })
    }

    /// Whether the gate is a constant source.
    pub fn is_constant(&self) -> bool {
        matches!(self, GateKind::Const0 | GateKind::Const1)
    }

    /// Evaluates the combinational function of the gate.
    ///
    /// # Panics
    ///
    /// Panics for sequential gates or on arity mismatch.
    pub fn eval(&self, ins: &[bool]) -> bool {
        assert_eq!(ins.len(), self.arity(), "arity mismatch for {self:?}");
        match self {
            GateKind::Const0 => false,
            GateKind::Const1 => true,
            GateKind::Buf => ins[0],
            GateKind::Inv => !ins[0],
            GateKind::And2 => ins[0] && ins[1],
            GateKind::Or2 => ins[0] || ins[1],
            GateKind::Nand2 => !(ins[0] && ins[1]),
            GateKind::Nor2 => !(ins[0] || ins[1]),
            GateKind::Xor2 => ins[0] ^ ins[1],
            GateKind::Xnor2 => !(ins[0] ^ ins[1]),
            GateKind::And3 => ins[0] && ins[1] && ins[2],
            GateKind::Or3 => ins[0] || ins[1] || ins[2],
            GateKind::Nand3 => !(ins[0] && ins[1] && ins[2]),
            GateKind::Nor3 => !(ins[0] || ins[1] || ins[2]),
            GateKind::And4 => ins.iter().all(|&b| b),
            GateKind::Or4 => ins.iter().any(|&b| b),
            GateKind::Nand4 => !ins.iter().all(|&b| b),
            GateKind::Nor4 => !ins.iter().any(|&b| b),
            GateKind::Mux2 => {
                if ins[0] {
                    ins[2]
                } else {
                    ins[1]
                }
            }
            GateKind::Aoi21 => !((ins[0] && ins[1]) || ins[2]),
            GateKind::Oai21 => !((ins[0] || ins[1]) && ins[2]),
            GateKind::Aoi22 => !((ins[0] && ins[1]) || (ins[2] && ins[3])),
            GateKind::Oai22 => !((ins[0] || ins[1]) && (ins[2] || ins[3])),
            GateKind::Dff { .. } => panic!("cannot combinationally evaluate a flop"),
        }
    }

    /// Bit-parallel evaluation over 64 patterns at once.
    ///
    /// # Panics
    ///
    /// Panics for sequential gates or on arity mismatch.
    pub fn eval_words(&self, ins: &[u64]) -> u64 {
        self.eval_lanes(ins)
    }

    /// Bit-parallel evaluation over a block of `N` 64-pattern words per
    /// pin: word `b` of the result is [`GateKind::eval_words`] of word `b`
    /// of every pin. The kind is dispatched once per block, not once per
    /// word, which is what makes simulating many words gate by gate cheap.
    ///
    /// # Panics
    ///
    /// Panics for sequential gates or on arity mismatch.
    pub fn eval_block<const N: usize>(&self, ins: &[[u64; N]]) -> [u64; N] {
        self.eval_lanes(ins)
    }

    fn eval_lanes<W: Lanes>(&self, ins: &[W]) -> W {
        assert_eq!(ins.len(), self.arity(), "arity mismatch for {self:?}");
        let x = |i: usize| ins[i];
        match self {
            GateKind::Const0 => W::ZERO,
            GateKind::Const1 => W::ONES,
            GateKind::Buf => x(0),
            GateKind::Inv => x(0).not(),
            GateKind::And2 => x(0).and(x(1)),
            GateKind::Or2 => x(0).or(x(1)),
            GateKind::Nand2 => x(0).and(x(1)).not(),
            GateKind::Nor2 => x(0).or(x(1)).not(),
            GateKind::Xor2 => x(0).xor(x(1)),
            GateKind::Xnor2 => x(0).xor(x(1)).not(),
            GateKind::And3 => x(0).and(x(1)).and(x(2)),
            GateKind::Or3 => x(0).or(x(1)).or(x(2)),
            GateKind::Nand3 => x(0).and(x(1)).and(x(2)).not(),
            GateKind::Nor3 => x(0).or(x(1)).or(x(2)).not(),
            GateKind::And4 => x(0).and(x(1)).and(x(2)).and(x(3)),
            GateKind::Or4 => x(0).or(x(1)).or(x(2)).or(x(3)),
            GateKind::Nand4 => x(0).and(x(1)).and(x(2)).and(x(3)).not(),
            GateKind::Nor4 => x(0).or(x(1)).or(x(2)).or(x(3)).not(),
            GateKind::Mux2 => x(0).and(x(2)).or(x(0).not().and(x(1))),
            GateKind::Aoi21 => x(0).and(x(1)).or(x(2)).not(),
            GateKind::Oai21 => x(0).or(x(1)).and(x(2)).not(),
            GateKind::Aoi22 => x(0).and(x(1)).or(x(2).and(x(3))).not(),
            GateKind::Oai22 => x(0).or(x(1)).and(x(2).or(x(3))).not(),
            GateKind::Dff { .. } => panic!("cannot combinationally evaluate a flop"),
        }
    }

    /// The dense truth table of a combinational gate over its
    /// [`GateKind::arity`] pins: bit `m` is the output on minterm `m`,
    /// where pin `i` contributes bit `i` of `m`. Only the low
    /// `2^arity` bits are meaningful (all kinds have arity ≤ 4). This is
    /// the cell-function metadata the cut-based technology mapper builds
    /// its NPN index from.
    ///
    /// # Examples
    ///
    /// ```
    /// use synthir_netlist::GateKind;
    ///
    /// assert_eq!(GateKind::And2.truth_table(), 0b1000);
    /// assert_eq!(GateKind::Nand2.truth_table(), 0b0111);
    /// assert_eq!(GateKind::Inv.truth_table(), 0b01);
    /// // Mux2 pins are [sel, d0, d1]: output = sel ? d1 : d0.
    /// assert_eq!(GateKind::Mux2.truth_table(), 0b11100100);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics for sequential gates, which have no combinational function.
    pub fn truth_table(&self) -> u16 {
        assert!(
            !self.is_sequential(),
            "flops have no combinational truth table"
        );
        let n = self.arity();
        let mut tt = 0u16;
        for m in 0..1usize << n {
            let ins: Vec<bool> = (0..n).map(|i| m >> i & 1 != 0).collect();
            if self.eval(&ins) {
                tt |= 1 << m;
            }
        }
        tt
    }

    /// The library cell name for this kind.
    pub fn cell_name(&self) -> String {
        match self {
            GateKind::Const0 => "TIELO".into(),
            GateKind::Const1 => "TIEHI".into(),
            GateKind::Buf => "BUF".into(),
            GateKind::Inv => "INV".into(),
            GateKind::And2 => "AND2".into(),
            GateKind::Or2 => "OR2".into(),
            GateKind::Nand2 => "NAND2".into(),
            GateKind::Nor2 => "NOR2".into(),
            GateKind::Xor2 => "XOR2".into(),
            GateKind::Xnor2 => "XNOR2".into(),
            GateKind::And3 => "AND3".into(),
            GateKind::Or3 => "OR3".into(),
            GateKind::Nand3 => "NAND3".into(),
            GateKind::Nor3 => "NOR3".into(),
            GateKind::And4 => "AND4".into(),
            GateKind::Or4 => "OR4".into(),
            GateKind::Nand4 => "NAND4".into(),
            GateKind::Nor4 => "NOR4".into(),
            GateKind::Mux2 => "MUX2".into(),
            GateKind::Aoi21 => "AOI21".into(),
            GateKind::Oai21 => "OAI21".into(),
            GateKind::Aoi22 => "AOI22".into(),
            GateKind::Oai22 => "OAI22".into(),
            GateKind::Dff { reset, init } => {
                let r = match reset {
                    ResetKind::None => "",
                    ResetKind::Sync => "S",
                    ResetKind::Async => "R",
                };
                let i = if *init { "1" } else { "0" };
                format!("DFF{r}{i}")
            }
        }
    }

    /// A dense numbering of every kind: the index in
    /// [`GateKind::all_combinational`] for combinational kinds, then
    /// `23 + 2·reset + init` for the six flop flavours. Word encodings
    /// (netlists, library fingerprints) store kinds this way.
    pub(crate) fn word_code(self) -> u32 {
        use GateKind::*;
        match self {
            Const0 => 0,
            Const1 => 1,
            Buf => 2,
            Inv => 3,
            And2 => 4,
            Or2 => 5,
            Nand2 => 6,
            Nor2 => 7,
            Xor2 => 8,
            Xnor2 => 9,
            And3 => 10,
            Or3 => 11,
            Nand3 => 12,
            Nor3 => 13,
            And4 => 14,
            Or4 => 15,
            Nand4 => 16,
            Nor4 => 17,
            Mux2 => 18,
            Aoi21 => 19,
            Oai21 => 20,
            Aoi22 => 21,
            Oai22 => 22,
            Dff { reset, init } => {
                let r = match reset {
                    ResetKind::None => 0,
                    ResetKind::Sync => 1,
                    ResetKind::Async => 2,
                };
                23 + 2 * r + u32::from(init)
            }
        }
    }

    /// The inverse of [`GateKind::word_code`]; `None` past the last kind.
    pub(crate) fn from_word_code(code: u32) -> Option<GateKind> {
        if code < 23 {
            return Some(COMBINATIONAL[code as usize]);
        }
        let reset = match (code - 23) / 2 {
            0 => ResetKind::None,
            1 => ResetKind::Sync,
            2 => ResetKind::Async,
            _ => return None,
        };
        Some(GateKind::Dff {
            reset,
            init: code.is_multiple_of(2),
        })
    }

    /// All combinational kinds (useful for exhaustive tests).
    pub fn all_combinational() -> Vec<GateKind> {
        COMBINATIONAL.to_vec()
    }
}

/// Every combinational kind, in [`GateKind::word_code`] order.
const COMBINATIONAL: [GateKind; 23] = {
    use GateKind::*;
    [
        Const0, Const1, Buf, Inv, And2, Or2, Nand2, Nor2, Xor2, Xnor2, And3, Or3, Nand3, Nor3,
        And4, Or4, Nand4, Nor4, Mux2, Aoi21, Oai21, Aoi22, Oai22,
    ]
};

/// Bit-parallel pattern values a gate is evaluated on: one 64-pattern
/// word, or a block of them evaluated lane by lane.
trait Lanes: Copy {
    const ZERO: Self;
    const ONES: Self;
    fn and(self, other: Self) -> Self;
    fn or(self, other: Self) -> Self;
    fn xor(self, other: Self) -> Self;
    fn not(self) -> Self;
}

impl Lanes for u64 {
    const ZERO: Self = 0;
    const ONES: Self = u64::MAX;
    fn and(self, other: Self) -> Self {
        self & other
    }
    fn or(self, other: Self) -> Self {
        self | other
    }
    fn xor(self, other: Self) -> Self {
        self ^ other
    }
    fn not(self) -> Self {
        !self
    }
}

impl<const N: usize> Lanes for [u64; N] {
    const ZERO: Self = [0; N];
    const ONES: Self = [u64::MAX; N];
    fn and(self, other: Self) -> Self {
        std::array::from_fn(|b| self[b] & other[b])
    }
    fn or(self, other: Self) -> Self {
        std::array::from_fn(|b| self[b] | other[b])
    }
    fn xor(self, other: Self) -> Self {
        std::array::from_fn(|b| self[b] ^ other[b])
    }
    fn not(self) -> Self {
        self.map(|w| !w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_words_matches_eval() {
        for kind in GateKind::all_combinational() {
            let n = kind.arity();
            for m in 0..1usize << n {
                let ins: Vec<bool> = (0..n).map(|i| m >> i & 1 != 0).collect();
                let words: Vec<u64> = ins.iter().map(|&b| if b { u64::MAX } else { 0 }).collect();
                let scalar = kind.eval(&ins);
                let word = kind.eval_words(&words);
                assert_eq!(
                    word,
                    if scalar { u64::MAX } else { 0 },
                    "{kind:?} at minterm {m}"
                );
            }
        }
    }

    #[test]
    fn eval_block_is_eval_words_per_lane() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut word = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for kind in GateKind::all_combinational() {
            let ins: Vec<[u64; 5]> = (0..kind.arity())
                .map(|_| std::array::from_fn(|_| word()))
                .collect();
            let block = kind.eval_block(&ins);
            for b in 0..5 {
                let lane: Vec<u64> = ins.iter().map(|w| w[b]).collect();
                assert_eq!(block[b], kind.eval_words(&lane), "{kind:?} lane {b}");
            }
        }
    }

    #[test]
    fn arity_of_flops() {
        let plain = GateKind::Dff {
            reset: ResetKind::None,
            init: false,
        };
        assert_eq!(plain.arity(), 1);
        let sync = GateKind::Dff {
            reset: ResetKind::Sync,
            init: true,
        };
        assert_eq!(sync.arity(), 2);
        assert!(sync.is_sequential());
        assert!(!GateKind::Nand2.is_sequential());
    }

    #[test]
    fn mux_semantics() {
        // [sel, d0, d1]
        assert!(!GateKind::Mux2.eval(&[false, false, true]));
        assert!(GateKind::Mux2.eval(&[true, false, true]));
        assert!(GateKind::Mux2.eval(&[false, true, false]));
    }

    #[test]
    fn aoi_oai_semantics() {
        // Aoi21 = !((a&b)|c)
        assert!(GateKind::Aoi21.eval(&[false, true, false]));
        assert!(!GateKind::Aoi21.eval(&[true, true, false]));
        assert!(!GateKind::Aoi21.eval(&[false, false, true]));
        // Oai21 = !((a|b)&c)
        assert!(GateKind::Oai21.eval(&[false, false, true]));
        assert!(!GateKind::Oai21.eval(&[true, false, true]));
        assert!(GateKind::Oai21.eval(&[true, true, false]));
    }

    #[test]
    fn cell_names_unique() {
        let mut names = std::collections::HashSet::new();
        for k in GateKind::all_combinational() {
            assert!(names.insert(k.cell_name()), "{k:?} name collides");
        }
        for reset in [ResetKind::None, ResetKind::Sync, ResetKind::Async] {
            for init in [false, true] {
                let k = GateKind::Dff { reset, init };
                assert!(names.insert(k.cell_name()), "{k:?} name collides");
            }
        }
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn eval_checks_arity() {
        GateKind::And2.eval(&[true]);
    }

    #[test]
    fn truth_tables_match_eval() {
        for kind in GateKind::all_combinational() {
            let tt = kind.truth_table();
            for m in 0..1usize << kind.arity() {
                let ins: Vec<bool> = (0..kind.arity()).map(|i| m >> i & 1 != 0).collect();
                assert_eq!(tt >> m & 1 != 0, kind.eval(&ins), "{kind:?} minterm {m}");
            }
        }
    }
}
