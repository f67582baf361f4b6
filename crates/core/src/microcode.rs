//! Microinstruction formats and microprograms (the paper's Fig. 3).

use crate::CoreError;

/// How a microcode field encodes its value.
///
/// Horizontal formats (the common choice, per the paper) store fully decoded
/// — often one-hot — fields to avoid decoding logic between controller and
/// datapath; vertical formats pack values in binary. The paper's state
/// propagation discussion is precisely about recovering the optimization
/// opportunities that one-hot (non-optimally encoded) fields hide.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FieldEncoding {
    /// Packed binary value.
    Binary,
    /// One lane per value; exactly one (or zero) bit set.
    OneHot,
}

/// One field of a microinstruction.
#[derive(Clone, Debug, PartialEq)]
pub struct Field {
    /// Field name (becomes an output bus of the sequencer).
    pub name: String,
    /// Field width in bits.
    pub width: usize,
    /// Encoding convention for the field's values.
    pub encoding: FieldEncoding,
}

impl Field {
    /// A binary field.
    pub fn binary(name: impl Into<String>, width: usize) -> Self {
        Field {
            name: name.into(),
            width,
            encoding: FieldEncoding::Binary,
        }
    }

    /// A one-hot field with `lanes` lanes.
    pub fn one_hot(name: impl Into<String>, lanes: usize) -> Self {
        Field {
            name: name.into(),
            width: lanes,
            encoding: FieldEncoding::OneHot,
        }
    }
}

/// A microinstruction format: an ordered list of fields.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct MicrocodeFormat {
    fields: Vec<Field>,
}

impl MicrocodeFormat {
    /// Creates a format from fields.
    pub fn new(fields: Vec<Field>) -> Self {
        MicrocodeFormat { fields }
    }

    /// The fields.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Total packed width of all fields.
    pub fn width(&self) -> usize {
        self.fields.iter().map(|f| f.width).sum()
    }

    /// The bit offset of field `i` within the packed word.
    pub fn offset(&self, i: usize) -> usize {
        self.fields[..i].iter().map(|f| f.width).sum()
    }

    /// Finds a field index by name.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Validates the format itself: at least one field, no duplicate or
    /// empty names, no zero-width fields, and a total packed width that
    /// fits the `u128` words the sequencer and table lowering use.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadSpec`] describing the first problem found.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.fields.is_empty() {
            return Err(CoreError::BadSpec("format has no fields".into()));
        }
        for (i, f) in self.fields.iter().enumerate() {
            if f.name.is_empty() {
                return Err(CoreError::BadSpec(format!("field {i} has an empty name")));
            }
            if f.width == 0 {
                return Err(CoreError::BadSpec(format!(
                    "field `{}` has zero width",
                    f.name
                )));
            }
            if self.fields[..i].iter().any(|g| g.name == f.name) {
                return Err(CoreError::BadSpec(format!(
                    "duplicate field name `{}`",
                    f.name
                )));
            }
        }
        if self.width() > 128 {
            return Err(CoreError::BadSpec(format!(
                "format is {} bits wide; the limit is 128",
                self.width()
            )));
        }
        Ok(())
    }

    /// Packs per-field values into one word.
    ///
    /// # Panics
    ///
    /// Panics if the value count differs or a value overflows its field.
    pub fn pack(&self, values: &[u128]) -> u128 {
        assert_eq!(values.len(), self.fields.len(), "field count mismatch");
        let mut word = 0u128;
        let mut off = 0;
        for (f, &v) in self.fields.iter().zip(values) {
            if f.width < 128 {
                assert!(v < 1 << f.width, "value overflows field `{}`", f.name);
            }
            word |= v << off;
            off += f.width;
        }
        word
    }

    /// Unpacks a word into per-field values.
    pub fn unpack(&self, word: u128) -> Vec<u128> {
        let mut out = Vec::with_capacity(self.fields.len());
        let mut off = 0;
        for f in &self.fields {
            let mask = if f.width == 128 {
                u128::MAX
            } else {
                (1u128 << f.width) - 1
            };
            out.push(word >> off & mask);
            off += f.width;
        }
        out
    }
}

/// Sequencing control of one microinstruction.
///
/// The expected transition of a microcode sequencer is the trivial increment
/// (`Seq`); jumps and conditional dispatches are flagged explicitly, which
/// is exactly why sequencers need less next-state logic than general FSMs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NextCtl {
    /// Fall through to the next microinstruction.
    Seq,
    /// Unconditional jump to an address.
    Jump(usize),
    /// If condition input `cond` is high, jump to `target`, else fall
    /// through.
    CondJump {
        /// Index of the condition input.
        cond: usize,
        /// Jump target address.
        target: usize,
    },
    /// Spin on this microinstruction forever (end of program).
    Halt,
}

/// One microinstruction: field values plus sequencing.
#[derive(Clone, Debug, PartialEq)]
pub struct MicroInstr {
    /// Per-field values, in format order.
    pub fields: Vec<u128>,
    /// Sequencing control.
    pub next: NextCtl,
}

/// A complete microprogram over a format.
#[derive(Clone, Debug)]
pub struct MicroProgram {
    name: String,
    format: MicrocodeFormat,
    instrs: Vec<MicroInstr>,
    num_conds: usize,
}

impl MicroProgram {
    /// Creates an empty program with `num_conds` condition inputs.
    pub fn new(name: impl Into<String>, format: MicrocodeFormat, num_conds: usize) -> Self {
        MicroProgram {
            name: name.into(),
            format,
            instrs: Vec::new(),
            num_conds,
        }
    }

    /// Program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The microinstruction format.
    pub fn format(&self) -> &MicrocodeFormat {
        &self.format
    }

    /// Number of condition inputs.
    pub fn num_conds(&self) -> usize {
        self.num_conds
    }

    /// The microinstructions.
    pub fn instrs(&self) -> &[MicroInstr] {
        &self.instrs
    }

    /// Appends a microinstruction; returns its address.
    pub fn push(&mut self, instr: MicroInstr) -> usize {
        self.instrs.push(instr);
        self.instrs.len() - 1
    }

    /// Appends an instruction built from `(field, value)` pairs; unnamed
    /// fields default to zero.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadSpec`] on unknown field names or a value
    /// that overflows its field, so callers assembling from untrusted text
    /// surface a diagnostic instead of crashing.
    pub fn emit(&mut self, assigns: &[(&str, u128)], next: NextCtl) -> Result<usize, CoreError> {
        let mut values = vec![0u128; self.format.fields().len()];
        for (name, v) in assigns {
            let i = self
                .format
                .field_index(name)
                .ok_or_else(|| CoreError::BadSpec(format!("unknown field `{name}`")))?;
            let width = self.format.fields()[i].width;
            if width < 128 && *v >= 1 << width {
                return Err(CoreError::BadSpec(format!(
                    "value {v:#x} overflows field `{name}` ({width} bits)"
                )));
            }
            values[i] = *v;
        }
        Ok(self.push(MicroInstr {
            fields: values,
            next,
        }))
    }

    /// [`MicroProgram::emit`] for statically-known programs.
    ///
    /// # Panics
    ///
    /// Panics on unknown field names or overflowing values — a programming
    /// error in the builder, not a data error.
    pub fn must_emit(&mut self, assigns: &[(&str, u128)], next: NextCtl) -> usize {
        self.emit(assigns, next).expect("static microprogram")
    }

    /// µPC width for this program.
    pub fn upc_bits(&self) -> usize {
        let mut b = 1;
        while (1usize << b) < self.instrs.len().max(2) {
            b += 1;
        }
        b
    }

    /// Validates targets, condition indices and field values.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadSpec`] with a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.format.validate()?;
        if self.instrs.is_empty() {
            return Err(CoreError::BadSpec("empty microprogram".into()));
        }
        for (a, i) in self.instrs.iter().enumerate() {
            if i.fields.len() != self.format.fields().len() {
                return Err(CoreError::BadSpec(format!(
                    "instr {a}: field count mismatch"
                )));
            }
            for (f, &v) in self.format.fields().iter().zip(&i.fields) {
                if f.width < 128 && v >= 1 << f.width {
                    return Err(CoreError::BadSpec(format!(
                        "instr {a}: value {v:#x} overflows field `{}`",
                        f.name
                    )));
                }
                if f.encoding == FieldEncoding::OneHot && v.count_ones() > 1 {
                    return Err(CoreError::BadSpec(format!(
                        "instr {a}: field `{}` is one-hot but has {} bits set",
                        f.name,
                        v.count_ones()
                    )));
                }
            }
            let check_target = |t: usize| {
                if t >= self.instrs.len() {
                    Err(CoreError::BadSpec(format!(
                        "instr {a}: jump target {t} out of range"
                    )))
                } else {
                    Ok(())
                }
            };
            match i.next {
                NextCtl::Seq => {
                    if a + 1 >= self.instrs.len() {
                        return Err(CoreError::BadSpec(format!(
                            "instr {a}: falls off the end of the program"
                        )));
                    }
                }
                NextCtl::Jump(t) => check_target(t)?,
                NextCtl::CondJump { cond, target } => {
                    check_target(target)?;
                    if cond >= self.num_conds {
                        return Err(CoreError::BadSpec(format!(
                            "instr {a}: condition {cond} out of range"
                        )));
                    }
                }
                NextCtl::Halt => {}
            }
        }
        Ok(())
    }

    /// Executes the program in software: from address 0, applying the given
    /// condition values each cycle; returns the per-cycle field values.
    /// A reference model for testing the generated hardware.
    pub fn simulate(&self, conds: &[u64], cycles: usize) -> Vec<Vec<u128>> {
        let mut upc = 0usize;
        let mut trace = Vec::with_capacity(cycles);
        for cycle in 0..cycles {
            let i = &self.instrs[upc];
            trace.push(i.fields.clone());
            let cond_word = conds.get(cycle).copied().unwrap_or(0);
            upc = match i.next {
                NextCtl::Seq => upc + 1,
                NextCtl::Jump(t) => t,
                NextCtl::CondJump { cond, target } => {
                    if cond_word >> cond & 1 != 0 {
                        target
                    } else {
                        upc + 1
                    }
                }
                NextCtl::Halt => upc,
            };
        }
        trace
    }

    /// The addresses reachable from address 0 through the program's static
    /// control flow. Rows outside this set (padding, leftover microcode
    /// from other configurations) can never execute — the knowledge behind
    /// the paper's "Manual" unreachable-state optimization.
    pub fn reachable_addresses(&self) -> Vec<usize> {
        if self.instrs.is_empty() {
            return Vec::new();
        }
        let mut seen = vec![false; self.instrs.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut out = Vec::new();
        while let Some(a) = stack.pop() {
            out.push(a);
            let push = |t: usize, seen: &mut Vec<bool>, stack: &mut Vec<usize>| {
                if t < self.instrs.len() && !seen[t] {
                    seen[t] = true;
                    stack.push(t);
                }
            };
            match self.instrs[a].next {
                NextCtl::Seq => push(a + 1, &mut seen, &mut stack),
                NextCtl::Jump(t) => push(t, &mut seen, &mut stack),
                NextCtl::CondJump { target, .. } => {
                    push(a + 1, &mut seen, &mut stack);
                    push(target, &mut seen, &mut stack);
                }
                NextCtl::Halt => {}
            }
        }
        out.sort_unstable();
        out
    }

    /// The distinct values each field takes across the reachable rows: the
    /// basis of generator-derived value-set annotations (unreachable
    /// filler rows never execute, so they add no value).
    pub fn field_value_sets_reachable(&self) -> Vec<std::collections::BTreeSet<u128>> {
        let nf = self.format.fields().len();
        let mut sets = vec![std::collections::BTreeSet::new(); nf];
        for a in self.reachable_addresses() {
            for (fi, &v) in self.instrs[a].fields.iter().enumerate() {
                sets[fi].insert(v);
            }
        }
        sets
    }

    /// Minimized sum-of-products covers of the bound control store: one
    /// cover per packed field bit, as a function of the µPC, with
    /// unreachable addresses (padding rows and dead microcode) as
    /// don't-cares.
    ///
    /// This is the two-level form a fully partially-evaluated control store
    /// converges to; the bits are independent outputs of one PLA, so they
    /// are minimized as a batch (concurrently through
    /// `synthir_logic::par`, with results identical to the serial path).
    ///
    /// # Panics
    ///
    /// Panics if the µPC is wider than
    /// [`synthir_logic::MAX_TT_INPUTS`] (a microprogram of more than 2^24
    /// rows).
    pub fn minimized_field_covers(&self) -> Vec<synthir_logic::Cover> {
        let abits = self.upc_bits();
        assert!(
            abits <= synthir_logic::MAX_TT_INPUTS,
            "microprogram too long to collapse to truth tables"
        );
        let width = self.format.width();
        let mut reachable = vec![false; self.instrs.len()];
        for a in self.reachable_addresses() {
            reachable[a] = true;
        }
        let dc =
            synthir_logic::TruthTable::from_fn(abits, |a| a >= self.instrs.len() || !reachable[a]);
        let words: Vec<u128> = self
            .instrs
            .iter()
            .map(|i| self.format.pack(&i.fields))
            .collect();
        let tts: Vec<synthir_logic::TruthTable> = (0..width)
            .map(|b| {
                synthir_logic::TruthTable::from_fn(abits, |a| {
                    a < words.len() && words[a] >> b & 1 != 0
                })
            })
            .collect();
        synthir_logic::espresso::minimize_tt_batch(
            &tts,
            Some(&dc),
            &synthir_logic::espresso::EspressoOptions::default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmt() -> MicrocodeFormat {
        MicrocodeFormat::new(vec![
            Field::one_hot("pipe", 4),
            Field::binary("len", 3),
            Field::binary("go", 1),
        ])
    }

    #[test]
    fn pack_unpack_round_trip() {
        let f = fmt();
        assert_eq!(f.width(), 8);
        assert_eq!(f.offset(1), 4);
        let w = f.pack(&[0b0100, 5, 1]);
        assert_eq!(f.unpack(w), vec![0b0100, 5, 1]);
    }

    #[test]
    #[should_panic(expected = "overflows field")]
    fn pack_checks_width() {
        fmt().pack(&[0, 9, 0]);
    }

    /// Regression: `emit` used to panic on unknown fields, which crashed
    /// `synthir ucode` on bad input instead of printing a diagnostic.
    #[test]
    fn emit_reports_unknown_fields_and_overflow_as_errors() {
        let mut p = MicroProgram::new("t", fmt(), 0);
        let e = p.emit(&[("bogus", 1)], NextCtl::Halt).unwrap_err();
        assert!(e.to_string().contains("unknown field `bogus`"), "{e}");
        let e = p.emit(&[("len", 9)], NextCtl::Halt).unwrap_err();
        assert!(e.to_string().contains("overflows field `len`"), "{e}");
        assert!(p.instrs().is_empty(), "failed emits must not append");
        assert!(p.emit(&[("len", 7)], NextCtl::Halt).is_ok());
    }

    #[test]
    fn format_validation_catches_bad_formats() {
        assert!(MicrocodeFormat::new(vec![]).validate().is_err());
        let dup = MicrocodeFormat::new(vec![Field::binary("a", 1), Field::binary("a", 2)]);
        assert!(dup
            .validate()
            .unwrap_err()
            .to_string()
            .contains("duplicate"));
        let zero = MicrocodeFormat::new(vec![Field::binary("a", 0)]);
        assert!(zero
            .validate()
            .unwrap_err()
            .to_string()
            .contains("zero width"));
        let wide = MicrocodeFormat::new(vec![Field::binary("a", 100), Field::binary("b", 100)]);
        assert!(wide.validate().unwrap_err().to_string().contains("128"));
        assert!(fmt().validate().is_ok());
        // Program validation picks the format check up.
        let mut p = MicroProgram::new("t", dup, 0);
        p.push(MicroInstr {
            fields: vec![0, 0],
            next: NextCtl::Halt,
        });
        assert!(p.validate().is_err());
    }

    #[test]
    fn emit_and_validate() {
        let mut p = MicroProgram::new("t", fmt(), 2);
        p.must_emit(&[("pipe", 0b0001), ("go", 1)], NextCtl::Seq);
        p.must_emit(
            &[("pipe", 0b0010), ("len", 3)],
            NextCtl::CondJump { cond: 0, target: 0 },
        );
        p.must_emit(&[], NextCtl::Halt);
        p.validate().unwrap();
        assert_eq!(p.upc_bits(), 2);
    }

    #[test]
    fn validation_catches_bad_programs() {
        let mut p = MicroProgram::new("t", fmt(), 1);
        assert!(p.validate().is_err()); // empty
        p.must_emit(&[], NextCtl::Jump(5));
        assert!(p.validate().is_err()); // bad target
        let mut p2 = MicroProgram::new("t", fmt(), 1);
        p2.must_emit(&[], NextCtl::Seq);
        assert!(p2.validate().is_err()); // falls off the end
        let mut p3 = MicroProgram::new("t", fmt(), 1);
        p3.must_emit(&[], NextCtl::CondJump { cond: 3, target: 0 });
        assert!(p3.validate().is_err()); // bad condition index
        let mut p4 = MicroProgram::new("t", fmt(), 1);
        p4.push(MicroInstr {
            fields: vec![0b0011, 0, 0],
            next: NextCtl::Halt,
        });
        assert!(p4.validate().is_err()); // one-hot violation
    }

    #[test]
    fn simulate_follows_control_flow() {
        let mut p = MicroProgram::new("t", fmt(), 1);
        p.must_emit(&[("pipe", 0b0001)], NextCtl::Seq);
        p.must_emit(
            &[("pipe", 0b0010)],
            NextCtl::CondJump { cond: 0, target: 0 },
        );
        p.must_emit(&[("pipe", 0b1000)], NextCtl::Halt);
        p.validate().unwrap();
        // Condition low: fall through to halt.
        let t = p.simulate(&[0, 0, 0, 0], 4);
        assert_eq!(t[0][0], 0b0001);
        assert_eq!(t[1][0], 0b0010);
        assert_eq!(t[2][0], 0b1000);
        assert_eq!(t[3][0], 0b1000);
        // Condition high at the branch: loop back.
        let t = p.simulate(&[0, 1, 0, 0], 4);
        assert_eq!(t[2][0], 0b0001);
    }

    #[test]
    fn minimized_field_covers_match_store_on_reachable_rows() {
        let mut p = MicroProgram::new("t", fmt(), 1);
        p.must_emit(&[("pipe", 0b0001), ("len", 5)], NextCtl::Seq);
        p.must_emit(
            &[("pipe", 0b0010), ("go", 1)],
            NextCtl::CondJump { cond: 0, target: 0 },
        );
        p.must_emit(&[("pipe", 0b1000), ("len", 2)], NextCtl::Jump(4));
        p.must_emit(&[("pipe", 0b0100)], NextCtl::Halt); // unreachable: 2 jumps past it
        p.must_emit(&[("pipe", 0b0100), ("len", 7)], NextCtl::Halt);
        p.validate().unwrap();
        let covers = p.minimized_field_covers();
        assert_eq!(covers.len(), p.format().width());
        for a in p.reachable_addresses() {
            let word = p.format().pack(&p.instrs()[a].fields);
            for (b, c) in covers.iter().enumerate() {
                assert_eq!(
                    c.eval(a as u64),
                    word >> b & 1 != 0,
                    "address {a}, control bit {b}"
                );
            }
        }
        // Address 3 is unreachable, so the covers are free there — but
        // every cover must still be a function of the 3-bit µPC only.
        for c in &covers {
            assert_eq!(c.nvars(), p.upc_bits());
        }
    }
}
