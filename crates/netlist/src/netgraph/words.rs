//! A compact `u32` word encoding of a [`Netlist`]: see
//! [`Netlist::encode_words`].

use super::{Gate, GateId, NetId, Netlist, Port, MAX_PINS, NO_PIN};
use crate::cell::GateKind;
use crate::sha256::UnitHasher;
use crate::NetlistError;

/// How many gate kinds have a word code: 23 combinational, 6 flops.
const KIND_CODES: usize = 29;

/// The key state of a netlist whose encoding is `words`.
pub(super) fn key_state_of(words: &[u32]) -> UnitHasher {
    let mut h = UnitHasher::new();
    h.update(words);
    h
}

/// A netlist kept compactly: its [`Netlist::encode_words`] together with
/// its [`Netlist::key_state`], for stores that hand the same netlist out
/// many times. Only [`Netlist::to_encoded`] builds one, so the key state
/// is always that of the words, and a decoded netlist carries it without
/// hashing again.
#[derive(Clone, Debug)]
pub struct EncodedNetlist {
    words: Box<[u32]>,
    key: UnitHasher,
}

impl EncodedNetlist {
    /// The netlist, named `name`, with its key state already known.
    pub fn decode(&self, name: impl Into<String>) -> Netlist {
        let nl = Netlist::decode_words(name, &self.words)
            .expect("an EncodedNetlist holds a netlist's own encoding");
        nl.key
            .0
            .set(self.key.clone())
            .expect("a decoded netlist has no key state yet");
        nl
    }

    /// The heap and inline bytes this encoding occupies.
    pub fn bytes(&self) -> usize {
        std::mem::size_of::<Self>() + std::mem::size_of_val(&*self.words)
    }
}

impl Netlist {
    /// Appends the netlist's word encoding to `out`.
    ///
    /// The encoding keeps everything but the module name: the net count, every
    /// gate slot in id order (removed gates included, as holes), the cached
    /// constant nets, every net name and both port lists. Decoding therefore
    /// rebuilds the same gate and net numbering, so data indexed by [`NetId`]
    /// or [`GateId`] (a critical net) stays valid against the decoded
    /// netlist. Every variable-length field carries its length (the
    /// named-net bitmap announces the names), so the encoding is self-
    /// delimiting: two netlists that differ in anything but their name encode
    /// to different word streams, which is what lets a content hash of the
    /// words key a compile cache.
    ///
    /// Layout, in words:
    ///
    /// ```text
    /// nets, slots, const0 + 1 (0 = none), const1 + 1
    /// slots × { 0 (hole) | code + 1, inputs (arity words), output }
    /// named-net bitmap (⌈nets / 32⌉ words), one string per named net
    /// input-port count, ports × { string, width, nets }
    /// output-port count, ports × { string, width, nets }
    /// string = byte length, bytes packed four per word, little-endian
    /// ```
    ///
    /// The bitmap makes every net cost at least one bit of the encoding, so the
    /// decoder can refuse a corrupt net count before allocating for it.
    pub fn encode_words(&self, out: &mut Vec<u32>) {
        // Destructured so that a new field cannot be left out silently.
        let Netlist {
            name: _,
            gates,
            driver,
            names,
            inputs,
            outputs,
            const_nets,
            live: _,
            key: _,
        } = self;
        out.reserve(4 + 5 * gates.len());
        out.push(driver.len() as u32);
        out.push(gates.len() as u32);
        for c in const_nets {
            out.push(c.map_or(0, |n| n.0 + 1));
        }
        for slot in gates {
            match slot {
                None => out.push(0),
                Some(g) => {
                    out.push(g.kind.word_code() + 1);
                    out.extend(g.inputs().iter().map(|n| n.0));
                    out.push(g.output.0);
                }
            }
        }
        let bitmap = out.len();
        out.resize(bitmap + driver.len().div_ceil(32), 0);
        for &(net, _) in &names.ends {
            out[bitmap + net.index() / 32] |= 1 << (net.index() % 32);
        }
        for (_, name) in names.iter() {
            push_str(out, name);
        }
        for ports in [inputs, outputs] {
            out.push(ports.len() as u32);
            for p in ports {
                push_str(out, &p.name);
                out.push(p.nets.len() as u32);
                out.extend(p.nets.iter().map(|n| n.0));
            }
        }
    }

    /// The netlist's encoding and key state, for a store (the name is left
    /// out, as in [`Netlist::encode_words`]).
    pub fn to_encoded(&self) -> EncodedNetlist {
        let mut words = Vec::new();
        self.encode_words(&mut words);
        let key = self.key.0.get_or_init(|| key_state_of(&words)).clone();
        EncodedNetlist {
            words: words.into_boxed_slice(),
            key,
        }
    }

    /// Rebuilds a netlist named `name` from [`Netlist::encode_words`]
    /// output. The whole slice must be one encoding.
    ///
    /// One pass fills the gate, driver and name arrays; nothing is
    /// allocated per gate or per net name.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::MalformedEncoding`] if the words end early,
    /// carry trailing data, name an unknown gate kind, reference a net out
    /// of range, drive a net twice, or hold a name that is not UTF-8.
    pub fn decode_words(name: impl Into<String>, words: &[u32]) -> Result<Netlist, NetlistError> {
        let mut r = Reader { words, at: 0 };
        let num_nets = r.word()? as usize;
        if num_nets.div_ceil(32) > words.len() {
            return Err(r.error());
        }
        let slots = r.word()? as usize;
        let mut const_nets = [None; 2];
        for c in &mut const_nets {
            let w = r.word()?;
            if w != 0 {
                *c = Some(r.net_id(w - 1, num_nets)?);
            }
        }
        // Every gate kind and its arity by word code, so that the loop below
        // reads a gate without matching on its kind.
        let kinds: [(GateKind, usize); KIND_CODES] = std::array::from_fn(|c| {
            let k = GateKind::from_word_code(c as u32).expect("a code below KIND_CODES");
            (k, k.arity())
        });
        let mut gates = Vec::with_capacity(slots.min(words.len()));
        let mut driver = vec![None; num_nets];
        let mut live = 0;
        for id in 0..slots {
            let code = r.word()?;
            if code == 0 {
                gates.push(None);
                continue;
            }
            let &(kind, arity) = kinds.get(code as usize - 1).ok_or_else(|| r.error())?;
            // The inputs and the output, each a net in range. They are read
            // through a fixed window of `MAX_PINS + 1` words (fewer only at
            // the very end of the words) and picked without a loop whose
            // length is the arity: mixed arities otherwise mispredict a
            // branch or more per gate, which costs more than the rest of
            // the gate's decode.
            let mut window = [0u32; MAX_PINS + 1];
            match r.words.get(r.at..r.at + MAX_PINS + 1) {
                Some(w) => {
                    window.copy_from_slice(w);
                    r.at += arity + 1;
                }
                None => window[..=arity].copy_from_slice(r.take(arity + 1)?),
            }
            let output = window[arity];
            let mut pins = [NO_PIN; MAX_PINS];
            let mut highest = output;
            for (i, pin) in pins.iter_mut().enumerate() {
                let n = if i < arity { window[i] } else { 0 };
                highest = highest.max(n);
                if i < arity {
                    *pin = NetId(n);
                }
            }
            if highest as usize >= num_nets {
                return Err(r.error());
            }
            let d = &mut driver[output as usize];
            if d.is_some() {
                return Err(r.error());
            }
            *d = Some(GateId(id as u32));
            gates.push(Some(Gate {
                kind,
                pins,
                output: NetId(output),
            }));
            live += 1;
        }
        let mut nl = Netlist {
            name: name.into(),
            gates,
            driver,
            const_nets,
            live,
            ..Netlist::default()
        };
        let bitmap = r.take(num_nets.div_ceil(32))?;
        // Bits past the last net must be clear, or two bitmaps would share
        // one netlist.
        if let Some(&last) = bitmap.last() {
            if !num_nets.is_multiple_of(32) && last >> (num_nets % 32) != 0 {
                return Err(r.error());
            }
        }
        // The names and the ports are all that is left, so the rest of the
        // words bound the name bytes.
        let named = bitmap.iter().map(|m| m.count_ones() as usize).sum();
        nl.names.ends.reserve_exact(named);
        let mut text = Vec::with_capacity(4 * (words.len() - r.at));
        for (w, &mask) in bitmap.iter().enumerate() {
            let mut bits = mask;
            while bits != 0 {
                let net = NetId((32 * w) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
                r.bytes_into(&mut text)?;
                let end = u32::try_from(text.len()).map_err(|_| r.error())?;
                nl.names.ends.push((net, end));
            }
        }
        // Every name is UTF-8 exactly when the whole text is and every
        // name ends on a character boundary: one check instead of one per
        // name.
        nl.names.text = String::from_utf8(text).map_err(|_| r.error())?;
        let text = &nl.names.text;
        if !nl
            .names
            .ends
            .iter()
            .all(|&(_, end)| text.is_char_boundary(end as usize))
        {
            return Err(r.error());
        }
        for ports in [&mut nl.inputs, &mut nl.outputs] {
            for _ in 0..r.word()? {
                let name = r.string()?;
                let width = r.word()? as usize;
                let nets = (0..width)
                    .map(|_| r.net(num_nets))
                    .collect::<Result<Vec<_>, _>>()?;
                ports.push(Port { name, nets });
            }
        }
        if r.at != words.len() {
            return Err(r.error());
        }
        Ok(nl)
    }
}

fn push_str(out: &mut Vec<u32>, s: &str) {
    out.push(u32::try_from(s.len()).expect("names are shorter than 4 GiB"));
    out.extend(s.as_bytes().chunks(4).map(|c| {
        let mut b = [0u8; 4];
        b[..c.len()].copy_from_slice(c);
        u32::from_le_bytes(b)
    }));
}

struct Reader<'a> {
    words: &'a [u32],
    at: usize,
}

impl<'a> Reader<'a> {
    fn error(&self) -> NetlistError {
        NetlistError::MalformedEncoding { at: self.at }
    }

    fn word(&mut self) -> Result<u32, NetlistError> {
        let w = *self.words.get(self.at).ok_or_else(|| self.error())?;
        self.at += 1;
        Ok(w)
    }

    /// The next `n` words.
    fn take(&mut self, n: usize) -> Result<&'a [u32], NetlistError> {
        let words =
            self.words
                .get(self.at..self.at + n)
                .ok_or(NetlistError::MalformedEncoding {
                    at: self.words.len(),
                })?;
        self.at += n;
        Ok(words)
    }

    fn net_id(&self, raw: u32, num_nets: usize) -> Result<NetId, NetlistError> {
        if (raw as usize) < num_nets {
            Ok(NetId(raw))
        } else {
            Err(self.error())
        }
    }

    fn net(&mut self, num_nets: usize) -> Result<NetId, NetlistError> {
        let raw = self.word()?;
        self.net_id(raw, num_nets)
    }

    /// Appends the next string's bytes to `out`, unchecked as UTF-8.
    fn bytes_into(&mut self, out: &mut Vec<u8>) -> Result<(), NetlistError> {
        let len = self.word()? as usize;
        let packed = self
            .words
            .get(self.at..self.at + len.div_ceil(4))
            .ok_or_else(|| self.error())?;
        let start = out.len();
        for w in packed {
            out.extend_from_slice(&w.to_le_bytes());
        }
        // The padding of the last word must be zero, or two strings could
        // share one encoding.
        if out[start + len..].iter().any(|&b| b != 0) {
            return Err(self.error());
        }
        out.truncate(start + len);
        self.at += packed.len();
        Ok(())
    }

    /// The next string.
    fn string(&mut self) -> Result<String, NetlistError> {
        let mut bytes = Vec::new();
        self.bytes_into(&mut bytes)?;
        String::from_utf8(bytes).map_err(|_| self.error())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::ResetKind;

    fn roundtrip(nl: &Netlist) -> Netlist {
        let mut words = Vec::new();
        nl.encode_words(&mut words);
        let back = Netlist::decode_words(nl.name(), &words).expect("own encoding decodes");
        assert_eq!(&back, nl);
        let mut again = Vec::new();
        back.encode_words(&mut again);
        assert_eq!(again, words, "decode ∘ encode is the identity on words");
        back
    }

    /// A netlist with every feature the encoding carries: removed-gate
    /// holes, both cached constants, named internal nets, an anonymous
    /// dangling net, a flop feedback loop, multi-bit ports and a non-ASCII
    /// port name.
    fn featureful() -> Netlist {
        let mut nl = Netlist::new("featureful");
        let a = nl.add_input("a", 2);
        let rst = nl.add_input("rst", 1)[0];
        let dead = nl.add_gate(GateKind::Inv, &[a[0]]);
        let c0 = nl.const0();
        let c1 = nl.const1();
        let q = nl.add_named_net("state_q");
        let x = nl.add_gate(GateKind::Mux2, &[a[1], q, c1]);
        let nq = nl.add_gate(GateKind::Aoi21, &[x, a[0], c0]);
        nl.attach_gate(
            GateKind::Dff {
                reset: ResetKind::Async,
                init: true,
            },
            &[nq, rst],
            q,
        )
        .unwrap();
        let _dangling = nl.add_net();
        let _named_dangling = nl.add_named_net("spare");
        nl.add_output("y→", &[x, nq, q]);
        nl.add_output("k", &[c0]);
        nl.remove_gate(nl.driver(dead).unwrap());
        nl
    }

    #[test]
    fn roundtrip_keeps_holes_constants_and_names() {
        let nl = featureful();
        let back = roundtrip(&nl);
        back.validate().unwrap();
        assert_eq!(back.num_gates(), nl.num_gates());
        assert!(!back.is_live(GateId(0)), "the removed gate stays a hole");
        let state_q = (0..nl.num_nets() as u32)
            .find(|&i| nl.net_name(NetId(i)) == Some("state_q"))
            .unwrap();
        assert_eq!(back.net_name(NetId(state_q)), Some("state_q"));
        assert_eq!(back.net_name(NetId(0)), Some("a[0]"));
        // The cached constants survive: asking again reuses them.
        let (mut x, mut y) = (nl.clone(), back.clone());
        assert_eq!(x.const0(), y.const0());
        assert_eq!(x.const1(), y.const1());
        assert_eq!(x.num_nets(), y.num_nets());
    }

    #[test]
    fn roundtrip_of_empty_and_every_gate_kind() {
        roundtrip(&Netlist::new("empty"));
        let mut nl = Netlist::new("kinds");
        let ins = nl.add_input("i", 4);
        let mut kinds = GateKind::all_combinational();
        for reset in [ResetKind::None, ResetKind::Sync, ResetKind::Async] {
            for init in [false, true] {
                kinds.push(GateKind::Dff { reset, init });
            }
        }
        let mut outs = Vec::new();
        for k in kinds {
            assert_eq!(GateKind::from_word_code(k.word_code()), Some(k));
            outs.push(nl.add_gate(k, &ins[..k.arity()]));
        }
        nl.add_output("o", &outs);
        roundtrip(&nl).validate().unwrap();
        assert_eq!(GateKind::from_word_code(KIND_CODES as u32), None);
        // A last gate with fewer than `MAX_PINS + 1` words after its code
        // (a constant in an otherwise empty netlist) is read without the
        // fixed window.
        let mut tie = Netlist::new("tie");
        tie.const1();
        roundtrip(&tie);
    }

    /// A gate whose input or output net is out of range is refused, at
    /// every pin of every gate.
    #[test]
    fn out_of_range_pins_are_refused() {
        let mut words = Vec::new();
        featureful().encode_words(&mut words);
        let (nets, slots) = (words[0], words[1] as usize);
        let mut at = 4;
        let mut pins = 0;
        for _ in 0..slots {
            let code = words[at];
            at += 1;
            if code == 0 {
                continue;
            }
            let arity = GateKind::from_word_code(code - 1).unwrap().arity();
            for pin in at..=at + arity {
                let mut bad = words.clone();
                bad[pin] = nets;
                assert!(Netlist::decode_words("t", &bad).is_err(), "word {pin}");
                pins += 1;
            }
            at += arity + 1;
        }
        assert!(pins > 10, "{pins} pins checked");
    }

    #[test]
    fn the_name_is_not_encoded() {
        let nl = featureful();
        let mut renamed = nl.clone();
        renamed.set_name("other");
        let (mut a, mut b) = (Vec::new(), Vec::new());
        nl.encode_words(&mut a);
        renamed.encode_words(&mut b);
        assert_eq!(a, b);
        assert_eq!(Netlist::decode_words("other", &a).unwrap(), renamed);
    }

    #[test]
    fn malformed_words_are_refused_not_panicked_on() {
        let mut words = Vec::new();
        featureful().encode_words(&mut words);
        for len in 0..words.len() {
            assert!(
                Netlist::decode_words("t", &words[..len]).is_err(),
                "truncated to {len} words"
            );
        }
        let mut trailing = words.clone();
        trailing.push(0);
        assert!(Netlist::decode_words("t", &trailing).is_err());
        // Flipping any single word either still decodes to a netlist that
        // re-encodes to the flipped words, or is refused.
        for i in 0..words.len() {
            for flip in [1u32, 0x8000_0000, u32::MAX] {
                let mut bad = words.clone();
                bad[i] ^= flip;
                if let Ok(nl) = Netlist::decode_words("t", &bad) {
                    let mut again = Vec::new();
                    nl.encode_words(&mut again);
                    assert_eq!(again, bad, "word {i} ^ {flip:#x}");
                }
            }
        }
    }

    /// Two names that are not UTF-8 apart but are together (a character
    /// split between them) are refused: each name must stand alone.
    #[test]
    fn a_character_split_between_two_names_is_refused() {
        let mut nl = Netlist::new("t");
        nl.add_named_net("añ");
        nl.add_named_net("b");
        let mut words = Vec::new();
        nl.encode_words(&mut words);
        // The two names (a length and one word each), then two empty port
        // lists.
        let at = words.len() - 6;
        assert_eq!(
            &words[at..],
            [
                3,
                u32::from_le_bytes(*b"a\xc3\xb1\0"),
                1,
                u32::from(b'b'),
                0,
                0
            ]
        );
        words[at..at + 4].copy_from_slice(&[
            2,
            u32::from_le_bytes(*b"a\xc3\0\0"),
            2,
            u32::from_le_bytes(*b"\xb1b\0\0"),
        ]);
        assert!(Netlist::decode_words("t", &words).is_err());
    }
}
