//! A compact `u32` word encoding of a [`Netlist`]: see
//! [`Netlist::encode_words`].

use super::{Gate, GateId, NetId, Netlist, Port, MAX_PINS, NO_PIN};
use crate::cell::GateKind;
use crate::NetlistError;

impl Netlist {
    /// Appends the netlist's word encoding to `out`.
    ///
    /// The encoding keeps everything but the module name: the net count, every
    /// gate slot in id order (removed gates included, as holes), the cached
    /// constant nets, every net name and both port lists. Decoding therefore
    /// rebuilds the same gate and net numbering, so data indexed by [`NetId`]
    /// or [`GateId`] (timing arrivals, a critical net) stays valid against the
    /// decoded netlist. Every variable-length field carries its length (the
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
        let mut gates = Vec::with_capacity(slots.min(words.len()));
        let mut driver = vec![None; num_nets];
        let mut live = 0;
        for id in 0..slots {
            let code = r.word()?;
            if code == 0 {
                gates.push(None);
                continue;
            }
            let kind = GateKind::from_word_code(code - 1).ok_or(r.error())?;
            let mut pins = [NO_PIN; MAX_PINS];
            for pin in &mut pins[..kind.arity()] {
                *pin = r.net(num_nets)?;
            }
            let output = r.net(num_nets)?;
            let d = &mut driver[output.index()];
            if d.is_some() {
                return Err(r.error());
            }
            *d = Some(GateId(id as u32));
            gates.push(Some(Gate { kind, pins, output }));
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
        let mut text = Vec::new();
        for (w, &mask) in bitmap.iter().enumerate() {
            let mut bits = mask;
            while bits != 0 {
                let net = NetId((32 * w) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
                r.string_into(&mut text)?;
                let end = u32::try_from(text.len()).map_err(|_| r.error())?;
                nl.names.ends.push((net, end));
            }
        }
        nl.names.text = String::from_utf8(text).expect("every name was checked as UTF-8");
        for ports in [&mut nl.inputs, &mut nl.outputs] {
            for _ in 0..r.word()? {
                let mut name = Vec::new();
                r.string_into(&mut name)?;
                let name = String::from_utf8(name).expect("checked as UTF-8");
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
        let w = *self.words.get(self.at).ok_or(self.error())?;
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

    /// Appends the next string's bytes to `out`, which must hold whole
    /// UTF-8 strings; the appended bytes are checked to be one too.
    fn string_into(&mut self, out: &mut Vec<u8>) -> Result<(), NetlistError> {
        let len = self.word()? as usize;
        let packed = self
            .words
            .get(self.at..self.at + len.div_ceil(4))
            .ok_or(self.error())?;
        let start = out.len();
        out.extend(packed.iter().flat_map(|w| w.to_le_bytes()));
        // The padding of the last word must be zero, or two strings could
        // share one encoding.
        if out[start + len..].iter().any(|&b| b != 0)
            || std::str::from_utf8(&out[start..start + len]).is_err()
        {
            out.truncate(start);
            return Err(self.error());
        }
        out.truncate(start + len);
        self.at += packed.len();
        Ok(())
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
        assert_eq!(GateKind::from_word_code(29), None);
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
}
