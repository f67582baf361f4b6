//! Seeded input generators. Everything the program under test sees is
//! text produced here (KISS2, PLA, `.uasm`); the structured objects kept
//! beside the text are the benchmark's references for the correctness
//! oracle.

use synthir_core::fsm::{FsmSpec, StateId};
use synthir_core::random::random_microprogram;
use synthir_logic::pla::Pla;
use synthir_logic::{Cover, Cube};

/// SplitMix64: a small, fast, seedable generator (no external crates).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A fair coin.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 != 0
    }

    /// A uniform value of `width ≤ 128` bits.
    pub fn bits(&mut self, width: usize) -> u128 {
        let v = (u128::from(self.next_u64()) << 64) | u128::from(self.next_u64());
        if width >= 128 {
            v
        } else {
            v & ((1u128 << width) - 1)
        }
    }
}

/// Derives an independent sub-seed from a seed and a stream position.
pub fn mix(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// An `floors`-floor elevator controller.
///
/// Inputs (`m = 2`): bit 0 `call_above`, bit 1 `call_below`. Outputs: bit 0
/// `motor_up`, bit 1 `motor_down`, bit 2 `door_open`, then a one-hot floor
/// indicator. States: `park<i>` per floor plus `up<i>` / `dn<i>` while
/// travelling between floors. The seed picks, per floor, whether pending
/// calls above are served before calls below, and the floor the car is
/// parked at on reset.
pub fn elevator(floors: usize, seed: u64) -> FsmSpec {
    assert!(floors >= 2, "an elevator needs two floors");
    let mut rng = Rng::new(seed);
    let (m, n) = (2, 3 + floors);
    let mut f = FsmSpec::new(format!("elevator{floors}"), m, n);
    let park: Vec<StateId> = (0..floors)
        .map(|i| f.add_state(format!("park{i}")))
        .collect();
    let up: Vec<StateId> = (0..floors - 1)
        .map(|i| f.add_state(format!("up{i}")))
        .collect();
    let dn: Vec<StateId> = (1..floors).map(|i| f.add_state(format!("dn{i}"))).collect();
    let ind = |i: usize| 1u128 << (3 + i);
    let (motor_up, motor_down, door) = (1u128, 2u128, 4u128);
    let above = Cube::new(m, 0b01, 0b01);
    let below = Cube::new(m, 0b10, 0b10);
    for i in 0..floors {
        let go_up = (i + 1 < floors).then(|| (above, up[i], motor_up | ind(i)));
        let go_dn = (i > 0).then(|| (below, dn[i - 1], motor_down | ind(i)));
        let order = if rng.coin() {
            [go_up, go_dn]
        } else {
            [go_dn, go_up]
        };
        for (guard, next, out) in order.into_iter().flatten() {
            f.add_rule(park[i], guard, next, out);
        }
        f.set_default(park[i], park[i], door | ind(i));
    }
    for i in 0..floors - 1 {
        // Travelling up from floor i: keep going while calls remain above
        // the next floor, else stop there.
        if i + 2 < floors {
            f.add_rule(up[i], above, up[i + 1], motor_up | ind(i + 1));
        }
        f.set_default(up[i], park[i + 1], motor_up | ind(i + 1));
        // Travelling down from floor i + 1.
        if i > 0 {
            f.add_rule(dn[i], below, dn[i - 1], motor_down | ind(i));
        }
        f.set_default(dn[i], park[i], motor_down | ind(i));
    }
    f.set_reset(park[rng.below(floors)]);
    f
}

/// An `channels`-channel round-robin DMA arbiter.
///
/// Inputs (`m = 2`): bit 0 `req` (the channel under the pointer requests),
/// bit 1 `last` (final beat of the burst). Outputs: a one-hot grant per
/// channel, then `rd`, `wr`, `irq`. States `idle<c>` / `rd<c>` / `wr<c>`
/// per channel. The seed permutes the service order and picks which
/// channels raise an interrupt on completion.
pub fn dma_arbiter(channels: usize, seed: u64) -> FsmSpec {
    assert!(channels >= 2, "an arbiter needs two channels");
    let mut rng = Rng::new(seed);
    let (m, n) = (2, channels + 3);
    let mut f = FsmSpec::new(format!("dma{channels}"), m, n);
    let mut order: Vec<usize> = (0..channels).collect();
    for i in (1..channels).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let idle: Vec<StateId> = (0..channels)
        .map(|c| f.add_state(format!("idle{c}")))
        .collect();
    let rd: Vec<StateId> = (0..channels)
        .map(|c| f.add_state(format!("rd{c}")))
        .collect();
    let wr: Vec<StateId> = (0..channels)
        .map(|c| f.add_state(format!("wr{c}")))
        .collect();
    let (o_rd, o_wr, o_irq) = (
        1u128 << channels,
        1u128 << (channels + 1),
        1u128 << (channels + 2),
    );
    let req = Cube::new(m, 0b01, 0b01);
    let last = Cube::new(m, 0b10, 0b10);
    for k in 0..channels {
        let c = order[k];
        let next = order[(k + 1) % channels];
        let grant = 1u128 << c;
        let irq = if rng.coin() { o_irq } else { 0 };
        f.add_rule(idle[c], req, rd[c], grant);
        f.set_default(idle[c], idle[next], 0);
        f.set_default(rd[c], wr[c], grant | o_rd);
        f.add_rule(wr[c], last, idle[next], grant | o_wr | irq);
        f.set_default(wr[c], rd[c], grant | o_wr);
    }
    f.set_reset(idle[order[0]]);
    f
}

/// An `entries`-entry table-walking controller (a sequencer over a table
/// of control words).
///
/// Input (`m = 1`): `advance`. Each entry drives a seeded `width`-bit
/// control word and, on `advance`, steps to the next entry or — for seeded
/// branch entries — to a seeded target.
pub fn table_walker(entries: usize, width: usize, seed: u64) -> FsmSpec {
    assert!(entries >= 2, "a table needs two entries");
    let mut rng = Rng::new(seed);
    let (m, n) = (1, width);
    let mut f = FsmSpec::new(format!("table{entries}"), m, n);
    let e: Vec<StateId> = (0..entries).map(|i| f.add_state(format!("e{i}"))).collect();
    let advance = Cube::new(m, 1, 1);
    for i in 0..entries {
        let word = rng.bits(n);
        let target = if rng.below(4) == 0 {
            rng.below(entries)
        } else {
            (i + 1) % entries
        };
        f.add_rule(e[i], advance, e[target], word);
        f.set_default(e[i], e[i], word);
    }
    f
}

/// Flips one output bit on the first term leaving the reset state of a
/// KISS2 text (the first term of a state is never shadowed, so the
/// difference is visible in cycle 0 under that term's input).
pub fn mutate_kiss2(text: &str, seed: u64) -> String {
    let reset = text
        .lines()
        .find_map(|l| l.trim().strip_prefix(".r "))
        .map(str::trim)
        .expect("generated KISS2 names its reset state")
        .to_string();
    let mut done = false;
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let cols: Vec<&str> = line.split_whitespace().collect();
        if !done && !line.starts_with(['.', '#']) && cols.len() == 4 && cols[1] == reset {
            let mut outs: Vec<char> = cols[3].chars().collect();
            let bit = Rng::new(seed).below(outs.len());
            outs[bit] = if outs[bit] == '1' { '0' } else { '1' };
            let outs: String = outs.into_iter().collect();
            out.push_str(&format!("{} {} {} {outs}\n", cols[0], cols[1], cols[2]));
            done = true;
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    assert!(done, "reset state has a term");
    out
}

/// A random microprogram as `.uasm` text (format and conditions declared
/// inline, body from the disassembler).
pub fn uasm_text(len: usize, seed: u64) -> String {
    let conds = ["c0", "c1"];
    let p = random_microprogram(len, conds.len(), seed);
    let mut text = String::from(".field unit onehot 4\n.field imm 4\n.field strobe 1\n");
    for c in conds {
        text.push_str(&format!(".cond {c}\n"));
    }
    text.push_str(&synthir_core::asm::disassemble(&p, &conds));
    text
}

/// One product term of a PLA: `care` marks the tested input bits, `value`
/// their polarity; `outs` has a bit per output the term feeds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Term {
    /// Input bits the term tests.
    pub care: u64,
    /// Required values of the tested bits.
    pub value: u64,
    /// Outputs the term drives.
    pub outs: u32,
}

/// A PLA kept as terms: the oracle evaluates these directly.
#[derive(Clone, Debug)]
pub struct PlaModel {
    /// Input count.
    pub inputs: usize,
    /// Output count.
    pub outputs: usize,
    /// The ON-set terms.
    pub terms: Vec<Term>,
}

impl PlaModel {
    /// Evaluates every output on one input assignment (bit `i` of the
    /// result is output `i`).
    pub fn eval(&self, x: u64) -> u32 {
        self.terms
            .iter()
            .filter(|t| (x ^ t.value) & t.care == 0)
            .fold(0, |acc, t| acc | t.outs)
    }

    /// The same PLA as the program's document model, one ON-set cover
    /// per output (render it with [`Pla::render`]).
    pub fn to_pla(&self) -> Pla {
        Pla::from_covers(
            (0..self.outputs)
                .map(|o| {
                    let cubes = self.terms.iter().filter(|t| t.outs >> o & 1 != 0);
                    Cover::from_cubes(
                        self.inputs,
                        cubes.map(|t| Cube::new(self.inputs, t.value, t.care)),
                    )
                })
                .collect(),
        )
    }
}

/// A wide control-function pair in the style of `wide_ctrl_{a,b}.pla`:
/// `a` is a random cover; `b` splits every term of `a` on a variable it
/// does not test (same function, twice the terms). With `mutate`, `b` also
/// gains one full-minterm term on an output `a` leaves 0 there, so the
/// pair differs on exactly that minterm.
pub fn wide_pla_pair(
    inputs: usize,
    outputs: usize,
    terms: usize,
    mutate: bool,
    seed: u64,
) -> (PlaModel, PlaModel) {
    assert!((25..=64).contains(&inputs) && (1..=32).contains(&outputs));
    let mut rng = Rng::new(seed);
    let mask = if inputs == 64 {
        u64::MAX
    } else {
        (1u64 << inputs) - 1
    };
    let mut a_terms = Vec::with_capacity(terms);
    for _ in 0..terms {
        let lits = 5 + rng.below(5);
        let mut care = 0u64;
        while (care.count_ones() as usize) < lits {
            care |= 1 << rng.below(inputs);
        }
        let outs = 1 + rng.below((1 << outputs) - 1) as u32;
        a_terms.push(Term {
            care,
            value: rng.next_u64() & care,
            outs,
        });
    }
    let a = PlaModel {
        inputs,
        outputs,
        terms: a_terms,
    };
    let mut b_terms = Vec::with_capacity(2 * terms + 1);
    for t in &a.terms {
        let free: Vec<usize> = (0..inputs).filter(|&v| t.care >> v & 1 == 0).collect();
        let v = free[rng.below(free.len())];
        for bit in [0u64, 1] {
            b_terms.push(Term {
                care: t.care | 1 << v,
                value: t.value | bit << v,
                outs: t.outs,
            });
        }
    }
    for i in (1..b_terms.len()).rev() {
        b_terms.swap(i, rng.below(i + 1));
    }
    if mutate {
        loop {
            let x = rng.next_u64() & mask;
            let o = rng.below(outputs);
            if a.eval(x) >> o & 1 == 0 {
                b_terms.push(Term {
                    care: mask,
                    value: x,
                    outs: 1 << o,
                });
                break;
            }
        }
    }
    let b = PlaModel {
        inputs,
        outputs,
        terms: b_terms,
    };
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthir_core::format_conv::{from_kiss2, to_kiss2};
    use synthir_core::random::random_fsm;

    #[test]
    fn generators_are_seeded_and_round_trip_kiss2() {
        for spec in [
            elevator(4, 7),
            dma_arbiter(3, 7),
            table_walker(9, 6, 7),
            random_fsm(2, 4, 5, 7),
        ] {
            let text = to_kiss2(&spec);
            let back = from_kiss2("x", &text).expect("parses");
            assert_eq!(back.state_count(), spec.state_count());
            let mut rng = Rng::new(1);
            let (mut s, mut t) = (spec.reset_state(), back.reset_state());
            for _ in 0..200 {
                let x = rng.next_u64() & ((1 << spec.num_inputs()) - 1);
                let (s2, o1) = spec.eval(s, x);
                let (t2, o2) = back.eval(t, x);
                assert_eq!(o1, o2);
                (s, t) = (s2, t2);
            }
        }
        assert_eq!(to_kiss2(&elevator(5, 3)), to_kiss2(&elevator(5, 3)));
    }

    #[test]
    fn mutation_changes_a_reset_transition() {
        let text = to_kiss2(&random_fsm(2, 4, 5, 11));
        let mutated = mutate_kiss2(&text, 11);
        let a = from_kiss2("a", &text).unwrap();
        let b = from_kiss2("b", &mutated).unwrap();
        let differs = (0..4u64).any(|x| a.eval(a.reset_state(), x) != b.eval(b.reset_state(), x));
        assert!(differs);
    }

    #[test]
    fn pla_pairs_match_their_verdicts() {
        for mutate in [false, true] {
            let (a, b) = wide_pla_pair(32, 3, 24, mutate, 5);
            let (pa, pb) = (
                Pla::parse(&a.to_pla().render()).unwrap(),
                Pla::parse(&b.to_pla().render()).unwrap(),
            );
            assert_eq!(pa.num_inputs, 32);
            let text_eval = |p: &Pla, x: u64| -> u32 {
                (0..p.num_outputs).fold(0, |acc, o| acc | u32::from(p.on[o].eval(x)) << o)
            };
            let mut rng = Rng::new(9);
            let mut any_diff = false;
            for t in &b.terms {
                // Probe inside every b term, where differences would live.
                let x = t.value | (rng.next_u64() & !t.care & 0xFFFF_FFFF);
                any_diff |= a.eval(x) != b.eval(x);
                assert_eq!(text_eval(&pa, x), a.eval(x));
                assert_eq!(text_eval(&pb, x), b.eval(x));
            }
            assert_eq!(any_diff, mutate);
        }
    }

    #[test]
    fn uasm_assembles() {
        let text = uasm_text(16, 3);
        let (p, conds) = synthir_cli::ucode::assemble_source("u", &text).unwrap();
        assert_eq!(p.instrs().len(), 16);
        assert_eq!(conds.len(), 2);
    }
}
