//! The three workloads: their design schedules, synthesis options, and the
//! job stream each client draws from.
//!
//! A workload's *fresh* designs are numbered `0, 1, 2, …`: first its fixed
//! designs (shipped controllers, PCtrl), then its slot schedule repeated
//! period after period, every slot instance with its own seeded content.
//! The parameters of a slot never depend on the seed, so every seed puts
//! the same mix of sizes and styles in front of the program; the seed
//! only changes the contents. The fixed designs and the first
//! [`QOR_PERIODS`] periods form the workload's QoR set, over which
//! `area_um2` and `critical_ns` are taken.

use crate::gen::{self, mix, PlaModel, Rng};
use smpctrl::rtl::PctrlStyle;
use smpctrl::MemoryConfig;
use synthir_core::format_conv::{from_kiss2, to_kiss2};
use synthir_core::fsm::FsmSpec;
use synthir_core::random::random_fsm;
use synthir_synth::SynthOptions;

/// How an FSM is lowered to RTL.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Style {
    /// Table style without FSM metadata.
    Plain,
    /// Table style with the generator's FSM metadata.
    Annotated,
    /// Case (direct SOP) style; runs the two-level minimizer.
    Case,
    /// Runtime-programmable tables behind a config write port.
    Programmable,
}

impl Style {
    fn tag(self) -> &'static str {
        match self {
            Style::Plain => "plain",
            Style::Annotated => "anno",
            Style::Case => "case",
            Style::Programmable => "prog",
        }
    }
}

/// One design as the program receives it, plus the oracle's reference.
pub enum Input {
    /// KISS2 text lowered in `style`; `reference` is the generator's spec.
    Fsm {
        /// KISS2 text handed to the program.
        text: String,
        /// Lowering style.
        style: Style,
        /// The generator's own spec (oracle reference).
        reference: FsmSpec,
    },
    /// `.uasm` text through the microcode sequencer (bound store).
    Ucode {
        /// `.uasm` text handed to the program.
        text: String,
        /// Attach the generator-derived FSM and field annotations.
        annotate: bool,
    },
    /// The Smart Memories protocol controller.
    Pctrl {
        /// Memory configuration the microcode is generated for.
        cfg: MemoryConfig,
        /// Flavour (Full / Auto / Manual).
        style: PctrlStyle,
    },
    /// Signoff: annotated-table compile vs an independently lowered
    /// case-style netlist of `case_text`.
    SeqPair {
        /// KISS2 text of the spec (table side).
        text: String,
        /// KISS2 text of the case side (the spec, or its mutation).
        case_text: String,
        /// The generator's spec (oracle reference for the table side).
        reference: FsmSpec,
        /// The verdict known by construction.
        equivalent: bool,
    },
    /// Signoff: combinational miter on a wide PLA pair.
    PlaPair {
        /// Left PLA (model and text).
        a: PlaModel,
        /// Right PLA (model and text).
        b: PlaModel,
        /// Text of `a`.
        a_text: String,
        /// Text of `b`.
        b_text: String,
        /// The verdict known by construction.
        equivalent: bool,
    },
}

/// A named design.
pub struct Design {
    /// Unique within the run (kind, parameters, stream position).
    pub name: String,
    /// What the program is given.
    pub input: Input,
}

/// A schedule entry: the fixed parameters of one design position.
#[derive(Clone, Copy, Debug)]
pub enum Slot {
    /// A shipped KISS2 controller.
    Shipped(&'static str, &'static str, Style),
    /// A random Fig. 6 FSM `(m, n, s)`.
    Random(usize, usize, usize, Style),
    /// The n-floor elevator generator, lowered programmable.
    Elevator(usize),
    /// The n-channel DMA arbiter generator, lowered programmable.
    Dma(usize),
    /// The n-entry table-walking controller generator, lowered
    /// programmable.
    Table(usize),
    /// PCtrl in one configuration and flavour.
    Pctrl(MemoryConfig, PctrlStyle),
    /// A random microprogram of the given length.
    Ucode(usize, bool),
    /// A signoff pair on a random FSM `(m, n, s)`.
    SeqPair(usize, usize, usize),
    /// A signoff miter on a wide PLA pair `(inputs, outputs, terms)`.
    PlaPair(usize, usize, usize),
}

/// A workload definition.
pub struct Workload {
    /// Name the benchmark is invoked with.
    pub name: &'static str,
    /// Why it is in the benchmark.
    pub why: &'static str,
    /// Synthesis options every job compiles with.
    pub opts: SynthOptions,
    /// Designs submitted once at the start of the fresh stream.
    pub fixed: Vec<Slot>,
    /// The repeating slot schedule.
    pub slots: Vec<Slot>,
    /// Whether odd-numbered jobs resubmit an earlier design.
    pub repeats: bool,
}

const SHIPPED: [(&str, &str); 4] = [
    (
        "traffic_light",
        include_str!("../../benchmarks/traffic_light.kiss2"),
    ),
    ("elevator", include_str!("../../benchmarks/elevator.kiss2")),
    ("dma_ctrl", include_str!("../../benchmarks/dma_ctrl.kiss2")),
    (
        "seq_detect",
        include_str!("../../benchmarks/seq_detect.kiss2"),
    ),
];

/// Schedule periods in the QoR set. Summing over several instances of
/// every slot keeps `area_um2` / `critical_ns` steady across seeds; every
/// workload completes these designs well within a 30 s run.
const QOR_PERIODS: usize = 4;

const TABLE_STYLES: [Style; 3] = [Style::Plain, Style::Annotated, Style::Case];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "fsm_compile" => fsm_compile(),
        "flex_map" => flex_map(),
        "signoff" => signoff(),
        _ => return None,
    })
}

/// The names of every workload.
pub const NAMES: [&str; 3] = ["fsm_compile", "flex_map", "signoff"];

fn fsm_compile() -> Workload {
    let mut fixed = Vec::new();
    for (name, text) in SHIPPED {
        for style in TABLE_STYLES {
            fixed.push(Slot::Shipped(name, text, style));
        }
    }
    for cfg in [MemoryConfig::cached(), MemoryConfig::uncached()] {
        for style in [PctrlStyle::Bound, PctrlStyle::BoundAnnotated] {
            fixed.push(Slot::Pctrl(cfg, style));
        }
    }
    let mut slots = Vec::new();
    // The Fig. 6 grid; m = 8 stops at s = 3 (larger points compile for
    // 0.1–12 s each and would dominate a run).
    for m in [2, 8] {
        for n in [2, 8, 16] {
            for s in [2, 3, 8, 16, 17] {
                if m == 8 && s > 3 {
                    continue;
                }
                for style in TABLE_STYLES {
                    slots.push(Slot::Random(m, n, s, style));
                }
            }
        }
    }
    for (len, annotate) in [(8, true), (16, false), (32, true), (64, false)] {
        slots.push(Slot::Ucode(len, annotate));
    }
    Workload {
        name: "fsm_compile",
        why: "the paper's own traffic: small-to-medium controllers, default options, half the jobs resubmit an earlier design",
        opts: SynthOptions::default(),
        fixed,
        slots,
        repeats: true,
    }
}

fn flex_map() -> Workload {
    let fixed = vec![Slot::Pctrl(MemoryConfig::cached(), PctrlStyle::Flexible)];
    let p = Style::Programmable;
    let mut slots = Vec::new();
    for (m, n, s) in [
        (1, 4, 4),
        (1, 8, 8),
        (1, 4, 16),
        (1, 4, 17),
        (2, 4, 4),
        (2, 8, 8),
        (2, 4, 16),
        (2, 8, 16),
        (3, 4, 8),
    ] {
        slots.push(Slot::Random(m, n, s, p));
    }
    for floors in [2, 3, 4, 5] {
        slots.push(Slot::Elevator(floors));
    }
    for channels in [2, 3, 4] {
        slots.push(Slot::Dma(channels));
    }
    for entries in [4, 8, 12, 17] {
        slots.push(Slot::Table(entries));
    }
    Workload {
        name: "flex_map",
        why: "runtime-programmable lowerings (config flops, write decoders, read-mux trees) compiled with the cut mapper",
        opts: SynthOptions::default().with_cut_mapper(),
        fixed,
        slots,
        repeats: false,
    }
}

fn signoff() -> Workload {
    let mut slots = Vec::new();
    for (m, ss) in [(1, [3, 5, 8]), (2, [2, 3, 4])] {
        for n in [2, 4, 8] {
            for s in ss {
                slots.push(Slot::SeqPair(m, n, s));
            }
        }
    }
    // The heaviest pairs come as a group of similar cost, so the 95th
    // percentile falls inside it rather than on the edge of one slot.
    for n in [2, 4] {
        slots.push(Slot::SeqPair(2, n, 5));
    }
    for (inputs, outputs, terms) in [
        (28, 2, 24),
        (32, 3, 32),
        (36, 2, 40),
        (40, 4, 48),
        (48, 3, 56),
        (60, 4, 64),
    ] {
        slots.push(Slot::PlaPair(inputs, outputs, terms));
    }
    Workload {
        name: "signoff",
        why: "SAT-heavy path: sat-swept, pass-verified compiles proved against independent case-style netlists, plus wide PLA miters",
        opts: SynthOptions::default()
            .with_sat_sweep()
            .with_verify_each_pass(),
        fixed: Vec::new(),
        slots,
        repeats: false,
    }
}

impl Workload {
    /// Size of the QoR set: the fixed designs plus the first
    /// [`QOR_PERIODS`] periods of the schedule.
    pub fn qor_set(&self) -> usize {
        self.fixed.len() + QOR_PERIODS * self.slots.len()
    }

    /// The fresh-design index job `j` submits. With repeats, odd jobs
    /// resubmit a seeded earlier design, so half of all jobs are repeats.
    pub fn design_of_job(&self, seed: u64, j: usize) -> usize {
        if !self.repeats {
            return j;
        }
        if j.is_multiple_of(2) {
            j / 2
        } else {
            Rng::new(mix(seed, j as u64 ^ 0x5EED_0000)).below(j / 2 + 1)
        }
    }

    /// Generates fresh design `d` of the stream for `seed`.
    pub fn design(&self, seed: u64, d: usize) -> Design {
        if d < self.fixed.len() {
            return make(self.fixed[d], mix(seed, d as u64), false, d);
        }
        let k = (d - self.fixed.len()) % self.slots.len();
        let period = (d - self.fixed.len()) / self.slots.len();
        // Signoff pairs alternate known verdicts per slot and period, so
        // exactly half of them are mutated.
        let mutate = (period + k) % 2 == 1;
        make(self.slots[k], mix(seed, d as u64), mutate, d)
    }

    /// Warm-up design `i`: schedule slots with contents from a namespace
    /// the job stream never uses.
    pub fn warmup_design(&self, seed: u64, i: usize) -> Design {
        let k = i % self.slots.len();
        make(
            self.slots[k],
            mix(!seed, i as u64),
            i % 2 == 1,
            usize::MAX - 1 - i,
        )
    }
}

fn fsm_input(spec: FsmSpec, style: Style) -> Input {
    Input::Fsm {
        text: to_kiss2(&spec),
        style,
        reference: spec,
    }
}

fn make(slot: Slot, seed: u64, mutate: bool, d: usize) -> Design {
    let (name, input) = match slot {
        Slot::Shipped(name, text, style) => {
            let reference = from_kiss2(name, text).expect("shipped KISS2 parses");
            let input = Input::Fsm {
                text: text.to_string(),
                style,
                reference,
            };
            (format!("{name}_{}", style.tag()), input)
        }
        Slot::Random(m, n, s, style) => {
            // A programmable lowering's hardware depends only on its
            // interface, so the seed widens the output bus by 0–2 bits to
            // make the hardware itself differ between seeds.
            let n = if style == Style::Programmable {
                n + (seed % 3) as usize
            } else {
                n
            };
            (
                format!("rand_m{m}n{n}s{s}_{}", style.tag()),
                fsm_input(random_fsm(m, n, s, seed), style),
            )
        }
        Slot::Elevator(floors) => (
            format!("elevator{floors}_prog"),
            fsm_input(gen::elevator(floors, seed), Style::Programmable),
        ),
        Slot::Dma(channels) => (
            format!("dma{channels}_prog"),
            fsm_input(gen::dma_arbiter(channels, seed), Style::Programmable),
        ),
        Slot::Table(entries) => {
            let width = 4 + (seed % 3) as usize;
            (
                format!("table{entries}w{width}_prog"),
                fsm_input(gen::table_walker(entries, width, seed), Style::Programmable),
            )
        }
        Slot::Pctrl(cfg, style) => (
            format!("pctrl_{}_{style:?}", cfg.tag()),
            Input::Pctrl { cfg, style },
        ),
        Slot::Ucode(len, annotate) => (
            format!("ucode{len}{}", if annotate { "_anno" } else { "" }),
            Input::Ucode {
                text: gen::uasm_text(len, seed),
                annotate,
            },
        ),
        Slot::SeqPair(m, n, s) => {
            let spec = random_fsm(m, n, s, seed);
            let text = to_kiss2(&spec);
            let case_text = if mutate {
                gen::mutate_kiss2(&text, seed)
            } else {
                text.clone()
            };
            (
                format!("pair_m{m}n{n}s{s}{}", if mutate { "_mut" } else { "" }),
                Input::SeqPair {
                    text,
                    case_text,
                    reference: spec,
                    equivalent: !mutate,
                },
            )
        }
        Slot::PlaPair(inputs, outputs, terms) => {
            let (a, b) = gen::wide_pla_pair(inputs, outputs, terms, mutate, seed);
            (
                format!(
                    "pla_i{inputs}o{outputs}p{terms}{}",
                    if mutate { "_mut" } else { "" }
                ),
                Input::PlaPair {
                    a_text: a.to_pla().render(),
                    b_text: b.to_pla().render(),
                    a,
                    b,
                    equivalent: !mutate,
                },
            )
        }
    };
    Design {
        name: format!("{name}#{d}"),
        input,
    }
}
