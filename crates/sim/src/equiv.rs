//! Equivalence checking between designs.
//!
//! The central soundness check of the whole methodology: a partially
//! evaluated (specialized) design must be input/output-equivalent to the
//! flexible design it came from, with the flexible design's configuration
//! inputs bound to the programmed values.

use crate::seq::SeqSim;
use crate::SimError;
use std::collections::HashMap;
use synthir_aig::{from_netlist, satisfy, satisfy_within, Aig, AigLit, AigNode};
use synthir_netlist::Netlist;

/// The equivalence prover. SAT is the only one: combinational checks are a
/// one-frame AIG miter, sequential checks an induction proof backed by
/// bounded model checking.
///
/// Kept, together with [`EquivOptions::engine`], only so callers that still
/// assign `EquivEngine::Sat` (the `perfbench` harness) keep compiling; both
/// go once those assignments do.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EquivEngine {
    /// CDCL SAT on an AIG miter.
    #[default]
    Sat,
}

/// Options for equivalence checking.
#[derive(Clone, Debug)]
pub struct EquivOptions {
    /// Constant bindings applied to inputs of either design (by port name).
    /// Ports bound here are excluded from the shared interface.
    pub bind_left: HashMap<String, u128>,
    /// Constant bindings for the right design.
    pub bind_right: HashMap<String, u128>,
    /// Seed of the induction prover's random simulation. It only steers
    /// which candidate classes the prover tries, so it cannot change a
    /// verdict.
    pub seed: u64,
    /// Unrolling depth for sequential checks (bounded model checking):
    /// outputs are compared exactly for this many cycles from reset
    /// whenever the induction prover cannot prove them equal at every
    /// depth.
    pub bmc_depth: usize,
    /// Always [`EquivEngine::Sat`], the only engine (see [`EquivEngine`]).
    pub engine: EquivEngine,
}

impl EquivOptions {
    /// Reasonable defaults: no bindings, 8-cycle BMC unrolling.
    pub fn new() -> Self {
        EquivOptions {
            bind_left: HashMap::new(),
            bind_right: HashMap::new(),
            seed: 0x5EED,
            bmc_depth: 8,
            engine: EquivEngine::Sat,
        }
    }
}

impl Default for EquivOptions {
    /// Identical to [`EquivOptions::new`] — a zero-filled struct would
    /// silently mean a 1-cycle BMC, which reads as a much stronger check
    /// than it is.
    fn default() -> Self {
        Self::new()
    }
}

/// A distinguishing input found by an equivalence check.
#[derive(Clone, Debug, PartialEq)]
pub struct Counterexample {
    /// Input values by port name.
    pub inputs: HashMap<String, u128>,
    /// The output port that differs.
    pub output: String,
    /// Value produced by the left design.
    pub left: u128,
    /// Value produced by the right design.
    pub right: u128,
}

/// The verdict of an equivalence check.
#[derive(Clone, Debug, PartialEq)]
pub enum EquivResult {
    /// A proof: for every input of a combinational check, and for every
    /// input sequence of at least [`EquivOptions::bmc_depth`] cycles from
    /// reset of a sequential check (for every depth when induction proved
    /// it; the verdict does not say which).
    Equivalent,
    /// A concrete counterexample.
    Inequivalent(Box<Counterexample>),
}

impl EquivResult {
    /// Whether the verdict is [`EquivResult::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivResult::Equivalent)
    }
}

struct Interface {
    /// Shared free inputs: (name, width).
    inputs: Vec<(String, usize)>,
    /// Shared outputs: (name, width).
    outputs: Vec<(String, usize)>,
}

fn shared_interface(
    left: &Netlist,
    right: &Netlist,
    opts: &EquivOptions,
) -> Result<Interface, SimError> {
    // Bindings must name real input ports: a typo'd binding would otherwise
    // silently widen the shared interface (the port it meant to tie off
    // stays free), which is a soundness hole for program-then-compare
    // checks. Ports wider than a binding value (128 bits) would silently
    // truncate; reject those too.
    for (binds, nl, side) in [
        (&opts.bind_left, left, "left"),
        (&opts.bind_right, right, "right"),
    ] {
        for name in binds.keys() {
            let port = nl.input(name).map_err(|_| SimError::PortMismatch {
                context: format!("binding names unknown input `{name}` on the {side} design"),
            })?;
            if port.nets.len() > 128 {
                return Err(SimError::BadBinding { name: name.clone() });
            }
        }
    }
    let mut inputs = Vec::new();
    for p in left.inputs() {
        if opts.bind_left.contains_key(&p.name) {
            continue;
        }
        match right.input(&p.name) {
            Ok(rp) if rp.nets.len() == p.nets.len() => {
                inputs.push((p.name.clone(), p.nets.len()));
            }
            Ok(_) => {
                return Err(SimError::PortMismatch {
                    context: format!("input `{}` width differs", p.name),
                })
            }
            Err(_) => {
                return Err(SimError::PortMismatch {
                    context: format!("input `{}` missing on right design", p.name),
                })
            }
        }
    }
    for p in right.inputs() {
        if opts.bind_right.contains_key(&p.name) {
            continue;
        }
        if !inputs.iter().any(|(n, _)| n == &p.name) {
            return Err(SimError::PortMismatch {
                context: format!("input `{}` missing on left design", p.name),
            });
        }
    }
    let mut outputs = Vec::new();
    for p in left.outputs() {
        if let Ok(rp) = right.output(&p.name) {
            if rp.nets.len() != p.nets.len() {
                return Err(SimError::PortMismatch {
                    context: format!("output `{}` width differs", p.name),
                });
            }
            outputs.push((p.name.clone(), p.nets.len()));
        }
    }
    if outputs.is_empty() {
        return Err(SimError::PortMismatch {
            context: "no common outputs".into(),
        });
    }
    Ok(Interface { inputs, outputs })
}

/// Checks combinational equivalence: one AIG miter of the two designs,
/// decided by CDCL SAT, so the verdict is a proof at any interface width.
///
/// # Errors
///
/// Returns [`SimError`] for invalid netlists (including any netlist with
/// flops), incompatible interfaces, or bindings naming unknown or over-wide
/// ports.
pub fn check_comb_equiv(
    left: &Netlist,
    right: &Netlist,
    opts: &EquivOptions,
) -> Result<EquivResult, SimError> {
    for nl in [left, right] {
        if nl.flop_count() > 0 {
            return Err(SimError::InvalidNetlist(format!(
                "`{}` has {} flops; combinational equivalence needs flop-free \
                 netlists (use check_seq_equiv)",
                nl.name(),
                nl.flop_count()
            )));
        }
    }
    let iface = shared_interface(left, right, opts)?;
    let designs = import_pair(left, right, opts)?;
    check_sat(left, right, &designs, &iface, opts, None)
}

/// One imported design of a SAT check: its graph, its input bindings, and
/// its live nodes (those an output observes, through latches).
struct Design<'a> {
    aig: Aig,
    binds: &'a HashMap<String, u128>,
    live: Vec<bool>,
}

/// Imports both designs once; BMC and the induction prover share them.
fn import_pair<'a>(
    left: &Netlist,
    right: &Netlist,
    opts: &'a EquivOptions,
) -> Result<[Design<'a>; 2], SimError> {
    let import = |nl, binds| -> Result<Design<'a>, SimError> {
        let aig = from_netlist(nl)
            .map_err(|e| SimError::InvalidNetlist(e.to_string()))?
            .aig;
        let live = aig.live_marks(&[]);
        Ok(Design { aig, binds, live })
    };
    Ok([
        import(left, &opts.bind_left)?,
        import(right, &opts.bind_right)?,
    ])
}

/// One frame's shared input literals: a fresh miter input per interface
/// bit, except that sequential checks hold `rst` low.
fn frame_inputs<'i>(
    m: &mut Aig,
    iface: &'i Interface,
    sequential: bool,
) -> HashMap<&'i str, Vec<AigLit>> {
    iface
        .inputs
        .iter()
        .map(|(name, w)| {
            let lits = if sequential && name == "rst" {
                vec![AigLit::FALSE; *w]
            } else {
                (0..*w).map(|_| m.add_input()).collect()
            };
            (name.as_str(), lits)
        })
        .collect()
}

/// Copies one time frame of `d` into the miter `m` — the one frame
/// construction behind BMC and the induction prover. Input ports read
/// `inputs` (bound ports become constants), latch outputs read `state`, and
/// the ANDs marked in `mask` are rebuilt through `and`: plain [`Aig::and`],
/// or the prover's speculative reduction. Returns the node → miter-literal
/// map.
fn frame(
    m: &mut Aig,
    d: &Design,
    inputs: &HashMap<&str, Vec<AigLit>>,
    state: &[AigLit],
    mask: &[bool],
    and: impl FnMut(&mut Aig, &[AigLit], usize, AigLit, AigLit) -> AigLit,
) -> Vec<AigLit> {
    let mut map = vec![AigLit::FALSE; d.aig.node_count()];
    for p in d.aig.input_ports() {
        for (i, old) in p.lits.iter().enumerate() {
            map[old.node() as usize] = match d.binds.get(&p.name) {
                Some(&v) => m.constant(v >> i & 1 != 0),
                None => inputs[p.name.as_str()][i],
            };
        }
    }
    for (l, &q) in d.aig.latches().iter().zip(state) {
        map[l.output as usize] = q;
    }
    m.copy_ands(&d.aig, mask, &mut map, and);
    map
}

/// The latch values one cycle after the frame `map` holds:
/// `mux(reset, init, next)` per latch.
fn next_state(m: &mut Aig, d: &Design, map: &[AigLit]) -> Vec<AigLit> {
    d.aig
        .latches()
        .iter()
        .map(|l| {
            let init = m.constant(l.init);
            let (rst, next) = (l.reset_lit.translate(map), l.next.translate(map));
            m.mux(rst, init, next)
        })
        .collect()
}

/// The design's literals for the interface output bits, interface order.
fn iface_outputs<'a>(d: &'a Design, iface: &'a Interface) -> impl Iterator<Item = AigLit> + 'a {
    iface.outputs.iter().flat_map(move |(name, _)| {
        let port = d.aig.output_ports().iter().find(|p| &p.name == name);
        port.expect("interface output exists").lits.iter().copied()
    })
}

/// The SAT engine behind both check kinds: one AIG miter, one solver call.
///
/// Every frame copies both imported graphs into one miter graph over
/// shared per-frame input literals ([`frame`]): frame-0 latches read their
/// `init` values, and each later frame's latches the previous frame's
/// [`next_state`]. The target — some output bit differs in some frame —
/// hashes to false when construction alone proves the designs equal;
/// otherwise the solver either proves it unsatisfiable or returns inputs
/// that are replayed through [`SeqSim`]. `bmc_depth: None` is the
/// combinational check (one frame, no latches); `Some(k)` unrolls `k`
/// cycles from reset with a shared `rst` input held at 0.
fn check_sat(
    left: &Netlist,
    right: &Netlist,
    designs: &[Design; 2],
    iface: &Interface,
    opts: &EquivOptions,
    bmc_depth: Option<usize>,
) -> Result<EquivResult, SimError> {
    let mut m = Aig::new("miter");
    let mut state = designs.each_ref().map(|d| {
        d.aig
            .latches()
            .iter()
            .map(|l| m.constant(l.init))
            .collect::<Vec<_>>()
    });
    let mut frames: Vec<HashMap<&str, Vec<AigLit>>> = Vec::new();
    let mut target = AigLit::FALSE;
    for _ in 0..bmc_depth.map_or(1, |d| d.max(1)) {
        let shared = frame_inputs(&mut m, iface, bmc_depth.is_some());
        let mut outs: [Vec<AigLit>; 2] = Default::default();
        for (side, d) in designs.iter().enumerate() {
            let map = frame(
                &mut m,
                d,
                &shared,
                &state[side],
                &d.live,
                |m, _, _, a, b| m.and(a, b),
            );
            outs[side].extend(iface_outputs(d, iface).map(|l| l.translate(&map)));
            state[side] = next_state(&mut m, d, &map);
        }
        for (&l, &r) in outs[0].iter().zip(&outs[1]) {
            let d = m.xor(l, r);
            target = m.or(target, d);
        }
        frames.push(shared);
    }
    let Some(model) = satisfy(&m, target) else {
        return Ok(EquivResult::Equivalent);
    };
    // Decode the solver's inputs frame by frame (held-low `rst` bits are
    // constants and read 0).
    let word = |lits: &[AigLit]| {
        lits.iter().enumerate().fold(0u128, |v, (i, l)| {
            let bit = l.as_constant().unwrap_or_else(|| model[l.node() as usize]);
            v | u128::from(bit) << i
        })
    };
    let sequence: Vec<HashMap<String, u128>> = frames
        .iter()
        .map(|shared| {
            shared
                .iter()
                .map(|(name, lits)| (name.to_string(), word(lits)))
                .collect()
        })
        .collect();
    // Replay the sequence through the simulators, cycle by cycle (a
    // flop-free design's one step is its combinational evaluation): this
    // validates the miter and pins down the first differing cycle and
    // output.
    let (mut lsim, mut rsim) = (SeqSim::new(left)?, SeqSim::new(right)?);
    for (cycle, inputs) in sequence.iter().enumerate() {
        let bound = |binds: &HashMap<String, u128>| {
            let mut bound = inputs.clone();
            bound.extend(binds.iter().map(|(k, &v)| (k.clone(), v)));
            bound
        };
        let lout = lsim.step(&bound(&opts.bind_left));
        let rout = rsim.step(&bound(&opts.bind_right));
        let Some((name, _)) = iface.outputs.iter().find(|(n, _)| lout[n] != rout[n]) else {
            continue;
        };
        let mut cex_inputs = inputs.clone();
        if bmc_depth.is_some() {
            // The failing cycle's inputs under their plain names, plus the
            // full solver-chosen prefix as `name@cycle` — without it the
            // mismatch is not reproducible, since the divergence may need
            // state built up over earlier cycles.
            cex_inputs.insert("__cycle".into(), cycle as u128);
            for (t, cyc) in sequence.iter().enumerate().take(cycle + 1) {
                for (name, v) in cyc {
                    cex_inputs.insert(format!("{name}@{t}"), *v);
                }
            }
        }
        return Ok(EquivResult::Inequivalent(Box::new(Counterexample {
            inputs: cex_inputs,
            output: name.clone(),
            left: lout[name],
            right: rout[name],
        })));
    }
    Err(SimError::InvalidNetlist(
        "internal: SAT counterexample failed simulation replay".into(),
    ))
}

/// Checks sequential equivalence: both designs start from reset (flops at
/// their `init` values) and see the same inputs every cycle, with a shared
/// `rst` input held low.
///
/// An induction prover (signal correspondence with speculative reduction)
/// runs first; when it proves the outputs equal in every reachable state,
/// the designs are equivalent at every depth. Otherwise an exact [`EquivOptions::bmc_depth`]-cycle bounded model check
/// decides, so every counterexample — and every verdict — is the one
/// bounded model checking alone returns.
///
/// # Errors
///
/// Returns [`SimError`] for invalid netlists or incompatible interfaces.
pub fn check_seq_equiv(
    left: &Netlist,
    right: &Netlist,
    opts: &EquivOptions,
) -> Result<EquivResult, SimError> {
    let iface = shared_interface(left, right, opts)?;
    let designs = import_pair(left, right, opts)?;
    if prove_by_induction(&designs, &iface, opts) {
        return Ok(EquivResult::Equivalent);
    }
    check_sat(left, right, &designs, &iface, opts, Some(opts.bmc_depth))
}

/// Cycles from reset the prover simulates (64 random patterns each) before
/// grouping candidates into classes.
const INDUCTION_SIM_CYCLES: usize = 24;

/// Refinement rounds the prover spends on one candidate set before it
/// gives up and leaves the check to BMC.
const INDUCTION_MAX_ROUNDS: usize = 8;

/// Solver conflicts one refinement round may spend before the prover gives
/// up and leaves the check to BMC.
const INDUCTION_MAX_CONFLICTS: u64 = 300;

/// A signal-correspondence candidate: a node of one design, with the
/// phase its simulation signature was normalized by. Node 0 of design 0
/// stands for the constant.
#[derive(Clone, Copy)]
struct Cand {
    side: usize,
    node: u32,
    phase: bool,
}

/// `l`, complemented when `c` is set.
fn flip(l: AigLit, c: bool) -> AigLit {
    l.with_complement(l.is_complemented() ^ c)
}

/// Proves the sequential check at every depth by signal correspondence
/// (van Eijk, "Sequential equivalence checking based on structural
/// similarities", IEEE TCAD 2000) in its speculatively-reduced form
/// (Mishchenko, Case, Brayton, Jang, "Scalable and scalably-verifiable
/// sequential synthesis", ICCAD 2008), under BMC's semantics: reset from
/// `init`, `rst` held low, latches through [`next_state`].
///
/// Candidates are the constant, the live latches and the live
/// *state-only* ANDs (no free input in their cone) of both designs.
/// Simulation from reset groups them into classes of equal phase-
/// canonical signatures, so every class holds at `init`. A round then
/// builds one [`frame`] per design over a free state in which every class
/// member reads its representative (the induction hypothesis), and asks
/// one SAT question: can a class break one cycle later, or an output
/// differ now? A counterexample splits the classes it separates and the
/// round repeats; an unsatisfiable target proves the classes inductive and
/// the outputs equal in every reachable state, which is BMC passing at
/// every depth. All candidates refine together to one fixpoint.
///
/// Returns `false` — leaving the verdict to BMC — when simulation already
/// sees an output differ, when a counterexample splits no class, after
/// [`INDUCTION_MAX_ROUNDS`] rounds, or when one SAT call runs past
/// [`INDUCTION_MAX_CONFLICTS`] conflicts.
fn prove_by_induction(designs: &[Design; 2], iface: &Interface, opts: &EquivOptions) -> bool {
    let state_only = designs.each_ref().map(state_only_ands);
    let cand = |side, node| Cand {
        side,
        node,
        phase: false,
    };
    let mut cands = vec![cand(0, 0)];
    for (side, d) in designs.iter().enumerate() {
        let live = d.aig.latches().iter().filter(|l| d.live[l.output as usize]);
        cands.extend(live.map(|l| cand(side, l.output)));
    }
    for (side, marks) in state_only.iter().enumerate() {
        let ands = (0..marks.len()).filter(|&i| marks[i]);
        cands.extend(ands.map(|i| cand(side, i as u32)));
    }
    let mut rng = SplitMix::new(opts.seed);
    let Some(sigs) = simulate_from_reset(designs, iface, &mut rng, &mut cands) else {
        return false;
    };
    let classes = classes_by_signature(&sigs);
    refine_to_fixpoint(designs, iface, &mut rng, &cands, &state_only, classes)
}

/// Marks the live ANDs with no free input in their cone: only latches,
/// constants, bound ports and the held-low `rst`.
fn state_only_ands(d: &Design) -> Vec<bool> {
    let nodes = d.aig.nodes();
    let mut free: Vec<bool> = nodes.iter().map(|n| matches!(n, AigNode::Input)).collect();
    for p in d.aig.input_ports() {
        if d.binds.contains_key(&p.name) || p.name == "rst" {
            for l in &p.lits {
                free[l.node() as usize] = false;
            }
        }
    }
    let mut marks = vec![false; nodes.len()];
    for (i, n) in nodes.iter().enumerate() {
        if let AigNode::And(a, b) = *n {
            free[i] = free[a.node() as usize] || free[b.node() as usize];
            marks[i] = d.live[i] && !free[i];
        }
    }
    marks
}

/// Simulates both designs from reset as BMC unrolls them (`rst` held low,
/// bound ports constant, latches through `mux(reset, init, next)`), 64
/// random input patterns per cycle shared by both designs. Returns the
/// candidates' signatures, [`INDUCTION_SIM_CYCLES`] words each, after
/// setting every candidate's phase so its first pattern of cycle 0 reads 0
/// — or `None` once an output differs.
fn simulate_from_reset(
    designs: &[Design; 2],
    iface: &Interface,
    rng: &mut SplitMix,
    cands: &mut [Cand],
) -> Option<Vec<u64>> {
    let word = |b: bool| if b { u64::MAX } else { 0 };
    let mut state: [Vec<u64>; 2] = designs
        .each_ref()
        .map(|d| d.aig.latches().iter().map(|l| word(l.init)).collect());
    let mut sigs = vec![0u64; cands.len() * INDUCTION_SIM_CYCLES];
    for cycle in 0..INDUCTION_SIM_CYCLES {
        let words: HashMap<&str, Vec<u64>> = iface
            .inputs
            .iter()
            .map(|(name, w)| {
                let held = name == "rst";
                let bits = (0..*w).map(|_| if held { 0 } else { rng.next() });
                (name.as_str(), bits.collect())
            })
            .collect();
        let vals = [0, 1].map(|side| {
            let d = &designs[side];
            let mut src = vec![0u64; d.aig.node_count()];
            for p in d.aig.input_ports() {
                for (i, l) in p.lits.iter().enumerate() {
                    src[l.node() as usize] = match d.binds.get(&p.name) {
                        Some(&v) => word(v >> i & 1 != 0),
                        None => words[p.name.as_str()][i],
                    };
                }
            }
            for (l, &q) in d.aig.latches().iter().zip(&state[side]) {
                src[l.output as usize] = q;
            }
            d.aig.simulate(|n| src[n as usize])
        });
        let value = |side: usize, l| Aig::lit_value(&vals[side], l);
        let mut outs = iface_outputs(&designs[0], iface).zip(iface_outputs(&designs[1], iface));
        if outs.any(|(l, r)| value(0, l) != value(1, r)) {
            return None;
        }
        for (c, cand) in cands.iter().enumerate() {
            sigs[c * INDUCTION_SIM_CYCLES + cycle] = vals[cand.side][cand.node as usize];
        }
        state = [0, 1].map(|side| {
            let latches = designs[side].aig.latches().iter();
            latches
                .map(|l| {
                    let rst = value(side, l.reset_lit);
                    rst & word(l.init) | !rst & value(side, l.next)
                })
                .collect()
        });
    }
    for (cand, sig) in cands.iter_mut().zip(sigs.chunks_mut(INDUCTION_SIM_CYCLES)) {
        cand.phase = sig[0] & 1 != 0;
        if cand.phase {
            sig.iter_mut().for_each(|w| *w = !*w);
        }
    }
    Some(sigs)
}

/// Groups candidates with equal signatures, dropping singletons. Members
/// keep candidate order, so each class's first member — its
/// representative — is the constant, a latch, or the earliest AND, and is
/// always built before the members that read it.
fn classes_by_signature(sigs: &[u64]) -> Vec<Vec<usize>> {
    let mut index: HashMap<&[u64], usize> = HashMap::new();
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for (c, sig) in sigs.chunks(INDUCTION_SIM_CYCLES).enumerate() {
        let k = *index.entry(sig).or_insert_with(|| {
            classes.push(Vec::new());
            classes.len() - 1
        });
        classes[k].push(c);
    }
    classes.retain(|c| c.len() > 1);
    classes
}

/// The refinement loop of [`prove_by_induction`]: `true` once the classes
/// and the outputs are proved inductive.
fn refine_to_fixpoint(
    designs: &[Design; 2],
    iface: &Interface,
    rng: &mut SplitMix,
    cands: &[Cand],
    state_only: &[Vec<bool>; 2],
    mut classes: Vec<Vec<usize>>,
) -> bool {
    let kind = |c: Cand| designs[c.side].aig.nodes()[c.node as usize];
    for _ in 0..INDUCTION_MAX_ROUNDS {
        // Every class member reads its representative, in relative phase.
        let mut subst = designs.each_ref().map(|d| vec![None; d.aig.node_count()]);
        for class in &classes {
            let rep = cands[class[0]];
            for &c in &class[1..] {
                let c = cands[c];
                subst[c.side][c.node as usize] = Some((rep, c.phase ^ rep.phase));
            }
        }
        let mut m = Aig::new("induction");
        let inputs = frame_inputs(&mut m, iface, true);
        // Frame t: a free state under the hypothesis. A latch's
        // representative is the constant or an earlier latch.
        let mut state: [Vec<AigLit>; 2] = Default::default();
        for (side, d) in designs.iter().enumerate() {
            for l in d.aig.latches() {
                let q = match subst[side][l.output as usize] {
                    Some((rep, ph)) => match kind(rep) {
                        AigNode::Latch(idx) => flip(state[rep.side][idx as usize], ph),
                        _ => flip(AigLit::FALSE, ph),
                    },
                    None => m.add_input(),
                };
                state[side].push(q);
            }
        }
        // A reduced AND member still constrains the state: its own value
        // over the reduced fanins must equal its representative's, which
        // every state satisfying the hypothesis meets.
        let mut maps: Vec<Vec<AigLit>> = Vec::with_capacity(2);
        let mut assumed: Vec<(AigLit, AigLit)> = Vec::new();
        for (side, d) in designs.iter().enumerate() {
            let map = frame(
                &mut m,
                d,
                &inputs,
                &state[side],
                &d.live,
                |m, map, i, a, b| {
                    let own = m.and(a, b);
                    let Some((rep, ph)) = subst[side][i] else {
                        return own;
                    };
                    let r = match kind(rep) {
                        AigNode::Latch(idx) => state[rep.side][idx as usize],
                        _ if rep.side == side => map[rep.node as usize],
                        _ => maps[rep.side][rep.node as usize],
                    };
                    assumed.push((own, flip(r, ph)));
                    flip(r, ph)
                },
            );
            maps.push(map);
        }
        let mut hypothesis = AigLit::TRUE;
        for (own, r) in assumed {
            let same = !m.xor(own, r);
            hypothesis = m.and(hypothesis, same);
        }
        let mut target = AigLit::FALSE;
        let outs: Vec<(AigLit, AigLit)> = iface_outputs(&designs[0], iface)
            .map(|l| l.translate(&maps[0]))
            .zip(iface_outputs(&designs[1], iface).map(|l| l.translate(&maps[1])))
            .collect();
        for (l, r) in outs {
            let d = m.xor(l, r);
            target = m.or(target, d);
        }
        // Frame t + 1, unreduced: the latches' next values and the
        // state-only ANDs over them.
        let next = [0, 1].map(|s| next_state(&mut m, &designs[s], &maps[s]));
        let after = [0, 1].map(|s| {
            let (d, mask) = (&designs[s], &state_only[s]);
            frame(&mut m, d, &inputs, &next[s], mask, |m, _, _, a, b| {
                m.and(a, b)
            })
        });
        let lit_after = |c: Cand| {
            let l = match kind(c) {
                AigNode::Latch(idx) => next[c.side][idx as usize],
                AigNode::And(..) => after[c.side][c.node as usize],
                _ => AigLit::FALSE,
            };
            flip(l, c.phase)
        };
        let checked: Vec<Vec<AigLit>> = classes
            .iter()
            .map(|class| class.iter().map(|&c| lit_after(cands[c])).collect())
            .collect();
        for lits in &checked {
            for &l in &lits[1..] {
                let d = m.xor(lits[0], l);
                target = m.or(target, d);
            }
        }
        let target = m.and(hypothesis, target);
        let Some(answer) = satisfy_within(&m, target, INDUCTION_MAX_CONFLICTS) else {
            return false;
        };
        let Some(model) = answer else {
            return true;
        };
        // Split every class the counterexample separates. The hypothesis
        // only constrains the frame-t state, so the model's state meets it
        // under any inputs: pattern 0 replays the model, 63 random input
        // patterns from the same state split further classes for free.
        let mut src: Vec<u64> = model
            .iter()
            .map(|&b| if b { u64::MAX } else { 0 })
            .collect();
        for l in inputs.values().flatten().filter(|l| !l.is_constant()) {
            let n = l.node() as usize;
            src[n] = rng.next() & !1 | src[n] & 1;
        }
        let vals = m.simulate(|n| src[n as usize]);
        let mut split = false;
        let mut refined = Vec::with_capacity(classes.len());
        for (class, lits) in classes.into_iter().zip(&checked) {
            let mut parts: Vec<(u64, Vec<usize>)> = Vec::new();
            for (c, &l) in class.into_iter().zip(lits) {
                let w = Aig::lit_value(&vals, l);
                match parts.iter_mut().find(|(pw, _)| *pw == w) {
                    Some((_, part)) => part.push(c),
                    None => parts.push((w, vec![c])),
                }
            }
            split |= parts.len() > 1;
            refined.extend(parts.into_iter().map(|(_, p)| p).filter(|p| p.len() > 1));
        }
        if !split {
            return false;
        }
        classes = refined;
    }
    false
}

/// Minimal deterministic RNG (SplitMix64).
struct SplitMix {
    state: u64,
}

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthir_netlist::{GateKind, NetId};

    fn and_module(extra_inv: bool) -> Netlist {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a", 1)[0];
        let b = nl.add_input("b", 1)[0];
        let mut y = nl.add_gate(GateKind::And2, &[a, b]);
        if extra_inv {
            let t = nl.add_gate(GateKind::Inv, &[y]);
            y = nl.add_gate(GateKind::Inv, &[t]);
        }
        nl.add_output("y", &[y]);
        nl
    }

    #[test]
    fn equivalent_designs_pass() {
        let l = and_module(false);
        let r = and_module(true);
        let res = check_comb_equiv(&l, &r, &EquivOptions::new()).unwrap();
        assert!(res.is_equivalent());
    }

    #[test]
    fn inequivalent_designs_yield_counterexample() {
        let l = and_module(false);
        let mut r = Netlist::new("m");
        let a = r.add_input("a", 1)[0];
        let b = r.add_input("b", 1)[0];
        let y = r.add_gate(GateKind::Or2, &[a, b]);
        r.add_output("y", &[y]);
        let res = check_comb_equiv(&l, &r, &EquivOptions::new()).unwrap();
        match res {
            EquivResult::Inequivalent(cex) => {
                assert_ne!(cex.left, cex.right);
                // The counterexample must actually distinguish AND from OR.
                let a = cex.inputs["a"];
                let b = cex.inputs["b"];
                assert_ne!(a & b, a | b);
            }
            EquivResult::Equivalent => panic!("missed inequivalence"),
        }
    }

    #[test]
    fn binding_removes_ports_from_interface() {
        // Left: y = a & cfg. Right: y = a (cfg bound to 1).
        let mut l = Netlist::new("l");
        let a = l.add_input("a", 1)[0];
        let cfg = l.add_input("cfg", 1)[0];
        let y = l.add_gate(GateKind::And2, &[a, cfg]);
        l.add_output("y", &[y]);
        let mut r = Netlist::new("r");
        let a = r.add_input("a", 1)[0];
        let y = r.add_gate(GateKind::Buf, &[a]);
        r.add_output("y", &[y]);

        let mut opts = EquivOptions::new();
        opts.bind_left.insert("cfg".into(), 1);
        let res = check_comb_equiv(&l, &r, &opts).unwrap();
        assert!(res.is_equivalent());

        // Bound to 0 the designs differ.
        opts.bind_left.insert("cfg".into(), 0);
        let res = check_comb_equiv(&l, &r, &opts).unwrap();
        assert!(!res.is_equivalent());
    }

    #[test]
    fn port_mismatch_detected() {
        let l = and_module(false);
        let mut r = Netlist::new("r");
        let a = r.add_input("a", 1)[0];
        let y = r.add_gate(GateKind::Buf, &[a]);
        r.add_output("y", &[y]);
        assert!(matches!(
            check_comb_equiv(&l, &r, &EquivOptions::new()),
            Err(SimError::PortMismatch { .. })
        ));
    }

    #[test]
    fn sequential_equivalence() {
        use synthir_netlist::ResetKind;
        let build = |invert_twice: bool| {
            let mut nl = Netlist::new("t");
            let rst = nl.add_input("rst", 1)[0];
            let d = nl.add_input("d", 1)[0];
            let mut din = d;
            if invert_twice {
                let t = nl.add_gate(GateKind::Inv, &[din]);
                din = nl.add_gate(GateKind::Inv, &[t]);
            }
            let q = nl.add_gate(
                GateKind::Dff {
                    reset: ResetKind::Sync,
                    init: false,
                },
                &[din, rst],
            );
            nl.add_output("q", &[q]);
            nl
        };
        let res = check_seq_equiv(&build(false), &build(true), &EquivOptions::new()).unwrap();
        assert!(res.is_equivalent());
    }

    #[test]
    fn unknown_bind_name_is_rejected() {
        let l = and_module(false);
        let r = and_module(true);
        let mut opts = EquivOptions::new();
        opts.bind_left.insert("cfg_typo".into(), 1);
        let err = check_comb_equiv(&l, &r, &opts).unwrap_err();
        assert!(
            matches!(&err, SimError::PortMismatch { context } if context.contains("cfg_typo")),
            "{err:?}"
        );
        // Same validation on the right side and for sequential checks.
        let mut opts = EquivOptions::new();
        opts.bind_right.insert("nope".into(), 0);
        assert!(check_comb_equiv(&l, &r, &opts).is_err());
        assert!(check_seq_equiv(&l, &r, &opts).is_err());
    }

    #[test]
    fn over_wide_binding_is_rejected() {
        let build = || {
            let mut nl = Netlist::new("w");
            let a = nl.add_input("a", 1)[0];
            let wide = nl.add_input("wide", 130);
            let y = nl.add_gate(GateKind::And2, &[a, wide[129]]);
            nl.add_output("y", &[y]);
            nl
        };
        let l = build();
        let r = build();
        let mut opts = EquivOptions::new();
        opts.bind_left.insert("wide".into(), 1);
        opts.bind_right.insert("wide".into(), 1);
        let err = check_comb_equiv(&l, &r, &opts).unwrap_err();
        assert!(
            matches!(&err, SimError::BadBinding { name } if name == "wide"),
            "{err:?}"
        );
    }

    /// SAT verdicts on 2-input designs against exhaustive simulation: the
    /// proof agrees with all four patterns, and the counterexample is one
    /// of the patterns on which the outputs differ.
    #[test]
    fn sat_matches_simulation_on_small_designs() {
        let gate = |kind: GateKind| {
            let mut nl = Netlist::new("m");
            let a = nl.add_input("a", 1)[0];
            let b = nl.add_input("b", 1)[0];
            let y = nl.add_gate(kind, &[a, b]);
            nl.add_output("y", &[y]);
            nl
        };
        let kinds = [
            GateKind::And2,
            GateKind::Or2,
            GateKind::Nand2,
            GateKind::Xor2,
        ];
        let table = |nl: &Netlist| -> Vec<u128> {
            let inputs = |m: u128| HashMap::from([("a".into(), m & 1), ("b".into(), m >> 1)]);
            let sim = SeqSim::new(nl).unwrap();
            (0..4).map(|m| sim.peek(&inputs(m))["y"]).collect()
        };
        for l in kinds.map(gate) {
            for r in kinds.map(gate).into_iter().chain([and_module(true)]) {
                let (tl, tr) = (table(&l), table(&r));
                match check_comb_equiv(&l, &r, &EquivOptions::new()).unwrap() {
                    EquivResult::Equivalent => assert_eq!(tl, tr),
                    EquivResult::Inequivalent(cex) => {
                        let m = (cex.inputs["a"] | cex.inputs["b"] << 1) as usize;
                        assert_eq!((cex.left, cex.right), (tl[m], tr[m]));
                        assert_ne!(cex.left, cex.right);
                    }
                }
            }
        }
    }

    /// A wide (>24-bit) interface is proved like any other.
    #[test]
    fn wide_interfaces_are_proved() {
        let wide = |extra_inv: bool| {
            // y = parity-ish AND/OR tree over 32 inputs, 1 bit each.
            let mut nl = Netlist::new("wide");
            let mut nets = Vec::new();
            for i in 0..32 {
                nets.push(nl.add_input(format!("i{i}"), 1)[0]);
            }
            let mut acc = nets[0];
            for (i, &n) in nets.iter().enumerate().skip(1) {
                acc = if i % 3 == 0 {
                    nl.add_gate(GateKind::Xor2, &[acc, n])
                } else if i % 3 == 1 {
                    nl.add_gate(GateKind::And2, &[acc, n])
                } else {
                    nl.add_gate(GateKind::Or2, &[acc, n])
                };
            }
            if extra_inv {
                let t = nl.add_gate(GateKind::Inv, &[acc]);
                acc = nl.add_gate(GateKind::Inv, &[t]);
            }
            nl.add_output("y", &[acc]);
            nl
        };
        let res = check_comb_equiv(&wide(false), &wide(true), &EquivOptions::new()).unwrap();
        assert!(res.is_equivalent());
    }

    /// SAT finds a concrete counterexample on a wide inequivalent pair.
    #[test]
    fn wide_inequivalence_is_found() {
        let build = |flip_last: bool| {
            let mut nl = Netlist::new("wide");
            let x = nl.add_input("x", 30);
            let mut acc = x[0];
            for &n in &x[1..] {
                acc = nl.add_gate(GateKind::Xor2, &[acc, n]);
            }
            if flip_last {
                acc = nl.add_gate(GateKind::Inv, &[acc]);
            }
            nl.add_output("y", &[acc]);
            nl
        };
        match check_comb_equiv(&build(false), &build(true), &EquivOptions::new()).unwrap() {
            EquivResult::Inequivalent(cex) => {
                assert_eq!(cex.output, "y");
                assert_ne!(cex.left, cex.right);
            }
            EquivResult::Equivalent => panic!("missed wide inequivalence"),
        }
    }

    /// A combinational counterexample names the first differing output in
    /// interface order (the left design's port order) and reports only
    /// the plain input names: no `__cycle`, no `name@cycle` prefix.
    #[test]
    fn comb_counterexample_names_first_differing_output_plainly() {
        let build = |invert: bool| {
            let mut nl = Netlist::new("two");
            let a = nl.add_input("a", 1)[0];
            let b = nl.add_input("b", 2);
            let (mut z, mut y) = (a, nl.add_gate(GateKind::Xor2, &[b[0], b[1]]));
            if invert {
                z = nl.add_gate(GateKind::Inv, &[z]);
                y = nl.add_gate(GateKind::Inv, &[y]);
            }
            nl.add_output("z", &[z]);
            nl.add_output("y", &[y]);
            nl
        };
        match check_comb_equiv(&build(false), &build(true), &EquivOptions::new()).unwrap() {
            EquivResult::Inequivalent(cex) => {
                assert_eq!(cex.output, "z", "{cex:?}");
                assert_ne!(cex.left, cex.right);
                let mut keys: Vec<&str> = cex.inputs.keys().map(String::as_str).collect();
                keys.sort_unstable();
                assert_eq!(keys, ["a", "b"], "{cex:?}");
            }
            EquivResult::Equivalent => panic!("missed inverted outputs"),
        }
    }

    /// Regression: a ~10k-gate inverter chain must not overflow the stack
    /// in the SAT cone walk.
    #[test]
    fn deep_netlists_do_not_overflow_the_stack() {
        let chain = |n: usize| {
            let mut nl = Netlist::new("chain");
            let a = nl.add_input("a", 1)[0];
            let mut net = a;
            for _ in 0..n {
                net = nl.add_gate(GateKind::Inv, &[net]);
            }
            nl.add_output("y", &[net]);
            nl
        };
        let l = chain(10_000);
        let r = chain(10_002);
        let opts = EquivOptions::new();
        let res = check_comb_equiv(&l, &r, &opts).unwrap();
        assert!(res.is_equivalent());
        // Odd-length chain differs.
        let odd = chain(10_001);
        let res = check_comb_equiv(&l, &odd, &opts).unwrap();
        assert!(!res.is_equivalent());
    }

    /// The 50 000-gate chain through the single-AIG miter, combinational
    /// and unrolled: complemented edges collapse it at import, so an even
    /// chain hashes to the input (target false) and an odd one is refuted.
    #[test]
    fn sat_miter_is_stack_safe_on_a_50k_inverter_chain() {
        let chain = |n: usize| {
            let mut nl = Netlist::new("chain");
            let a = nl.add_input("a", 1)[0];
            let mut net = a;
            for _ in 0..n {
                net = nl.add_gate(GateKind::Inv, &[net]);
            }
            nl.add_output("y", &[net]);
            nl
        };
        let opts = EquivOptions::new();
        let (even, odd, wire) = (chain(50_000), chain(50_001), chain(0));
        assert!(check_comb_equiv(&even, &wire, &opts)
            .unwrap()
            .is_equivalent());
        assert!(check_seq_equiv(&even, &wire, &opts)
            .unwrap()
            .is_equivalent());
        assert!(!check_comb_equiv(&odd, &wire, &opts)
            .unwrap()
            .is_equivalent());
        assert!(!check_seq_equiv(&odd, &wire, &opts).unwrap().is_equivalent());
    }

    /// Flops have no combinational meaning: the combinational check must
    /// refuse them up front rather than prove, refute, or panic.
    #[test]
    fn comb_check_rejects_flops_on_every_engine() {
        use synthir_netlist::ResetKind;
        let mut nl = Netlist::new("t");
        let d = nl.add_input("d", 1)[0];
        let q = nl.add_gate(
            GateKind::Dff {
                reset: ResetKind::None,
                init: true,
            },
            &[d],
        );
        let y = nl.add_gate(GateKind::Inv, &[q]);
        nl.add_output("y", &[y]);
        let err = check_comb_equiv(&nl, &nl.clone(), &EquivOptions::new()).unwrap_err();
        assert!(matches!(err, SimError::InvalidNetlist(_)), "{err:?}");
    }

    #[test]
    fn cyclic_netlists_are_invalid_for_the_sat_engine() {
        let mut nl = Netlist::new("cyc");
        let a = nl.add_input("a", 1)[0];
        let loop_net = nl.add_net();
        let x = nl.add_gate(GateKind::And2, &[a, loop_net]);
        nl.attach_gate(GateKind::Inv, &[x], loop_net).unwrap();
        nl.add_output("x", &[x]);
        let opts = EquivOptions::new();
        let err = check_comb_equiv(&nl, &nl.clone(), &opts).unwrap_err();
        assert!(matches!(err, SimError::InvalidNetlist(_)), "{err:?}");
        let err = check_seq_equiv(&nl, &nl.clone(), &opts).unwrap_err();
        assert!(matches!(err, SimError::InvalidNetlist(_)), "{err:?}");
    }

    #[test]
    fn bmc_proves_and_refutes_sequential_designs() {
        use synthir_netlist::ResetKind;
        let build = |init: bool, double_inv: bool| {
            let mut nl = Netlist::new("t");
            let rst = nl.add_input("rst", 1)[0];
            let d = nl.add_input("d", 1)[0];
            let mut din = d;
            if double_inv {
                let t = nl.add_gate(GateKind::Inv, &[din]);
                din = nl.add_gate(GateKind::Inv, &[t]);
            }
            let q = nl.add_gate(
                GateKind::Dff {
                    reset: ResetKind::Sync,
                    init,
                },
                &[din, rst],
            );
            nl.add_output("q", &[q]);
            nl
        };
        let opts = EquivOptions::new();
        let res = check_seq_equiv(&build(false, false), &build(false, true), &opts).unwrap();
        assert!(res.is_equivalent());
        // Different init values show up at cycle 0 (Moore sampling).
        match check_seq_equiv(&build(false, false), &build(true, false), &opts).unwrap() {
            EquivResult::Inequivalent(cex) => {
                assert_eq!(cex.inputs["__cycle"], 0);
                assert_eq!(cex.output, "q");
            }
            EquivResult::Equivalent => panic!("missed init difference"),
        }
        // A difference that needs one transition: same init, inverted D.
        let mut inv_d = Netlist::new("t");
        let rst = inv_d.add_input("rst", 1)[0];
        let d = inv_d.add_input("d", 1)[0];
        let din = inv_d.add_gate(GateKind::Inv, &[d]);
        let q = inv_d.add_gate(
            GateKind::Dff {
                reset: ResetKind::Sync,
                init: false,
            },
            &[din, rst],
        );
        inv_d.add_output("q", &[q]);
        match check_seq_equiv(&build(false, false), &inv_d, &opts).unwrap() {
            EquivResult::Inequivalent(cex) => {
                assert!(cex.inputs["__cycle"] >= 1, "{cex:?}");
                // The full input prefix must be reported (`name@cycle`),
                // otherwise the mismatch is not reproducible.
                assert!(cex.inputs.contains_key("d@0"), "{cex:?}");
            }
            EquivResult::Equivalent => panic!("missed D inversion"),
        }
    }

    #[test]
    fn sequential_inequivalence_found() {
        use synthir_netlist::ResetKind;
        let build = |init: bool| {
            let mut nl = Netlist::new("t");
            let rst = nl.add_input("rst", 1)[0];
            let d = nl.add_input("d", 1)[0];
            let q = nl.add_gate(
                GateKind::Dff {
                    reset: ResetKind::Sync,
                    init,
                },
                &[d, rst],
            );
            nl.add_output("q", &[q]);
            nl
        };
        let res = check_seq_equiv(&build(false), &build(true), &EquivOptions::new()).unwrap();
        assert!(!res.is_equivalent());
    }

    /// A divergence behind one 20-bit input value, which random stimulus
    /// hits with probability 2^-20 per cycle: the left design latches
    /// `q' = q | (in == 0xABCDE)` while a one-shot window is open, the
    /// right design latches `q' = 0`. The window (two sync-reset flops) is
    /// open in cycle 1 only, so the shortest counterexample is unique:
    /// `in@1 = 0xABCDE`, first visible on `y` in cycle 2. The default
    /// options must find it.
    #[test]
    fn default_options_find_a_one_in_a_million_divergence() {
        use synthir_netlist::ResetKind;
        const NEEDLE: u128 = 0xABCDE;
        let dff = |nl: &mut Netlist, d: NetId, rst: NetId, q: NetId| {
            let kind = GateKind::Dff {
                reset: ResetKind::Sync,
                init: false,
            };
            nl.attach_gate(kind, &[d, rst], q).unwrap();
        };
        let build = |latches_needle: bool| {
            let mut nl = Netlist::new("needle");
            let rst = nl.add_input("rst", 1)[0];
            let ins = nl.add_input("in", 20);
            let q = nl.add_net();
            let d = if latches_needle {
                let (open, opened) = (nl.add_net(), nl.add_net());
                let one = nl.const1();
                dff(&mut nl, one, rst, opened);
                let closing = nl.add_gate(GateKind::Inv, &[opened]);
                dff(&mut nl, closing, rst, open);
                let mut hit = open;
                for (i, &n) in ins.iter().enumerate() {
                    let bit = match NEEDLE >> i & 1 {
                        1 => n,
                        _ => nl.add_gate(GateKind::Inv, &[n]),
                    };
                    hit = nl.add_gate(GateKind::And2, &[hit, bit]);
                }
                nl.add_gate(GateKind::Or2, &[q, hit])
            } else {
                nl.const0()
            };
            dff(&mut nl, d, rst, q);
            nl.add_output("y", &[q]);
            nl
        };
        let res = check_seq_equiv(&build(true), &build(false), &EquivOptions::new()).unwrap();
        let EquivResult::Inequivalent(cex) = res else {
            panic!("missed the needle: {res:?}");
        };
        assert_eq!(cex.output, "y");
        assert_eq!(cex.inputs["__cycle"], 2, "{cex:?}");
        assert_eq!(cex.inputs["in@1"], NEEDLE, "{cex:?}");
        assert_eq!((cex.left, cex.right), (1, 0));
    }
}

/// The induction prover against the BMC-only path it runs in front of. On
/// seeded random FSM pairs, [`check_seq_equiv`] must return exactly what
/// BMC alone returns — verdict and counterexample — and every pair the
/// prover proves must also pass a much deeper BMC.
#[cfg(test)]
mod induction_tests {
    use super::*;
    use synthir_core::fsm::FsmSpec;
    use synthir_netlist::{GateId, GateKind, NetId};
    use synthir_rtl::elaborate;
    use synthir_synth::fsmreencode::fsm_reencode;
    use synthir_synth::FsmEncoding;

    /// The sequential SAT check without the prover: BMC alone.
    fn bmc_only(l: &Netlist, r: &Netlist, opts: &EquivOptions) -> EquivResult {
        let iface = shared_interface(l, r, opts).unwrap();
        let designs = import_pair(l, r, opts).unwrap();
        check_sat(l, r, &designs, &iface, opts, Some(opts.bmc_depth)).unwrap()
    }

    fn proved_by_induction(l: &Netlist, r: &Netlist, opts: &EquivOptions) -> bool {
        let iface = shared_interface(l, r, opts).unwrap();
        prove_by_induction(&import_pair(l, r, opts).unwrap(), &iface, opts)
    }

    /// Dense FSM tables over `m` input bits and `n` output bits. The first
    /// `reach` states only step among themselves, and state `i` steps to
    /// `i + 1` on the all-ones minterm, so exactly those are reachable.
    #[derive(Clone)]
    struct Tables {
        m: usize,
        n: usize,
        next: Vec<Vec<usize>>,
        out: Vec<Vec<u128>>,
    }

    fn below(rng: &mut SplitMix, n: usize) -> usize {
        (rng.next() % n as u64) as usize
    }

    fn random_tables(rng: &mut SplitMix, m: usize, n: usize, s: usize, reach: usize) -> Tables {
        let minterms = 1 << m;
        let next = (0..s)
            .map(|i| {
                (0..minterms)
                    .map(|mm| match i < reach {
                        true if mm == minterms - 1 => (i + 1) % reach,
                        true => below(rng, reach),
                        false => below(rng, s),
                    })
                    .collect()
            })
            .collect();
        let out = (0..s)
            .map(|_| {
                (0..minterms)
                    .map(|_| u128::from(rng.next()) & ((1 << n) - 1))
                    .collect()
            })
            .collect();
        Tables { m, n, next, out }
    }

    fn spec(t: &Tables) -> FsmSpec {
        FsmSpec::from_dense("rand", t.m, t.n, &t.next, &t.out).unwrap()
    }

    fn table(t: &Tables) -> Netlist {
        elaborate(&spec(t).to_table_module(false)).unwrap().netlist
    }

    fn case(t: &Tables) -> Netlist {
        elaborate(&spec(t).to_case_module()).unwrap().netlist
    }

    /// The annotated table before and after FSM re-encoding, when the pass
    /// applies.
    fn reencoded(t: &Tables, enc: FsmEncoding) -> Option<(Netlist, Netlist)> {
        let e = elaborate(&spec(t).to_table_module(true)).unwrap();
        let mut nl = e.netlist.clone();
        fsm_reencode(&mut nl, e.fsm.as_ref()?, enc).ok()?;
        Some((e.netlist, nl))
    }

    fn flops(nl: &Netlist) -> Vec<GateId> {
        let seq = nl.gates().filter(|(_, g)| g.kind.is_sequential());
        seq.map(|(id, _)| id).collect()
    }

    /// `nl` with the flops picked by `mask` stored complemented: inverted
    /// D and init, every reader behind an inverter.
    fn complement_flops(nl: &Netlist, mask: u64) -> Netlist {
        let mut nl = nl.clone();
        for (k, f) in flops(&nl).into_iter().enumerate() {
            if mask >> (k % 64) & 1 == 0 {
                continue;
            }
            let g = *nl.gate(f);
            let GateKind::Dff { reset, init } = g.kind else {
                unreachable!("sequential gates are flops")
            };
            let mut ins = g.inputs().to_vec();
            ins[0] = nl.add_gate(GateKind::Inv, &[g.inputs()[0]]);
            let q = nl.add_gate(GateKind::Dff { reset, init: !init }, &ins);
            let nq = nl.add_gate(GateKind::Inv, &[q]);
            nl.replace_net_uses(g.output, nq);
            nl.remove_gate(f);
        }
        nl
    }

    /// `nl` with one flop's `init` value flipped.
    fn flip_init(nl: &Netlist, pick: usize) -> Netlist {
        let mut nl = nl.clone();
        let fs = flops(&nl);
        let f = fs[pick % fs.len()];
        let g = *nl.gate(f);
        let GateKind::Dff { reset, init } = g.kind else {
            unreachable!("sequential gates are flops")
        };
        nl.rewrite_gate(f, GateKind::Dff { reset, init: !init }, g.inputs());
        nl
    }

    /// `nl` with a 1-bit `cfg` input that, when set, complements one flop's
    /// next state.
    fn with_cfg(nl: &Netlist, pick: usize) -> Netlist {
        let mut nl = nl.clone();
        let cfg = nl.add_input("cfg", 1)[0];
        let fs = flops(&nl);
        let f = fs[pick % fs.len()];
        let g = *nl.gate(f);
        let alt = nl.add_gate(GateKind::Inv, &[g.inputs()[0]]);
        let mut ins = g.inputs().to_vec();
        ins[0] = nl.add_gate(GateKind::Mux2, &[cfg, g.inputs()[0], alt]);
        nl.rewrite_gate(f, g.kind, &ins);
        nl
    }

    /// A counter stepping `0 → 1 → … → s - 1` (then staying) whatever the
    /// input, and a twin differing in one output bit of the last state
    /// only: they first diverge at cycle `s - 1`.
    fn late_divergence(rng: &mut SplitMix, m: usize, n: usize, s: usize) -> (Tables, Tables) {
        let mut t = random_tables(rng, m, n, s, s);
        for (i, row) in t.next.iter_mut().enumerate() {
            row.iter_mut().for_each(|nx| *nx = (i + 1).min(s - 1));
        }
        let mut u = t.clone();
        u.out[s - 1].iter_mut().for_each(|o| *o ^= 1);
        (t, u)
    }

    /// One checked pair: its kind, the two netlists, the right design's
    /// bindings, and the verdict known by construction (if any).
    struct Pair {
        kind: &'static str,
        left: Netlist,
        right: Netlist,
        bind_right: Option<u128>,
        expect: Option<bool>,
    }

    fn pairs(seed: u64, m: usize, n: usize, s: usize, depth: usize) -> Vec<Pair> {
        let mut rng = SplitMix::new(seed);
        let t = random_tables(&mut rng, m, n, s, s);
        let pair = |kind, left, right, expect| Pair {
            kind,
            left,
            right,
            bind_right: None,
            expect,
        };
        let mut out = vec![pair("table/case", table(&t), case(&t), Some(true))];
        let enc = [FsmEncoding::Binary, FsmEncoding::Gray, FsmEncoding::OneHot][seed as usize % 3];
        if let Some((before, after)) = reencoded(&t, enc) {
            out.push(pair("fsm_reencode", before, after, Some(true)));
        }
        let mut mutated = t.clone();
        let (st, mm) = (below(&mut rng, s), below(&mut rng, 1 << m));
        mutated.out[st][mm] ^= 1 << below(&mut rng, n);
        out.push(pair("mutation", case(&t), case(&mutated), None));
        let flipped = flip_init(&table(&t), seed as usize);
        out.push(pair("flipped init", case(&t), flipped, None));
        for k in [depth + 2, INDUCTION_SIM_CYCLES + 6] {
            let (l, r) = late_divergence(&mut rng, m, n, k + 1);
            out.push(pair("late divergence", case(&l), case(&r), Some(true)));
            // Complemented latches give classes of opposite phase, so a
            // phase slip in the hypothesis would prove this pair away.
            let flipped = complement_flops(&case(&r), rng.next() | 1);
            out.push(pair("late divergence", table(&l), flipped, Some(true)));
        }
        let reach = 2.max(s / 2);
        let l = random_tables(&mut rng, m, n, s + 2, reach);
        let mut r = l.clone();
        for i in reach..s + 2 {
            let fresh = random_tables(&mut rng, m, n, s + 2, s + 2);
            r.next[i] = fresh.next[i].clone();
            r.out[i] = fresh.out[i].clone();
        }
        out.push(pair("unreachable codes", table(&l), case(&r), Some(true)));
        let c = case(&t);
        let flipped = complement_flops(&c, rng.next() | 1);
        out.push(pair("complemented latches", c.clone(), flipped, Some(true)));
        for v in [0, 1] {
            let mut p = pair(
                "bound ports",
                c.clone(),
                with_cfg(&table(&t), seed as usize),
                None,
            );
            p.bind_right = Some(v);
            p.expect = (v == 0).then_some(true);
            out.push(p);
        }
        out
    }

    /// Cycles of the random lockstep that re-checks every induction proof.
    const LOCKSTEP_CYCLES: usize = 256;

    /// Random lockstep from reset through [`SeqSim`], independent of the
    /// SAT path: both designs see the same random inputs for `cycles`
    /// cycles, `rst` held low and bound ports at their values. `true` when
    /// no shared output ever differs.
    fn lockstep_agrees(l: &Netlist, r: &Netlist, opts: &EquivOptions, cycles: usize) -> bool {
        let iface = shared_interface(l, r, opts).unwrap();
        let (mut ls, mut rs) = (SeqSim::new(l).unwrap(), SeqSim::new(r).unwrap());
        let mut rng = SplitMix::new(opts.seed);
        (0..cycles).all(|_| {
            let free: HashMap<String, u128> = iface
                .inputs
                .iter()
                .map(|(name, w)| {
                    let v = u128::from(rng.next()) & ((1 << w) - 1);
                    (name.clone(), if name == "rst" { 0 } else { v })
                })
                .collect();
            let bound = |binds: &HashMap<String, u128>| {
                let mut inputs = free.clone();
                inputs.extend(binds.iter().map(|(k, &v)| (k.clone(), v)));
                inputs
            };
            let lo = ls.step(&bound(&opts.bind_left));
            let ro = rs.step(&bound(&opts.bind_right));
            iface.outputs.iter().all(|(name, _)| lo[name] == ro[name])
        })
    }

    /// Checks every pair of one generator call, re-checking each pair the
    /// prover proves by BMC to `deep_depth` cycles and by
    /// [`lockstep_agrees`] over [`LOCKSTEP_CYCLES`] cycles; returns (pairs
    /// proved by induction, pairs known equivalent with no late divergence).
    fn check_pairs(seed: u64, m: usize, n: usize, s: usize, deep_depth: usize) -> (usize, usize) {
        let mut opts = EquivOptions::new();
        opts.bmc_depth = 4;
        opts.seed = seed;
        let (mut proved, mut provable) = (0, 0);
        for p in pairs(seed, m, n, s, opts.bmc_depth) {
            let mut o = opts.clone();
            if let Some(v) = p.bind_right {
                o.bind_right.insert("cfg".into(), v);
            }
            let ctx = format!("seed {seed} (m {m}, n {n}, s {s}) {}", p.kind);
            let got = check_seq_equiv(&p.left, &p.right, &o).unwrap();
            assert_eq!(got, bmc_only(&p.left, &p.right, &o), "{ctx}");
            if let Some(e) = p.expect {
                assert_eq!(got.is_equivalent(), e, "{ctx}: {got:?}");
            }
            let by_induction = proved_by_induction(&p.left, &p.right, &o);
            if by_induction {
                let mut deep = o.clone();
                deep.bmc_depth = deep_depth;
                assert!(
                    bmc_only(&p.left, &p.right, &deep).is_equivalent(),
                    "{ctx}: proved by induction, refuted by deep BMC"
                );
                assert!(
                    lockstep_agrees(&p.left, &p.right, &o, LOCKSTEP_CYCLES),
                    "{ctx}: proved by induction, refuted by random lockstep"
                );
            }
            if p.kind == "late divergence" {
                assert!(
                    !by_induction,
                    "{ctx}: a reachable divergence was proved away"
                );
            } else if p.expect == Some(true) {
                provable += 1;
                proved += usize::from(by_induction);
            }
        }
        (proved, provable)
    }

    /// Two pairs the prover must settle on its own. In the first, the
    /// left output `p & q` (two latches sampling `d` and `e`) equals the
    /// right's single latch sampling `d & e`, so no latch matches another
    /// and the proof needs the AND `p & q` as a candidate. In the second,
    /// the latches correspond one to one.
    #[test]
    fn induction_proves_and_and_latch_correspondences() {
        use synthir_netlist::ResetKind;
        let dff = |nl: &mut Netlist, d: NetId, rst: NetId| {
            let kind = GateKind::Dff {
                reset: ResetKind::Sync,
                init: false,
            };
            nl.add_gate(kind, &[d, rst])
        };
        let build = |split: bool, double_inv: bool| {
            let mut nl = Netlist::new("t");
            let rst = nl.add_input("rst", 1)[0];
            let d = nl.add_input("d", 1)[0];
            let e = nl.add_input("e", 1)[0];
            let y = if split {
                let (p, q) = (dff(&mut nl, d, rst), dff(&mut nl, e, rst));
                nl.add_gate(GateKind::And2, &[p, q])
            } else {
                let mut de = nl.add_gate(GateKind::And2, &[d, e]);
                if double_inv {
                    let t = nl.add_gate(GateKind::Inv, &[de]);
                    de = nl.add_gate(GateKind::Inv, &[t]);
                }
                dff(&mut nl, de, rst)
            };
            nl.add_output("y", &[y]);
            nl
        };
        let opts = EquivOptions::new();
        assert!(proved_by_induction(
            &build(true, false),
            &build(false, false),
            &opts
        ));
        assert!(proved_by_induction(
            &build(false, false),
            &build(false, true),
            &opts
        ));
    }

    #[test]
    fn induction_agrees_with_bmc_on_random_fsm_pairs() {
        let (mut proved, mut provable) = (0, 0);
        for seed in 0..8u64 {
            let s = 2 + seed as usize % 5;
            let (p, q) = check_pairs(seed, 1 + seed as usize % 2, 1 + seed as usize % 3, s, 12);
            proved += p;
            provable += q;
        }
        // The prover must carry most known-equivalent pairs, not just
        // forward them to BMC.
        assert!(2 * proved > provable, "proved {proved} of {provable}");
    }

    #[test]
    #[ignore = "release-only sweep of the differential generator"]
    fn induction_agrees_with_bmc_sweep() {
        let (mut proved, mut provable) = (0, 0);
        for seed in 0..48u64 {
            let s = 2 + seed as usize % 11;
            let deep = 14;
            let (p, q) = check_pairs(seed, 1 + seed as usize % 3, 1 + seed as usize % 4, s, deep);
            proved += p;
            provable += q;
        }
        assert!(2 * proved > provable, "proved {proved} of {provable}");
    }
}
