//! Symbolic finite-state-machine specifications.

use crate::CoreError;
use synthir_logic::Cube;
use synthir_rtl::styles::cover_expr;
use synthir_rtl::{Expr, FsmInfo, Memory, Module, RegReset, Register, ResetKind};

/// A state handle within an [`FsmSpec`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct StateId(pub usize);

/// One prioritized transition rule: when `guard` matches the inputs, go to
/// `next` and drive `outputs` (Mealy-style).
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    /// Input condition (cube over the FSM's input bits).
    pub guard: Cube,
    /// Successor state.
    pub next: StateId,
    /// Output bits asserted while the rule fires.
    pub outputs: u128,
}

#[derive(Clone, Debug)]
struct StateSpec {
    name: String,
    rules: Vec<Rule>,
    default_next: StateId,
    default_outputs: u128,
}

/// A symbolic FSM: named states, `m` input bits, `n` output bits, and
/// per-state prioritized transition rules with a required default.
///
/// This is the generator-facing controller description of the paper: it can
/// be lowered to the *table-based* coding style
/// ([`FsmSpec::to_table_module`]) or the *direct* style
/// ([`FsmSpec::to_case_module`]), with or without the FSM annotations whose
/// effect Fig. 6 measures.
#[derive(Clone, Debug)]
pub struct FsmSpec {
    name: String,
    num_inputs: usize,
    num_outputs: usize,
    states: Vec<StateSpec>,
    reset: StateId,
}

impl FsmSpec {
    /// Creates an FSM with `m` input bits and `n` output bits.
    ///
    /// # Panics
    ///
    /// Panics if `m > 16` or `n > 128`.
    pub fn new(name: impl Into<String>, num_inputs: usize, num_outputs: usize) -> Self {
        assert!(num_inputs <= 16, "at most 16 input bits supported");
        assert!(num_outputs <= 128, "at most 128 output bits supported");
        FsmSpec {
            name: name.into(),
            num_inputs,
            num_outputs,
            states: Vec::new(),
            reset: StateId(0),
        }
    }

    /// FSM name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of input bits.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of output bits.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Adds a state whose default behaviour is to stay put with all-zero
    /// outputs; returns its id.
    pub fn add_state(&mut self, name: impl Into<String>) -> StateId {
        let id = StateId(self.states.len());
        self.states.push(StateSpec {
            name: name.into(),
            rules: Vec::new(),
            default_next: id,
            default_outputs: 0,
        });
        id
    }

    /// Sets the reset state.
    pub fn set_reset(&mut self, s: StateId) -> &mut Self {
        self.reset = s;
        self
    }

    /// The reset state.
    pub fn reset_state(&self) -> StateId {
        self.reset
    }

    /// Adds a prioritized rule to a state.
    ///
    /// # Panics
    ///
    /// Panics if ids are out of range or the guard arity differs from the
    /// input count.
    pub fn add_rule(&mut self, state: StateId, guard: Cube, next: StateId, outputs: u128) {
        assert!(state.0 < self.states.len(), "bad state id");
        assert!(next.0 < self.states.len(), "bad next-state id");
        assert_eq!(guard.nvars(), self.num_inputs, "guard arity");
        self.states[state.0].rules.push(Rule {
            guard,
            next,
            outputs,
        });
    }

    /// Sets a state's default transition (fires when no rule matches).
    ///
    /// # Panics
    ///
    /// Panics if ids are out of range.
    pub fn set_default(&mut self, state: StateId, next: StateId, outputs: u128) {
        assert!(state.0 < self.states.len(), "bad state id");
        assert!(next.0 < self.states.len(), "bad next-state id");
        self.states[state.0].default_next = next;
        self.states[state.0].default_outputs = outputs;
    }

    /// Builds an FSM from dense next-state and output tables:
    /// `next[s][i]` / `out[s][i]` for every state `s` and input minterm `i`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadSpec`] on ragged tables or out-of-range
    /// next states.
    pub fn from_dense(
        name: impl Into<String>,
        num_inputs: usize,
        num_outputs: usize,
        next: &[Vec<usize>],
        out: &[Vec<u128>],
    ) -> Result<Self, CoreError> {
        let s = next.len();
        if out.len() != s || s == 0 {
            return Err(CoreError::BadSpec("table state counts differ".into()));
        }
        let mut spec = FsmSpec::new(name, num_inputs, num_outputs);
        for i in 0..s {
            spec.add_state(format!("s{i}"));
        }
        for (si, (nrow, orow)) in next.iter().zip(out).enumerate() {
            if nrow.len() != 1 << num_inputs || orow.len() != 1 << num_inputs {
                return Err(CoreError::BadSpec(format!(
                    "state {si}: expected {} minterm entries",
                    1 << num_inputs
                )));
            }
            for (m, (&nx, &ov)) in nrow.iter().zip(orow).enumerate() {
                if nx >= s {
                    return Err(CoreError::BadSpec(format!(
                        "state {si} minterm {m}: next {nx} out of range"
                    )));
                }
                spec.add_rule(
                    StateId(si),
                    Cube::minterm(num_inputs, m as u64),
                    StateId(nx),
                    ov,
                );
            }
        }
        Ok(spec)
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// A state's prioritized rules, in match order.
    pub fn rules(&self, s: StateId) -> &[Rule] {
        &self.states[s.0].rules
    }

    /// A state's default transition `(next, outputs)` — what fires when no
    /// rule matches.
    pub fn default_of(&self, s: StateId) -> (StateId, u128) {
        let st = &self.states[s.0];
        (st.default_next, st.default_outputs)
    }

    /// A state's name.
    pub fn state_name(&self, s: StateId) -> &str {
        &self.states[s.0].name
    }

    /// Bits needed to encode the states in binary.
    pub fn state_bits(&self) -> usize {
        let mut b = 1;
        while (1usize << b) < self.states.len() {
            b += 1;
        }
        b
    }

    /// Evaluates one step: the successor state and outputs for a state and
    /// input minterm.
    pub fn eval(&self, state: StateId, input: u64) -> (StateId, u128) {
        let s = &self.states[state.0];
        for r in &s.rules {
            if r.guard.contains_minterm(input) {
                return (r.next, r.outputs);
            }
        }
        (s.default_next, s.default_outputs)
    }

    /// The states reachable from reset.
    pub fn reachable_states(&self) -> Vec<StateId> {
        let mut seen = vec![false; self.states.len()];
        let mut stack = vec![self.reset];
        seen[self.reset.0] = true;
        let mut out = Vec::new();
        while let Some(s) = stack.pop() {
            out.push(s);
            for m in 0..1u64 << self.num_inputs {
                let (n, _) = self.eval(s, m);
                if !seen[n.0] {
                    seen[n.0] = true;
                    stack.push(n);
                }
            }
        }
        out.sort();
        out
    }

    /// Lowers the FSM to table words: `(next_words, out_words)`, addressed
    /// by `state_code | (input << state_bits)`. Rows for unused state codes
    /// are filled with zeros — the "whatever the script wrote there" filler
    /// the paper's table-based experiments inherit.
    pub fn to_table_words(&self) -> (Vec<u128>, Vec<u128>) {
        let sb = self.state_bits();
        let depth = 1usize << (sb + self.num_inputs);
        let mut next_words = vec![0u128; depth];
        let mut out_words = vec![0u128; depth];
        for addr in 0..depth {
            let code = addr & ((1 << sb) - 1);
            let input = (addr >> sb) as u64;
            if code < self.states.len() {
                let (n, o) = self.eval(StateId(code), input);
                next_words[addr] = n.0 as u128;
                out_words[addr] = o;
            }
        }
        (next_words, out_words)
    }

    /// The FSM metadata (`fsm_state_vector` equivalent) derived from the
    /// spec, in binary encoding over the declared states.
    pub fn fsm_info(&self) -> FsmInfo {
        FsmInfo {
            state_reg: "state".into(),
            codes: (0..self.states.len() as u128).collect(),
            reset_code: self.reset.0 as u128,
        }
    }

    /// Lowers to the *table-based* coding style of the paper's Fig. 2: a
    /// next-state memory and an output memory addressed by
    /// `{inputs, state}`. With `annotated` the generator additionally
    /// attaches the FSM metadata (the paper's `set_fsm_state_vector`
    /// work-around), enabling re-encoding in the synthesis flow.
    pub fn to_table_module(&self, annotated: bool) -> Module {
        let sb = self.state_bits();
        let (next_words, out_words) = self.to_table_words();
        let mut m = Module::new(format!("{}_table", self.name));
        m.add_input("in", self.num_inputs);
        m.add_memory(Memory {
            name: "next_table".into(),
            width: sb,
            depth: next_words.len(),
            contents: Some(next_words),
            write_port: None,
        });
        m.add_memory(Memory {
            name: "out_table".into(),
            width: self.num_outputs,
            depth: out_words.len(),
            contents: Some(out_words),
            write_port: None,
        });
        let addr = Expr::concat(vec![Expr::reference("state"), Expr::reference("in")]);
        m.add_register(Register {
            name: "state".into(),
            width: sb,
            next: Expr::read_mem("next_table", addr.clone()),
            reset: RegReset {
                kind: ResetKind::Sync,
                value: self.reset.0 as u128,
            },
        });
        m.add_output("out", self.num_outputs, Expr::read_mem("out_table", addr));
        if annotated {
            m.set_fsm(self.fsm_info());
        }
        m
    }

    /// Lowers to the fully flexible (runtime-programmable) table style: both
    /// tables live in writable configuration memories with a shared write
    /// port (`cfg_addr`/`cfg_next`/`cfg_out`/`cfg_wen`).
    pub fn to_programmable_module(&self) -> Module {
        let sb = self.state_bits();
        let depth = 1usize << (sb + self.num_inputs);
        let mut m = Module::new(format!("{}_flex", self.name));
        m.add_input("in", self.num_inputs);
        m.add_input("cfg_addr", sb + self.num_inputs);
        m.add_input("cfg_next", sb);
        m.add_input("cfg_out", self.num_outputs);
        m.add_input("cfg_wen", 1);
        m.add_memory(Memory {
            name: "next_table".into(),
            width: sb,
            depth,
            contents: None,
            write_port: Some(("cfg_addr".into(), "cfg_next".into(), "cfg_wen".into())),
        });
        m.add_memory(Memory {
            name: "out_table".into(),
            width: self.num_outputs,
            depth,
            contents: None,
            write_port: Some(("cfg_addr".into(), "cfg_out".into(), "cfg_wen".into())),
        });
        let addr = Expr::concat(vec![Expr::reference("state"), Expr::reference("in")]);
        m.add_register(Register {
            name: "state".into(),
            width: sb,
            next: Expr::read_mem("next_table", addr.clone()),
            reset: RegReset {
                kind: ResetKind::Sync,
                value: self.reset.0 as u128,
            },
        });
        m.add_output("out", self.num_outputs, Expr::read_mem("out_table", addr));
        m
    }

    /// Lowers to the *direct* coding style: per-bit sum-of-products logic
    /// minimized from the tables (with unused state codes as don't-cares),
    /// with the FSM metadata attached — modelling the tool-recommended
    /// case-statement idiom that synthesis recognizes automatically.
    pub fn to_case_module(&self) -> Module {
        let sb = self.state_bits();
        let nvars = sb + self.num_inputs;
        assert!(nvars <= 20, "case-style FSM too wide to minimize");
        let mut m = Module::new(format!("{}_case", self.name));
        m.add_input("in", self.num_inputs);
        let addr = Expr::concat(vec![Expr::reference("state"), Expr::reference("in")]);
        m.add_wire("sel", nvars, addr);

        let dc = synthir_logic::TruthTable::from_fn(nvars, |mm| {
            (mm & ((1 << sb) - 1)) >= self.states.len()
        });
        // Build the per-bit truth tables for next-state and output logic,
        // then hand the whole multi-output PLA to the batch minimizer: each
        // bit is an independent job, minimized concurrently by
        // `synthir_logic::par` (identical results to the serial path).
        let bit_tt = |bit_fn: &dyn Fn(usize) -> bool| -> synthir_logic::TruthTable {
            synthir_logic::TruthTable::from_fn(nvars, bit_fn)
        };
        let mut tts: Vec<synthir_logic::TruthTable> = Vec::with_capacity(sb + self.num_outputs);
        for b in 0..sb {
            tts.push(bit_tt(&|mm| {
                let code = mm & ((1 << sb) - 1);
                if code >= self.states.len() {
                    return false;
                }
                let input = (mm >> sb) as u64;
                let (n, _) = self.eval(StateId(code), input);
                n.0 >> b & 1 != 0
            }));
        }
        for b in 0..self.num_outputs {
            tts.push(bit_tt(&|mm| {
                let code = mm & ((1 << sb) - 1);
                if code >= self.states.len() {
                    return false;
                }
                let input = (mm >> sb) as u64;
                let (_, o) = self.eval(StateId(code), input);
                o >> b & 1 != 0
            }));
        }
        let covers = synthir_logic::espresso::minimize_tt_batch(
            &tts,
            Some(&dc),
            &synthir_logic::espresso::EspressoOptions::default(),
        );
        let mut exprs = covers.iter().map(|c| cover_expr("sel", c));
        let next_bits: Vec<Expr> = (0..sb).map(|_| exprs.next().expect("next bit")).collect();
        let out_bits: Vec<Expr> = (0..self.num_outputs)
            .map(|_| exprs.next().expect("output bit"))
            .collect();
        m.add_register(Register {
            name: "state".into(),
            width: sb,
            next: Expr::concat(next_bits),
            reset: RegReset {
                kind: ResetKind::Sync,
                value: self.reset.0 as u128,
            },
        });
        m.add_output("out", self.num_outputs, Expr::concat(out_bits));
        m.set_fsm(self.fsm_info());
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsm_info_has_all_states() {
        let f = crate::random::random_fsm(2, 4, 5, 1);
        let info = f.fsm_info();
        assert_eq!(info.codes.len(), 5);
        assert_eq!(info.reset_code, 0);
        assert_eq!(info.state_reg, "state");
    }

    /// Traffic light: GREEN -> YELLOW (on `expire`) -> RED -> GREEN.
    fn traffic() -> FsmSpec {
        let mut f = FsmSpec::new("traffic", 1, 3);
        let g = f.add_state("green");
        let y = f.add_state("yellow");
        let r = f.add_state("red");
        // Output bit per lamp.
        f.set_default(g, g, 0b001);
        f.set_default(y, y, 0b010);
        f.set_default(r, r, 0b100);
        let expire = Cube::new(1, 1, 1);
        f.add_rule(g, expire, y, 0b001);
        f.add_rule(y, expire, r, 0b010);
        f.add_rule(r, expire, g, 0b100);
        f.set_reset(g);
        f
    }

    #[test]
    fn eval_steps_through_states() {
        let f = traffic();
        let (s1, o1) = f.eval(StateId(0), 1);
        assert_eq!(s1, StateId(1));
        assert_eq!(o1, 0b001);
        let (s2, _) = f.eval(s1, 0);
        assert_eq!(s2, s1, "default holds state");
    }

    #[test]
    fn reachability() {
        let mut f = traffic();
        let orphan = f.add_state("orphan");
        assert_eq!(f.reachable_states().len(), 3);
        assert!(!f.reachable_states().contains(&orphan));
    }

    #[test]
    fn table_words_layout() {
        let f = traffic();
        let (next, out) = f.to_table_words();
        let sb = f.state_bits();
        assert_eq!(next.len(), 1 << (sb + 1));
        // state 0 (green), input 1 -> yellow (1).
        let addr = 1 << sb;
        assert_eq!(next[addr], 1);
        assert_eq!(out[addr], 0b001);
        // Unused code 3 rows are zero-filled.
        let addr3 = 3;
        assert_eq!(next[addr3], 0);
    }

    #[test]
    fn lowerings_elaborate() {
        let f = traffic();
        for m in [
            f.to_table_module(false),
            f.to_table_module(true),
            f.to_case_module(),
            f.to_programmable_module(),
        ] {
            let e = synthir_rtl::elaborate(&m).expect("elaborates");
            assert!(e.netlist.num_gates() > 0);
        }
        // Annotated table carries FSM metadata; plain does not.
        assert!(f.to_table_module(true).fsm.is_some());
        assert!(f.to_table_module(false).fsm.is_none());
        assert!(f.to_case_module().fsm.is_some());
    }

    #[test]
    fn table_and_case_styles_behave_identically() {
        let f = traffic();
        let t = synthir_rtl::elaborate(&f.to_table_module(false)).unwrap();
        let c = synthir_rtl::elaborate(&f.to_case_module()).unwrap();
        let res =
            synthir_sim::check_seq_equiv(&t.netlist, &c.netlist, &synthir_sim::EquivOptions::new())
                .unwrap();
        assert!(res.is_equivalent(), "{res:?}");
    }

    #[test]
    fn dense_construction_validates() {
        let bad = FsmSpec::from_dense("x", 1, 1, &[vec![0, 7]], &[vec![0, 0]]);
        assert!(matches!(bad, Err(CoreError::BadSpec(_))));
        let good = FsmSpec::from_dense(
            "x",
            1,
            1,
            &[vec![1, 0], vec![0, 1]],
            &[vec![0, 1], vec![1, 0]],
        )
        .unwrap();
        assert_eq!(good.state_count(), 2);
        assert_eq!(good.eval(StateId(0), 0), (StateId(1), 0));
    }

    #[test]
    fn rule_priority() {
        let mut f = FsmSpec::new("p", 2, 1);
        let a = f.add_state("a");
        let b = f.add_state("b");
        let c = f.add_state("c");
        // First matching rule wins: input bit0 -> b, else bit1 -> c.
        f.add_rule(a, Cube::new(2, 0b01, 0b01), b, 1);
        f.add_rule(a, Cube::new(2, 0b10, 0b10), c, 0);
        assert_eq!(f.eval(a, 0b11).0, b);
        assert_eq!(f.eval(a, 0b10).0, c);
        assert_eq!(f.eval(a, 0b00).0, a);
    }
}
