//! Synthesizable RTL modules.

use crate::expr::Expr;
use crate::RtlError;
use synthir_logic::ValueSet;
use synthir_netlist::ResetKind;

mod words;

/// Reset specification of a [`Register`].
#[derive(Clone, Debug, PartialEq)]
pub struct RegReset {
    /// Reset flavour.
    pub kind: ResetKind,
    /// The value loaded on reset (also the assumed power-up value).
    pub value: u128,
}

/// A clocked register (one per named state-holding signal).
#[derive(Clone, Debug, PartialEq)]
pub struct Register {
    /// Signal name of the register output.
    pub name: String,
    /// Width in bits.
    pub width: usize,
    /// Next-state expression, sampled every clock.
    pub next: Expr,
    /// Reset behaviour.
    pub reset: RegReset,
}

/// A word-addressed memory.
///
/// A memory with `contents: Some(..)` is a bound table: its read ports
/// elaborate into combinational lookup logic that the synthesis engine can
/// partially evaluate. A memory with `contents: None` is a *programmable
/// configuration memory*: it elaborates into a flop array plus write-port
/// decoding, and its area is what the paper's "Full" flexible designs pay.
#[derive(Clone, Debug, PartialEq)]
pub struct Memory {
    /// Memory name (referenced by [`Expr::ReadMem`]).
    pub name: String,
    /// Word width in bits.
    pub width: usize,
    /// Number of words.
    pub depth: usize,
    /// Bound contents (LSB-first words), or `None` for programmable storage.
    pub contents: Option<Vec<u128>>,
    /// For programmable memories: names of the write-port signals
    /// `(addr, data, enable)`, which must be declared module inputs.
    pub write_port: Option<(String, String, String)>,
}

/// FSM metadata attached by the case-statement coding style (or by the
/// `set_fsm_state_vector` manual annotation of the paper's second Fig. 6
/// experiment). The synthesis engine can only re-encode and prune a state
/// register when this is present.
#[derive(Clone, Debug, PartialEq)]
pub struct FsmInfo {
    /// Name of the state register.
    pub state_reg: String,
    /// The state codes in use (others are unreachable by construction).
    pub codes: Vec<u128>,
    /// Code of the reset state.
    pub reset_code: u128,
}

/// A known-value-set annotation on a register output, the vehicle for the
/// paper's *state propagation across flop boundaries* experiments.
#[derive(Clone, Debug, PartialEq)]
pub struct SignalAnnotation {
    /// The annotated register (or input) name.
    pub signal: String,
    /// The values the signal is asserted to take.
    pub values: ValueSet,
}

/// A synthesizable RTL module.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Clone, Debug, Default)]
pub struct Module {
    name: String,
    inputs: Vec<(String, usize)>,
    outputs: Vec<(String, usize, Expr)>,
    wires: Vec<(String, usize, Expr)>,
    regs: Vec<Register>,
    mems: Vec<Memory>,
    /// FSM metadata, if the module was written in (or annotated to) the
    /// FSM-aware style.
    pub fsm: Option<FsmInfo>,
    /// Value-set annotations.
    pub annotations: Vec<SignalAnnotation>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the module.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Declares an input port.
    pub fn add_input(&mut self, name: impl Into<String>, width: usize) -> &mut Self {
        self.inputs.push((name.into(), width));
        self
    }

    /// Declares an output port driven by an expression.
    pub fn add_output(&mut self, name: impl Into<String>, width: usize, expr: Expr) -> &mut Self {
        self.outputs.push((name.into(), width, expr));
        self
    }

    /// Declares a named combinational wire.
    pub fn add_wire(&mut self, name: impl Into<String>, width: usize, expr: Expr) -> &mut Self {
        self.wires.push((name.into(), width, expr));
        self
    }

    /// Declares a register.
    pub fn add_register(&mut self, reg: Register) -> &mut Self {
        self.regs.push(reg);
        self
    }

    /// Declares a memory.
    pub fn add_memory(&mut self, mem: Memory) -> &mut Self {
        self.mems.push(mem);
        self
    }

    /// Attaches FSM metadata (the `set_fsm_state_vector` annotation).
    pub fn set_fsm(&mut self, fsm: FsmInfo) -> &mut Self {
        self.fsm = Some(fsm);
        self
    }

    /// Adds a value-set annotation to a register output.
    pub fn annotate(&mut self, signal: impl Into<String>, values: ValueSet) -> &mut Self {
        self.annotations.push(SignalAnnotation {
            signal: signal.into(),
            values,
        });
        self
    }

    /// Input ports.
    pub fn inputs(&self) -> &[(String, usize)] {
        &self.inputs
    }

    /// Output ports and their driving expressions.
    pub fn outputs(&self) -> &[(String, usize, Expr)] {
        &self.outputs
    }

    /// Named wires.
    pub fn wires(&self) -> &[(String, usize, Expr)] {
        &self.wires
    }

    /// Registers.
    pub fn registers(&self) -> &[Register] {
        &self.regs
    }

    /// Memories.
    pub fn memories(&self) -> &[Memory] {
        &self.mems
    }

    /// Looks up a memory by name.
    pub fn memory(&self, name: &str) -> Option<&Memory> {
        self.mems.iter().find(|m| m.name == name)
    }

    /// The declared width of a named signal (input, wire, or register).
    pub fn signal_width(&self, name: &str) -> Option<usize> {
        self.inputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, w)| *w)
            .or_else(|| {
                self.wires
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .map(|(_, w, _)| *w)
            })
            .or_else(|| self.regs.iter().find(|r| r.name == name).map(|r| r.width))
    }

    /// Checks name uniqueness across inputs, wires, registers and memories.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::DuplicateSignal`] on the first clash.
    pub fn check_names(&self) -> Result<(), RtlError> {
        let mut seen = std::collections::HashSet::new();
        let names = self
            .inputs
            .iter()
            .map(|(n, _)| n.clone())
            .chain(self.wires.iter().map(|(n, _, _)| n.clone()))
            .chain(self.regs.iter().map(|r| r.name.clone()))
            .chain(self.mems.iter().map(|m| m.name.clone()));
        for n in names {
            if !seen.insert(n.clone()) {
                return Err(RtlError::DuplicateSignal { name: n });
            }
        }
        Ok(())
    }

    /// Whether any register needs a reset input.
    pub fn needs_reset(&self) -> bool {
        self.regs.iter().any(|r| r.reset.kind != ResetKind::None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declarations_and_lookup() {
        let mut m = Module::new("m");
        m.add_input("a", 4);
        m.add_wire("w", 2, Expr::reference("a").slice(0, 2));
        m.add_register(Register {
            name: "r".into(),
            width: 3,
            next: Expr::constant(3, 1),
            reset: RegReset {
                kind: ResetKind::Sync,
                value: 0,
            },
        });
        assert_eq!(m.signal_width("a"), Some(4));
        assert_eq!(m.signal_width("w"), Some(2));
        assert_eq!(m.signal_width("r"), Some(3));
        assert_eq!(m.signal_width("zzz"), None);
        assert!(m.needs_reset());
        m.check_names().unwrap();
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut m = Module::new("m");
        m.add_input("a", 1);
        m.add_wire("a", 1, Expr::bit(false));
        assert!(matches!(
            m.check_names(),
            Err(RtlError::DuplicateSignal { .. })
        ));
    }

    #[test]
    fn annotations_accumulate() {
        let mut m = Module::new("m");
        m.annotate("y", ValueSet::one_hot(4));
        assert_eq!(m.annotations.len(), 1);
        assert!(m.annotations[0].values.is_one_hot());
    }
}
