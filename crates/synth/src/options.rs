//! Synthesis options — the knobs the paper's experiments sweep.

/// State-encoding styles for FSM re-encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum FsmEncoding {
    /// Minimum-length binary codes `0..n`. The default.
    #[default]
    Binary,
    /// One flop per state.
    OneHot,
    /// Binary-reflected Gray codes.
    Gray,
    /// Keep the original codes (prune unreachables only).
    Keep,
}

/// Options controlling [`crate::flow::compile`].
///
/// The flow itself is fixed (see [`crate::flow::compile_netlist`]); these
/// are the only choices a caller makes, each one swept by an experiment or
/// a benchmark workload. The passes' effort limits are constants in the
/// modules that apply them: [`crate::resynth::COLLAPSE_SUPPORT`],
/// [`crate::resynth::MAX_COVER_CUBES`], [`crate::stateprop::MAX_VALUESET`],
/// [`crate::retime::MAX_CONE_SUPPORT`] and
/// [`crate::fsmreencode::FSM_ENUM_LIMIT`].
#[derive(Clone, Debug, Default)]
pub struct SynthOptions {
    /// Run forward and backward retiming before state propagation (Fig. 8's
    /// "Retimed" variants).
    pub retime: bool,
    /// Encoding used by FSM re-encoding.
    pub fsm_encoding: FsmEncoding,
    /// Run SAT sweeping inside the AIG cleanup: candidate equivalences
    /// from random-simulation signatures, proved by the CDCL solver and
    /// merged on proof. Off by default (it trades compile time for the
    /// sharing structural methods cannot see).
    pub sat_sweep: bool,
    /// Debug option: after every pass, SAT-check the netlist against its
    /// predecessor (combinational miter for pure logic, bounded model check
    /// from reset for sequential designs) and abort the flow if a pass
    /// changed observable behaviour. Expensive; off by default.
    pub verify_each_pass: bool,
}

impl SynthOptions {
    /// The default `compile` recipe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns options with retiming enabled.
    pub fn with_retime(mut self) -> Self {
        self.retime = true;
        self
    }

    /// Returns options with a specific FSM encoding.
    pub fn with_fsm_encoding(mut self, enc: FsmEncoding) -> Self {
        self.fsm_encoding = enc;
        self
    }

    /// Returns options with per-pass SAT verification enabled.
    pub fn with_verify_each_pass(mut self) -> Self {
        self.verify_each_pass = true;
        self
    }

    /// Returns options with SAT sweeping enabled inside the AIG cleanup.
    pub fn with_sat_sweep(mut self) -> Self {
        self.sat_sweep = true;
        self
    }

    /// Returns `self` unchanged. The cut-based mapper ([`crate::cutmap`])
    /// is the flow's only technology mapper, so there is nothing left to
    /// select; the method stays for callers written when it was optional.
    pub fn with_cut_mapper(self) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_limits() {
        let o = SynthOptions::default();
        assert_eq!(crate::stateprop::MAX_VALUESET, 32);
        assert!(!o.retime);
        assert_eq!(o.fsm_encoding, FsmEncoding::Binary);
    }

    #[test]
    fn builder_methods() {
        let o = SynthOptions::new()
            .with_retime()
            .with_fsm_encoding(FsmEncoding::OneHot);
        assert!(o.retime);
        assert_eq!(o.fsm_encoding, FsmEncoding::OneHot);
    }
}
