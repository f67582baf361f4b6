//! The paper's coding styles for combinational logic.
//!
//! Section III-A of the paper compares "direct" implementations, written as
//! sum-of-products assignments for each output bit, against table-based
//! implementations that store the truth table in an (asynchronously
//! readable) memory addressed by the function inputs. These generators
//! produce both styles from the same specification, so the experiment
//! harness can synthesize matched pairs.

use crate::expr::Expr;
use crate::module::{Memory, Module};
use synthir_logic::{Cover, Cube};

/// The input bus name used by all style generators.
pub const INPUT_BUS: &str = "x";
/// The output bus name used by all style generators.
pub const OUTPUT_BUS: &str = "y";

/// Builds the direct, sum-of-products coding style: one SOP assignment per
/// output bit (`assign y[i] = ... | ... | ...`).
///
/// # Panics
///
/// Panics if any cover's variable count differs from `num_inputs`.
pub fn sop_module(name: impl Into<String>, num_inputs: usize, covers: &[Cover]) -> Module {
    let mut m = Module::new(name);
    m.add_input(INPUT_BUS, num_inputs);
    let mut bits = Vec::with_capacity(covers.len());
    for c in covers {
        assert_eq!(c.nvars(), num_inputs, "cover arity mismatch");
        bits.push(cover_expr(INPUT_BUS, c));
    }
    m.add_output(OUTPUT_BUS, covers.len(), Expr::concat(bits));
    m
}

/// Builds the table-based coding style with *bound* contents: the truth
/// table is stored in a read-only memory addressed by the inputs. After
/// partial evaluation this should match the SOP style (Fig. 5).
///
/// `contents[m]` holds all output bits for input minterm `m` (bit `i` of the
/// word is output `i`).
///
/// # Panics
///
/// Panics if `contents.len() != 2^num_inputs`.
pub fn table_module(
    name: impl Into<String>,
    num_inputs: usize,
    num_outputs: usize,
    contents: &[u128],
) -> Module {
    assert_eq!(contents.len(), 1 << num_inputs, "table depth mismatch");
    let mut m = Module::new(name);
    m.add_input(INPUT_BUS, num_inputs);
    m.add_memory(Memory {
        name: "table".into(),
        width: num_outputs,
        depth: 1 << num_inputs,
        contents: Some(contents.to_vec()),
        write_port: None,
    });
    m.add_output(
        OUTPUT_BUS,
        num_outputs,
        Expr::read_mem("table", Expr::reference(INPUT_BUS)),
    );
    m
}

/// Builds the fully flexible (runtime-programmable) table style: the truth
/// table lives in a writable configuration memory. This is the "Full"
/// flavour whose area the paper's partial evaluation eliminates.
pub fn table_module_programmable(
    name: impl Into<String>,
    num_inputs: usize,
    num_outputs: usize,
) -> Module {
    let mut m = Module::new(name);
    m.add_input(INPUT_BUS, num_inputs);
    m.add_input("cfg_addr", num_inputs);
    m.add_input("cfg_data", num_outputs);
    m.add_input("cfg_wen", 1);
    m.add_memory(Memory {
        name: "table".into(),
        width: num_outputs,
        depth: 1 << num_inputs,
        contents: None,
        write_port: Some(("cfg_addr".into(), "cfg_data".into(), "cfg_wen".into())),
    });
    m.add_output(
        OUTPUT_BUS,
        num_outputs,
        Expr::read_mem("table", Expr::reference(INPUT_BUS)),
    );
    m
}

/// Converts a cover into a sum-of-products [`Expr`] over the bus `bus`
/// (variable `v` of the cover reads `bus[v]`).
pub fn cover_expr(bus: &str, cover: &Cover) -> Expr {
    use synthir_logic::cube::Literal;
    let cube_expr = |cube: &Cube| {
        let mut lits = (0..cube.nvars()).filter_map(|v| match cube.literal(v) {
            Literal::DontCare => None,
            Literal::Positive => Some(Expr::reference(bus).index(v)),
            Literal::Negative => Some(Expr::reference(bus).index(v).not()),
        });
        let first = lits.next().unwrap_or_else(|| Expr::bit(true));
        lits.fold(first, Expr::and)
    };
    let mut terms = cover.cubes().iter().map(cube_expr);
    let first = terms.next().unwrap_or_else(|| Expr::bit(false));
    terms.fold(first, Expr::or)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate;
    use synthir_logic::TruthTable;

    fn table_from_tts(tts: &[TruthTable]) -> Vec<u128> {
        let n = tts[0].inputs();
        (0..1usize << n)
            .map(|m| {
                tts.iter()
                    .enumerate()
                    .fold(0u128, |acc, (i, tt)| acc | (u128::from(tt.eval(m)) << i))
            })
            .collect()
    }

    #[test]
    fn sop_and_table_styles_elaborate() {
        let tt0 = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        let tt1 = TruthTable::from_fn(3, |m| m % 2 == 0);
        let covers = vec![Cover::from_truth_table(&tt0), Cover::from_truth_table(&tt1)];
        let sop = sop_module("sop", 3, &covers);
        let e1 = elaborate(&sop).unwrap();
        assert_eq!(e1.netlist.flop_count(), 0);

        let words = table_from_tts(&[tt0, tt1]);
        let tab = table_module("tab", 3, 2, &words);
        let e2 = elaborate(&tab).unwrap();
        assert_eq!(e2.netlist.flop_count(), 0);
        assert!(e2.netlist.num_gates() > 0);
    }

    #[test]
    fn programmable_table_has_flops() {
        let m = table_module_programmable("flex", 3, 2);
        let e = elaborate(&m).unwrap();
        assert_eq!(e.netlist.flop_count(), 8 * 2);
    }

    #[test]
    fn cover_expr_handles_edges() {
        assert!(matches!(
            cover_expr(INPUT_BUS, &Cover::empty(3)),
            Expr::Const { value: 0, .. }
        ));
        assert!(matches!(
            cover_expr(INPUT_BUS, &Cover::tautology_cover(3)),
            Expr::Const { value: 1, .. }
        ));
    }
}
