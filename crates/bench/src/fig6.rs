//! Fig. 6: table-based FSMs vs the tool-recommended direct style.
//!
//! "Fig. 6 compares the synthesis results for many different FSMs (inputs
//! m ∈ {2, 8}, outputs n ∈ {2, 8, 16}, and states s ∈ {2, 3, 8, 16, 17})."
//! The table style hides the state register from the tool; the annotated
//! variant (`set_fsm_state_vector`) recovers the direct style's quality.

use crate::{compile_fresh, AreaPoint};
use synthir_core::random::random_fsm;
use synthir_netlist::Library;
use synthir_rtl::elaborate;
use synthir_synth::SynthOptions;

/// One Fig. 6 series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig6Series {
    /// Plain table-based FSM: the tool cannot find the state register.
    Regular,
    /// Table-based with generator-derived FSM annotations.
    StateAnnotated,
}

/// The paper's full parameter grid `(m, n, s)`.
pub fn paper_grid() -> Vec<(usize, usize, usize)> {
    let ms = [2usize, 8];
    let ns = [2usize, 8, 16];
    let ss = [2usize, 3, 8, 16, 17];
    let mut grid = Vec::new();
    for &m in &ms {
        for &n in &ns {
            for &s in &ss {
                grid.push((m, n, s));
            }
        }
    }
    grid
}

/// A reduced grid for quick runs.
pub fn quick_grid() -> Vec<(usize, usize, usize)> {
    vec![(2, 2, 3), (2, 8, 8), (2, 8, 17)]
}

/// Runs one (m, n, s, seed) sample for a series: x = case-style area,
/// y = table-style area (plain or annotated).
pub fn sample(m: usize, n: usize, s: usize, seed: u64, series: Fig6Series) -> AreaPoint {
    let lib = Library::vt90();
    let opts = SynthOptions::default();
    let spec = random_fsm(m, n, s, seed);
    let case = spec.to_case_module();
    let table = spec.to_table_module(series == Fig6Series::StateAnnotated);
    let r_case =
        compile_fresh(&elaborate(&case).expect("elaborates"), &lib, &opts).expect("compiles");
    let r_tab =
        compile_fresh(&elaborate(&table).expect("elaborates"), &lib, &opts).expect("compiles");
    AreaPoint {
        label: format!("m{m}_n{n}_s{s}_seed{seed}_{series:?}"),
        x: r_case.area.total(),
        y: r_tab.area.total(),
    }
}

/// Runs a series over a grid with `samples` seeds per cell. Design points
/// are independent, so they are synthesized concurrently, with results in
/// grid order (`SYNTHIR_THREADS=1` runs them serially).
pub fn run(grid: &[(usize, usize, usize)], samples: u64, series: Fig6Series) -> Vec<AreaPoint> {
    let mut jobs = Vec::new();
    for &(m, n, s) in grid {
        for seed in 0..samples {
            jobs.push((m, n, s, seed));
        }
    }
    synthir_logic::par::par_map(&jobs, |&(m, n, s, seed)| sample(m, n, s, seed, series))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotation_recovers_direct_quality() {
        // s = 3: a non-power-of-two state count, the paper's worst case.
        // The plain-table penalty is a tendency across designs (the paper's
        // scatter), so average a few seeds; the annotated ratio is pinned.
        let mut plain_sum = 0.0;
        let mut anno_sum = 0.0;
        let seeds = 4;
        for seed in 0..seeds {
            let plain = sample(2, 4, 3, seed, Fig6Series::Regular);
            let anno = sample(2, 4, 3, seed, Fig6Series::StateAnnotated);
            assert!(
                anno.ratio() < 1.05 && anno.ratio() > 0.95,
                "seed {seed}: annotated ratio {:.3}",
                anno.ratio()
            );
            plain_sum += plain.ratio();
            anno_sum += anno.ratio();
        }
        assert!(
            plain_sum > anno_sum,
            "mean plain {:.3} must exceed mean annotated {:.3}",
            plain_sum / seeds as f64,
            anno_sum / seeds as f64
        );
    }
}
