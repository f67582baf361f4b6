//! Fig. 5: table-based combinational logic vs direct sum-of-products.
//!
//! "Fig. 5 compares the area synthesis results for many different
//! combinational logic functions (tables of depth d ∈ {2, 8, 16, 32, 64,
//! 256, 1024} and width w ∈ {2, 4, 16, 32, 64})." Both styles describe the
//! same random function; in the ideal case all points lie on the equal-area
//! line.

use crate::{compile_fresh, AreaPoint};
use synthir_core::random::random_table;
use synthir_logic::{Cover, TruthTable};
use synthir_netlist::Library;
use synthir_rtl::{elaborate, styles};
use synthir_synth::SynthOptions;

/// The paper's full parameter grid.
pub fn paper_grid() -> Vec<(usize, usize)> {
    let depths = [2usize, 8, 16, 32, 64, 256, 1024];
    let widths = [2usize, 4, 16, 32, 64];
    let mut grid = Vec::new();
    for &d in &depths {
        for &w in &widths {
            grid.push((d, w));
        }
    }
    grid
}

/// A reduced grid for quick runs and criterion benches.
pub fn quick_grid() -> Vec<(usize, usize)> {
    vec![(8, 2), (16, 4), (64, 4), (64, 16), (256, 8)]
}

/// Runs one (depth, width, seed) sample: returns
/// `(direct SOP area, table-based area)`.
pub fn sample(depth: usize, width: usize, seed: u64) -> AreaPoint {
    let lib = Library::vt90();
    let opts = SynthOptions::default();
    let words = random_table(depth, width, seed);
    let abits = depth.trailing_zeros() as usize;

    // Direct style: minimized sum-of-products assignments per output bit,
    // minimized as one batch (concurrently through `synthir_logic::par`).
    let tts: Vec<TruthTable> = (0..width)
        .map(|b| TruthTable::from_fn(abits, |m| words[m] >> b & 1 != 0))
        .collect();
    let covers: Vec<Cover> = synthir_logic::espresso::minimize_tt_batch(
        &tts,
        None,
        &synthir_logic::espresso::EspressoOptions::default(),
    );
    let sop = styles::sop_module(format!("sop_d{depth}_w{width}_s{seed}"), abits, &covers);
    let table = styles::table_module(
        format!("tab_d{depth}_w{width}_s{seed}"),
        abits,
        width,
        &words,
    );
    let r_sop =
        compile_fresh(&elaborate(&sop).expect("elaborates"), &lib, &opts).expect("compiles");
    let r_tab =
        compile_fresh(&elaborate(&table).expect("elaborates"), &lib, &opts).expect("compiles");
    AreaPoint {
        label: format!("d{depth}_w{width}_s{seed}"),
        x: r_sop.area.total(),
        y: r_tab.area.total(),
    }
}

/// Runs the experiment over a grid with `samples` seeds per cell. Design
/// points are independent, so they are synthesized concurrently, with
/// results in grid order (`SYNTHIR_THREADS=1` runs them serially).
pub fn run(grid: &[(usize, usize)], samples: u64) -> Vec<AreaPoint> {
    let mut jobs = Vec::new();
    for &(d, w) in grid {
        for seed in 0..samples {
            jobs.push((d, w, seed));
        }
    }
    synthir_logic::par::par_map(&jobs, |&(d, w, seed)| sample(d, w, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_tracks_sop_area() {
        let pts = run(&[(16, 4), (64, 4)], 2);
        for p in &pts {
            assert!(p.x > 0.0 && p.y > 0.0);
            // Partial evaluation keeps the styles within 50% of each other.
            assert!(
                p.ratio() < 1.5 && p.ratio() > 0.6,
                "{}: ratio {:.2}",
                p.label,
                p.ratio()
            );
        }
        let g = crate::geomean_ratio(&pts);
        assert!(g > 0.8 && g < 1.25, "geomean {g:.3}");
    }
}
