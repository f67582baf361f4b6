//! Oracle tests for the optimized URP kernel: for hundreds of seeded random
//! covers (up to 12 variables), the optimized `complement`, `is_tautology`,
//! `remove_contained_cubes`, and `minimize` must agree exactly with a
//! brute-force truth-table oracle — and with the pre-optimization kernel
//! preserved in `synthir_logic::naive` where results are semantic. The
//! batch (parallel) minimizer must be bit-identical to the serial one.

use synthir_logic::espresso::{minimize, minimize_batch, minimize_tt_batch, EspressoOptions};
use synthir_logic::naive;
use synthir_logic::{Cover, Cube, TruthTable};

const SEEDS: u64 = 220;

/// Deterministic xorshift stream.
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// A random cover over `nvars <= 12` variables with a mix of wide and
/// narrow cubes (and occasional duplicates, to exercise containment).
fn random_cover(seed: u64) -> Cover {
    let mut next = stream(seed);
    let nvars = 2 + (next() % 11) as usize; // 2..=12
    let ncubes = 1 + (next() % 24) as usize;
    let density = 25 + next() % 70; // 25%..95% literal density
    let mut cubes: Vec<Cube> = (0..ncubes)
        .map(|_| {
            let mut care = 0u64;
            let mut value = 0u64;
            for v in 0..nvars {
                if next() % 100 < density {
                    care |= 1 << v;
                    if next().is_multiple_of(2) {
                        value |= 1 << v;
                    }
                }
            }
            Cube::new(nvars, value, care)
        })
        .collect();
    if ncubes > 2 && next().is_multiple_of(4) {
        let dup = cubes[0];
        cubes.push(dup); // duplicate cube
    }
    Cover::from_cubes(nvars, cubes)
}

/// Brute-force truth table of a cover (the oracle).
fn oracle_tt(f: &Cover) -> TruthTable {
    TruthTable::from_fn(f.nvars(), |m| f.eval(m as u64))
}

#[test]
fn complement_agrees_with_truth_table_oracle() {
    for seed in 0..SEEDS {
        let f = random_cover(seed);
        let tt = oracle_tt(&f);
        let comp = f.complement();
        for m in 0..tt.num_minterms() {
            assert_eq!(comp.eval(m as u64), !tt.eval(m), "seed {seed}, minterm {m}");
        }
        // Complement output is single-cube minimal (the URP merge invariant).
        let mut cleaned = comp.clone();
        cleaned.remove_contained_cubes();
        assert_eq!(
            cleaned.cube_count(),
            comp.cube_count(),
            "seed {seed}: complement emitted a contained cube"
        );
    }
}

#[test]
fn tautology_agrees_with_truth_table_oracle_and_naive() {
    let mut tautologies = 0;
    for seed in 0..SEEDS {
        let f = random_cover(seed);
        let tt = oracle_tt(&f);
        let expect = (0..tt.num_minterms()).all(|m| tt.eval(m));
        assert_eq!(f.is_tautology(), expect, "seed {seed}");
        assert_eq!(naive::is_tautology_naive(&f), expect, "seed {seed} (naive)");
        tautologies += expect as usize;
        // Force some guaranteed tautologies too: f ∪ ¬f.
        let both = f.union(&f.complement());
        assert!(both.is_tautology(), "seed {seed}: f ∪ ¬f");
    }
    // The random mix must exercise both outcomes.
    assert!(tautologies > 0, "no tautologies sampled");
}

#[test]
fn containment_removal_agrees_with_oracle_and_naive() {
    for seed in 0..SEEDS {
        let f = random_cover(seed);
        let tt = oracle_tt(&f);
        let mut fast = f.clone();
        fast.remove_contained_cubes();
        let mut slow = f.clone();
        naive::remove_contained_cubes_naive(&mut slow);
        // Same function, and same surviving cube multiset (the optimized
        // sweep keeps original order; the naive one does too).
        assert_eq!(oracle_tt(&fast), tt, "seed {seed}: function changed");
        assert_eq!(
            fast.cubes(),
            slow.cubes(),
            "seed {seed}: optimized and naive containment disagree"
        );
        // Minimality: no survivor contains another.
        for (i, a) in fast.cubes().iter().enumerate() {
            for (j, b) in fast.cubes().iter().enumerate() {
                assert!(
                    i == j || !a.contains_cube(b),
                    "seed {seed}: cube {i} still contains cube {j}"
                );
            }
        }
    }
    // Buffers of 64 cubes and more look equal-size cubes up by hash: mix
    // repeated minterms with random cubes and compare with the naive scan.
    for seed in 0..40u64 {
        let mut next = stream(seed ^ 0xB16);
        let nvars = 4 + (next() % 9) as usize;
        let cubes: Vec<Cube> = (0..64 + next() % 200)
            .map(|_| {
                let m = next() % (1 << nvars);
                if next().is_multiple_of(3) {
                    Cube::new(nvars, m, next())
                } else {
                    Cube::minterm(nvars, m)
                }
            })
            .collect();
        let f = Cover::from_cubes(nvars, cubes);
        let mut fast = f.clone();
        fast.remove_contained_cubes();
        let mut slow = f;
        naive::remove_contained_cubes_naive(&mut slow);
        assert_eq!(fast.cubes(), slow.cubes(), "large seed {seed}");
    }
}

#[test]
fn minimize_agrees_with_truth_table_oracle() {
    let opts = EspressoOptions::default();
    for seed in 0..SEEDS {
        let f = random_cover(seed);
        let tt = oracle_tt(&f);
        let min = minimize(&f, None, &opts);
        assert_eq!(
            oracle_tt(&min),
            tt,
            "seed {seed}: minimize changed the function"
        );
        // And never worse than the de-duplicated input.
        let mut start = f.clone();
        start.remove_contained_cubes();
        assert!(
            min.cube_count() <= start.cube_count().max(1),
            "seed {seed}: minimize grew the cover"
        );
    }
}

#[test]
fn minimize_respects_dont_cares_against_oracle() {
    let opts = EspressoOptions::default();
    for seed in 0..SEEDS / 2 {
        let on = random_cover(seed);
        let mut next = stream(seed ^ 0xDC);
        let dc_tt = TruthTable::from_fn(on.nvars(), |m| {
            !on.eval(m as u64) && next().is_multiple_of(4)
        });
        let dc = Cover::from_truth_table(&dc_tt);
        let min = minimize(&on, Some(&dc), &opts);
        for m in 0..dc_tt.num_minterms() {
            if !dc_tt.eval(m) {
                assert_eq!(
                    min.eval(m as u64),
                    on.eval(m as u64),
                    "seed {seed}, minterm {m}"
                );
            }
        }
    }
}

#[test]
fn batch_minimization_is_deterministic_and_equals_serial() {
    let opts = EspressoOptions::default();
    let jobs: Vec<Cover> = (0..48).map(random_cover).collect();
    // minimize_batch over heterogeneous jobs (different nvars are fine —
    // each job is independent).
    let batch_a = minimize_batch(&jobs, None, &opts);
    let batch_b = minimize_batch(&jobs, None, &opts);
    for (i, (a, b)) in batch_a.iter().zip(&batch_b).enumerate() {
        assert_eq!(a.cubes(), b.cubes(), "job {i}: batch not deterministic");
    }
    for (i, (job, got)) in jobs.iter().zip(&batch_a).enumerate() {
        let serial = minimize(job, None, &opts);
        assert_eq!(got.cubes(), serial.cubes(), "job {i}: batch != serial");
    }
    // Truth-table batch path, shared DC.
    let tts: Vec<TruthTable> = (0..12u64)
        .map(|s| {
            TruthTable::from_fn(7, move |m| {
                (m as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ s) >> 61 & 1 != 0
            })
        })
        .collect();
    let dc = TruthTable::from_fn(7, |m| m % 13 == 0 && !tts.iter().any(|t| t.eval(m)));
    let batch = minimize_tt_batch(&tts, Some(&dc), &opts);
    for (i, (tt, cover)) in tts.iter().zip(&batch).enumerate() {
        let serial = minimize(
            &Cover::from_truth_table(tt),
            Some(&Cover::from_truth_table(&dc)),
            &opts,
        );
        assert_eq!(cover.cubes(), serial.cubes(), "tt job {i}: batch != serial");
    }
}

#[test]
fn optimized_and_naive_minimize_are_semantically_equal() {
    let opts = EspressoOptions::default();
    for seed in 0..SEEDS / 2 {
        let f = random_cover(seed);
        let tt = oracle_tt(&f);
        let fast = minimize(&f, None, &opts);
        let slow = naive::minimize_naive(&f, None, &opts);
        assert_eq!(oracle_tt(&fast), tt, "seed {seed} (optimized)");
        assert_eq!(oracle_tt(&slow), tt, "seed {seed} (naive)");
    }
}
