//! Pins the search itself, not just its verdicts: total conflicts,
//! decisions and propagations, and a hash of every verdict and model, over
//! a seeded corpus. A change to the kernel's data layout must leave these
//! exactly equal; a change that means to alter the search (heuristics,
//! restarts, clause deletion) updates the numbers and says why.

use synthir_sat::{Lit, SatResult, Solver, Stats};

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Random 3-SAT at `ratio` clauses per variable; repeated literals are
/// kept, so normalization is part of what is pinned.
fn add_random_3sat(s: &mut Solver, rng: &mut u64, vars: usize, ratio: f64) -> Vec<Lit> {
    let x: Vec<Lit> = (0..vars).map(|_| Lit::positive(s.new_var())).collect();
    let clauses = (ratio * vars as f64).round() as usize;
    for _ in 0..clauses {
        let c: Vec<Lit> = (0..3)
            .map(|_| {
                let r = splitmix(rng);
                let l = x[(r >> 1) as usize % vars];
                if r & 1 != 0 {
                    !l
                } else {
                    l
                }
            })
            .collect();
        s.add_clause(&c);
    }
    x
}

/// Folds a verdict and, for `Sat`, the model of `x` into an FNV-1a hash.
fn fold(hash: &mut u64, s: &Solver, res: Option<SatResult>, x: &[Lit]) {
    let mut eat = |b: u64| {
        *hash ^= b;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    };
    eat(match res {
        None => 2,
        Some(SatResult::Unsat) => 0,
        Some(SatResult::Sat) => 1,
    });
    if res == Some(SatResult::Sat) {
        for &l in x {
            eat(u64::from(s.model_value(l)));
        }
    }
}

fn add(total: &mut Stats, s: &Solver) {
    let st = s.stats();
    total.conflicts += st.conflicts;
    total.decisions += st.decisions;
    total.propagations += st.propagations;
}

/// The corpus: 240 random 3-SAT instances of 20–79 variables at the 4.26
/// threshold; four of 200 variables, which learn enough clauses to run
/// learned-clause deletion several times; and one incremental session
/// mixing conflict budgets with clauses added between calls.
fn run_corpus() -> (Stats, u64) {
    let mut rng = 0x5EA2_C41Au64;
    let mut total = Stats::default();
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for i in 0..240 {
        let mut s = Solver::new();
        let x = add_random_3sat(&mut s, &mut rng, 20 + i % 60, 4.26);
        let res = s.solve();
        fold(&mut hash, &s, Some(res), &x);
        add(&mut total, &s);
    }
    for _ in 0..4 {
        let mut s = Solver::new();
        let x = add_random_3sat(&mut s, &mut rng, 200, 4.26);
        let res = s.solve();
        fold(&mut hash, &s, Some(res), &x);
        add(&mut total, &s);
    }
    let mut s = Solver::new();
    let x = add_random_3sat(&mut s, &mut rng, 120, 3.9);
    for round in 0..12 {
        let res = s.solve_limited(50 + 25 * round);
        fold(&mut hash, &s, res, &x);
        let r = splitmix(&mut rng);
        let (a, b) = (x[r as usize % 120], x[(r >> 32) as usize % 120]);
        s.add_clause(&[!a, b, x[round as usize]]);
    }
    add(&mut total, &s);
    (total, hash)
}

#[test]
fn search_is_pinned_on_a_seeded_corpus() {
    let (stats, hash) = run_corpus();
    assert_eq!(
        (stats, hash),
        (
            Stats {
                conflicts: 34_135,
                decisions: 42_637,
                propagations: 1_108_099,
            },
            0xBFEC_B766_8654_C4F9
        )
    );
}
