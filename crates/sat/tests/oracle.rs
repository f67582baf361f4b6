//! Oracle property tests: the CDCL solver against brute-force enumeration
//! on random CNFs small enough to enumerate exhaustively.

use synthir_sat::{Lit, SatResult, Solver, Var};

/// Minimal deterministic RNG (SplitMix64), same as the sim crate's.
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

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random CNF as `(num_vars, clauses)`, with clauses of 1–4 literals.
fn random_cnf(seed: u64) -> (usize, Vec<Vec<(usize, bool)>>) {
    let mut rng = SplitMix::new(seed);
    let nvars = 3 + rng.below(12) as usize; // 3..=14
    let nclauses = 1 + rng.below(60) as usize;
    let mut clauses = Vec::with_capacity(nclauses);
    for _ in 0..nclauses {
        let len = 1 + rng.below(4) as usize;
        let clause: Vec<(usize, bool)> = (0..len)
            .map(|_| (rng.below(nvars as u64) as usize, rng.below(2) == 1))
            .collect();
        clauses.push(clause);
    }
    (nvars, clauses)
}

/// Exhaustively checks satisfiability and returns a witness if any.
fn brute_force(nvars: usize, clauses: &[Vec<(usize, bool)>]) -> Option<u64> {
    'assignments: for m in 0u64..(1 << nvars) {
        for clause in clauses {
            let sat = clause.iter().any(|&(v, neg)| (m >> v & 1 == 1) != neg);
            if !sat {
                continue 'assignments;
            }
        }
        return Some(m);
    }
    None
}

fn solver_for(nvars: usize, clauses: &[Vec<(usize, bool)>]) -> (Solver, Vec<Var>) {
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..nvars).map(|_| s.new_var()).collect();
    for clause in clauses {
        let lits: Vec<Lit> = clause
            .iter()
            .map(|&(v, neg)| Lit::new(vars[v], neg))
            .collect();
        s.add_clause(&lits);
    }
    (s, vars)
}

#[test]
fn verdicts_match_brute_force_on_random_cnfs() {
    let mut sat = 0;
    let mut unsat = 0;
    for seed in 0..400u64 {
        let (nvars, clauses) = random_cnf(seed);
        let expect = brute_force(nvars, &clauses);
        let (mut s, vars) = solver_for(nvars, &clauses);
        match s.solve() {
            SatResult::Sat => {
                assert!(expect.is_some(), "seed {seed}: solver SAT, oracle UNSAT");
                sat += 1;
                // The model must actually satisfy every clause.
                for clause in &clauses {
                    assert!(
                        clause
                            .iter()
                            .any(|&(v, neg)| s.model_value(Lit::new(vars[v], neg))),
                        "seed {seed}: model violates a clause"
                    );
                }
            }
            SatResult::Unsat => {
                assert!(
                    expect.is_none(),
                    "seed {seed}: solver UNSAT, oracle found {:#x}",
                    expect.unwrap()
                );
                unsat += 1;
            }
        }
    }
    // The seed mix must actually exercise both verdicts.
    assert!(sat > 50, "only {sat} satisfiable instances");
    assert!(unsat > 50, "only {unsat} unsatisfiable instances");
}

#[test]
fn incremental_clause_addition_matches_oracle() {
    // Add clauses in two batches with a solve in between; the final verdict
    // must match the oracle on the full set.
    for seed in 400..480u64 {
        let (nvars, clauses) = random_cnf(seed);
        let split = clauses.len() / 2;
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..nvars).map(|_| s.new_var()).collect();
        let add = |s: &mut Solver, batch: &[Vec<(usize, bool)>]| {
            for clause in batch {
                let lits: Vec<Lit> = clause
                    .iter()
                    .map(|&(v, neg)| Lit::new(vars[v], neg))
                    .collect();
                s.add_clause(&lits);
            }
        };
        add(&mut s, &clauses[..split]);
        let first = s.solve();
        if first == SatResult::Unsat {
            // A subset being UNSAT forces the full set UNSAT.
            assert!(
                brute_force(nvars, &clauses[..split]).is_none(),
                "seed {seed}"
            );
            continue;
        }
        add(&mut s, &clauses[split..]);
        let verdict = s.solve();
        let expect = brute_force(nvars, &clauses);
        assert_eq!(
            verdict == SatResult::Sat,
            expect.is_some(),
            "seed {seed}: incremental verdict diverges from oracle"
        );
    }
}

/// Random 3-SAT-style CNFs at the 4.26 clauses-per-variable threshold, where
/// about half the instances are satisfiable and the search is hardest:
/// widths 1–4, mostly 3, repeated and complementary literals kept.
fn threshold_cnf(rng: &mut SplitMix, nvars: usize) -> Vec<Vec<(usize, bool)>> {
    let nclauses = (4.26 * nvars as f64).round() as usize + rng.below(3) as usize;
    (0..nclauses)
        .map(|_| {
            let len = match rng.below(10) {
                0 => 1,
                1 | 2 => 2,
                9 => 4,
                _ => 3,
            };
            (0..len)
                .map(|_| (rng.below(nvars as u64) as usize, rng.below(2) == 1))
                .collect()
        })
        .collect()
}

/// Checks `count` threshold CNFs of 1 to `max_vars` variables: the verdict
/// against enumeration, and every model against every clause.
fn check_threshold_cnfs(seed: u64, count: usize, max_vars: usize) {
    let mut rng = SplitMix::new(seed);
    for i in 0..count {
        let nvars = 1 + i % max_vars;
        let clauses = threshold_cnf(&mut rng, nvars);
        let expect = brute_force(nvars, &clauses);
        let (mut s, vars) = solver_for(nvars, &clauses);
        let verdict = s.solve();
        assert_eq!(
            verdict == SatResult::Sat,
            expect.is_some(),
            "instance {i}: {clauses:?}"
        );
        if verdict == SatResult::Sat {
            for clause in &clauses {
                assert!(
                    clause
                        .iter()
                        .any(|&(v, neg)| s.model_value(Lit::new(vars[v], neg))),
                    "instance {i}: model violates a clause"
                );
            }
        }
    }
}

#[test]
fn threshold_cnfs_match_brute_force() {
    check_threshold_cnfs(0x5A7_0001, 600, 12);
}

/// Up to 16 variables and many more instances: a few seconds in release.
#[test]
#[ignore]
fn threshold_cnfs_match_brute_force_up_to_16_variables() {
    check_threshold_cnfs(0x5A7_0016, 6000, 16);
}
