//! SAT path benchmark: AIG miters through the Tseitin encoder and the CDCL
//! solver (`synthir_aig::satisfy_with_stats`), the path every equivalence
//! proof in the workspace takes.
//!
//! Two kinds of question are timed, both generated here from fixed seeds:
//!
//! * wide PLA miters in the style of the `signoff` workload's pairs: a
//!   random sum of products of 28–60 inputs against a copy that splits
//!   every term on a variable it does not test (equivalent, UNSAT), or
//!   that copy plus one full-minterm term (one-minterm mutant, SAT);
//! * a batch of small miters the size of an induction round (about 60 AIG
//!   nodes): a random multi-level circuit against a copy that builds its
//!   XORs another way, half of them with one gate changed.
//!
//! Each row reports the median wall-clock time per call and the solver's
//! conflicts and propagations per call (means over the row's instances;
//! deterministic). The rows are written to `BENCH_sat.json` at the
//! workspace root.
//!
//! Run with `cargo bench --bench bench_sat` (add `-- --quick` for a fast
//! smoke pass; the JSON is written either way).

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::{Duration, Instant};
use synthir_aig::{satisfy_with_stats, Aig, AigLit};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A product term: tested input bits, their values, and the outputs it
/// feeds.
#[derive(Clone, Copy)]
struct Term {
    care: u64,
    value: u64,
    outs: u32,
}

/// A PLA pair `(a, b)` over `inputs` inputs: `a` has `terms` random terms
/// of 5–9 literals; `b` splits each on a free variable and shuffles them,
/// and with `mutate` also covers one minterm `a` leaves 0 on some output.
fn pla_pair(
    inputs: usize,
    outputs: usize,
    terms: usize,
    mutate: bool,
    seed: u64,
) -> (Vec<Term>, Vec<Term>) {
    let mut rng = Rng(seed);
    let mut a = Vec::with_capacity(terms);
    for _ in 0..terms {
        let lits = 5 + rng.below(5);
        let mut care = 0u64;
        while (care.count_ones() as usize) < lits {
            care |= 1 << rng.below(inputs);
        }
        a.push(Term {
            care,
            value: rng.next() & care,
            outs: 1 + rng.below((1 << outputs) - 1) as u32,
        });
    }
    let mut b = Vec::with_capacity(2 * terms + 1);
    for t in &a {
        let free: Vec<usize> = (0..inputs).filter(|&v| t.care >> v & 1 == 0).collect();
        let v = free[rng.below(free.len())];
        for bit in [0u64, 1] {
            b.push(Term {
                care: t.care | 1 << v,
                value: t.value | bit << v,
                outs: t.outs,
            });
        }
    }
    for i in (1..b.len()).rev() {
        b.swap(i, rng.below(i + 1));
    }
    if mutate {
        let mask = if inputs == 64 {
            u64::MAX
        } else {
            (1 << inputs) - 1
        };
        loop {
            let x = rng.next() & mask;
            let o = rng.below(outputs);
            let on = a
                .iter()
                .any(|t| t.outs >> o & 1 != 0 && (x ^ t.value) & t.care == 0);
            if !on {
                b.push(Term {
                    care: mask,
                    value: x,
                    outs: 1 << o,
                });
                break;
            }
        }
    }
    (a, b)
}

/// The miter of two PLAs over shared inputs: true where any output
/// differs.
fn pla_miter(inputs: usize, outputs: usize, a: &[Term], b: &[Term]) -> (Aig, AigLit) {
    let mut g = Aig::new("pla_miter");
    let x: Vec<AigLit> = (0..inputs).map(|_| g.add_input()).collect();
    let mut sides: [Vec<AigLit>; 2] = Default::default();
    for (side, pla) in [a, b].into_iter().enumerate() {
        let products: Vec<AigLit> = pla
            .iter()
            .map(|t| {
                let lits: Vec<AigLit> = (0..inputs)
                    .filter(|&v| t.care >> v & 1 != 0)
                    .map(|v| x[v].with_complement(t.value >> v & 1 == 0))
                    .collect();
                g.and_all(&lits)
            })
            .collect();
        for o in 0..outputs {
            let feeding: Vec<AigLit> = pla
                .iter()
                .zip(&products)
                .filter(|(t, _)| t.outs >> o & 1 != 0)
                .map(|(_, &p)| p)
                .collect();
            let y = g.or_all(&feeding);
            sides[side].push(y);
        }
    }
    let mut target = AigLit::FALSE;
    for (&l, &r) in sides[0].iter().zip(&sides[1]) {
        let d = g.xor(l, r);
        target = g.or(target, d);
    }
    (g, target)
}

/// A small miter: a random circuit of `gates` AND/OR/XOR gates over
/// `inputs` inputs and its last four signals as outputs, against a copy
/// whose XORs are built as `(a | b) & !(a & b)`; with `mutate`, one gate of
/// the copy is an AND instead.
fn small_miter(inputs: usize, gates: usize, mutate: bool, seed: u64) -> (Aig, AigLit) {
    let mut rng = Rng(seed);
    let mut g = Aig::new("small_miter");
    let x: Vec<AigLit> = (0..inputs).map(|_| g.add_input()).collect();
    let ops: Vec<(usize, usize, usize, bool, bool)> = (0..gates)
        .map(|i| {
            let n = inputs + i;
            let pick = |rng: &mut Rng| rng.below(n);
            (
                rng.below(3),
                pick(&mut rng),
                pick(&mut rng),
                rng.below(4) == 0,
                rng.below(4) == 0,
            )
        })
        .collect();
    let changed = mutate.then(|| gates / 2 + rng.below(gates / 2));
    let mut outs: [Vec<AigLit>; 2] = Default::default();
    for (copy, out) in outs.iter_mut().enumerate() {
        let mut sig = x.clone();
        for (i, &(op, p, q, cp, cq)) in ops.iter().enumerate() {
            let flip = |l: AigLit, c: bool| if c { !l } else { l };
            let (a, b) = (flip(sig[p], cp), flip(sig[q], cq));
            let y = match (op, copy) {
                _ if copy == 1 && changed == Some(i) => g.and(a, b),
                (0, _) => g.and(a, b),
                (1, _) => g.or(a, b),
                (_, 0) => g.xor(a, b),
                _ => {
                    let either = g.or(a, b);
                    let both = g.and(a, b);
                    g.and(either, !both)
                }
            };
            sig.push(y);
        }
        out.extend_from_slice(&sig[sig.len() - 4..]);
    }
    let mut target = AigLit::FALSE;
    for (&l, &r) in outs[0].iter().zip(&outs[1]) {
        let d = g.xor(l, r);
        target = g.or(target, d);
    }
    (g, target)
}

/// One benchmark row: a batch of miters with the verdict each must get.
struct Row {
    name: String,
    miters: Vec<(Aig, AigLit, Option<bool>)>,
}

fn rows(quick: bool) -> Vec<Row> {
    let per = if quick { 2 } else { 5 };
    let mut rows = Vec::new();
    for (inputs, outputs, terms) in [(28, 2, 24), (40, 4, 48), (60, 4, 64)] {
        for mutate in [false, true] {
            let miters = (0..per)
                .map(|s| {
                    let (a, b) = pla_pair(inputs, outputs, terms, mutate, 17 + s);
                    let (g, t) = pla_miter(inputs, outputs, &a, &b);
                    (g, t, Some(mutate))
                })
                .collect();
            rows.push(Row {
                name: format!(
                    "pla_{inputs}in_{}",
                    if mutate { "mutant" } else { "equivalent" }
                ),
                miters,
            });
        }
    }
    let miters = (0..if quick { 40 } else { 200 })
        .map(|s| {
            let (g, t) = small_miter(8, 20, s % 2 == 1, 1000 + s);
            // A changed gate need not change an output: no verdict pinned.
            (g, t, (s % 2 == 0).then_some(false))
        })
        .collect();
    rows.push(Row {
        name: "small_miters".into(),
        miters,
    });
    rows
}

fn median(mut v: Vec<Duration>) -> Duration {
    v.sort();
    v[v.len() / 2]
}

fn bench(c: &mut Criterion) {
    let quick =
        std::env::args().any(|a| a == "--quick") || std::env::var_os("QUICK_BENCH").is_some();
    let rounds = if quick { 1 } else { 5 };
    let mut g = c.benchmark_group("bench_sat");
    g.sample_size(if quick { 3 } else { 10 });
    let mut json = String::from("{\n  \"benchmark\": \"AIG miters through satisfy_with_stats: Tseitin supergate encoding + CDCL solver\",\n  \"unit\": \"ms per call (median wall-clock); conflicts and propagations per call (mean, deterministic)\",\n  \"workloads\": {\n");
    let rows = rows(quick);
    for (i, row) in rows.iter().enumerate() {
        g.bench_function(&row.name, |b| {
            b.iter(|| {
                for (aig, t, _) in &row.miters {
                    std::hint::black_box(satisfy_with_stats(aig, *t));
                }
            })
        });
        let (mut conflicts, mut propagations, mut nodes) = (0u64, 0u64, 0usize);
        let mut times = Vec::new();
        for (aig, t, expect) in &row.miters {
            let (model, stats) = satisfy_with_stats(aig, *t);
            if let Some(sat) = expect {
                assert_eq!(model.is_some(), *sat, "{}: wrong verdict", row.name);
            }
            if let Some(m) = &model {
                let v = aig.simulate(|n| u64::from(m[n as usize]));
                assert_eq!(Aig::lit_value(&v, *t) & 1, 1, "{}: bad model", row.name);
            }
            conflicts += stats.conflicts;
            propagations += stats.propagations;
            nodes += aig.node_count();
            for _ in 0..rounds {
                let t0 = Instant::now();
                std::hint::black_box(satisfy_with_stats(aig, *t));
                times.push(t0.elapsed());
            }
        }
        let n = row.miters.len() as u64;
        let ms = median(times).as_secs_f64() * 1e3;
        println!(
            "{}: {} miters of {} AIG nodes, {:.3} ms median, {} conflicts/call, {} propagations/call",
            row.name,
            n,
            nodes as u64 / n,
            ms,
            conflicts / n,
            propagations / n
        );
        json.push_str(&format!(
            "    \"{}\": {{\"miters\": {n}, \"aig_nodes_per_miter\": {}, \"median_ms\": {ms:.4}, \"conflicts_per_call\": {}, \"propagations_per_call\": {}}}{}\n",
            row.name,
            nodes as u64 / n,
            conflicts / n,
            propagations / n,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    g.finish();
    json.push_str("  }\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sat.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
