//! Kernel benchmark: the optimized espresso vs the pre-optimization (seed)
//! kernel preserved in `synthir_logic::naive`.
//!
//! Four representative workloads are timed with both kernels and the
//! medians are written to `BENCH_espresso.json` at the workspace root, so
//! the speedup is tracked across PRs: a 10-variable function with a
//! don't-care set shaped like the m = 8 Fig. 6 cones, a 12-variable minterm
//! start, and random covers at 16 and 20 variables. The 16- and 20-variable
//! rows sit on either side of the 16-variable threshold between the
//! optimized kernel's dense and cube-list care sets. The acceptance bar for
//! the kernel rework is ≥5× on the 16-variable cover.
//!
//! Run with `cargo bench --bench bench_espresso` (add `-- --quick` for a
//! fast smoke pass; the JSON is written either way).

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::{Duration, Instant};
use synthir_logic::espresso::{minimize, EspressoOptions};
use synthir_logic::naive::minimize_naive;
use synthir_logic::{Cover, Cube, TruthTable};

/// A random cover of `ncubes` cubes whose literals appear with the given
/// percentage density (deterministic xorshift).
fn random_cover(nvars: usize, ncubes: usize, seed: u64, density: u64) -> Cover {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let cubes: Vec<Cube> = (0..ncubes)
        .map(|_| {
            let mut care = 0u64;
            let mut value = 0u64;
            for v in 0..nvars {
                if next() % 100 < density {
                    care |= 1 << v;
                    if next() % 2 == 0 {
                        value |= 1 << v;
                    }
                }
            }
            Cube::new(nvars, value, care)
        })
        .collect();
    Cover::from_cubes(nvars, cubes)
}

/// The benchmark workloads as `(name, ON cover, DC cover)`.
///
/// * `fsm_10var_dc`: one re-encoded next-state or output function of a
///   3-state, 8-input random FSM as `fsm_reencode` minimizes it — two state
///   bits (variables 0–1) and eight inputs, random over the three used
///   state codes, with the unused code `0b11` as the DC set; minterm starts.
/// * `minterm_12var`: canonical minterm start at 12 variables (the
///   `minimize_tt` workload of the Fig. 5/6 experiments).
/// * `cubes_16var`, `cubes_20var`: structural-style cube covers.
fn workloads() -> Vec<(&'static str, Cover, Option<Cover>)> {
    let fsm_on = TruthTable::from_fn(10, |m| {
        m & 3 != 3 && (m as u64 + 7).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 != 0
    });
    let fsm_dc = TruthTable::from_fn(10, |m| m & 3 == 3);
    let tt12 = TruthTable::from_fn(12, |m| {
        (m as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62 & 1 != 0
    });
    vec![
        (
            "fsm_10var_dc",
            Cover::from_truth_table(&fsm_on),
            Some(Cover::from_truth_table(&fsm_dc)),
        ),
        ("minterm_12var", Cover::from_truth_table(&tt12), None),
        ("cubes_16var", random_cover(16, 400, 1, 60), None),
        ("cubes_20var", random_cover(20, 300, 1, 50), None),
    ]
}

fn median_time(rounds: usize, mut f: impl FnMut()) -> Duration {
    f(); // warm-up
    let mut samples: Vec<Duration> = (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

fn bench(c: &mut Criterion) {
    let quick =
        std::env::args().any(|a| a == "--quick") || std::env::var_os("QUICK_BENCH").is_some();
    let opts = EspressoOptions::default();
    let mut g = c.benchmark_group("bench_espresso");
    g.sample_size(if quick { 3 } else { 10 });

    let mut rows = Vec::new();
    for (name, on, dc) in workloads() {
        let dc = dc.as_ref();
        g.bench_function(format!("{name}/optimized"), |b| {
            b.iter(|| minimize(&on, dc, &opts))
        });
        g.bench_function(format!("{name}/naive"), |b| {
            b.iter(|| minimize_naive(&on, dc, &opts))
        });
        // Medians for the cross-PR baseline file.
        let rounds = if quick { 3 } else { 7 };
        let fast = median_time(rounds, || {
            std::hint::black_box(minimize(&on, dc, &opts));
        });
        let naive = median_time(if quick { 1 } else { 3 }, || {
            std::hint::black_box(minimize_naive(&on, dc, &opts));
        });
        let speedup = naive.as_secs_f64() / fast.as_secs_f64();
        println!(
            "{name}: optimized {:.3} ms, naive {:.3} ms, speedup {speedup:.1}x",
            fast.as_secs_f64() * 1e3,
            naive.as_secs_f64() * 1e3
        );
        let dc_cubes = dc.map_or(0, Cover::cube_count);
        rows.push((
            name,
            on.nvars(),
            on.cube_count(),
            dc_cubes,
            fast,
            naive,
            speedup,
        ));
    }
    g.finish();

    // BENCH_espresso.json at the workspace root (two levels up from the
    // bench crate).
    let mut json = String::from("{\n  \"benchmark\": \"minimize: optimized kernel (dense care set up to 16 variables, URP cube lists above) vs pre-optimization (naive) kernel\",\n  \"unit\": \"ms (median wall-clock)\",\n  \"workloads\": {\n");
    for (i, (name, nvars, ncubes, dc_cubes, fast, naive, speedup)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    \"{name}\": {{\"nvars\": {nvars}, \"cubes\": {ncubes}, \"dc_cubes\": {dc_cubes}, \"optimized_ms\": {:.3}, \"naive_ms\": {:.3}, \"speedup\": {:.2}}}{}\n",
            fast.as_secs_f64() * 1e3,
            naive.as_secs_f64() * 1e3,
            speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_espresso.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
