//! End-to-end `compile` benchmark on the shipped `benchmarks/`
//! controllers.
//!
//! Each KISS2 controller is lowered in the table coding style (the paper's
//! recommended generator output), plus the runtime-programmable lowering
//! of two of them, and compiled with `SynthOptions::default()`.
//!
//! Median wall-clock, final gate count, mapped area, and critical-path
//! delay per design are written to `BENCH_synth.json` at the workspace
//! root, so both the compile-time trajectory *and* the mapped area/delay
//! are tracked across PRs alongside `BENCH_espresso.json`. Every timed
//! compile calls the uncached `compile_netlist` (through
//! `synthir_bench::compile_fresh`): through `compile`, the repeats would be
//! served from the compile cache.
//!
//! Run with `cargo bench --bench bench_synth` (add `-- --quick` for the CI
//! smoke pass; the JSON is written either way).

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::{Duration, Instant};
use synthir_bench::compile_fresh;
use synthir_core::format_conv::from_kiss2;
use synthir_netlist::Library;
use synthir_rtl::elaborate;
use synthir_rtl::elaborate::Elaborated;
use synthir_synth::SynthOptions;

fn controllers() -> Vec<(String, Elaborated)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks");
    let mut out = Vec::new();
    for name in ["traffic_light", "seq_detect", "elevator", "dma_ctrl"] {
        let path = format!("{dir}/{name}.kiss2");
        let text = std::fs::read_to_string(&path).expect("shipped benchmark exists");
        let spec = from_kiss2(name, &text).expect("shipped benchmark parses");
        let module = spec.to_table_module(true);
        let elab = elaborate(&module).expect("benchmark elaborates");
        out.push((name.to_string(), elab));
    }
    // The flexible (runtime-programmable) lowerings are the heavyweight
    // case: config flop arrays, write decoders, and read mux trees make
    // the elaborated netlist an order of magnitude larger — which is
    // where the front-half cleanup cost actually lives.
    for name in ["elevator", "dma_ctrl"] {
        let path = format!("{dir}/{name}.kiss2");
        let text = std::fs::read_to_string(&path).expect("shipped benchmark exists");
        let spec = from_kiss2(name, &text).expect("shipped benchmark parses");
        let module = spec.to_programmable_module();
        let elab = elaborate(&module).expect("benchmark elaborates");
        out.push((format!("{name}_prog"), elab));
    }
    out
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

/// One design's measured row.
struct Row {
    ms: f64,
    gates: usize,
    area: f64,
    critical_ns: f64,
}

fn measure(elab: &Elaborated, lib: &Library, opts: &SynthOptions, rounds: usize) -> Row {
    let r = compile_fresh(elab, lib, opts).unwrap();
    let t = median_time(rounds, || {
        std::hint::black_box(compile_fresh(elab, lib, opts).unwrap());
    });
    Row {
        ms: t.as_secs_f64() * 1e3,
        gates: r.netlist.num_gates(),
        area: r.area.total(),
        critical_ns: r.timing.critical_delay,
    }
}

fn bench(c: &mut Criterion) {
    let quick =
        std::env::args().any(|a| a == "--quick") || std::env::var_os("QUICK_BENCH").is_some();
    let lib = Library::vt90();
    let opts = SynthOptions::default();
    let mut g = c.benchmark_group("bench_synth");
    g.sample_size(if quick { 3 } else { 10 });

    let mut rows: Vec<(String, Row)> = Vec::new();
    for (name, elab) in controllers() {
        g.bench_function(&name, |b| {
            b.iter(|| compile_fresh(&elab, &lib, &opts).unwrap())
        });
        let r = measure(&elab, &lib, &opts, if quick { 3 } else { 9 });
        println!(
            "{name}: {:.3} ms ({} gates, {:.1} µm², {:.3} ns)",
            r.ms, r.gates, r.area, r.critical_ns,
        );
        rows.push((name, r));
    }
    g.finish();

    let mut json = String::from(
        "{\n  \"benchmark\": \"synth::flow::compile\",\n  \"unit\": \"ms (median \
         wall-clock), um2 (mapped area), ns (critical path)\",\n  \"workloads\": {\n",
    );
    for (i, (name, r)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    \"{name}\": {{\"ms\": {:.3}, \"gates\": {}, \"area_um2\": {:.1}, \
             \"critical_ns\": {:.4}}}{}\n",
            r.ms,
            r.gates,
            r.area,
            r.critical_ns,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_synth.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
