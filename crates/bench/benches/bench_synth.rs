//! End-to-end `compile` benchmark: the rule mapper vs the cut-based
//! mapper on the shipped `benchmarks/` controllers.
//!
//! Each KISS2 controller is lowered in the table coding style (the paper's
//! recommended generator output) and compiled two ways:
//!
//! * `aig`  — `SynthOptions::default()`: AIG front half + rule mapper;
//! * `cuts` — `.with_cut_mapper()`: AIG front half + cut-based technology
//!   mapping (`--mapper cuts`).
//!
//! Median wall-clock, final gate count, mapped area, and critical-path
//! delay for every variant are written to `BENCH_synth.json` at the
//! workspace root, so both the compile-time trajectory *and* the mapper
//! area/delay tradeoff are tracked across PRs alongside
//! `BENCH_espresso.json`.
//!
//! Run with `cargo bench --bench bench_synth` (add `-- --quick` for the CI
//! smoke pass; the JSON is written either way).

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::{Duration, Instant};
use synthir_core::format_conv::from_kiss2;
use synthir_netlist::Library;
use synthir_rtl::elaborate;
use synthir_rtl::elaborate::Elaborated;
use synthir_synth::{compile, SynthOptions};

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

/// One compile variant's measured row.
struct Row {
    ms: f64,
    gates: usize,
    area: f64,
    critical_ns: f64,
}

fn measure(elab: &Elaborated, lib: &Library, opts: &SynthOptions, rounds: usize) -> Row {
    let r = compile(elab, lib, opts).unwrap();
    let t = median_time(rounds, || {
        std::hint::black_box(compile(elab, lib, opts).unwrap());
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
    let variants: [(&str, SynthOptions); 2] = [
        ("aig", SynthOptions::default()),
        ("cuts", SynthOptions::default().with_cut_mapper()),
    ];
    let mut g = c.benchmark_group("bench_synth");
    g.sample_size(if quick { 3 } else { 10 });

    let mut rows: Vec<(String, Vec<(&str, Row)>)> = Vec::new();
    for (name, elab) in controllers() {
        for (vname, opts) in &variants {
            g.bench_function(format!("{name}/{vname}"), |b| {
                b.iter(|| compile(&elab, &lib, opts).unwrap())
            });
        }
        let rounds = if quick { 3 } else { 9 };
        let measured: Vec<(&str, Row)> = variants
            .iter()
            .map(|(vname, opts)| (*vname, measure(&elab, &lib, opts, rounds)))
            .collect();
        let aig = &measured[0].1;
        let cuts = &measured[1].1;
        println!(
            "{name}: aig {:.3} ms ({} gates, {:.1} µm², {:.3} ns) | cuts {:.3} ms ({} gates, \
             {:.1} µm², {:.3} ns) | cut-map area {:+.1}%",
            aig.ms,
            aig.gates,
            aig.area,
            aig.critical_ns,
            cuts.ms,
            cuts.gates,
            cuts.area,
            cuts.critical_ns,
            (cuts.area - aig.area) / aig.area * 100.0,
        );
        rows.push((name, measured));
    }
    g.finish();

    let mut json = String::from(
        "{\n  \"benchmark\": \"synth::flow::compile: rule mapper (aig) vs cut-based mapper \
         (cuts)\",\n  \"unit\": \"ms (median \
         wall-clock), um2 (mapped area), ns (critical path)\",\n  \"workloads\": {\n",
    );
    for (i, (name, measured)) in rows.iter().enumerate() {
        json.push_str(&format!("    \"{name}\": {{\n"));
        for (j, (vname, r)) in measured.iter().enumerate() {
            json.push_str(&format!(
                "      \"{vname}\": {{\"ms\": {:.3}, \"gates\": {}, \"area_um2\": {:.1}, \
                 \"critical_ns\": {:.4}}}{}\n",
                r.ms,
                r.gates,
                r.area,
                r.critical_ns,
                if j + 1 < measured.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!(
            "    }}{}\n",
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
