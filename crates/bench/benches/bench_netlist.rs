//! Netlist layout benchmark: what a compile-cache hit on a programmable
//! lowering pays for, operation by operation.
//!
//! The design is the programmable lowering of `random_fsm(2, 8, 16, 1)`
//! (runtime-written next-state and output tables), compiled once with
//! [`compile_fresh`]. On its mapped netlist the bench times
//! [`Netlist::clone`], [`Netlist::encode_words`] (the cache key's and the
//! store's encoding), [`Netlist::decode_words`] (a hit) and
//! [`synthir_synth::sta`]; on the lowering it times [`elaborate_fresh`],
//! which builds the netlist every `flex_map` job starts from, and
//! [`elaborate`] once the elaboration memo holds it (`elaborate_hit`:
//! the module key, a lookup and a decode). Each row reports the median
//! wall-clock time per call over batches of calls, and the bench checks
//! that decoding and a memo hit give back the same netlist.
//!
//! Run with `cargo bench --bench bench_netlist` (add `-- --quick` for a
//! fast smoke pass; `BENCH_netlist.json` at the workspace root is written
//! either way).

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::{Duration, Instant};
use synthir_bench::compile_fresh;
use synthir_core::random::random_fsm;
use synthir_netlist::{Library, NetId, Netlist};
use synthir_rtl::{elaborate, elaborate_fresh};
use synthir_synth::{sta, SynthOptions};

/// The median time per call over `batches` batches of `per_batch` calls.
fn median_per_call(batches: usize, per_batch: usize, mut f: impl FnMut()) -> Duration {
    let mut times: Vec<Duration> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t0.elapsed() / per_batch as u32
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

fn named_nets(nl: &Netlist) -> usize {
    (0..nl.num_nets() as u32)
        .filter(|&i| nl.net_name(NetId(i)).is_some())
        .count()
}

fn bench(_: &mut Criterion) {
    let quick =
        std::env::args().any(|a| a == "--quick") || std::env::var_os("QUICK_BENCH").is_some();
    let batches = if quick { 5 } else { 31 };
    let lib = Library::vt90();
    let module = random_fsm(2, 8, 16, 1).to_programmable_module();
    let elab = elaborate_fresh(&module).expect("the lowering elaborates");
    // The memo admits an elaboration on its second miss.
    for _ in 0..2 {
        elaborate(&module).expect("the lowering elaborates");
    }
    assert!(elaborate(&module).unwrap() == elab, "a memo hit differs");
    let mapped = compile_fresh(&elab, &lib, &SynthOptions::default())
        .expect("the lowering compiles")
        .netlist;
    let mut words = Vec::new();
    mapped.encode_words(&mut words);
    let back = Netlist::decode_words(mapped.name(), &words).expect("own encoding decodes");
    assert!(back == mapped, "decode ∘ encode changed the netlist");

    type Row<'a> = (&'a str, usize, Box<dyn FnMut() + 'a>);
    let rows: Vec<Row> = vec![
        (
            "clone",
            200,
            Box::new(|| drop(std::hint::black_box(mapped.clone()))),
        ),
        (
            "encode_words",
            100,
            Box::new(|| {
                let mut out = Vec::new();
                mapped.encode_words(&mut out);
                std::hint::black_box(out);
            }),
        ),
        (
            "decode_words",
            100,
            Box::new(|| {
                std::hint::black_box(Netlist::decode_words("m", &words).unwrap());
            }),
        ),
        (
            "sta",
            50,
            Box::new(|| {
                std::hint::black_box(sta(&mapped, &lib));
            }),
        ),
        (
            "elaborate",
            20,
            Box::new(|| drop(std::hint::black_box(elaborate_fresh(&module).unwrap()))),
        ),
        (
            "elaborate_hit",
            100,
            Box::new(|| drop(std::hint::black_box(elaborate(&module).unwrap()))),
        ),
    ];
    println!(
        "random_fsm(2, 8, 16, 1) programmable: {} elaborated gates, {} named nets, {} mapped gates, {} encoded words",
        elab.netlist.num_gates(),
        named_nets(&elab.netlist),
        mapped.num_gates(),
        words.len()
    );
    let mut json = format!(
        "{{\n  \"benchmark\": \"Netlist layout on the programmable lowering of random_fsm(2, 8, 16, 1): clone, encode_words, decode_words and sta of the mapped netlist, elaborate (fresh and memo hit) of the lowering\",\n  \"unit\": \"us per call (median over batches, wall-clock)\",\n  \"elaborated_gates\": {},\n  \"named_nets\": {},\n  \"mapped_gates\": {},\n  \"encoded_words\": {},\n  \"workloads\": {{\n",
        elab.netlist.num_gates(),
        named_nets(&elab.netlist),
        mapped.num_gates(),
        words.len()
    );
    let n = rows.len();
    for (i, (name, per_batch, mut f)) in rows.into_iter().enumerate() {
        let per_batch = if quick {
            per_batch.div_ceil(10)
        } else {
            per_batch
        };
        let us = median_per_call(batches, per_batch, &mut f).as_secs_f64() * 1e6;
        println!("{name}: {us:.2} us median");
        json.push_str(&format!(
            "    \"{name}\": {{\"median_us\": {us:.2}}}{}\n",
            if i + 1 < n { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_netlist.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
