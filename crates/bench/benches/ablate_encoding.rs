//! Ablation: FSM re-encoding styles (binary / one-hot / gray / keep).
use criterion::{criterion_group, criterion_main, Criterion};
use synthir_bench::compile_fresh;
use synthir_core::random::random_fsm;
use synthir_netlist::Library;
use synthir_rtl::elaborate;
use synthir_synth::{FsmEncoding, SynthOptions};

fn bench(c: &mut Criterion) {
    let lib = Library::vt90();
    let spec = random_fsm(2, 8, 8, 5);
    let module = spec.to_table_module(true);
    let elab = elaborate(&module).unwrap();
    let mut g = c.benchmark_group("ablate_encoding");
    g.sample_size(10);
    for enc in [
        FsmEncoding::Binary,
        FsmEncoding::OneHot,
        FsmEncoding::Gray,
        FsmEncoding::Keep,
    ] {
        g.bench_function(format!("{enc:?}"), |b| {
            let opts = SynthOptions::default().with_fsm_encoding(enc);
            b.iter(|| compile_fresh(&elab, &lib, &opts).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
