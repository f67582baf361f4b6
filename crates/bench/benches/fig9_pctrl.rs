//! Criterion bench for the Fig. 9 experiment (one flavour per iteration).
use criterion::{criterion_group, criterion_main, Criterion};
use smpctrl::rtl::{pctrl_module, PctrlStyle};
use smpctrl::MemoryConfig;
use synthir_bench::compile_fresh;
use synthir_netlist::Library;
use synthir_rtl::elaborate;
use synthir_synth::SynthOptions;

fn bench(c: &mut Criterion) {
    let lib = Library::vt90();
    let opts = SynthOptions::default();
    let mut g = c.benchmark_group("fig9");
    g.sample_size(10);
    // `smpctrl::synthesize` with `Flavor::Auto`, through the uncached flow.
    g.bench_function("pctrl_uncached_auto", |b| {
        b.iter(|| {
            let m = pctrl_module(&MemoryConfig::uncached(), PctrlStyle::Bound).unwrap();
            compile_fresh(&elaborate(&m).unwrap(), &lib, &opts).unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
