//! The compile cache serves exactly what a fresh compile gives.
//!
//! Each design is compiled through a private [`CompileCache`] until it is
//! served from the store (the doorkeeper admits a result on its second
//! miss, so the third compile is a hit), under a module name the store has
//! never seen, and compared with an uncached [`compile_netlist`] under that
//! name: the same netlist (gate slots, net numbering, names, ports, cached
//! constants), the same area and critical delay bit for bit, the same
//! critical net, and the same pass records.

use synthir_bench::fig6::paper_grid;
use synthir_core::format_conv::from_kiss2;
use synthir_core::random::random_fsm;
use synthir_core::FsmSpec;
use synthir_netlist::{GateKind, Library, NetId, Netlist, ResetKind};
use synthir_rtl::elaborate::Elaborated;
use synthir_rtl::{elaborate, Module};
use synthir_synth::{compile_netlist, CompileCache, CompileResult, SynthOptions};

fn fresh(elab: &Elaborated, lib: &Library, opts: &SynthOptions) -> CompileResult {
    compile_netlist(
        elab.netlist.clone(),
        elab.fsm.as_ref(),
        &elab.annotations,
        lib,
        opts,
    )
    .expect("design compiles")
}

/// Whether the last pass record says the cache served the result.
fn was_hit(r: &CompileResult) -> bool {
    let last = r.stats.last().expect("a compile_cache record");
    assert_eq!(last.name, "compile_cache");
    last.rewrites == 1
}

fn assert_same(label: &str, hit: &CompileResult, fresh: &CompileResult) {
    assert!(hit.netlist == fresh.netlist, "{label}: netlists differ");
    assert_eq!(hit.netlist.name(), fresh.netlist.name(), "{label}");
    let bits = |r: &CompileResult| {
        (
            r.area.combinational.to_bits(),
            r.area.sequential.to_bits(),
            r.timing.critical_delay.to_bits(),
            r.timing.critical_net,
        )
    };
    assert_eq!(bits(hit), bits(fresh), "{label}: area or timing");
    let passes = |stats: &[synthir_synth::PassStat]| -> Vec<(&str, usize, usize, usize)> {
        stats
            .iter()
            .map(|s| (s.name, s.rewrites, s.gates_before, s.gates_after))
            .collect()
    };
    let (cache_stat, hit_passes) = hit.stats.split_last().expect("stats");
    assert_eq!(cache_stat.name, "compile_cache", "{label}");
    assert_eq!(passes(hit_passes), passes(&fresh.stats), "{label}: passes");
    assert!(
        hit_passes.iter().all(|s| s.elapsed.is_zero()),
        "{label}: a hit's pass times are zero"
    );
}

/// Compiles `elab` through `cache` until it is served from the store, then
/// checks the hit against a fresh compile under a new module name.
fn check_hit(cache: &CompileCache, label: &str, mut elab: Elaborated, opts: &SynthOptions) {
    let lib = Library::vt90();
    let first = cache.compile(&elab, &lib, opts).expect("compiles");
    assert!(!was_hit(&first), "{label}: first sighting");
    let second = cache.compile(&elab, &lib, opts).expect("compiles");
    assert!(!was_hit(&second), "{label}: second sighting is admitted");
    elab.netlist
        .set_name(format!("{}_renamed", elab.netlist.name()));
    let hit = cache.compile(&elab, &lib, opts).expect("compiles");
    assert!(was_hit(&hit), "{label}: third sighting hits");
    hit.netlist.validate().expect("a hit is a valid netlist");
    assert_same(label, &hit, &fresh(&elab, &lib, opts));
    // The misses returned the flow's own result too.
    let (_, miss_passes) = second.stats.split_last().unwrap();
    assert_eq!(miss_passes.len(), hit.stats.len() - 1, "{label}");
}

fn elab(m: &Module) -> Elaborated {
    elaborate(m).expect("design elaborates")
}

fn shipped(name: &str) -> FsmSpec {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks");
    let text = std::fs::read_to_string(format!("{dir}/{name}.kiss2")).expect("shipped benchmark");
    from_kiss2(name, &text).expect("shipped benchmark parses")
}

/// The three Fig. 6 lowerings of a spec.
fn fig6_styles(spec: &FsmSpec) -> [(&'static str, Module); 3] {
    [
        ("table", spec.to_table_module(false)),
        ("annotated", spec.to_table_module(true)),
        ("case", spec.to_case_module()),
    ]
}

#[test]
fn shipped_controllers_hit_exactly_in_all_four_styles() {
    let cache = CompileCache::default();
    let opts = SynthOptions::default();
    for name in ["traffic_light", "seq_detect", "elevator", "dma_ctrl"] {
        let spec = shipped(name);
        let [a, b, c] = fig6_styles(&spec);
        for (style, module) in [a, b, c, ("programmable", spec.to_programmable_module())] {
            check_hit(&cache, &format!("{name} {style}"), elab(&module), &opts);
        }
    }
}

#[test]
fn fig6_shapes_hit_exactly() {
    let cache = CompileCache::default();
    let opts = SynthOptions::default();
    for (m, n, s) in [(2, 2, 2), (2, 8, 3), (8, 2, 2), (8, 2, 3)] {
        let spec = random_fsm(m, n, s, 3);
        for (style, module) in fig6_styles(&spec) {
            let label = format!("m={m} n={n} s={s} {style}");
            check_hit(&cache, &label, elab(&module), &opts);
        }
    }
}

/// The whole Fig. 6 grid (m ∈ {2, 8}, n ∈ {2, 8, 16}, s ∈ {2, 3, 8, 16,
/// 17}) in all three styles.
#[test]
#[ignore = "release-only: the m = 8, s ≥ 16 points compile for seconds"]
fn full_fig6_grid_hits_exactly() {
    let cache = CompileCache::default();
    let opts = SynthOptions::default();
    for (m, n, s) in paper_grid() {
        let spec = random_fsm(m, n, s, 1);
        for (style, module) in fig6_styles(&spec) {
            let label = format!("m={m} n={n} s={s} {style}");
            check_hit(&cache, &label, elab(&module), &opts);
        }
    }
}

#[test]
fn programmable_lowerings_and_options_hit_exactly() {
    let cache = CompileCache::default();
    for (m, n, s) in [(1, 2, 3), (2, 3, 5)] {
        let module = random_fsm(m, n, s, 9).to_programmable_module();
        let label = format!("programmable m={m} n={n} s={s}");
        check_hit(&cache, &label, elab(&module), &SynthOptions::default());
    }
    // Options that change the flow are part of the key and hit exactly too.
    let spec = shipped("traffic_light");
    for opts in [
        SynthOptions::default().with_retime(),
        SynthOptions::default().with_sat_sweep(),
        SynthOptions::default().with_fsm_encoding(synthir_synth::FsmEncoding::OneHot),
    ] {
        let label = format!("traffic_light annotated {opts:?}");
        check_hit(&cache, &label, elab(&spec.to_table_module(true)), &opts);
    }
}

/// A random netlist of mixed kinds: a few flops feeding back, a removed
/// gate, a named internal net and both constants.
fn random_netlist(seed: u64) -> Netlist {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut nl = Netlist::new(format!("rand{seed}"));
    let mut pool: Vec<NetId> = nl.add_input("x", 4 + (next() % 4) as usize);
    let rst = nl.add_input("rst", 1)[0];
    let flops: Vec<NetId> = (0..2).map(|_| nl.add_net()).collect();
    pool.extend(&flops);
    pool.push(nl.const0());
    pool.push(nl.const1());
    let kinds = GateKind::all_combinational();
    for i in 0..20 + next() % 30 {
        let kind = kinds[2 + (next() % (kinds.len() as u64 - 2)) as usize];
        let ins: Vec<NetId> = (0..kind.arity())
            .map(|_| pool[(next() % pool.len() as u64) as usize])
            .collect();
        if i == 7 {
            let named = nl.add_named_net("mid");
            nl.attach_gate(kind, &ins, named).unwrap();
            pool.push(named);
        } else {
            pool.push(nl.add_gate(kind, &ins));
        }
    }
    let dead = nl.add_gate(GateKind::Inv, &[pool[0]]);
    nl.remove_gate(nl.driver(dead).unwrap());
    for (i, &q) in flops.iter().enumerate() {
        let d = pool[pool.len() - 1 - i];
        let kind = GateKind::Dff {
            reset: if i == 0 {
                ResetKind::Sync
            } else {
                ResetKind::None
            },
            init: i == 0,
        };
        let ins: &[NetId] = if i == 0 { &[d, rst] } else { &[d] };
        nl.attach_gate(kind, ins, q).unwrap();
    }
    nl.add_output("y", &pool[pool.len() - 3..]);
    nl.add_output("q", &flops);
    nl
}

#[test]
fn random_netlists_hit_exactly() {
    let cache = CompileCache::default();
    for seed in 0..12 {
        let elab = Elaborated {
            netlist: random_netlist(seed),
            signals: Default::default(),
            fsm: None,
            annotations: Vec::new(),
        };
        check_hit(
            &cache,
            &format!("random netlist {seed}"),
            elab,
            &SynthOptions::default(),
        );
    }
}

/// Four threads compile the same eight designs in different orders through
/// one shared cache; every result equals the serial uncached compile.
#[test]
fn concurrent_compiles_agree_with_serial_ones() {
    let lib = Library::vt90();
    let opts = SynthOptions::default();
    let designs: Vec<Elaborated> = (0..8)
        .map(|seed| {
            let spec = random_fsm(2, 3, 3 + seed as usize % 3, seed);
            elab(&if seed % 2 == 0 {
                spec.to_table_module(true)
            } else {
                spec.to_programmable_module()
            })
        })
        .collect();
    let serial: Vec<CompileResult> = designs.iter().map(|e| fresh(e, &lib, &opts)).collect();
    let cache = CompileCache::default();
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for t in 0..4 {
            let (cache, designs, serial, lib, opts) = (&cache, &designs, &serial, &lib, &opts);
            let start = &start;
            scope.spawn(move || {
                // All four begin together, so their first sightings race.
                start.wait();
                for round in 0..3 {
                    for k in 0..designs.len() {
                        let i = (k * (2 * t + 1) + round) % designs.len();
                        let r = cache.compile(&designs[i], lib, opts).unwrap();
                        let label = format!("thread {t} round {round} design {i}");
                        let (_, passes) = r.stats.split_last().unwrap();
                        let hit = CompileResult {
                            stats: passes
                                .iter()
                                .map(|s| synthir_synth::PassStat {
                                    elapsed: Default::default(),
                                    ..s.clone()
                                })
                                .chain(r.stats.last().cloned())
                                .collect(),
                            ..r
                        };
                        assert_same(&label, &hit, &serial[i]);
                    }
                }
            });
        }
    });
    // Every design was compiled at least three times, so all are stored.
    for (i, e) in designs.iter().enumerate() {
        let r = cache.compile(e, &lib, &opts).unwrap();
        assert!(was_hit(&r), "design {i} is stored");
    }
}
