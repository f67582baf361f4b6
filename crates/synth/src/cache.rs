//! The content-addressed compile cache behind [`crate::flow::compile`].
//!
//! A chip generator compiles the same hardware again and again: a
//! programmable controller's tables depend only on its interface widths,
//! so every program it serves elaborates to the same netlist. The cache
//! serves such repeats without running the flow.
//!
//! * **Key.** The SHA-256 digest ([`crate::sha256`]) of a word encoding of
//!   everything [`compile_netlist`] reads: the netlist
//!   ([`Netlist::encode_words`]: gates with their kinds, inputs, outputs
//!   and removed-gate holes, net count, net names, ports, cached constant
//!   nets), the FSM metadata, every value-set annotation, every
//!   [`SynthOptions`] field and a fingerprint of every [`Library`] field
//!   ([`Library::encode_words`]). Every field is length-prefixed, so two
//!   different inputs never share an encoding, and a result is served only
//!   on an exact digest match. The module name is left out (a hit is
//!   returned under the caller's name), and so is the thread count: the
//!   flow's results do not depend on it. The words are hashed as 16-bit
//!   units ([`UnitHasher`](crate::sha256::UnitHasher)), and the netlist
//!   comes first, so the key continues from the hash state the netlist
//!   carries ([`Netlist::key_state`]): a netlist served by the elaboration
//!   memo, or compiled before, is not encoded or hashed again, and only the
//!   FSM, annotations, options and library are.
//! * **Store.** A [`Store`] (in `synthir-netlist`, shared with the
//!   elaboration memo of `synthir_rtl::elaborate`): a doorkeeper admits a
//!   result on its second miss among the last [`DOORKEEPER_LEN`], so a
//!   stream of one-off designs stores nothing; results are kept compactly —
//!   the netlist as its word encoding, plus area, timing and pass
//!   statistics — and evicted least recently used first once their encoded
//!   size would exceed the byte budget of [`BUDGET`] bytes. Its one mutex is
//!   held for a lookup or an insert, never across a compile or a decode.
//!   Errors are never cached.
//!
//! Every compile through a cache ends its `stats` with a `compile_cache`
//! [`PassStat`]: the time the cache itself took (key, lookup, and the
//! decode on a hit or the insert on a miss), with `rewrites` 1 on a hit
//! and 0 on a miss. A hit's other stats are the original compile's, with
//! `elapsed` zero.

use crate::flow::{compile_netlist, CompileResult, PassStat};
use crate::options::{FsmEncoding, SynthOptions};
use crate::sha256::Digest;
use crate::timing::TimingReport;
use crate::SynthError;
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use synthir_logic::ValueSet;
use synthir_netlist::store::{Lookup, Store};
use synthir_netlist::{AreaReport, Library, NetId, Netlist};
use synthir_rtl::elaborate::{Elaborated, FsmNets, NetGroupValues};

pub use synthir_netlist::store::{BUDGET, DOORKEEPER_LEN};

/// The cache key of a compile: the SHA-256 digest of the word encoding of
/// its inputs (see the [module docs](self)), hashed as 16-bit units from
/// the netlist's own key state on.
fn compile_key(elab: &Elaborated, lib: &Library, opts: &SynthOptions) -> Digest {
    let mut words = Vec::new();
    key_tail_words(elab, lib, opts, &mut words);
    let mut h = elab.netlist.key_state().clone();
    h.update(&words);
    h.finish()
}

/// Appends the key encoding of a compile's inputs after the netlist's own
/// encoding (whose hash state the netlist carries) to `out`.
fn key_tail_words(elab: &Elaborated, lib: &Library, opts: &SynthOptions, out: &mut Vec<u32>) {
    // Destructured so that a new input cannot be left out silently; the
    // netlist is the key's prefix, and the signal map is the one field the
    // flow never reads.
    let Elaborated {
        netlist: _,
        signals: _,
        fsm,
        annotations,
    } = elab;
    match fsm {
        None => out.push(0),
        Some(FsmNets {
            state_nets,
            codes,
            reset_code,
        }) => {
            out.push(1);
            push_nets(out, state_nets);
            out.push(codes.len() as u32);
            for &c in codes {
                push_u128(out, c);
            }
            push_u128(out, *reset_code);
        }
    }
    out.push(annotations.len() as u32);
    for NetGroupValues { nets, values } in annotations {
        push_nets(out, nets);
        match values {
            ValueSet::All { width } => out.extend([0, *width]),
            ValueSet::Values { width, values } => {
                out.extend([1, *width, values.len() as u32]);
                for &v in values {
                    push_u128(out, v);
                }
            }
        }
    }
    let SynthOptions {
        retime,
        fsm_encoding,
        sat_sweep,
        verify_each_pass,
    } = opts;
    let encoding = match fsm_encoding {
        FsmEncoding::Binary => 0,
        FsmEncoding::OneHot => 1,
        FsmEncoding::Gray => 2,
        FsmEncoding::Keep => 3,
    };
    out.extend([
        u32::from(*retime),
        encoding,
        u32::from(*sat_sweep),
        u32::from(*verify_each_pass),
    ]);
    lib.encode_words(out);
}

fn push_nets(out: &mut Vec<u32>, nets: &[NetId]) {
    out.push(nets.len() as u32);
    out.extend(nets.iter().map(|n| n.0));
}

fn push_u128(out: &mut Vec<u32>, v: u128) {
    out.extend((0..4).map(|i| (v >> (32 * i)) as u32));
}

/// One stored result, kept compactly.
struct Entry {
    /// [`Netlist::encode_words`] of the compiled netlist.
    netlist: Box<[u32]>,
    area: AreaReport,
    critical_delay: f64,
    critical_net: Option<NetId>,
    /// The flow's pass statistics, `elapsed` zeroed.
    stats: Box<[PassStat]>,
}

impl Entry {
    fn new(r: &CompileResult) -> Entry {
        let mut netlist = Vec::new();
        r.netlist.encode_words(&mut netlist);
        Entry {
            netlist: netlist.into_boxed_slice(),
            area: r.area,
            critical_delay: r.timing.critical_delay,
            critical_net: r.timing.critical_net,
            stats: r
                .stats
                .iter()
                .map(|s| PassStat {
                    elapsed: Duration::ZERO,
                    ..s.clone()
                })
                .collect(),
        }
    }

    /// The bytes this entry counts against the budget.
    fn bytes(&self) -> usize {
        std::mem::size_of::<Entry>()
            + std::mem::size_of_val(&*self.netlist)
            + std::mem::size_of_val(&*self.stats)
    }

    /// The stored result, under the module name `name`.
    fn result(&self, name: &str) -> CompileResult {
        CompileResult {
            netlist: Netlist::decode_words(name, &self.netlist)
                .expect("a cache entry holds its netlist's own encoding"),
            area: self.area,
            timing: TimingReport {
                critical_delay: self.critical_delay,
                critical_net: self.critical_net,
            },
            stats: self.stats.to_vec(),
        }
    }
}

/// A content-addressed, byte-budgeted store of compile results (see the
/// [module docs](self)). [`crate::flow::compile`] uses the process-wide
/// [`CompileCache::global`]; a long-running service can own its own.
pub struct CompileCache {
    store: Store<Entry>,
}

impl Default for CompileCache {
    /// An empty cache with the [`BUDGET`].
    fn default() -> Self {
        CompileCache {
            store: Store::new(BUDGET),
        }
    }
}

impl CompileCache {
    /// The process-wide cache [`crate::flow::compile`] uses, created on
    /// first use.
    pub fn global() -> &'static CompileCache {
        static GLOBAL: OnceLock<CompileCache> = OnceLock::new();
        GLOBAL.get_or_init(CompileCache::default)
    }

    /// Compiles through the cache: key, lookup, and on a miss
    /// [`compile_netlist`] on a copy of the elaborated netlist. A hit is
    /// the stored result under `elab`'s module name.
    ///
    /// # Errors
    ///
    /// Whatever [`compile_netlist`] returns; errors are never cached.
    pub fn compile(
        &self,
        elab: &Elaborated,
        lib: &Library,
        opts: &SynthOptions,
    ) -> Result<CompileResult, SynthError> {
        let t0 = Instant::now();
        let digest = compile_key(elab, lib, opts);
        let (mut r, hit, spent) = match self.store.lookup(&digest) {
            Lookup::Hit(entry) => (entry.result(elab.netlist.name()), true, t0.elapsed()),
            Lookup::Miss { admit } => {
                let spent = t0.elapsed();
                let r = compile_netlist(
                    elab.netlist.clone(),
                    elab.fsm.as_ref(),
                    &elab.annotations,
                    lib,
                    opts,
                )?;
                let t1 = Instant::now();
                if admit {
                    let entry = Entry::new(&r);
                    let bytes = entry.bytes();
                    self.store.insert(digest, entry, bytes);
                }
                (r, false, spent + t1.elapsed())
            }
        };
        let gates = r.netlist.num_gates();
        r.stats.push(PassStat {
            name: "compile_cache",
            rewrites: usize::from(hit),
            gates_before: gates,
            gates_after: gates,
            elapsed: spent,
        });
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthir_netlist::{GateId, GateKind, ResetKind};

    impl CompileCache {
        fn with_budget(budget: usize) -> Self {
            CompileCache {
                store: Store::new(budget),
            }
        }

        fn contains(&self, digest: &Digest) -> bool {
            self.store.contains(digest)
        }

        fn len(&self) -> usize {
            self.store.len()
        }

        fn stored_bytes(&self) -> usize {
            self.store.bytes()
        }

        /// Compiles `elab` twice, so the second miss stores the result.
        fn admit(&self, elab: &Elaborated) {
            for _ in 0..2 {
                let r = self.compile(elab, &Library::vt90(), &SynthOptions::default());
                assert!(!was_hit(&r.unwrap()));
            }
        }
    }

    fn was_hit(r: &CompileResult) -> bool {
        let last = r.stats.last().expect("a compile_cache record");
        assert_eq!(last.name, "compile_cache");
        last.rewrites == 1
    }

    /// A small design carrying every kind of key input: a two-bit state
    /// register with FSM metadata, an annotated group, a named internal net
    /// and a removed gate.
    fn design(port: &str, internal: &str) -> Elaborated {
        let mut nl = Netlist::new("m");
        let x = nl.add_input(port, 2);
        let rst = nl.add_input("rst", 1)[0];
        let q: Vec<NetId> = (0..2).map(|_| nl.add_net()).collect();
        let a = nl.add_gate(GateKind::And2, &[x[0], q[0]]);
        let w = nl.add_named_net(internal);
        nl.attach_gate(GateKind::Or2, &[x[1], q[1]], w).unwrap();
        let dead = nl.add_gate(GateKind::Inv, &[a]);
        nl.remove_gate(nl.driver(dead).unwrap());
        let flop = GateKind::Dff {
            reset: ResetKind::Sync,
            init: false,
        };
        nl.attach_gate(flop, &[a, rst], q[0]).unwrap();
        nl.attach_gate(flop, &[w, rst], q[1]).unwrap();
        nl.add_output("y", &[a, w]);
        Elaborated {
            netlist: nl,
            signals: Default::default(),
            fsm: Some(FsmNets {
                state_nets: q.clone(),
                codes: vec![0, 1, 2],
                reset_code: 0,
            }),
            annotations: vec![NetGroupValues {
                nets: q,
                values: ValueSet::from_values(2, [0, 1, 2]),
            }],
        }
    }

    #[test]
    fn every_single_input_change_alters_the_digest() {
        let lib = Library::vt90();
        let opts = SynthOptions::default();
        let base = design("x", "w");
        let key = |e: &Elaborated, l: &Library, o: &SynthOptions| compile_key(e, l, o);
        let base_key = key(&base, &lib, &opts);

        let mut variants: Vec<(&str, Elaborated, Library, SynthOptions)> = Vec::new();
        let mut push = |label, e: Elaborated| variants.push((label, e, lib.clone(), opts.clone()));
        let gate = |e: &Elaborated, kind: GateKind| {
            e.netlist
                .gates()
                .find(|(_, g)| g.kind == kind)
                .map(|(id, g)| (id, *g))
                .unwrap()
        };
        let mut e = base.clone();
        let (id, g) = gate(&e, GateKind::And2);
        e.netlist
            .rewrite_gate(id, g.kind, &[g.inputs()[1], g.inputs()[1]]);
        push("one gate input", e);
        let mut e = base.clone();
        e.netlist.rewrite_gate(id, GateKind::Nand2, g.inputs());
        push("one gate kind", e);
        push("a port name", design("z", "w"));
        push("an internal net name", design("x", "v"));
        let mut e = base.clone();
        let (flop, g) = gate(
            &e,
            GateKind::Dff {
                reset: ResetKind::Sync,
                init: false,
            },
        );
        let kind = GateKind::Dff {
            reset: ResetKind::Sync,
            init: true,
        };
        e.netlist.rewrite_gate(flop, kind, g.inputs());
        push("a flop's init value", e);
        let mut e = base.clone();
        e.netlist.remove_gate(flop);
        push("a removed gate", e);
        let mut e = base.clone();
        e.fsm.as_mut().unwrap().codes[2] = 3;
        push("an FSM code", e);
        let mut e = base.clone();
        e.fsm.as_mut().unwrap().reset_code = 1;
        push("the reset code", e);
        let mut e = base.clone();
        e.fsm = None;
        push("no FSM metadata", e);
        let mut e = base.clone();
        e.annotations[0].values = ValueSet::from_values(2, [0, 1, 3]);
        push("an annotation value", e);
        let mut e = base.clone();
        e.annotations[0].values = ValueSet::all(2);
        push("an unconstrained annotation", e);
        let mut e = base.clone();
        e.annotations.clear();
        push("no annotations", e);
        for o in [
            opts.clone().with_retime(),
            opts.clone().with_sat_sweep(),
            opts.clone().with_verify_each_pass(),
            opts.clone().with_fsm_encoding(FsmEncoding::OneHot),
            opts.clone().with_fsm_encoding(FsmEncoding::Gray),
            opts.clone().with_fsm_encoding(FsmEncoding::Keep),
        ] {
            variants.push(("a SynthOptions field", base.clone(), lib.clone(), o));
        }
        // Every library field, cell areas included, enters the fingerprint
        // (`library::tests::fingerprint_sees_every_field`); the public
        // fields show that the fingerprint enters the key.
        let mut l = lib.clone();
        l.fanout_delay += 0.001;
        variants.push(("the library fanout delay", base.clone(), l, opts.clone()));
        let mut l = lib.clone();
        l.setup_time += 0.01;
        variants.push(("the library setup time", base.clone(), l, opts.clone()));

        let mut keys = vec![base_key];
        for (label, e, l, o) in &variants {
            let k = key(e, l, o);
            assert!(!keys.contains(&k), "{label}: digest collides");
            keys.push(k);
        }
    }

    #[test]
    fn module_name_and_signal_map_do_not_enter_the_key() {
        let lib = Library::vt90();
        let opts = SynthOptions::default();
        let base = design("x", "w");
        let mut e = base.clone();
        e.netlist.set_name("another_module");
        e.signals.insert("x".into(), vec![NetId(0)]);
        assert_eq!(
            compile_key(&e, &lib, &opts),
            compile_key(&base, &lib, &opts)
        );
        assert!(
            !e.netlist.is_live(GateId(2)),
            "the removed inverter is a hole"
        );
    }

    #[test]
    fn one_off_designs_store_nothing() {
        let cache = CompileCache::default();
        let lib = Library::vt90();
        for i in 0..24 {
            let r = cache.compile(
                &design(&format!("x{i}"), "w"),
                &lib,
                &SynthOptions::default(),
            );
            assert!(!was_hit(&r.unwrap()));
        }
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stored_bytes(), 0);
    }

    #[test]
    fn the_budget_holds_and_eviction_is_least_recently_used_first() {
        let lib = Library::vt90();
        let opts = SynthOptions::default();
        // Five designs that differ only in an equally long port name, so
        // their results take equal room.
        let designs: Vec<Elaborated> = (0..5).map(|i| design(&format!("x{i}"), "w")).collect();
        let keys: Vec<Digest> = designs
            .iter()
            .map(|e| compile_key(e, &lib, &opts))
            .collect();
        let roomy = CompileCache::with_budget(usize::MAX);
        roomy.admit(&designs[0]);
        let size = roomy.stored_bytes();
        assert!(size > 0);

        // Room for exactly three.
        let cache = CompileCache::with_budget(3 * size);
        for e in &designs[..3] {
            cache.admit(e);
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stored_bytes(), 3 * size);
        // Touch 0: 1 is now the least recently used, then 2.
        assert!(was_hit(&cache.compile(&designs[0], &lib, &opts).unwrap()));
        cache.admit(&designs[3]);
        let stored = |cache: &CompileCache| -> Vec<usize> {
            (0..keys.len())
                .filter(|&i| cache.contains(&keys[i]))
                .collect()
        };
        assert_eq!(stored(&cache), [0, 2, 3]);
        cache.admit(&designs[4]);
        assert_eq!(stored(&cache), [0, 3, 4]);
        assert_eq!(cache.stored_bytes(), 3 * size);

        // A result larger than the whole budget is never stored.
        let tiny = CompileCache::with_budget(size - 1);
        tiny.admit(&designs[0]);
        assert_eq!(tiny.len(), 0);
    }
}

#[cfg(test)]
mod key_pin;

#[cfg(test)]
mod memo_diff;
