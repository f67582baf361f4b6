//! End-to-end benchmark of the synthir toolchain.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fsm_compile|flex_map|signoff --seed N --seconds S --trace 0|1
//! ```
//!
//! Each invocation runs one workload in its own process as a closed loop of
//! `min(2, nproc)` client threads for `S` seconds, checks every job's
//! output against an independent reference, and prints a report whose last
//! line is one JSON object. With `--trace 0` it carries the end-to-end
//! metrics; with `--trace 1` the per-layer metrics of a traced loop, run
//! after an untraced reference loop over the same jobs (each half of `S`)
//! so the tracing overhead shows. `--qor-digest` instead compiles the
//! workload's QoR set serially and prints one exact line per design (used
//! by the determinism test). `--setup-only` performs the set-up, prints
//! `ready`, and exits: the benchmark re-executes itself with it to time
//! set-up as a fresh process pays it.

mod gen;
mod job;
mod trace;
mod workload;

use job::{Counters, Qor};
use std::collections::{BTreeMap, HashMap};
use std::io::BufRead;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use synthir_netlist::Library;
use trace::{Span, SpanTotals, Tracer};
use workload::{Design, Workload};

/// Fresh-process set-up samples per run, due at evenly spaced times of the
/// timed loop; `setup_s` is their median.
const SETUP_SAMPLES: usize = 15;
/// Uncounted set-up samples before the timed loop (the first fresh
/// processes also pay for paging the binary in).
const WARMUP_SETUPS: usize = 2;
/// Uncounted warm-up jobs before the timed loop.
const WARMUP_JOBS: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    qor_digest: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        qor_digest: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => a.trace = value()? == "1",
            "--qor-digest" => a.qor_digest = true,
            "--setup-only" => a.setup_only = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if workload::workload(&a.workload).is_none() {
        return Err(format!(
            "--workload must be one of {}",
            workload::NAMES.join(", ")
        ));
    }
    Ok(a)
}

/// What one closed loop measured.
#[derive(Default)]
struct LoopStats {
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    latencies_ms: Vec<f64>,
    /// Per client: completed jobs and seconds spent inside jobs.
    busy: Vec<(usize, f64)>,
    setups: Vec<SetupSample>,
    wall_s: f64,
    designs: usize,
    spans: Vec<Vec<Span>>,
    counters: Counters,
}

impl LoopStats {
    /// Completed jobs per second of time spent inside jobs, summed over
    /// clients: input generation, the oracle, the AIG probe and set-up
    /// samples run between jobs and are not part of the program's
    /// throughput.
    fn jobs_per_s(&self) -> f64 {
        self.busy
            .iter()
            .filter(|(_, s)| *s > 0.0)
            .map(|(n, s)| *n as f64 / s)
            .sum()
    }

    /// The share of the clients' wall time spent outside jobs.
    fn outside_share(&self) -> f64 {
        let busy: f64 = self.busy.iter().map(|(_, s)| s).sum();
        1.0 - busy / (self.wall_s * self.busy.len().max(1) as f64)
    }
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn clients() -> usize {
    nproc().min(2)
}

/// Gives each client's jobs an equal share of the cores for the program's
/// own data-parallel kernel (`SYNTHIR_THREADS`), unless the caller set it.
/// The closed loop already keeps one job per client running; at the
/// kernel's default of `nproc` threads per job, every job spawns threads
/// into cores the other clients keep busy, and on a two-core machine that
/// oversubscription made `fsm_compile`'s median job latency about 50%
/// higher and its run-to-run spread wider than the metric's bound. Must run
/// before any thread starts. Returns the kernel thread count per job.
fn share_cores() -> usize {
    match std::env::var("SYNTHIR_THREADS") {
        Ok(v) => v.parse::<usize>().map_or(nproc(), |n| n.max(1)),
        Err(_) => {
            let threads = (nproc() / clients()).max(1);
            std::env::set_var("SYNTHIR_THREADS", threads.to_string());
            threads
        }
    }
}

/// The first QoR seen for each design, and how many resubmissions of a
/// design compiled to a different QoR.
#[derive(Default)]
struct QorBook {
    first: HashMap<usize, Qor>,
    mismatches: usize,
}

/// Records the first QoR of each design and counts resubmissions whose
/// QoR differs. The flow's QoR is not yet deterministic for every design,
/// so a mismatch is reported beside the metrics, not as a failed job.
fn note_qor(book: &Mutex<QorBook>, d: usize, q: Qor) {
    let mut book = book.lock().expect("QoR book lock poisoned");
    match book.first.get(&d) {
        Some(first) if *first != q => book.mismatches += 1,
        Some(_) => {}
        None => {
            book.first.insert(d, q);
        }
    }
}

/// Runs one job, then (outside its latency) the AIG probe when tracing and
/// the oracle. Returns the job's latency and whether it passed.
#[allow(clippy::too_many_arguments)]
fn run_checked(
    w: &Workload,
    design: &Design,
    lib: &Library,
    tr: &mut Tracer,
    counters: &mut Counters,
    job: usize,
    check_seed: u64,
    qor: Option<(&Mutex<QorBook>, usize)>,
) -> (Duration, Result<(), String>) {
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| {
        job::run(w, design, lib, tr, job, counters)
    }));
    let latency = t0.elapsed();
    let out = match out {
        Ok(Ok(out)) => out,
        Ok(Err(e)) => return (latency, Err(format!("{}: {e}", design.name))),
        Err(_) => return (latency, Err(format!("{}: panicked", design.name))),
    };
    if tr.on() {
        job::aig_probe(w, &out, tr, job, counters);
    }
    let checked = tr
        .time("check", None, job, || job::check(design, &out, check_seed))
        .map_err(|e| format!("{}: {e}", design.name));
    if let (Ok(()), Some((book, d)), Some(q)) = (&checked, qor, out.qor()) {
        note_qor(book, d, q);
    }
    (latency, checked)
}

/// The closed loop: each client issues its next job as soon as the
/// previous one (and its check) is done, until the deadline. With
/// `setups > 0`, that many fresh-process set-up samples are taken between
/// jobs at evenly spaced times (any the loop did not reach, after it).
fn closed_loop(
    w: &Workload,
    lib: &Library,
    seed: u64,
    run: Duration,
    traced: bool,
    setups: usize,
    seen: &Mutex<QorBook>,
) -> LoopStats {
    let next = AtomicUsize::new(0);
    let next_setup = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + run;
    let setup_due = |k: usize| run.mul_f64((k as f64 + 0.5) / setups as f64);
    let per_client: Vec<(LoopStats, Vec<usize>, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients())
            .map(|_| {
                s.spawn(|| {
                    let mut st = LoopStats::default();
                    let mut designs = Vec::new();
                    let mut tr = Tracer::new(traced, start);
                    let (mut completed, mut busy) = (0, Duration::ZERO);
                    while Instant::now() < deadline {
                        let k = next_setup.load(Ordering::Relaxed);
                        if k < setups
                            && start.elapsed() >= setup_due(k)
                            && next_setup
                                .compare_exchange(k, k + 1, Ordering::Relaxed, Ordering::Relaxed)
                                .is_ok()
                        {
                            take_setup_sample(w, &mut st);
                        }
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        let d = w.design_of_job(seed, j);
                        let design = w.design(seed, d);
                        designs.push(d);
                        st.attempted += 1;
                        let check_seed = gen::mix(seed, j as u64 ^ 0xC4EC);
                        let (lat, checked) = run_checked(
                            w,
                            &design,
                            lib,
                            &mut tr,
                            &mut st.counters,
                            j,
                            check_seed,
                            Some((seen, d)),
                        );
                        busy += lat;
                        match checked {
                            Ok(()) => {
                                completed += 1;
                                st.latencies_ms.push(lat.as_secs_f64() * 1e3);
                            }
                            Err(e) => {
                                st.failed += 1;
                                if st.failures.len() < 5 {
                                    st.failures.push(e);
                                }
                            }
                        }
                    }
                    st.busy.push((completed, busy.as_secs_f64()));
                    (st, designs, tr.take())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked outside a job"))
            .collect()
    });
    let mut total = LoopStats {
        wall_s: start.elapsed().as_secs_f64(),
        ..LoopStats::default()
    };
    let mut all_designs = Vec::new();
    for (st, designs, spans) in per_client {
        total.attempted += st.attempted;
        total.failed += st.failed;
        total.failures.extend(st.failures);
        total.latencies_ms.extend(st.latencies_ms);
        total.busy.extend(st.busy);
        total.setups.extend(st.setups);
        for (k, v) in st.counters {
            *total.counters.entry(k).or_default() += v;
        }
        all_designs.extend(designs);
        total.spans.push(spans);
    }
    for _ in next_setup.into_inner().min(setups)..setups {
        take_setup_sample(w, &mut total);
    }
    all_designs.sort_unstable();
    all_designs.dedup();
    total.designs = all_designs.len();
    total.latencies_ms.sort_by(f64::total_cmp);
    total
}

/// Compiles any QoR-set design the timed loop did not reach (untimed).
fn complete_qor(
    w: &Workload,
    lib: &Library,
    seed: u64,
    seen: &Mutex<QorBook>,
) -> Result<(), String> {
    for d in 0..w.qor_set() {
        if seen
            .lock()
            .expect("QoR book lock poisoned")
            .first
            .contains_key(&d)
        {
            continue;
        }
        let design = w.design(seed, d);
        let mut tr = Tracer::new(false, Instant::now());
        run_checked(
            w,
            &design,
            lib,
            &mut tr,
            &mut Counters::new(),
            d,
            gen::mix(seed, d as u64),
            Some((seen, d)),
        )
        .1?;
    }
    Ok(())
}

/// `area_um2` (sum) and `critical_ns` (geometric mean) over the QoR set.
fn qor_summary(w: &Workload, seen: &Mutex<QorBook>) -> (f64, f64, usize) {
    let seen = seen.lock().expect("QoR book lock poisoned");
    let qs: Vec<&Qor> = (0..w.qor_set())
        .filter_map(|d| seen.first.get(&d))
        .collect();
    let area: f64 = qs.iter().map(|q| q.area).sum();
    let logs: Vec<f64> = qs
        .iter()
        .filter(|q| q.critical > 0.0)
        .map(|q| q.critical.ln())
        .collect();
    let crit = (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp();
    (area, crit, qs.len())
}

/// What a process pays before its first job can be issued: the cell
/// library plus any program-side initialisation. The benchmark's own
/// process and every `--setup-only` sample go through here.
fn setup() -> Library {
    Library::vt90()
}

/// One set-up sample, seconds.
struct SetupSample {
    /// From spawning a fresh `--setup-only` process until it reports ready.
    total: f64,
    /// The part of it spent in [`setup`], as the child measured it.
    in_process: f64,
}

/// Re-executes this binary with `--setup-only` and times it from spawn
/// until it reports ready; waits for the process to end.
fn setup_sample(w: &Workload) -> Result<SetupSample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .args(["--workload", w.name, "--setup-only"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning the set-up process: {e}"))?;
    let mut line = String::new();
    let read =
        std::io::BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
    let total = t0.elapsed().as_secs_f64();
    let status = child
        .wait()
        .map_err(|e| format!("waiting for set-up: {e}"))?;
    read.map_err(|e| format!("reading set-up output: {e}"))?;
    let in_process = line
        .trim()
        .strip_prefix("ready ")
        .and_then(|ns| ns.parse::<u64>().ok())
        .filter(|_| status.success())
        .ok_or(format!(
            "set-up process ended with {status}, output `{}`",
            line.trim()
        ))?;
    Ok(SetupSample {
        total,
        in_process: in_process as f64 / 1e9,
    })
}

/// Adds one set-up sample to `st`; a sample that fails counts as a failure.
fn take_setup_sample(w: &Workload, st: &mut LoopStats) {
    match setup_sample(w) {
        Ok(t) => st.setups.push(t),
        Err(e) => {
            st.failed += 1;
            st.failures.push(format!("set-up: {e}"));
        }
    }
}

fn warm_up(w: &Workload, lib: &Library, seed: u64) -> Result<(), String> {
    for _ in 0..WARMUP_SETUPS {
        setup_sample(w)?;
    }
    for i in 0..WARMUP_JOBS {
        let design = w.warmup_design(seed, i);
        let mut tr = Tracer::new(false, Instant::now());
        run_checked(
            w,
            &design,
            lib,
            &mut tr,
            &mut Counters::new(),
            i,
            seed,
            None,
        )
        .1?;
    }
    Ok(())
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_failures(st: &LoopStats) {
    for f in &st.failures {
        println!("  FAILED {f}");
    }
}

/// The per-layer metrics of a traced loop, with units (per-job means
/// unless the name says otherwise).
fn layer_metrics(st: &LoopStats, untraced: &LoopStats) -> Metrics {
    let mut t = SpanTotals::default();
    for spans in &st.spans {
        trace::totals(spans, &mut t);
    }
    let jobs = st.attempted.max(1) as f64;
    let ms = |names: &[&str]| -> f64 {
        names
            .iter()
            .map(|n| t.by_name.get(*n).copied().unwrap_or(0) as f64)
            .sum::<f64>()
            / 1e6
            / jobs
    };
    let selfms = |layer: &str| t.self_by_layer.get(layer).copied().unwrap_or(0) as f64 / 1e6 / jobs;
    let c = |k: &str| st.counters.get(k).copied().unwrap_or(0.0);
    let per_job = |k: &str| c(k) / jobs;
    let pass_ms: f64 = t
        .by_name
        .iter()
        .filter(|(n, _)| n.starts_with("synth.") && n.as_str() != "synth.compile")
        .map(|(_, v)| *v as f64)
        .sum::<f64>()
        / 1e6
        / jobs;
    let sweep_calls = c("sat.sweep_calls");
    let useful = if sweep_calls > 0.0 {
        c("sat.sweep_merges") / sweep_calls
    } else {
        0.0
    };
    let cuts_per_node = if c("aig.node_count") > 0.0 {
        c("aig.cut_count") / c("aig.node_count")
    } else {
        0.0
    };
    let (traced, plain) = (st.jobs_per_s(), untraced.jobs_per_s());
    vec![
        ("core.parse_ms", ms(&["core.parse"]), "ms"),
        ("core.lower_ms", ms(&["core.lower"]), "ms"),
        ("rtl.elaborate_ms", ms(&["rtl.elaborate"]), "ms"),
        ("rtl.gates_out", per_job("rtl.gates_out"), "count"),
        ("rtl.flops_out", per_job("rtl.flops_out"), "count"),
        ("synth.aig_opt_ms", ms(&["synth.aig_opt"]), "ms"),
        (
            "synth.fsm_reencode_ms",
            ms(&["synth.fsm_reencode", "synth.fsm_reencode_skipped"]),
            "ms",
        ),
        (
            "synth.state_propagation_ms",
            ms(&["synth.state_propagation"]),
            "ms",
        ),
        ("synth.resynthesize_ms", ms(&["synth.resynthesize"]), "ms"),
        ("synth.techmap_ms", ms(&["synth.techmap"]), "ms"),
        ("synth.cutmap_ms", ms(&["synth.cutmap"]), "ms"),
        ("synth.const_fold_ms", ms(&["synth.const_fold"]), "ms"),
        (
            "synth.strash_ms",
            ms(&["synth.strash", "synth.strash_mapped"]),
            "ms",
        ),
        (
            "synth.aig_opt_rewrites",
            per_job("synth.aig_opt_rewrites"),
            "count",
        ),
        (
            "synth.state_propagation_rewrites",
            per_job("synth.state_propagation_rewrites"),
            "count",
        ),
        (
            "synth.resynthesize_rewrites",
            per_job("synth.resynthesize_rewrites"),
            "count",
        ),
        ("synth.gates_out", per_job("synth.gates_out"), "count"),
        (
            "synth.unattributed_ms",
            (ms(&["synth.compile"]) - pass_ms).max(0.0),
            "ms",
        ),
        ("aig.import_ms", ms(&["aig.import"]), "ms"),
        ("aig.ands_in", per_job("aig.ands_in"), "count"),
        ("aig.optimize_ms", ms(&["aig.optimize"]), "ms"),
        ("aig.ands_out", per_job("aig.ands_out"), "count"),
        ("aig.cuts_ms", ms(&["aig.cuts"]), "ms"),
        ("aig.cuts_per_node", cuts_per_node, "ratio"),
        ("sat.sweep_calls", per_job("sat.sweep_calls"), "count"),
        ("sat.sweep_useful_ratio", useful, "ratio"),
        ("sim.equiv_ms", ms(&["sim.equiv"]), "ms"),
        ("pctrl.module_ms", ms(&["pctrl.module"]), "ms"),
        ("job.self_ms", selfms("job"), "ms"),
        ("core.self_ms", selfms("core"), "ms"),
        ("rtl.self_ms", selfms("rtl"), "ms"),
        ("synth.self_ms", selfms("synth"), "ms"),
        ("aig.self_ms", selfms("aig"), "ms"),
        ("sim.self_ms", selfms("sim"), "ms"),
        ("pctrl.self_ms", selfms("pctrl"), "ms"),
        ("check.self_ms", selfms("check"), "ms"),
        ("trace.untraced_jobs_per_s", plain, "1/s"),
        ("trace.traced_jobs_per_s", traced, "1/s"),
        ("trace.overhead_pct", 100.0 * (plain - traced) / plain, "%"),
    ]
}

fn run(args: &Args) -> Result<(), String> {
    let w = workload::workload(&args.workload).expect("validated in parse_args");
    if args.qor_digest {
        let lib = setup();
        let seen = Mutex::new(QorBook::default());
        complete_qor(&w, &lib, args.seed, &seen)?;
        let digest: BTreeMap<usize, Qor> = seen
            .into_inner()
            .expect("QoR book lock poisoned")
            .first
            .into_iter()
            .collect();
        for (d, q) in &digest {
            println!(
                "{d} {} area={:016x} critical={:016x} gates={}",
                w.design(args.seed, *d).name,
                q.area.to_bits(),
                q.critical.to_bits(),
                q.gates
            );
        }
        return Ok(());
    }

    let threads = share_cores();
    let lib = setup();
    warm_up(&w, &lib, args.seed)?;
    println!(
        "workload {}  seed {}  clients {} (closed loop)  kernel threads per job {threads}  run {} s  nproc {}",
        w.name,
        args.seed,
        clients(),
        args.seconds,
        nproc()
    );
    println!("  why: {}", w.why);
    let (attempted, failed, correct, metrics) = if args.trace {
        traced_run(&w, &lib, args)?
    } else {
        untraced_run(&w, &lib, args)
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    Ok(())
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn print_designs(st: &LoopStats) {
    println!(
        "  distinct designs {} of {} jobs (share {:.3}); {:.1}% of client time outside jobs (input generation, oracle, probe, set-up samples)",
        st.designs,
        st.attempted,
        st.designs as f64 / st.attempted.max(1) as f64,
        100.0 * st.outside_share()
    );
}

/// The end-to-end run: one untraced loop of `--seconds`, then the QoR set.
fn untraced_run(w: &Workload, lib: &Library, args: &Args) -> (usize, usize, bool, Metrics) {
    let seen = Mutex::new(QorBook::default());
    let run = Duration::from_secs(args.seconds);
    let st = closed_loop(w, lib, args.seed, run, false, SETUP_SAMPLES, &seen);
    let qor_ok = complete_qor(w, lib, args.seed, &seen);
    let (area, critical, qor_designs) = qor_summary(w, &seen);
    let rss = peak_rss_mb();
    let setup_s = median(st.setups.iter().map(|t| t.total).collect());
    let qor_mismatches = seen.lock().expect("QoR book lock poisoned").mismatches;
    print_designs(&st);
    println!(
        "  QoR set {qor_designs} designs; resubmissions with a different QoR: {qor_mismatches}"
    );
    print_failures(&st);
    if let Err(e) = &qor_ok {
        println!("  FAILED QoR-set compile: {e}");
    }
    let lat = &st.latencies_ms;
    let e2e: Metrics = vec![
        ("setup_s", setup_s, "s"),
        ("jobs_per_s", st.jobs_per_s(), "1/s"),
        ("job_p50_ms", percentile(lat, 50.0), "ms"),
        ("job_p95_ms", percentile(lat, 95.0), "ms"),
        ("area_um2", area, "um2"),
        ("critical_ns", critical, "ns"),
        ("peak_rss_mb", rss, "MB"),
    ];
    for (name, v, unit) in &e2e {
        println!("  {name:12} {v:>14.4} {unit}");
    }
    println!(
        "  samples: {} fresh-process set-ups (median in-process part {:.6} s), {} jobs timed, {} failed (fail_frac {:.4})",
        st.setups.len(),
        median(st.setups.iter().map(|t| t.in_process).collect()),
        lat.len(),
        st.failed,
        st.failed as f64 / st.attempted.max(1) as f64
    );
    (
        st.attempted,
        st.failed,
        st.failed == 0 && qor_ok.is_ok(),
        e2e,
    )
}

/// The traced run: an untraced reference loop, then a traced loop over the
/// same job stream, each for half of `--seconds`. Only the traced loop's
/// per-layer metrics and the two throughputs are reported.
fn traced_run(
    w: &Workload,
    lib: &Library,
    args: &Args,
) -> Result<(usize, usize, bool, Metrics), String> {
    let half = Duration::from_secs(args.seconds).mul_f64(0.5);
    let book = Mutex::new(QorBook::default());
    let plain = closed_loop(w, lib, args.seed, half, false, 0, &book);
    let book = Mutex::new(QorBook::default());
    let st = closed_loop(w, lib, args.seed, half, true, 0, &book);
    print_designs(&st);
    print_failures(&plain);
    print_failures(&st);
    let layers = layer_metrics(&st, &plain);
    println!(
        "  per-layer (traced loop, per-job means over {} jobs):",
        st.attempted
    );
    for (name, v, unit) in &layers {
        println!("    {name:34} {v:>14.4} {unit}");
    }
    println!(
        "  tracing overhead: traced {:.3} vs untraced {:.3} jobs/s ({:+.2}%), both over time inside jobs, same job stream",
        st.jobs_per_s(),
        plain.jobs_per_s(),
        100.0 * (st.jobs_per_s() - plain.jobs_per_s()) / plain.jobs_per_s()
    );
    println!(
        "  sat.sweep_useful_ratio base: {} sweep calls",
        st.counters.get("sat.sweep_calls").copied().unwrap_or(0.0)
    );
    println!("  no seam: `logic` cost shows in core.lower_ms, synth.resynthesize_ms and synth.fsm_reencode_ms; `netlist` cost shows in synth.unattributed_ms");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace_{}_seed{}.jsonl", w.name, args.seed));
    trace::write_jsonl(&path, &st.spans).map_err(|e| format!("writing spans: {e}"))?;
    println!("  spans: {}", path.display());
    let (attempted, failed) = (plain.attempted + st.attempted, plain.failed + st.failed);
    Ok((attempted, failed, failed == 0, layers))
}

fn main() {
    let entered = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.setup_only {
        let lib = setup();
        std::hint::black_box(&lib);
        println!("ready {}", entered.elapsed().as_nanos());
        return;
    }
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
