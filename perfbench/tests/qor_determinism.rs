//! QoR determinism: each workload's QoR set must compile to exactly the
//! same area, critical delay and gate count at `SYNTHIR_THREADS=1` and at
//! `nproc` threads, twice each, so `area_um2` / `critical_ns` compare
//! exactly across commits.

use std::process::Command;

fn digest(workload: &str, seed: u64, threads: usize) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--qor-digest",
        ])
        .env("SYNTHIR_THREADS", threads.to_string())
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 digest");
    assert!(!text.is_empty(), "empty QoR digest");
    text
}

fn assert_deterministic(workload: &str) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let runs: Vec<(usize, String)> = [1, 1, nproc, nproc]
        .into_iter()
        .map(|t| (t, digest(workload, 7, t)))
        .collect();
    for (threads, d) in &runs[1..] {
        if *d != runs[0].1 {
            let diff: Vec<String> = runs[0]
                .1
                .lines()
                .zip(d.lines())
                .filter(|(a, b)| a != b)
                .map(|(a, b)| format!("  1 thread:  {a}\n  {threads} threads: {b}"))
                .collect();
            panic!("{workload}: QoR digest differs\n{}", diff.join("\n"));
        }
    }
}

#[test]
fn flex_map_qor_is_deterministic() {
    assert_deterministic("flex_map");
}

// Designs carrying FSM metadata compile to run-dependent QoR: the
// resynthesis pass sums cone areas in hash-set order, so floating-point
// rounding flips some accept/reject decisions between processes.
#[test]
#[ignore = "the synthesis flow's QoR is not yet deterministic for FSM-annotated designs"]
fn fsm_compile_qor_is_deterministic() {
    assert_deterministic("fsm_compile");
}

#[test]
#[ignore = "the synthesis flow's QoR is not yet deterministic for FSM-annotated designs"]
fn signoff_qor_is_deterministic() {
    assert_deterministic("signoff");
}
