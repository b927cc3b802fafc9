//! End-to-end tests of the `bench_gate` checker *binary*: build a baseline
//! directory and a fresh directory of `BENCH_*.json` records, run the real
//! executable, and check its exit code — including the negative case, where a
//! deterministic counter regresses and the gate must fail the build.

use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench_gate_test_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_sat_record(dir: &Path, conflicts: u64, propagations: u64, gates_pass: bool) {
    std::fs::write(
        dir.join("BENCH_sat.json"),
        format!(
            "{{\"scale\": \"Quick\", \"total_conflicts_modern\": {conflicts}, \
             \"total_propagations_modern\": {propagations}, \
             \"gates_pass\": {gates_pass}, \"benchmarks\": []}}"
        ),
    )
    .unwrap();
}

fn write_serve_record(dir: &Path, warm_hit_rate: f64, gates_pass: bool) {
    std::fs::write(
        dir.join("BENCH_serve.json"),
        format!("{{\"scale\": \"Quick\", \"warm_hit_rate\": {warm_hit_rate}, \"gates_pass\": {gates_pass}}}"),
    )
    .unwrap();
}

fn run_gate_binary(baseline: &Path, fresh: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .arg(baseline)
        .arg(fresh)
        .output()
        .expect("bench_gate binary must run")
}

#[test]
fn gate_passes_when_fresh_counters_match_baselines() {
    let baseline = temp_dir("pass_base");
    let fresh = temp_dir("pass_fresh");
    write_sat_record(&baseline, 10_000, 2_000_000, true);
    write_sat_record(&fresh, 10_000, 2_000_000, true);
    write_serve_record(&baseline, 1.0, true);
    write_serve_record(&fresh, 1.0, true);
    let output = run_gate_binary(&baseline, &fresh);
    assert!(
        output.status.success(),
        "expected pass, got: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("BENCH_sat.json"));
    assert!(stdout.contains("BENCH_serve.json"));
}

#[test]
fn gate_passes_on_improvement_and_small_noise() {
    let baseline = temp_dir("noise_base");
    let fresh = temp_dir("noise_fresh");
    write_sat_record(&baseline, 10_000, 2_000_000, true);
    // 20% fewer conflicts, 4% more propagations: improvement + in-tolerance noise.
    write_sat_record(&fresh, 8_000, 2_080_000, true);
    let output = run_gate_binary(&baseline, &fresh);
    assert!(output.status.success());
}

/// The negative test: a regressed deterministic counter must fail the build.
#[test]
fn gate_fails_on_regressed_deterministic_counter() {
    let baseline = temp_dir("neg_base");
    let fresh = temp_dir("neg_fresh");
    write_sat_record(&baseline, 10_000, 2_000_000, true);
    // 50% more conflicts: far outside tolerance.
    write_sat_record(&fresh, 15_000, 2_000_000, true);
    let output = run_gate_binary(&baseline, &fresh);
    assert!(!output.status.success(), "regression must fail the gate");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("total_conflicts_modern"), "stderr: {stderr}");
    assert!(stderr.contains("regression"));
}

#[test]
fn gate_fails_when_an_embedded_gate_flag_flips() {
    let baseline = temp_dir("flag_base");
    let fresh = temp_dir("flag_fresh");
    write_serve_record(&baseline, 1.0, true);
    write_serve_record(&fresh, 0.5, true); // warm hit rate collapsed
    let output = run_gate_binary(&baseline, &fresh);
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("warm_hit_rate"));
}

#[test]
fn gate_fails_when_a_fresh_record_is_missing() {
    let baseline = temp_dir("missing_base");
    let fresh = temp_dir("missing_fresh");
    write_sat_record(&baseline, 100, 100, true);
    // `fresh` has no BENCH_sat.json: the sweep that emits it did not run.
    let output = run_gate_binary(&baseline, &fresh);
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("missing or unreadable"));
}

#[test]
fn gate_is_inert_without_baselines() {
    let baseline = temp_dir("inert_base");
    let fresh = temp_dir("inert_fresh");
    write_sat_record(&fresh, 100, 100, true);
    let output = run_gate_binary(&baseline, &fresh);
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("nothing gated"));
}
