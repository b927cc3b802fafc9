//! End-to-end tests of the `lakeroad` binary: each runs the built executable
//! as a user would and checks its exit status and output.

use std::path::PathBuf;
use std::process::{Command, Output};

fn lakeroad(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lakeroad")).args(args).output().expect("lakeroad runs")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lr_cli_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_single_design_maps_and_prints_verilog() {
    let out =
        lakeroad(&["--template", "dsp", "--arch-desc", "intel-cyclone10lp", "bench:mul_w8_s0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let verilog = String::from_utf8_lossy(&out.stdout);
    assert!(verilog.contains("module "), "{verilog}");
    assert!(verilog.contains("cyclone10lp_mac_mult"), "{verilog}");
    assert!(verilog.contains("endmodule"), "{verilog}");
}

#[test]
fn an_unknown_template_is_a_usage_error() {
    let out = lakeroad(&["--template", "lut9", "--arch-desc", "sofa", "bench:mul_w8_s0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown template `lut9`"));
}

#[test]
fn a_second_batch_run_loads_the_verdicts_the_first_saved() {
    let dir = temp_dir("batch");
    let manifest = dir.join("jobs.manifest");
    std::fs::write(&manifest, "bench:mul_w8_s0 intel dsp\nbench:mul_w8_s1 intel dsp\n").unwrap();
    let cache = dir.join("warm.lrc");
    let run = || {
        let (manifest, cache) = (manifest.to_str().unwrap(), cache.to_str().unwrap());
        let out = lakeroad(&["batch", manifest, "--jobs", "2", "--cache", cache]);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(0), "{stderr}");
        stderr
    };

    let cold = run();
    assert!(!cold.contains("loaded"), "{cold}");
    assert!(cold.contains("saved 2 cached verdicts"), "{cold}");
    let warm = run();
    assert!(warm.contains("loaded 2 cached verdicts"), "{warm}");
    assert_eq!(warm.matches("[cache]").count(), 2, "{warm}");
    let _ = std::fs::remove_dir_all(&dir);
}
