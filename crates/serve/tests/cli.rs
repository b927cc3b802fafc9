//! End-to-end tests of the `lakeroad` binary: each runs the built executable
//! as a user would and checks its exit status and output.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

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
fn a_design_whose_zero_absorbs_itself_maps_promptly() {
    // `a & 0` joins the class of 0, which then contains itself under `and`:
    // saturation used to match without end there, far below its node limit.
    let dir = temp_dir("self_absorbing");
    let design = dir.join("wedge.v");
    std::fs::write(
        &design,
        "module wedge(input clk, input [7:0] a, b, output [7:0] out);\n  \
         assign out = b * (a & (a & 8'd0));\nendmodule\n",
    )
    .unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_lakeroad"))
        .args(["--template", "dsp", "--arch-desc", "xilinx-ultrascale-plus"])
        .arg(&design)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("lakeroad runs");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().unwrap().is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let hung = child.try_wait().unwrap().is_none();
    let _ = child.kill();
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!hung, "still running after 30 s: {stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("1 DSP"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unknown_template_is_a_usage_error() {
    let out = lakeroad(&["--template", "lut9", "--arch-desc", "sofa", "bench:mul_w8_s0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown template `lut9`"));
}

#[test]
fn an_unsat_mapping_prints_its_statistics() {
    let dir = temp_dir("unsat_stats");
    let design = dir.join("mulxor.v");
    std::fs::write(
        &design,
        "module mulxor(input clk, input [7:0] a, b, c, output [7:0] out);\n  \
         assign out = (a * b) ^ c;\nendmodule\n",
    )
    .unwrap();
    let out = lakeroad(&[
        "--stats",
        "--template",
        "dsp",
        "--arch-desc",
        "intel-cyclone10lp",
        design.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("UNSAT"), "{stderr}");
    assert!(stderr.contains("-- synthesis statistics --"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_second_batch_run_loads_the_verdicts_the_first_saved() {
    let dir = temp_dir("batch");
    let manifest = dir.join("jobs.manifest");
    std::fs::write(&manifest, "bench:mul_w8_s0 intel dsp\nbench:mul_w8_s1 intel dsp\n").unwrap();
    let cache = dir.join("warm.lrc");
    let run = |extra: &[&str]| {
        let (manifest, cache) = (manifest.to_str().unwrap(), cache.to_str().unwrap());
        let mut args = vec!["batch", manifest, "--jobs", "2", "--cache", cache];
        args.extend_from_slice(extra);
        let out = lakeroad(&args);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(0), "{stderr}");
        stderr
    };

    let cold = run(&[]);
    assert!(!cold.contains("loaded"), "{cold}");
    assert!(cold.contains("saved 2 cached verdicts"), "{cold}");
    let warm = run(&[]);
    assert!(warm.contains("loaded 2 cached verdicts"), "{warm}");
    assert_eq!(warm.matches("[cache]").count(), 2, "{warm}");
    // A stored verdict does not depend on the budget it was found under.
    let tighter = run(&["--timeout", "10"]);
    assert_eq!(tighter.matches("[cache]").count(), 2, "{tighter}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_refuses_a_cache_file_it_cannot_read() {
    let dir = temp_dir("serve_corrupt_cache");
    let cache = dir.join("corrupt.lrc");
    std::fs::write(&cache, "not a lakeroad cache\n").unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_lakeroad"))
        .args(["serve", "--addr", "127.0.0.1:0", "--cache", cache.to_str().unwrap()])
        .stderr(Stdio::piped())
        .spawn()
        .expect("lakeroad runs");
    // A daemon that starts anyway serves until it is killed, so bound the wait.
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().unwrap().is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("cannot load cache `"), "{stderr}");
    assert_eq!(std::fs::read(&cache).unwrap(), b"not a lakeroad cache\n");
    let _ = std::fs::remove_dir_all(&dir);
}
