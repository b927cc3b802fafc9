//! Tracing overhead and identity experiment: runs the DSP sweep once with
//! `lr_trace` disabled and once enabled, proves the deterministic synthesis
//! counters are bit-identical in both modes, inventories the recorded spans,
//! and writes the machine-readable `BENCH_trace.json` record. Scale is
//! selected with `--quick` (default), `--smoke`, or `--full`.

use std::process::ExitCode;

use lr_bench::trace::run_trace_comparison;
use lr_bench::{exit_code, report_and_write, Scale};

fn main() -> ExitCode {
    let scale = Scale::from_args();
    println!("Tracing overhead/identity comparison at {scale:?} scale");
    exit_code(report_and_write(&run_trace_comparison(scale)))
}
