//! Incremental-CEGIS comparison experiment: runs the DSP sweep once with
//! persistent solver state and once from scratch, prints the per-benchmark
//! speedups, and writes the machine-readable `BENCH_cegis.json` report.
//! Scale is selected with `--quick` (default), `--smoke`, or `--full`.

use std::process::ExitCode;

use lr_bench::cegis::run_cegis_comparison;
use lr_bench::{exit_code, report_and_write, Scale};

fn main() -> ExitCode {
    let scale = Scale::from_args();
    println!("Incremental CEGIS comparison at {scale:?} scale");
    exit_code(report_and_write(&run_cegis_comparison(scale)))
}
