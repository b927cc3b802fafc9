//! The batch-serving experiment: scheduler scaling over a mixed workload and
//! warm-cache effectiveness over a repeated one. Writes `BENCH_serve.json` and
//! exits non-zero if an acceptance gate fails (warm hit rate below 100%, warm
//! verdict drift, or 4 workers slower than 1) — CI runs this at `--quick`.

use std::process::ExitCode;

use lr_bench::serve::run_serve_experiment;
use lr_bench::{exit_code, report_and_write, Scale};

fn main() -> ExitCode {
    let scale = Scale::from_args();
    println!("Batch-serving experiment at {scale:?} scale");
    exit_code(report_and_write(&run_serve_experiment(scale)))
}
