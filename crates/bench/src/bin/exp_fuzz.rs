//! The differential HDL fuzzing firehose: seeded mini-Verilog modules through
//! the parse → elaborate → emit round-trip oracle, plus mapped-implementation
//! agreement on a bounded prefix. Writes `BENCH_fuzz.json` and exits non-zero
//! on any mismatch (the gates are zero-tolerance) — CI runs this at `--quick`.

use std::process::ExitCode;

use lr_bench::fuzz::run_fuzz_experiment;
use lr_bench::{exit_code, report_and_write, Scale};

fn main() -> ExitCode {
    let scale = Scale::from_args();
    println!("HDL fuzz firehose at {scale:?} scale");
    exit_code(report_and_write(&run_fuzz_experiment(scale)))
}
