//! The structural-frontend experiment: map the committed AIGER/`.bench`
//! fixtures through the cone-partitioned netlist pipeline (`lr_serve::netlist`)
//! cold and warm, verify every stitch against the source AIG, and write
//! `BENCH_aig.json`. Exits non-zero if a gate fails (any verification
//! mismatch, a warm cone missing the cache, a cold cone synthesis reaching the
//! SAT verifier, a cone wider than the LUT, or a register-count drift) — CI
//! runs this at `--quick`.

use std::process::ExitCode;

use lr_bench::aig::run_aig_experiment;
use lr_bench::{exit_code, report_and_write, Scale};

fn main() -> ExitCode {
    let scale = Scale::from_args();
    let workers = Scale::workers_from_args();
    println!("Structural-frontend experiment at {scale:?} scale ({workers} workers)");
    exit_code(report_and_write(&run_aig_experiment(scale, workers)))
}
