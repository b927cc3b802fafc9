//! The equality-saturation experiment driver: monster-disequality folds, spec
//! canonicalization over the sweep, and the CEGIS egraph-on/off ablation, written
//! to `BENCH_egraph.json`. Scale is selected with `--quick` (default), `--smoke`,
//! or `--full`.

use std::process::ExitCode;

use lr_bench::egraph::run_egraph_experiment;
use lr_bench::{exit_code, report_and_write, Scale};

fn main() -> ExitCode {
    let scale = Scale::from_args();
    println!("Lakeroad reproduction: equality-saturation experiment at {scale:?} scale");
    exit_code(report_and_write(&run_egraph_experiment(scale)))
}
