//! The CDCL-modernization experiment driver: runs the e2e mapping tier through
//! synthesis under the modernized solver configuration (LBD tiers + EMA restarts)
//! and the old-style one (activity deletion + Luby restarts), writes
//! `BENCH_sat.json`, and exits non-zero if the modernized configuration does
//! strictly more search work or any verdict drifts. Scale is selected with
//! `--quick` (default), `--smoke`, or `--full`.

use std::process::ExitCode;

use lr_bench::sat::run_sat_comparison;
use lr_bench::{exit_code, report_and_write, Scale};

fn main() -> ExitCode {
    let scale = Scale::from_args();
    println!("CDCL modernization experiment at {scale:?} scale");
    exit_code(report_and_write(&run_sat_comparison(scale)))
}
