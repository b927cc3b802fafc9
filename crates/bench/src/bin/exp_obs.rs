//! The observability experiment: the same mixed workload (cold, warm, poison)
//! run forensics-off and forensics-on, proving the flight recorder changes no
//! deterministic synthesis counter, every completed request leaves a
//! retrievable bundle under `--slow-ms 0`, and the `metrics` exposition is
//! well-formed OpenMetrics text. Writes `BENCH_obs.json` and exits non-zero
//! if an acceptance gate fails — CI runs this at `--quick`.

use std::process::ExitCode;

use lr_bench::obs::run_obs_experiment;
use lr_bench::{exit_code, report_and_write, Scale};

fn main() -> ExitCode {
    let scale = Scale::from_args();
    println!("Observability experiment at {scale:?} scale");
    exit_code(report_and_write(&run_obs_experiment(scale)))
}
