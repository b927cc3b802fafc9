//! The daemon-serving experiment: N concurrent clients against an in-process
//! `lakeroad serve` daemon, cold then warm. Writes `BENCH_daemon.json` and
//! exits non-zero if an acceptance gate fails (a warm verdict not served from
//! the shared cache, lost or rejected jobs in the drain accounting, or warm
//! verdict drift) — CI runs this at `--quick`.

use std::process::ExitCode;

use lr_bench::daemon::run_daemon_experiment;
use lr_bench::{exit_code, report_and_write, Scale};

fn main() -> ExitCode {
    let scale = Scale::from_args();
    println!("Daemon-serving experiment at {scale:?} scale");
    exit_code(report_and_write(&run_daemon_experiment(scale)))
}
