//! Runs every experiment and prints every table/figure of the paper's evaluation.
//! Scale is selected with `--quick` (default), `--smoke`, or `--full`.
//!
//! The completeness sweeps run their independent mapping jobs on the `lr_serve`
//! batch scheduler; `--jobs <N>` picks the worker count (default: the
//! machine's parallelism). For jobs that finish within their budget, verdicts,
//! resources, and tallies are identical at any worker count — per-job wall
//! times are measured under whatever CPU contention the workers create, and a
//! job running close to its wall-clock budget can flip to a timeout under
//! that contention, so use `--jobs 1` for contention-free, paper-faithful
//! Figure 6/7 numbers.

use std::process::ExitCode;

use lr_arch::Architecture;
use lr_bench::{
    cegis::run_cegis_comparison, exit_code, print_completeness, print_extensibility,
    print_histogram, print_portfolio, print_primitives_table, print_resources, report_and_write,
    run_all, Scale,
};

fn main() -> ExitCode {
    let scale = Scale::from_args();
    println!(
        "Lakeroad reproduction: full evaluation at {scale:?} scale ({} scheduler workers)",
        Scale::workers_from_args()
    );
    let results = run_all(scale);
    for (name, arch_results) in &results {
        let arch = Architecture::load(*name);
        print_completeness(&arch, arch_results);
        print_histogram(&arch, arch_results, scale.timeout(*name));
        print_resources(&arch, arch_results);
    }
    print_portfolio(&results);
    print_primitives_table();
    print_extensibility();

    // Incremental-CEGIS perf tracking: rerun the sweep single-solver in both modes
    // and leave a machine-readable record next to the textual report.
    exit_code(report_and_write(&run_cegis_comparison(scale)))
}
