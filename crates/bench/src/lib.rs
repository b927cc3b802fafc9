//! Shared experiment driver for the `exp_*` binaries.
//!
//! Every paper table/figure is regenerated from the same sweep: run Lakeroad and the
//! two modelled baselines over the §5.1 microbenchmark suites, record outcome,
//! timing, and resources per run, then print each artifact (Figure 6 top/bottom,
//! Figure 7, the resource-reduction and solver-portfolio paragraphs, Table 1, and
//! the §5.2 extensibility comparison).

pub mod aig;
pub mod cegis;
pub mod daemon;
pub mod egraph;
pub mod fuzz;
pub mod gate;
pub mod obs;
pub mod sat;
pub mod serve;
pub mod trace;

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;

use lakeroad::report::{proportion_bar, runtime_histogram, summarize_timing, RunClass, Tally};
use lakeroad::suite::{full_suite, suite_for, Microbenchmark};
use lakeroad::{MapConfig, MapOutcome, Template};
use lr_arch::{ArchName, Architecture};
use lr_baselines::{estimate, BaselineTool};
use lr_serve::{run_batch, BatchJob, BatchOptions, JobResult, Json, TemplateChoice};

/// One experiment's machine-readable `BENCH_*.json` record.
pub trait Record {
    /// Where the record is written (repo-relative; CI uploads every
    /// `BENCH_*.json` and [`gate`] compares it against the committed baseline).
    const PATH: &'static str;

    /// The record as a JSON document.
    fn to_json(&self) -> Json;

    /// The experiment's own failed acceptance gates; empty when healthy.
    fn gate_failures(&self) -> Vec<String>;

    /// Prints the human-readable summary.
    fn print_summary(&self);
}

/// Prints the summary and writes `record` to its [`Record::PATH`] in the
/// indented layout (one top-level entry per line), so a baseline refresh
/// reads as a line diff.
///
/// # Errors
/// The experiment's gate failures, plus the write error if the record could
/// not be written: a record left unwritten fails its run, because CI would
/// otherwise gate the committed baseline against itself.
pub fn report_and_write<R: Record>(record: &R) -> Result<(), Vec<String>> {
    record.print_summary();
    let mut failures = record.gate_failures();
    match std::fs::write(R::PATH, record.to_json().render_indented()) {
        Ok(()) => println!("wrote {}", R::PATH),
        Err(e) => failures.push(format!("cannot write {}: {e}", R::PATH)),
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

/// The exit convention of every record-writing `exp_*` binary: success, or
/// every failure on stderr and a failing exit code.
pub fn exit_code(result: Result<(), Vec<String>>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(failures) => {
            for failure in failures {
                eprintln!("FAILED: {failure}");
            }
            ExitCode::FAILURE
        }
    }
}

/// A measured, ungated value (wall clock, ratio) rounded to the `places`
/// decimals the records carry.
pub(crate) fn decimal(value: f64, places: i32) -> Json {
    let scale = 10f64.powi(places);
    Json::Num((value * scale).round() / scale)
}

/// How much of the paper-scale suite to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A few benchmarks per architecture (CI-friendly; seconds to a minute).
    Quick,
    /// All shapes and stages at one bitwidth (minutes).
    Smoke,
    /// The full paper-scale suites (1320 + 396 + 66 benchmarks; hours).
    Full,
}

impl Scale {
    /// Parses `--quick` / `--smoke` / `--full` from argv; defaults to quick.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--full") {
            Scale::Full
        } else if args.iter().any(|a| a == "--smoke") {
            Scale::Smoke
        } else {
            Scale::Quick
        }
    }

    /// Parses `--jobs <N>` from argv: the scheduler worker count for the sweep
    /// binaries. Defaults to the machine's available parallelism. Per-job wall
    /// times are measured under whatever CPU contention the worker count
    /// creates, so pass `--jobs 1` when regenerating the paper's *timing*
    /// figures on a busy machine. Verdicts and resources are
    /// worker-count-independent for jobs that finish within their budget
    /// (pinned by the determinism tests); a job whose CPU need is close to its
    /// wall-clock budget can flip to a timeout under contention — another
    /// reason `--jobs 1` is the right mode for paper-faithful sweeps.
    pub fn workers_from_args() -> usize {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--jobs")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    }

    /// The benchmark list for one architecture at this scale.
    pub fn suite(self, arch: ArchName) -> Vec<Microbenchmark> {
        match self {
            Scale::Full => full_suite(arch),
            Scale::Smoke => suite_for(arch, [8u32].into_iter()),
            Scale::Quick => {
                // A stratified sample: every 7th benchmark of the smoke suite.
                suite_for(arch, [8u32].into_iter()).into_iter().step_by(7).collect()
            }
        }
    }

    /// Per-benchmark synthesis timeout (the paper uses 120 s / 40 s / 20 s at full
    /// scale).
    pub fn timeout(self, arch: ArchName) -> Duration {
        let full = match arch {
            ArchName::XilinxUltraScalePlus => 120,
            ArchName::LatticeEcp5 => 40,
            _ => 20,
        };
        match self {
            Scale::Full => Duration::from_secs(full),
            Scale::Smoke => Duration::from_secs(30),
            Scale::Quick => Duration::from_secs(15),
        }
    }
}

/// One Lakeroad run's record.
#[derive(Debug, Clone)]
pub struct LakeroadRun {
    /// The benchmark name.
    pub benchmark: String,
    /// Outcome classification.
    pub class: RunClass,
    /// Wall-clock synthesis time.
    pub elapsed: Duration,
    /// Winning portfolio member, if the run finished.
    pub winner: Option<String>,
    /// Resources of the mapped design (successful runs only).
    pub resources: Option<lakeroad::Resources>,
}

/// All data collected for one architecture.
#[derive(Debug, Clone, Default)]
pub struct ArchResults {
    /// Lakeroad per-run records.
    pub lakeroad_runs: Vec<LakeroadRun>,
    /// Outcome tally per tool ("lakeroad", "sota", "yosys").
    pub tallies: HashMap<String, Tally>,
    /// Lakeroad run times.
    pub lakeroad_times: Vec<Duration>,
    /// Baseline resources per tool, one entry per benchmark.
    pub baseline_resources: HashMap<String, Vec<lr_baselines::BaselineResources>>,
    /// Lakeroad resources for benchmarks where mapping succeeded.
    pub lakeroad_resources: Vec<lakeroad::Resources>,
    /// Portfolio win counts by solver name.
    pub portfolio_wins: HashMap<String, usize>,
}

/// Runs the completeness sweep for one architecture, with the worker count from
/// the command line (see [`Scale::workers_from_args`]).
pub fn run_architecture(arch: &Architecture, scale: Scale) -> ArchResults {
    run_architecture_with(arch, scale, Scale::workers_from_args())
}

/// [`run_architecture`] with an explicit worker count: the sweep's independent
/// mapping jobs run concurrently on the `lr_serve` batch scheduler,
/// and the records fold back in submission order, so tallies and resource
/// tables are identical at any worker count.
pub fn run_architecture_with(arch: &Architecture, scale: Scale, workers: usize) -> ArchResults {
    let mut results = ArchResults::default();
    let suite = scale.suite(arch.name());
    let config = MapConfig { timeout: scale.timeout(arch.name()), ..MapConfig::default() };
    // No synthesis cache here: this sweep *measures* synthesis (Figure 6/7),
    // and the suite's signed/unsigned twins build identical specs that a cache
    // would collapse into one run. `exp_serve` owns the cached workload.
    let jobs: Vec<BatchJob> = suite
        .iter()
        .map(|bench| {
            BatchJob::new(
                bench.name.clone(),
                bench.build(),
                arch.clone(),
                TemplateChoice::Named(Template::Dsp),
            )
        })
        .collect();
    let run = run_batch(&jobs, &BatchOptions::new(workers, config));

    for (bench, record) in suite.iter().zip(&run.records) {
        let class = match &record.result {
            JobResult::Finished(outcome) => {
                let elapsed = outcome.elapsed();
                results.lakeroad_times.push(elapsed);
                let (class, winner, resources) = match outcome {
                    MapOutcome::Success(m) => {
                        let class = if m.resources.is_single_dsp() {
                            RunClass::Success
                        } else {
                            RunClass::Fail
                        };
                        results.lakeroad_resources.push(m.resources);
                        (class, m.winning_solver.clone(), Some(m.resources))
                    }
                    MapOutcome::Unsat { winning_solver, .. } => {
                        (RunClass::Unsat, winning_solver.clone(), None)
                    }
                    MapOutcome::Timeout { .. } => (RunClass::Timeout, None, None),
                };
                if let Some(winner) = &winner {
                    *results.portfolio_wins.entry(winner.clone()).or_default() += 1;
                }
                results.lakeroad_runs.push(LakeroadRun {
                    benchmark: bench.name.clone(),
                    class,
                    elapsed,
                    winner,
                    resources,
                });
                class
            }
            // Unposeable jobs keep the pre-scheduler classification; expiry and
            // cancellation cannot occur (no deadlines, nobody cancels).
            JobResult::Error(_) | JobResult::DeadlineExpired | JobResult::Cancelled => {
                RunClass::Timeout
            }
        };
        results.tallies.entry("lakeroad".into()).or_default().record(class);
    }

    // Baselines (closed-form estimates; sequential is already instant).
    for bench in &suite {
        let spec = bench.build();
        for (key, tool) in [("sota", BaselineTool::SotaLike), ("yosys", BaselineTool::YosysLike)] {
            let res = estimate(tool, arch.name(), &spec);
            let class = if res.is_single_dsp() { RunClass::Success } else { RunClass::Fail };
            results.tallies.entry(key.into()).or_default().record(class);
            results.baseline_resources.entry(key.into()).or_default().push(res);
        }
    }
    results
}

/// Prints the Figure 6 (top) completeness bars and the Figure 6 (bottom) timing
/// table for one architecture.
pub fn print_completeness(arch: &Architecture, results: &ArchResults) {
    println!("\n== {} ({} microbenchmarks) ==", arch.name(), results.lakeroad_runs.len());
    println!("-- Figure 6 (top): proportion mapped to a single DSP --");
    for (label, key) in
        [("Lakeroad", "lakeroad"), ("SOTA (modelled)", "sota"), ("Yosys (modelled)", "yosys")]
    {
        if let Some(tally) = results.tallies.get(key) {
            println!(
                "  {label:18} {} {:5.1}%  (success {} / fail {} / unsat {} / timeout {})",
                proportion_bar(tally.success_rate(), 30),
                100.0 * tally.success_rate(),
                tally.success,
                tally.fail,
                tally.unsat,
                tally.timeout,
            );
        }
    }
    println!("-- Figure 6 (bottom): Lakeroad mapping time --");
    if let Some(t) = summarize_timing(&results.lakeroad_times) {
        println!("  median {:.2} s   min {:.2} s   max {:.2} s", t.median_s, t.min_s, t.max_s);
    }
}

/// Prints the Figure 7 runtime histogram for one architecture.
pub fn print_histogram(arch: &Architecture, results: &ArchResults, timeout: Duration) {
    println!("\n-- Figure 7: Lakeroad synthesis runtime histogram, {} --", arch.name());
    let h = runtime_histogram(&results.lakeroad_times);
    print!("{}", h.render("ms"));
    if let (Some(p50), Some(p99)) = (h.p50(), h.p99()) {
        println!("  p50 <= {p50} ms   p99 <= {p99} ms");
    }
    println!("  (timeout threshold: {:.0} s)", timeout.as_secs_f64());
}

/// Prints the §5.1 resource-reduction comparison for one architecture.
pub fn print_resources(arch: &Architecture, results: &ArchResults) {
    println!("\n-- Resource reduction vs. baselines, {} --", arch.name());
    let n = results.lakeroad_runs.len().max(1) as f64;
    let lr_le: f64 =
        results.lakeroad_resources.iter().map(|r| r.logic_elements as f64).sum::<f64>() / n;
    let lr_reg: f64 =
        results.lakeroad_resources.iter().map(|r| r.registers as f64).sum::<f64>() / n;
    for (label, key) in [("SOTA (modelled)", "sota"), ("Yosys (modelled)", "yosys")] {
        if let Some(rs) = results.baseline_resources.get(key) {
            let le: f64 = rs.iter().map(|r| r.logic_elements as f64).sum::<f64>() / n;
            let reg: f64 = rs.iter().map(|r| r.registers as f64).sum::<f64>() / n;
            println!(
                "  vs {label:18} Lakeroad saves {:6.1} LEs and {:6.1} registers per microbenchmark",
                le - lr_le,
                reg - lr_reg
            );
        }
    }
}

/// Prints the solver-portfolio win counts (§5.1's Bitwuzla/STP/Yices2/cvc5 paragraph).
pub fn print_portfolio(all: &[(ArchName, ArchResults)]) {
    println!("\n-- Solver portfolio: which member finished first --");
    let mut totals: HashMap<String, usize> = HashMap::new();
    for (_, results) in all {
        for (name, count) in &results.portfolio_wins {
            *totals.entry(name.clone()).or_default() += count;
        }
    }
    let mut rows: Vec<_> = totals.into_iter().collect();
    rows.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
    for (name, count) in rows {
        println!("  {name:12} first to finish for {count} runs");
    }
}

/// Prints Table 1: primitives imported from (re-implemented) vendor models.
pub fn print_primitives_table() {
    println!("\n-- Table 1: FPGA primitives imported from primitive models --");
    println!("  {:22} {:34} {:>6}", "Architecture", "Primitive", "SLoC");
    for model in lr_hdl::builtin_models() {
        println!(
            "  {:22} {:34} {:>6}",
            model.architecture,
            model.name,
            lr_hdl::count_sloc(model.source)
        );
    }
    println!(
        "  {:22} {:34} {:>6}",
        "Xilinx UltraScale+",
        "DSP48E2 (programmatic)",
        lr_arch::primitives::DSP48E2_MODEL_SLOC
    );
    println!(
        "  {:22} {:34} {:>6}",
        "Lattice ECP5",
        "MULT18X18C+ALU54A (programmatic)",
        lr_arch::primitives::ECP5_DSP_MODEL_SLOC
    );
}

/// Prints the §5.2 extensibility comparison (architecture-description sizes).
pub fn print_extensibility() {
    println!("\n-- Extensibility: architecture description sizes (§5.2) --");
    println!("  {:22} {:>12} {:>12}", "Architecture", "ours (SLoC)", "paper (SLoC)");
    let paper = [
        (ArchName::Sofa, 20),
        (ArchName::IntelCyclone10Lp, 178),
        (ArchName::XilinxUltraScalePlus, 185),
        (ArchName::LatticeEcp5, 240),
    ];
    for (name, paper_sloc) in paper {
        let arch = Architecture::load(name);
        println!("  {:22} {:>12} {:>12}", name.to_string(), arch.description_sloc(), paper_sloc);
    }
    println!(
        "  (comparison point from the paper: Yosys's UltraScale+ DSP mapping spans ~1300 lines\n   across a dozen files; proprietary tools span millions of lines of C.)"
    );
}

/// Runs the full sweep at a scale and returns per-architecture results.
pub fn run_all(scale: Scale) -> Vec<(ArchName, ArchResults)> {
    Architecture::with_dsps()
        .into_iter()
        .map(|arch| {
            let results = run_architecture(&arch, scale);
            (arch.name(), results)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_produce_nested_suite_sizes() {
        let quick = Scale::Quick.suite(ArchName::LatticeEcp5).len();
        let smoke = Scale::Smoke.suite(ArchName::LatticeEcp5).len();
        let full = Scale::Full.suite(ArchName::LatticeEcp5).len();
        assert!(quick < smoke && smoke < full);
        assert_eq!(full, 396);
    }

    #[test]
    fn timeouts_follow_the_paper_at_full_scale() {
        assert_eq!(Scale::Full.timeout(ArchName::XilinxUltraScalePlus), Duration::from_secs(120));
        assert_eq!(Scale::Full.timeout(ArchName::LatticeEcp5), Duration::from_secs(40));
        assert_eq!(Scale::Full.timeout(ArchName::IntelCyclone10Lp), Duration::from_secs(20));
    }

    struct Unwritable;

    impl Record for Unwritable {
        const PATH: &'static str = "no-such-directory/BENCH_unwritable.json";

        fn to_json(&self) -> Json {
            Json::obj([("scale", Json::str("Quick"))])
        }

        fn gate_failures(&self) -> Vec<String> {
            vec!["own gate".to_string()]
        }

        fn print_summary(&self) {}
    }

    #[test]
    fn a_record_that_cannot_be_written_fails_its_run() {
        // Regression: a failed write used to be printed and forgotten, leaving
        // the committed baseline in place to be gated against itself.
        let failures = report_and_write(&Unwritable).unwrap_err();
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert_eq!(failures[0], "own gate");
        assert!(failures[1].starts_with("cannot write no-such-directory/"), "{failures:?}");
    }

    #[test]
    fn quick_sweep_on_intel_produces_tallies() {
        let arch = Architecture::intel_cyclone10lp();
        let results = run_architecture(&arch, Scale::Quick);
        assert!(results.tallies["lakeroad"].total() > 0);
        assert_eq!(results.tallies["lakeroad"].total(), results.tallies["sota"].total());
        // Yosys (modelled) never maps the Intel multiplier.
        assert_eq!(results.tallies["yosys"].success, 0);
    }
}
