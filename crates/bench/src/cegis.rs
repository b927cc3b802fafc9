//! The incremental-CEGIS comparison experiment: run every benchmark of the sweep
//! through synthesis twice — once with persistent solver state
//! (`SynthesisConfig::incremental`, the default) and once with the from-scratch
//! loop — and record per-benchmark wall time, iterations, and SAT conflicts in a
//! machine-readable `BENCH_cegis.json` so the performance trajectory of the
//! synthesis hot path is tracked run over run.
//!
//! Unlike the completeness sweep this uses a *single* solver configuration per run
//! (no portfolio): the point is to measure the CEGIS loop itself, not thread
//! scheduling noise.

use std::time::Instant;

use lakeroad::suite::Microbenchmark;
use lakeroad::{generate_sketch, pipeline_depth, Template};
use lr_arch::Architecture;
use lr_serve::Json;
use lr_synth::{synthesize, SynthesisConfig, SynthesisTask, Verdict};

use crate::{decimal, Record, Scale};

/// One synthesis run's record (one benchmark in one mode).
#[derive(Debug, Clone)]
pub struct CegisRun {
    /// Architecture name.
    pub arch: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Whether solver state persisted across iterations.
    pub incremental: bool,
    /// `success` / `unsat` / `timeout`.
    pub verdict: Verdict,
    /// Measured wall-clock time.
    pub wall_ms: f64,
    /// CEGIS iterations performed.
    pub iterations: usize,
    /// SAT conflicts across all checks of the run.
    pub conflicts: u64,
    /// Example-equality constraints encoded (totalled over iterations).
    pub constraints_encoded: usize,
    /// Constraints re-encoded for already-seen examples (from-scratch overhead).
    pub constraints_reencoded: usize,
    /// Learnt clauses carried into synthesis checks (incremental reuse).
    pub learnt_clauses_reused: u64,
}

/// The full comparison: every benchmark in both modes.
#[derive(Debug, Clone)]
pub struct CegisComparison {
    /// The sweep scale the comparison ran at.
    pub scale: Scale,
    /// Per-run records, incremental and from-scratch interleaved per benchmark.
    pub runs: Vec<CegisRun>,
}

impl CegisComparison {
    /// Total wall time of one mode, in milliseconds.
    pub fn total_ms(&self, incremental: bool) -> f64 {
        self.runs.iter().filter(|r| r.incremental == incremental).map(|r| r.wall_ms).sum()
    }

    /// From-scratch total wall time divided by incremental total wall time.
    pub fn speedup(&self) -> f64 {
        let inc = self.total_ms(true);
        if inc <= 0.0 {
            return 1.0;
        }
        self.total_ms(false) / inc
    }
}

impl Record for CegisComparison {
    const PATH: &'static str = "BENCH_cegis.json";

    fn to_json(&self) -> Json {
        let runs = self.runs.iter().map(|r| {
            Json::obj([
                ("arch", Json::str(&r.arch)),
                ("benchmark", Json::str(&r.benchmark)),
                ("incremental", Json::Bool(r.incremental)),
                ("verdict", Json::str(r.verdict.name())),
                ("wall_ms", decimal(r.wall_ms, 3)),
                ("iterations", Json::Num(r.iterations as f64)),
                ("conflicts", Json::Num(r.conflicts as f64)),
                ("constraints_encoded", Json::Num(r.constraints_encoded as f64)),
                ("constraints_reencoded", Json::Num(r.constraints_reencoded as f64)),
                ("learnt_clauses_reused", Json::Num(r.learnt_clauses_reused as f64)),
            ])
        });
        Json::obj([
            ("scale", Json::str(format!("{:?}", self.scale))),
            ("total_wall_ms_incremental", decimal(self.total_ms(true), 3)),
            ("total_wall_ms_from_scratch", decimal(self.total_ms(false), 3)),
            ("speedup", decimal(self.speedup(), 3)),
            ("benchmarks", Json::Arr(runs.collect())),
        ])
    }

    /// The comparison records; it has no acceptance gate of its own.
    fn gate_failures(&self) -> Vec<String> {
        Vec::new()
    }

    fn print_summary(&self) {
        println!("\n-- Incremental CEGIS vs. from-scratch ({:?} scale) --", self.scale);
        println!(
            "  {:44} {:>12} {:>12} {:>8}",
            "benchmark", "incr (ms)", "scratch (ms)", "speedup"
        );
        let mut i = 0;
        while i + 1 < self.runs.len() {
            let (a, b) = (&self.runs[i], &self.runs[i + 1]);
            debug_assert!(a.incremental && !b.incremental);
            let speedup = if a.wall_ms > 0.0 { b.wall_ms / a.wall_ms } else { 1.0 };
            println!(
                "  {:44} {:>12.2} {:>12.2} {:>7.2}x",
                format!("{}/{}", a.arch, a.benchmark),
                a.wall_ms,
                b.wall_ms,
                speedup
            );
            i += 2;
        }
        println!(
            "  total: incremental {:.1} ms, from-scratch {:.1} ms, speedup {:.2}x",
            self.total_ms(true),
            self.total_ms(false),
            self.speedup()
        );
    }
}

fn run_one(
    arch: &Architecture,
    bench: &Microbenchmark,
    scale: Scale,
    incremental: bool,
) -> Option<CegisRun> {
    let spec = bench.build();
    let sketch = generate_sketch(Template::Dsp, arch, &spec).ok()?;
    let t = pipeline_depth(&spec);
    let task = SynthesisTask::over_window(&spec, &sketch, t, 2);
    let config = SynthesisConfig {
        timeout: Some(scale.timeout(arch.name())),
        incremental,
        ..SynthesisConfig::default()
    };
    let start = Instant::now();
    let outcome = synthesize(&task, &config).ok()?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let stats = outcome.stats();
    Some(CegisRun {
        arch: arch.name().to_string(),
        benchmark: bench.name.clone(),
        incremental,
        verdict: outcome.verdict(),
        wall_ms,
        iterations: stats.iterations,
        conflicts: stats.conflicts,
        constraints_encoded: stats.constraints_encoded,
        constraints_reencoded: stats.constraints_reencoded,
        learnt_clauses_reused: stats.learnt_clauses_reused,
    })
}

/// Runs the comparison over the DSP sweep at `scale`: each benchmark once
/// incrementally, once from scratch.
pub fn run_cegis_comparison(scale: Scale) -> CegisComparison {
    let mut runs = Vec::new();
    for arch in Architecture::with_dsps() {
        for bench in scale.suite(arch.name()) {
            // Untimed warmup so neither timed mode pays first-touch costs
            // (allocator growth, page faults, branch history).
            let _ = run_one(&arch, &bench, scale, false);
            let pair: Vec<CegisRun> = [true, false]
                .into_iter()
                .filter_map(|mode| run_one(&arch, &bench, scale, mode))
                .collect();
            // Keep records paired so consumers can diff benchmark-by-benchmark.
            // A benchmark with no sketch yields zero runs (expected); one run
            // means a mode errored out, which must not vanish from the record
            // silently.
            match pair.len() {
                2 => runs.extend(pair),
                0 => {}
                _ => eprintln!(
                    "warning: dropping unpaired cegis runs for {}/{} (one mode failed)",
                    arch.name(),
                    bench.name
                ),
            }
        }
    }
    CegisComparison { scale, runs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_is_well_formed_and_paired() {
        let comparison = CegisComparison {
            scale: Scale::Quick,
            runs: vec![
                CegisRun {
                    arch: "intel_cyclone10lp".into(),
                    benchmark: "mul_8b_0stage".into(),
                    incremental: true,
                    verdict: Verdict::Success,
                    wall_ms: 12.5,
                    iterations: 2,
                    conflicts: 34,
                    constraints_encoded: 8,
                    constraints_reencoded: 0,
                    learnt_clauses_reused: 20,
                },
                CegisRun {
                    arch: "intel_cyclone10lp".into(),
                    benchmark: "mul_8b_0stage".into(),
                    incremental: false,
                    verdict: Verdict::Success,
                    wall_ms: 25.0,
                    iterations: 2,
                    conflicts: 60,
                    constraints_encoded: 12,
                    constraints_reencoded: 4,
                    learnt_clauses_reused: 0,
                },
            ],
        };
        let json = comparison.to_json();
        assert_eq!(json.get(&["speedup"]), Some(&Json::num(2)));
        let runs = json.get(&["benchmarks"]).and_then(Json::as_arr).unwrap();
        assert_eq!(runs[0].get(&["incremental"]), Some(&Json::Bool(true)));
        assert_eq!(runs[1].get(&["constraints_reencoded"]), Some(&Json::num(4)));
        assert!((comparison.total_ms(true) - 12.5).abs() < 1e-9);
        assert!((comparison.total_ms(false) - 25.0).abs() < 1e-9);
        // One line per run, and the written text reads back as the record.
        let text = json.render_indented();
        assert_eq!(text.matches("},\n").count(), 1);
        assert_eq!(Json::parse(&text).unwrap(), json);
    }

    #[test]
    fn comparison_runs_a_tiny_sweep() {
        // The Intel quick tier is a single benchmark; both modes must complete and
        // agree on the verdict.
        let arch = Architecture::intel_cyclone10lp();
        let bench = &Scale::Quick.suite(arch.name())[0];
        let inc = run_one(&arch, bench, Scale::Quick, true).unwrap();
        let scr = run_one(&arch, bench, Scale::Quick, false).unwrap();
        assert_eq!(inc.verdict, scr.verdict);
        assert_eq!(inc.constraints_reencoded, 0);
    }
}
