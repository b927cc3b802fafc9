//! The SAT-core modernization experiment: run the e2e mapping tier through
//! synthesis twice — once with the modernized solver configuration (LBD-tiered
//! clause database + EMA restarts, the default) and once with the old-style one
//! (activity-only deletion + Luby restarts) — and record the deterministic solver
//! counters (conflicts, propagations, learnt/minimized literals, restarts, glue)
//! per benchmark in a machine-readable `BENCH_sat.json`.
//!
//! Like the CEGIS comparison, this uses a *single* solver configuration per run
//! (no portfolio, no threads), so every counter is reproducible bit-for-bit and
//! usable as a CI regression gate: the modernized configuration must not do more
//! search work than the legacy one on the same tier.

use std::time::Instant;

use lakeroad::suite::Microbenchmark;
use lakeroad::{generate_sketch, pipeline_depth, Template};
use lr_arch::Architecture;
use lr_serve::Json;
use lr_smt::SolverConfig;
use lr_synth::{synthesize, SynthesisConfig, SynthesisTask, Verdict};

use crate::{decimal, Record, Scale};

/// The modernized configuration under test (the workspace default).
pub fn modern_config() -> SolverConfig {
    SolverConfig { name: "modern".into(), ..SolverConfig::default() }
}

/// The pre-modernization comparison point.
pub fn legacy_config() -> SolverConfig {
    SolverConfig { name: "legacy".into(), ..SolverConfig::legacy() }
}

/// One synthesis run's solver-counter record (one benchmark in one mode).
#[derive(Debug, Clone)]
pub struct SatRun {
    /// Architecture name.
    pub arch: String,
    /// Benchmark name.
    pub benchmark: String,
    /// `"modern"` or `"legacy"`.
    pub mode: &'static str,
    /// `success` / `unsat` / `timeout`.
    pub verdict: Verdict,
    /// Measured wall-clock time (informational; never gated on).
    pub wall_ms: f64,
    /// CEGIS iterations performed.
    pub iterations: usize,
    /// SAT conflicts across all checks of the run.
    pub conflicts: u64,
    /// SAT unit propagations across all checks of the run.
    pub propagations: u64,
    /// SAT restarts across all checks of the run.
    pub restarts: u64,
    /// Literals across stored learnt clauses (post-minimization).
    pub learnt_literals: u64,
    /// Literals removed by recursive clause minimization.
    pub minimized_literals: u64,
    /// Learnt clauses with glue ≤ 2 (the core-quality fraction).
    pub low_glue_clauses: u64,
    /// All learnt clauses stored.
    pub learnt_clauses: u64,
}

/// The full comparison: every benchmark of the tier in both modes.
#[derive(Debug, Clone)]
pub struct SatComparison {
    /// The sweep scale the comparison ran at.
    pub scale: Scale,
    /// Per-run records, modern and legacy interleaved per benchmark.
    pub runs: Vec<SatRun>,
}

impl SatComparison {
    fn total(&self, mode: &str, field: impl Fn(&SatRun) -> u64) -> u64 {
        self.runs.iter().filter(|r| r.mode == mode).map(field).sum()
    }

    /// Total conflicts of one mode.
    pub fn total_conflicts(&self, mode: &str) -> u64 {
        self.total(mode, |r| r.conflicts)
    }

    /// Total propagations of one mode.
    pub fn total_propagations(&self, mode: &str) -> u64 {
        self.total(mode, |r| r.propagations)
    }

    /// Total learnt literals of one mode.
    pub fn total_learnt_literals(&self, mode: &str) -> u64 {
        self.total(mode, |r| r.learnt_literals)
    }
}

impl Record for SatComparison {
    const PATH: &'static str = "BENCH_sat.json";

    fn to_json(&self) -> Json {
        let runs = self.runs.iter().map(|r| {
            Json::obj([
                ("arch", Json::str(&r.arch)),
                ("benchmark", Json::str(&r.benchmark)),
                ("mode", Json::str(r.mode)),
                ("verdict", Json::str(r.verdict.name())),
                ("wall_ms", decimal(r.wall_ms, 3)),
                ("iterations", Json::Num(r.iterations as f64)),
                ("conflicts", Json::Num(r.conflicts as f64)),
                ("propagations", Json::Num(r.propagations as f64)),
                ("restarts", Json::Num(r.restarts as f64)),
                ("learnt_literals", Json::Num(r.learnt_literals as f64)),
                ("minimized_literals", Json::Num(r.minimized_literals as f64)),
                ("low_glue_clauses", Json::Num(r.low_glue_clauses as f64)),
                ("learnt_clauses", Json::Num(r.learnt_clauses as f64)),
            ])
        });
        let total = |n: u64| Json::Num(n as f64);
        Json::obj([
            ("scale", Json::str(format!("{:?}", self.scale))),
            ("total_conflicts_modern", total(self.total_conflicts("modern"))),
            ("total_propagations_modern", total(self.total_propagations("modern"))),
            ("total_learnt_literals_modern", total(self.total_learnt_literals("modern"))),
            ("total_conflicts_legacy", total(self.total_conflicts("legacy"))),
            ("total_propagations_legacy", total(self.total_propagations("legacy"))),
            ("total_learnt_literals_legacy", total(self.total_learnt_literals("legacy"))),
            (
                "total_minimized_literals_modern",
                total(self.total("modern", |r| r.minimized_literals)),
            ),
            ("gates_pass", Json::Bool(self.gate_failures().is_empty())),
            ("benchmarks", Json::Arr(runs.collect())),
        ])
    }

    /// The acceptance gate: the modernized configuration must reduce total
    /// conflicts or total propagations on the tier (and both modes must agree on
    /// every verdict).
    fn gate_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if self.runs.is_empty() {
            // An empty comparison must not pass vacuously: it means every
            // benchmark failed to produce a paired measurement.
            failures.push("no paired runs recorded — the sweep measured nothing".to_string());
        }
        let mut i = 0;
        while i + 1 < self.runs.len() {
            let (a, b) = (&self.runs[i], &self.runs[i + 1]);
            if a.benchmark == b.benchmark && a.mode != b.mode && a.verdict != b.verdict {
                failures.push(format!(
                    "verdict drift on {}/{}: modern={} legacy={}",
                    a.arch,
                    a.benchmark,
                    a.verdict.name(),
                    b.verdict.name()
                ));
            }
            i += 2;
        }
        let (mc, lc) = (self.total_conflicts("modern"), self.total_conflicts("legacy"));
        let (mp, lp) = (self.total_propagations("modern"), self.total_propagations("legacy"));
        if mc > lc && mp > lp {
            failures.push(format!(
                "modern config does strictly more work: conflicts {mc} > {lc} and \
                 propagations {mp} > {lp}"
            ));
        }
        failures
    }

    fn print_summary(&self) {
        println!(
            "\n-- CDCL modernization: tiered+EMA vs. activity+Luby ({:?} scale) --",
            self.scale
        );
        println!(
            "  {:44} {:>10} {:>10} {:>11} {:>11}",
            "benchmark", "mod cfl", "leg cfl", "mod props", "leg props"
        );
        let mut i = 0;
        while i + 1 < self.runs.len() {
            let (a, b) = (&self.runs[i], &self.runs[i + 1]);
            debug_assert!(a.mode == "modern" && b.mode == "legacy");
            println!(
                "  {:44} {:>10} {:>10} {:>11} {:>11}",
                format!("{}/{}", a.arch, a.benchmark),
                a.conflicts,
                b.conflicts,
                a.propagations,
                b.propagations
            );
            i += 2;
        }
        let minimized = self.total("modern", |r| r.minimized_literals);
        let learnt = self.total_learnt_literals("modern");
        println!(
            "  totals: conflicts {} vs {}, propagations {} vs {} (modern vs legacy)",
            self.total_conflicts("modern"),
            self.total_conflicts("legacy"),
            self.total_propagations("modern"),
            self.total_propagations("legacy"),
        );
        println!(
            "  modern clause quality: {} learnt literals, {} minimized away ({:.1}%), {} restarts",
            learnt,
            minimized,
            if learnt + minimized > 0 {
                100.0 * minimized as f64 / (learnt + minimized) as f64
            } else {
                0.0
            },
            self.total("modern", |r| r.restarts),
        );
    }
}

fn run_one(
    arch: &Architecture,
    bench: &Microbenchmark,
    scale: Scale,
    mode: &'static str,
    solver: SolverConfig,
) -> Option<SatRun> {
    let spec = bench.build();
    let sketch = generate_sketch(Template::Dsp, arch, &spec).ok()?;
    let t = pipeline_depth(&spec);
    let task = SynthesisTask::over_window(&spec, &sketch, t, 2);
    let config = SynthesisConfig {
        solver,
        timeout: Some(scale.timeout(arch.name())),
        ..SynthesisConfig::default()
    };
    let start = Instant::now();
    let outcome = synthesize(&task, &config).ok()?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let stats = outcome.stats();
    Some(SatRun {
        arch: arch.name().to_string(),
        benchmark: bench.name.clone(),
        mode,
        verdict: outcome.verdict(),
        wall_ms,
        iterations: stats.iterations,
        conflicts: stats.conflicts,
        propagations: stats.propagations,
        restarts: stats.restarts,
        learnt_literals: stats.learnt_literals,
        minimized_literals: stats.minimized_literals,
        low_glue_clauses: stats.glue_histogram[0] + stats.glue_histogram[1],
        learnt_clauses: stats.glue_histogram.iter().sum(),
    })
}

/// Runs the comparison over the e2e mapping tier at `scale`: each benchmark once
/// under the modernized solver configuration, once under the old-style one.
pub fn run_sat_comparison(scale: Scale) -> SatComparison {
    let mut runs = Vec::new();
    for arch in Architecture::with_dsps() {
        for bench in scale.suite(arch.name()) {
            let pair: Vec<SatRun> = [("modern", modern_config()), ("legacy", legacy_config())]
                .into_iter()
                .filter_map(|(mode, cfg)| run_one(&arch, &bench, scale, mode, cfg))
                .collect();
            match pair.len() {
                2 => runs.extend(pair),
                0 => {}
                _ => eprintln!(
                    "warning: dropping unpaired sat runs for {}/{} (one mode failed)",
                    arch.name(),
                    bench.name
                ),
            }
        }
    }
    SatComparison { scale, runs }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(mode: &'static str, benchmark: &str, conflicts: u64, propagations: u64) -> SatRun {
        SatRun {
            arch: "intel_cyclone10lp".into(),
            benchmark: benchmark.into(),
            mode,
            verdict: Verdict::Success,
            wall_ms: 1.0,
            iterations: 1,
            conflicts,
            propagations,
            restarts: 1,
            learnt_literals: 10,
            minimized_literals: 3,
            low_glue_clauses: 2,
            learnt_clauses: 4,
        }
    }

    #[test]
    fn gates_pass_when_modern_wins_either_axis() {
        let cmp = SatComparison {
            scale: Scale::Quick,
            runs: vec![run("modern", "b", 10, 2000), run("legacy", "b", 20, 1000)],
        };
        assert!(cmp.gate_failures().is_empty(), "fewer conflicts suffices");
        let cmp = SatComparison {
            scale: Scale::Quick,
            runs: vec![run("modern", "b", 30, 500), run("legacy", "b", 20, 1000)],
        };
        assert!(cmp.gate_failures().is_empty(), "fewer propagations suffices");
    }

    #[test]
    fn gates_fail_when_modern_is_strictly_worse() {
        let cmp = SatComparison {
            scale: Scale::Quick,
            runs: vec![run("modern", "b", 30, 2000), run("legacy", "b", 20, 1000)],
        };
        assert!(!cmp.gate_failures().is_empty());
    }

    #[test]
    fn gates_fail_on_an_empty_comparison() {
        let cmp = SatComparison { scale: Scale::Quick, runs: Vec::new() };
        assert!(cmp.gate_failures().iter().any(|f| f.contains("measured nothing")));
    }

    #[test]
    fn gates_fail_on_verdict_drift() {
        let mut worse = run("legacy", "b", 20, 1000);
        worse.verdict = Verdict::Unsat;
        let cmp =
            SatComparison { scale: Scale::Quick, runs: vec![run("modern", "b", 10, 500), worse] };
        assert!(cmp.gate_failures().iter().any(|f| f.contains("verdict drift")));
    }

    #[test]
    fn json_report_is_well_formed() {
        let cmp = SatComparison {
            scale: Scale::Quick,
            runs: vec![run("modern", "b", 10, 500), run("legacy", "b", 20, 1000)],
        };
        let json = cmp.to_json();
        assert_eq!(json.get(&["total_conflicts_modern"]), Some(&Json::num(10)));
        assert_eq!(json.get(&["total_conflicts_legacy"]), Some(&Json::num(20)));
        assert_eq!(json.get(&["total_propagations_modern"]), Some(&Json::num(500)));
        assert_eq!(json.get(&["gates_pass"]), Some(&Json::Bool(true)));
        let text = json.render_indented();
        assert_eq!(text.matches("},\n").count(), 1);
        assert_eq!(Json::parse(&text).unwrap(), json);
    }

    #[test]
    fn comparison_runs_a_tiny_sweep() {
        let arch = Architecture::intel_cyclone10lp();
        let bench = &Scale::Quick.suite(arch.name())[0];
        let modern = run_one(&arch, bench, Scale::Quick, "modern", modern_config()).unwrap();
        let legacy = run_one(&arch, bench, Scale::Quick, "legacy", legacy_config()).unwrap();
        assert_eq!(modern.verdict, legacy.verdict);
        assert!(modern.propagations > 0 && legacy.propagations > 0);
    }
}
