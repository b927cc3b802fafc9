//! The tracing-overhead experiment: prove that turning `lr_trace` on changes
//! **nothing** about what the synthesizer computes, and record what the spans
//! cost in wall time.
//!
//! Every benchmark of the DSP sweep runs twice through the same single-solver
//! CEGIS configuration (fixed seed, no timeout, no portfolio) — once with
//! tracing disabled, once enabled. The deterministic counters of the two runs
//! (verdict, iterations, examples, SAT conflicts/propagations, constraints
//! encoded) must be **bit-identical**: spans only observe the pipeline, they
//! must never steer it. The wall-clock overhead ratio is recorded but ungated —
//! it depends on the machine, and the identity gate is the one that matters.
//!
//! The traced pass must also actually produce spans: a run that reports zero
//! events (or loses one of the span names the CLI's stage summary is built on)
//! means the instrumentation quietly rotted, which is its own regression.

use std::collections::BTreeSet;
use std::time::Instant;

use lakeroad::suite::Microbenchmark;
use lakeroad::{generate_sketch, pipeline_depth, Template};
use lr_arch::Architecture;
use lr_serve::Json;
use lr_synth::{synthesize, SynthesisConfig, SynthesisTask, Verdict};

use crate::{decimal, Record, Scale};

/// Span names the traced pass must emit at least once over the sweep. These are
/// the names `lakeroad --trace`'s stage summary and the batch per-job breakdown
/// aggregate by; losing one silently would blind the observability surface.
pub const REQUIRED_SPANS: [&str; 5] =
    ["cegis", "cegis-iteration", "synth-check", "verify-check", "sat-check"];

/// The deterministic counters of one synthesis run, in one tracing mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceProbe {
    /// The run's verdict.
    pub verdict: Verdict,
    /// CEGIS iterations performed.
    pub iterations: usize,
    /// Counterexamples accumulated (including seeds).
    pub examples: usize,
    /// SAT conflicts across all checks.
    pub conflicts: u64,
    /// SAT unit propagations across all checks.
    pub propagations: u64,
    /// Example-equality constraints encoded.
    pub constraints_encoded: usize,
}

/// One benchmark's untraced/traced pair.
#[derive(Debug, Clone)]
pub struct TraceRun {
    /// Architecture name.
    pub arch: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Counters with tracing disabled.
    pub untraced: TraceProbe,
    /// Counters with tracing enabled.
    pub traced: TraceProbe,
    /// Untraced wall time (after warmup), milliseconds.
    pub untraced_wall_ms: f64,
    /// Traced wall time, milliseconds.
    pub traced_wall_ms: f64,
}

impl TraceRun {
    /// Whether the traced run reproduced the untraced counters exactly.
    pub fn identical(&self) -> bool {
        self.untraced == self.traced
    }
}

/// The full comparison: every benchmark of the sweep, both modes, plus the
/// span inventory of the traced pass.
#[derive(Debug, Clone)]
pub struct TraceComparison {
    /// The sweep scale.
    pub scale: Scale,
    /// Per-benchmark pairs.
    pub runs: Vec<TraceRun>,
    /// Span events recorded by the traced pass.
    pub traced_events: usize,
    /// Events lost to the bounded per-thread buffers (0 at every shipped scale).
    pub dropped_events: u64,
    /// [`REQUIRED_SPANS`] entries the traced pass never emitted.
    pub missing_spans: Vec<&'static str>,
}

impl TraceComparison {
    /// Benchmarks whose counters differed between modes.
    pub fn counter_mismatches(&self) -> usize {
        self.runs.iter().filter(|r| !r.identical()).count()
    }

    /// Total wall time of one mode, milliseconds.
    pub fn total_ms(&self, traced: bool) -> f64 {
        self.runs.iter().map(|r| if traced { r.traced_wall_ms } else { r.untraced_wall_ms }).sum()
    }

    /// Traced total wall time over untraced — the cost of observation.
    /// Recorded for the record, never gated.
    pub fn overhead_ratio(&self) -> f64 {
        let untraced = self.total_ms(false);
        if untraced <= 0.0 {
            return 1.0;
        }
        self.total_ms(true) / untraced
    }
}

impl Record for TraceComparison {
    const PATH: &'static str = "BENCH_trace.json";

    fn to_json(&self) -> Json {
        let runs = self.runs.iter().map(|r| {
            Json::obj([
                ("arch", Json::str(&r.arch)),
                ("benchmark", Json::str(&r.benchmark)),
                ("verdict", Json::str(r.untraced.verdict.name())),
                ("iterations", Json::Num(r.untraced.iterations as f64)),
                ("examples", Json::Num(r.untraced.examples as f64)),
                ("conflicts", Json::Num(r.untraced.conflicts as f64)),
                ("propagations", Json::Num(r.untraced.propagations as f64)),
                ("constraints_encoded", Json::Num(r.untraced.constraints_encoded as f64)),
                ("identical", Json::Bool(r.identical())),
                ("untraced_wall_ms", decimal(r.untraced_wall_ms, 3)),
                ("traced_wall_ms", decimal(r.traced_wall_ms, 3)),
            ])
        });
        Json::obj([
            ("scale", Json::str(format!("{:?}", self.scale))),
            ("untraced_total_ms", decimal(self.total_ms(false), 3)),
            ("traced_total_ms", decimal(self.total_ms(true), 3)),
            ("overhead_ratio", decimal(self.overhead_ratio(), 4)),
            ("traced_events", Json::Num(self.traced_events as f64)),
            ("dropped_events", Json::Num(self.dropped_events as f64)),
            ("counter_mismatches", Json::Num(self.counter_mismatches() as f64)),
            (
                "missing_spans",
                Json::Arr(self.missing_spans.iter().map(|&s| Json::str(s)).collect()),
            ),
            ("gates_pass", Json::Bool(self.gate_failures().is_empty())),
            ("benchmarks", Json::Arr(runs.collect())),
        ])
    }

    /// The experiment's own verdict: counters identical, spans present.
    fn gate_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if self.runs.is_empty() {
            failures.push("no benchmark produced an untraced/traced pair".to_string());
        }
        if self.counter_mismatches() > 0 {
            failures.push(format!(
                "{} benchmark(s) changed a deterministic counter under tracing",
                self.counter_mismatches()
            ));
        }
        if self.traced_events == 0 {
            failures.push("the traced pass recorded no span events".to_string());
        }
        if !self.missing_spans.is_empty() {
            failures.push(format!("required spans never emitted: {:?}", self.missing_spans));
        }
        failures
    }

    fn print_summary(&self) {
        println!("\n-- Tracing overhead and identity ({:?} scale) --", self.scale);
        println!("  {:44} {:>12} {:>12} {:>10}", "benchmark", "off (ms)", "on (ms)", "identical");
        for r in &self.runs {
            println!(
                "  {:44} {:>12.2} {:>12.2} {:>10}",
                format!("{}/{}", r.arch, r.benchmark),
                r.untraced_wall_ms,
                r.traced_wall_ms,
                if r.identical() { "yes" } else { "NO" }
            );
        }
        println!(
            "  total: untraced {:.1} ms, traced {:.1} ms, overhead {:.2}x; \
             {} events recorded ({} dropped)",
            self.total_ms(false),
            self.total_ms(true),
            self.overhead_ratio(),
            self.traced_events,
            self.dropped_events
        );
        if !self.missing_spans.is_empty() {
            println!("  MISSING SPANS: {:?}", self.missing_spans);
        }
        for failure in self.gate_failures() {
            println!("  GATE FAILED: {failure}");
        }
    }
}

fn run_one(arch: &Architecture, bench: &Microbenchmark) -> Option<(TraceProbe, f64)> {
    let spec = bench.build();
    let sketch = generate_sketch(Template::Dsp, arch, &spec).ok()?;
    let t = pipeline_depth(&spec);
    let task = SynthesisTask::over_window(&spec, &sketch, t, 2);
    // No timeout: the identity gate needs counters that depend only on the
    // seed, never on the clock. The default iteration cap still bounds the run.
    let config = SynthesisConfig { timeout: None, ..SynthesisConfig::default() };
    let start = Instant::now();
    let outcome = synthesize(&task, &config).ok()?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let stats = outcome.stats();
    Some((
        TraceProbe {
            verdict: outcome.verdict(),
            iterations: stats.iterations,
            examples: stats.examples,
            conflicts: stats.conflicts,
            propagations: stats.propagations,
            constraints_encoded: stats.constraints_encoded,
        },
        wall_ms,
    ))
}

/// Runs the comparison over the DSP sweep at `scale`: each benchmark once with
/// tracing off, once with tracing on, then inventories the recorded spans.
pub fn run_trace_comparison(scale: Scale) -> TraceComparison {
    // Start from a clean slate: the identity gate measures *this* experiment's
    // runs, not whatever a previous consumer of the process-global tracer left
    // behind.
    lr_trace::set_enabled(false);
    lr_trace::flush();
    let _ = lr_trace::take_events();

    let mut runs = Vec::new();
    for arch in Architecture::with_dsps() {
        for bench in scale.suite(arch.name()) {
            // Untimed warmup so neither timed mode pays first-touch costs.
            let _ = run_one(&arch, &bench);
            let untraced = run_one(&arch, &bench);
            lr_trace::set_enabled(true);
            let traced = run_one(&arch, &bench);
            lr_trace::set_enabled(false);
            if let (Some((u, u_ms)), Some((t, t_ms))) = (untraced, traced) {
                runs.push(TraceRun {
                    arch: arch.name().to_string(),
                    benchmark: bench.name.clone(),
                    untraced: u,
                    traced: t,
                    untraced_wall_ms: u_ms,
                    traced_wall_ms: t_ms,
                });
            }
        }
    }

    lr_trace::flush();
    let events = lr_trace::take_events();
    let seen: BTreeSet<&str> = events.iter().map(|e| e.name).collect();
    let missing_spans: Vec<&'static str> =
        REQUIRED_SPANS.into_iter().filter(|name| !seen.contains(name)).collect();
    TraceComparison {
        scale,
        runs,
        traced_events: events.len(),
        dropped_events: lr_trace::dropped_events(),
        missing_spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(conflicts: u64) -> TraceProbe {
        TraceProbe {
            verdict: Verdict::Success,
            iterations: 2,
            examples: 5,
            conflicts,
            propagations: 400,
            constraints_encoded: 10,
        }
    }

    fn comparison(traced_conflicts: u64, traced_events: usize) -> TraceComparison {
        TraceComparison {
            scale: Scale::Quick,
            runs: vec![TraceRun {
                arch: "intel_cyclone10lp".into(),
                benchmark: "mul_w8_s0".into(),
                untraced: probe(34),
                traced: probe(traced_conflicts),
                untraced_wall_ms: 10.0,
                traced_wall_ms: 11.0,
            }],
            traced_events,
            dropped_events: 0,
            missing_spans: Vec::new(),
        }
    }

    #[test]
    fn identical_counters_pass_and_any_drift_fails() {
        let good = comparison(34, 120);
        assert_eq!(good.counter_mismatches(), 0);
        assert!(good.gate_failures().is_empty());
        assert!((good.overhead_ratio() - 1.1).abs() < 1e-9);

        // One conflict of drift is a gate failure, not a tolerance question.
        let bad = comparison(35, 120);
        assert_eq!(bad.counter_mismatches(), 1);
        assert!(!bad.gate_failures().is_empty());

        // A traced pass that recorded nothing means the spans rotted.
        let silent = comparison(34, 0);
        assert!(!silent.gate_failures().is_empty());

        let mut blind = comparison(34, 120);
        blind.missing_spans.push("sat-check");
        assert!(!blind.gate_failures().is_empty());
    }

    #[test]
    fn json_record_is_well_formed() {
        let json = comparison(34, 120).to_json();
        assert_eq!(json.get(&["counter_mismatches"]), Some(&Json::num(0)));
        assert_eq!(json.get(&["overhead_ratio"]), Some(&Json::num(1.1)));
        assert_eq!(json.get(&["gates_pass"]), Some(&Json::Bool(true)));
        let runs = json.get(&["benchmarks"]).and_then(Json::as_arr).unwrap();
        assert_eq!(runs[0].get(&["identical"]), Some(&Json::Bool(true)));
        let text = json.render_indented();
        assert!(text.contains("\"missing_spans\": []"));
        // The gate reads the written record back verbatim.
        assert_eq!(Json::parse(&text).unwrap(), json);
    }

    #[test]
    fn a_tiny_sweep_reproduces_counters_under_tracing() {
        // The cheapest DSP benchmark, both modes, through the real pipeline.
        // Serialize against other tests of this crate that toggle the
        // process-global tracer: drive the toggles locally and tolerate
        // whatever the ambient enabled state is by comparing counters only.
        let arch = Architecture::intel_cyclone10lp();
        let bench = &Scale::Quick.suite(arch.name())[0];
        let (untraced, _) = run_one(&arch, bench).unwrap();
        lr_trace::set_enabled(true);
        let (traced, _) = run_one(&arch, bench).unwrap();
        lr_trace::set_enabled(false);
        assert_eq!(untraced, traced);
    }
}
