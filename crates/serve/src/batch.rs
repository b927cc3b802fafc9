//! The batch front end: manifest parsing and batch reporting for
//! `lakeroad batch <manifest>`.
//!
//! A manifest is a line-oriented text file; each non-comment line names one
//! mapping job:
//!
//! ```text
//! # design                     architecture          template  [options…]
//! designs/add_mul_and.v        xilinx-ultrascale-plus dsp      priority=2
//! designs/mac.v                lattice-ecp5           auto     timeout=40
//! bench:mul_w8_s1              intel-cyclone10lp      dsp      deadline=15
//! ```
//!
//! The design column is a Verilog file (resolved relative to the manifest), a
//! structural netlist (`.aag`/`.aig`/`.bench`, also manifest-relative), or
//! `bench:<name>`, one of the §5.1 microbenchmarks of the chosen architecture.
//! Options: `priority=<0-255>` (higher first), `timeout=<secs>` (per-job
//! budget), `deadline=<secs>` (wall-clock, relative to batch start),
//! `name=<label>` (report label; defaults to the design column).

use std::path::Path;
use std::time::Duration;

use lakeroad::report::summarize_timing;
use lakeroad::{DesignSource, MapOutcome, Template};
use lr_arch::{ArchName, Architecture};

use crate::cache::CacheSnapshot;
use crate::scheduler::{BatchJob, BatchRun, JobResult, TemplateChoice};

/// Parses an architecture column (the CLI spellings of `--arch-desc`).
pub fn parse_arch_name(name: &str) -> Option<ArchName> {
    let name = name.trim_end_matches(".yml").trim_end_matches(".yaml");
    Some(match name {
        "xilinx-ultrascale-plus" | "xilinx" => ArchName::XilinxUltraScalePlus,
        "lattice-ecp5" | "lattice" | "ecp5" => ArchName::LatticeEcp5,
        "intel-cyclone10lp" | "intel" | "cyclone10lp" => ArchName::IntelCyclone10Lp,
        "sofa" => ArchName::Sofa,
        _ => return None,
    })
}

/// Parses a template column: a named template or `auto`.
pub fn parse_template(name: &str) -> Option<TemplateChoice> {
    if name == "auto" {
        return Some(TemplateChoice::Auto);
    }
    Template::from_cli_name(name).map(TemplateChoice::Named)
}

/// Parses a manifest into batch jobs. `base` anchors relative Verilog paths
/// (pass the manifest's directory).
///
/// # Errors
/// Returns a message naming the offending line for unreadable designs, unknown
/// architectures/templates, and malformed options.
pub fn parse_manifest(text: &str, base: &Path) -> Result<Vec<BatchJob>, String> {
    let mut jobs = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let at = |msg: String| format!("manifest line {}: {msg}", lineno + 1);
        let mut fields = line.split_whitespace();
        let design = fields.next().expect("non-empty line has a first field");
        let arch_field = fields.next().ok_or_else(|| at("missing architecture column".into()))?;
        let template_field = fields.next().ok_or_else(|| at("missing template column".into()))?;
        let arch_name = parse_arch_name(arch_field)
            .ok_or_else(|| at(format!("unknown architecture `{arch_field}`")))?;
        let template = parse_template(template_field)
            .ok_or_else(|| at(format!("unknown template `{template_field}`")))?;

        // One resolver for every design spelling: `bench:<name>`, a Verilog
        // path, or a structural netlist path (`.aag`/`.aig`/`.bench`).
        let spec = DesignSource::from_spec(design, base).resolve(arch_name).map_err(&at)?;

        let mut job = BatchJob::new(design, spec, Architecture::load(arch_name), template);
        for option in fields {
            let (key, value) = option
                .split_once('=')
                .ok_or_else(|| at(format!("malformed option `{option}` (expected key=value)")))?;
            match key {
                "priority" => {
                    job.priority = value
                        .parse()
                        .map_err(|_| at(format!("priority `{value}` is not 0-255")))?;
                }
                "timeout" => {
                    let secs: u64 = value
                        .parse()
                        .map_err(|_| at(format!("timeout `{value}` is not a number of seconds")))?;
                    job.timeout = Some(Duration::from_secs(secs));
                }
                "deadline" => {
                    let secs: u64 = value.parse().map_err(|_| {
                        at(format!("deadline `{value}` is not a number of seconds"))
                    })?;
                    job.deadline = Some(Duration::from_secs(secs));
                }
                "name" => job.name = value.to_string(),
                other => return Err(at(format!("unknown option `{other}`"))),
            }
        }
        jobs.push(job);
    }
    Ok(jobs)
}

/// Aggregate statistics of one batch run: verdict tallies, throughput, and the
/// cached-vs-synthesized latency split the `from_cache` flags make possible.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Jobs in the batch.
    pub jobs: usize,
    /// Successful mappings.
    pub successes: usize,
    /// UNSAT verdicts.
    pub unsats: usize,
    /// Solver timeouts.
    pub timeouts: usize,
    /// Jobs that could not be posed.
    pub errors: usize,
    /// Jobs whose deadline expired before they ran.
    pub deadline_expired: usize,
    /// Jobs drained by cancellation.
    pub cancelled: usize,
    /// Verdicts served from the synthesis cache.
    pub cache_served: usize,
    /// Wall-clock time of the batch.
    pub wall: Duration,
    /// Worker threads used.
    pub workers: usize,
    /// Per-job execution times of *synthesized* verdicts.
    pub synth_latencies: Vec<Duration>,
    /// Per-job execution times of *cache-served* verdicts.
    pub cached_latencies: Vec<Duration>,
    /// Cache counter deltas over the batch, when a cache was installed.
    pub cache: Option<CacheSnapshot>,
    /// Per-job stage breakdowns, populated by [`BatchReport::attach_trace`]
    /// when the batch ran with tracing enabled. Empty otherwise.
    pub stages: Vec<JobStages>,
}

/// Aggregated span durations of one job, grouped by stage name.
#[derive(Debug, Clone)]
pub struct JobStages {
    /// Submission index of the job.
    pub index: usize,
    /// Job name.
    pub name: String,
    /// `(stage, total time, span count)` per stage, longest total first.
    pub totals: Vec<(&'static str, Duration, u64)>,
}

impl BatchReport {
    /// Builds the report from a run, optionally with the cache counter delta
    /// accumulated during it.
    pub fn from_run(run: &BatchRun, cache: Option<CacheSnapshot>) -> BatchReport {
        let mut report = BatchReport {
            jobs: run.records.len(),
            successes: 0,
            unsats: 0,
            timeouts: 0,
            errors: 0,
            deadline_expired: 0,
            cancelled: 0,
            cache_served: 0,
            wall: run.wall,
            workers: run.workers,
            synth_latencies: Vec::new(),
            cached_latencies: Vec::new(),
            cache,
            stages: Vec::new(),
        };
        for record in &run.records {
            match &record.result {
                JobResult::Finished(outcome) => {
                    match outcome {
                        MapOutcome::Success(_) => report.successes += 1,
                        MapOutcome::Unsat { .. } => report.unsats += 1,
                        MapOutcome::Timeout { .. } => report.timeouts += 1,
                    }
                    if outcome.served_from_cache() {
                        report.cache_served += 1;
                        report.cached_latencies.push(record.elapsed);
                    } else {
                        report.synth_latencies.push(record.elapsed);
                    }
                }
                JobResult::Error(_) => report.errors += 1,
                JobResult::DeadlineExpired => report.deadline_expired += 1,
                JobResult::Cancelled => report.cancelled += 1,
            }
        }
        report
    }

    /// Jobs per second of batch wall time.
    pub fn throughput(&self) -> f64 {
        self.jobs as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Attributes a span buffer back to the run's jobs: the scheduler sets the
    /// trace context of everything under job *i* to `i + 1`, so grouping by
    /// `ctx` yields each job's stage-by-stage time. Events with `ctx` 0 (or
    /// beyond the batch) are ignored.
    pub fn attach_trace(&mut self, run: &BatchRun, events: &[lr_trace::TraceEvent]) {
        self.stages = run
            .records
            .iter()
            .map(|record| {
                let mut totals: Vec<(&'static str, Duration, u64)> = Vec::new();
                for e in events.iter().filter(|e| e.ctx == record.index as u64 + 1) {
                    match totals.iter_mut().find(|(stage, ..)| *stage == e.name) {
                        Some((_, total, count)) => {
                            *total += Duration::from_nanos(e.dur_ns);
                            *count += 1;
                        }
                        None => totals.push((e.name, Duration::from_nanos(e.dur_ns), 1)),
                    }
                }
                totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
                JobStages { index: record.index, name: record.name.clone(), totals }
            })
            .collect();
    }

    /// Renders the human-readable report the CLI prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "batch: {} jobs on {} workers in {:.2?}  ({:.2} jobs/s)\n",
            self.jobs,
            self.workers,
            self.wall,
            self.throughput(),
        ));
        out.push_str(&format!(
            "verdicts: {} success / {} unsat / {} timeout / {} error / {} expired / {} cancelled\n",
            self.successes,
            self.unsats,
            self.timeouts,
            self.errors,
            self.deadline_expired,
            self.cancelled,
        ));
        if let Some(t) = summarize_timing(&self.synth_latencies) {
            out.push_str(&format!(
                "synthesized: {}  (median {:.3} s, min {:.3} s, max {:.3} s)\n",
                self.synth_latencies.len(),
                t.median_s,
                t.min_s,
                t.max_s
            ));
        }
        if let Some(t) = summarize_timing(&self.cached_latencies) {
            out.push_str(&format!(
                "cache-served: {}  (median {:.3} s, min {:.3} s, max {:.3} s)\n",
                self.cached_latencies.len(),
                t.median_s,
                t.min_s,
                t.max_s
            ));
        }
        if let Some(c) = &self.cache {
            out.push_str(&format!(
                "cache: {} hits / {} misses ({:.1}% hit rate), {} stores, {} invalidations, \
                 {} evictions\n",
                c.hits,
                c.misses,
                100.0 * c.hit_rate(),
                c.stores,
                c.invalidations,
                c.evictions,
            ));
        }
        if !self.stages.is_empty() {
            out.push_str("per-job stages (traced):\n");
            for job in &self.stages {
                out.push_str(&format!("  [{}] {}:", job.index, job.name));
                if job.totals.is_empty() {
                    out.push_str(" no spans recorded");
                }
                for (stage, total, count) in &job.totals {
                    out.push_str(&format!(" {stage} {:.1}ms x{count};", total.as_secs_f64() * 1e3));
                }
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{run_batch, BatchOptions};
    use lakeroad::MapConfig;

    #[test]
    fn manifest_parses_paths_benches_and_options() {
        let dir = std::env::temp_dir().join("lr_serve_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("mul.v"),
            "module mul8(input clk, input [7:0] a, b, output [7:0] out);\n  assign out = a * b;\nendmodule\n",
        )
        .unwrap();
        let manifest = "\
# a comment line
mul.v intel-cyclone10lp dsp priority=3 timeout=9 name=from_file

bench:mul_w8_s0 intel-cyclone10lp auto deadline=30  # trailing comment
";
        let jobs = parse_manifest(manifest, &dir).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].name, "from_file");
        assert_eq!(jobs[0].priority, 3);
        assert_eq!(jobs[0].timeout, Some(Duration::from_secs(9)));
        assert!(matches!(jobs[0].template, TemplateChoice::Named(Template::Dsp)));
        assert_eq!(jobs[1].name, "bench:mul_w8_s0");
        assert_eq!(jobs[1].deadline, Some(Duration::from_secs(30)));
        assert!(matches!(jobs[1].template, TemplateChoice::Auto));
    }

    #[test]
    fn manifest_errors_name_the_line() {
        let base = Path::new(".");
        for (manifest, needle) in [
            ("x.v nope dsp", "unknown architecture"),
            ("x.v intel nope", "unknown template"),
            ("bench:missing intel dsp", "no microbenchmark"),
            ("x.v intel", "missing template"),
            ("bench:mul_w8_s0 intel dsp weird", "malformed option"),
            ("bench:mul_w8_s0 intel dsp pri=2", "unknown option"),
            ("bench:mul_w8_s0 intel dsp timeout=abc", "not a number"),
        ] {
            let err = parse_manifest(manifest, base).unwrap_err();
            assert!(err.contains(needle), "{manifest}: {err}");
            assert!(err.contains("line 1"), "{manifest}: {err}");
        }
    }

    #[test]
    fn attach_trace_groups_spans_by_job_context() {
        let jobs = crate::scenario::suite_jobs(ArchName::IntelCyclone10Lp, 2);
        let opts =
            BatchOptions::new(1, MapConfig::single_solver().with_timeout(Duration::from_secs(30)));
        let run = run_batch(&jobs, &opts);
        let mut report = BatchReport::from_run(&run, None);
        // Synthetic events: the scheduler stamps job i's spans with ctx i+1.
        let ev = |name, ctx, dur_ns| lr_trace::TraceEvent {
            name,
            tid: 1,
            ctx,
            depth: 0,
            start_ns: 0,
            dur_ns,
            attrs: Vec::new(),
        };
        let events = vec![
            ev("job", 1, 5_000_000),
            ev("cegis", 1, 3_000_000),
            ev("sat-check", 1, 1_000_000),
            ev("sat-check", 1, 2_000_000),
            ev("job", 2, 1_000_000),
            ev("stray", 0, 9_000_000), // unattributed: must be ignored
        ];
        report.attach_trace(&run, &events);
        assert_eq!(report.stages.len(), 2);
        let first = &report.stages[0];
        assert_eq!(first.index, 0);
        assert_eq!(first.totals[0], ("job", Duration::from_millis(5), 1));
        assert!(first.totals.contains(&("sat-check", Duration::from_millis(3), 2)));
        assert_eq!(report.stages[1].totals, vec![("job", Duration::from_millis(1), 1)]);
        let rendered = report.render();
        assert!(rendered.contains("per-job stages"));
        assert!(rendered.contains("sat-check 3.0ms x2;"));
        assert!(!rendered.contains("stray"));
    }

    #[test]
    fn report_tallies_a_run() {
        let mut jobs = crate::scenario::suite_jobs(ArchName::IntelCyclone10Lp, 2);
        jobs[1].deadline = Some(Duration::ZERO);
        let opts =
            BatchOptions::new(2, MapConfig::single_solver().with_timeout(Duration::from_secs(30)));
        let run = run_batch(&jobs, &opts);
        let report = BatchReport::from_run(&run, None);
        assert_eq!(report.jobs, 2);
        assert_eq!(report.successes, 1);
        assert_eq!(report.deadline_expired, 1);
        assert_eq!(report.cache_served, 0);
        let rendered = report.render();
        assert!(rendered.contains("2 jobs"));
        assert!(rendered.contains("1 success"));
        assert!(rendered.contains("1 expired"));
    }
}
