//! The observability experiment: the flight recorder under a mixed workload,
//! recorded in `BENCH_obs.json`.
//!
//! The recorder's contract is *observation only*: turning on `--slow-ms` /
//! `--forensics-dir` must not change a single deterministic synthesis
//! counter. This experiment proves that end to end by running the **same**
//! mixed workload twice against fresh in-process daemons — once with
//! forensics off, once with `slow = 0` and a bundle directory — and
//! comparing the daemons' final deterministic counters field by field.
//!
//! The workload exercises every record shape the recorder knows:
//!
//! 1. **Cold phase** — K distinct suite mappings, each synthesized fresh.
//! 2. **Warm phase** — the same K again, all served from the shared cache.
//! 3. **Poison phase** — one job whose name is poisoned via
//!    [`lr_serve::set_poison_job`], so the worker panics inside its
//!    `catch_unwind` *before any synthesis* — a contained panic in both runs,
//!    contributing zero solver work to either.
//!
//! The forensics-on run additionally checks the observability surfaces
//! themselves: every completed request must leave a retrievable bundle
//! (`slow = 0` dumps everything), every per-id `forensics` fetch must return
//! the record with its span tree, and the `metrics` exposition must pass the
//! OpenMetrics line-checker ([`check_openmetrics`]).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use lakeroad::suite::suite_for;
use lakeroad::MapConfig;
use lr_arch::ArchName;
use lr_serve::{Daemon, DaemonClient, DaemonConfig, ForensicsConfig, Json};

use crate::{decimal, Record, Scale};

/// The deterministic counters compared between the forensics-off and
/// forensics-on runs, in a stable order.
pub type CounterMap = BTreeMap<&'static str, u64>;

/// One daemon run's observations.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The deterministic counters from the final `stats` document.
    pub counters: CounterMap,
    /// Admitted jobs (drain summary).
    pub accepted: u64,
    /// Answered jobs (drain summary); `accepted` after a graceful drain.
    pub completed: u64,
    /// Run wall-clock, milliseconds (reported, never gated).
    pub wall_ms: f64,
}

/// The full experiment record.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// The sweep scale.
    pub scale: Scale,
    /// Distinct suite mappings in the cold/warm phases.
    pub distinct: u64,
    /// The forensics-off control run.
    pub off: RunRecord,
    /// The forensics-on run.
    pub on: RunRecord,
    /// Field-wise mismatches between the two runs' deterministic counters.
    pub mismatches: Vec<String>,
    /// Bundles the forensics-on daemon reported written.
    pub bundles_written: u64,
    /// Bundle files actually present in the directory at shutdown.
    pub bundle_files: u64,
    /// Per-id forensics records successfully retrieved with span trees.
    pub records_retrieved: u64,
    /// Problems the OpenMetrics line-checker found in the exposition.
    pub metrics_errors: Vec<String>,
    /// Sample lines from the exposition (reported for eyeballing, ungated).
    pub metrics_lines: u64,
}

impl ObsReport {
    /// Jobs lost across both drains (must be 0).
    pub fn lost(&self) -> u64 {
        (self.off.accepted - self.off.completed) + (self.on.accepted - self.on.completed)
    }
}

impl Record for ObsReport {
    const PATH: &'static str = "BENCH_obs.json";

    fn to_json(&self) -> Json {
        let n = |v: u64| Json::Num(v as f64);
        let counters = self.on.counters.iter().map(|(&name, &value)| (name.to_string(), n(value)));
        Json::obj([
            ("scale", Json::str(format!("{:?}", self.scale))),
            ("distinct", n(self.distinct)),
            ("accepted", n(self.on.accepted)),
            ("completed", n(self.on.completed)),
            ("lost", n(self.lost())),
            ("counter_mismatches", Json::Num(self.mismatches.len() as f64)),
            ("bundles_written", n(self.bundles_written)),
            ("bundle_files", n(self.bundle_files)),
            ("records_retrieved", n(self.records_retrieved)),
            ("metrics_errors", Json::Num(self.metrics_errors.len() as f64)),
            ("metrics_lines", n(self.metrics_lines)),
            ("off_wall_ms", decimal(self.off.wall_ms, 3)),
            ("on_wall_ms", decimal(self.on.wall_ms, 3)),
            ("counters", Json::Obj(counters.collect())),
            ("gates_pass", Json::Bool(self.gate_failures().is_empty())),
        ])
    }

    fn gate_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if !self.mismatches.is_empty() {
            failures.push(format!(
                "forensics changed {} deterministic counter(s): {}",
                self.mismatches.len(),
                self.mismatches.join(", "),
            ));
        }
        // Cold + warm + poison, all completed, all dumped by `slow = 0`.
        let expected = 2 * self.distinct + 1;
        if self.on.completed != expected || self.off.completed != expected {
            failures.push(format!(
                "workload accounting: {} / {} completed, expected {expected} each",
                self.off.completed, self.on.completed,
            ));
        }
        if self.bundles_written != expected {
            failures.push(format!(
                "{} bundles written, expected one per completed request ({expected})",
                self.bundles_written,
            ));
        }
        if self.bundle_files == 0 {
            failures.push("no bundle files on disk".to_string());
        }
        if self.records_retrieved != self.distinct {
            failures.push(format!(
                "only {} of {} per-id forensics fetches returned a record with spans",
                self.records_retrieved, self.distinct,
            ));
        }
        if !self.metrics_errors.is_empty() {
            failures.push(format!(
                "OpenMetrics exposition rejected: {}",
                self.metrics_errors.join("; "),
            ));
        }
        if self.lost() != 0 {
            failures.push(format!("{} jobs lost across the drains", self.lost()));
        }
        failures
    }

    fn print_summary(&self) {
        println!(
            "\n-- Observability: {} distinct mappings + poison, forensics off vs on --",
            self.distinct
        );
        println!(
            "  off   {:8.1} ms  {} accepted / {} completed",
            self.off.wall_ms, self.off.accepted, self.off.completed,
        );
        println!(
            "  on    {:8.1} ms  {} accepted / {} completed, {} bundles, {} records fetched",
            self.on.wall_ms,
            self.on.accepted,
            self.on.completed,
            self.bundles_written,
            self.records_retrieved,
        );
        println!(
            "  identity: {} counter mismatches across {} deterministic counters",
            self.mismatches.len(),
            self.on.counters.len(),
        );
        println!(
            "  metrics: {} exposition lines, {} checker errors",
            self.metrics_lines,
            self.metrics_errors.len(),
        );
        for failure in self.gate_failures() {
            println!("  GATE FAILED: {failure}");
        }
    }
}

// ---------------------------------------------------------------------------
// OpenMetrics line-checker
// ---------------------------------------------------------------------------

/// Validates an OpenMetrics exposition: every line must be a comment or a
/// parseable `name{labels} value` sample, the document must end with `# EOF`,
/// and every histogram's `_bucket` series must be cumulative (non-decreasing)
/// with its `+Inf` bucket equal to `_count`. Returns the problems found.
pub fn check_openmetrics(text: &str) -> Vec<String> {
    let mut errors = Vec::new();
    if !text.ends_with("# EOF\n") {
        errors.push("missing `# EOF` terminator".to_string());
    }
    // (family+labels-minus-le) -> cumulative bucket values in document order.
    let mut buckets: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut counts: BTreeMap<String, f64> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((series, value_text)) = line.rsplit_once(' ') else {
            errors.push(format!("line {}: no value separator: `{line}`", lineno + 1));
            continue;
        };
        let value = match value_text {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            other => match other.parse::<f64>() {
                Ok(v) => v,
                Err(_) => {
                    errors.push(format!("line {}: unparseable value `{other}`", lineno + 1));
                    continue;
                }
            },
        };
        let name = series.split('{').next().unwrap_or(series);
        if name.is_empty()
            || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            errors.push(format!("line {}: invalid metric name `{name}`", lineno + 1));
            continue;
        }
        if let Some(family) = name.strip_suffix("_bucket") {
            // Identify the series by family plus its non-`le` labels so
            // labeled histograms don't get merged.
            let labels = series.strip_prefix(name).unwrap_or("");
            let others: Vec<&str> = labels
                .trim_start_matches('{')
                .trim_end_matches('}')
                .split(',')
                .filter(|l| !l.starts_with("le=") && !l.is_empty())
                .collect();
            buckets.entry(format!("{family}|{}", others.join(","))).or_default().push(value);
        } else if let Some(family) = name.strip_suffix("_count") {
            counts.insert(format!("{family}|"), value);
        }
    }
    for (key, series) in &buckets {
        let family = key.split('|').next().unwrap_or(key);
        if series.windows(2).any(|w| w[0] > w[1]) {
            errors.push(format!("histogram `{family}` buckets are not cumulative"));
        }
        if let (Some(&last), Some(&count)) = (series.last(), counts.get(key)) {
            if last != count {
                errors.push(format!("histogram `{family}` +Inf bucket {last} != _count {count}"));
            }
        }
    }
    errors
}

// ---------------------------------------------------------------------------
// The experiment
// ---------------------------------------------------------------------------

/// The poisoned job's suite bench (outside the cold/warm set, which starts at
/// width 8 — see [`run_obs_experiment`]).
const POISON_BENCH: &str = "mul_w18_s0";

fn request_payload(bench: &str, id: u64) -> String {
    format!(
        "{{\"kind\":\"map\",\"id\":{id},\"arch\":\"intel\",\"template\":\"dsp\",\
         \"bench\":\"{bench}\"}}"
    )
}

/// Pulls the deterministic counters out of a final `stats` document.
fn deterministic_counters(stats: &Json) -> CounterMap {
    let mut counters = CounterMap::new();
    let mut put = |name, path: &[&str]| {
        let value = stats.get(path).and_then(Json::as_f64).unwrap_or_default() as u64;
        counters.insert(name, value);
    };
    put("synth_iterations", &["synthesis", "iterations"]);
    put("synth_examples", &["synthesis", "examples"]);
    put("sat_conflicts", &["solver", "conflicts"]);
    put("sat_propagations", &["solver", "propagations"]);
    put("sat_restarts", &["solver", "restarts"]);
    put("cache_hits", &["cache", "hits"]);
    put("cache_misses", &["cache", "misses"]);
    put("cache_stores", &["cache", "stores"]);
    put("cache_served", &["cache", "served"]);
    put("verdict_success", &["verdicts", "success"]);
    put("verdict_unsat", &["verdicts", "unsat"]);
    put("verdict_timeout", &["verdicts", "timeout"]);
    put("verdict_error", &["verdicts", "error"]);
    put("accepted", &["requests", "accepted"]);
    put("completed", &["requests", "completed"]);
    counters
}

/// Drives the mixed workload against one daemon: cold, warm, poison. Returns
/// the final stats document and the drain summary's (accepted, completed).
fn run_workload(config: DaemonConfig, benches: &[String]) -> (Json, u64, u64, f64) {
    let start = std::time::Instant::now();
    let daemon = Daemon::bind(config).expect("daemon binds an ephemeral port");
    let addr = daemon.local_addr();
    let mut client = DaemonClient::connect(addr).expect("daemon accepts connections");

    // Cold then warm: ids 0..K and 100..100+K over the same benches.
    for (i, bench) in benches.iter().enumerate() {
        let doc = client.request(&request_payload(bench, i as u64)).expect("daemon responds");
        assert_eq!(doc.get(&["kind"]).and_then(Json::as_str), Some("mapped"), "{}", doc.render());
    }
    for (i, bench) in benches.iter().enumerate() {
        let doc = client.request(&request_payload(bench, 100 + i as u64)).expect("daemon responds");
        assert_eq!(doc.get(&["from_cache"]).and_then(Json::as_bool), Some(true), "warm miss");
    }
    // Poison: the worker panics inside its catch_unwind before any synthesis,
    // in this run AND the other one — identical zero contribution to both.
    lr_serve::set_poison_job(Some(&format!("bench:{POISON_BENCH}")));
    let doc = client.request(&request_payload(POISON_BENCH, 999)).expect("daemon responds");
    lr_serve::set_poison_job(None);
    assert_eq!(doc.get(&["verdict"]).and_then(Json::as_str), Some("error"), "{}", doc.render());

    let stats = client.request("{\"kind\":\"stats\"}").expect("stats responds");
    let summary = daemon.shutdown_and_wait();
    (stats, summary.accepted, summary.completed, start.elapsed().as_secs_f64() * 1e3)
}

/// The forensics-on run's extra checks: per-id retrieval and the metrics
/// exposition. Returns (bundles_written, records_retrieved, metrics_errors,
/// metrics_lines) — gathered over a live daemon, so this drives its own copy
/// of the workload.
fn run_forensic_workload(
    config: DaemonConfig,
    benches: &[String],
) -> (Json, u64, u64, f64, u64, u64, Vec<String>, u64) {
    let start = std::time::Instant::now();
    let daemon = Daemon::bind(config).expect("daemon binds an ephemeral port");
    let addr = daemon.local_addr();
    let mut client = DaemonClient::connect(addr).expect("daemon accepts connections");

    for (i, bench) in benches.iter().enumerate() {
        client.request(&request_payload(bench, i as u64)).expect("daemon responds");
    }
    for (i, bench) in benches.iter().enumerate() {
        client.request(&request_payload(bench, 100 + i as u64)).expect("daemon responds");
    }
    lr_serve::set_poison_job(Some(&format!("bench:{POISON_BENCH}")));
    client.request(&request_payload(POISON_BENCH, 999)).expect("daemon responds");
    lr_serve::set_poison_job(None);

    // Per-id retrieval: every warm id must come back with its span tree.
    let mut retrieved = 0u64;
    for i in 0..benches.len() {
        let payload = format!("{{\"kind\":\"forensics\",\"id\":{}}}", 100 + i);
        let doc = client.request(&payload).expect("forensics responds");
        let has_spans = doc
            .get(&["spans", "traceEvents"])
            .and_then(Json::as_arr)
            .is_some_and(|events| !events.is_empty());
        if doc.get(&["kind"]).and_then(Json::as_str) == Some("forensics") && has_spans {
            retrieved += 1;
        }
    }

    let metrics = client.request("{\"kind\":\"metrics\"}").expect("metrics responds");
    let text = metrics.get(&["text"]).and_then(Json::as_str).unwrap_or_default();
    let metrics_errors = check_openmetrics(text);
    let metrics_lines = text.lines().count() as u64;

    let listing = client.request("{\"kind\":\"forensics\"}").expect("forensics responds");
    let bundles_written =
        listing.get(&["bundles_written"]).and_then(Json::as_f64).unwrap_or_default() as u64;

    let stats = client.request("{\"kind\":\"stats\"}").expect("stats responds");
    let summary = daemon.shutdown_and_wait();
    (
        stats,
        summary.accepted,
        summary.completed,
        start.elapsed().as_secs_f64() * 1e3,
        bundles_written,
        retrieved,
        metrics_errors,
        metrics_lines,
    )
}

fn daemon_config(scale: Scale, forensics: ForensicsConfig) -> DaemonConfig {
    DaemonConfig {
        workers: 2,
        // Single solver: the identity claim compares solver counters between
        // two runs in one process, so the search must be reproducible.
        map: MapConfig::single_solver().with_timeout(scale.timeout(ArchName::IntelCyclone10Lp)),
        forensics,
        ..DaemonConfig::default()
    }
}

/// Runs the full experiment at `scale`: forensics-off control first, then the
/// forensics-on run with `slow = 0` and a temp bundle directory.
pub fn run_obs_experiment(scale: Scale) -> ObsReport {
    let distinct = match scale {
        Scale::Quick => 4usize,
        Scale::Smoke => 8,
        Scale::Full => 12,
    };
    let benches: Vec<String> = suite_for(ArchName::IntelCyclone10Lp, [8u32].into_iter())
        .into_iter()
        .take(distinct)
        .map(|b| b.name)
        .collect();
    assert_eq!(benches.len(), distinct, "the suite has enough mappings at this scale");
    assert!(!benches.contains(&POISON_BENCH.to_string()), "poison bench outside the set");

    // Control first: the forensics run enables span recording process-wide,
    // and the off-run should really be tracing-off.
    lr_trace::reset();
    let (off_stats, off_accepted, off_completed, off_wall) =
        run_workload(daemon_config(scale, ForensicsConfig::default()), &benches);

    let dir: PathBuf = std::env::temp_dir().join(format!("lr_exp_obs_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    lr_trace::reset();
    let forensics = ForensicsConfig {
        dir: Some(dir.clone()),
        slow: Some(Duration::ZERO),
        keep: 256,
        ring: 256,
    };
    let (
        on_stats,
        on_accepted,
        on_completed,
        on_wall,
        bundles_written,
        retrieved,
        metrics_errors,
        metrics_lines,
    ) = run_forensic_workload(daemon_config(scale, forensics), &benches);

    let bundle_files =
        std::fs::read_dir(&dir).map(|entries| entries.flatten().count() as u64).unwrap_or_default();
    let _ = std::fs::remove_dir_all(&dir);

    let off = RunRecord {
        counters: deterministic_counters(&off_stats),
        accepted: off_accepted,
        completed: off_completed,
        wall_ms: off_wall,
    };
    let on = RunRecord {
        counters: deterministic_counters(&on_stats),
        accepted: on_accepted,
        completed: on_completed,
        wall_ms: on_wall,
    };
    let mismatches = off
        .counters
        .iter()
        .filter(|&(name, off_value)| on.counters.get(name) != Some(off_value))
        .map(|(name, off_value)| {
            format!("{name} ({off_value} off vs {} on)", on.counters.get(name).unwrap_or(&0))
        })
        .collect();

    ObsReport {
        scale,
        distinct: distinct as u64,
        off,
        on,
        mismatches,
        bundles_written,
        bundle_files,
        records_retrieved: retrieved,
        metrics_errors,
        metrics_lines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(conflicts: u64) -> CounterMap {
        let mut map = CounterMap::new();
        map.insert("sat_conflicts", conflicts);
        map.insert("verdict_success", 8);
        map.insert("accepted", 9);
        map
    }

    fn sample_report() -> ObsReport {
        ObsReport {
            scale: Scale::Quick,
            distinct: 4,
            off: RunRecord { counters: counters(100), accepted: 9, completed: 9, wall_ms: 500.0 },
            on: RunRecord { counters: counters(100), accepted: 9, completed: 9, wall_ms: 520.0 },
            mismatches: Vec::new(),
            bundles_written: 9,
            bundle_files: 10,
            records_retrieved: 4,
            metrics_errors: Vec::new(),
            metrics_lines: 120,
        }
    }

    #[test]
    fn healthy_reports_pass_the_gates() {
        let report = sample_report();
        assert!(report.gate_failures().is_empty(), "{:?}", report.gate_failures());
        assert_eq!(report.lost(), 0);
    }

    #[test]
    fn each_gate_trips() {
        let mut drift = sample_report();
        drift.mismatches.push("sat_conflicts (100 off vs 120 on)".to_string());
        assert!(drift.gate_failures().iter().any(|f| f.contains("deterministic counter")));

        let mut unbundled = sample_report();
        unbundled.bundles_written = 5;
        assert!(unbundled.gate_failures().iter().any(|f| f.contains("bundles written")));

        let mut unfetched = sample_report();
        unfetched.records_retrieved = 2;
        assert!(unfetched.gate_failures().iter().any(|f| f.contains("per-id forensics")));

        let mut malformed = sample_report();
        malformed.metrics_errors.push("missing `# EOF` terminator".to_string());
        assert!(malformed.gate_failures().iter().any(|f| f.contains("OpenMetrics")));

        let mut lost = sample_report();
        lost.on.completed = 8;
        assert!(lost.gate_failures().iter().any(|f| f.contains("lost")));

        let mut short = sample_report();
        short.off.completed = 8;
        short.off.accepted = 8;
        assert!(short.gate_failures().iter().any(|f| f.contains("workload accounting")));
    }

    #[test]
    fn json_report_is_well_formed() {
        let json = sample_report().to_json();
        assert_eq!(json.get(&["gates_pass"]), Some(&Json::Bool(true)));
        assert_eq!(json.get(&["counter_mismatches"]), Some(&Json::num(0)));
        assert_eq!(json.get(&["counters", "sat_conflicts"]), Some(&Json::num(100)));
        assert_eq!(Json::parse(&json.render_indented()).unwrap(), json);
    }

    #[test]
    fn openmetrics_checker_accepts_a_valid_exposition() {
        let text = "# TYPE lakeroad_daemon_requests counter\n\
                    lakeroad_daemon_requests_total{kind=\"ping\"} 3\n\
                    # TYPE lakeroad_latency_us histogram\n\
                    lakeroad_latency_us_bucket{le=\"1\"} 1\n\
                    lakeroad_latency_us_bucket{le=\"2\"} 4\n\
                    lakeroad_latency_us_bucket{le=\"+Inf\"} 5\n\
                    lakeroad_latency_us_sum 12\n\
                    lakeroad_latency_us_count 5\n\
                    # EOF\n";
        assert_eq!(check_openmetrics(text), Vec::<String>::new());
    }

    #[test]
    fn openmetrics_checker_rejects_the_broken_shapes() {
        assert!(check_openmetrics("lakeroad_x 1\n").iter().any(|e| e.contains("EOF")));
        assert!(check_openmetrics("lakeroad_x notanumber\n# EOF\n")
            .iter()
            .any(|e| e.contains("unparseable value")));
        assert!(check_openmetrics("bad-name 1\n# EOF\n")
            .iter()
            .any(|e| e.contains("invalid metric name")));
        let non_monotone = "h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n\
                            h_bucket{le=\"+Inf\"} 5\nh_count 5\n# EOF\n";
        assert!(check_openmetrics(non_monotone).iter().any(|e| e.contains("not cumulative")));
        let count_drift = "h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 6\n# EOF\n";
        assert!(check_openmetrics(count_drift).iter().any(|e| e.contains("+Inf bucket")));
    }
}
