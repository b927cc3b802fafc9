//! Integration tests for the flight recorder and the new observability
//! surfaces: real TCP connections against in-process [`Daemon`] instances,
//! with `--slow-ms 0` forensics, worker-panic injection, and the
//! `metrics`/`forensics` protocol kinds.

use std::path::{Path, PathBuf};
use std::time::Duration;

use lakeroad::MapConfig;
use lr_serve::{Daemon, DaemonClient, DaemonConfig, ForensicsConfig, JobVerdict, Json};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lr_forensics_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn forensic_config(dir: &Path) -> DaemonConfig {
    DaemonConfig {
        workers: 2,
        map: MapConfig::single_solver().with_timeout(Duration::from_secs(30)),
        forensics: ForensicsConfig {
            dir: Some(dir.to_path_buf()),
            // Threshold 0: every completed request breaches it, so every
            // request leaves a bundle — the `--slow-ms 0` firehose mode.
            slow: Some(Duration::ZERO),
            keep: 16,
            ring: 16,
        },
        ..DaemonConfig::default()
    }
}

fn map_request(id: u64) -> String {
    format!(
        "{{\"kind\":\"map\",\"id\":{id},\"arch\":\"intel\",\"template\":\"dsp\",\
         \"bench\":\"mul_w8_s0\"}}"
    )
}

fn kind(doc: &Json) -> &str {
    doc.get(&["kind"]).and_then(Json::as_str).unwrap_or("?")
}

#[test]
fn slow_ms_zero_dumps_a_retrievable_bundle_per_request() {
    let dir = temp_dir("slow0");
    let daemon = Daemon::bind(forensic_config(&dir)).unwrap();
    let mut client = DaemonClient::connect(daemon.local_addr()).unwrap();

    let doc = client.request(&map_request(7)).unwrap();
    assert_eq!(kind(&doc), "mapped", "{}", doc.render());
    assert_eq!(doc.get(&["verdict"]).and_then(Json::as_str), Some("success"));

    // The listing shows the record and the on-disk bundle.
    let listing = client.request("{\"kind\":\"forensics\"}").unwrap();
    assert_eq!(kind(&listing), "forensics", "{}", listing.render());
    let records = listing.get(&["records"]).and_then(Json::as_arr).unwrap();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].get(&["trigger"]).and_then(Json::as_str), Some("slow"));
    assert_eq!(listing.get(&["bundles_written"]).and_then(Json::as_f64), Some(1.0));
    let bundles = listing.get(&["bundles"]).and_then(Json::as_arr).unwrap();
    assert_eq!(bundles.len(), 1);

    // Fetch by correlation id: the full record with span tree and counters.
    let full = client.request("{\"kind\":\"forensics\",\"id\":7}").unwrap();
    assert_eq!(kind(&full), "forensics", "{}", full.render());
    assert_eq!(full.get(&["verdict"]).and_then(Json::as_str), Some("success"));
    assert_eq!(full.get(&["arch"]).and_then(Json::as_str), Some("Intel Cyclone 10 LP"));
    assert_eq!(full.get(&["template"]).and_then(Json::as_str), Some("dsp"));
    let design = full.get(&["design"]).and_then(Json::as_str).unwrap();
    assert_eq!(design.len(), 32, "32-hex-digit design hash: {design}");
    assert!(full.get(&["counters", "iterations"]).and_then(Json::as_f64).unwrap() >= 1.0);
    let spans = full.get(&["spans", "traceEvents"]).and_then(Json::as_arr).unwrap();
    let names: Vec<&str> = spans.iter().filter_map(|e| e.get(&["name"])?.as_str()).collect();
    assert!(names.contains(&"daemon-request"), "span tree captured: {names:?}");
    assert!(names.contains(&"cegis"), "synthesis spans attributed to the job: {names:?}");

    // An unknown correlation id is a protocol error, not a crash.
    let missing = client.request("{\"kind\":\"forensics\",\"id\":999}").unwrap();
    assert_eq!(kind(&missing), "error");

    // The bundle on disk is JSONL: a header line plus span lines.
    let bundle_name = bundles[0].as_str().unwrap();
    assert!(bundle_name.contains("seq000000-slow"), "{bundle_name}");
    let text = std::fs::read_to_string(dir.join(bundle_name)).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 2, "header + spans: {}", lines.len());
    let header = Json::parse(lines[0]).unwrap();
    assert_eq!(header.get(&["id"]).and_then(Json::as_f64), Some(7.0));
    for span_line in &lines[1..] {
        Json::parse(span_line).expect("every span line parses");
    }

    let summary = daemon.shutdown_and_wait();
    assert_eq!(summary.lost(), 0);
    // The drain wrote a final whole-ring bundle alongside the per-request one.
    let drained: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains("drain"))
        .collect();
    assert_eq!(drained.len(), 1, "final sync bundle: {drained:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_panic_is_contained_and_lands_in_a_bundle_with_its_span_tree() {
    let dir = temp_dir("panic");
    let daemon = Daemon::bind(forensic_config(&dir)).unwrap();
    let mut client = DaemonClient::connect(daemon.local_addr()).unwrap();

    // The daemon names bench jobs `bench:<name>`; poisoning that name makes
    // the worker panic inside `execute_job`'s catch_unwind, before any
    // synthesis.
    lr_serve::set_poison_job(Some("bench:mul_w9_s0"));
    let poisoned = "{\"kind\":\"map\",\"id\":13,\"arch\":\"intel\",\"template\":\"dsp\",\
         \"bench\":\"mul_w9_s0\"}";
    let doc = client.request(poisoned).unwrap();
    lr_serve::set_poison_job(None);
    assert_eq!(kind(&doc), "mapped", "{}", doc.render());
    assert_eq!(doc.get(&["verdict"]).and_then(Json::as_str), Some("error"));
    // The panic's own message survives containment.
    let message = "poison job `bench:mul_w9_s0` injected a panic";
    let error = doc.get(&["error"]).and_then(Json::as_str).unwrap();
    assert!(error.contains(message), "{error}");

    // The daemon survived: the next request on the same connection works.
    let ok = client.request(&map_request(14)).unwrap();
    assert_eq!(ok.get(&["verdict"]).and_then(Json::as_str), Some("success"));

    let full = client.request("{\"kind\":\"forensics\",\"id\":13}").unwrap();
    assert_eq!(full.get(&["verdict"]).and_then(Json::as_str), Some("error"));
    assert_eq!(full.get(&["panicked"]).and_then(Json::as_bool), Some(true));
    assert_eq!(full.get(&["trigger"]).and_then(Json::as_str), Some("panic"));
    let error = full.get(&["error"]).and_then(Json::as_str).unwrap();
    assert!(error.contains("panicked"), "{error}");
    assert!(error.contains(message), "{error}");
    let spans = full.get(&["spans", "traceEvents"]).and_then(Json::as_arr).unwrap();
    let names: Vec<&str> = spans.iter().filter_map(|e| e.get(&["name"])?.as_str()).collect();
    assert!(names.contains(&"daemon-request"), "panicked job still has spans: {names:?}");

    // And the panic bundle is on disk.
    let panics: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains("panic"))
        .collect();
    assert_eq!(panics.len(), 1, "{panics:?}");

    let summary = daemon.shutdown_and_wait();
    assert_eq!(summary.lost(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_exposition_is_openmetrics_text_and_stats_report_rates() {
    let dir = temp_dir("metrics");
    let daemon = Daemon::bind(forensic_config(&dir)).unwrap();
    let mut client = DaemonClient::connect(daemon.local_addr()).unwrap();

    let doc = client.request(&map_request(1)).unwrap();
    assert_eq!(doc.get(&["verdict"]).and_then(Json::as_str), Some("success"));

    let metrics = client.request("{\"kind\":\"metrics\",\"id\":42}").unwrap();
    assert_eq!(kind(&metrics), "metrics");
    assert_eq!(metrics.get(&["id"]).and_then(Json::as_f64), Some(42.0));
    assert!(metrics
        .get(&["content_type"])
        .and_then(Json::as_str)
        .unwrap()
        .starts_with("application/openmetrics-text"));
    let text = metrics.get(&["text"]).and_then(Json::as_str).unwrap();
    assert!(text.ends_with("# EOF\n"), "terminated exposition");
    assert!(text.contains("# TYPE lakeroad_daemon_requests counter"), "{text}");
    assert!(
        text.contains("lakeroad_daemon_jobs_total{outcome=\"completed\"} 1"),
        "completed job counted"
    );
    assert!(text.contains("lakeroad_daemon_request_latency_us_bucket"), "histogram buckets");
    assert!(text.contains("lakeroad_daemon_forensics_bundles_written_total 1"), "{text}");

    // Every line is a comment, blank, or `name{labels} value`.
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let value = line.rsplit(' ').next().unwrap();
        assert!(value.parse::<f64>().is_ok(), "unparseable sample line: {line}");
    }

    let stats = client.request("{\"kind\":\"stats\"}").unwrap();
    assert!(stats.get(&["rates", "completed", "per_sec_10s"]).and_then(Json::as_f64).is_some());
    assert!(
        stats.get(&["rates", "completed", "per_sec_10s"]).and_then(Json::as_f64).unwrap() > 0.0,
        "the completed request shows up in the 10s window"
    );
    assert_eq!(stats.get(&["forensics", "active"]).and_then(Json::as_bool), Some(true));
    assert_eq!(stats.get(&["trace", "enabled"]).and_then(Json::as_bool), Some(true));
    assert_eq!(stats.get(&["requests", "metrics"]).and_then(Json::as_f64), Some(1.0));

    let summary = daemon.shutdown_and_wait();
    assert_eq!(summary.lost(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One job per reachable verdict, and every surface that names a verdict
/// must agree: the `mapped` response, the `stats` counts, the OpenMetrics
/// `lakeroad_daemon_verdicts` samples and the forensics record.
#[test]
fn every_surface_names_each_verdict_alike() {
    let dir = temp_dir("vocabulary");
    let daemon = Daemon::bind(forensic_config(&dir)).unwrap();
    let mut client = DaemonClient::connect(daemon.local_addr()).unwrap();

    let mul = "module m(input [7:0] a, b, output [7:0] out); assign out = a * b; endmodule";
    // The Cyclone 10 LP multiplier has no logic unit after it.
    let mul_xor = "module m(input [7:0] a, b, c, output [7:0] out); \
                   assign out = (a * b) ^ c; endmodule";
    let jobs = [
        ("success", "\"arch\":\"intel\",\"bench\":\"mul_w8_s0\"".to_string()),
        ("unsat", format!("\"arch\":\"intel\",\"verilog\":{}", Json::str(mul_xor).render())),
        // SOFA has no DSP, so the DSP sketch cannot be posed.
        ("error", format!("\"arch\":\"sofa\",\"verilog\":{}", Json::str(mul).render())),
        (
            "deadline_expired",
            "\"arch\":\"intel\",\"bench\":\"mul_w8_s0\",\"deadline_s\":0".to_string(),
        ),
    ];
    for (id, (verdict, fields)) in jobs.iter().enumerate() {
        let request = format!("{{\"kind\":\"map\",\"id\":{id},\"template\":\"dsp\",{fields}}}");
        let doc = client.request(&request).unwrap();
        assert_eq!(kind(&doc), "mapped", "{}", doc.render());
        assert_eq!(
            doc.get(&["verdict"]).and_then(Json::as_str),
            Some(*verdict),
            "{}",
            doc.render()
        );
        // A `stats` sent right after the answer already counts the job.
        let stats = client.request("{\"kind\":\"stats\"}").unwrap();
        let completed = stats.get(&["requests", "completed"]).and_then(Json::as_f64);
        assert_eq!(completed, Some(id as f64 + 1.0), "{}", stats.render());
        assert_eq!(stats.get(&["verdicts", verdict]).and_then(Json::as_f64), Some(1.0));
        let record = client.request(&format!("{{\"kind\":\"forensics\",\"id\":{id}}}")).unwrap();
        assert_eq!(record.get(&["verdict"]).and_then(Json::as_str), Some(*verdict));
    }

    let stats = client.request("{\"kind\":\"stats\"}").unwrap();
    let metrics = client.request("{\"kind\":\"metrics\"}").unwrap();
    let text = metrics.get(&["text"]).and_then(Json::as_str).unwrap();
    for verdict in JobVerdict::ALL {
        let name = verdict.name();
        let expected = jobs.iter().filter(|(v, _)| *v == name).count() as f64;
        assert_eq!(stats.get(&["verdicts", name]).and_then(Json::as_f64), Some(expected), "{name}");
        let sample = format!("lakeroad_daemon_verdicts_total{{verdict=\"{name}\"}} ");
        let line = text.lines().find_map(|l| l.strip_prefix(sample.as_str()));
        assert_eq!(line.and_then(|v| v.parse::<f64>().ok()), Some(expected), "{name}: {text}");
    }

    let summary = daemon.shutdown_and_wait();
    assert_eq!(summary.lost(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn forensics_request_without_a_recorder_is_an_error() {
    let daemon = Daemon::bind(DaemonConfig {
        workers: 1,
        map: MapConfig::single_solver().with_timeout(Duration::from_secs(30)),
        ..DaemonConfig::default()
    })
    .unwrap();
    let mut client = DaemonClient::connect(daemon.local_addr()).unwrap();
    let doc = client.request("{\"kind\":\"forensics\"}").unwrap();
    assert_eq!(kind(&doc), "error");
    assert!(doc.get(&["error"]).and_then(Json::as_str).unwrap_or("").contains("not enabled"));
    let summary = daemon.shutdown_and_wait();
    assert_eq!(summary.lost(), 0);
}
