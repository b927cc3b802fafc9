//! The deterministic bench-regression gate.
//!
//! CI regenerates the `BENCH_*.json` records on every run; this module compares
//! them against the committed baselines on **deterministic counters only** —
//! conflicts, propagations, iteration counts, cache hit rates, fold counts,
//! verdict tallies. Wall-clock numbers are never compared: they depend on the
//! machine, and a gate that flakes with the weather teaches people to ignore it.
//!
//! The counters it does compare are reproducible bit-for-bit because the sweeps
//! that emit them run a single solver configuration on a single thread with fixed
//! seeds. A small relative tolerance ([`TOLERANCE`]) still applies so that an
//! intentional, reviewed behaviour change only trips the gate when it actually
//! regresses search work; improvements always pass (and should be followed by a
//! baseline refresh).
//!
//! What is gated is one declarative table, `GATES`: per record, rows naming a
//! value and a check. Adding a gated counter is adding a row. Records are read
//! with the shared [`lr_serve::Json`].

use std::collections::BTreeMap;
use std::path::Path;

use lr_serve::Json;

/// Relative headroom a counter may grow by before the gate fails (plus a small
/// absolute slack for near-zero baselines).
pub const TOLERANCE: f64 = 0.10;

/// Absolute slack added on top of the relative tolerance.
pub const ABSOLUTE_SLACK: f64 = 100.0;

/// Restricts an array to the entries whose boolean field has the given value.
type Filter = Option<(&'static str, bool)>;

/// Where a gated value comes from in a record.
#[derive(Debug, Clone, Copy)]
enum Value {
    /// A field path, dot-separated.
    Field(&'static str),
    /// The sum of one numeric field over the entries of an array.
    Sum(&'static str, &'static str, Filter),
    /// The tally of the `verdict` strings of an array's entries.
    Tally(&'static str, Filter),
}

/// How a fresh value is judged.
#[derive(Debug, Clone, Copy)]
enum Check {
    /// Equal to the baseline.
    Exact,
    /// Exactly zero.
    Zero,
    /// `true`.
    True,
    /// Greater than zero.
    Positive,
    /// Not below the baseline.
    NotBelow,
    /// At most the baseline plus [`TOLERANCE`] and [`ABSOLUTE_SLACK`].
    NoWorse,
}

/// One gate row: a value and its check.
#[derive(Debug, Clone, Copy)]
struct Row(Value, Check);

use Check::*;
use Value::*;

const INCREMENTAL: Filter = Some(("incremental", true));
const FROM_SCRATCH: Filter = Some(("incremental", false));
const EGRAPH_ON: Filter = Some(("egraph", true));

/// Every gated record and its rows. `gates_pass` is each experiment's own
/// verdict; zero checks are hard invariants (a drain loses nothing, tracing and
/// forensics are pure observation, a mismatch is a soundness bug); exact
/// checks pin accounting that depends only on the scale; wall clocks and
/// timing-dependent tallies are deliberately absent.
const GATES: &[(&str, &[Row])] = &[
    (
        "BENCH_cegis.json",
        &[
            Row(Sum("benchmarks", "conflicts", INCREMENTAL), NoWorse),
            Row(Sum("benchmarks", "iterations", INCREMENTAL), NoWorse),
            Row(Tally("benchmarks", INCREMENTAL), Exact),
            Row(Sum("benchmarks", "conflicts", FROM_SCRATCH), NoWorse),
            Row(Sum("benchmarks", "iterations", FROM_SCRATCH), NoWorse),
            Row(Tally("benchmarks", FROM_SCRATCH), Exact),
        ],
    ),
    (
        "BENCH_egraph.json",
        &[
            Row(Field("all_monsters_fold"), True),
            Row(Sum("cegis", "egraph_folds", EGRAPH_ON), NotBelow),
        ],
    ),
    ("BENCH_serve.json", &[Row(Field("gates_pass"), True), Row(Field("warm_hit_rate"), NotBelow)]),
    (
        "BENCH_sat.json",
        &[
            Row(Field("gates_pass"), True),
            Row(Field("total_conflicts_modern"), NoWorse),
            Row(Field("total_propagations_modern"), NoWorse),
        ],
    ),
    (
        "BENCH_daemon.json",
        &[
            Row(Field("gates_pass"), True),
            Row(Field("lost"), Zero),
            Row(Field("rejected"), Zero),
            Row(Field("accepted"), Exact),
            Row(Field("completed"), Exact),
            Row(Field("warm_served"), Exact),
            Row(Field("warm_hits"), Exact),
            Row(Field("cold_misses"), Exact),
        ],
    ),
    (
        "BENCH_fuzz.json",
        &[
            Row(Field("gates_pass"), True),
            Row(Field("mismatch_count"), Zero),
            Row(Field("seeds_run"), Exact),
            Row(Field("parse_ok"), Exact),
            Row(Field("elaborate_ok"), Exact),
            Row(Field("roundtrip_ok"), Exact),
            Row(Field("map_error_kinds"), Exact),
        ],
    ),
    (
        "BENCH_trace.json",
        &[
            Row(Field("gates_pass"), True),
            Row(Field("counter_mismatches"), Zero),
            Row(Field("traced_events"), Positive),
            Row(Sum("benchmarks", "conflicts", None), NoWorse),
            Row(Sum("benchmarks", "iterations", None), NoWorse),
        ],
    ),
    (
        "BENCH_obs.json",
        &[
            Row(Field("gates_pass"), True),
            Row(Field("counter_mismatches"), Zero),
            Row(Field("metrics_errors"), Zero),
            Row(Field("lost"), Zero),
            Row(Field("accepted"), Exact),
            Row(Field("completed"), Exact),
            Row(Field("bundles_written"), Exact),
            Row(Field("records_retrieved"), Exact),
        ],
    ),
    (
        "BENCH_aig.json",
        &[
            Row(Field("gates_pass"), True),
            Row(Field("total_mismatches"), Zero),
            Row(Field("warm_all_hits"), True),
            Row(Field("total_ands"), Exact),
            Row(Field("largest_fixture_ands"), Exact),
            Row(Field("total_cones"), Exact),
            Row(Field("unique_cones"), Exact),
            Row(Sum("fixtures", "covered_ands", None), Exact),
            Row(Sum("fixtures", "max_leaves", None), Exact),
            Row(Sum("fixtures", "logic_elements", None), Exact),
            Row(Sum("fixtures", "registers", None), Exact),
            Row(Sum("fixtures", "cold_sat_verifications", None), Zero),
        ],
    ),
];

impl Value {
    /// The value's name in failure messages.
    fn label(&self) -> String {
        let filtered = |array: &str, filter: &Filter| match filter {
            Some((field, want)) => format!("{array}[{field}={want}]"),
            None => format!("{array}[]"),
        };
        match self {
            Field(path) => (*path).to_string(),
            Sum(array, field, filter) => format!("sum of {}.{field}", filtered(array, filter)),
            Tally(array, filter) => format!("verdict tally of {}", filtered(array, filter)),
        }
    }

    /// The value in `doc`, or `None` when the record does not carry it.
    fn resolve(&self, doc: &Json) -> Option<Json> {
        let entries = |array: &str, filter: &Filter| {
            let items = doc.get(&[array])?.as_arr()?;
            Some(
                items
                    .iter()
                    .filter(|e| {
                        filter.map_or(true, |(f, want)| e.get(&[f]) == Some(&Json::Bool(want)))
                    })
                    .collect::<Vec<_>>(),
            )
        };
        match self {
            Field(path) => doc.get(&path.split('.').collect::<Vec<_>>()).cloned(),
            Sum(array, field, filter) => entries(array, filter)?
                .iter()
                .map(|e| e.get(&[field]).and_then(Json::as_f64))
                .sum::<Option<f64>>()
                .map(Json::Num),
            Tally(array, filter) => {
                let mut tally = BTreeMap::new();
                for e in entries(array, filter)? {
                    let verdict = e.get(&["verdict"])?.as_str()?.to_string();
                    *tally.entry(verdict).or_insert(0.0) += 1.0;
                }
                Some(Json::Obj(tally.into_iter().map(|(k, n)| (k, Json::Num(n))).collect()))
            }
        }
    }
}

impl Row {
    /// Judges the fresh record against the baseline on this row. A value the
    /// baseline does not carry yet is not compared (commit a refreshed baseline
    /// to arm it); a value missing from the fresh record always fails.
    ///
    /// # Errors
    /// Describes the failure, naming the value.
    fn judge(&self, baseline: &Json, fresh: &Json) -> Result<(), String> {
        let Row(value, check) = self;
        let label = value.label();
        let got = value.resolve(fresh).ok_or_else(|| format!("{label} is missing"))?;
        let n = got.as_f64();
        let (ok, expected) = match check {
            Zero => (n == Some(0.0), "exactly 0".to_string()),
            True => (got == Json::Bool(true), "true".to_string()),
            Positive => (n.is_some_and(|n| n > 0.0), "a positive count".to_string()),
            Exact | NotBelow | NoWorse => {
                let Some(base) = value.resolve(baseline) else { return Ok(()) };
                let b = base.as_f64();
                match check {
                    Exact => (got == base, format!("the baseline {}", base.render())),
                    NotBelow => (
                        n.zip(b).is_some_and(|(x, y)| x >= y),
                        format!("at least the baseline {}", base.render()),
                    ),
                    _ => {
                        let limit = b.map_or(f64::NAN, |y| y * (1.0 + TOLERANCE) + ABSOLUTE_SLACK);
                        (
                            n.is_some_and(|x| x <= limit),
                            format!(
                                "at most {limit:.0}, the baseline {} plus tolerance",
                                base.render()
                            ),
                        )
                    }
                }
            }
        };
        if ok {
            Ok(())
        } else {
            Err(format!("{label} is {}, expected {expected}", got.render()))
        }
    }
}

/// Judges one record against its baseline: the scales must match, then every
/// row must hold. Returns the failures, each prefixed with the file name.
fn gate_record(file: &str, rows: &[Row], baseline: &Json, fresh: &Json) -> Vec<String> {
    let scale = |doc: &Json| doc.get(&["scale"]).map(Json::render);
    if scale(baseline) != scale(fresh) {
        return vec![format!(
            "{file}: scale mismatch (baseline {:?}, fresh {:?})",
            scale(baseline),
            scale(fresh)
        )];
    }
    rows.iter()
        .filter_map(|row| row.judge(baseline, fresh).err())
        .map(|e| format!("{file}: {e}"))
        .collect()
}

fn read_record(path: &Path) -> Result<Json, String> {
    std::fs::read_to_string(path).map_err(|e| e.to_string()).and_then(|text| Json::parse(&text))
}

/// Compares every gated record present in `baseline_dir` against its freshly
/// generated counterpart in `fresh_dir`.
///
/// A record present in the baseline directory but missing from the fresh one is
/// a failure (the sweep that emits it did not run); a record absent from the
/// baseline directory is skipped (no baseline yet — commit one to arm the gate).
///
/// # Errors
/// Returns every failure, one description per line.
pub fn run_gate(baseline_dir: &Path, fresh_dir: &Path) -> Result<Vec<String>, Vec<String>> {
    let mut failures = Vec::new();
    let mut checked = Vec::new();
    for (file, rows) in GATES {
        let baseline_path = baseline_dir.join(file);
        if !baseline_path.exists() {
            continue;
        }
        let baseline = match read_record(&baseline_path) {
            Ok(doc) => doc,
            Err(e) => {
                failures.push(format!("{file}: unreadable baseline: {e}"));
                continue;
            }
        };
        match read_record(&fresh_dir.join(file)) {
            Ok(fresh) => failures.extend(gate_record(file, rows, &baseline, &fresh)),
            Err(e) => failures.push(format!("{file}: fresh record missing or unreadable: {e}")),
        }
        checked.push(file.to_string());
    }
    if failures.is_empty() {
        Ok(checked)
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(file: &str, baseline: &Json, fresh: &Json) -> Vec<String> {
        let (_, rows) = GATES.iter().find(|(f, _)| *f == file).expect("gated record");
        gate_record(file, rows, baseline, fresh)
    }

    fn doc(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    #[test]
    fn parser_round_trips_the_bench_shapes() {
        let doc = doc("{\n  \"scale\": \"Quick\",\n  \"speedup\": 1.512,\n  \"ok\": true,\n  \
             \"items\": [{\"n\": 1}, {\"n\": -2.5e1}],\n  \"nothing\": null\n}");
        assert_eq!(doc.get(&["scale"]).and_then(Json::as_str), Some("Quick"));
        assert_eq!(doc.get(&["speedup"]).and_then(Json::as_f64), Some(1.512));
        assert_eq!(doc.get(&["ok"]).and_then(Json::as_bool), Some(true));
        let items = doc.get(&["items"]).and_then(Json::as_arr).unwrap();
        assert_eq!(items[1].get(&["n"]).and_then(Json::as_f64), Some(-25.0));
        assert_eq!(doc.get(&["nothing"]), Some(&Json::Null));
    }

    #[test]
    fn parser_preserves_multi_byte_utf8_strings() {
        let doc = doc("{\"arch\": \"Xilinx UltraScale+ → §5.1\"}");
        assert_eq!(doc.get(&["arch"]).and_then(Json::as_str), Some("Xilinx UltraScale+ → §5.1"));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{\"a\": 1} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn the_committed_baselines_parse() {
        // Every gated record has a committed baseline in which every row's
        // value resolves, and which gates green against itself.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for (file, rows) in GATES {
            let baseline = read_record(&root.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
            for Row(value, _) in *rows {
                assert!(value.resolve(&baseline).is_some(), "{file}: {} missing", value.label());
            }
            assert_eq!(gate_record(file, rows, &baseline, &baseline), Vec::<String>::new());
        }
    }

    #[test]
    fn a_gated_value_missing_from_the_fresh_record_fails() {
        // Regression: a missing array used to sum to 0 and pass.
        let baseline = trace_doc(0, 500, 1000, true);
        let mut fresh = trace_doc(0, 500, 1000, true);
        if let Json::Obj(map) = &mut fresh {
            map.remove("benchmarks");
        }
        let failures = gate("BENCH_trace.json", &baseline, &fresh);
        assert!(
            failures.iter().any(|f| f.contains("benchmarks[].conflicts is missing")),
            "{failures:?}"
        );
    }

    fn sat_doc(conflicts: u64, propagations: u64, gates_pass: bool) -> String {
        format!(
            "{{\"scale\": \"Quick\", \"total_conflicts_modern\": {conflicts}, \
             \"total_propagations_modern\": {propagations}, \"gates_pass\": {gates_pass}, \
             \"benchmarks\": []}}"
        )
    }

    #[test]
    fn sat_rule_fails_on_conflict_regression_and_passes_within_tolerance() {
        let baseline = doc(&sat_doc(10_000, 1_000_000, true));
        // +5% conflicts: within tolerance.
        let failures = gate("BENCH_sat.json", &baseline, &doc(&sat_doc(10_500, 1_000_000, true)));
        assert!(failures.is_empty(), "{failures:?}");
        // +50% conflicts: regression.
        let failures = gate("BENCH_sat.json", &baseline, &doc(&sat_doc(15_000, 1_000_000, true)));
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("total_conflicts_modern"));
        // gates_pass=false always fails.
        let failures = gate("BENCH_sat.json", &baseline, &doc(&sat_doc(10_000, 1_000_000, false)));
        assert!(!failures.is_empty());
    }

    #[test]
    fn cegis_rule_compares_per_mode_sums_and_verdicts() {
        let record = |conflicts: u64, verdict: &str| {
            doc(&format!(
                "{{\"scale\": \"Quick\", \"benchmarks\": [\
                 {{\"incremental\": true, \"conflicts\": {conflicts}, \"iterations\": 2, \
                 \"verdict\": \"{verdict}\"}}, \
                 {{\"incremental\": false, \"conflicts\": 500, \"iterations\": 2, \
                 \"verdict\": \"success\"}}]}}"
            ))
        };
        let baseline = record(1000, "success");
        let failures = gate("BENCH_cegis.json", &baseline, &record(1050, "success"));
        assert!(failures.is_empty(), "{failures:?}");
        let failures = gate("BENCH_cegis.json", &baseline, &record(5000, "success"));
        assert!(failures.iter().any(|f| f.contains("conflicts")));
        let failures = gate("BENCH_cegis.json", &baseline, &record(1000, "timeout"));
        assert!(failures.iter().any(|f| f.contains("verdict tally")));
    }

    fn daemon_doc(lost: u64, warm_served: u64, gates_pass: bool) -> Json {
        doc(&format!(
            "{{\"scale\": \"Quick\", \"accepted\": 30, \"completed\": 30, \"rejected\": 0, \
             \"lost\": {lost}, \"warm_served\": {warm_served}, \"warm_hits\": {warm_served}, \
             \"cold_misses\": 3, \"warm_p99_ms\": 90.0, \"gates_pass\": {gates_pass}}}"
        ))
    }

    #[test]
    fn daemon_rule_pins_accounting_exactly_and_ignores_latency() {
        let baseline = daemon_doc(0, 24, true);
        // Identical counters pass, no matter how the (ungated) latency moved.
        let failures = gate("BENCH_daemon.json", &baseline, &daemon_doc(0, 24, true));
        assert!(failures.is_empty(), "{failures:?}");

        // One lost job is an absolute failure, not a tolerance question.
        let failures = gate("BENCH_daemon.json", &baseline, &daemon_doc(1, 24, true));
        assert!(failures.iter().any(|f| f.contains("lost")));

        // A warm verdict that fell out of the cache shifts the deterministic
        // counters and fails exactly.
        let failures = gate("BENCH_daemon.json", &baseline, &daemon_doc(0, 23, true));
        assert!(failures.iter().any(|f| f.contains("warm_served")));

        let failures = gate("BENCH_daemon.json", &baseline, &daemon_doc(0, 24, false));
        assert!(failures.iter().any(|f| f.contains("gates_pass")));
    }

    fn fuzz_doc(mismatches: u64, roundtrip_ok: u64, gates_pass: bool) -> Json {
        doc(&format!(
            "{{\"scale\": \"Quick\", \"seeds_run\": 200, \"parse_ok\": 200, \
             \"elaborate_ok\": 200, \"roundtrip_ok\": {roundtrip_ok}, \"map_attempted\": 8, \
             \"map_success\": 2, \"map_unsat\": 3, \"map_timeout\": 3, \"map_agree\": 2, \
             \"map_error_kinds\": {{}}, \"mismatch_count\": {mismatches}, \"mismatches\": [], \
             \"gates_pass\": {gates_pass}}}"
        ))
    }

    #[test]
    fn fuzz_rule_is_zero_tolerance_on_mismatches_and_ignores_map_tallies() {
        let baseline = fuzz_doc(0, 200, true);
        let failures = gate("BENCH_fuzz.json", &baseline, &fuzz_doc(0, 200, true));
        assert!(failures.is_empty(), "{failures:?}");

        // A single mismatch is an absolute failure.
        let failures = gate("BENCH_fuzz.json", &baseline, &fuzz_doc(1, 200, true));
        assert!(failures.iter().any(|f| f.contains("mismatch_count")));

        // Deterministic counters must reproduce exactly.
        let failures = gate("BENCH_fuzz.json", &baseline, &fuzz_doc(0, 199, true));
        assert!(failures.iter().any(|f| f.contains("roundtrip_ok")));

        // Mapping verdict tallies are timing-dependent and ungated: a fresh
        // record whose success/unsat/timeout split moved still passes.
        let moved = doc("{\"scale\": \"Quick\", \"seeds_run\": 200, \"parse_ok\": 200, \
             \"elaborate_ok\": 200, \"roundtrip_ok\": 200, \"map_attempted\": 8, \
             \"map_success\": 0, \"map_unsat\": 1, \"map_timeout\": 7, \"map_agree\": 0, \
             \"map_error_kinds\": {}, \"mismatch_count\": 0, \"mismatches\": [], \
             \"gates_pass\": true}");
        let failures = gate("BENCH_fuzz.json", &baseline, &moved);
        assert!(failures.is_empty(), "map tallies must be ungated: {failures:?}");

        // Mapping errors are structural, not timing: their kinds are exact.
        let mut errored = fuzz_doc(0, 200, true);
        if let Json::Obj(map) = &mut errored {
            map.insert(
                "map_error_kinds".into(),
                Json::obj([("sketch: unsupported", Json::num(1))]),
            );
        }
        let failures = gate("BENCH_fuzz.json", &baseline, &errored);
        assert!(failures.iter().any(|f| f.contains("map_error_kinds")), "{failures:?}");

        let failures = gate("BENCH_fuzz.json", &baseline, &fuzz_doc(0, 200, false));
        assert!(failures.iter().any(|f| f.contains("gates_pass")));
    }

    fn trace_doc(mismatches: u64, events: u64, conflicts: u64, gates_pass: bool) -> Json {
        doc(&format!(
            "{{\"scale\": \"Quick\", \"untraced_total_ms\": 100.0, \"traced_total_ms\": 103.0, \
             \"overhead_ratio\": 1.03, \"traced_events\": {events}, \"dropped_events\": 0, \
             \"counter_mismatches\": {mismatches}, \"missing_spans\": [], \
             \"gates_pass\": {gates_pass}, \"benchmarks\": [{{\"benchmark\": \"mul_w8_s0\", \
             \"conflicts\": {conflicts}, \"iterations\": 2, \"identical\": true}}]}}"
        ))
    }

    #[test]
    fn trace_rule_is_zero_tolerance_on_identity_and_ignores_overhead() {
        let baseline = trace_doc(0, 500, 1000, true);
        let failures = gate("BENCH_trace.json", &baseline, &trace_doc(0, 500, 1050, true));
        assert!(failures.is_empty(), "{failures:?}");

        // A single counter mismatch between traced and untraced is absolute.
        let failures = gate("BENCH_trace.json", &baseline, &trace_doc(1, 500, 1000, true));
        assert!(failures.iter().any(|f| f.contains("counter_mismatches")));

        // A traced pass with no events means the spans rotted.
        let failures = gate("BENCH_trace.json", &baseline, &trace_doc(0, 0, 1000, true));
        assert!(failures.iter().any(|f| f.contains("traced_events")));

        // Search-work regressions beyond tolerance still trip the gate.
        let failures = gate("BENCH_trace.json", &baseline, &trace_doc(0, 500, 5000, true));
        assert!(failures.iter().any(|f| f.contains("benchmarks[].conflicts")));

        // Overhead ratio and wall times are ungated: a 100x slower traced pass
        // with identical counters passes.
        let slow = doc("{\"scale\": \"Quick\", \"untraced_total_ms\": 100.0, \
             \"traced_total_ms\": 10000.0, \"overhead_ratio\": 100.0, \
             \"traced_events\": 500, \"dropped_events\": 0, \"counter_mismatches\": 0, \
             \"missing_spans\": [], \"gates_pass\": true, \"benchmarks\": [{\"benchmark\": \
             \"mul_w8_s0\", \"conflicts\": 1000, \"iterations\": 2, \"identical\": true}]}");
        let failures = gate("BENCH_trace.json", &baseline, &slow);
        assert!(failures.is_empty(), "overhead must be ungated: {failures:?}");

        let failures = gate("BENCH_trace.json", &baseline, &trace_doc(0, 500, 1000, false));
        assert!(failures.iter().any(|f| f.contains("gates_pass")));
    }

    fn obs_doc(mismatches: u64, metrics_errors: u64, bundles: u64, gates_pass: bool) -> Json {
        doc(&format!(
            "{{\"scale\": \"Quick\", \"distinct\": 4, \"accepted\": 9, \"completed\": 9, \
             \"lost\": 0, \"counter_mismatches\": {mismatches}, \"bundles_written\": {bundles}, \
             \"bundle_files\": 10, \"records_retrieved\": 4, \
             \"metrics_errors\": {metrics_errors}, \"metrics_lines\": 120, \
             \"off_wall_ms\": 500.0, \"on_wall_ms\": 520.0, \"gates_pass\": {gates_pass}}}"
        ))
    }

    #[test]
    fn obs_rule_is_zero_tolerance_on_identity_and_exposition() {
        let baseline = obs_doc(0, 0, 9, true);
        // Identical counters pass, no matter how the (ungated) wall time moved.
        let failures = gate("BENCH_obs.json", &baseline, &obs_doc(0, 0, 9, true));
        assert!(failures.is_empty(), "{failures:?}");

        // One deterministic counter perturbed by forensics is absolute.
        let failures = gate("BENCH_obs.json", &baseline, &obs_doc(1, 0, 9, true));
        assert!(failures.iter().any(|f| f.contains("counter_mismatches")));

        // A malformed metrics exposition is absolute.
        let failures = gate("BENCH_obs.json", &baseline, &obs_doc(0, 2, 9, true));
        assert!(failures.iter().any(|f| f.contains("metrics_errors")));

        // The bundle-per-request contract must reproduce exactly.
        let failures = gate("BENCH_obs.json", &baseline, &obs_doc(0, 0, 8, true));
        assert!(failures.iter().any(|f| f.contains("bundles_written")));

        let failures = gate("BENCH_obs.json", &baseline, &obs_doc(0, 0, 9, false));
        assert!(failures.iter().any(|f| f.contains("gates_pass")));
    }

    fn aig_doc(mismatches: u64, cones: u64, warm_all: bool, sat: u64, gates_pass: bool) -> Json {
        doc(&format!(
            "{{\"scale\": \"Quick\", \"total_ands\": 1326, \"largest_fixture_ands\": 1100, \
             \"total_cones\": {cones}, \"unique_cones\": 80, \
             \"total_mismatches\": {mismatches}, \"warm_all_hits\": {warm_all}, \
             \"gates_pass\": {gates_pass}, \"fixtures\": [{{\"name\": \"c17.bench\", \
             \"ands\": 6, \"cones\": 2, \"covered_ands\": 7, \"max_leaves\": 4, \
             \"logic_elements\": 2, \"registers\": 0, \"cold_wall_ms\": 120.0, \
             \"cold_sat_verifications\": {sat}, \"warm_wall_ms\": 4.0}}]}}"
        ))
    }

    #[test]
    fn aig_rule_is_zero_tolerance_on_stitch_identity_and_cone_accounting() {
        let baseline = aig_doc(0, 400, true, 0, true);
        // Identical counters pass, no matter how the (ungated) wall time moved.
        let failures = gate("BENCH_aig.json", &baseline, &aig_doc(0, 400, true, 0, true));
        assert!(failures.is_empty(), "{failures:?}");

        // A single stitched-verification mismatch is absolute.
        let failures = gate("BENCH_aig.json", &baseline, &aig_doc(1, 400, true, 0, true));
        assert!(failures.iter().any(|f| f.contains("total_mismatches")));

        // A warm cone that missed the cache is absolute.
        let failures = gate("BENCH_aig.json", &baseline, &aig_doc(0, 400, false, 0, true));
        assert!(failures.iter().any(|f| f.contains("warm_all_hits")));

        // So is a cone synthesis that reached the SAT verifier.
        let failures = gate("BENCH_aig.json", &baseline, &aig_doc(0, 400, true, 1, true));
        assert!(failures.iter().any(|f| f.contains("cold_sat_verifications")));

        // The partitioner is deterministic: cone counts must reproduce exactly.
        let failures = gate("BENCH_aig.json", &baseline, &aig_doc(0, 401, true, 0, true));
        assert!(failures.iter().any(|f| f.contains("total_cones")));

        let failures = gate("BENCH_aig.json", &baseline, &aig_doc(0, 400, true, 0, false));
        assert!(failures.iter().any(|f| f.contains("gates_pass")));
    }

    #[test]
    fn scale_mismatch_is_reported_not_compared() {
        let quick = doc(&sat_doc(10, 10, true));
        let full = doc(&sat_doc(10, 10, true).replace("Quick", "Full"));
        let failures = gate("BENCH_sat.json", &quick, &full);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("scale mismatch"));
    }

    #[test]
    fn wall_clock_fields_are_never_gated() {
        // A fresh record that is 100x slower but otherwise identical passes.
        let baseline = doc("{\"scale\": \"Quick\", \"total_wall_ms_incremental\": 100.0, \
             \"total_wall_ms_from_scratch\": 200.0, \"speedup\": 2.0, \"benchmarks\": []}");
        let slow = doc("{\"scale\": \"Quick\", \"total_wall_ms_incremental\": 10000.0, \
             \"total_wall_ms_from_scratch\": 10000.0, \"speedup\": 1.0, \"benchmarks\": []}");
        let failures = gate("BENCH_cegis.json", &baseline, &slow);
        assert!(failures.is_empty(), "{failures:?}");
    }
}
