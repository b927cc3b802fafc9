//! OpenMetrics / Prometheus text exposition for the metrics registry and the
//! workspace's log-bucketed histograms.
//!
//! The writer builds one self-contained exposition: `# TYPE` metadata per
//! family, `name{label="value"} value` samples, histograms as *cumulative*
//! `_bucket{le="..."}` series plus `_sum`/`_count`, and a final `# EOF`
//! terminator. Counter families follow the OpenMetrics convention of a bare
//! family name in metadata and a `_total`-suffixed sample name.
//!
//! Everything is `std`-only and deliberately small: names are sanitized to
//! the metric charset (`[a-zA-Z0-9_:]`, non-digit first), label values are
//! escaped (`\\`, `\"`, `\n`), integer samples are rendered as integers
//! (lossless for `u64`, which `f64` is not), and float samples use Rust's
//! shortest round-trip formatting so a scraper recovers the exact value.

use std::fmt::Write as _;

use crate::hist::{Histogram, HIST_BUCKETS};
use crate::registry::MetricsSnapshot;

/// Maps an internal metric name (dots, dashes, anything) onto the exposition
/// charset: `[a-zA-Z0-9_:]` with a non-digit first character.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, ch) in name.chars().enumerate() {
        let ok = ch.is_ascii_alphanumeric() || ch == '_' || ch == ':';
        if i == 0 && ch.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { ch } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value for `label="..."` position: backslash, quote, and
/// newline get backslash escapes; everything else passes through.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Renders a float sample value: shortest form that parses back to the same
/// `f64` (Rust's `{}`), with the exposition spellings for the non-finite
/// values (`+Inf`, `-Inf`, `NaN`).
pub fn format_value(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_string()
    } else if value == f64::INFINITY {
        "+Inf".to_string()
    } else if value == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{value}")
    }
}

fn format_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_name(k), escape_label(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// An in-progress OpenMetrics exposition. Build with the typed appenders,
/// then [`finish`](OpenMetricsWriter::finish) to get the terminated text.
#[derive(Debug, Default)]
pub struct OpenMetricsWriter {
    out: String,
    last_family: String,
}

impl OpenMetricsWriter {
    /// An empty exposition.
    pub fn new() -> Self {
        OpenMetricsWriter::default()
    }

    fn type_line(&mut self, family: &str, kind: &str) {
        if self.last_family != family {
            let _ = writeln!(self.out, "# TYPE {family} {kind}");
            self.last_family = family.to_string();
        }
    }

    /// Appends a monotonic counter sample. The family is `name` sanitized;
    /// the sample itself carries the `_total` suffix.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        let family = sanitize_name(name);
        let family = family.strip_suffix("_total").unwrap_or(&family).to_string();
        self.type_line(&family, "counter");
        let _ = writeln!(self.out, "{family}_total{} {value}", format_labels(labels));
    }

    /// Appends an integer gauge sample.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        let family = sanitize_name(name);
        self.type_line(&family, "gauge");
        let _ = writeln!(self.out, "{family}{} {value}", format_labels(labels));
    }

    /// Appends a float gauge sample (shortest round-trip formatting).
    pub fn gauge_f64(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let family = sanitize_name(name);
        self.type_line(&family, "gauge");
        let _ = writeln!(self.out, "{family}{} {}", format_labels(labels), format_value(value));
    }

    /// Appends a histogram family: cumulative `_bucket{le="..."}` series
    /// (bounds up to the highest occupied bucket, then `+Inf`), `_sum`, and
    /// `_count`. Extra labels are carried on every series.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], hist: &Histogram) {
        let family = sanitize_name(name);
        self.type_line(&family, "histogram");
        let hi = hist.buckets().iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        let mut cumulative = 0u64;
        for (i, &c) in hist.buckets().iter().enumerate().take(hi.min(HIST_BUCKETS - 1)) {
            cumulative += c;
            let mut with_le: Vec<(&str, &str)> = labels.to_vec();
            let bound = Histogram::bucket_bound(i).to_string();
            with_le.push(("le", &bound));
            let _ = writeln!(self.out, "{family}_bucket{} {cumulative}", format_labels(&with_le));
        }
        let mut with_le: Vec<(&str, &str)> = labels.to_vec();
        with_le.push(("le", "+Inf"));
        let _ = writeln!(self.out, "{family}_bucket{} {}", format_labels(&with_le), hist.count());
        let _ = writeln!(self.out, "{family}_sum{} {}", format_labels(labels), hist.sum());
        let _ = writeln!(self.out, "{family}_count{} {}", format_labels(labels), hist.count());
    }

    /// Appends every metric in a registry snapshot, each name prefixed with
    /// `prefix` before sanitization.
    pub fn snapshot(&mut self, prefix: &str, snap: &MetricsSnapshot) {
        for (name, value) in &snap.counters {
            self.counter(&format!("{prefix}{name}"), &[], *value);
        }
        for (name, hist) in &snap.histograms {
            self.histogram(&format!("{prefix}{name}"), &[], hist);
        }
    }

    /// Terminates the exposition with `# EOF` and returns the text.
    pub fn finish(mut self) -> String {
        self.out.push_str("# EOF\n");
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitization_and_escaping() {
        assert_eq!(sanitize_name("daemon.queue_wait_us"), "daemon_queue_wait_us");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name(""), "_");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn counters_get_the_total_suffix_once() {
        let mut w = OpenMetricsWriter::new();
        w.counter("reqs", &[], 3);
        w.counter("done_total", &[], 4);
        let text = w.finish();
        assert!(text.contains("# TYPE reqs counter\nreqs_total 3\n"), "{text}");
        assert!(text.contains("# TYPE done counter\ndone_total 4\n"), "{text}");
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn histograms_render_cumulative_buckets() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 3, 3, 900] {
            h.record(v);
        }
        let mut w = OpenMetricsWriter::new();
        w.histogram("lat", &[("stage", "cegis")], &h);
        let text = w.finish();
        assert!(text.contains("lat_bucket{stage=\"cegis\",le=\"0\"} 1"), "{text}");
        assert!(text.contains("lat_bucket{stage=\"cegis\",le=\"3\"} 4"), "{text}");
        assert!(text.contains("lat_bucket{stage=\"cegis\",le=\"+Inf\"} 5"), "{text}");
        assert!(text.contains("lat_sum{stage=\"cegis\"} 907"), "{text}");
        assert!(text.contains("lat_count{stage=\"cegis\"} 5"), "{text}");
    }

    #[test]
    fn float_values_round_trip() {
        for v in [0.1f64, 1e-9, 123456.789, -3.25] {
            let s = format_value(v);
            assert_eq!(s.parse::<f64>().unwrap(), v, "{s}");
        }
        assert_eq!(format_value(f64::INFINITY), "+Inf");
        assert_eq!(format_value(f64::NAN), "NaN");
    }
}
