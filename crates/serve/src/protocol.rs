//! The daemon wire protocol: length-prefixed JSON frames.
//!
//! Every message — either direction — is one frame: a 4-byte big-endian
//! payload length followed by that many bytes of UTF-8 JSON. Length prefixes
//! make framing independent of payload content (Verilog source may contain
//! anything), and let a reader reject oversized frames *before* allocating.
//!
//! Requests are objects with a `kind` and an optional `id` of any JSON shape,
//! which the daemon echoes verbatim on the response so clients can pipeline:
//!
//! ```text
//! {"kind": "ping", "id": 7}
//! {"kind": "map", "arch": "xilinx", "template": "dsp", "bench": "mul_w8_s0"}
//! {"kind": "map", "arch": "lattice", "verilog": "module m(...); ... endmodule",
//!  "priority": 3, "timeout_s": 20, "deadline_s": 60, "name": "hot-path"}
//! {"kind": "stats"}
//! {"kind": "trace"}
//! {"kind": "metrics"}
//! {"kind": "forensics"}
//! {"kind": "forensics", "id": 7}
//! {"kind": "shutdown"}
//! ```
//!
//! A `map` request names its design as exactly one of `bench` (a §5.1
//! microbenchmark of the chosen architecture), inline `verilog` source, or
//! inline `netlist` text (ASCII AIGER or `.bench`, format-sniffed, mapped as
//! one whole-design job). Responses carry
//! `kind: "pong" | "mapped" | "stats" | "trace" | "metrics" | "forensics" |
//! "shutting_down" | "rejected" | "error"`; a malformed request earns an
//! `error` response but does **not** close the connection — only an
//! unframeable byte stream does.
//!
//! **`metrics`** answers with `{"kind":"metrics", "content_type":
//! "application/openmetrics-text; version=1.0.0", "text": "..."}` where
//! `text` is the whole observable surface — the `lr_trace` registry plus the
//! daemon's own counters, rates, and latency histograms (as cumulative
//! `_bucket`/`_sum`/`_count` series) — in OpenMetrics text format, terminated
//! by `# EOF`. Any Prometheus-compatible scraper (or `lakeroad top`) can
//! consume it without knowing this protocol's JSON shapes.
//!
//! **`forensics`** drives the flight recorder. Without an `id` it answers
//! `{"kind":"forensics", "records": [...], "bundles": [...],
//! "bundles_written": N, "bundle_errors": N, "dir": ...}` — newest-first
//! record headers for the retained ring and the bundle files on disk. With an
//! `id` it looks up the newest retained record whose `map` request carried
//! that correlation id and answers `{"kind":"forensics", "record": {...}}`
//! with the full record, span tree included (an unknown id is an `error`
//! response). The `id` doubles as the correlation id, so the response echoes
//! it back like any other.

use std::io::{self, Read, Write};
use std::time::Duration;

use lakeroad::{DesignSource, MapOutcome};
use lr_arch::Architecture;

use crate::batch::{parse_arch_name, parse_template};
use crate::json::Json;
use crate::scheduler::{BatchJob, JobResult};

/// Upper bound on one frame's payload, checked before allocation. Generous
/// for inline Verilog; far below anything that could wedge the daemon.
pub const MAX_FRAME: usize = 4 << 20;

/// Writes one frame: big-endian length, then the UTF-8 payload, then a flush.
///
/// # Errors
/// `InvalidData` if the payload exceeds [`MAX_FRAME`]; otherwise I/O errors
/// from the underlying writer.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds the {MAX_FRAME}-byte bound", bytes.len()),
        ));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean end of stream (EOF exactly at a
/// frame boundary); EOF mid-frame is `UnexpectedEof`.
///
/// # Errors
/// `InvalidData` for a length above [`MAX_FRAME`] (checked before any payload
/// allocation) or a non-UTF-8 payload; otherwise I/O errors from the reader.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < len_buf.len() {
        let n = r.read(&mut len_buf[filled..])?;
        if n == 0 {
            return if filled == 0 {
                Ok(None)
            } else {
                Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF inside a frame header"))
            };
        }
        filled += n;
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame header declares {len} bytes, above the {MAX_FRAME}-byte bound"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame payload is not UTF-8"))
}

/// A parsed client request.
#[derive(Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// One mapping job.
    Map(Box<BatchJob>),
    /// Daemon statistics.
    Stats,
    /// The recent span buffer as a Chrome trace-event document.
    Trace,
    /// The whole metrics surface in OpenMetrics text format.
    Metrics,
    /// The flight recorder: list retained records and bundles, or (when the
    /// request's `id` names a recorded `map` request) fetch one full record.
    Forensics,
    /// Begin a graceful drain: finish queued work, then stop.
    Shutdown,
}

/// Parses a request frame. The `id`, when present, is returned even for
/// requests that fail to parse past the envelope, so the error response can
/// still be correlated.
pub fn parse_request(text: &str) -> (Option<Json>, Result<Request, String>) {
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return (None, Err(format!("malformed JSON: {e}"))),
    };
    let id = doc.get(&["id"]).cloned();
    (id, parse_request_doc(&doc))
}

fn parse_request_doc(doc: &Json) -> Result<Request, String> {
    let kind = doc
        .get(&["kind"])
        .and_then(Json::as_str)
        .ok_or_else(|| "request needs a string `kind`".to_string())?;
    match kind {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "trace" => Ok(Request::Trace),
        "metrics" => Ok(Request::Metrics),
        "forensics" => Ok(Request::Forensics),
        "shutdown" => Ok(Request::Shutdown),
        "map" => parse_map_request(doc).map(|job| Request::Map(Box::new(job))),
        other => Err(format!("unknown request kind `{other}`")),
    }
}

fn parse_map_request(doc: &Json) -> Result<BatchJob, String> {
    let arch_field = doc
        .get(&["arch"])
        .and_then(Json::as_str)
        .ok_or_else(|| "map request needs a string `arch`".to_string())?;
    let arch_name = parse_arch_name(arch_field)
        .ok_or_else(|| format!("unknown architecture `{arch_field}`"))?;
    let template_field = doc.get(&["template"]).and_then(Json::as_str).unwrap_or("auto");
    let template = parse_template(template_field)
        .ok_or_else(|| format!("unknown template `{template_field}`"))?;

    let bench = doc.get(&["bench"]).and_then(Json::as_str);
    let verilog = doc.get(&["verilog"]).and_then(Json::as_str);
    let netlist = doc.get(&["netlist"]).and_then(Json::as_str);
    // The wire format stays compatible: `bench` and `verilog` requests parse
    // exactly as before; `netlist` carries inline AIGER/.bench text.
    let source = match (bench, verilog, netlist) {
        (Some(name), None, None) => DesignSource::Bench(name.to_string()),
        (None, Some(text), None) => {
            DesignSource::VerilogInline { name: "verilog".to_string(), text: text.to_string() }
        }
        (None, None, Some(text)) => {
            DesignSource::NetlistInline { name: "netlist".to_string(), text: text.to_string() }
        }
        _ => {
            return Err(
                "map request needs exactly one of `bench`, `verilog`, or `netlist`".to_string()
            )
        }
    };
    let spec = source.resolve(arch_name)?;
    let default_name = match &source {
        DesignSource::Bench(_) => source.label(),
        _ => spec.name().to_string(),
    };

    let mut job = BatchJob::new(default_name, spec, Architecture::load(arch_name), template);
    if let Some(name) = doc.get(&["name"]).and_then(Json::as_str) {
        job.name = name.to_string();
    }
    if let Some(priority) = doc.get(&["priority"]) {
        let p = priority.as_f64().filter(|p| p.fract() == 0.0 && (0.0..=255.0).contains(p));
        job.priority = p.ok_or_else(|| "`priority` must be an integer in 0-255".to_string())? as u8;
    }
    job.timeout = parse_seconds(doc, "timeout_s")?;
    // Over the wire a deadline is relative to *submission*; the daemon measures
    // the job's queue age against it.
    job.deadline = parse_seconds(doc, "deadline_s")?;
    Ok(job)
}

fn parse_seconds(doc: &Json, field: &str) -> Result<Option<Duration>, String> {
    match doc.get(&[field]) {
        None | Some(Json::Null) => Ok(None),
        // `try_from_secs_f64`, not `from_secs_f64`: the latter panics on finite
        // values that overflow `Duration` (e.g. 1e20), and a panic here unwinds
        // the handler thread and drops the connection instead of answering with
        // the documented error.
        Some(v) => v
            .as_f64()
            .filter(|s| s.is_finite() && *s >= 0.0)
            .and_then(|s| Duration::try_from_secs_f64(s).ok())
            .map(Some)
            .ok_or_else(|| format!("`{field}` must be a non-negative number of seconds")),
    }
}

/// Inserts the request's `id` (if any) into a response and renders it.
pub(crate) fn finish(mut doc: Json, id: Option<&Json>) -> String {
    if let (Json::Obj(map), Some(id)) = (&mut doc, id) {
        map.insert("id".to_string(), id.clone());
    }
    doc.render()
}

/// The `pong` response to a ping.
pub fn pong_response(id: Option<&Json>) -> String {
    finish(Json::obj([("kind", Json::str("pong"))]), id)
}

/// An `error` response; the connection stays open.
pub fn error_response(id: Option<&Json>, message: &str) -> String {
    finish(Json::obj([("kind", Json::str("error")), ("error", Json::str(message))]), id)
}

/// A `rejected` response: the client's admission queue is full. The job was
/// never accepted, so it counts as rejected, not lost.
pub fn rejected_response(id: Option<&Json>, pending: usize, limit: usize) -> String {
    finish(
        Json::obj([
            ("kind", Json::str("rejected")),
            ("pending", Json::num(pending as f64)),
            ("limit", Json::num(limit as f64)),
        ]),
        id,
    )
}

/// Most recent spans a `trace` response returns. The span sink holds far more,
/// but a response frame must stay below [`MAX_FRAME`]; at a conservative ~250
/// rendered bytes per event this cap keeps the worst case near half the bound.
pub const TRACE_RESPONSE_EVENTS: usize = 8192;

/// The `trace` response: the most recent spans of the daemon's trace buffer as
/// a Chrome trace-event document (see [`crate::tracefmt`]). `enabled` tells
/// the client whether the daemon is recording at all, `dropped` how many
/// events the bounded sink has discarded since startup, and `truncated` how
/// many *buffered* events this response had to leave out to respect the
/// frame bound — previously that truncation was silent.
pub fn trace_response(id: Option<&Json>) -> String {
    let mut events = lr_trace::snapshot_events();
    let total = events.len();
    if total > TRACE_RESPONSE_EVENTS {
        events.drain(..total - TRACE_RESPONSE_EVENTS);
    }
    finish(
        Json::obj([
            ("kind", Json::str("trace")),
            ("enabled", Json::Bool(lr_trace::enabled())),
            ("returned", Json::num(events.len() as f64)),
            ("buffered", Json::num(total as f64)),
            ("truncated", Json::num((total - events.len()) as f64)),
            ("dropped", Json::num(lr_trace::dropped_events() as f64)),
            ("trace", crate::tracefmt::chrome_trace(&events)),
        ]),
        id,
    )
}

/// The `shutting_down` acknowledgement of a shutdown request.
pub fn shutdown_response(id: Option<&Json>) -> String {
    finish(Json::obj([("kind", Json::str("shutting_down"))]), id)
}

/// The `mapped` response carrying one job's verdict.
pub fn map_response(
    id: Option<&Json>,
    name: &str,
    result: &JobResult,
    elapsed: Duration,
) -> String {
    let mut fields = vec![
        ("kind", Json::str("mapped")),
        ("name", Json::str(name)),
        ("elapsed_ms", Json::num(elapsed.as_secs_f64() * 1e3)),
    ];
    match result {
        JobResult::Finished(outcome) => {
            fields.push(("from_cache", Json::Bool(outcome.served_from_cache())));
            match outcome {
                MapOutcome::Success(mapped) => {
                    fields.push(("verdict", Json::str("success")));
                    fields.push((
                        "resources",
                        Json::obj([
                            ("dsps", Json::num(mapped.resources.dsps as f64)),
                            ("logic_elements", Json::num(mapped.resources.logic_elements as f64)),
                            ("registers", Json::num(mapped.resources.registers as f64)),
                        ]),
                    ));
                    fields.push((
                        "solver",
                        mapped.winning_solver.as_deref().map_or(Json::Null, Json::str),
                    ));
                    fields.push(("iterations", Json::num(mapped.iterations as f64)));
                    fields.push(("verilog", Json::str(&mapped.verilog)));
                }
                MapOutcome::Unsat { winning_solver, .. } => {
                    fields.push(("verdict", Json::str("unsat")));
                    fields
                        .push(("solver", winning_solver.as_deref().map_or(Json::Null, Json::str)));
                }
                MapOutcome::Timeout { .. } => fields.push(("verdict", Json::str("timeout"))),
            }
        }
        JobResult::Error(message) => {
            fields.push(("verdict", Json::str("error")));
            fields.push(("error", Json::str(message)));
        }
        JobResult::DeadlineExpired => fields.push(("verdict", Json::str("deadline_expired"))),
        JobResult::Cancelled => fields.push(("verdict", Json::str("cancelled"))),
    }
    finish(Json::obj(fields), id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::TemplateChoice;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "{\"kind\":\"ping\"}").unwrap();
        write_frame(&mut wire, "second").unwrap();
        let mut reader = wire.as_slice();
        assert_eq!(read_frame(&mut reader).unwrap().as_deref(), Some("{\"kind\":\"ping\"}"));
        assert_eq!(read_frame(&mut reader).unwrap().as_deref(), Some("second"));
        assert_eq!(read_frame(&mut reader).unwrap(), None, "clean EOF at a frame boundary");
    }

    #[test]
    fn torn_frames_and_oversize_headers_are_errors() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "payload").unwrap();
        let torn = &wire[..wire.len() - 2];
        let err = read_frame(&mut &torn[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        let torn_header = &wire[..2];
        let err = read_frame(&mut &torn_header[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // An oversize header is rejected from the 4 length bytes alone — no
        // payload needs to exist, and none is allocated.
        let huge = (MAX_FRAME as u32 + 1).to_be_bytes();
        let err = read_frame(&mut &huge[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut out = Vec::new();
        let long = "x".repeat(MAX_FRAME + 1);
        assert_eq!(write_frame(&mut out, &long).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn map_requests_parse_benches_verilog_and_options() {
        let (id, req) = parse_request(
            "{\"kind\":\"map\",\"id\":7,\"arch\":\"intel\",\"template\":\"dsp\",\
             \"bench\":\"mul_w8_s0\",\"priority\":3,\"timeout_s\":20,\"deadline_s\":60.5,\
             \"name\":\"hot\"}",
        );
        assert_eq!(id, Some(Json::num(7)));
        let Ok(Request::Map(job)) = req else { panic!("{req:?}") };
        assert_eq!(job.name, "hot");
        assert_eq!(job.priority, 3);
        assert_eq!(job.timeout, Some(Duration::from_secs(20)));
        assert_eq!(job.deadline, Some(Duration::from_secs_f64(60.5)));
        assert!(matches!(job.template, TemplateChoice::Named(lakeroad::Template::Dsp)));

        let verilog = "module m(input [3:0] a, b, output [3:0] o); assign o = a & b; endmodule";
        let (_, req) = parse_request(&format!(
            "{{\"kind\":\"map\",\"arch\":\"sofa\",\"verilog\":{}}}",
            Json::str(verilog).render()
        ));
        let Ok(Request::Map(job)) = req else { panic!("{req:?}") };
        assert_eq!(job.name, "m");
        assert!(matches!(job.template, TemplateChoice::Auto), "template defaults to auto");
    }

    #[test]
    fn malformed_requests_keep_their_id_where_possible() {
        for (text, needle, has_id) in [
            ("{\"kind\":\"ping\"", "malformed JSON", false),
            ("{\"id\":1}", "needs a string `kind`", true),
            ("{\"kind\":\"frobnicate\",\"id\":1}", "unknown request kind", true),
            ("{\"kind\":\"map\",\"id\":1}", "needs a string `arch`", true),
            ("{\"kind\":\"map\",\"id\":1,\"arch\":\"pdp11\"}", "unknown architecture", true),
            (
                "{\"kind\":\"map\",\"id\":1,\"arch\":\"intel\"}",
                "exactly one of `bench`, `verilog`, or `netlist`",
                true,
            ),
            (
                "{\"kind\":\"map\",\"id\":1,\"arch\":\"intel\",\"bench\":\"nope\"}",
                "no microbenchmark",
                true,
            ),
            (
                "{\"kind\":\"map\",\"id\":1,\"arch\":\"intel\",\"bench\":\"mul_w8_s0\",\
                 \"priority\":999}",
                "0-255",
                true,
            ),
            (
                "{\"kind\":\"map\",\"id\":1,\"arch\":\"intel\",\"bench\":\"mul_w8_s0\",\
                 \"timeout_s\":-1}",
                "non-negative",
                true,
            ),
            // Regression: finite but Duration-overflowing values used to panic
            // in `Duration::from_secs_f64`, killing the handler thread.
            (
                "{\"kind\":\"map\",\"id\":1,\"arch\":\"intel\",\"bench\":\"mul_w8_s0\",\
                 \"timeout_s\":1e20}",
                "non-negative",
                true,
            ),
            (
                "{\"kind\":\"map\",\"id\":1,\"arch\":\"intel\",\"bench\":\"mul_w8_s0\",\
                 \"deadline_s\":1e300}",
                "non-negative",
                true,
            ),
        ] {
            let (id, req) = parse_request(text);
            let err = req.expect_err(text);
            assert!(err.contains(needle), "{text}: {err}");
            assert_eq!(id.is_some(), has_id, "{text}");
        }
    }

    #[test]
    fn responses_echo_the_request_id() {
        let id = Json::str("req-9");
        let doc = Json::parse(&pong_response(Some(&id))).unwrap();
        assert_eq!(doc.get(&["id"]).and_then(Json::as_str), Some("req-9"));
        assert_eq!(doc.get(&["kind"]).and_then(Json::as_str), Some("pong"));

        let doc = Json::parse(&error_response(None, "nope")).unwrap();
        assert!(doc.get(&["id"]).is_none());
        assert_eq!(doc.get(&["error"]).and_then(Json::as_str), Some("nope"));

        let doc = Json::parse(&rejected_response(Some(&id), 8, 8)).unwrap();
        assert_eq!(doc.get(&["kind"]).and_then(Json::as_str), Some("rejected"));
        assert_eq!(doc.get(&["pending"]).and_then(Json::as_f64), Some(8.0));
    }

    #[test]
    fn map_responses_carry_the_verdict() {
        let doc = Json::parse(&map_response(
            None,
            "j1",
            &JobResult::Error("bad sketch".into()),
            Duration::from_millis(12),
        ))
        .unwrap();
        assert_eq!(doc.get(&["verdict"]).and_then(Json::as_str), Some("error"));
        assert_eq!(doc.get(&["error"]).and_then(Json::as_str), Some("bad sketch"));
        assert_eq!(doc.get(&["elapsed_ms"]).and_then(Json::as_f64), Some(12.0));

        let doc =
            Json::parse(&map_response(None, "j2", &JobResult::DeadlineExpired, Duration::ZERO))
                .unwrap();
        assert_eq!(doc.get(&["verdict"]).and_then(Json::as_str), Some("deadline_expired"));
    }
}
