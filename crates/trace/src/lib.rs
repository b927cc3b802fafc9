//! # lr-trace: structured spans, mergeable latency histograms, and a metrics registry
//!
//! The mapping stack's observability layer. Everything here is `std`-only and
//! dependency-free so that every crate in the workspace — from the SAT core up
//! to the serving daemon — can instrument itself without dependency cycles or
//! new external crates.
//!
//! Three pieces:
//!
//! * **Spans** ([`span`]): RAII-guarded, nested, per-thread timing regions with
//!   a stage name and `u64` attributes. Recording is lock-free on the hot path
//!   (a thread-local buffer); completed events drain into a bounded global
//!   sink when a thread's outermost span closes (and on thread exit). When
//!   tracing is disabled — the default — `span()` is one relaxed atomic load
//!   and no clock read, cheap enough to leave in the tightest solver loops.
//!   [`take_events`] / [`snapshot_events`] expose the sink; `lr_serve`'s
//!   `tracefmt` module renders events as Chrome trace-event JSON, and
//!   [`stage_summary`] aggregates them into a per-stage text table.
//! * **Histograms** ([`Histogram`], [`AtomicHistogram`]): log-bucketed
//!   (power-of-two bounds) latency histograms with exact `count`/`sum`
//!   invariants, lossless [`Histogram::merge`], and p50/p90/p99 queries. The
//!   atomic variant serves live multi-threaded recording (the daemon's
//!   request-latency and queue-wait metrics) and snapshots into the plain one.
//! * **A named metrics registry** ([`counter_add`], [`hist_record`],
//!   [`metrics_snapshot`]): process-wide counters and histograms keyed by
//!   name, active only while tracing is enabled.
//!
//! On top of those, two serving-oriented surfaces:
//!
//! * **Rolling windows** ([`RollingCounter`], [`RollingHistogram`]): fixed
//!   rings of interval buckets over a caller-supplied clock, answering
//!   "events in the last 1s/10s/60s" and "p99 over the last 10s" instead of
//!   lifetime aggregates — what a resident daemon's `stats` should report.
//! * **OpenMetrics exposition** ([`OpenMetricsWriter`]): renders counters,
//!   gauges, and the log-bucketed histograms (as cumulative
//!   `_bucket`/`_sum`/`_count` series) in Prometheus/OpenMetrics text format,
//!   so any scraper can consume the registry without a bespoke client.
//!
//! Tracing is switched on only by its callers ([`set_enabled`]): the CLI's
//! `--trace`, `lakeroad serve --trace` or an active flight recorder, and the
//! `exp_*` experiment binaries. No library call turns it on by itself, and
//! nothing here reads the environment.

mod hist;
pub mod openmetrics;
mod registry;
mod rolling;
mod span;

pub use hist::{AtomicHistogram, Histogram, HIST_BUCKETS};
pub use openmetrics::OpenMetricsWriter;
pub use registry::{
    counter_add, counter_value, hist_record, metrics_snapshot, reset_metrics, MetricsSnapshot,
};
pub use rolling::{RollingCounter, RollingHistogram};
pub use span::{
    context, dropped_events, enabled, flush, now_ns, set_context, set_enabled, snapshot_events,
    span, stage_summary, take_events, SpanGuard, TraceEvent,
};

/// Clears every piece of global trace state: the span sink (current thread's
/// buffer included), the dropped-event counter, and the metrics registry.
/// The enabled switch is left as it is. Meant for experiment
/// drivers and tests that need a clean slate between runs.
pub fn reset() {
    span::reset_spans();
    registry::reset_metrics();
}
