//! Per-layer totals read from the program's existing `lr_trace` spans.
//!
//! The spans sit at the public stage calls the benchmark would otherwise time
//! itself (`saturate` is `Prog::saturated`, `specialize` is `generate_sketch`,
//! `portfolio-member` is one member of `synthesize_portfolio_with`,
//! `cone-partition`/`cone-map`/`cone-stitch`/`cone-verify` are `partition`,
//! `run_batch_streaming` over `cone_jobs`, `stitch` and `verify_stitched`), so
//! the traced run executes the same code path as the timed run.

use std::collections::BTreeMap;

use lr_trace::TraceEvent;

#[derive(Default, Clone, Copy)]
struct Total {
    count: u64,
    ns: u64,
}

/// Span counts, durations and attribute sums, accumulated across batches of
/// drained events.
#[derive(Default)]
pub struct SpanTotals {
    spans: BTreeMap<&'static str, Total>,
    attrs: BTreeMap<(&'static str, &'static str), u64>,
}

impl SpanTotals {
    pub fn absorb(&mut self, events: &[TraceEvent]) {
        for ev in events {
            let total = self.spans.entry(ev.name).or_default();
            total.count += 1;
            total.ns = total.ns.saturating_add(ev.dur_ns);
            for &(key, value) in &ev.attrs {
                *self.attrs.entry((ev.name, key)).or_default() += value;
            }
        }
    }

    pub fn count(&self, span: &str) -> f64 {
        self.spans.get(span).map_or(0.0, |t| t.count as f64)
    }

    /// Summed duration in milliseconds, across every thread.
    pub fn ms(&self, span: &str) -> f64 {
        self.spans.get(span).map_or(0.0, |t| t.ns as f64 / 1e6)
    }

    pub fn attr_sum(&self, span: &'static str, key: &'static str) -> f64 {
        self.attrs.get(&(span, key)).map_or(0.0, |&v| v as f64)
    }
}
