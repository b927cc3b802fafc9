//! The named metrics registry: process-wide counters and histograms.
//!
//! Like spans, registry writes are gated on [`enabled`](crate::enabled) so the
//! disabled cost is one relaxed atomic load. (Metrics that must stay live even
//! without tracing — the daemon's admission counters — keep their own
//! `AtomicU64`/[`AtomicHistogram`](crate::AtomicHistogram) fields instead.)

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::hist::Histogram;
use crate::span::enabled;

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn with_registry(f: impl FnOnce(&mut Registry)) {
    f(&mut registry().lock().unwrap_or_else(PoisonError::into_inner));
}

/// Adds `delta` to the named monotonic counter. No-op while tracing is off.
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    with_registry(|r| {
        let c = r.counters.entry(name.to_string()).or_insert(0);
        *c = c.saturating_add(delta);
    });
}

/// Records `value` into the named histogram. No-op while tracing is off.
pub fn hist_record(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    with_registry(|r| r.histograms.entry(name.to_string()).or_default().record(value));
}

/// The current value of one named counter (0 when never written). Cheaper
/// than [`metrics_snapshot`] when a single counter is wanted.
pub fn counter_value(name: &str) -> u64 {
    let r = registry().lock().unwrap_or_else(PoisonError::into_inner);
    r.counters.get(name).copied().unwrap_or(0)
}

/// A point-in-time copy of the registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

/// Snapshots every named metric.
pub fn metrics_snapshot() -> MetricsSnapshot {
    let r = registry().lock().unwrap_or_else(PoisonError::into_inner);
    MetricsSnapshot { counters: r.counters.clone(), histograms: r.histograms.clone() }
}

/// Clears every named metric (see also [`reset`](crate::reset)).
pub fn reset_metrics() {
    with_registry(|r| *r = Registry::default());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{set_enabled, FLAG_TEST_LOCK};

    #[test]
    fn registry_records_only_while_enabled() {
        let _flag = FLAG_TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_enabled(false);
        counter_add("test.off", 1);
        assert!(!metrics_snapshot().counters.contains_key("test.off"));

        set_enabled(true);
        counter_add("test.reg.c", 2);
        counter_add("test.reg.c", 3);
        hist_record("test.reg.h", 100);
        set_enabled(false);

        let snap = metrics_snapshot();
        assert_eq!(snap.counters.get("test.reg.c"), Some(&5));
        assert_eq!(snap.histograms.get("test.reg.h").map(Histogram::count), Some(1));
    }
}
