//! Span recording: thread-local buffers, the global bounded sink, and the
//! enabled switch.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Upper bound on events retained in the global sink; the oldest events are
/// dropped first (and counted by [`dropped_events`]) so a long-running daemon
/// keeps a *recent* window rather than growing without bound.
const SINK_CAP: usize = 1 << 17;

/// A thread buffer above this size flushes into the sink even mid-span, so a
/// pathological span storm cannot hold unbounded memory thread-locally.
const THREAD_FLUSH: usize = 4096;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn sink() -> &'static Mutex<VecDeque<TraceEvent>> {
    static SINK: OnceLock<Mutex<VecDeque<TraceEvent>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(VecDeque::new()))
}

/// Nanoseconds since the process's trace epoch (the first call wins the race
/// to define it). Monotonic; shared by every span so traces line up across
/// threads.
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turns span recording (and the metrics registry) on or off, process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether tracing is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One completed span, recorded when its guard dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Stage name (static: span call sites name their stage in code).
    pub name: &'static str,
    /// Trace-assigned thread id (small, sequential; not the OS tid).
    pub tid: u64,
    /// The thread's context id at close time — the serving layers set this to
    /// the job index/sequence number so events group per job. 0 = no context.
    pub ctx: u64,
    /// Nesting depth at open time (0 = outermost span on its thread).
    pub depth: u16,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Attributes attached via [`SpanGuard::attr`], in attachment order.
    pub attrs: Vec<(&'static str, u64)>,
}

struct ThreadBuf {
    tid: u64,
    depth: Cell<u16>,
    ctx: Cell<u64>,
    events: RefCell<Vec<TraceEvent>>,
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        // Thread exit: whatever the buffer still holds must reach the sink, or
        // short-lived worker threads (the solver portfolio) would lose their
        // spans whenever their outermost span closed before a nested flush.
        flush_into_sink(self.events.get_mut());
    }
}

thread_local! {
    static TB: ThreadBuf = ThreadBuf {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        depth: Cell::new(0),
        ctx: Cell::new(0),
        events: RefCell::new(Vec::new()),
    };
}

fn flush_into_sink(buf: &mut Vec<TraceEvent>) {
    if buf.is_empty() {
        return;
    }
    let mut dropped = 0u64;
    {
        let mut sink = sink().lock().unwrap_or_else(PoisonError::into_inner);
        for ev in buf.drain(..) {
            if sink.len() == SINK_CAP {
                sink.pop_front();
                dropped += 1;
            }
            sink.push_back(ev);
        }
    }
    if dropped > 0 {
        DROPPED.fetch_add(dropped, Ordering::Relaxed);
    }
}

/// Sets the current thread's context id. The serving layers use this for
/// per-job attribution: the scheduler sets it to the job's submission index
/// before running it, and the portfolio propagates it into spawned solver
/// threads so a job's spans stay grouped across threads.
pub fn set_context(ctx: u64) {
    let _ = TB.try_with(|t| t.ctx.set(ctx));
}

/// The current thread's context id (0 when never set).
pub fn context() -> u64 {
    TB.try_with(|t| t.ctx.get()).unwrap_or(0)
}

/// RAII guard for one span: created by [`span`], records a [`TraceEvent`] on
/// drop. When tracing is disabled the guard is inert and costs nothing beyond
/// its construction.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    start_ns: u64,
    depth: u16,
    active: bool,
    attrs: Vec<(&'static str, u64)>,
}

/// Opens a span named `name` on the current thread. Nest freely; guards close
/// innermost-first by drop order, which is what keeps per-thread nesting
/// well-formed. The guard must be bound (`let _span = span(...)`), not
/// discarded as `_`, or it closes immediately.
#[must_use = "binding the guard is what delimits the span"]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { name, start_ns: 0, depth: 0, active: false, attrs: Vec::new() };
    }
    let start_ns = now_ns();
    let depth = TB
        .try_with(|t| {
            let d = t.depth.get();
            t.depth.set(d.saturating_add(1));
            d
        })
        .unwrap_or(0);
    SpanGuard { name, start_ns, depth, active: true, attrs: Vec::new() }
}

impl SpanGuard {
    /// Attaches a `u64` attribute; call any time before the guard drops.
    /// No-op on inert guards.
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if self.active {
            self.attrs.push((key, value));
        }
    }

    /// Whether this guard will record an event on drop (i.e. tracing was
    /// enabled when it opened). Lets call sites skip attribute computation
    /// that is itself costly.
    pub fn is_active(&self) -> bool {
        self.active
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        let _ = TB.try_with(|t| {
            t.depth.set(t.depth.get().saturating_sub(1));
            let ev = TraceEvent {
                name: self.name,
                tid: t.tid,
                ctx: t.ctx.get(),
                depth: self.depth,
                start_ns: self.start_ns,
                dur_ns,
                attrs: std::mem::take(&mut self.attrs),
            };
            let mut buf = t.events.borrow_mut();
            buf.push(ev);
            if t.depth.get() == 0 || buf.len() >= THREAD_FLUSH {
                flush_into_sink(&mut buf);
            }
        });
    }
}

/// Flushes the *current thread's* buffer into the global sink. Other threads
/// flush themselves (outermost-span close and thread exit).
pub fn flush() {
    let _ = TB.try_with(|t| flush_into_sink(&mut t.events.borrow_mut()));
}

/// Drains and returns the sink (oldest first), flushing the current thread's
/// buffer first. Events still buffered on *other live threads inside open
/// spans* are not included.
pub fn take_events() -> Vec<TraceEvent> {
    flush();
    let mut sink = sink().lock().unwrap_or_else(PoisonError::into_inner);
    sink.drain(..).collect()
}

/// Clones the sink without draining it (oldest first), flushing the current
/// thread's buffer first. This is what the daemon's `trace` request serves.
pub fn snapshot_events() -> Vec<TraceEvent> {
    flush();
    let sink = sink().lock().unwrap_or_else(PoisonError::into_inner);
    sink.iter().cloned().collect()
}

/// How many events the bounded sink has discarded (oldest-first) since the
/// last [`reset`](crate::reset).
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

pub(crate) fn reset_spans() {
    flush();
    sink().lock().unwrap_or_else(PoisonError::into_inner).clear();
    DROPPED.store(0, Ordering::SeqCst);
}

/// Aggregates events into a per-stage text table: per span name, the call
/// count, total/mean/max duration, sorted by total time descending. This is
/// the quick "where did the time go" view; the Chrome export is the deep one.
pub fn stage_summary(events: &[TraceEvent]) -> String {
    let mut agg: std::collections::BTreeMap<&'static str, (u64, u64, u64)> =
        std::collections::BTreeMap::new();
    for ev in events {
        let e = agg.entry(ev.name).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 = e.1.saturating_add(ev.dur_ns);
        e.2 = e.2.max(ev.dur_ns);
    }
    let mut rows: Vec<_> = agg.into_iter().collect();
    rows.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(b.0)));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>8} {:>12} {:>10} {:>10}",
        "stage", "count", "total_ms", "mean_ms", "max_ms"
    );
    for (name, (count, total, max)) in rows {
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>12.2} {:>10.3} {:>10.3}",
            name,
            count,
            total as f64 / 1e6,
            total as f64 / 1e6 / count as f64,
            max as f64 / 1e6
        );
    }
    out
}

/// The crate's tests that switch the process-wide flag hold this lock, so one
/// test's [`set_enabled`] cannot land inside another's recording window.
#[cfg(test)]
pub(crate) static FLAG_TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share process-global state with the rest of the crate's
    // tests; each one claims a unique context id and filters on it, so
    // parallel test threads cannot see each other's events.

    #[test]
    fn disabled_spans_record_nothing_and_cost_no_clock() {
        let _flag = FLAG_TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_enabled(false);
        let mut g = span("noop");
        g.attr("k", 1);
        assert!(!g.is_active());
        drop(g);
        flush();
        assert!(!snapshot_events().iter().any(|e| e.name == "noop"));
    }

    #[test]
    fn nested_spans_record_depth_and_containment() {
        let _flag = FLAG_TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_enabled(true);
        set_context(101);
        {
            let mut outer = span("outer-t");
            outer.attr("a", 7);
            {
                let _inner = span("inner-t");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        set_enabled(false);
        let events: Vec<_> = take_events().into_iter().filter(|e| e.ctx == 101).collect();
        let inner = events.iter().find(|e| e.name == "inner-t").expect("inner recorded");
        let outer = events.iter().find(|e| e.name == "outer-t").expect("outer recorded");
        assert_eq!(outer.depth + 1, inner.depth);
        assert!(outer.start_ns <= inner.start_ns);
        assert!(
            inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns,
            "inner interval inside outer"
        );
        assert_eq!(outer.attrs, vec![("a", 7)]);
        set_context(0);
    }

    #[test]
    fn stage_summary_groups_and_sorts() {
        let mk = |name, dur| TraceEvent {
            name,
            tid: 1,
            ctx: 0,
            depth: 0,
            start_ns: 0,
            dur_ns: dur,
            attrs: Vec::new(),
        };
        let events = [mk("fast", 1_000_000), mk("slow", 9_000_000), mk("fast", 3_000_000)];
        let summary = stage_summary(&events);
        let slow_at = summary.find("slow").unwrap();
        let fast_at = summary.find("fast").unwrap();
        assert!(slow_at < fast_at, "sorted by total time desc:\n{summary}");
        assert!(summary.contains("count"), "{summary}");
    }
}
