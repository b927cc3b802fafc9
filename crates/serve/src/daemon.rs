//! `lakeroad serve`: the resident mapping daemon.
//!
//! The batch engine amortizes synthesis within one process invocation; the
//! daemon amortizes it across *clients*. It owns one always-warm, size-bounded
//! [`SynthCache`] and serves mapping requests over the length-prefixed JSON
//! protocol of [`crate::protocol`] on a plain [`TcpListener`] — no async
//! runtime, just scoped-lifetime-free std threads:
//!
//! * one **acceptor** hands each connection to a detached handler thread;
//! * each **handler** reads frames, answers `ping`/`stats`/`trace` inline, and admits
//!   `map` jobs into the shared priority queue — bounded per client, so one
//!   greedy client cannot starve the rest (an over-limit job is *rejected* at
//!   the door with a `rejected` response, never silently dropped);
//! * a fixed pool of **workers** pops jobs in priority order (FIFO within a
//!   priority) and executes them through the same
//!   `scheduler::execute_job` path as `lakeroad batch`, sharing the cache;
//! * an optional **persister** snapshots the cache to disk every interval
//!   using the atomic [`SynthCache::save`], so a crash loses at most one
//!   interval of new verdicts and never the file.
//!
//! **Graceful drain.** Shutdown (a `shutdown` request or
//! [`Daemon::shutdown_and_wait`]) flips the drain flag *under the queue lock*:
//! every job admitted before the flip is still executed and answered, and no
//! job can slip in after it — admission checks the flag under the same lock.
//! Workers exit once the queue is empty. [`Daemon::wait`] joins them and the
//! persister, then writes the final snapshot, so the verdicts of the last jobs
//! survive the restart; the summary's accounting proves nothing was lost:
//! `accepted == completed`.

use std::collections::BinaryHeap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lakeroad::{CacheKey, MapConfig, MapOutcome};
use lr_trace::{OpenMetricsWriter, RollingCounter, RollingHistogram};

use crate::cache::{CacheSnapshot, SynthCache};
use crate::forensics::{FlightRecorder, ForensicsConfig, RequestRecord};
use crate::json::Json;
use crate::protocol::{
    error_response, finish, map_response, parse_request, pong_response, read_frame,
    rejected_response, shutdown_response, trace_response, write_frame, Request,
};
use crate::scheduler::{execute_job, BatchJob, JobResult, TemplateChoice};

/// Configuration of a daemon instance.
#[derive(Clone)]
pub struct DaemonConfig {
    /// Listen address; use port 0 for an ephemeral port (tests).
    pub addr: String,
    /// Worker threads executing mapping jobs.
    pub workers: usize,
    /// Base mapping configuration. The daemon installs its own shared cache;
    /// any cache already present is replaced.
    pub map: MapConfig,
    /// Entry cap for the shared cache (`None` = unbounded): the cache never
    /// holds more than this many entries, evicting the oldest first. Unlike
    /// one-shot batches, a resident cache must be bounded, so the daemon
    /// defaults this on.
    pub cache_capacity: Option<usize>,
    /// Cache snapshot file: loaded (warm start) at bind, rewritten atomically
    /// by the persister and at shutdown. `None` disables persistence.
    pub persist_path: Option<PathBuf>,
    /// Interval between persister snapshots.
    pub persist_interval: Duration,
    /// Per-client admission bound: a client with this many jobs queued or
    /// running has further `map` requests rejected until some complete.
    pub max_pending_per_client: usize,
    /// Flight-recorder configuration (`--slow-ms`, `--forensics-dir`,
    /// `--forensics-keep`). When active, the daemon enables span recording so
    /// records carry their request's span tree.
    pub forensics: ForensicsConfig,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            map: MapConfig::default(),
            cache_capacity: Some(4096),
            persist_path: None,
            persist_interval: Duration::from_secs(30),
            max_pending_per_client: 64,
            forensics: ForensicsConfig { dir: None, slow: None, keep: 64, ring: 256 },
        }
    }
}

/// One queued mapping job.
struct QueuedJob {
    /// Admission ticket; FIFO tie-break within a priority.
    seq: u64,
    job: BatchJob,
    submitted: Instant,
    client: Arc<ClientSlot>,
    id: Option<Json>,
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for QueuedJob {}
impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority first, then earlier admission.
        self.job.priority.cmp(&other.job.priority).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Queue state; `draining` lives under the same lock so admission and worker
/// exit see one consistent picture (the zero-lost-jobs invariant).
struct QueueState {
    heap: BinaryHeap<QueuedJob>,
    draining: bool,
    next_seq: u64,
}

/// Per-connection shared half: the response writer and the admission counter.
struct ClientSlot {
    writer: Mutex<TcpStream>,
    pending: AtomicUsize,
}

impl ClientSlot {
    /// Writes one response frame; a vanished client is not an error worth
    /// propagating (its jobs still count as completed).
    fn respond(&self, payload: &str) {
        let mut writer = self.writer.lock().unwrap();
        let _ = write_frame(&mut *writer, payload);
    }
}

/// Monotonic daemon counters, all exposed by the `stats` request.
#[derive(Default)]
struct Counters {
    pings: AtomicU64,
    stats_requests: AtomicU64,
    protocol_errors: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    successes: AtomicU64,
    unsats: AtomicU64,
    timeouts: AtomicU64,
    job_errors: AtomicU64,
    deadline_expired: AtomicU64,
    cancelled: AtomicU64,
    cache_served: AtomicU64,
    synth_iterations: AtomicU64,
    synth_examples: AtomicU64,
    sat_conflicts: AtomicU64,
    sat_propagations: AtomicU64,
    sat_restarts: AtomicU64,
    trace_requests: AtomicU64,
    metrics_requests: AtomicU64,
    forensics_requests: AtomicU64,
    /// End-to-end handling latency of completed `map` jobs, µs.
    request_latency_us: lr_trace::AtomicHistogram,
    /// Time each job spent queued before a worker picked it up, µs — the
    /// admission-pressure signal.
    queue_wait_us: lr_trace::AtomicHistogram,
}

/// One-second interval buckets; 64 of them cover the longest (60s) window.
const RATE_WIDTH_MS: u64 = 1_000;
const RATE_SLOTS: usize = 64;

/// The daemon's windowed rates: what `stats` reports as *current* load, as
/// opposed to the lifetime aggregates in [`Counters`]. Live regardless of
/// whether tracing is enabled, like the admission counters.
struct Rates {
    completed: RollingCounter,
    rejected: RollingCounter,
    latency_us: RollingHistogram,
}

impl Rates {
    fn new() -> Rates {
        Rates {
            completed: RollingCounter::new(RATE_WIDTH_MS, RATE_SLOTS),
            rejected: RollingCounter::new(RATE_WIDTH_MS, RATE_SLOTS),
            latency_us: RollingHistogram::new(RATE_WIDTH_MS, RATE_SLOTS),
        }
    }
}

struct Inner {
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    /// Mirror of `QueueState::draining` for lock-free reads (acceptor, stats).
    draining: AtomicBool,
    map: MapConfig,
    cache: Arc<SynthCache>,
    persist_path: Option<PathBuf>,
    persist_interval: Duration,
    persist_stop: Mutex<bool>,
    persist_cv: Condvar,
    max_pending: usize,
    workers: usize,
    started: Instant,
    local_addr: SocketAddr,
    counters: Counters,
    rates: Mutex<Rates>,
    /// The flight recorder; `Some` when any forensics surface is configured.
    recorder: Option<FlightRecorder>,
}

impl Inner {
    /// Milliseconds since daemon start — the tick the rolling windows run on.
    fn now_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}

/// Final accounting of a drained daemon.
#[derive(Debug, Clone)]
pub struct DaemonSummary {
    /// `map` jobs admitted into the queue.
    pub accepted: u64,
    /// Admitted jobs executed and answered. Equal to `accepted` after a
    /// graceful drain — the zero-lost-jobs invariant.
    pub completed: u64,
    /// `map` requests refused at admission (queue bound or drain in progress).
    pub rejected: u64,
    /// Of the completed jobs, how many were served from the warm cache.
    pub cache_served: u64,
    /// Final cache counters.
    pub cache: CacheSnapshot,
    /// Entries resident in the cache at shutdown.
    pub cache_entries: usize,
}

impl DaemonSummary {
    /// Admitted jobs that were never answered; 0 after a graceful drain.
    pub fn lost(&self) -> u64 {
        self.accepted - self.completed
    }
}

/// A running daemon. Dropping the handle does **not** stop it; call
/// [`Daemon::shutdown_and_wait`] (or send a `shutdown` request and then
/// [`Daemon::wait`]) to drain it.
pub struct Daemon {
    inner: Arc<Inner>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    persister: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Binds the listener, warms the cache from `persist_path` when the file
    /// exists, and starts the acceptor, worker, and persister threads.
    ///
    /// # Errors
    /// Socket errors from binding `config.addr`. A missing or unreadable
    /// snapshot file is a cold start, not an error.
    pub fn bind(config: DaemonConfig) -> io::Result<Daemon> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;

        let cache = Arc::new(match &config.persist_path {
            Some(path) => SynthCache::load(path).unwrap_or_default(),
            None => SynthCache::new(),
        });
        cache.set_capacity(config.cache_capacity);
        let mut map = config.map;
        map.cache = Some(Arc::<SynthCache>::clone(&cache) as _);

        let recorder = config.forensics.active().then(|| {
            // Span trees are the payload of every post-mortem bundle, so an
            // active recorder turns span recording on (process-wide, like the
            // CLI's --trace). Observation only: the mapping configuration and
            // cache are untouched, so deterministic synthesis counters are
            // identical with forensics on or off.
            lr_trace::set_enabled(true);
            FlightRecorder::new(config.forensics.clone())
        });

        let inner = Arc::new(Inner {
            queue: Mutex::new(QueueState { heap: BinaryHeap::new(), draining: false, next_seq: 0 }),
            queue_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            map,
            cache,
            persist_path: config.persist_path,
            persist_interval: config.persist_interval,
            persist_stop: Mutex::new(false),
            persist_cv: Condvar::new(),
            max_pending: config.max_pending_per_client.max(1),
            workers: config.workers.max(1),
            started: Instant::now(),
            local_addr,
            counters: Counters::default(),
            rates: Mutex::new(Rates::new()),
            recorder,
        });

        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || accept_loop(&listener, &inner))
        };
        let workers = (0..inner.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        let persister = inner.persist_path.is_some().then(|| {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || persist_loop(&inner))
        });

        Ok(Daemon { inner, acceptor, workers, persister })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// Blocks until the daemon has drained — either because a client sent
    /// `shutdown` or because [`Daemon::shutdown_and_wait`] was called —, writes
    /// the final cache snapshot, and returns the final accounting.
    pub fn wait(self) -> DaemonSummary {
        let _ = self.acceptor.join();
        for worker in self.workers {
            let _ = worker.join();
        }
        if let Some(persister) = self.persister {
            let _ = persister.join();
        }
        // Every worker has exited, so the cache holds the drained run's last
        // verdicts and the forensics ring is final: both survive the restart,
        // the ring as one bundle.
        if let Some(path) = &self.inner.persist_path {
            let _ = self.inner.cache.save(path);
        }
        if let Some(recorder) = &self.inner.recorder {
            recorder.final_sync();
        }
        let c = &self.inner.counters;
        DaemonSummary {
            accepted: c.accepted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            cache_served: c.cache_served.load(Ordering::Relaxed),
            cache: self.inner.cache.snapshot(),
            cache_entries: self.inner.cache.len(),
        }
    }

    /// Initiates a graceful drain and blocks until it finishes: already
    /// admitted jobs run to completion and are answered, new ones are
    /// rejected.
    pub fn shutdown_and_wait(self) -> DaemonSummary {
        begin_drain(&self.inner);
        self.wait()
    }
}

/// Flips the drain flag (under the queue lock — see module docs) and wakes the
/// workers and the persister. The acceptor needs no wakeup: it polls a
/// nonblocking listener (see [`accept_loop`]), so it notices the flag within
/// one poll interval no matter what address the daemon is bound to — a
/// self-connect wakeup would not be reliable for 0.0.0.0 or external binds.
fn begin_drain(inner: &Inner) {
    {
        let mut queue = inner.queue.lock().unwrap();
        if queue.draining {
            return;
        }
        queue.draining = true;
    }
    inner.draining.store(true, Ordering::SeqCst);
    inner.queue_cv.notify_all();
    *inner.persist_stop.lock().unwrap() = true;
    inner.persist_cv.notify_all();
}

/// How often the acceptor re-checks the drain flag while no connection is
/// pending. Bounds shutdown latency; far too coarse to matter for accept
/// throughput (a pending connection is accepted immediately).
const ACCEPT_POLL: Duration = Duration::from_millis(20);

fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    // Nonblocking, so the drain flag is re-checked even when no connection
    // ever arrives; a blocking `accept` could only be unblocked by a
    // self-connect, which is not guaranteed to succeed for non-loopback binds.
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    loop {
        if inner.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // Handler I/O is blocking; on some platforms the accepted
                // socket inherits the listener's nonblocking flag.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let inner = Arc::clone(inner);
                // Handlers are detached: they live as long as their client and
                // only touch `Inner` through the Arc, so the drain never has
                // to wait on an idle connection.
                std::thread::spawn(move || handle_connection(stream, &inner));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            // Transient accept failures (aborted handshake, fd pressure):
            // back off instead of hot-spinning, keep serving.
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn handle_connection(mut stream: TcpStream, inner: &Inner) {
    let Ok(writer) = stream.try_clone() else { return };
    let client = Arc::new(ClientSlot { writer: Mutex::new(writer), pending: AtomicUsize::new(0) });
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            // Clean disconnect, or an unframeable stream (torn frame, oversize
            // header): either way this connection is done. Protocol-level
            // errors inside a well-formed frame do NOT land here.
            Ok(None) | Err(_) => return,
        };
        let (id, request) = parse_request(&frame);
        match request {
            Err(message) => {
                inner.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                client.respond(&error_response(id.as_ref(), &message));
            }
            Ok(Request::Ping) => {
                inner.counters.pings.fetch_add(1, Ordering::Relaxed);
                client.respond(&pong_response(id.as_ref()));
            }
            Ok(Request::Stats) => {
                inner.counters.stats_requests.fetch_add(1, Ordering::Relaxed);
                client.respond(&stats_response(inner, id.as_ref()));
            }
            Ok(Request::Trace) => {
                inner.counters.trace_requests.fetch_add(1, Ordering::Relaxed);
                client.respond(&trace_response(id.as_ref()));
            }
            Ok(Request::Metrics) => {
                inner.counters.metrics_requests.fetch_add(1, Ordering::Relaxed);
                client.respond(&metrics_response(inner, id.as_ref()));
            }
            Ok(Request::Forensics) => {
                inner.counters.forensics_requests.fetch_add(1, Ordering::Relaxed);
                client.respond(&forensics_response(inner, id.as_ref()));
            }
            Ok(Request::Shutdown) => {
                client.respond(&shutdown_response(id.as_ref()));
                begin_drain(inner);
            }
            Ok(Request::Map(job)) => submit(inner, &client, *job, id),
        }
    }
}

/// Admits one job or rejects it, under the queue lock so the decision is
/// consistent with the drain flag and the worker exit condition.
fn submit(inner: &Inner, client: &Arc<ClientSlot>, job: BatchJob, id: Option<Json>) {
    let pending = client.pending.load(Ordering::Relaxed);
    if pending >= inner.max_pending {
        inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
        inner.rates.lock().unwrap().rejected.add(inner.now_ms(), 1);
        client.respond(&rejected_response(id.as_ref(), pending, inner.max_pending));
        return;
    }
    {
        let mut queue = inner.queue.lock().unwrap();
        if queue.draining {
            drop(queue);
            inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
            inner.rates.lock().unwrap().rejected.add(inner.now_ms(), 1);
            client.respond(&error_response(id.as_ref(), "daemon is draining"));
            return;
        }
        let seq = queue.next_seq;
        queue.next_seq += 1;
        client.pending.fetch_add(1, Ordering::Relaxed);
        inner.counters.accepted.fetch_add(1, Ordering::Relaxed);
        queue.heap.push(QueuedJob {
            seq,
            job,
            submitted: Instant::now(),
            client: Arc::clone(client),
            id,
        });
    }
    inner.queue_cv.notify_one();
}

fn worker_loop(inner: &Inner) {
    // Graceful drain never cancels in-flight work; the flag exists because
    // `execute_job` requires one and keeps the path shared with the batch
    // scheduler.
    let no_cancel = Arc::new(AtomicBool::new(false));
    loop {
        let queued = {
            let mut queue = inner.queue.lock().unwrap();
            loop {
                if let Some(next) = queue.heap.pop() {
                    break next;
                }
                if queue.draining {
                    return;
                }
                queue = inner.queue_cv.wait(queue).unwrap();
            }
        };
        let waited = queued.submitted.elapsed();
        let wait_us = u64::try_from(waited.as_micros()).unwrap_or(u64::MAX);
        inner.counters.queue_wait_us.record(wait_us);
        let start = Instant::now();
        let mut spans: Vec<lr_trace::TraceEvent> = Vec::new();
        let result = if queued.job.deadline.is_some_and(|d| waited >= d) {
            JobResult::DeadlineExpired
        } else {
            // Attribute the job's spans to its admission ticket (+1 keeps 0 as
            // "unattributed"); a `trace` request groups the buffer by this ctx.
            lr_trace::set_context(queued.seq + 1);
            let mut sp = lr_trace::span("daemon-request");
            sp.attr("seq", queued.seq);
            sp.attr("priority", u64::from(queued.job.priority));
            sp.attr("queue_wait_us", wait_us);
            let result = execute_job(&queued.job, &inner.map, &no_cancel, waited);
            drop(sp);
            // The outer span just closed at depth 0, flushing this thread's
            // buffer, and `execute_job` joins any portfolio threads before
            // returning — so the sink holds the job's complete span tree,
            // selectable by its ctx.
            if inner.recorder.is_some() {
                spans = lr_trace::snapshot_events()
                    .into_iter()
                    .filter(|e| e.ctx == queued.seq + 1)
                    .collect();
            }
            lr_trace::set_context(0);
            result
        };
        record_result(&inner.counters, &result);
        let latency = start.elapsed();
        let latency_us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        inner.counters.request_latency_us.record(latency_us);
        {
            let now = inner.now_ms();
            let mut rates = inner.rates.lock().unwrap();
            rates.completed.add(now, 1);
            rates.latency_us.record(now, latency_us);
        }
        if let Some(recorder) = &inner.recorder {
            recorder.record(build_record(inner, &queued, &result, wait_us, latency_us, spans));
        }
        queued.client.pending.fetch_sub(1, Ordering::Relaxed);
        queued.client.respond(&map_response(
            queued.id.as_ref(),
            &queued.job.name,
            &result,
            latency,
        ));
        inner.counters.completed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Assembles the flight-recorder record for one answered job: identity,
/// design hash, verdict, the latency split, this run's synthesis counters,
/// and the captured span tree.
fn build_record(
    inner: &Inner,
    queued: &QueuedJob,
    result: &JobResult,
    queue_wait_us: u64,
    latency_us: u64,
    spans: Vec<lr_trace::TraceEvent>,
) -> RequestRecord {
    let (hi, lo) = lakeroad::cache::spec_fingerprint(&queued.job.spec);
    let (verdict, error, from_cache) = match result {
        JobResult::Finished(outcome) => {
            let verdict = match outcome {
                MapOutcome::Success(_) => "success",
                MapOutcome::Unsat { .. } => "unsat",
                MapOutcome::Timeout { .. } => "timeout",
            };
            (verdict, None, outcome.served_from_cache())
        }
        JobResult::Error(message) => ("error", Some(message.clone()), false),
        JobResult::DeadlineExpired => ("deadline_expired", None, false),
        JobResult::Cancelled => ("cancelled", None, false),
    };
    let stats = match result {
        JobResult::Finished(outcome) => Some(outcome.stats()),
        _ => None,
    };
    RequestRecord {
        seq: queued.seq,
        id: queued.id.clone(),
        name: queued.job.name.clone(),
        design: CacheKey([hi, lo]).to_string(),
        arch: queued.job.arch.name().to_string(),
        template: match &queued.job.template {
            TemplateChoice::Named(t) => t.cli_name().to_string(),
            TemplateChoice::Auto => "auto".to_string(),
        },
        priority: queued.job.priority,
        verdict,
        // `execute_job` contains worker panics via `catch_unwind` and reports
        // them with this prefix — the recorder's `panic` trigger keys off it.
        panicked: error.as_deref().is_some_and(|e| e.starts_with("panicked: ")),
        error,
        from_cache,
        queue_wait_us,
        latency_us,
        completed_at_ms: inner.now_ms(),
        iterations: stats.map_or(0, |s| s.iterations as u64),
        examples: stats.map_or(0, |s| s.examples as u64),
        conflicts: stats.map_or(0, |s| s.conflicts),
        propagations: stats.map_or(0, |s| s.propagations),
        restarts: stats.map_or(0, |s| s.restarts),
        spans,
        trigger: None,
    }
}

fn record_result(c: &Counters, result: &JobResult) {
    match result {
        JobResult::Finished(outcome) => {
            if outcome.served_from_cache() {
                c.cache_served.fetch_add(1, Ordering::Relaxed);
            }
            // Every finished verdict carries its run's statistics now, so
            // failed and expired-budget jobs' partial work is accounted too —
            // the old success-only accumulation under-reported daemon load.
            let stats = outcome.stats();
            c.synth_iterations.fetch_add(stats.iterations as u64, Ordering::Relaxed);
            c.synth_examples.fetch_add(stats.examples as u64, Ordering::Relaxed);
            c.sat_conflicts.fetch_add(stats.conflicts, Ordering::Relaxed);
            c.sat_propagations.fetch_add(stats.propagations, Ordering::Relaxed);
            c.sat_restarts.fetch_add(stats.restarts, Ordering::Relaxed);
            match outcome {
                MapOutcome::Success(_) => {
                    c.successes.fetch_add(1, Ordering::Relaxed);
                }
                MapOutcome::Unsat { .. } => {
                    c.unsats.fetch_add(1, Ordering::Relaxed);
                }
                MapOutcome::Timeout { .. } => {
                    c.timeouts.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        JobResult::Error(_) => {
            c.job_errors.fetch_add(1, Ordering::Relaxed);
        }
        JobResult::DeadlineExpired => {
            c.deadline_expired.fetch_add(1, Ordering::Relaxed);
        }
        JobResult::Cancelled => {
            c.cancelled.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn stats_response(inner: &Inner, id: Option<&Json>) -> String {
    let c = &inner.counters;
    let n = |a: &AtomicU64| Json::num(a.load(Ordering::Relaxed) as f64);
    let cache = inner.cache.snapshot();
    let queue_depth = inner.queue.lock().unwrap().heap.len();
    let doc = Json::obj([
        ("kind", Json::str("stats")),
        ("uptime_ms", Json::num(inner.started.elapsed().as_secs_f64() * 1e3)),
        ("workers", Json::num(inner.workers as f64)),
        ("queue_depth", Json::num(queue_depth as f64)),
        ("draining", Json::Bool(inner.draining.load(Ordering::SeqCst))),
        (
            "requests",
            Json::obj([
                ("pings", n(&c.pings)),
                ("stats", n(&c.stats_requests)),
                ("trace", n(&c.trace_requests)),
                ("metrics", n(&c.metrics_requests)),
                ("forensics", n(&c.forensics_requests)),
                ("protocol_errors", n(&c.protocol_errors)),
                ("accepted", n(&c.accepted)),
                ("rejected", n(&c.rejected)),
                ("completed", n(&c.completed)),
            ]),
        ),
        (
            "verdicts",
            Json::obj([
                ("success", n(&c.successes)),
                ("unsat", n(&c.unsats)),
                ("timeout", n(&c.timeouts)),
                ("error", n(&c.job_errors)),
                ("deadline_expired", n(&c.deadline_expired)),
                ("cancelled", n(&c.cancelled)),
            ]),
        ),
        (
            "cache",
            Json::obj([
                ("hits", Json::num(cache.hits as f64)),
                ("misses", Json::num(cache.misses as f64)),
                ("stores", Json::num(cache.stores as f64)),
                ("invalidations", Json::num(cache.invalidations as f64)),
                ("evictions", Json::num(cache.evictions as f64)),
                ("entries", Json::num(inner.cache.len() as f64)),
                (
                    "capacity",
                    inner.cache.capacity().map_or(Json::Null, |cap| Json::num(cap as f64)),
                ),
                ("served", n(&c.cache_served)),
            ]),
        ),
        (
            "synthesis",
            Json::obj([("iterations", n(&c.synth_iterations)), ("examples", n(&c.synth_examples))]),
        ),
        (
            "solver",
            Json::obj([
                ("conflicts", n(&c.sat_conflicts)),
                ("propagations", n(&c.sat_propagations)),
                ("restarts", n(&c.sat_restarts)),
            ]),
        ),
        (
            "latency",
            Json::obj([
                ("request_us", crate::tracefmt::histogram_json(&c.request_latency_us.snapshot())),
                ("queue_wait_us", crate::tracefmt::histogram_json(&c.queue_wait_us.snapshot())),
            ]),
        ),
        ("rates", rates_json(inner)),
        (
            "trace",
            Json::obj([
                ("enabled", Json::Bool(lr_trace::enabled())),
                ("spans_dropped", Json::num(lr_trace::dropped_events() as f64)),
            ]),
        ),
        (
            "forensics",
            match &inner.recorder {
                None => Json::obj([("active", Json::Bool(false))]),
                Some(rec) => Json::obj([
                    ("active", Json::Bool(true)),
                    ("bundles_written", Json::num(rec.bundles_written() as f64)),
                    ("bundle_errors", Json::num(rec.bundle_errors() as f64)),
                    ("retained", Json::num(rec.retained() as f64)),
                    (
                        "slow_ms",
                        rec.slow_threshold()
                            .map_or(Json::Null, |d| Json::num(d.as_secs_f64() * 1e3)),
                    ),
                ]),
            },
        ),
    ]);
    finish(doc, id)
}

/// The windowed-rate section of `stats`: current load over the last 1/10/60
/// seconds, plus the windowed latency quantiles — as opposed to the lifetime
/// aggregates everywhere else in the response.
fn rates_json(inner: &Inner) -> Json {
    let now = inner.now_ms();
    let rates = inner.rates.lock().unwrap();
    let windows = |c: &RollingCounter| {
        Json::obj([
            ("per_sec_1s", Json::num(c.rate_per_sec(now, 1_000))),
            ("per_sec_10s", Json::num(c.rate_per_sec(now, 10_000))),
            ("per_sec_60s", Json::num(c.rate_per_sec(now, 60_000))),
        ])
    };
    Json::obj([
        ("completed", windows(&rates.completed)),
        ("rejected", windows(&rates.rejected)),
        (
            "latency_us_10s",
            crate::tracefmt::histogram_json(&rates.latency_us.windowed(now, 10_000)),
        ),
    ])
}

/// Renders the whole metrics surface in OpenMetrics text format: the
/// `lr_trace` registry (prefixed `lakeroad_`), the daemon's lifetime request
/// and verdict counters, cache and queue gauges, the latency histograms, and
/// the windowed rates. The text rides inside the usual JSON frame so the
/// protocol stays uniform; an HTTP bridge can serve `text` verbatim with the
/// given `content_type`.
fn metrics_response(inner: &Inner, id: Option<&Json>) -> String {
    let c = &inner.counters;
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
    let mut w = OpenMetricsWriter::new();

    for (kind, counter) in [
        ("ping", &c.pings),
        ("stats", &c.stats_requests),
        ("trace", &c.trace_requests),
        ("metrics", &c.metrics_requests),
        ("forensics", &c.forensics_requests),
        ("protocol_error", &c.protocol_errors),
    ] {
        w.counter("lakeroad_daemon_requests", &[("kind", kind)], load(counter));
    }
    for (outcome, counter) in
        [("accepted", &c.accepted), ("rejected", &c.rejected), ("completed", &c.completed)]
    {
        w.counter("lakeroad_daemon_jobs", &[("outcome", outcome)], load(counter));
    }
    for (verdict, counter) in [
        ("success", &c.successes),
        ("unsat", &c.unsats),
        ("timeout", &c.timeouts),
        ("error", &c.job_errors),
        ("deadline_expired", &c.deadline_expired),
        ("cancelled", &c.cancelled),
    ] {
        w.counter("lakeroad_daemon_verdicts", &[("verdict", verdict)], load(counter));
    }
    let cache = inner.cache.snapshot();
    for (event, value) in [
        ("hit", cache.hits),
        ("miss", cache.misses),
        ("store", cache.stores),
        ("invalidation", cache.invalidations),
        ("eviction", cache.evictions),
        ("served", load(&c.cache_served)),
    ] {
        w.counter("lakeroad_daemon_cache_events", &[("event", event)], value);
    }
    for (stage, counter) in [
        ("iterations", &c.synth_iterations),
        ("examples", &c.synth_examples),
        ("conflicts", &c.sat_conflicts),
        ("propagations", &c.sat_propagations),
        ("restarts", &c.sat_restarts),
    ] {
        w.counter("lakeroad_daemon_synthesis", &[("counter", stage)], load(counter));
    }
    w.gauge("lakeroad_daemon_queue_depth", &[], inner.queue.lock().unwrap().heap.len() as u64);
    w.gauge("lakeroad_daemon_workers", &[], inner.workers as u64);
    w.gauge("lakeroad_daemon_draining", &[], u64::from(inner.draining.load(Ordering::SeqCst)));
    w.gauge("lakeroad_daemon_cache_entries", &[], inner.cache.len() as u64);
    w.gauge_f64("lakeroad_daemon_uptime_seconds", &[], inner.started.elapsed().as_secs_f64());

    {
        let now = inner.now_ms();
        let rates = inner.rates.lock().unwrap();
        for (window, ms) in [("1s", 1_000), ("10s", 10_000), ("60s", 60_000)] {
            let lbl = [("window", window)];
            w.gauge_f64(
                "lakeroad_daemon_completed_per_sec",
                &lbl,
                rates.completed.rate_per_sec(now, ms),
            );
            w.gauge_f64(
                "lakeroad_daemon_rejected_per_sec",
                &lbl,
                rates.rejected.rate_per_sec(now, ms),
            );
        }
        w.histogram("lakeroad_daemon_latency_10s_us", &[], &rates.latency_us.windowed(now, 10_000));
    }
    w.histogram("lakeroad_daemon_request_latency_us", &[], &c.request_latency_us.snapshot());
    // Both live whether or not tracing is on, unlike the registry below,
    // which records nothing while tracing is off.
    w.histogram("lakeroad_daemon_queue_wait_us", &[], &c.queue_wait_us.snapshot());
    w.counter("lakeroad_trace_spans_dropped", &[], lr_trace::dropped_events());

    if let Some(rec) = &inner.recorder {
        w.counter("lakeroad_daemon_forensics_bundles_written", &[], rec.bundles_written());
        w.counter("lakeroad_daemon_forensics_bundle_errors", &[], rec.bundle_errors());
        w.gauge("lakeroad_daemon_forensics_retained", &[], rec.retained() as u64);
    }

    // The registry last: per-stage counters, gauges, and stage-latency
    // histograms recorded by the instrumented mapping stack itself.
    w.snapshot("lakeroad_", &lr_trace::metrics_snapshot());

    let doc = Json::obj([
        ("kind", Json::str("metrics")),
        ("content_type", Json::str("application/openmetrics-text; version=1.0.0")),
        ("text", Json::str(w.finish())),
    ]);
    finish(doc, id)
}

/// Answers `{"kind":"forensics"}`: with an `id`, the full record (header +
/// span tree) of the newest retained request with that correlation id; without
/// one, the listing of retained records and on-disk bundles.
fn forensics_response(inner: &Inner, id: Option<&Json>) -> String {
    let Some(recorder) = &inner.recorder else {
        return error_response(id, "forensics are not enabled (--slow-ms / --forensics-dir)");
    };
    let fields = match id {
        Some(wanted) => match recorder.fetch(wanted) {
            Some(record) => record,
            None => return error_response(id, "no forensics record with that id"),
        },
        None => recorder.list_json(),
    };
    let mut doc = Json::obj([("kind", Json::str("forensics"))]);
    if let (Json::Obj(map), Json::Obj(fields)) = (&mut doc, fields) {
        for (k, v) in fields {
            map.insert(k, v);
        }
    }
    finish(doc, id)
}

/// Takes the periodic snapshots until the drain starts; [`Daemon::wait`] writes
/// the final one once the workers are joined.
fn persist_loop(inner: &Inner) {
    let path = inner.persist_path.as_ref().expect("persister only runs with a path");
    let mut stopped = inner.persist_stop.lock().unwrap();
    while !*stopped {
        let (guard, _timeout) =
            inner.persist_cv.wait_timeout(stopped, inner.persist_interval).unwrap();
        stopped = guard;
        if !*stopped {
            // The atomic save means a torn write can never replace the
            // previous good file.
            let _ = inner.cache.save(path);
        }
    }
}

/// A small synchronous client for the daemon protocol, used by the CLI,
/// the integration tests, and the `exp_daemon` benchmark.
pub struct DaemonClient {
    stream: TcpStream,
}

impl DaemonClient {
    /// Connects to a daemon.
    ///
    /// # Errors
    /// Socket errors from `TcpStream::connect`.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> io::Result<DaemonClient> {
        Ok(DaemonClient { stream: TcpStream::connect(addr)? })
    }

    /// Sends one request frame without waiting for the response (pipelining;
    /// correlate responses by `id`).
    ///
    /// # Errors
    /// Framing and socket errors.
    pub fn send(&mut self, payload: &str) -> io::Result<()> {
        write_frame(&mut self.stream, payload)
    }

    /// Receives one response frame; `None` when the daemon closed the
    /// connection.
    ///
    /// # Errors
    /// Framing/socket errors, or a response that is not valid JSON.
    pub fn recv(&mut self) -> io::Result<Option<Json>> {
        match read_frame(&mut self.stream)? {
            None => Ok(None),
            Some(text) => Json::parse(&text)
                .map(Some)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
        }
    }

    /// Sends one request and waits for the next response frame.
    ///
    /// # Errors
    /// As [`DaemonClient::send`]/[`DaemonClient::recv`], plus `UnexpectedEof`
    /// if the daemon closed the connection instead of answering.
    pub fn request(&mut self, payload: &str) -> io::Result<Json> {
        self.send(payload)?;
        self.recv()?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the connection")
        })
    }
}
