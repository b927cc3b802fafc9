//! The batch scheduler.
//!
//! A batch is a list of independent mapping jobs (spec × architecture ×
//! template), all known at batch start. The scheduler sorts their indices by
//! priority once, and its workers claim jobs from that order through one
//! atomic cursor, so jobs start in exact priority order at any worker count.
//! A job is a solver run of milliseconds or more, so one shared cursor and one
//! lock over the finished records are all the coordination a batch needs.
//! Workers are plain scoped threads (`std::thread::scope`), so the scheduler
//! borrows the jobs and needs no `'static` plumbing.
//!
//! Three control mechanisms ride on the queue:
//!
//! * **Priorities** (higher first) order the claims; the sort is stable, so
//!   ties keep submission order.
//! * **Per-job deadlines** are relative to batch start. A job claimed after its
//!   deadline is not posed at all ([`JobResult::DeadlineExpired`]); a job
//!   claimed before it has its synthesis timeout clamped so it cannot overrun.
//! * **Cooperative cancellation**: flip the [`BatchOptions::cancel`] flag and
//!   every not-yet-started job drains as [`JobResult::Cancelled`]. The flag is
//!   also installed as [`MapConfig::cancel`] on every posed job, which reaches
//!   all the way down to a SAT-solver interrupt — a job already deep inside a
//!   solver check stops promptly instead of running out its budget.
//!
//! Results stream back **in submission order** regardless of completion order:
//! [`run_batch_streaming`] invokes its callback for job *i* only once jobs
//! `0..i` have been delivered, which is what lets a manifest run print a stable
//! report while overlapping work.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lakeroad::{map_design_auto, MapConfig, MapError, MapOutcome, Template};
use lr_arch::Architecture;
use lr_ir::Prog;

/// Which sketch template(s) a job tries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemplateChoice {
    /// One named template.
    Named(Template),
    /// The guidance ranking (`lakeroad::map_design_auto`).
    Auto,
}

/// One independent mapping job of a batch.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Display name (manifest line, benchmark name, …).
    pub name: String,
    /// The behavioral design to map.
    pub spec: Prog,
    /// Target architecture.
    pub arch: Architecture,
    /// Template selection.
    pub template: TemplateChoice,
    /// Scheduling priority; higher runs earlier. Ties keep submission order.
    pub priority: u8,
    /// Per-job synthesis budget; `None` inherits [`BatchOptions::map`]'s.
    pub timeout: Option<Duration>,
    /// Wall-clock deadline relative to batch start. Expired jobs are reported
    /// as [`JobResult::DeadlineExpired`] without posing a query; running jobs
    /// have their budget clamped to what remains.
    pub deadline: Option<Duration>,
}

impl BatchJob {
    /// A job with default priority, no deadline, and the batch-wide budget.
    pub fn new(
        name: impl Into<String>,
        spec: Prog,
        arch: Architecture,
        template: TemplateChoice,
    ) -> BatchJob {
        BatchJob {
            name: name.into(),
            spec,
            arch,
            template,
            priority: 0,
            timeout: None,
            deadline: None,
        }
    }
}

/// Scheduler configuration for one batch run.
#[derive(Clone)]
pub struct BatchOptions {
    /// Number of worker threads (clamped to at least 1).
    pub workers: usize,
    /// Base mapping configuration; install the synthesis cache on
    /// [`MapConfig::cache`] to share verdicts across jobs and batches.
    pub map: MapConfig,
    /// Cooperative cancellation flag for the whole batch.
    pub cancel: Arc<AtomicBool>,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            workers: 1,
            map: MapConfig::default(),
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }
}

impl BatchOptions {
    /// Options with `workers` threads over `map`.
    pub fn new(workers: usize, map: MapConfig) -> BatchOptions {
        BatchOptions { workers, map, ..BatchOptions::default() }
    }
}

/// How one job ended.
#[derive(Debug, Clone)]
pub enum JobResult {
    /// The mapping ran to a verdict (success, UNSAT, or timeout).
    Finished(MapOutcome),
    /// The mapping could not be posed (sketch/frontend/task error).
    Error(String),
    /// The job's deadline passed before a worker picked it up.
    DeadlineExpired,
    /// The batch was cancelled before the job ran.
    Cancelled,
}

impl JobResult {
    /// Whether the job produced a successful mapping.
    pub fn is_success(&self) -> bool {
        matches!(self, JobResult::Finished(o) if o.is_success())
    }

    /// The finished outcome, if any.
    pub fn outcome(&self) -> Option<&MapOutcome> {
        match self {
            JobResult::Finished(o) => Some(o),
            _ => None,
        }
    }
}

/// One job's record in the batch result.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Submission index.
    pub index: usize,
    /// Job name.
    pub name: String,
    /// Worker that delivered the result.
    pub worker: usize,
    /// Wall-clock time the job spent executing (zero for expired/cancelled).
    pub elapsed: Duration,
    /// Time from batch start until the result was delivered.
    pub completed_at: Duration,
    /// How the job ended.
    pub result: JobResult,
}

/// The result of a batch run.
#[derive(Debug, Clone)]
pub struct BatchRun {
    /// Per-job records in submission order.
    pub records: Vec<JobRecord>,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Worker threads used.
    pub workers: usize,
}

impl BatchRun {
    /// Jobs per second of batch wall time.
    pub fn throughput(&self) -> f64 {
        self.records.len() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Records whose outcome was served from the synthesis cache.
    pub fn cache_served(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.result.outcome().is_some_and(MapOutcome::served_from_cache))
            .count()
    }
}

/// Runs a batch and returns all records in submission order.
pub fn run_batch(jobs: &[BatchJob], opts: &BatchOptions) -> BatchRun {
    run_batch_streaming(jobs, opts, |_| {})
}

/// [`run_batch`], invoking `on_ready` for every record **in submission order**
/// as soon as it and all of its predecessors are available.
pub fn run_batch_streaming(
    jobs: &[BatchJob],
    opts: &BatchOptions,
    on_ready: impl Fn(&JobRecord) + Sync,
) -> BatchRun {
    let workers = opts.workers.max(1);
    let start = Instant::now();

    // The claim order: job indices by priority, highest first (stable, so
    // ties keep submission order). Workers claim them through `next`, which
    // publishes no data (`order` is fixed before they start), so `Relaxed`.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(jobs[i].priority));
    let next = AtomicUsize::new(0);
    // The finished records by submission index, and the emission frontier:
    // the index of the next record to hand to `on_ready`. One lock over both
    // serializes the callback in submission order even though completions
    // arrive out of order.
    let finished = Mutex::new(((0..jobs.len()).map(|_| None).collect::<Vec<_>>(), 0));

    std::thread::scope(|scope| {
        for me in 0..workers {
            let (order, next, finished, on_ready) = (&order, &next, &finished, &on_ready);
            scope.spawn(move || loop {
                let Some(&index) = order.get(next.fetch_add(1, Ordering::Relaxed)) else { return };

                let job = &jobs[index];
                let elapsed_at_start = start.elapsed();
                let (result, elapsed) = if opts.cancel.load(Ordering::Relaxed) {
                    (JobResult::Cancelled, Duration::ZERO)
                } else if job.deadline.is_some_and(|d| elapsed_at_start >= d) {
                    (JobResult::DeadlineExpired, Duration::ZERO)
                } else {
                    // Jobs are all submitted at batch start, so the time until a
                    // worker claims one *is* its queue wait — admission pressure
                    // made visible.
                    let wait_us = u64::try_from(elapsed_at_start.as_micros()).unwrap_or(u64::MAX);
                    lr_trace::hist_record("scheduler.queue_wait_us", wait_us);
                    // Attribute every span below this job to its submission
                    // index (+1 so 0 stays "unattributed"); the batch report
                    // groups the trace buffer by this context id.
                    lr_trace::set_context(index as u64 + 1);
                    let mut sp = lr_trace::span("job");
                    sp.attr("index", index as u64);
                    sp.attr("worker", me as u64);
                    sp.attr("queue_wait_us", wait_us);
                    let job_start = Instant::now();
                    let result = execute_job(job, &opts.map, &opts.cancel, elapsed_at_start);
                    drop(sp);
                    lr_trace::set_context(0);
                    (result, job_start.elapsed())
                };
                let record = JobRecord {
                    index,
                    name: job.name.clone(),
                    worker: me,
                    elapsed,
                    completed_at: start.elapsed(),
                    result,
                };
                let (records, frontier) =
                    &mut *finished.lock().expect("an on_ready callback panicked");
                records[index] = Some(record);
                // Drain every in-order record that is now ready.
                while let Some(Some(record)) = records.get(*frontier) {
                    on_ready(record);
                    *frontier += 1;
                }
            });
        }
    });

    let records: Vec<JobRecord> = finished
        .into_inner()
        .expect("an on_ready callback panicked")
        .0
        .into_iter()
        .map(|record| record.expect("every job index is claimed exactly once"))
        .collect();
    BatchRun { records, wall: start.elapsed(), workers }
}

/// Poses one job, clamping its budget to its deadline. A panic inside the
/// mapping stack (a poison job) is contained to this job — one bad request must
/// not take the whole batch down with it. `cancel` is installed as the mapping
/// run's [`MapConfig::cancel`] hook (reaching the SAT-solver interrupt), so
/// flipping it stops an in-flight job promptly; a run cut short that way is
/// reported as [`JobResult::Cancelled`], not a timeout. Shared with the serving
/// daemon's worker pool.
pub(crate) fn execute_job(
    job: &BatchJob,
    map: &MapConfig,
    cancel: &Arc<AtomicBool>,
    already_elapsed: Duration,
) -> JobResult {
    let mut config = map.clone();
    config.cancel = Some(Arc::clone(cancel));
    if let Some(timeout) = job.timeout {
        config.timeout = timeout;
    }
    // Cache addressing must see the job's *requested* budget: the deadline
    // clamp below depends on when a worker happened to pick the job up, and a
    // wall-clock-dependent key tier would defeat warm batches.
    if config.cache_budget.is_none() {
        config.cache_budget = Some(config.timeout);
    }
    if let Some(deadline) = job.deadline {
        let remaining = deadline.saturating_sub(already_elapsed);
        config.timeout = config.timeout.min(remaining);
    }
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        poison_check(&job.name);
        match job.template {
            TemplateChoice::Named(template) => {
                lakeroad::map_design(&job.spec, template, &job.arch, &config)
            }
            TemplateChoice::Auto => map_design_auto(&job.spec, &job.arch, &config),
        }
    }));
    match outcome {
        // A cancelled run surfaces as a timeout verdict from the synthesis
        // layer; re-label it so callers can tell shutdown from a blown budget.
        Ok(Ok(MapOutcome::Timeout { .. })) if cancel.load(Ordering::Relaxed) => {
            JobResult::Cancelled
        }
        Ok(Ok(outcome)) => JobResult::Finished(outcome),
        Ok(Err(e)) => JobResult::Error(render_error(&e)),
        Err(panic) => JobResult::Error(format!("panicked: {}", render_panic(&panic))),
    }
}

/// The installed poison-job name (see [`set_poison_job`]).
static POISON_JOB: Mutex<Option<String>> = Mutex::new(None);

/// Installs (or clears, with `None`) a process-wide *poison job* name: any
/// job whose name matches panics inside the mapping closure, behind
/// `execute_job`'s `catch_unwind`. This is deliberate test apparatus — the
/// forensics integration tests and `exp_obs`'s poison phase use it to drive
/// the panic-containment and post-mortem paths end to end over a real
/// socket; nothing installs it in production. The panic fires *before* any
/// synthesis work, so a poisoned job contributes zero solver counters.
pub fn set_poison_job(name: Option<&str>) {
    *POISON_JOB.lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
        name.map(str::to_string);
}

fn poison_check(name: &str) {
    let poisoned = POISON_JOB.lock().map(|guard| guard.as_deref() == Some(name)).unwrap_or(false);
    if poisoned {
        panic!("poison job `{name}` injected a panic");
    }
}

fn render_error(e: &MapError) -> String {
    e.to_string()
}

fn render_panic(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_ir::{BvOp, ProgBuilder};

    fn mul_spec(name: &str) -> Prog {
        let mut b = ProgBuilder::new(name);
        let a = b.input("a", 8);
        let x = b.input("b", 8);
        let out = b.op2(BvOp::Mul, a, x);
        b.finish(out)
    }

    fn quick_opts(workers: usize) -> BatchOptions {
        let map = MapConfig::single_solver().with_timeout(Duration::from_secs(30));
        BatchOptions::new(workers, map)
    }

    fn quick_jobs(n: usize) -> Vec<BatchJob> {
        (0..n)
            .map(|i| {
                BatchJob::new(
                    format!("mul_{i}"),
                    mul_spec(&format!("mul_{i}")),
                    Architecture::intel_cyclone10lp(),
                    TemplateChoice::Named(Template::Dsp),
                )
            })
            .collect()
    }

    #[test]
    fn batch_results_arrive_in_submission_order() {
        // Fewer workers than jobs, and more workers than jobs.
        for (n, workers) in [(5, 3), (2, 4)] {
            let jobs = quick_jobs(n);
            let seen = Mutex::new(Vec::new());
            let run = run_batch_streaming(&jobs, &quick_opts(workers), |record| {
                seen.lock().unwrap().push(record.index);
            });
            assert_eq!(seen.into_inner().unwrap(), (0..n).collect::<Vec<_>>());
            assert_eq!(run.records.len(), n);
            for (i, record) in run.records.iter().enumerate() {
                assert_eq!(record.index, i);
                assert!(record.worker < workers);
                assert!(record.result.is_success(), "{:?}", record.result);
            }
        }
    }

    #[test]
    fn priorities_order_the_initial_deal() {
        // Single worker: execution strictly follows the priority-sorted claim
        // order. Streaming is submission-ordered by design, so observe completion
        // times instead.
        let mut jobs = quick_jobs(3);
        jobs[2].priority = 9;
        let run = run_batch(&jobs, &quick_opts(1));
        let mut by_completion: Vec<(Duration, usize)> =
            run.records.iter().map(|r| (r.completed_at, r.index)).collect();
        by_completion.sort();
        assert_eq!(by_completion[0].1, 2, "the high-priority job must run first");
    }

    #[test]
    fn expired_deadlines_are_reported_without_posing() {
        let mut jobs = quick_jobs(2);
        jobs[1].deadline = Some(Duration::ZERO); // expired before the batch starts
        let run = run_batch(&jobs, &quick_opts(2));
        assert!(run.records[0].result.is_success());
        assert!(matches!(run.records[1].result, JobResult::DeadlineExpired));
        assert_eq!(run.records[1].elapsed, Duration::ZERO);
    }

    #[test]
    fn cancellation_drains_pending_jobs() {
        let jobs = quick_jobs(4);
        let opts = quick_opts(2);
        opts.cancel.store(true, Ordering::Relaxed);
        let run = run_batch(&jobs, &opts);
        assert!(run.records.iter().all(|r| matches!(r.result, JobResult::Cancelled)));
    }

    #[test]
    fn cancellation_interrupts_a_job_already_inside_synthesis() {
        // Regression: the cancel flag used to be sampled only *between* jobs,
        // so a job already inside a solver check ran out its whole budget. One
        // grinder-style job (LUT multiplication, a search that reliably chews
        // through minutes) gets a generous timeout; cancelling shortly after
        // it starts must bring the batch home orders of magnitude sooner.
        let mut jobs = crate::scenario::grinder_jobs(Duration::from_secs(300));
        jobs.truncate(1);
        let opts = quick_opts(1);
        let cancel = Arc::clone(&opts.cancel);
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            cancel.store(true, Ordering::Relaxed);
        });
        let start = Instant::now();
        let run = run_batch(&jobs, &opts);
        canceller.join().unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "cancel must interrupt in-flight synthesis promptly, took {:?}",
            start.elapsed()
        );
        assert!(
            matches!(run.records[0].result, JobResult::Cancelled),
            "{:?}",
            run.records[0].result
        );
    }

    #[test]
    fn unposeable_jobs_surface_as_errors() {
        // SOFA has no DSP: the DSP template cannot be instantiated.
        let job = BatchJob::new(
            "no_dsp",
            mul_spec("no_dsp"),
            Architecture::sofa(),
            TemplateChoice::Named(Template::Dsp),
        );
        let run = run_batch(&[job], &quick_opts(1));
        assert!(matches!(&run.records[0].result, JobResult::Error(_)));
    }
}
