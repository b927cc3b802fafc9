//! Scheduler determinism: a batch must produce identical verdicts and resource
//! counts no matter how many workers run it and no matter whether the cache is
//! cold or warm. This is the property that lets `exp_all` parallelize the
//! paper sweeps without changing a single reported number, and it exercises
//! the end-to-end tier (microbenchmark specs through sketch, CEGIS, and
//! resource counting) rather than toy jobs.

use std::sync::Arc;
use std::time::Duration;

use lakeroad::{MapCache, MapConfig, MapOutcome};
use lr_arch::ArchName;
use lr_serve::{run_batch, suite_jobs, BatchOptions, BatchRun, JobResult, SynthCache};

/// The observable outcome of one job: verdict class plus resources — everything
/// a report aggregates. Wall-clock fields are deliberately excluded.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Observed {
    Success { dsps: usize, logic: usize, registers: usize },
    Unsat,
    Timeout,
    Error(String),
    NotRun,
}

fn observe(run: &BatchRun) -> Vec<(String, Observed)> {
    run.records
        .iter()
        .map(|r| {
            let observed = match &r.result {
                JobResult::Finished(MapOutcome::Success(m)) => Observed::Success {
                    dsps: m.resources.dsps,
                    logic: m.resources.logic_elements,
                    registers: m.resources.registers,
                },
                JobResult::Finished(MapOutcome::Unsat { .. }) => Observed::Unsat,
                JobResult::Finished(MapOutcome::Timeout { .. }) => Observed::Timeout,
                JobResult::Error(e) | JobResult::Panicked(e) => Observed::Error(e.clone()),
                JobResult::DeadlineExpired | JobResult::Cancelled => Observed::NotRun,
            };
            (r.name.clone(), observed)
        })
        .collect()
}

fn options(workers: usize, cache: Option<&Arc<SynthCache>>) -> BatchOptions {
    let mut map = MapConfig::single_solver().with_timeout(Duration::from_secs(60));
    if let Some(cache) = cache {
        let shared: Arc<dyn MapCache> = Arc::<SynthCache>::clone(cache);
        map = map.with_cache(shared);
    }
    BatchOptions::new(workers, map)
}

/// `--jobs 1` vs `--jobs 8`, cold and warm: four runs of the e2e tier, one
/// answer.
#[test]
fn verdicts_and_resources_are_identical_across_worker_counts_and_cache_states() {
    let mut jobs = suite_jobs(ArchName::IntelCyclone10Lp, 6);
    jobs.extend(suite_jobs(ArchName::LatticeEcp5, 4));

    // Cold at 1 worker and at 8 workers, each with its own untouched cache.
    let cold1_cache = Arc::new(SynthCache::new());
    let cold1 = run_batch(&jobs, &options(1, Some(&cold1_cache)));
    let cold8_cache = Arc::new(SynthCache::new());
    let cold8 = run_batch(&jobs, &options(8, Some(&cold8_cache)));

    // Warm reruns against the caches the cold runs populated.
    let warm1 = run_batch(&jobs, &options(1, Some(&cold1_cache)));
    let warm8 = run_batch(&jobs, &options(8, Some(&cold8_cache)));

    let baseline = observe(&cold1);
    assert!(
        baseline.iter().any(|(_, o)| matches!(o, Observed::Success { .. })),
        "the e2e tier must map something, or the comparison is vacuous"
    );
    for (label, run) in
        [("cold —jobs 8", &cold8), ("warm —jobs 1", &warm1), ("warm —jobs 8", &warm8)]
    {
        assert_eq!(baseline, observe(run), "{label} diverged from cold —jobs 1");
    }

    // The warm runs must have been served entirely from cache (every cold
    // verdict here is cacheable), with every replay verified.
    for (cache, warm) in [(&cold1_cache, &warm1), (&cold8_cache, &warm8)] {
        let snap = cache.snapshot();
        assert_eq!(snap.invalidations, 0, "no replay may fail verification");
        assert_eq!(
            warm.records.len(),
            warm.records
                .iter()
                .filter(|r| r.result.outcome().is_some_and(MapOutcome::served_from_cache))
                .count(),
            "a warm identical batch must be served from the cache"
        );
    }

    // And a batch without any cache agrees too (the cache changes latency, not
    // answers).
    let uncached = run_batch(&jobs, &options(8, None));
    assert_eq!(baseline, observe(&uncached));
}
