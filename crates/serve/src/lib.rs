//! # lr-serve: the batch mapping engine
//!
//! The paper runs Lakeroad once per compilation; this crate turns the mapper
//! into a *serving* system that handles batches of mapping requests the way the
//! ROADMAP's production deployment would see them — many designs × architectures
//! × templates, arriving together, with priorities and deadlines.
//!
//! Two pieces do the scaling work:
//!
//! * **A content-addressed synthesis cache** ([`SynthCache`]): verdicts are
//!   stored under a stable hash of the e-graph-canonicalized spec plus
//!   architecture and template (`lakeroad::CacheKey`) in one
//!   table behind one `std::sync` mutex, bounded exactly by an optional entry
//!   cap, and optionally persisted to disk so warm caches survive across CLI
//!   invocations. Success hits replay the stored
//!   hole assignment through sketch generation and are **verified by `lr_ir`
//!   interpretation** before being served — a stale entry costs a wasted
//!   replay and falls back to synthesis. (UNSAT entries have nothing to
//!   replay and rest on the 128-bit content address plus the persisted
//!   format's version header.)
//! * **A batch scheduler** ([`run_batch`]): workers claim jobs through one
//!   atomic cursor over the priority-sorted order, so jobs start in exact
//!   priority order at any worker count, with per-job deadlines and
//!   cooperative cancellation, built on `std::thread::scope`. Results stream
//!   back in submission order, so batch output is stable regardless of worker
//!   count — a property the determinism tests pin down.
//!
//! On top of the batch engine sits the **resident daemon** ([`daemon`]): the
//! `lakeroad serve` subcommand keeps one always-warm, size-bounded cache alive
//! across many clients, speaking the length-prefixed JSON protocol of
//! [`protocol`] over plain TCP, with per-client admission bounds, periodic
//! atomic cache persistence, and a graceful zero-lost-jobs drain.
//!
//! The `lakeroad batch <manifest>` CLI subcommand and the `exp_serve`/`exp_all`
//! experiment binaries sit on top of [`batch`] and [`scenario`].
//!
//! ```no_run
//! use std::sync::Arc;
//! use lakeroad::MapConfig;
//! use lr_arch::ArchName;
//! use lr_serve::{run_batch, suite_jobs, BatchOptions, BatchReport, SynthCache};
//!
//! let cache = Arc::new(SynthCache::new());
//! let opts = BatchOptions::new(4, MapConfig::default().with_cache(cache.clone()));
//! let jobs = suite_jobs(ArchName::IntelCyclone10Lp, 16);
//! let before = cache.snapshot();
//! let run = run_batch(&jobs, &opts);
//! let report = BatchReport::from_run(&run, Some(before.delta(&cache.snapshot())));
//! println!("{}", report.render());
//! ```

pub mod batch;
pub mod cache;
pub mod daemon;
pub mod forensics;
pub mod json;
pub mod netlist;
pub mod protocol;
pub mod scenario;
pub mod scheduler;
pub mod top;
pub mod tracefmt;

pub use batch::{parse_arch_name, parse_manifest, parse_template, BatchReport, JobStages};
pub use cache::{CacheSnapshot, SynthCache};
pub use daemon::{Daemon, DaemonClient, DaemonConfig, DaemonSummary};
pub use forensics::{FlightRecorder, ForensicsConfig, RequestRecord};
pub use json::Json;
pub use netlist::{cone_jobs, map_netlist, NetlistOptions, NetlistReport};
pub use scenario::{fuzz_jobs, grinder_jobs, netlist_jobs, random_program, suite_jobs};
pub use scheduler::{
    run_batch, run_batch_streaming, set_poison_job, BatchJob, BatchOptions, BatchRun, JobRecord,
    JobResult, JobVerdict, TemplateChoice,
};
pub use tracefmt::{chrome_trace, chrome_trace_json};
