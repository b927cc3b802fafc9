//! perfbench: the repository benchmark.
//!
//! ```text
//! perfbench --workload <dsp_suite|netlist> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run exercises all four areas of the mapping stack, because every run
//! reports every metric: the named workload's area runs at full size, for at
//! least `--seconds`, and the other areas run a small fixed probe.
//!
//! | area    | full size (its own workload)                 | probe (the other workload)                |
//! |---------|----------------------------------------------|-------------------------------------------|
//! | dsp     | all 162 width-8 §5.1 designs in seeded order | 3 × the 42 ECP5 and Cyclone 10 LP designs |
//! | netlist | `rand_large.aag`: ≥ 4 × (cold, warm)         | `rand_mid.aig`: 4 × (cold, 3 × warm)      |
//! | serve   | —                                            | all 76 cold classes, hits until ≥ 100     |
//! | elab    | —                                            | 1k/2k/4k/2k-assign chains, 3 repetitions  |
//!
//! Units of the four areas are interleaved (see [`Bench::schedule`]), and a
//! reference kernel is timed before each: the CPU-bound timings are reported
//! at the reference host speed (see [`calib`]).
//!
//! With `--trace 0` the end-to-end metrics are measured with tracing off.
//! With `--trace 1` one unit of the workload's own area runs untraced, then
//! the whole schedule runs traced: the per-layer metrics come from the traced
//! schedule, and the wall of its first unit of that area over the untraced
//! one is `trace.overhead_ratio`.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The process exits 1 when any output
//! check fails and 2 on a usage error.

mod calib;
mod dsp;
mod elab;
mod layers;
mod netlist;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use lr_serve::Json;

use crate::layers::SpanTotals;
use crate::stats::{mean, median, percentile, Rng};

/// End-to-end metrics and their units, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 16] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
    ("dsp_map_p50_ms", "ms"),
    ("dsp_map_p90_ms", "ms"),
    ("dsp_wall_s", "s"),
    ("dsp_optimal", "count"),
    ("netlist_cold_s", "s"),
    ("netlist_warm_s", "s"),
    ("serve_hit_p50_ms", "ms"),
    ("serve_hit_p90_ms", "ms"),
    ("serve_ping_p50_ms", "ms"),
    ("serve_cold_p50_ms", "ms"),
    ("serve_rps", "1/s"),
    ("elab_4k_ms", "ms"),
    ("elab_growth", "ratio"),
];

/// Per-layer metrics and their units, as `BENCHMARK.json` lists them.
const PER_LAYER: [(&str, &str); 38] = [
    ("hdl.resolve_1k_ms", "ms"),
    ("hdl.resolve_2k_ms", "ms"),
    ("hdl.resolve_4k_ms", "ms"),
    ("hdl.nodes_per_s", "1/s"),
    ("aig.parse_ms", "ms"),
    ("aig.partition_ms", "ms"),
    ("aig.cones", "count"),
    ("aig.unique_cones", "count"),
    ("aig.stitch_ms", "ms"),
    ("aig.verify_ms", "ms"),
    ("egraph.saturate_ms", "ms"),
    ("egraph.prefold_ms", "ms"),
    ("egraph.prefold_attempts", "count"),
    ("egraph.prefold_folds", "count"),
    ("sketch.specialize_ms", "ms"),
    ("synth.cegis_ms", "ms"),
    ("synth.iterations", "count"),
    ("synth.portfolio_members", "count"),
    ("synth.synth_check_ms", "ms"),
    ("synth.verify_check_ms", "ms"),
    ("sat.checks", "count"),
    ("sat.check_ms", "ms"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("cache.lookups", "count"),
    ("cache.hits", "count"),
    ("cache.hit_rate", "fraction"),
    ("cache.stores", "count"),
    ("cache.replay_ms", "ms"),
    ("sched.jobs", "count"),
    ("sched.queue_wait_ms", "ms"),
    ("sched.steals", "count"),
    ("daemon.request_p50_ms", "ms"),
    ("daemon.queue_wait_p50_ms", "ms"),
    ("transport.gap_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.dropped_events", "count"),
    ("trace.complete", "count"),
];

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Slices a pass over the DSP order is cut into.
const DSP_SLICES: usize = 6;
/// Repetitions of the elaboration ladder.
const ELAB_REPS: usize = 3;
/// Rungs of one repetition, by index into the ladder: the 2000-assign chain
/// runs before and after the 4000-assign one, so `elab_growth` divides the
/// 4k time by 2k times taken on either side of it.
const ELAB_ORDER: [usize; 4] = [0, 1, 2, 1];
/// Cold runs of the large netlist (at least) and of the probe netlist, and
/// the warm runs after each: the probe's warm run takes a fifth of a second,
/// so it repeats to gather as much time as one large warm run.
const NETLIST_PAIRS: usize = 4;
const NETLIST_PROBE_PAIRS: usize = 4;
const NETLIST_PROBE_WARM_RUNS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    DspSuite,
    Netlist,
}

const WORKLOADS: [(&str, Workload); 2] =
    [("dsp_suite", Workload::DspSuite), ("netlist", Workload::Netlist)];

/// The four parts of the stack every run exercises. The serve window and the
/// elaboration ladder are no workload's own area: they run at the same size
/// in every workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Area {
    Dsp,
    Netlist,
    Elab,
    Serve,
}

const AREAS: [Area; 4] = [Area::Dsp, Area::Netlist, Area::Elab, Area::Serve];

impl Workload {
    fn area(self) -> Area {
        match self {
            Workload::DspSuite => Area::Dsp,
            Workload::Netlist => Area::Netlist,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(WORKLOADS.iter().find(|(name, _)| *name == value).ok_or_else(bad)?.1);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().ok().filter(|s| *s >= 0.0).ok_or_else(bad)?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Operations attempted and failed. A failure is an error, a timeout, a
/// `rejected` response, a lost job or an output mismatch; UNSAT is a valid
/// verdict.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Of the failures, outputs that disagreed with an independent check.
    mismatched: u64,
}

/// Named metric values.
#[derive(Default)]
struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// Everything a run measures from, built by [`Inputs::prepare`].
struct Inputs {
    designs: Vec<dsp::Design>,
    archs: Vec<lr_arch::Architecture>,
    ladder: Vec<elab::Chain>,
    served: serve::Served,
}

impl Inputs {
    fn prepare(serve_seed: u64) -> Result<Inputs, String> {
        let designs = dsp::suite();
        let served = serve::setup(&designs, serve_seed)?;
        Ok(Inputs {
            archs: dsp::architectures(),
            ladder: elab::RUNGS.iter().map(|&n| elab::chain(n)).collect(),
            designs,
            served,
        })
    }
}

/// Samples gathered across the units of a run.
#[derive(Default)]
struct Samples {
    dsp_ms: Vec<f64>,
    /// Wall and optimal count of each completed pass.
    dsp_passes: Vec<(f64, u64)>,
    /// The pass in progress: units done, wall so far, optimal so far.
    dsp_partial: (usize, f64, u64),
    dsp_s: f64,
    netlist_cold_s: Vec<f64>,
    netlist_warm_s: Vec<f64>,
    netlist_parse_ms: Vec<f64>,
    netlist_s: f64,
    serve: Option<serve::Window>,
    elab_ms: [Vec<f64>; 3],
    elab_nodes_4k: usize,
}

struct Bench {
    inputs: Inputs,
    workload: Workload,
    seconds: f64,
    dsp_order: Vec<usize>,
    check_rng: Rng,
    tally: Tally,
    samples: Samples,
    layer: Metrics,
    spans: SpanTotals,
    /// Cache stores made while tracing was on.
    traced_stores: f64,
    /// Units run per area, indexed by `Area as usize`.
    units: [usize; 4],
    /// Wall time of the first unit of the workload's own area.
    first_full_unit_s: Option<f64>,
    /// Reference kernel times, sampled before each unit and at the end.
    kernel_s: Vec<f64>,
}

impl Bench {
    fn full(&self, area: Area) -> bool {
        self.workload.area() == area
    }

    fn fail(&mut self, what: &str, why: &str, mismatch: bool) {
        self.tally.failed += 1;
        self.tally.mismatched += u64::from(mismatch);
        eprintln!("perfbench: {what}: {why}");
    }

    /// Units of `area` planned for this run. The workload's own area may
    /// add units beyond its plan until it has run for `--seconds`.
    fn planned(&self, area: Area) -> usize {
        match area {
            Area::Elab => ELAB_REPS,
            Area::Dsp => DSP_SLICES,
            Area::Netlist if self.full(area) => NETLIST_PAIRS,
            Area::Netlist => NETLIST_PROBE_PAIRS,
            Area::Serve => 1,
        }
    }

    /// Whether `area` still has work left in this run.
    fn wants(&self, area: Area) -> bool {
        let s = &self.samples;
        let short = |busy_s: f64| self.full(area) && busy_s < self.seconds;
        match area {
            Area::Dsp => s.dsp_passes.is_empty() || s.dsp_partial.0 > 0 || short(s.dsp_s),
            Area::Netlist => self.units[area as usize] < self.planned(area) || short(s.netlist_s),
            Area::Elab | Area::Serve => self.units[area as usize] < self.planned(area),
        }
    }

    /// Runs one unit of `area` and returns its wall time.
    fn unit(&mut self, area: Area) -> f64 {
        let started = Instant::now();
        match area {
            Area::Dsp => self.dsp_unit(),
            Area::Netlist => self.netlist_unit(),
            Area::Elab => self.elab_unit(),
            Area::Serve => self.serve_unit(),
        }
        self.spans.absorb(&lr_trace::take_events());
        self.units[area as usize] += 1;
        let wall = started.elapsed().as_secs_f64();
        if self.full(area) && self.first_full_unit_s.is_none() {
            self.first_full_unit_s = Some(wall);
        }
        wall
    }

    /// Runs units until every area is done, always picking the area furthest
    /// behind its plan, so each area's samples spread over the whole run
    /// instead of one stretch of a noisy machine's time.
    fn schedule(&mut self) {
        loop {
            let behind = AREAS.iter().copied().filter(|&a| self.wants(a)).min_by(|&a, &b| {
                let progress =
                    |area: Area| self.units[area as usize] as f64 / self.planned(area) as f64;
                progress(a).total_cmp(&progress(b))
            });
            let Some(area) = behind else { break };
            self.kernel_s.extend(calib::sample());
            let wall = self.unit(area);
            eprintln!(
                "perfbench: {area:?} unit took {wall:.2} s (peak rss {:.1} MB)",
                peak_rss_mb()
            );
        }
        self.kernel_s.extend(calib::sample());
    }

    /// The `index`-th of the [`DSP_SLICES`] slices of the DSP order.
    fn dsp_slice(&self, index: usize) -> &[usize] {
        let len = self.dsp_order.len().div_ceil(DSP_SLICES);
        let start = (index * len).min(self.dsp_order.len());
        &self.dsp_order[start..(start + len).min(self.dsp_order.len())]
    }

    fn dsp_pass(&mut self, index: usize) -> dsp::Pass {
        let slice = self.dsp_slice(index).to_vec();
        let pass =
            dsp::run_pass(&self.inputs.designs, &self.inputs.archs, &slice, &mut self.check_rng);
        self.tally.attempted += pass.attempted;
        self.tally.failed += pass.failed;
        self.tally.mismatched += pass.mismatched;
        pass
    }

    fn dsp_unit(&mut self) {
        let pass = self.dsp_pass(self.samples.dsp_partial.0);
        let s = &mut self.samples;
        s.dsp_ms.extend(&pass.latencies_ms);
        s.dsp_s += pass.wall_s;
        let (units, wall, optimal) = &mut s.dsp_partial;
        *units += 1;
        *wall += pass.wall_s;
        *optimal += pass.optimal;
        if *units == DSP_SLICES {
            s.dsp_passes.push((*wall, *optimal));
            s.dsp_partial = (0, 0.0, 0);
        }
    }

    fn netlist_fixture(&self) -> (&'static str, &'static [u8]) {
        if self.full(Area::Netlist) {
            netlist::LARGE
        } else {
            netlist::PROBE
        }
    }

    /// Maps the netlist cold and warm, and checks every result.
    fn netlist_pair(&mut self) -> netlist::Pair {
        let fixture = self.netlist_fixture();
        let warm_runs = if self.full(Area::Netlist) { 1 } else { NETLIST_PROBE_WARM_RUNS };
        let pair = netlist::run_pair(fixture, warm_runs);
        let results =
            std::iter::once(("cold", &pair.cold)).chain(pair.warm.iter().map(|w| ("warm", w)));
        for (phase, result) in results {
            self.tally.attempted += 1;
            let what = format!("netlist {} ({phase})", fixture.0);
            match result {
                Err(e) => self.fail(&what, e, false),
                Ok(report) => {
                    if let Err(e) = netlist::check(fixture, report, &mut self.check_rng) {
                        self.fail(&what, &e, true);
                    }
                }
            }
        }
        pair
    }

    fn netlist_unit(&mut self) {
        let pair = self.netlist_pair();
        if let Ok(report) = &pair.cold {
            self.layer.set("aig.cones", report.cones as f64);
        }
        self.layer.set("aig.unique_cones", pair.stores as f64);
        if lr_trace::enabled() {
            self.traced_stores += pair.stores as f64;
        }
        let s = &mut self.samples;
        s.netlist_cold_s.push(pair.cold_s);
        s.netlist_warm_s.extend(&pair.warm_s);
        s.netlist_parse_ms.push(pair.parse_ms);
        s.netlist_s += pair.cold_s + pair.warm_s.iter().sum::<f64>();
    }

    fn serve_unit(&mut self) {
        let stores_before = self.daemon_stats().map(|s| stat(&s, &["cache", "stores"]));
        let window = self.inputs.served.measure();
        self.tally.attempted += window.attempted;
        self.tally.failed += window.failed;
        self.tally.mismatched += window.mismatched;
        self.samples.serve = Some(window);
        if let Some(stats) = self.daemon_stats() {
            self.layer.set(
                "daemon.queue_wait_p50_ms",
                stat(&stats, &["latency", "queue_wait_us", "p50"]) / 1e3,
            );
            if let (Some(before), true) = (stores_before, lr_trace::enabled()) {
                self.traced_stores += stat(&stats, &["cache", "stores"]) - before;
            }
        }
    }

    fn daemon_stats(&mut self) -> Option<Json> {
        self.tally.attempted += 1;
        match self.inputs.served.stats() {
            Ok(doc) => Some(doc),
            Err(e) => {
                self.fail("daemon stats", &e, false);
                None
            }
        }
    }

    fn elab_unit(&mut self) {
        for rung in ELAB_ORDER {
            let chain = &self.inputs.ladder[rung];
            let resolved = elab::resolve(chain, &mut self.check_rng);
            self.tally.attempted += 1;
            if let Err(e) = &resolved.result {
                self.tally.failed += 1;
                self.tally.mismatched += 1;
                eprintln!("perfbench: elab chain{}: {e}", chain.assigns);
            }
            self.samples.elab_ms[rung].push(resolved.ms);
            self.samples.elab_nodes_4k = resolved.nodes;
        }
    }

    /// Runs one unit of the workload's own area untraced, for the traced
    /// run's overhead ratio; its samples are not kept.
    fn untraced_unit(&mut self) -> f64 {
        let started = Instant::now();
        match self.workload.area() {
            Area::Dsp => drop(self.dsp_pass(0)),
            Area::Netlist => drop(self.netlist_pair()),
            Area::Serve | Area::Elab => unreachable!("no workload's own area"),
        }
        started.elapsed().as_secs_f64()
    }

    /// The end-to-end metrics. The CPU-bound timings (DSP, netlist and
    /// ladder) are scaled to the reference host speed; the serve latencies
    /// are set by the transport's timers and are reported as measured.
    fn end_to_end(&self) -> Metrics {
        let s = &self.samples;
        let speed = calib::speed(&self.kernel_s);
        eprintln!("perfbench: the host ran at {speed:.3} of the reference speed");
        let mut m = Metrics::default();
        m.set("dsp_map_p50_ms", speed * percentile(&s.dsp_ms, 0.50).expect("dsp p50 tail"));
        m.set("dsp_map_p90_ms", speed * percentile(&s.dsp_ms, 0.90).expect("dsp p90 tail"));
        let walls: Vec<f64> = s.dsp_passes.iter().map(|p| p.0).collect();
        m.set("dsp_wall_s", speed * median(&walls));
        // A pass that loses an optimal mapping must show, so report the worst.
        let optimal = s.dsp_passes.iter().map(|p| p.1).min().expect("a completed pass");
        m.set("dsp_optimal", optimal as f64);
        m.set("netlist_cold_s", speed * mean(&s.netlist_cold_s));
        m.set("netlist_warm_s", speed * mean(&s.netlist_warm_s));
        let w = s.serve.as_ref().expect("the serve window ran");
        m.set("serve_hit_p50_ms", percentile(&w.hit_ms, 0.50).expect("serve hit p50 tail"));
        m.set("serve_hit_p90_ms", percentile(&w.hit_ms, 0.90).expect("serve hit p90 tail"));
        m.set("serve_ping_p50_ms", percentile(&w.ping_ms, 0.50).expect("serve ping p50 tail"));
        m.set("serve_cold_p50_ms", percentile(&w.cold_ms, 0.50).expect("serve cold p50 tail"));
        m.set("serve_rps", (w.hit_ms.len() + w.cold_ms.len()) as f64 / w.wall_s);
        m.set("elab_4k_ms", speed * mean(&s.elab_ms[2]));
        // Per repetition: the rungs of one repetition ran back to back, on
        // the same machine speed.
        let growth: Vec<f64> = s.elab_ms[2]
            .iter()
            .zip(s.elab_ms[1].chunks(2))
            .map(|(t4k, t2k)| t4k / mean(t2k))
            .collect();
        m.set("elab_growth", mean(&growth));
        m
    }

    /// The per-layer metrics: direct timings of the benchmark's own calls,
    /// span totals, and trace counters.
    fn per_layer(&mut self) -> Metrics {
        let s = &self.samples;
        let l = &mut self.layer;
        let [t1k, t2k, t4k] = [0, 1, 2].map(|rung| mean(&s.elab_ms[rung]));
        l.set("hdl.resolve_1k_ms", t1k);
        l.set("hdl.resolve_2k_ms", t2k);
        l.set("hdl.resolve_4k_ms", t4k);
        l.set("hdl.nodes_per_s", s.elab_nodes_4k as f64 / (t4k / 1e3));
        l.set("aig.parse_ms", median(&s.netlist_parse_ms));
        let w = s.serve.as_ref().expect("the serve window ran");
        let hit_p50 = percentile(&w.hit_ms, 0.50).expect("serve hit p50 tail");
        let daemon_p50 = percentile(&w.hit_daemon_ms, 0.50).expect("daemon-side p50 tail");
        l.set("daemon.request_p50_ms", daemon_p50);
        l.set("transport.gap_ms", hit_p50 - daemon_p50);

        let s = &self.spans;
        l.set("aig.partition_ms", s.ms("cone-partition"));
        l.set("aig.stitch_ms", s.ms("cone-stitch"));
        l.set("aig.verify_ms", s.ms("cone-verify"));
        l.set("egraph.saturate_ms", s.ms("saturate"));
        l.set("egraph.prefold_ms", s.ms("egraph-prefold"));
        l.set("egraph.prefold_attempts", s.count("egraph-prefold"));
        l.set("egraph.prefold_folds", s.attr_sum("egraph-prefold", "decided"));
        l.set("sketch.specialize_ms", s.ms("specialize"));
        l.set("synth.cegis_ms", s.ms("cegis"));
        l.set("synth.iterations", s.attr_sum("cegis", "iterations"));
        l.set("synth.portfolio_members", s.count("portfolio-member"));
        l.set("synth.synth_check_ms", s.ms("synth-check"));
        l.set("synth.verify_check_ms", s.ms("verify-check"));
        l.set("sat.checks", s.count("sat-check"));
        l.set("sat.check_ms", s.ms("sat-check"));
        l.set("sat.conflicts", s.attr_sum("cegis", "conflicts"));
        l.set("sat.propagations", s.attr_sum("cegis", "propagations"));
        let hits = lr_trace::counter_value("cache.hit") as f64;
        let lookups = hits + lr_trace::counter_value("cache.miss") as f64;
        l.set("cache.lookups", lookups);
        l.set("cache.hits", hits);
        l.set("cache.hit_rate", if lookups > 0.0 { hits / lookups } else { 0.0 });
        l.set("cache.stores", self.traced_stores);
        l.set("cache.replay_ms", s.ms("cache-replay"));
        let jobs = s.count("job");
        l.set("sched.jobs", jobs);
        l.set(
            "sched.queue_wait_ms",
            if jobs > 0.0 { s.attr_sum("job", "queue_wait_us") / jobs / 1e3 } else { 0.0 },
        );
        l.set("sched.steals", s.attr_sum("job", "stolen"));
        let dropped = lr_trace::dropped_events();
        l.set("trace.dropped_events", dropped as f64);
        l.set("trace.complete", if dropped == 0 { 1.0 } else { 0.0 });
        if dropped > 0 {
            eprintln!("perfbench: the trace sink dropped {dropped} events; per-layer totals are incomplete");
        }
        std::mem::take(l)
    }
}

fn stat(doc: &Json, path: &[&str]) -> f64 {
    doc.get(path).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs
    // starting with `ru_maxrss` (in KiB).
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is a writable buffer of the size of `struct rusage` on
    // 64-bit Linux, and RUSAGE_SELF (0) only writes into it.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid buffer");
    usage[4] as f64 / 1024.0
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut seeds = Rng::new(args.seed);
    let (dsp_seed, serve_seed, check_seed) = (seeds.next_u64(), seeds.next_u64(), seeds.next_u64());

    let mut setups = Vec::new();
    let mut inputs: Option<Inputs> = None;
    let mut lost = 0;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        let t0 = Instant::now();
        let prepared = Inputs::prepare(serve_seed)?;
        setups.push(t0.elapsed().as_secs_f64());
        if let Some(previous) = inputs.replace(prepared) {
            lost += previous.served.teardown();
        }
    }
    let inputs = inputs.expect("at least one set-up");
    let dsp_order = if args.workload == Workload::DspSuite {
        dsp::seeded_order(&inputs.designs, dsp_seed)
    } else {
        dsp::probe_order(&inputs.designs)
    };
    let mut bench = Bench {
        inputs,
        workload: args.workload,
        seconds: args.seconds,
        dsp_order,
        check_rng: Rng::new(check_seed),
        tally: Tally::default(),
        samples: Samples::default(),
        layer: Metrics::default(),
        spans: SpanTotals::default(),
        traced_stores: 0.0,
        units: [0; 4],
        first_full_unit_s: None,
        kernel_s: Vec::new(),
    };

    let metrics = if args.trace {
        lr_trace::reset();
        let untraced = bench.untraced_unit();
        lr_trace::set_enabled(true);
        bench.schedule();
        lr_trace::set_enabled(false);
        let traced = bench.first_full_unit_s.expect("the workload's area ran");
        bench.layer.set("trace.overhead_ratio", traced / untraced);
        bench.per_layer()
    } else {
        bench.schedule();
        let mut e2e = bench.end_to_end();
        e2e.set("setup_s", median(&setups));
        e2e
    };

    let Bench { inputs, mut tally, .. } = bench;
    lost += inputs.served.teardown();
    tally.attempted += 1;
    if lost > 0 {
        tally.failed += 1;
        eprintln!("perfbench: the daemon lost {lost} admitted jobs");
    }
    let mut metrics = metrics;
    if !args.trace {
        metrics.set("peak_rss_mb", peak_rss_mb());
        metrics.set("ok_frac", 1.0 - tally.failed as f64 / tally.attempted as f64);
    }
    Ok(Outcome {
        correct: tally.mismatched == 0 && lost == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// Renders the result line, checking that exactly the declared metrics were
/// measured.
fn render(outcome: &Outcome, declared: &[(&str, &str)]) -> String {
    let measured: Vec<&str> = outcome.metrics.0.keys().copied().collect();
    let mut names: Vec<&str> = declared.iter().map(|(name, _)| *name).collect();
    names.sort_unstable();
    assert_eq!(measured, names, "every declared metric is measured, and only those");
    let metrics = declared
        .iter()
        .map(|&(name, unit)| {
            let value = outcome.metrics.0[name];
            assert!(value.is_finite(), "{name} is {value}");
            let metric = Json::obj([("value", Json::num(value)), ("unit", Json::str(unit))]);
            (name.to_string(), metric)
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::num(outcome.attempted as f64)),
        ("failed", Json::num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <dsp_suite|netlist> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // Interpreting the elaborated 4000-assign chain recurses once per assign,
    // deeper than a default thread stack allows.
    let worker = std::thread::Builder::new().stack_size(512 << 20).spawn(move || {
        let outcome = run(&args);
        (args, outcome)
    });
    let (args, outcome) =
        worker.expect("spawn the benchmark thread").join().expect("benchmark thread panicked");
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let name = WORKLOADS.iter().find(|(_, w)| *w == args.workload).expect("known workload").0;
    println!(
        "perfbench workload={name} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for &(metric, unit) in declared {
        println!("  {metric:<26} {:>14.4} {unit}", outcome.metrics.0[metric]);
    }
    println!("{}", render(&outcome, declared));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        for (section, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed: Vec<(String, String)> = doc
                .get(&[section])
                .and_then(Json::as_arr)
                .expect(section)
                .iter()
                .map(|m| {
                    let field = |k| m.get(&[k]).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> =
                table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, ours, "{section}");
        }
        let workloads: Vec<&str> = doc
            .get(&["workloads"])
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get(&["name"]).and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|(name, _)| name));
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        let args = parse("--workload netlist --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(args.workload, Workload::Netlist);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3.0, true));
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload netlist --seed x").is_err());
        assert!(parse("--workload netlist --seed 1 --trace 2").is_err());
        assert!(parse("--seed 1").is_err());
    }
}
