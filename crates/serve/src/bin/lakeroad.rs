//! The `lakeroad` command-line tool.
//!
//! Single-design mode — the interface shown in the paper's §2.2:
//!
//! ```text
//! $ lakeroad --template dsp --arch-desc xilinx-ultrascale-plus add_mul_and.v
//! ```
//!
//! reads a behavioral mini-Verilog module, maps it onto the requested
//! architecture with the requested sketch template, and writes the synthesized
//! structural Verilog to stdout (or `--output <file>`).
//!
//! Netlist mode — the cone-partitioned structural frontend:
//!
//! ```text
//! $ lakeroad map-netlist c880.bench --arch-desc intel-cyclone10lp --jobs 4
//! ```
//!
//! parses an AIGER/`.bench` netlist, cuts it into LUT-sized cones, maps every
//! cone as a batch job over the shared synthesis cache, stitches the results
//! into one structural design, and verifies the stitch against the original
//! netlist on random stimulus (see `lr_serve::netlist`).
//!
//! Batch mode — the `lr_serve` engine:
//!
//! ```text
//! $ lakeroad batch jobs.manifest --jobs 4 --cache warm.lrc
//! ```
//!
//! runs every job of a manifest (designs × architectures × templates, see
//! `lr_serve::parse_manifest` for the format) on the batch scheduler, which
//! starts jobs in exact priority order, sharing one content-addressed
//! synthesis cache across all jobs; `--cache` persists that cache across
//! invocations, so a repeated batch is served warm.
//!
//! Serve mode — the resident daemon:
//!
//! ```text
//! $ lakeroad serve --addr 127.0.0.1:9077 --jobs 4 --cache warm.lrc
//! ```
//!
//! keeps one always-warm, size-bounded synthesis cache alive across many
//! clients, speaking the length-prefixed JSON protocol of `lr_serve::protocol`
//! over TCP. The process runs until a client sends `{"kind": "shutdown"}`,
//! then drains gracefully: every admitted job is finished and answered.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use lakeroad::{map_design, map_design_auto, MapConfig, MapOutcome};
use lr_arch::{ArchName, Architecture};
use lr_serve::{
    parse_arch_name, parse_manifest, parse_template, run_batch_streaming, BatchOptions,
    BatchReport, Daemon, DaemonConfig, JobResult, SynthCache, TemplateChoice,
};

struct Options {
    template: TemplateChoice,
    arch_name: ArchName,
    arch: Architecture,
    input: String,
    output: Option<String>,
    timeout: Duration,
    incremental: bool,
    egraph: bool,
    stats: bool,
    trace: Option<String>,
}

fn usage() -> String {
    "usage: lakeroad --template <auto|dsp|bitwise|bitwise-with-carry|comparison|multiplication>\n\
     \x20               --arch-desc <xilinx-ultrascale-plus|lattice-ecp5|intel-cyclone10lp|sofa>\n\
     \x20               [--timeout <seconds>] [--no-incremental] [--no-egraph] [--stats]\n\
     \x20               [--trace <out.json>] [--output <file>] <design.v | bench:<name>>\n\
     \x20      lakeroad map-netlist <design.aag|.aig|.bench> [--arch-desc <name>]\n\
     \x20               [--jobs <N>] [--cache <file>] [--no-cache] [--timeout <seconds>]\n\
     \x20               [--max-cone-ands <N>] [--verify-envs <N>] [--seed <u64>]\n\
     \x20               [--output <file>] [--trace <out.json>]\n\
     \x20      lakeroad batch <manifest> [--jobs <N>] [--cache <file>] [--no-cache]\n\
     \x20               [--timeout <seconds>] [--no-incremental] [--no-egraph]\n\
     \x20               [--trace <out.json>]\n\
     \x20      lakeroad serve [--addr <host:port>] [--jobs <N>] [--cache <file>]\n\
     \x20               [--cache-capacity <entries>] [--persist-interval <seconds>]\n\
     \x20               [--max-pending <N>] [--timeout <seconds>] [--no-incremental]\n\
     \x20               [--no-egraph] [--trace] [--slow-ms <ms>]\n\
     \x20               [--forensics-dir <dir>] [--forensics-keep <N>]\n\
     \x20      lakeroad top [--addr <host:port>] [--interval <seconds>] [--once]"
        .to_string()
}

/// Renders the winning run's solver statistics (requested with `--stats`): the
/// CEGIS loop shape, the SAT effort, and the CDCL clause-quality telemetry —
/// glue histogram, minimization ratio, learnt-database tier sizes.
fn render_stats(stats: &lakeroad::SynthesisStats) -> String {
    let mut out = String::from("-- synthesis statistics --\n");
    out.push_str(&format!(
        "  solver            : {} ({} restarts mode{})\n",
        stats.solver_name,
        stats.restart_mode,
        if stats.from_cache { ", served from cache" } else { "" },
    ));
    out.push_str(&format!(
        "  cegis             : {} iterations, {} examples, incremental={}\n",
        stats.iterations, stats.examples, stats.incremental
    ));
    out.push_str(&format!(
        "  sat effort        : {} conflicts, {} propagations, {} restarts\n",
        stats.conflicts, stats.propagations, stats.restarts
    ));
    let learnt_total: u64 = stats.glue_histogram.iter().sum();
    let minimized_pct = if stats.learnt_literals + stats.minimized_literals > 0 {
        100.0 * stats.minimized_literals as f64
            / (stats.learnt_literals + stats.minimized_literals) as f64
    } else {
        0.0
    };
    out.push_str(&format!(
        "  learnt clauses    : {} stored, {} literals, {} minimized away ({:.1}%)\n",
        learnt_total, stats.learnt_literals, stats.minimized_literals, minimized_pct
    ));
    let glue: Vec<String> = stats
        .glue_histogram
        .iter()
        .enumerate()
        .map(|(i, n)| {
            if i + 1 < stats.glue_histogram.len() {
                format!("{}:{}", i + 1, n)
            } else {
                format!("{}+:{}", i + 1, n)
            }
        })
        .collect();
    out.push_str(&format!("  glue histogram    : {}\n", glue.join(" ")));
    out.push_str(&format!(
        "  tier sizes (last) : core {} / mid {} / local {}\n",
        stats.sat_tier_sizes[0], stats.sat_tier_sizes[1], stats.sat_tier_sizes[2]
    ));
    out.push_str(&format!(
        "  egraph prefold    : {} attempts, {} folds; verification used SAT: {}\n",
        stats.egraph_attempts, stats.egraph_folds, stats.verification_used_sat
    ));
    out
}

/// Drains the trace buffer: writes it to `path` as Chrome trace-event JSON
/// (open it in `chrome://tracing` or Perfetto) and prints the aggregated
/// per-stage summary to stderr. Shared by the single-design and batch modes.
fn finish_trace(path: &str) -> Vec<lr_trace::TraceEvent> {
    lr_trace::flush();
    let events = lr_trace::take_events();
    match std::fs::write(path, lr_serve::chrome_trace_json(&events)) {
        Ok(()) => eprintln!("wrote {} trace events to `{path}`", events.len()),
        Err(e) => eprintln!("cannot write trace `{path}`: {e}"),
    }
    if lr_trace::dropped_events() > 0 {
        eprintln!(
            "({} older events were dropped by the bounded buffer)",
            lr_trace::dropped_events()
        );
    }
    eprint!("{}", lr_trace::stage_summary(&events));
    events
}

/// Reads one mode's arguments left to right. Every flag that takes a value
/// reads it through here, so the error text is the same in every mode.
struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Flags<'a> {
        Flags { args: args.iter() }
    }

    fn next(&mut self) -> Option<&'a str> {
        self.args.next().map(String::as_str)
    }

    /// The argument after `flag`, or "`flag` needs `what`".
    fn value(&mut self, flag: &str, what: &str) -> Result<String, String> {
        self.next().map(str::to_string).ok_or_else(|| format!("{flag} needs {what}"))
    }

    /// The argument after `flag`, parsed, or "`flag` expects `what`".
    fn parse<T: std::str::FromStr>(&mut self, flag: &str, what: &str) -> Result<T, String> {
        self.value(flag, "a value")?.parse().map_err(|_| format!("{flag} expects {what}"))
    }

    /// A count of at least 1 after `flag`.
    fn positive(&mut self, flag: &str, what: &str) -> Result<usize, String> {
        match self.parse(flag, what)? {
            0 => Err(format!("{flag} expects {what}")),
            n => Ok(n),
        }
    }

    fn seconds(&mut self, flag: &str) -> Result<Duration, String> {
        self.parse(flag, "a number of seconds").map(Duration::from_secs)
    }

    fn jobs(&mut self) -> Result<usize, String> {
        self.positive("--jobs", "a worker count of at least 1")
    }

    fn cache(&mut self) -> Result<String, String> {
        self.value("--cache", "a file path")
    }

    fn arch(&mut self) -> Result<ArchName, String> {
        let name = self.value("--arch-desc", "a value")?;
        parse_arch_name(&name).ok_or(format!("unknown architecture `{name}`"))
    }
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn unknown(flag: &str) -> String {
    format!("unknown flag `{flag}`\n{}", usage())
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut template = None;
    let mut arch = None;
    let mut input = None;
    let mut output = None;
    let mut timeout = Duration::from_secs(120);
    let mut incremental = true;
    let mut egraph = true;
    let mut stats = false;
    let mut trace = None;
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next() {
        match arg {
            "--stats" => stats = true,
            "--trace" => trace = Some(flags.value("--trace", "an output file")?),
            "--template" => {
                let name = flags.value("--template", "a value")?;
                template = Some(parse_template(&name).ok_or(format!("unknown template `{name}`"))?);
            }
            "--arch-desc" => arch = Some(flags.arch()?),
            "--timeout" => timeout = flags.seconds("--timeout")?,
            "--no-incremental" => incremental = false,
            "--no-egraph" => egraph = false,
            "--output" | "-o" => output = Some(flags.value("--output", "a value")?),
            "--help" | "-h" => return Err(usage()),
            other if !other.starts_with('-') => input = Some(other.to_string()),
            other => return Err(unknown(other)),
        }
    }
    let arch_name = arch.ok_or(format!("missing --arch-desc\n{}", usage()))?;
    Ok(Options {
        template: template.ok_or(format!("missing --template\n{}", usage()))?,
        arch_name,
        arch: Architecture::load(arch_name),
        input: input.ok_or(format!("missing input design\n{}", usage()))?,
        output,
        timeout,
        incremental,
        egraph,
        stats,
        trace,
    })
}

struct BatchArgs {
    manifest: String,
    jobs: usize,
    cache_path: Option<String>,
    use_cache: bool,
    timeout: Duration,
    incremental: bool,
    egraph: bool,
    trace: Option<String>,
}

fn parse_batch_args(args: &[String]) -> Result<BatchArgs, String> {
    let mut manifest = None;
    let mut jobs = default_jobs();
    let mut cache_path = None;
    let mut use_cache = true;
    let mut timeout = Duration::from_secs(120);
    let mut incremental = true;
    let mut egraph = true;
    let mut trace = None;
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next() {
        match arg {
            "--trace" => trace = Some(flags.value("--trace", "an output file")?),
            "--jobs" | "-j" => jobs = flags.jobs()?,
            "--cache" => cache_path = Some(flags.cache()?),
            "--no-cache" => use_cache = false,
            "--timeout" => timeout = flags.seconds("--timeout")?,
            "--no-incremental" => incremental = false,
            "--no-egraph" => egraph = false,
            "--help" | "-h" => return Err(usage()),
            other if !other.starts_with('-') => manifest = Some(other.to_string()),
            other => return Err(unknown(other)),
        }
    }
    Ok(BatchArgs {
        manifest: manifest.ok_or(format!("missing batch manifest\n{}", usage()))?,
        jobs,
        cache_path,
        use_cache,
        timeout,
        incremental,
        egraph,
        trace,
    })
}

/// Opens the cache `--cache`/`--no-cache` ask for: the persistent file at
/// `path` (empty while it does not exist yet), a cache that lives for this run
/// only when no path is given, or none with `--no-cache`.
fn open_cache(use_cache: bool, path: Option<&str>) -> Result<Option<Arc<SynthCache>>, String> {
    if !use_cache {
        return Ok(None);
    }
    let Some(path) = path else { return Ok(Some(Arc::new(SynthCache::new()))) };
    let cache = SynthCache::load(std::path::Path::new(path))
        .map_err(|e| format!("cannot load cache `{path}`: {e}"))?;
    if !cache.is_empty() {
        eprintln!("loaded {} cached verdicts from `{path}`", cache.len());
    }
    Ok(Some(Arc::new(cache)))
}

/// Saves the run's cache back to `--cache <path>`, when there is both.
fn save_cache(cache: Option<&SynthCache>, path: Option<&str>) -> Result<(), String> {
    if let (Some(cache), Some(path)) = (cache, path) {
        cache
            .save(std::path::Path::new(path))
            .map_err(|e| format!("cannot save cache `{path}`: {e}"))?;
        eprintln!("saved {} cached verdicts to `{path}`", cache.len());
    }
    Ok(())
}

fn batch_main(args: &[String]) -> ExitCode {
    let options = match parse_batch_args(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let manifest_path = std::path::Path::new(&options.manifest);
    let text = match std::fs::read_to_string(manifest_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read `{}`: {e}", options.manifest);
            return ExitCode::from(2);
        }
    };
    let base = manifest_path.parent().unwrap_or_else(|| std::path::Path::new("."));
    let jobs = match parse_manifest(&text, base) {
        Ok(jobs) => jobs,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let cache = match open_cache(options.use_cache, options.cache_path.as_deref()) {
        Ok(cache) => cache,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let mut map = MapConfig {
        incremental: options.incremental,
        egraph: options.egraph,
        ..MapConfig::default().with_timeout(options.timeout)
    };
    if let Some(cache) = &cache {
        let shared: Arc<dyn lakeroad::MapCache> = Arc::<SynthCache>::clone(cache);
        map = map.with_cache(shared);
    }
    let opts = BatchOptions::new(options.jobs, map);
    if options.trace.is_some() {
        lr_trace::set_enabled(true);
    }

    let total = jobs.len();
    let before = cache.as_ref().map(|c| c.snapshot());
    let run = run_batch_streaming(&jobs, &opts, |record| {
        let verdict = match &record.result {
            JobResult::Finished(MapOutcome::Success(m)) => format!(
                "success ({} DSP, {} LEs, {} regs){}",
                m.resources.dsps,
                m.resources.logic_elements,
                m.resources.registers,
                if m.from_cache { " [cache]" } else { "" },
            ),
            JobResult::Finished(MapOutcome::Unsat { from_cache, .. }) => {
                format!("unsat{}", if *from_cache { " [cache]" } else { "" })
            }
            JobResult::Finished(MapOutcome::Timeout { .. }) => "timeout".to_string(),
            JobResult::Error(e) => format!("error: {e}"),
            JobResult::DeadlineExpired => "deadline expired".to_string(),
            JobResult::Cancelled => "cancelled".to_string(),
        };
        eprintln!(
            "[{}/{}] {:32} {:.3}s  {}",
            record.index + 1,
            total,
            record.name,
            record.elapsed.as_secs_f64(),
            verdict
        );
    });
    let delta = match (&before, &cache) {
        (Some(before), Some(cache)) => Some(before.delta(&cache.snapshot())),
        _ => None,
    };
    let mut report = BatchReport::from_run(&run, delta);
    if let Some(path) = &options.trace {
        let events = finish_trace(path);
        report.attach_trace(&run, &events);
    }
    print!("{}", report.render());

    if let Err(e) = save_cache(cache.as_deref(), options.cache_path.as_deref()) {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    if report.errors > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

struct MapNetlistArgs {
    input: String,
    arch_name: ArchName,
    jobs: usize,
    cache_path: Option<String>,
    use_cache: bool,
    timeout: Duration,
    max_cone_ands: usize,
    verify_envs: usize,
    seed: u64,
    output: Option<String>,
    trace: Option<String>,
}

fn parse_map_netlist_args(args: &[String]) -> Result<MapNetlistArgs, String> {
    let mut input = None;
    let mut arch_name = ArchName::IntelCyclone10Lp;
    let mut jobs = default_jobs();
    let mut cache_path = None;
    let mut use_cache = true;
    let mut timeout = Duration::from_secs(120);
    let mut max_cone_ands = 32;
    let mut verify_envs = 32;
    let mut seed = 0x1a4e_715d;
    let mut output = None;
    let mut trace = None;
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next() {
        match arg {
            "--arch-desc" => arch_name = flags.arch()?,
            "--jobs" | "-j" => jobs = flags.jobs()?,
            "--cache" => cache_path = Some(flags.cache()?),
            "--no-cache" => use_cache = false,
            "--timeout" => timeout = flags.seconds("--timeout")?,
            "--max-cone-ands" => {
                max_cone_ands = flags.positive("--max-cone-ands", "a bound of at least 1")?;
            }
            "--verify-envs" => {
                verify_envs = flags.parse("--verify-envs", "an environment count")?
            }
            "--seed" => seed = flags.parse("--seed", "an unsigned integer")?,
            "--output" | "-o" => output = Some(flags.value("--output", "a value")?),
            "--trace" => trace = Some(flags.value("--trace", "an output file")?),
            "--help" | "-h" => return Err(usage()),
            other if !other.starts_with('-') => input = Some(other.to_string()),
            other => return Err(unknown(other)),
        }
    }
    Ok(MapNetlistArgs {
        input: input.ok_or(format!("missing netlist file\n{}", usage()))?,
        arch_name,
        jobs,
        cache_path,
        use_cache,
        timeout,
        max_cone_ands,
        verify_envs,
        seed,
        output,
        trace,
    })
}

fn map_netlist_main(args: &[String]) -> ExitCode {
    let options = match parse_map_netlist_args(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if options.trace.is_some() {
        lr_trace::set_enabled(true);
    }
    let bytes = match std::fs::read(&options.input) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("cannot read `{}`: {e}", options.input);
            return ExitCode::from(2);
        }
    };
    let aig = match lr_aig::parse_netlist(&bytes, Some(&options.input)) {
        Ok(aig) => {
            let stem = std::path::Path::new(&options.input)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "netlist".to_string());
            aig.with_name(stem)
        }
        Err(e) => {
            eprintln!("`{}`: {e}", options.input);
            return ExitCode::from(2);
        }
    };

    let cache = match open_cache(options.use_cache, options.cache_path.as_deref()) {
        Ok(cache) => cache,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut map = MapConfig::default().with_timeout(options.timeout);
    if let Some(cache) = &cache {
        let shared: Arc<dyn lakeroad::MapCache> = Arc::<SynthCache>::clone(cache);
        map = map.with_cache(shared);
    }

    let mut netlist_options = lr_serve::NetlistOptions::new(options.arch_name);
    netlist_options.workers = options.jobs;
    netlist_options.map = map;
    netlist_options.max_cone_ands = options.max_cone_ands;
    netlist_options.verify_environments = options.verify_envs;
    netlist_options.verify_seed = options.seed;

    let result = lr_serve::map_netlist(&aig, &netlist_options, |record| {
        if let JobResult::Error(e) = &record.result {
            eprintln!("{}: {e}", record.name);
        }
    });
    if let Some(path) = &options.trace {
        finish_trace(path);
    }
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprint!("{}", report.render());

    if let Err(e) = save_cache(cache.as_deref(), options.cache_path.as_deref()) {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    match options.output {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &report.verilog) {
                eprintln!("cannot write `{path}`: {e}");
                return ExitCode::from(2);
            }
        }
        None => println!("{}", report.verilog),
    }
    ExitCode::SUCCESS
}

fn parse_serve_args(args: &[String]) -> Result<(DaemonConfig, bool), String> {
    let mut config = DaemonConfig {
        addr: "127.0.0.1:9077".to_string(),
        workers: default_jobs(),
        ..DaemonConfig::default()
    };
    let mut timeout = Duration::from_secs(120);
    let mut incremental = true;
    let mut egraph = true;
    let mut trace = false;
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next() {
        match arg {
            "--trace" => trace = true,
            "--addr" => config.addr = flags.value("--addr", "a host:port value")?,
            "--jobs" | "-j" => config.workers = flags.jobs()?,
            "--cache" => config.persist_path = Some(flags.cache()?.into()),
            "--cache-capacity" => {
                let cap: usize = flags.parse("--cache-capacity", "an entry count")?;
                // 0 = unbounded, matching `SynthCache::set_capacity`.
                config.cache_capacity = (cap > 0).then_some(cap);
            }
            "--persist-interval" => {
                config.persist_interval =
                    flags.seconds("--persist-interval")?.max(Duration::from_secs(1));
            }
            "--max-pending" => {
                config.max_pending_per_client =
                    flags.positive("--max-pending", "a bound of at least 1")?;
            }
            "--timeout" => timeout = flags.seconds("--timeout")?,
            "--no-incremental" => incremental = false,
            "--no-egraph" => egraph = false,
            "--slow-ms" => {
                let ms = flags.parse("--slow-ms", "a number of milliseconds")?;
                // 0 is meaningful: every request breaches the threshold, so
                // every request is dumped (what the integration tests use).
                config.forensics.slow = Some(Duration::from_millis(ms));
            }
            "--forensics-dir" => {
                config.forensics.dir =
                    Some(flags.value("--forensics-dir", "a directory path")?.into());
            }
            "--forensics-keep" => {
                config.forensics.keep =
                    flags.positive("--forensics-keep", "a bound of at least 1")?;
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(unknown(other)),
        }
    }
    config.map = MapConfig { incremental, egraph, ..MapConfig::default().with_timeout(timeout) };
    Ok((config, trace))
}

fn serve_main(args: &[String]) -> ExitCode {
    let (config, trace) = match parse_serve_args(args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if trace {
        // Record spans into the bounded in-process buffer; clients retrieve
        // them with a `{"kind": "trace"}` request.
        lr_trace::set_enabled(true);
    }
    let persist = config.persist_path.clone();
    let daemon = match Daemon::bind(config) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("cannot bind daemon: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("lakeroad daemon listening on {}", daemon.local_addr());
    if let Some(path) = &persist {
        eprintln!("persisting the synthesis cache to `{}`", path.display());
    }
    let summary = daemon.wait();
    eprintln!(
        "drained: {} accepted / {} completed / {} rejected ({} lost), \
         {} served from cache, {} cache entries",
        summary.accepted,
        summary.completed,
        summary.rejected,
        summary.lost(),
        summary.cache_served,
        summary.cache_entries,
    );
    if summary.lost() > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn parse_top_args(args: &[String]) -> Result<(String, Duration, bool), String> {
    let mut addr = "127.0.0.1:9077".to_string();
    let mut interval = Duration::from_secs(2);
    let mut once = false;
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next() {
        match arg {
            "--addr" => addr = flags.value("--addr", "a host:port value")?,
            "--interval" => interval = flags.seconds("--interval")?.max(Duration::from_secs(1)),
            "--once" => once = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(unknown(other)),
        }
    }
    Ok((addr, interval, once))
}

fn top_main(args: &[String]) -> ExitCode {
    let (addr, interval, once) = match parse_top_args(args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match lr_serve::top::run(&addr, interval, once) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cannot reach daemon at {addr}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("map-netlist") {
        return map_netlist_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("batch") {
        return batch_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("serve") {
        return serve_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("top") {
        return top_main(&args[1..]);
    }
    let options = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if options.trace.is_some() {
        lr_trace::set_enabled(true);
    }
    // Resolve the design through the unified frontend: a Verilog file, a
    // structural netlist (`.aag`/`.aig`/`.bench`), or `bench:<name>` — one of
    // the §5.1 microbenchmarks of the chosen architecture. Each input kind
    // reports its own per-stage trace spans (`elaborate`, `netlist-parse`/
    // `netlist-elaborate`, or `suite-build`).
    let source = lakeroad::DesignSource::from_spec(&options.input, std::path::Path::new(""));
    let spec = match source.resolve(options.arch_name) {
        Ok(spec) => spec,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let config = MapConfig {
        incremental: options.incremental,
        egraph: options.egraph,
        ..MapConfig::default().with_timeout(options.timeout)
    };
    let result = match options.template {
        TemplateChoice::Named(template) => map_design(&spec, template, &options.arch, &config),
        TemplateChoice::Auto => map_design_auto(&spec, &options.arch, &config),
    };
    if let Some(path) = &options.trace {
        finish_trace(path);
    }
    match result {
        Ok(MapOutcome::Success(mapped)) => {
            eprintln!(
                "mapped onto {} in {:.2?}: {} DSP, {} LEs, {} registers",
                options.arch.name(),
                mapped.elapsed,
                mapped.resources.dsps,
                mapped.resources.logic_elements,
                mapped.resources.registers
            );
            if options.stats {
                eprint!("{}", render_stats(&mapped.stats));
            }
            match options.output {
                Some(path) => {
                    if let Err(e) = std::fs::write(&path, &mapped.verilog) {
                        eprintln!("cannot write `{path}`: {e}");
                        return ExitCode::from(2);
                    }
                }
                None => println!("{}", mapped.verilog),
            }
            ExitCode::SUCCESS
        }
        Ok(MapOutcome::Unsat { elapsed, .. }) => {
            let what = match options.template {
                TemplateChoice::Named(t) => format!("the {t} sketch"),
                TemplateChoice::Auto => "any ranked sketch".to_string(),
            };
            eprintln!(
                "UNSAT after {elapsed:.2?}: no configuration of {what} implements this design"
            );
            if options.stats {
                eprintln!("(per-run solver statistics are recorded for successful mappings only)");
            }
            ExitCode::FAILURE
        }
        Ok(MapOutcome::Timeout { elapsed, .. }) => {
            eprintln!("timeout after {elapsed:.2?}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn a_flag_missing_its_value_is_rejected() {
        let err = parse_batch_args(&args(&["jobs.manifest", "--jobs"])).err().unwrap();
        assert_eq!(err, "--jobs needs a value");
        let err = parse_serve_args(&args(&["--cache"])).err().unwrap();
        assert_eq!(err, "--cache needs a file path");
    }

    #[test]
    fn a_non_numeric_value_is_rejected() {
        let err = parse_map_netlist_args(&args(&["n.aag", "--timeout", "soon"])).err().unwrap();
        assert_eq!(err, "--timeout expects a number of seconds");
        let err = parse_top_args(&args(&["--interval", "-1"])).err().unwrap();
        assert_eq!(err, "--interval expects a number of seconds");
    }

    #[test]
    fn zero_jobs_is_rejected() {
        let zero = args(&["design", "--jobs", "0"]);
        for err in [
            parse_batch_args(&zero).err(),
            parse_map_netlist_args(&zero).err(),
            parse_serve_args(&zero[1..]).err(),
        ] {
            assert_eq!(err.unwrap(), "--jobs expects a worker count of at least 1");
        }
    }

    #[test]
    fn unknown_flags_are_rejected() {
        // There is no `--egraph`: the e-graph is on by default and `--no-egraph`
        // turns it off.
        for flag in ["--bogus", "--egraph"] {
            let err = parse_args(&args(&["--template", "dsp", flag])).err().unwrap();
            assert!(err.starts_with(&format!("unknown flag `{flag}`")), "{err}");
        }
        assert!(parse_top_args(&args(&["--bogus"])).err().unwrap().starts_with("unknown flag"));
    }

    #[test]
    fn values_and_defaults_are_read() {
        let batch =
            parse_batch_args(&args(&["m", "-j", "3", "--cache", "c.lrc", "--timeout", "9"]))
                .unwrap();
        assert_eq!((batch.jobs, batch.cache_path.as_deref()), (3, Some("c.lrc")));
        assert_eq!(batch.timeout, Duration::from_secs(9));
        let (config, trace) = parse_serve_args(&args(&["--persist-interval", "0"])).unwrap();
        assert_eq!(config.persist_interval, Duration::from_secs(1));
        assert!(!trace);
    }
}
