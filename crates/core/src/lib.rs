//! # lakeroad: FPGA technology mapping using sketch-guided program synthesis
//!
//! This is the core crate of the reproduction: it glues together the behavioral
//! frontend (`lr-hdl`), the architecture descriptions and primitive semantics
//! (`lr-arch`), the sketch templates (`lr-sketch`), and the synthesis engine
//! (`lr-synth`) into the tool the paper describes — the equivalent of
//!
//! ```text
//! $ lakeroad --template dsp --arch-desc xilinx-ultrascale-plus.yml add_mul_and.v
//! ```
//!
//! The main entry points are [`map_design`] (map an ℒbeh design) and
//! [`map_verilog`] (map a behavioral mini-Verilog module). The
//! [`suite`] module regenerates the paper's microbenchmark suites (§5.1), and
//! [`report`] provides the aggregation used by the experiment binaries.
//!
//! ```no_run
//! use lakeroad::{map_verilog, MapConfig, Template};
//! use lr_arch::Architecture;
//!
//! let verilog = r#"
//! module mul8(input clk, input [7:0] a, b, output [7:0] out);
//!   assign out = a * b;
//! endmodule
//! "#;
//! let arch = Architecture::xilinx_ultrascale_plus();
//! let outcome = map_verilog(verilog, Template::Dsp, &arch, &MapConfig::default()).unwrap();
//! assert!(outcome.is_success());
//! ```

pub mod cache;
pub mod report;
pub mod source;
pub mod suite;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lr_arch::Architecture;
use lr_ir::{Node, Prog};
use lr_synth::portfolio::synthesize_portfolio_with;
use lr_synth::{SolverConfig, SynthesisConfig, SynthesisError, SynthesisOutcome, SynthesisTask};

pub use cache::{CacheKey, CachedOutcome, MapCache};
pub use lr_sketch::{generate_sketch, SketchError, Template};
pub use lr_synth::SynthesisStats;
pub use source::DesignSource;

/// Configuration for one mapping run.
#[derive(Clone)]
pub struct MapConfig {
    /// Wall-clock budget for synthesis (the paper uses 120 s / 40 s / 20 s per
    /// architecture).
    pub timeout: Duration,
    /// Extra clock cycles of bounded model checking beyond the design's pipeline
    /// depth (the `c` of 𝑓*lr).
    pub bmc_window: u32,
    /// Solver configurations to race; defaults to the four-member portfolio.
    pub solvers: Vec<SolverConfig>,
    /// Maximum CEGIS iterations per solver.
    pub max_iterations: usize,
    /// Reuse solver state across CEGIS iterations (default on; see
    /// `lr_synth::cegis`). Turning this off restores the from-scratch loop, which
    /// the differential tests and the `exp_cegis` benchmark use as a baseline.
    pub incremental: bool,
    /// Use equality saturation (`lr_egraph`, default on): canonicalize the spec
    /// with [`lr_ir::Prog::saturated`] before sketch generation, and pre-fold
    /// CEGIS verification disequalities that one-shot rewriting cannot decide.
    /// Turning this off restores the pool-rewriting-only pipeline, kept measurable
    /// for the `exp_egraph` ablation.
    pub egraph: bool,
    /// Content-addressed synthesis cache (see [`cache`]): consulted before
    /// synthesis under the canonical spec's [`CacheKey`], fed after. `None`
    /// (the default) synthesizes every request from scratch; the `lr_serve`
    /// batch engine installs its [`MapCache`] here.
    pub cache: Option<Arc<dyn MapCache>>,
    /// The budget used for the cache key's timeout tier; defaults to
    /// [`MapConfig::timeout`]. Callers that shrink `timeout` *dynamically* —
    /// the auto-template loop handing each attempt only the remaining budget,
    /// the batch scheduler clamping a job to its deadline — must pin this to
    /// the originally requested budget, or the same job would hash to
    /// different tiers depending on wall-clock accidents and warm caches would
    /// miss.
    pub cache_budget: Option<Duration>,
    /// External cancellation flag, threaded through to the synthesis layer as a
    /// SAT-solver interrupt: when it becomes true, in-flight solver checks
    /// return promptly and the mapping reports a timeout verdict. `None` (the
    /// default) means the run is only bounded by `timeout`.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl std::fmt::Debug for MapConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapConfig")
            .field("timeout", &self.timeout)
            .field("bmc_window", &self.bmc_window)
            .field("solvers", &self.solvers)
            .field("max_iterations", &self.max_iterations)
            .field("incremental", &self.incremental)
            .field("egraph", &self.egraph)
            .field("cache", &self.cache.as_ref().map(|_| "<MapCache>"))
            .field("cache_budget", &self.cache_budget)
            .field("cancel", &self.cancel.as_ref().map(|c| c.load(Ordering::Relaxed)))
            .finish()
    }
}

impl Default for MapConfig {
    fn default() -> Self {
        MapConfig {
            timeout: Duration::from_secs(120),
            bmc_window: 2,
            solvers: SolverConfig::portfolio(),
            max_iterations: 64,
            incremental: true,
            egraph: true,
            cache: None,
            cache_budget: None,
            cancel: None,
        }
    }
}

impl MapConfig {
    /// A configuration using a single default solver (useful for deterministic tests
    /// and the ablation benchmarks).
    pub fn single_solver() -> Self {
        MapConfig { solvers: vec![SolverConfig::default()], ..Default::default() }
    }

    /// Sets the synthesis timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Installs a synthesis cache (see [`cache`]).
    pub fn with_cache(mut self, cache: Arc<dyn MapCache>) -> Self {
        self.cache = Some(cache);
        self
    }
}

/// Resource usage of a mapped (or baseline-mapped) design.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Resources {
    /// Number of DSP blocks.
    pub dsps: usize,
    /// Number of logic elements (LUTs / muxes / carry slices).
    pub logic_elements: usize,
    /// Number of register bits.
    pub registers: usize,
}

impl Resources {
    /// Whether the design fits in exactly one DSP and nothing else — the paper's
    /// success criterion for the completeness experiment.
    pub fn is_single_dsp(&self) -> bool {
        self.dsps == 1 && self.logic_elements == 0 && self.registers == 0
    }
}

/// Counts the resources used by a structural ℒlr program (after simplification):
/// primitive instances by interface, plus top-level register bits.
pub fn count_resources(prog: &Prog) -> Resources {
    let mut r = Resources::default();
    for (_, node) in prog.nodes() {
        match node {
            Node::Prim(p) => {
                if p.interface == "DSP" {
                    r.dsps += 1;
                } else {
                    r.logic_elements += 1;
                }
            }
            Node::Reg { init, .. } => r.registers += init.width() as usize,
            _ => {}
        }
    }
    r
}

/// A successful mapping.
#[derive(Debug, Clone)]
pub struct MappedDesign {
    /// The structural implementation (holes filled, selection logic folded).
    pub implementation: Prog,
    /// Structural Verilog for the implementation.
    pub verilog: String,
    /// Resources used by the implementation.
    pub resources: Resources,
    /// Total synthesis wall-clock time — or, for cache-served results, the
    /// lookup-plus-replay time (near zero).
    pub elapsed: Duration,
    /// Which portfolio member produced the verdict (`None` for cache hits).
    pub winning_solver: Option<String>,
    /// CEGIS iterations of the winning run (0 for cache hits).
    pub iterations: usize,
    /// Whether this mapping was replayed from the synthesis cache rather than
    /// synthesized. Cached results carry near-zero [`MappedDesign::elapsed`], so
    /// reports must not average them in with solver latencies.
    pub from_cache: bool,
    /// Full statistics of the winning synthesis run (a `"cache"`-labelled stub
    /// with [`SynthesisStats::from_cache`] set for replayed hits).
    pub stats: SynthesisStats,
}

/// The verdict of a mapping run.
#[derive(Debug, Clone)]
pub enum MapOutcome {
    /// Mapping succeeded.
    Success(Box<MappedDesign>),
    /// The solver proved no configuration of the sketch implements the design.
    Unsat {
        /// Synthesis wall-clock time (near zero for cache-served verdicts).
        elapsed: Duration,
        /// Which portfolio member produced the verdict (`None` for cache hits).
        winning_solver: Option<String>,
        /// Whether the verdict was served from the synthesis cache.
        from_cache: bool,
        /// Statistics of the run that produced the verdict (a `"cache"`-labelled
        /// stub for cache-served verdicts).
        stats: Box<SynthesisStats>,
    },
    /// The time/iteration budget was exhausted.
    Timeout {
        /// Synthesis wall-clock time.
        elapsed: Duration,
        /// Partial statistics of the work performed before the budget ran out
        /// (accumulated across every posed attempt for the auto-template loop).
        stats: Box<SynthesisStats>,
    },
}

impl MapOutcome {
    /// Whether mapping succeeded.
    pub fn is_success(&self) -> bool {
        matches!(self, MapOutcome::Success(_))
    }

    /// Whether the verdict was UNSAT.
    pub fn is_unsat(&self) -> bool {
        matches!(self, MapOutcome::Unsat { .. })
    }

    /// Whether the run timed out.
    pub fn is_timeout(&self) -> bool {
        matches!(self, MapOutcome::Timeout { .. })
    }

    /// The successful mapping, if any.
    pub fn success(self) -> Option<MappedDesign> {
        match self {
            MapOutcome::Success(m) => Some(*m),
            _ => None,
        }
    }

    /// The synthesis wall-clock time, regardless of verdict. For cache-served
    /// results this is the lookup-plus-replay time, not the original solver
    /// time — check [`MapOutcome::served_from_cache`] before aggregating.
    pub fn elapsed(&self) -> Duration {
        match self {
            MapOutcome::Success(m) => m.elapsed,
            MapOutcome::Unsat { elapsed, .. } | MapOutcome::Timeout { elapsed, .. } => *elapsed,
        }
    }

    /// The synthesis statistics behind the verdict, whatever it was: the winning
    /// run's for success, the proving run's for UNSAT, and the accumulated
    /// partial work for timeouts. Cache-served verdicts carry a
    /// `"cache"`-labelled stub with [`SynthesisStats::from_cache`] set.
    pub fn stats(&self) -> &SynthesisStats {
        match self {
            MapOutcome::Success(m) => &m.stats,
            MapOutcome::Unsat { stats, .. } | MapOutcome::Timeout { stats, .. } => stats,
        }
    }

    /// Whether the verdict was replayed from the synthesis cache rather than
    /// synthesized (always false for timeouts — they are never cached).
    pub fn served_from_cache(&self) -> bool {
        match self {
            MapOutcome::Success(m) => m.from_cache,
            MapOutcome::Unsat { from_cache, .. } => *from_cache,
            MapOutcome::Timeout { .. } => false,
        }
    }
}

/// Errors that prevent a mapping run from being posed at all.
#[derive(Debug, Clone)]
pub enum MapError {
    /// Sketch generation failed (missing interface, unsupported shape).
    Sketch(SketchError),
    /// The synthesis task was malformed.
    Synthesis(SynthesisError),
    /// The behavioral frontend failed to parse/elaborate the design.
    Frontend(String),
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::Sketch(e) => write!(f, "sketch generation failed: {e}"),
            MapError::Synthesis(e) => write!(f, "synthesis failed: {e}"),
            MapError::Frontend(e) => write!(f, "frontend failed: {e}"),
        }
    }
}

impl std::error::Error for MapError {}

impl From<SketchError> for MapError {
    fn from(e: SketchError) -> Self {
        MapError::Sketch(e)
    }
}

impl From<SynthesisError> for MapError {
    fn from(e: SynthesisError) -> Self {
        MapError::Synthesis(e)
    }
}

/// The number of pipeline stages of a behavioral design: the maximum number of
/// registers on any path from an input to the root. This is the clock cycle `t` at
/// which the synthesized implementation must match the design (𝑓lr's `t`).
pub fn pipeline_depth(prog: &Prog) -> u32 {
    fn depth(
        prog: &Prog,
        id: lr_ir::NodeId,
        memo: &mut std::collections::HashMap<lr_ir::NodeId, u32>,
    ) -> u32 {
        if let Some(&d) = memo.get(&id) {
            return d;
        }
        // Break feedback cycles (which must pass through registers) conservatively.
        memo.insert(id, 0);
        let d = match prog.node(id).expect("node exists") {
            Node::Reg { data, .. } => 1 + depth(prog, *data, memo),
            Node::Op(_, args) => args.iter().map(|&a| depth(prog, a, memo)).max().unwrap_or(0),
            Node::Prim(p) => p.bindings.values().map(|&a| depth(prog, a, memo)).max().unwrap_or(0),
            _ => 0,
        };
        memo.insert(id, d);
        d
    }
    let mut memo = std::collections::HashMap::new();
    depth(prog, prog.root(), &mut memo)
}

/// Maps a behavioral ℒlr design onto `arch` using `template`.
///
/// # Errors
/// Returns [`MapError`] if the sketch cannot be generated or the synthesis task is
/// malformed; solver-level failures (UNSAT, timeout) are reported in the
/// [`MapOutcome`] instead.
pub fn map_design(
    spec: &Prog,
    template: Template,
    arch: &Architecture,
    config: &MapConfig,
) -> Result<MapOutcome, MapError> {
    // Canonicalize the spec by equality saturation before specializing the sketch:
    // disguised forms (mirrored subtractions, negate-path products, constant
    // chains) reach the synthesis engine in one normal form, and sketch shape
    // checks (widths, input counts) see the real structure. Saturation preserves
    // the input interface, so the sketch still binds the same free variables.
    let spec = if config.egraph { spec.saturated() } else { spec.clone() };
    map_prepared_design(&spec, template, arch, config)
}

/// [`map_design`] for a spec that is already canonical (or deliberately raw, with
/// `config.egraph` off) — the auto-template loop saturates once and reuses the
/// result across every attempt instead of re-saturating per template.
fn map_prepared_design(
    spec: &Prog,
    template: Template,
    arch: &Architecture,
    config: &MapConfig,
) -> Result<MapOutcome, MapError> {
    let mut map_span = lr_trace::span("map");
    map_span.attr("template", template as u64);
    // Cache front door: address the job by its canonical content and replay a
    // stored verdict when one verifies. A hit that fails verification (stale or
    // colliding entry) is dropped and the request falls through to synthesis.
    let started = Instant::now();
    let key = config.cache.as_ref().map(|_| {
        CacheKey::for_mapping(spec, arch, template, config.cache_budget.unwrap_or(config.timeout))
    });
    if let (Some(cache), Some(key)) = (config.cache.as_deref(), key) {
        let hit = {
            let _sp = lr_trace::span("cache-lookup");
            cache.lookup(&key)
        };
        lr_trace::counter_add(if hit.is_some() { "cache.hit" } else { "cache.miss" }, 1);
        match hit {
            Some(CachedOutcome::Success { holes }) => {
                let mut sp = lr_trace::span("cache-replay");
                let replayed = cache::replay(spec, template, arch, config, &holes, started);
                sp.attr("verified", u64::from(replayed.is_some()));
                match replayed {
                    Some(mapped) => {
                        lr_trace::counter_add("cache.replay.verified", 1);
                        return Ok(MapOutcome::Success(Box::new(mapped)));
                    }
                    None => {
                        lr_trace::counter_add("cache.replay.stale", 1);
                        cache.invalidate(&key);
                    }
                }
            }
            Some(CachedOutcome::Unsat) => {
                let elapsed = started.elapsed();
                return Ok(MapOutcome::Unsat {
                    elapsed,
                    winning_solver: None,
                    from_cache: true,
                    stats: Box::new(SynthesisStats {
                        solver_name: "cache".to_string(),
                        elapsed,
                        from_cache: true,
                        ..SynthesisStats::default()
                    }),
                });
            }
            None => {}
        }
    }

    let sketch = generate_sketch(template, arch, spec)?;
    let t = pipeline_depth(spec);
    let task = SynthesisTask::over_window(spec, &sketch, t, config.bmc_window);
    let synth_config = SynthesisConfig {
        solver: SolverConfig::default(),
        max_iterations: config.max_iterations,
        timeout: Some(config.timeout),
        incremental: config.incremental,
        egraph: config.egraph,
        cancel: config.cancel.clone(),
        ..Default::default()
    };
    let result = synthesize_portfolio_with(&task, &synth_config, &config.solvers)?;
    let winner = result.winner.clone();
    Ok(match result.outcome {
        SynthesisOutcome::Success(s) => {
            if let (Some(cache), Some(key)) = (config.cache.as_deref(), key) {
                cache.store(key, CachedOutcome::Success { holes: s.hole_assignment.clone() });
            }
            let implementation =
                s.implementation.simplified().with_name(format!("{}_impl", spec.name()));
            let resources = count_resources(&implementation);
            let verilog = lr_hdl::emit_verilog(&implementation);
            MapOutcome::Success(Box::new(MappedDesign {
                implementation,
                verilog,
                resources,
                elapsed: s.stats.elapsed,
                winning_solver: winner,
                iterations: s.stats.iterations,
                from_cache: false,
                stats: s.stats,
            }))
        }
        SynthesisOutcome::Unsat { stats } => {
            if let (Some(cache), Some(key)) = (config.cache.as_deref(), key) {
                cache.store(key, CachedOutcome::Unsat);
            }
            MapOutcome::Unsat {
                elapsed: stats.elapsed,
                winning_solver: winner,
                from_cache: false,
                stats: Box::new(stats),
            }
        }
        SynthesisOutcome::Timeout { stats } => {
            MapOutcome::Timeout { elapsed: stats.elapsed, stats: Box::new(stats) }
        }
    })
}

/// Maps a design without naming a template: tries the templates in the order the
/// rule-driven sketch guidance ranks them (see `lr_sketch::guidance` — with the
/// e-graph on, the ranking inspects the spec's saturated form for
/// multiplier/carry/comparison evidence; with it off, the raw program is scanned
/// syntactically), returning the first successful mapping. The spec is
/// canonicalized once and shared by every attempt, and `config.timeout` is a
/// budget for the *whole* loop — each attempt gets only what remains.
///
/// Templates the architecture cannot instantiate are skipped. If no template
/// succeeds, UNSAT is reported only when **every** posed attempt was UNSAT — "no
/// ranked sketch implements this design" is a definitive claim; any attempt that
/// timed out (or was cut off by the shared budget) makes the aggregate a timeout.
///
/// # Errors
/// Returns [`MapError`] only if *every* ranked template fails to even pose a task
/// (the last such error is reported).
pub fn map_design_auto(
    spec: &Prog,
    arch: &Architecture,
    config: &MapConfig,
) -> Result<MapOutcome, MapError> {
    let start = std::time::Instant::now();
    // Canonicalize once (respecting the e-graph switch); every attempt below uses
    // the prepared spec directly, and the ranking scans the same program.
    let spec = if config.egraph { spec.saturated() } else { spec.clone() };
    let ranked = lr_sketch::rank_for_evidence(&lr_ir::StructuralEvidence::scan(&spec), arch);
    let mut unsat: Option<MapOutcome> = None;
    let mut timed_out = false;
    let mut last_error: Option<MapError> = None;
    let mut posed_any = false;
    // Work done by *failed* attempts still counts: accumulate every posed
    // attempt's statistics so a timeout/UNSAT verdict reports the whole loop's
    // solver effort, not just the final attempt's.
    let mut acc = SynthesisStats::default();
    for template in ranked {
        // A raised cancel flag already stops the in-flight attempt through the
        // solver interrupt; checking it here too keeps the loop from posing
        // every remaining template just to watch each one bail out.
        if config.cancel.as_ref().is_some_and(|c| c.load(Ordering::Relaxed)) {
            timed_out = true;
            break;
        }
        let Some(remaining) = config.timeout.checked_sub(start.elapsed()) else {
            timed_out = true;
            break;
        };
        // Each attempt solves under the *remaining* budget but is cache-keyed
        // under the requested one — the remainder depends on how long earlier
        // attempts ran, and a wall-clock-dependent key could never hit warm.
        let attempt = MapConfig {
            timeout: remaining,
            cache_budget: Some(config.cache_budget.unwrap_or(config.timeout)),
            ..config.clone()
        };
        match map_prepared_design(&spec, template, arch, &attempt) {
            Ok(outcome) if outcome.is_success() => return Ok(outcome),
            Ok(MapOutcome::Timeout { stats, .. }) => {
                posed_any = true;
                timed_out = true;
                acc.absorb(&stats);
            }
            Ok(outcome) => {
                posed_any = true;
                acc.absorb(outcome.stats());
                if unsat.is_none() {
                    unsat = Some(outcome);
                }
            }
            Err(e) => last_error = Some(e),
        }
    }
    if !posed_any && !timed_out {
        return Err(last_error.unwrap_or(MapError::Sketch(SketchError::Unsupported(
            "no template applies to this design on this architecture".to_string(),
        ))));
    }
    if timed_out {
        return Ok(MapOutcome::Timeout { elapsed: start.elapsed(), stats: Box::new(acc) });
    }
    let mut unsat = unsat.expect("posed_any without timeout implies an UNSAT outcome");
    if let MapOutcome::Unsat { stats, .. } = &mut unsat {
        // The verdict came from one attempt; the statistics cover them all.
        **stats = acc;
    }
    Ok(unsat)
}

/// Maps a behavioral mini-Verilog module (the partial-design-mapping workflow of
/// §2.2: put the module in its own file, run Lakeroad on it).
///
/// # Errors
/// See [`map_design`]; additionally returns [`MapError::Frontend`] if the Verilog
/// does not parse or elaborate.
pub fn map_verilog(
    verilog: &str,
    template: Template,
    arch: &Architecture,
    config: &MapConfig,
) -> Result<MapOutcome, MapError> {
    let spec =
        lr_hdl::parse_and_elaborate(verilog).map_err(|e| MapError::Frontend(e.to_string()))?;
    map_design(&spec, template, arch, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_bv::BitVec;
    use lr_ir::{BvOp, ProgBuilder, StreamInputs};

    fn quick_config() -> MapConfig {
        MapConfig::single_solver().with_timeout(Duration::from_secs(60))
    }

    #[test]
    fn pipeline_depth_counts_register_stages() {
        let mut b = ProgBuilder::new("p");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let sum = b.op2(BvOp::Add, a, bb);
        let r1 = b.reg(sum, 8);
        let r2 = b.reg(r1, 8);
        let prog = b.finish(r2);
        assert_eq!(pipeline_depth(&prog), 2);

        let mut b = ProgBuilder::new("comb");
        let a = b.input("a", 8);
        let prog = b.finish(a);
        assert_eq!(pipeline_depth(&prog), 0);
    }

    #[test]
    fn resources_classify_single_dsp() {
        let r = Resources { dsps: 1, logic_elements: 0, registers: 0 };
        assert!(r.is_single_dsp());
        let r = Resources { dsps: 1, logic_elements: 4, registers: 16 };
        assert!(!r.is_single_dsp());
    }

    #[test]
    fn maps_a_multiply_to_one_intel_dsp() {
        let mut b = ProgBuilder::new("mul8");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let out = b.op2(BvOp::Mul, a, bb);
        let spec = b.finish(out);
        let arch = Architecture::intel_cyclone10lp();
        let outcome = map_design(&spec, Template::Dsp, &arch, &quick_config()).unwrap();
        let mapped = outcome.success().expect("multiply should map to the Intel DSP");
        assert!(mapped.resources.is_single_dsp(), "resources: {:?}", mapped.resources);
        assert!(mapped.verilog.contains("cyclone10lp_mac_mult"));
        // Cross-check the implementation against the spec on a few inputs.
        for (av, bv) in [(0u64, 0u64), (3, 5), (255, 255), (17, 200)] {
            let env = StreamInputs::from_constants([
                ("a".to_string(), BitVec::from_u64(av, 8)),
                ("b".to_string(), BitVec::from_u64(bv, 8)),
            ]);
            assert_eq!(
                spec.interp(&env, 0).unwrap(),
                mapped.implementation.interp(&env, 0).unwrap(),
                "a={av} b={bv}"
            );
        }
    }

    #[test]
    fn maps_the_running_example_to_one_dsp48e2() {
        // (a + b) * c & d with one pipeline stage, 8 bits.
        let mut b = ProgBuilder::new("add_mul_and");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let c = b.input("c", 8);
        let d = b.input("d", 8);
        let sum = b.op2(BvOp::Add, a, bb);
        let prod = b.op2(BvOp::Mul, sum, c);
        let masked = b.op2(BvOp::And, prod, d);
        let r = b.reg(masked, 8);
        let spec = b.finish(r);

        let arch = Architecture::xilinx_ultrascale_plus();
        let outcome = map_design(&spec, Template::Dsp, &arch, &quick_config()).unwrap();
        let mapped = outcome.success().expect("add_mul_and should map to one DSP48E2");
        assert!(mapped.resources.is_single_dsp(), "resources: {:?}", mapped.resources);
        assert!(mapped.verilog.contains("DSP48E2"));
        let env = StreamInputs::from_constants([
            ("a".to_string(), BitVec::from_u64(3, 8)),
            ("b".to_string(), BitVec::from_u64(5, 8)),
            ("c".to_string(), BitVec::from_u64(7, 8)),
            ("d".to_string(), BitVec::from_u64(0x3F, 8)),
        ]);
        for t in 1..4 {
            assert_eq!(
                spec.interp(&env, t).unwrap(),
                mapped.implementation.interp(&env, t).unwrap(),
                "cycle {t}"
            );
        }
    }

    /// Template-free mapping: the guidance ranks the DSP first for a multiply and
    /// the run succeeds without the caller naming a template.
    #[test]
    fn auto_mapping_follows_the_guidance_ranking() {
        let mut b = ProgBuilder::new("mul8_auto");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let out = b.op2(BvOp::Mul, a, bb);
        let spec = b.finish(out);
        let arch = Architecture::intel_cyclone10lp();
        let outcome = map_design_auto(&spec, &arch, &quick_config()).unwrap();
        let mapped = outcome.success().expect("auto mapping should find the DSP");
        assert!(mapped.resources.is_single_dsp(), "resources: {:?}", mapped.resources);
    }

    /// With the e-graph disabled, auto mapping must not saturate anything — the
    /// ranking falls back to a syntactic scan — and still succeed.
    #[test]
    fn auto_mapping_respects_the_egraph_switch() {
        let mut b = ProgBuilder::new("mul8_auto_noeg");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let out = b.op2(BvOp::Mul, a, bb);
        let spec = b.finish(out);
        let arch = Architecture::intel_cyclone10lp();
        let config = MapConfig { egraph: false, ..quick_config() };
        let outcome = map_design_auto(&spec, &arch, &config).unwrap();
        assert!(outcome.is_success());
    }

    /// A spec whose multiply hides behind a DSP-style negate path still maps once
    /// saturation canonicalizes it — and the result is equivalent to the
    /// *original* (disguised) spec.
    #[test]
    fn saturated_spec_mapping_preserves_original_semantics() {
        // 0 − (a · (0 − b))  ≡  a · b.
        let mut b = ProgBuilder::new("mul_disguised");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let zero = b.constant_u64(0, 8);
        let nb = b.op2(BvOp::Sub, zero, bb);
        let prod = b.op2(BvOp::Mul, a, nb);
        let out = b.op2(BvOp::Sub, zero, prod);
        let spec = b.finish(out);
        let arch = Architecture::intel_cyclone10lp();
        let outcome = map_design(&spec, Template::Dsp, &arch, &quick_config()).unwrap();
        let mapped = outcome.success().expect("disguised multiply should map");
        for (av, bv) in [(0u64, 0u64), (3, 5), (255, 254), (17, 200)] {
            let env = StreamInputs::from_constants([
                ("a".to_string(), BitVec::from_u64(av, 8)),
                ("b".to_string(), BitVec::from_u64(bv, 8)),
            ]);
            assert_eq!(
                spec.interp(&env, 0).unwrap(),
                mapped.implementation.interp(&env, 0).unwrap(),
                "a={av} b={bv}"
            );
        }
    }

    /// The `--no-egraph` pipeline still maps (ablation path stays usable).
    #[test]
    fn mapping_without_the_egraph_still_works() {
        let mut b = ProgBuilder::new("mul8_no_egraph");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let out = b.op2(BvOp::Mul, a, bb);
        let spec = b.finish(out);
        let arch = Architecture::intel_cyclone10lp();
        let config = MapConfig { egraph: false, ..quick_config() };
        let outcome = map_design(&spec, Template::Dsp, &arch, &config).unwrap();
        assert!(outcome.is_success());
    }

    #[test]
    fn unmappable_design_reports_unsat_or_timeout() {
        // A three-operand chain with two multiplications cannot fit one DSP.
        let mut b = ProgBuilder::new("mul_mul");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let c = b.input("c", 8);
        let p1 = b.op2(BvOp::Mul, a, bb);
        let p2 = b.op2(BvOp::Mul, p1, c);
        let spec = b.finish(p2);
        let arch = Architecture::intel_cyclone10lp();
        let mut config = quick_config();
        config.timeout = Duration::from_secs(20);
        let outcome = map_design(&spec, Template::Dsp, &arch, &config).unwrap();
        assert!(!outcome.is_success(), "two chained multiplies cannot be one mac_mult");
    }

    #[test]
    fn frontend_errors_are_reported() {
        let err = map_verilog(
            "module broken(",
            Template::Dsp,
            &Architecture::xilinx_ultrascale_plus(),
            &quick_config(),
        )
        .unwrap_err();
        assert!(matches!(err, MapError::Frontend(_)));
    }
}
