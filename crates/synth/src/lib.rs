//! # lr-synth: sketch-guided program synthesis for ℒlr
//!
//! This crate implements the functions 𝑓lr and 𝑓*lr of the paper's §3: given a
//! behavioral design `d`, a sketch Ψ (an ℒlr program with holes), a clock cycle `t`,
//! and a bounded-model-checking window `c`, find hole values such that the completed
//! sketch is equivalent to `d` at cycles `t..=t+c` — or report that no completion
//! exists (UNSAT), or give up (timeout).
//!
//! Where the original Lakeroad phrases the query as a single ∃∀ formula handed to
//! Rosette, this reproduction solves the same query by **CEGIS**
//! (counterexample-guided inductive synthesis):
//!
//! 1. *Synthesize*: find hole values consistent with a finite set of input examples
//!    (a satisfiability query with the inputs concrete and the holes symbolic).
//! 2. *Verify*: check that the completed sketch equals the design for **all** inputs
//!    (a satisfiability query of the negated equivalence with the inputs symbolic);
//!    a counterexample, if any, is added to the example set and the loop repeats.
//!
//! Both queries are QF_BV and are discharged by `lr-smt`/`lr-sat`. Because the term
//! pool rewrites aggressively, a correct candidate usually makes the verification
//! query collapse to `false` before it ever reaches the SAT solver — this mirrors the
//! role of symbolic evaluation in Rosette.
//!
//! A task with at most six input bits and no register skips the loop: the
//! synthesis step runs once over every input assignment, and evaluating them all
//! replaces the verification query (see "Exhaustive input spaces" in [`cegis`]).
//!
//! By default both queries are solved **incrementally**: solver state (term pool,
//! bit-blast cache, learnt clauses) persists across CEGIS iterations, with
//! per-candidate constraints guarded by SAT assumptions so they retract for free.
//! See [`cegis`] for the exact split between permanent and assumption-guarded
//! constraints; [`SynthesisConfig::incremental`] switches back to the from-scratch
//! behaviour for comparison.
//!
//! [`portfolio::synthesize_portfolio`] races several solver configurations in
//! parallel (the stand-in for the paper's Bitwuzla/STP/Yices2/cvc5 portfolio), and
//! [`enumerate`] provides a brute-force baseline used by the ablation benchmarks.

pub mod cegis;
pub mod enumerate;
pub mod portfolio;

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use lr_bv::BitVec;
use lr_ir::Prog;
pub use lr_smt::SolverConfig;

/// A synthesis problem: implement `spec` using `sketch` at the given cycles.
#[derive(Debug, Clone)]
pub struct SynthesisTask<'a> {
    /// The behavioral design `d` (must be in ℒbeh).
    pub spec: &'a Prog,
    /// The sketch Ψ (an ℒsketch program whose holes carry their domains).
    pub sketch: &'a Prog,
    /// The clock cycle `t` at which equivalence is required (0 = combinational).
    pub at_cycle: u32,
    /// Additional cycles `c`: equivalence is checked at `t, t+1, …, t+c` (§3.5).
    pub extra_cycles: u32,
}

impl<'a> SynthesisTask<'a> {
    /// Creates a task checking equivalence at exactly cycle `t` (i.e. 𝑓lr).
    pub fn at(spec: &'a Prog, sketch: &'a Prog, t: u32) -> Self {
        SynthesisTask { spec, sketch, at_cycle: t, extra_cycles: 0 }
    }

    /// Creates a task checking equivalence over `t..=t+c` (i.e. 𝑓*lr).
    pub fn over_window(spec: &'a Prog, sketch: &'a Prog, t: u32, c: u32) -> Self {
        SynthesisTask { spec, sketch, at_cycle: t, extra_cycles: c }
    }

    /// The cycles at which equivalence is asserted.
    pub fn cycles(&self) -> std::ops::RangeInclusive<u32> {
        self.at_cycle..=self.at_cycle + self.extra_cycles
    }
}

/// Knobs controlling a single synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisConfig {
    /// The SAT heuristics to use for both CEGIS queries.
    pub solver: SolverConfig,
    /// Wall-clock budget; `None` means unlimited.
    pub timeout: Option<Duration>,
    /// Number of seeded input examples to start CEGIS with (beyond all-zeros).
    pub seed_examples: usize,
    /// Reuse solver state across CEGIS iterations (see [`cegis`]). When false, every
    /// iteration rebuilds both solvers from scratch and re-encodes every accumulated
    /// example — the original behaviour, kept for comparison and as a differential
    /// oracle.
    pub incremental: bool,
    /// Pre-fold verification disequalities through equality saturation
    /// (`lr_egraph`) when one-shot pool rewriting cannot decide them, before any
    /// SAT work (default on). Turning this off restores the rewriting-or-SAT-only
    /// verifier, kept measurable for the `exp_egraph` ablation.
    pub egraph: bool,
    /// External cancellation flag. When it becomes true the run stops with a
    /// timeout verdict — not just between CEGIS iterations: the flag is also
    /// registered as a SAT-solver interrupt, so a check already in flight
    /// returns promptly. Used by the batch scheduler and the serving daemon to
    /// stop in-flight work on shutdown.
    pub cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            solver: SolverConfig::default(),
            timeout: Some(Duration::from_secs(120)),
            seed_examples: 3,
            incremental: true,
            egraph: true,
            cancel: None,
        }
    }
}

/// Counters describing a synthesis run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SynthesisStats {
    /// Number of CEGIS iterations performed.
    pub iterations: usize,
    /// Number of counterexamples accumulated (including seed examples).
    pub examples: usize,
    /// Total wall-clock time.
    pub elapsed: Duration,
    /// Name of the solver configuration that produced the verdict (for portfolio
    /// runs, the winner).
    pub solver_name: String,
    /// True if verification ever reached the SAT solver (false means every candidate
    /// was decided by term rewriting alone).
    pub verification_used_sat: bool,
    /// Whether the run used incremental solver state (config echo).
    pub incremental: bool,
    /// SAT conflicts across every solver check of the run (synthesis and
    /// verification steps combined).
    pub conflicts: u64,
    /// SAT unit propagations across every solver check of the run.
    pub propagations: u64,
    /// SAT restarts across every solver check of the run.
    pub restarts: u64,
    /// Literals removed from learnt clauses by recursive minimization, across
    /// every solver check of the run.
    pub minimized_literals: u64,
    /// Total literals across learnt clauses as stored (post-minimization).
    pub learnt_literals: u64,
    /// Glue (LBD) histogram over every clause the run's solvers learned: bucket
    /// `i` counts clauses with LBD `i + 1`, the last bucket collects the rest
    /// (see [`GLUE_BUCKETS`](lr_smt::GLUE_BUCKETS)).
    pub glue_histogram: [u64; lr_smt::GLUE_BUCKETS],
    /// Learnt-clause tier sizes (core / mid / local) observed at the run's most
    /// recent solver check — the verification solver for runs whose last step
    /// verified, the synthesis solver otherwise. A snapshot, not a counter.
    pub sat_tier_sizes: [u64; 3],
    /// Restart strategy the run's solvers used (config echo, e.g. `"ema"`).
    pub restart_mode: String,
    /// Example-equality constraints encoded into the synthesis solver, totalled over
    /// all iterations.
    pub constraints_encoded: usize,
    /// Constraints that were encoded *again* for an example already encoded in an
    /// earlier iteration. Always 0 in incremental mode; the from-scratch mode's
    /// O(n²) re-encoding overhead is exactly this counter.
    pub constraints_reencoded: usize,
    /// Learnt clauses already present when a synthesis check began, summed over
    /// iterations — clause reuse across iterations. Always 0 in from-scratch mode.
    pub learnt_clauses_reused: u64,
    /// Verification disequalities handed to the e-graph (pool rewriting alone could
    /// not decide them). Always 0 with [`SynthesisConfig::egraph`] off.
    pub egraph_attempts: usize,
    /// Of those, how many saturation folded to a constant `false` — queries decided
    /// with no SAT work at all.
    pub egraph_folds: usize,
    /// True when this outcome was *replayed* from a synthesis cache rather than
    /// synthesized: `elapsed` is then the lookup-plus-replay time (near zero) and
    /// every solver counter is zero. The CEGIS engine itself never sets this —
    /// the serving layer (`lakeroad`'s cache hooks) does, so reports and benches
    /// can separate cached from synthesized latencies.
    pub from_cache: bool,
}

impl SynthesisStats {
    /// Folds another run's additive counters into this one. Used when several
    /// runs make up one logical job (the auto-template loop's attempts, a
    /// daemon job's retries), so partial work is accounted even when the final
    /// verdict is UNSAT or a timeout. Config echoes (`solver_name`,
    /// `restart_mode`, `incremental`) and snapshots (`sat_tier_sizes`) take the
    /// other run's values — last writer wins, matching "most recent attempt".
    pub fn absorb(&mut self, other: &SynthesisStats) {
        self.iterations += other.iterations;
        self.examples += other.examples;
        self.elapsed += other.elapsed;
        self.conflicts += other.conflicts;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
        self.minimized_literals += other.minimized_literals;
        self.learnt_literals += other.learnt_literals;
        for (acc, g) in self.glue_histogram.iter_mut().zip(other.glue_histogram.iter()) {
            *acc += g;
        }
        self.constraints_encoded += other.constraints_encoded;
        self.constraints_reencoded += other.constraints_reencoded;
        self.learnt_clauses_reused += other.learnt_clauses_reused;
        self.egraph_attempts += other.egraph_attempts;
        self.egraph_folds += other.egraph_folds;
        self.verification_used_sat |= other.verification_used_sat;
        if !other.solver_name.is_empty() {
            self.solver_name.clone_from(&other.solver_name);
        }
        if !other.restart_mode.is_empty() {
            self.restart_mode.clone_from(&other.restart_mode);
        }
        self.incremental = other.incremental;
        self.sat_tier_sizes = other.sat_tier_sizes;
        self.from_cache &= other.from_cache;
    }
}

/// How a synthesis run ended, by name: the three outcomes of the paper's
/// evaluation (Figure 6). Reports, records and wire formats name a verdict
/// through [`Verdict::name`] and nowhere else; the `cegis` span records it as
/// its discriminant (0, 1, 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A completion of the sketch implements the design.
    Success,
    /// No completion of the sketch can implement the design (a proof).
    Unsat,
    /// The budget ran out before either was shown.
    Timeout,
}

impl Verdict {
    /// The verdict's name in every report and wire format.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Success => "success",
            Verdict::Unsat => "unsat",
            Verdict::Timeout => "timeout",
        }
    }
}

/// The verdict of a synthesis run.
#[derive(Debug, Clone)]
pub enum SynthesisOutcome {
    /// A completion of the sketch implementing the design was found.
    Success(Box<Synthesized>),
    /// No completion of the sketch can implement the design (UNSAT).
    Unsat {
        /// Statistics for the run.
        stats: SynthesisStats,
    },
    /// The iteration/timeout budget was exhausted.
    Timeout {
        /// Statistics for the run.
        stats: SynthesisStats,
    },
}

/// A successful synthesis result.
#[derive(Debug, Clone)]
pub struct Synthesized {
    /// The completed, hole-free implementation (ℒstruct if the sketch was ℒsketch).
    pub implementation: Prog,
    /// The values assigned to each hole.
    pub hole_assignment: BTreeMap<String, BitVec>,
    /// Statistics for the run.
    pub stats: SynthesisStats,
}

impl SynthesisOutcome {
    /// The run statistics regardless of verdict.
    pub fn stats(&self) -> &SynthesisStats {
        match self {
            SynthesisOutcome::Success(s) => &s.stats,
            SynthesisOutcome::Unsat { stats } | SynthesisOutcome::Timeout { stats } => stats,
        }
    }

    /// The run's verdict.
    pub fn verdict(&self) -> Verdict {
        match self {
            SynthesisOutcome::Success(_) => Verdict::Success,
            SynthesisOutcome::Unsat { .. } => Verdict::Unsat,
            SynthesisOutcome::Timeout { .. } => Verdict::Timeout,
        }
    }

    /// Whether synthesis succeeded.
    pub fn is_success(&self) -> bool {
        matches!(self, SynthesisOutcome::Success(_))
    }

    /// Whether synthesis proved no completion exists.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SynthesisOutcome::Unsat { .. })
    }

    /// Whether synthesis gave up.
    pub fn is_timeout(&self) -> bool {
        matches!(self, SynthesisOutcome::Timeout { .. })
    }

    /// The successful result, if any.
    pub fn success(self) -> Option<Synthesized> {
        match self {
            SynthesisOutcome::Success(s) => Some(*s),
            _ => None,
        }
    }
}

/// An error that prevents synthesis from even starting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthesisError {
    /// The specification is not in the behavioral fragment ℒbeh.
    SpecNotBehavioral,
    /// Specification and sketch do not agree on their free inputs (the equivalence
    /// definition of §3.3 requires `p.fv = d.fv`).
    InputMismatch {
        /// Inputs of the specification.
        spec: Vec<String>,
        /// Inputs of the sketch.
        sketch: Vec<String>,
    },
    /// The specification or sketch is not well-formed.
    IllFormed(String),
    /// An accumulated input example could not be evaluated against the spec (it does
    /// not bind every input, or binds one at the wrong width). This is an internal
    /// invariant violation: silently skipping such an example would leave the
    /// synthesis query under-constrained and make CEGIS loop forever on the same
    /// counterexample, so it is surfaced as an error instead.
    MalformedExample {
        /// Index of the offending example in the accumulated example set.
        example: usize,
        /// The clock cycle at which evaluation failed.
        cycle: u32,
        /// The interpreter error.
        reason: String,
    },
    /// A candidate evaluates differently from the spec on an example it was
    /// required to match. On the exhaustive path (see [`cegis`]) the synthesis
    /// step's model satisfied every input, so this means the symbolic encoding and
    /// the evaluator disagree: an internal invariant violation, reported instead
    /// of retried or accepted.
    Disagreement {
        /// Index of the example.
        example: usize,
        /// The clock cycle at which the values differ.
        cycle: u32,
        /// The spec's value.
        expected: BitVec,
        /// The candidate's value.
        found: BitVec,
    },
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::SpecNotBehavioral => {
                write!(f, "specification must be in the behavioral fragment of L_lr")
            }
            SynthesisError::InputMismatch { spec, sketch } => {
                write!(f, "spec inputs {spec:?} differ from sketch inputs {sketch:?}")
            }
            SynthesisError::IllFormed(msg) => write!(f, "ill-formed program: {msg}"),
            SynthesisError::MalformedExample { example, cycle, reason } => write!(
                f,
                "example {example} cannot be evaluated against the spec at cycle {cycle}: {reason}"
            ),
            SynthesisError::Disagreement { example, cycle, expected, found } => write!(
                f,
                "candidate gives {found} where the spec gives {expected} on example {example} \
                 at cycle {cycle}"
            ),
        }
    }
}

impl std::error::Error for SynthesisError {}

/// Synthesizes a completion of the sketch equivalent to the spec (single solver
/// configuration). See [`cegis::synthesize`].
///
/// # Errors
/// Returns [`SynthesisError`] if the task is malformed (non-behavioral spec,
/// mismatched inputs, ill-formed programs).
pub fn synthesize(
    task: &SynthesisTask<'_>,
    config: &SynthesisConfig,
) -> Result<SynthesisOutcome, SynthesisError> {
    cegis::synthesize(task, config, None)
}
