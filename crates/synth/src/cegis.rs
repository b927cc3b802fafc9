//! The CEGIS loop implementing 𝑓lr / 𝑓*lr.
//!
//! # Incremental solving
//!
//! With [`SynthesisConfig::incremental`] (the default) both CEGIS queries reuse
//! solver state across iterations instead of rebuilding it each round:
//!
//! * **Synthesis step** (`SynthStep`) — one `TermPool`/`BvSolver` pair lives for
//!   the whole run. Its constraints are all *permanent*: the hole-domain
//!   constraints (asserted once, before the first iteration) and one equality
//!   constraint per (example, cycle). Examples only ever accumulate, so nothing
//!   needs retraction — iteration `n` asserts only the constraints contributed by
//!   the counterexample learned in iteration `n-1`, and the bit-blast cache plus
//!   every learnt clause carry over to the next check.
//! * **Verification step** (`VerifyStep`) — one pool/solver pair is shared by
//!   every candidate. Each candidate's disequality (built with its holes filled
//!   concretely, so rewriting can shrink it) is *assumption-guarded*: the session
//!   permanently asserts `activationᵢ → differsᵢ` and checks it with
//!   [`BvSolver::check_assuming`]`(&[activationᵢ])`, so the constraint binds for
//!   exactly one query and retracts for free when the next candidate arrives. The
//!   spec-side terms are identical every round, so their encodings are reused via
//!   hash-consing and the bit-blast cache, and clauses learnt about the shared
//!   circuit structure keep paying off across candidates.
//!
//! With `incremental: false` the original from-scratch behaviour is kept: every
//! iteration builds fresh solvers and re-encodes every accumulated example (O(n²)
//! total encoding work, counted by [`SynthesisStats::constraints_reencoded`]). The
//! two modes must produce identical verdicts; the differential harness in
//! `tests/differential_cegis.rs` enforces this over the e2e benchmark tier.
//!
//! In both modes a candidate is first checked by term rewriting alone (building the
//! disequality with the holes filled concretely and asking whether it folds to
//! `false`). When one-shot rewriting cannot decide the query and
//! [`SynthesisConfig::egraph`] is on (the default), the disequality is pre-folded
//! through bounded equality saturation (`lr_egraph`): ordering-sensitive forms the
//! pool misses — re-associable constant chains, mirrored subtractions, negate-path
//! products — fold to `false` there, and only queries that survive both rewriting
//! engines reach the SAT solver (carrying the smaller, extracted form of the
//! disequality).
//!
//! # Exhaustive input spaces
//!
//! A task whose spec has at most six free input bits (64 assignments, every input
//! of a one-bit cone for the widest supported LUT) and whose spec and sketch hold
//! no register, primitive semantics included, skips the loop above
//! ([`exhaustive_inputs`]). Its examples are every constant input assignment, so
//! the synthesis step runs once and its UNSAT is a proof that no completion
//! exists. A model's completion is accepted only if it evaluates like the spec on
//! every assignment at every cycle of [`SynthesisTask::cycles`]
//! ([`check_examples`]).
//!
//! That check is complete. Without registers, each program's value at cycle `t`
//! is a function of its inputs at cycle `t` alone, so two such programs agree on
//! every input stream exactly when they agree on every constant assignment: the
//! question the SAT verifier would answer, decided by evaluation. Neither the
//! e-graph prefold nor the SAT verifier runs, and there is no counterexample to
//! learn: the model already satisfied every assignment, so a disagreement means
//! the symbolic encoding and the evaluator disagree, and it is reported as
//! [`SynthesisError::Disagreement`] rather than retried or accepted. The synthesis
//! step still fills the holes through the sketch's primitive semantics, so no
//! primitive needs its own truth-table layout.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lr_bv::BitVec;
use lr_ir::symbolic::{hole_var_name, input_var_name, SymbolicOptions};
use lr_ir::{HoleInfo, InterpError, Node, Prog, Schedule, StreamInputs};
use lr_smt::{BvSession, BvSolver, SatResult, TermId, TermPool};

use crate::{
    SynthesisConfig, SynthesisError, SynthesisOutcome, SynthesisStats, SynthesisTask, Synthesized,
};

/// Runs CEGIS for the given task and configuration.
///
/// `cancel`, if provided, is polled between solver calls; when it becomes true the
/// run stops early with a timeout verdict (used by the portfolio to stop losers).
///
/// # Errors
/// Returns [`SynthesisError`] if the task is malformed.
pub fn synthesize(
    task: &SynthesisTask<'_>,
    config: &SynthesisConfig,
    cancel: Option<Arc<AtomicBool>>,
) -> Result<SynthesisOutcome, SynthesisError> {
    let mut sp = lr_trace::span("cegis");
    let result = synthesize_run(task, config, cancel);
    if sp.is_active() {
        if let Ok(outcome) = &result {
            // Absorb the run's SynthesisStats counters as span attributes, so
            // the trace alone answers "what did this run cost".
            let stats = outcome.stats();
            sp.attr(
                "verdict",
                match outcome {
                    SynthesisOutcome::Success(_) => 0,
                    SynthesisOutcome::Unsat { .. } => 1,
                    SynthesisOutcome::Timeout { .. } => 2,
                },
            );
            sp.attr("iterations", stats.iterations as u64);
            sp.attr("examples", stats.examples as u64);
            sp.attr("conflicts", stats.conflicts);
            sp.attr("propagations", stats.propagations);
            sp.attr("restarts", stats.restarts);
            sp.attr("constraints_encoded", stats.constraints_encoded as u64);
            sp.attr("egraph_attempts", stats.egraph_attempts as u64);
            sp.attr("egraph_folds", stats.egraph_folds as u64);
            sp.attr("used_sat_verify", u64::from(stats.verification_used_sat));
        }
    }
    result
}

fn synthesize_run(
    task: &SynthesisTask<'_>,
    config: &SynthesisConfig,
    cancel: Option<Arc<AtomicBool>>,
) -> Result<SynthesisOutcome, SynthesisError> {
    validate(task)?;
    let start = Instant::now();
    let holes = task.sketch.holes();
    let inputs = task.spec.free_vars();
    let mut stats = SynthesisStats {
        solver_name: config.solver.name.clone(),
        restart_mode: format!("{:?}", config.solver.restart_mode).to_lowercase(),
        incremental: config.incremental,
        ..SynthesisStats::default()
    };

    // A small register-free task starts from every input assignment; any other
    // from all-zeros, all-ones and a few pseudo-random patterns.
    let exhaustive = exhaustive_inputs(task.spec, task.sketch);
    let is_exhaustive = exhaustive.is_some();
    let mut examples = exhaustive.unwrap_or_else(|| seed_examples(&inputs, config));
    stats.examples = examples.len();

    // Both the portfolio's first-winner flag and the config's external cancel
    // flag stop the run; they are also registered as SAT interrupts on every
    // solver the steps create, so a check already in flight returns promptly.
    let interrupts: Vec<Arc<AtomicBool>> =
        cancel.iter().chain(config.cancel.iter()).cloned().collect();
    let cancelled = || interrupts.iter().any(|c| c.load(Ordering::Relaxed));
    let out_of_time =
        |start: &Instant| config.timeout.map(|t| start.elapsed() >= t).unwrap_or(false);

    let spec = task.spec.schedule().map_err(|e| SynthesisError::IllFormed(format!("spec: {e}")))?;
    let mut synth = SynthStep::new(spec);
    synth.interrupts.clone_from(&interrupts);
    let mut verifier = VerifyStep::new();
    verifier.interrupts.clone_from(&interrupts);

    for iteration in 0..config.max_iterations {
        let mut iter_span = lr_trace::span("cegis-iteration");
        iter_span.attr("iteration", iteration as u64);
        iter_span.attr("examples", examples.len() as u64);
        stats.iterations = iteration + 1;
        if cancelled() || out_of_time(&start) {
            stats.elapsed = start.elapsed();
            return Ok(SynthesisOutcome::Timeout { stats });
        }

        // ----- synthesis step: find hole values consistent with all examples -----
        let candidate = match synth.solve(task, config, &holes, &examples, &mut stats)? {
            HoleSearch::Found(assignment) => assignment,
            HoleSearch::NoneExists => {
                stats.elapsed = start.elapsed();
                return Ok(SynthesisOutcome::Unsat { stats });
            }
            HoleSearch::GaveUp => {
                stats.elapsed = start.elapsed();
                return Ok(SynthesisOutcome::Timeout { stats });
            }
        };

        if cancelled() || out_of_time(&start) {
            stats.elapsed = start.elapsed();
            return Ok(SynthesisOutcome::Timeout { stats });
        }

        // ----- verification step: does the candidate work for *all* inputs? -----
        let completed = task.sketch.fill_holes(&candidate).map_err(SynthesisError::IllFormed)?;
        let verdict = if is_exhaustive {
            // The examples are every input, so evaluating them is the whole proof
            // and this first iteration is the last; a disagreement is an error,
            // never a counterexample.
            let _sp = lr_trace::span("exhaustive-check");
            check_examples(&synth.spec, &completed, &examples, task.cycles())?;
            Verification::Equivalent
        } else {
            verifier.verify(task, config, &completed, &mut stats)
        };
        match verdict {
            Verification::Equivalent => {
                stats.elapsed = start.elapsed();
                return Ok(SynthesisOutcome::Success(Box::new(Synthesized {
                    implementation: completed,
                    hole_assignment: candidate,
                    stats,
                })));
            }
            Verification::Counterexample(cex) => {
                examples.push(cex);
                stats.examples = examples.len();
            }
            Verification::GaveUp => {
                stats.elapsed = start.elapsed();
                return Ok(SynthesisOutcome::Timeout { stats });
            }
        }
    }
    stats.elapsed = start.elapsed();
    Ok(SynthesisOutcome::Timeout { stats })
}

fn validate(task: &SynthesisTask<'_>) -> Result<(), SynthesisError> {
    if !task.spec.is_behavioral() {
        return Err(SynthesisError::SpecNotBehavioral);
    }
    task.spec.well_formed().map_err(|e| SynthesisError::IllFormed(format!("spec: {e}")))?;
    task.sketch.well_formed().map_err(|e| SynthesisError::IllFormed(format!("sketch: {e}")))?;
    let spec_inputs: Vec<String> = task.spec.free_vars().into_iter().map(|(n, _)| n).collect();
    let sketch_inputs: Vec<String> = task.sketch.free_vars().into_iter().map(|(n, _)| n).collect();
    if spec_inputs != sketch_inputs {
        return Err(SynthesisError::InputMismatch { spec: spec_inputs, sketch: sketch_inputs });
    }
    // The equivalence queries equate the two roots, so their widths must agree;
    // posing a mismatched pair (e.g. a 1-bit comparison sketch against a wide
    // spec) would panic inside the term pool instead of failing the task.
    let spec_width = task.spec.width(task.spec.root());
    let sketch_width = task.sketch.width(task.sketch.root());
    if spec_width != sketch_width {
        return Err(SynthesisError::IllFormed(format!(
            "spec root is {spec_width} bits but sketch root is {sketch_width} bits"
        )));
    }
    Ok(())
}

/// The CEGIS loop's seed examples: all-zeros, all-ones (with at least one seed
/// example) and `seed_examples - 1` pseudo-random patterns.
fn seed_examples(inputs: &[(String, u32)], config: &SynthesisConfig) -> Vec<StreamInputs> {
    let mut examples = vec![constant_example(inputs, |_, _| 0)];
    if config.seed_examples >= 1 {
        examples
            .push(constant_example(inputs, |_, w| if w >= 64 { u64::MAX } else { (1 << w) - 1 }));
    }
    let mut rng_state = config.seed | 1;
    for _ in 1..config.seed_examples {
        examples.push(constant_example(inputs, |_, _| {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        }));
    }
    examples
}

/// The most free input bits a task may have and still take the exhaustive path:
/// 64 assignments, enough for a one-bit cone of the widest supported LUT.
const EXHAUSTIVE_MAX_BITS: u64 = 6;

/// Every constant assignment to `spec`'s free inputs, when evaluating them all
/// proves `spec` equal to a completion of `other` (see "Exhaustive input spaces"
/// in the module docs): `spec` has at most six input bits, and neither program
/// holds a register, primitive semantics included. `None` otherwise.
///
/// Cache replay checks small entries against these same assignments.
pub fn exhaustive_inputs(spec: &Prog, other: &Prog) -> Option<Vec<StreamInputs>> {
    let inputs = spec.free_vars();
    let bits: u64 = inputs.iter().map(|(_, width)| u64::from(*width)).sum();
    if bits > EXHAUSTIVE_MAX_BITS || has_register(spec) || has_register(other) {
        return None;
    }
    let all = (0..1u64 << bits).map(|assignment| {
        let mut shift = 0;
        constant_example(&inputs, |_, width| {
            let value = assignment >> shift;
            shift += width;
            value
        })
    });
    Some(all.collect())
}

fn has_register(prog: &Prog) -> bool {
    prog.nodes().any(|(_, node)| match node {
        Node::Reg { .. } => true,
        Node::Prim(p) => has_register(&p.semantics),
        _ => false,
    })
}

/// Requires `candidate` to evaluate like the spec, whose schedule is `spec`, on
/// every example at every cycle of `cycles`. Each program is traced through one
/// schedule.
///
/// # Errors
/// [`SynthesisError::MalformedExample`] if the spec cannot be evaluated on an
/// example, [`SynthesisError::IllFormed`] if the candidate cannot be evaluated,
/// and [`SynthesisError::Disagreement`] at the first example and cycle where the
/// two differ.
pub fn check_examples(
    spec: &Schedule<'_>,
    candidate: &Prog,
    examples: &[StreamInputs],
    cycles: RangeInclusive<u32>,
) -> Result<(), SynthesisError> {
    let ill_formed = |e: InterpError| SynthesisError::IllFormed(format!("candidate: {e}"));
    let candidate = candidate.schedule().map_err(ill_formed)?;
    let last = *cycles.end();
    for (idx, example) in examples.iter().enumerate() {
        let want = trace_example(spec, example, idx, last)?;
        let got = candidate.trace(example, last).map_err(ill_formed)?;
        for cycle in cycles.clone() {
            let (expected, found) = (&want[cycle as usize], &got[cycle as usize]);
            if expected != found {
                return Err(SynthesisError::Disagreement {
                    example: idx,
                    cycle,
                    expected: expected.clone(),
                    found: found.clone(),
                });
            }
        }
    }
    Ok(())
}

/// Traces the spec through cycle `last` on example `idx`. On failure, names the
/// first cycle that fails to evaluate.
fn trace_example(
    spec: &Schedule<'_>,
    example: &StreamInputs,
    idx: usize,
    last: u32,
) -> Result<Vec<BitVec>, SynthesisError> {
    spec.trace(example, last).map_err(|e| {
        let cycle = (0..last).find(|&c| spec.trace(example, c).is_err()).unwrap_or(last);
        SynthesisError::MalformedExample { example: idx, cycle, reason: e.to_string() }
    })
}

/// Folds the counter delta of one solver check (and a snapshot of the tier
/// sizes) into the run's statistics. All [`lr_smt::SolverStats`] counters are
/// monotone, so the subtraction is exact.
fn absorb_sat_delta(
    stats: &mut SynthesisStats,
    before: lr_smt::SolverStats,
    after: lr_smt::SolverStats,
) {
    stats.conflicts += after.conflicts - before.conflicts;
    stats.propagations += after.propagations - before.propagations;
    stats.restarts += after.restarts - before.restarts;
    stats.minimized_literals += after.minimized_literals - before.minimized_literals;
    stats.learnt_literals += after.learnt_literals - before.learnt_literals;
    for (acc, (a, b)) in stats
        .glue_histogram
        .iter_mut()
        .zip(after.glue_histogram.iter().zip(before.glue_histogram.iter()))
    {
        *acc += a - b;
    }
    stats.sat_tier_sizes = [after.core_clauses, after.mid_clauses, after.local_clauses];
}

fn constant_example(
    inputs: &[(String, u32)],
    mut value: impl FnMut(&str, u32) -> u64,
) -> StreamInputs {
    let mut ex = StreamInputs::new();
    for (name, width) in inputs {
        ex.set_constant(name.clone(), BitVec::from_u64(value(name, *width), *width));
    }
    ex
}

#[derive(Debug)]
enum HoleSearch {
    Found(BTreeMap<String, BitVec>),
    NoneExists,
    GaveUp,
}

/// Persistent state of the synthesis-step solver: the solving session and how many
/// of the accumulated examples have already been encoded into it.
struct SynthState {
    session: BvSession,
    encoded_examples: usize,
}

impl SynthState {
    fn new(
        task: &SynthesisTask<'_>,
        config: &SynthesisConfig,
        interrupts: &[Arc<AtomicBool>],
    ) -> SynthState {
        let mut session = BvSession::with_config(config.solver.clone());
        for flag in interrupts {
            session.add_interrupt(Arc::clone(flag));
        }
        // Permanent: the hole-domain constraints, asserted exactly once per session.
        for constraint in task.sketch.hole_domain_constraints(session.pool()) {
            session.assert_true(constraint);
        }
        SynthState { session, encoded_examples: 0 }
    }
}

/// The CEGIS synthesis step: find hole values making the sketch match the spec on
/// every accumulated example at every required cycle.
struct SynthStep<'p> {
    /// The spec's schedule, traced once per example for its expected values.
    spec: Schedule<'p>,
    state: Option<SynthState>,
    /// High-water mark of examples encoded into *any* solver instance so far; used
    /// to count from-scratch re-encoding work.
    ever_encoded: usize,
    /// Interrupt flags installed on every solver this step creates.
    interrupts: Vec<Arc<AtomicBool>>,
}

impl<'p> SynthStep<'p> {
    fn new(spec: Schedule<'p>) -> SynthStep<'p> {
        SynthStep { spec, state: None, ever_encoded: 0, interrupts: Vec::new() }
    }

    fn solve(
        &mut self,
        task: &SynthesisTask<'_>,
        config: &SynthesisConfig,
        holes: &[HoleInfo],
        examples: &[StreamInputs],
        stats: &mut SynthesisStats,
    ) -> Result<HoleSearch, SynthesisError> {
        if !config.incremental {
            // From-scratch mode: a fresh pool and solver per iteration, so every
            // accumulated example is encoded again below.
            self.state = None;
        }
        let state =
            self.state.get_or_insert_with(|| SynthState::new(task, config, &self.interrupts));
        // Snapshot before encoding: adding constraints already propagates root
        // units, and that work belongs to this check's delta.
        let before = state.session.stats();

        // Permanent: one equality constraint per (new example, cycle). Examples only
        // accumulate, so in incremental mode this encodes exactly the delta.
        let last = task.at_cycle + task.extra_cycles;
        for (idx, example) in examples.iter().enumerate().skip(state.encoded_examples) {
            let trace = trace_example(&self.spec, example, idx, last)?;
            for cycle in task.cycles() {
                let expected = trace[cycle as usize].clone();
                let options = SymbolicOptions { concrete_inputs: Some(example) };
                let sketch_term = task.sketch.to_term_with(state.session.pool(), cycle, &options);
                let expected_term = state.session.pool().constant(expected);
                let eq = state.session.pool().eq(sketch_term, expected_term);
                state.session.assert_true(eq);
                stats.constraints_encoded += 1;
                if idx < self.ever_encoded {
                    stats.constraints_reencoded += 1;
                }
            }
        }
        state.encoded_examples = examples.len();
        self.ever_encoded = self.ever_encoded.max(examples.len());

        stats.learnt_clauses_reused += state.session.stats().learnt_clauses;
        let mut sp = lr_trace::span("synth-check");
        let verdict = state.session.check();
        if sp.is_active() {
            sp.attr("examples", examples.len() as u64);
            sp.attr("conflicts", state.session.stats().conflicts - before.conflicts);
            sp.attr("sat", u64::from(verdict == SatResult::Sat));
            sp.attr("unknown", u64::from(verdict == SatResult::Unknown));
        }
        drop(sp);
        absorb_sat_delta(stats, before, state.session.stats());

        Ok(match verdict {
            SatResult::Unsat => HoleSearch::NoneExists,
            SatResult::Unknown => HoleSearch::GaveUp,
            SatResult::Sat => {
                let model = state.session.model();
                let mut assignment = BTreeMap::new();
                for hole in holes {
                    let value = model.get_or_zero(&hole_var_name(&hole.name), hole.width);
                    // The domain constraint is only asserted when the hole is mentioned
                    // by some example's term; default any unconstrained hole to a legal
                    // value.
                    let value =
                        if hole.domain.contains(&value) { value } else { first_in_domain(hole) };
                    assignment.insert(hole.name.clone(), value);
                }
                HoleSearch::Found(assignment)
            }
        })
    }
}

fn first_in_domain(hole: &HoleInfo) -> BitVec {
    match &hole.domain {
        lr_ir::HoleDomain::AnyConstant => BitVec::zeros(hole.width),
        lr_ir::HoleDomain::Choice(choices) => {
            choices.first().cloned().unwrap_or_else(|| BitVec::zeros(hole.width))
        }
        lr_ir::HoleDomain::LessThan(_) => BitVec::zeros(hole.width),
    }
}

enum Verification {
    Equivalent,
    Counterexample(StreamInputs),
    GaveUp,
}

/// Persistent state of the incremental verifier: one pool/solver pair shared by all
/// candidates. Each candidate's (concrete, rewritten) disequality is asserted under
/// a fresh activation variable — `activation → differs` is permanent, but it only
/// binds while the activation variable is assumed, so it retracts for free when the
/// next candidate arrives.
struct VerifySession {
    session: BvSession,
    round: usize,
    /// The live activation variable, deactivated (asserted false) next round.
    active: Option<TermId>,
}

/// The CEGIS verification step: check `∀ inputs. spec = candidate` at all required
/// cycles by asking for an input where they differ.
struct VerifyStep {
    session: Option<VerifySession>,
    /// Interrupt flags installed on every solver this step creates.
    interrupts: Vec<Arc<AtomicBool>>,
}

impl VerifyStep {
    fn new() -> VerifyStep {
        VerifyStep { session: None, interrupts: Vec::new() }
    }

    fn verify(
        &mut self,
        task: &SynthesisTask<'_>,
        config: &SynthesisConfig,
        candidate: &Prog,
        stats: &mut SynthesisStats,
    ) -> Verification {
        if config.incremental {
            return self.verify_incremental(task, config, candidate, stats);
        }

        // From-scratch mode: fresh pool, fresh solver. Build the disequality with
        // the holes filled concretely; a correct candidate usually folds it to
        // `false` without ever reaching the SAT solver.
        let mut pool = TermPool::new();
        let differs = build_differs(task, candidate, &mut pool);
        if let Some(value) = pool.as_const(differs) {
            if value.is_zero() {
                return Verification::Equivalent;
            }
        }
        let differs = match prefold_differs(&mut pool, differs, config, stats) {
            Prefold::Equivalent => return Verification::Equivalent,
            Prefold::Undecided(term) => term,
        };
        stats.verification_used_sat = true;
        let mut solver = BvSolver::with_config(config.solver.clone());
        for flag in &self.interrupts {
            solver.add_interrupt(Arc::clone(flag));
        }
        solver.assert_true(&pool, differs);
        let mut sp = lr_trace::span("verify-check");
        let verdict = solver.check(&pool);
        if sp.is_active() {
            sp.attr("conflicts", solver.stats().conflicts);
            sp.attr("sat", u64::from(verdict == SatResult::Sat));
            sp.attr("unknown", u64::from(verdict == SatResult::Unknown));
        }
        drop(sp);
        absorb_sat_delta(stats, lr_smt::SolverStats::default(), solver.stats());
        match verdict {
            SatResult::Unsat => Verification::Equivalent,
            SatResult::Unknown => Verification::GaveUp,
            SatResult::Sat => Verification::Counterexample(extract_cex(task, &solver.model(&pool))),
        }
    }

    fn verify_incremental(
        &mut self,
        task: &SynthesisTask<'_>,
        config: &SynthesisConfig,
        candidate: &Prog,
        stats: &mut SynthesisStats,
    ) -> Verification {
        let verify = self.session.get_or_insert_with(|| {
            let mut session = BvSession::with_config(config.solver.clone());
            for flag in &self.interrupts {
                session.add_interrupt(Arc::clone(flag));
            }
            VerifySession { session, round: 0, active: None }
        });

        // Retire the previous round's activation for good. Without this the phase
        // saver remembers it as true and later searches keep re-deciding it, which
        // re-activates stale candidates' disequalities and poisons the search.
        if let Some(prev) = verify.active.take() {
            let off = verify.session.pool().not(prev);
            verify.session.assert_true(off);
        }

        // The candidate's disequality is built in the *shared* pool: the spec-side
        // terms are identical every iteration (hash-consed and already blasted after
        // round one), and candidate terms reuse whatever structure they share with
        // earlier rounds. Rewriting still applies, so a correct candidate usually
        // folds the disequality to `false` here, before any SAT work.
        let differs = build_differs(task, candidate, verify.session.pool());
        if let Some(value) = verify.session.pool_ref().as_const(differs) {
            if value.is_zero() {
                return Verification::Equivalent;
            }
        }
        let differs = match prefold_differs(verify.session.pool(), differs, config, stats) {
            Prefold::Equivalent => return Verification::Equivalent,
            Prefold::Undecided(term) => term,
        };
        stats.verification_used_sat = true;

        // Assumption-guarded: `activation → differs` is asserted permanently, but
        // the disequality only binds while `activation` is assumed — this check and
        // never again. Learnt clauses about the shared circuit structure persist.
        let activation = verify.session.pool().var(&format!("cegis!verify!{}", verify.round), 1);
        verify.round += 1;
        verify.active = Some(activation);
        let guarded = verify.session.pool().implies(activation, differs);
        verify.session.assert_true(guarded);

        let before = verify.session.stats();
        let mut sp = lr_trace::span("verify-check");
        let verdict = verify.session.check_assuming(&[activation]);
        if sp.is_active() {
            sp.attr("round", verify.round as u64);
            sp.attr("conflicts", verify.session.stats().conflicts - before.conflicts);
            sp.attr("sat", u64::from(verdict == SatResult::Sat));
            sp.attr("unknown", u64::from(verdict == SatResult::Unknown));
        }
        drop(sp);
        absorb_sat_delta(stats, before, verify.session.stats());
        match verdict {
            SatResult::Unsat => Verification::Equivalent,
            SatResult::Unknown => Verification::GaveUp,
            SatResult::Sat => {
                Verification::Counterexample(extract_cex(task, &verify.session.model()))
            }
        }
    }
}

enum Prefold {
    /// Saturation folded the disequality to `false`: the candidate is equivalent
    /// and the SAT solver is never invoked.
    Equivalent,
    /// Saturation could not decide the query; the (possibly smaller) extracted
    /// form goes to SAT.
    Undecided(TermId),
}

/// Pre-folds a verification disequality the pool could not decide through bounded
/// equality saturation. The extracted term lives in the same pool, so in
/// incremental mode whatever structure it shares with earlier rounds stays cached.
fn prefold_differs(
    pool: &mut TermPool,
    differs: TermId,
    config: &SynthesisConfig,
    stats: &mut SynthesisStats,
) -> Prefold {
    if !config.egraph {
        return Prefold::Undecided(differs);
    }
    stats.egraph_attempts += 1;
    let mut sp = lr_trace::span("egraph-prefold");
    let (folded, report) = lr_egraph::fold_term(
        pool,
        differs,
        lr_egraph::rules::bv_rules_cached(),
        &lr_egraph::Limits::verifier(),
    );
    if sp.is_active() {
        sp.attr("input_nodes", report.input_nodes as u64);
        sp.attr("output_nodes", report.output_nodes as u64);
        sp.attr("decided", u64::from(report.folded_const));
    }
    drop(sp);
    match pool.as_const(folded) {
        Some(value) if value.is_zero() => {
            stats.egraph_folds += 1;
            Prefold::Equivalent
        }
        _ => Prefold::Undecided(folded),
    }
}

/// Builds `∃ inputs. spec ≠ candidate` over the task's cycles in `pool`.
fn build_differs(task: &SynthesisTask<'_>, candidate: &Prog, pool: &mut TermPool) -> TermId {
    let mut differs = pool.false_();
    for cycle in task.cycles() {
        let spec_term = task.spec.to_term(pool, cycle);
        let cand_term = candidate.to_term(pool, cycle);
        let ne = pool.ne(spec_term, cand_term);
        differs = pool.or(differs, ne);
    }
    differs
}

/// Reads the distinguishing input streams out of a verification model.
fn extract_cex(task: &SynthesisTask<'_>, model: &lr_smt::Model) -> StreamInputs {
    let last_cycle = task.at_cycle + task.extra_cycles;
    let mut cex = StreamInputs::new();
    for (name, width) in task.spec.free_vars() {
        let trace: Vec<BitVec> =
            (0..=last_cycle).map(|t| model.get_or_zero(&input_var_name(&name, t), width)).collect();
        cex.set_trace(name, trace);
    }
    cex
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_ir::{BvOp, HoleDomain, ProgBuilder};

    /// spec: out = a + 5; sketch: out = a + ??
    #[test]
    fn synthesizes_a_constant_offset() {
        let mut b = ProgBuilder::new("spec");
        let a = b.input("a", 8);
        let five = b.constant_u64(5, 8);
        let out = b.op2(BvOp::Add, a, five);
        let spec = b.finish(out);

        let mut b = ProgBuilder::new("sketch");
        let a = b.input("a", 8);
        let k = b.hole("k", 8, HoleDomain::AnyConstant);
        let out = b.op2(BvOp::Add, a, k);
        let sketch = b.finish(out);

        let task = SynthesisTask::at(&spec, &sketch, 0);
        let outcome = synthesize(&task, &SynthesisConfig::default(), None).unwrap();
        let result = outcome.success().expect("synthesis should succeed");
        assert_eq!(result.hole_assignment["k"], BitVec::from_u64(5, 8));
        assert!(!result.implementation.has_holes());
    }

    /// A sketch whose root width differs from the spec's (a 1-bit comparison
    /// sketch posed against a wide spec) must fail validation instead of
    /// panicking inside the term pool when the equivalence query is built.
    #[test]
    fn root_width_mismatch_is_rejected_not_a_panic() {
        let mut b = ProgBuilder::new("spec");
        let a = b.input("a", 8);
        let five = b.constant_u64(5, 8);
        let out = b.op2(BvOp::Add, a, five);
        let spec = b.finish(out);

        let mut b = ProgBuilder::new("sketch");
        let a = b.input("a", 8);
        let k = b.hole("k", 8, HoleDomain::AnyConstant);
        let out = b.op2(BvOp::Ult, a, k); // 1-bit root
        let sketch = b.finish(out);

        let task = SynthesisTask::at(&spec, &sketch, 0);
        let err = synthesize(&task, &SynthesisConfig::default(), None).unwrap_err();
        assert!(matches!(&err, SynthesisError::IllFormed(msg) if msg.contains("root")), "{err:?}");
    }

    /// spec: out = a & 0xF0; sketch: out = a & ?? — and also check the masked value
    /// equivalence over random inputs.
    #[test]
    fn synthesizes_a_mask_and_result_is_equivalent() {
        let mut b = ProgBuilder::new("spec");
        let a = b.input("a", 8);
        let mask = b.constant_u64(0xF0, 8);
        let out = b.op2(BvOp::And, a, mask);
        let spec = b.finish(out);

        let mut b = ProgBuilder::new("sketch");
        let a = b.input("a", 8);
        let k = b.hole("k", 8, HoleDomain::AnyConstant);
        let out = b.op2(BvOp::And, a, k);
        let sketch = b.finish(out);

        let task = SynthesisTask::at(&spec, &sketch, 0);
        let outcome = synthesize(&task, &SynthesisConfig::default(), None).unwrap();
        let result = outcome.success().expect("synthesis should succeed");
        for value in [0u64, 1, 0x55, 0xAA, 0xFF, 0x93] {
            let mut env = StreamInputs::new();
            env.set_constant("a", BitVec::from_u64(value, 8));
            assert_eq!(
                spec.interp(&env, 0).unwrap(),
                result.implementation.interp(&env, 0).unwrap(),
                "mismatch at a = {value}"
            );
        }
    }

    /// spec: out = a * 2 at cycle 1 (registered); sketch: out = reg(a << ??).
    #[test]
    fn synthesizes_across_a_register() {
        let mut b = ProgBuilder::new("spec");
        let a = b.input("a", 8);
        let two = b.constant_u64(2, 8);
        let prod = b.op2(BvOp::Mul, a, two);
        let r = b.reg(prod, 8);
        let spec = b.finish(r);

        let mut b = ProgBuilder::new("sketch");
        let a = b.input("a", 8);
        let sh = b.hole("shift", 8, HoleDomain::LessThan(BitVec::from_u64(8, 8)));
        let shifted = b.op2(BvOp::Shl, a, sh);
        let r = b.reg(shifted, 8);
        let sketch = b.finish(r);

        let task = SynthesisTask::over_window(&spec, &sketch, 1, 2);
        let outcome = synthesize(&task, &SynthesisConfig::default(), None).unwrap();
        let result = outcome.success().expect("synthesis should succeed");
        assert_eq!(result.hole_assignment["shift"], BitVec::from_u64(1, 8));
    }

    /// An impossible sketch: out = a | ?? can never implement out = a & 0x0F
    /// (ORing can only set bits, and a=0xFF requires the result 0x0F).
    #[test]
    fn reports_unsat_for_impossible_sketches() {
        let mut b = ProgBuilder::new("spec");
        let a = b.input("a", 8);
        let mask = b.constant_u64(0x0F, 8);
        let out = b.op2(BvOp::And, a, mask);
        let spec = b.finish(out);

        let mut b = ProgBuilder::new("sketch");
        let a = b.input("a", 8);
        let k = b.hole("k", 8, HoleDomain::AnyConstant);
        let out = b.op2(BvOp::Or, a, k);
        let sketch = b.finish(out);

        let task = SynthesisTask::at(&spec, &sketch, 0);
        let outcome = synthesize(&task, &SynthesisConfig::default(), None).unwrap();
        assert!(outcome.is_unsat(), "expected UNSAT, got {outcome:?}");
    }

    #[test]
    fn rejects_mismatched_inputs() {
        let mut b = ProgBuilder::new("spec");
        let a = b.input("a", 8);
        let spec = b.finish(a);
        let mut b = ProgBuilder::new("sketch");
        let x = b.input("x", 8);
        let sketch = b.finish(x);
        let task = SynthesisTask::at(&spec, &sketch, 0);
        let err = synthesize(&task, &SynthesisConfig::default(), None).unwrap_err();
        assert!(matches!(err, SynthesisError::InputMismatch { .. }));
    }

    #[test]
    fn rejects_non_behavioral_spec() {
        let mut b = ProgBuilder::new("spec");
        let h = b.hole("h", 8, HoleDomain::AnyConstant);
        let spec = b.finish(h);
        let mut b = ProgBuilder::new("sketch");
        let h = b.hole("h", 8, HoleDomain::AnyConstant);
        let sketch = b.finish(h);
        let task = SynthesisTask::at(&spec, &sketch, 0);
        let err = synthesize(&task, &SynthesisConfig::default(), None).unwrap_err();
        assert_eq!(err, SynthesisError::SpecNotBehavioral);
    }

    #[test]
    fn choice_domains_are_respected() {
        // spec: out = a + 4; hole restricted to {2, 4, 8}.
        let mut b = ProgBuilder::new("spec");
        let a = b.input("a", 8);
        let four = b.constant_u64(4, 8);
        let out = b.op2(BvOp::Add, a, four);
        let spec = b.finish(out);

        let mut b = ProgBuilder::new("sketch");
        let a = b.input("a", 8);
        let k = b.hole(
            "k",
            8,
            HoleDomain::Choice(vec![
                BitVec::from_u64(2, 8),
                BitVec::from_u64(4, 8),
                BitVec::from_u64(8, 8),
            ]),
        );
        let out = b.op2(BvOp::Add, a, k);
        let sketch = b.finish(out);

        let task = SynthesisTask::at(&spec, &sketch, 0);
        let outcome = synthesize(&task, &SynthesisConfig::default(), None).unwrap();
        let result = outcome.success().expect("synthesis should succeed");
        assert_eq!(result.hole_assignment["k"], BitVec::from_u64(4, 8));
    }

    #[test]
    fn cancel_flag_stops_the_run() {
        let mut b = ProgBuilder::new("spec");
        let a = b.input("a", 8);
        let spec = b.finish(a);
        let mut b = ProgBuilder::new("sketch");
        let a = b.input("a", 8);
        let k = b.hole("k", 8, HoleDomain::AnyConstant);
        let out = b.op2(BvOp::Xor, a, k);
        let sketch = b.finish(out);
        let cancel = Arc::new(AtomicBool::new(true));
        let task = SynthesisTask::at(&spec, &sketch, 0);
        let outcome = synthesize(&task, &SynthesisConfig::default(), Some(cancel)).unwrap();
        assert!(outcome.is_timeout());
    }

    #[test]
    fn stats_are_populated() {
        let mut b = ProgBuilder::new("spec");
        let a = b.input("a", 4);
        let spec = b.finish(a);
        let mut b = ProgBuilder::new("sketch");
        let a = b.input("a", 4);
        let k = b.hole("k", 4, HoleDomain::AnyConstant);
        let out = b.op2(BvOp::Xor, a, k);
        let sketch = b.finish(out);
        let task = SynthesisTask::at(&spec, &sketch, 0);
        let outcome = synthesize(&task, &SynthesisConfig::default(), None).unwrap();
        let result = outcome.success().unwrap();
        assert!(result.stats.iterations >= 1);
        assert!(result.stats.examples >= 1);
        assert_eq!(result.stats.solver_name, "default");
        assert_eq!(result.stats.restart_mode, "ema");
        assert!(result.stats.incremental);
        assert!(result.stats.constraints_encoded >= result.stats.examples);
        assert_eq!(result.stats.constraints_reencoded, 0);
        assert!(result.stats.propagations > 0, "synthesis checks propagate");
        assert!(
            result.stats.glue_histogram.iter().sum::<u64>() <= result.stats.conflicts,
            "each conflict learns at most one stored clause"
        );
        assert_eq!(result.hole_assignment["k"], BitVec::zeros(4));
    }

    /// Both modes must agree, and only the from-scratch mode re-encodes examples.
    #[test]
    fn incremental_and_from_scratch_agree_and_only_one_reencodes() {
        // spec: out = (a ^ 0x3C) + 7 — needs a couple of counterexamples with the
        // two-hole sketch out = (a ^ j) + k.
        let mut b = ProgBuilder::new("spec");
        let a = b.input("a", 8);
        let m = b.constant_u64(0x3C, 8);
        let x = b.op2(BvOp::Xor, a, m);
        let seven = b.constant_u64(7, 8);
        let out = b.op2(BvOp::Add, x, seven);
        let spec = b.finish(out);

        let mut b = ProgBuilder::new("sketch");
        let a = b.input("a", 8);
        let j = b.hole("j", 8, HoleDomain::AnyConstant);
        let k = b.hole("k", 8, HoleDomain::AnyConstant);
        let x = b.op2(BvOp::Xor, a, j);
        let out = b.op2(BvOp::Add, x, k);
        let sketch = b.finish(out);

        let task = SynthesisTask::at(&spec, &sketch, 0);
        let incremental = SynthesisConfig::default();
        let scratch = SynthesisConfig { incremental: false, ..SynthesisConfig::default() };

        let inc = synthesize(&task, &incremental, None).unwrap().success().unwrap();
        let scr = synthesize(&task, &scratch, None).unwrap().success().unwrap();
        assert_eq!(inc.hole_assignment, scr.hole_assignment);
        assert_eq!(inc.stats.constraints_reencoded, 0);
        assert!(inc.stats.incremental);
        assert!(!scr.stats.incremental);
        if scr.stats.iterations > 1 {
            assert!(
                scr.stats.constraints_reencoded > 0,
                "from-scratch mode re-encodes prior examples on every iteration"
            );
        }
    }

    /// A correct candidate whose verification disequality one-shot pool rewriting
    /// cannot decide (re-association across non-constant operands) must be decided
    /// by e-graph saturation, never reaching the SAT solver; with the e-graph off,
    /// the same query must fall through to SAT and still verify.
    #[test]
    fn egraph_prefold_decides_reassociation_without_sat() {
        // spec: (a + b) + c; sketch: a + (b + (c + k)) — correct with k = 0, but
        // the two association shapes are different pool nodes.
        let mut b = ProgBuilder::new("spec");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let c = b.input("c", 8);
        let ab = b.op2(BvOp::Add, a, bb);
        let out = b.op2(BvOp::Add, ab, c);
        let spec = b.finish(out);

        let mut b = ProgBuilder::new("sketch");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let c = b.input("c", 8);
        let k = b.hole("k", 8, HoleDomain::AnyConstant);
        let ck = b.op2(BvOp::Add, c, k);
        let bck = b.op2(BvOp::Add, bb, ck);
        let out = b.op2(BvOp::Add, a, bck);
        let sketch = b.finish(out);

        let task = SynthesisTask::at(&spec, &sketch, 0);
        for incremental in [true, false] {
            let config = SynthesisConfig { incremental, ..SynthesisConfig::default() };
            let result = synthesize(&task, &config, None).unwrap().success().unwrap();
            assert_eq!(result.hole_assignment["k"], BitVec::zeros(8));
            assert!(
                !result.stats.verification_used_sat,
                "saturation must decide the reassociated disequality (incremental={incremental})"
            );
            assert!(result.stats.egraph_attempts >= 1);
            assert!(result.stats.egraph_folds >= 1);
        }

        // Ablation: with the e-graph off the query must reach SAT (and agree).
        let config = SynthesisConfig { egraph: false, ..SynthesisConfig::default() };
        let result = synthesize(&task, &config, None).unwrap().success().unwrap();
        assert_eq!(result.hole_assignment["k"], BitVec::zeros(8));
        assert!(result.stats.verification_used_sat);
        assert_eq!(result.stats.egraph_attempts, 0);
        assert_eq!(result.stats.egraph_folds, 0);
    }

    /// Regression test for the former silent `continue` on interp failure: an
    /// example that does not bind every input must surface as an error, because
    /// skipping it would leave the query under-constrained and CEGIS would receive
    /// the same counterexample forever.
    #[test]
    fn malformed_example_is_an_error_not_a_skip() {
        let mut b = ProgBuilder::new("spec");
        let a = b.input("a", 8);
        let spec = b.finish(a);
        let mut b = ProgBuilder::new("sketch");
        let a = b.input("a", 8);
        let k = b.hole("k", 8, HoleDomain::AnyConstant);
        let out = b.op2(BvOp::Xor, a, k);
        let sketch = b.finish(out);
        let task = SynthesisTask::at(&spec, &sketch, 0);

        let holes = task.sketch.holes();
        let unbound = StreamInputs::new(); // binds nothing, so `a` cannot be evaluated
        for config in [
            SynthesisConfig::default(),
            SynthesisConfig { incremental: false, ..Default::default() },
        ] {
            let mut stats = SynthesisStats::default();
            let mut synth = SynthStep::new(spec.schedule().unwrap());
            let err = synth
                .solve(&task, &config, &holes, std::slice::from_ref(&unbound), &mut stats)
                .unwrap_err();
            assert!(
                matches!(err, SynthesisError::MalformedExample { example: 0, cycle: 0, .. }),
                "got {err:?}"
            );
        }
    }

    /// A one-input task over `width` bits: spec `a & mask`, written as
    /// `!(!a | !mask)` so that it is not the sketch's shape, and sketch `a & k`.
    fn mask_task(width: u32, mask: u64) -> (Prog, Prog) {
        let mut b = ProgBuilder::new("spec");
        let a = b.input("a", width);
        let na = b.op1(BvOp::Not, a);
        let inverse = b.constant_u64(!mask, width);
        let either = b.op2(BvOp::Or, na, inverse);
        let out = b.op1(BvOp::Not, either);
        let spec = b.finish(out);
        let mut b = ProgBuilder::new("sketch");
        let a = b.input("a", width);
        let k = b.hole("k", width, HoleDomain::AnyConstant);
        let out = b.op2(BvOp::And, a, k);
        (spec, b.finish(out))
    }

    /// A 4-bit combinational task takes the exhaustive path: one synthesis check
    /// over all 16 inputs, checked by evaluation, so neither the e-graph prefold
    /// nor the SAT verifier runs.
    #[test]
    fn small_combinational_tasks_are_solved_over_every_input() {
        let (spec, sketch) = mask_task(4, 0b0110);
        let task = SynthesisTask::at(&spec, &sketch, 0);
        for incremental in [true, false] {
            let config = SynthesisConfig { incremental, ..SynthesisConfig::default() };
            let result = synthesize(&task, &config, None).unwrap().success().expect("success");
            assert_eq!(result.stats.iterations, 1);
            assert_eq!(result.stats.examples, 16);
            assert!(!result.stats.verification_used_sat);
            assert_eq!(result.stats.egraph_attempts, 0);
            for a in 0..16 {
                let env = StreamInputs::from_constants([("a".into(), BitVec::from_u64(a, 4))]);
                assert_eq!(spec.interp(&env, 0), result.implementation.interp(&env, 0), "a = {a}");
            }
        }
    }

    /// On the exhaustive path the one synthesis check covers every input, so its
    /// UNSAT is the verdict.
    #[test]
    fn small_impossible_tasks_are_unsat_after_one_check() {
        // out = a | ?? cannot clear bits that out = a & 0b0011 clears.
        let (spec, _) = mask_task(4, 0b0011);
        let mut b = ProgBuilder::new("sketch");
        let a = b.input("a", 4);
        let k = b.hole("k", 4, HoleDomain::AnyConstant);
        let out = b.op2(BvOp::Or, a, k);
        let sketch = b.finish(out);
        let task = SynthesisTask::at(&spec, &sketch, 0);
        let outcome = synthesize(&task, &SynthesisConfig::default(), None).unwrap();
        assert!(outcome.is_unsat(), "expected UNSAT, got {outcome:?}");
        assert_eq!(outcome.stats().iterations, 1);
        assert_eq!(outcome.stats().examples, 16);
        assert!(!outcome.stats().verification_used_sat);
    }

    /// Seven input bits, or a register, keep the seeded CEGIS loop. With no
    /// random seed examples the loop starts from all-zeros alone, so its example
    /// count cannot be mistaken for every input.
    #[test]
    fn wider_or_registered_tasks_keep_the_cegis_loop() {
        let config = SynthesisConfig { seed_examples: 0, ..SynthesisConfig::default() };
        let (spec, sketch) = mask_task(7, 0x5A);
        let task = SynthesisTask::at(&spec, &sketch, 0);
        let result = synthesize(&task, &config, None).unwrap().success().expect("7-bit success");
        assert_eq!(result.hole_assignment["k"], BitVec::from_u64(0x5A, 7));
        assert_ne!(result.stats.examples, 1 << 7);

        // spec: reg(a ^ 0b01); sketch: reg(a ^ ??), over two input bits.
        let mut b = ProgBuilder::new("spec");
        let a = b.input("a", 2);
        let one = b.constant_u64(1, 2);
        let x = b.op2(BvOp::Xor, a, one);
        let r = b.reg(x, 2);
        let spec = b.finish(r);
        let mut b = ProgBuilder::new("sketch");
        let a = b.input("a", 2);
        let k = b.hole("k", 2, HoleDomain::AnyConstant);
        let x = b.op2(BvOp::Xor, a, k);
        let r = b.reg(x, 2);
        let sketch = b.finish(r);
        assert!(exhaustive_inputs(&spec, &sketch).is_none());
        let task = SynthesisTask::over_window(&spec, &sketch, 1, 1);
        let result = synthesize(&task, &config, None).unwrap().success().expect("2-bit success");
        assert_eq!(result.hole_assignment["k"], BitVec::from_u64(1, 2));
        assert_ne!(result.stats.examples, 1 << 2);
    }

    /// The exhaustive check names the first example and cycle where a candidate
    /// differs, as a typed error.
    #[test]
    fn check_examples_reports_the_first_disagreement() {
        let (spec, sketch) = mask_task(2, 0b10);
        let all = exhaustive_inputs(&spec, &sketch).expect("two input bits");
        assert_eq!(all.len(), 4);
        let schedule = spec.schedule().unwrap();
        let right = sketch.fill_holes(&[("k".into(), BitVec::from_u64(0b10, 2))].into()).unwrap();
        assert_eq!(check_examples(&schedule, &right, &all, 0..=2), Ok(()));
        // k = 0b11 differs from the mask only where a's low bit is set: a = 1 first.
        let wrong = sketch.fill_holes(&[("k".into(), BitVec::from_u64(0b11, 2))].into()).unwrap();
        assert_eq!(
            check_examples(&schedule, &wrong, &all, 1..=2),
            Err(SynthesisError::Disagreement {
                example: 1,
                cycle: 1,
                expected: BitVec::from_u64(0, 2),
                found: BitVec::from_u64(1, 2),
            })
        );
    }
}
