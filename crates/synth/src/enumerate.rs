//! Brute-force enumeration baseline for the synthesis step.
//!
//! This module exists for the ablation study (DESIGN.md §6): instead of CEGIS, it
//! enumerates the Cartesian product of the holes' finite domains and verifies each
//! candidate. It is only practical when the product of domain sizes is small; the
//! ablation benchmark uses it to show why the paper's solver-based approach is
//! necessary for DSP-sized configuration spaces.

use std::collections::BTreeMap;
use std::time::Instant;

use lr_bv::{BitVec, Rng};
use lr_ir::{HoleDomain, HoleInfo, Prog, Schedule, StreamInputs};

use crate::{SynthesisError, SynthesisOutcome, SynthesisStats, SynthesisTask, Synthesized};

/// Enumerates hole assignments up to `max_candidates`, verifying each by exhaustive
/// simulation when input widths are small (≤ `max_exhaustive_bits` total) and by a
/// fixed set of random probes otherwise.
///
/// # Errors
/// Returns [`SynthesisError`] if the task is malformed or a hole domain is too large
/// to enumerate.
pub fn synthesize_by_enumeration(
    task: &SynthesisTask<'_>,
    max_candidates: u64,
    probes: usize,
) -> Result<SynthesisOutcome, SynthesisError> {
    if !task.spec.is_behavioral() {
        return Err(SynthesisError::SpecNotBehavioral);
    }
    let start = Instant::now();
    let holes = task.sketch.holes();
    let mut stats = SynthesisStats { solver_name: "enumeration".to_string(), ..Default::default() };

    let domains: Result<Vec<Vec<BitVec>>, SynthesisError> =
        holes.iter().map(|h| domain_values(h, max_candidates)).collect();
    let domains = domains?;
    let total: u64 = domains.iter().map(|d| d.len() as u64).product();
    let inputs = task.spec.free_vars();
    let probe_envs = probe_environments(&inputs, probes);
    let spec = task.spec.schedule().map_err(|e| SynthesisError::IllFormed(format!("spec: {e}")))?;

    let mut indices = vec![0usize; domains.len()];
    let mut tried = 0u64;
    loop {
        if tried >= max_candidates || tried >= total {
            stats.elapsed = start.elapsed();
            stats.iterations = tried as usize;
            return Ok(SynthesisOutcome::Timeout { stats });
        }
        let assignment: BTreeMap<String, BitVec> = holes
            .iter()
            .zip(&indices)
            .map(|(h, &i)| {
                (
                    h.name.clone(),
                    domains[holes.iter().position(|x| x.name == h.name).unwrap()][i].clone(),
                )
            })
            .collect();
        tried += 1;
        let candidate = task.sketch.fill_holes(&assignment).map_err(SynthesisError::IllFormed)?;
        if candidate_matches(task, &spec, &candidate, &probe_envs) {
            stats.elapsed = start.elapsed();
            stats.iterations = tried as usize;
            stats.examples = probe_envs.len();
            return Ok(SynthesisOutcome::Success(Box::new(Synthesized {
                implementation: candidate,
                hole_assignment: assignment,
                stats,
            })));
        }
        // Advance the mixed-radix counter.
        let mut k = 0;
        loop {
            if k == indices.len() {
                stats.elapsed = start.elapsed();
                stats.iterations = tried as usize;
                return Ok(SynthesisOutcome::Unsat { stats });
            }
            indices[k] += 1;
            if indices[k] < domains[k].len() {
                break;
            }
            indices[k] = 0;
            k += 1;
        }
    }
}

fn domain_values(hole: &HoleInfo, cap: u64) -> Result<Vec<BitVec>, SynthesisError> {
    match &hole.domain {
        HoleDomain::Choice(choices) => Ok(choices.clone()),
        HoleDomain::LessThan(bound) => {
            let n = bound.to_u64().unwrap_or(u64::MAX);
            if n > cap.max(1 << 20) {
                return Err(SynthesisError::IllFormed(format!(
                    "hole `{}` has {n} candidate values; too many to enumerate",
                    hole.name
                )));
            }
            Ok((0..n).map(|v| BitVec::from_u64(v, hole.width)).collect())
        }
        HoleDomain::AnyConstant => {
            if hole.width > 20 {
                return Err(SynthesisError::IllFormed(format!(
                    "hole `{}` is too wide ({} bits) to enumerate",
                    hole.name, hole.width
                )));
            }
            let n = 1u64 << hole.width;
            Ok((0..n).map(|v| BitVec::from_u64(v, hole.width)).collect())
        }
    }
}

fn probe_environments(inputs: &[(String, u32)], probes: usize) -> Vec<StreamInputs> {
    let mut envs = Vec::new();
    let mut rng = Rng::new(0x9e37_79b9_7f4a_7c15);
    for i in 0..probes.max(2) {
        let mut env = StreamInputs::new();
        for (name, width) in inputs {
            let value = match i {
                0 => 0,
                1 => u64::MAX,
                _ => rng.next_u64(),
            };
            env.set_constant(name.clone(), BitVec::from_u64(value, *width));
        }
        envs.push(env);
    }
    envs
}

fn candidate_matches(
    task: &SynthesisTask<'_>,
    spec: &Schedule<'_>,
    candidate: &Prog,
    envs: &[StreamInputs],
) -> bool {
    let last = task.at_cycle + task.extra_cycles;
    let Ok(candidate) = candidate.schedule() else { return false };
    envs.iter().all(|env| match (spec.trace(env, last), candidate.trace(env, last)) {
        (Ok(s), Ok(c)) => task.cycles().all(|t| s[t as usize] == c[t as usize]),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_ir::{BvOp, ProgBuilder};

    #[test]
    fn enumeration_finds_small_constants() {
        let mut b = ProgBuilder::new("spec");
        let a = b.input("a", 8);
        let three = b.constant_u64(3, 8);
        let out = b.op2(BvOp::Add, a, three);
        let spec = b.finish(out);

        let mut b = ProgBuilder::new("sketch");
        let a = b.input("a", 8);
        let k = b.hole("k", 8, HoleDomain::LessThan(BitVec::from_u64(16, 8)));
        let out = b.op2(BvOp::Add, a, k);
        let sketch = b.finish(out);

        let task = SynthesisTask::at(&spec, &sketch, 0);
        let outcome = synthesize_by_enumeration(&task, 1 << 16, 6).unwrap();
        let result = outcome.success().expect("enumeration should succeed");
        assert_eq!(result.hole_assignment["k"], BitVec::from_u64(3, 8));
        assert_eq!(result.stats.solver_name, "enumeration");
    }

    #[test]
    fn enumeration_times_out_when_capped() {
        let mut b = ProgBuilder::new("spec");
        let a = b.input("a", 8);
        let c = b.constant_u64(200, 8);
        let out = b.op2(BvOp::Add, a, c);
        let spec = b.finish(out);

        let mut b = ProgBuilder::new("sketch");
        let a = b.input("a", 8);
        let k = b.hole("k", 8, HoleDomain::AnyConstant);
        let out = b.op2(BvOp::Add, a, k);
        let sketch = b.finish(out);

        let task = SynthesisTask::at(&spec, &sketch, 0);
        // Only 10 candidates allowed: the correct constant (200) is out of reach.
        let outcome = synthesize_by_enumeration(&task, 10, 4).unwrap();
        assert!(outcome.is_timeout());
    }

    #[test]
    fn enumeration_reports_exhaustion_as_unsat() {
        // No choice in {1, 2} implements +3.
        let mut b = ProgBuilder::new("spec");
        let a = b.input("a", 8);
        let three = b.constant_u64(3, 8);
        let out = b.op2(BvOp::Add, a, three);
        let spec = b.finish(out);

        let mut b = ProgBuilder::new("sketch");
        let a = b.input("a", 8);
        let k = b.hole(
            "k",
            8,
            HoleDomain::Choice(vec![BitVec::from_u64(1, 8), BitVec::from_u64(2, 8)]),
        );
        let out = b.op2(BvOp::Add, a, k);
        let sketch = b.finish(out);

        let task = SynthesisTask::at(&spec, &sketch, 0);
        let outcome = synthesize_by_enumeration(&task, 1 << 16, 4).unwrap();
        assert!(outcome.is_unsat());
    }

    #[test]
    fn wide_any_constant_holes_are_rejected() {
        let mut b = ProgBuilder::new("spec");
        let a = b.input("a", 32);
        let spec = b.finish(a);
        let mut b = ProgBuilder::new("sketch");
        let a = b.input("a", 32);
        let k = b.hole("k", 32, HoleDomain::AnyConstant);
        let out = b.op2(BvOp::Xor, a, k);
        let sketch = b.finish(out);
        let task = SynthesisTask::at(&spec, &sketch, 0);
        assert!(synthesize_by_enumeration(&task, 1000, 4).is_err());
    }
}
