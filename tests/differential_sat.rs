//! Differential harness for the modernized CDCL core at the e2e mapping tier:
//! run every sketch/spec pair of the quick DSP tier through synthesis under the
//! old-style solver configuration (activity-only clause deletion + Luby
//! restarts) and the new-style one (LBD-tiered clause database + EMA restarts),
//! and require identical verdicts (Timeout exempt: budget-dependent), models
//! that verify against the spec by simulation, and sane solver telemetry. This
//! is the end-to-end safety net for the clause-database and restart rework in
//! `lr_sat` — the random-CNF half lives in `crates/sat/tests/prop_differential.rs`.

use std::time::Duration;

use lakeroad_suite::prelude::*;

use lakeroad::pipeline_depth;
use lakeroad::suite::suite_for;
use lr_sketch::generate_sketch;
use lr_synth::{
    synthesize, SolverConfig, SynthesisConfig, SynthesisOutcome, SynthesisStats, SynthesisTask,
    Synthesized,
};

fn config(solver: SolverConfig) -> SynthesisConfig {
    SynthesisConfig {
        solver: SolverConfig { conflict_budget: Some(20_000), ..solver },
        timeout: Some(Duration::from_secs(10)),
        ..SynthesisConfig::default()
    }
}

fn assert_model_verifies(name: &str, spec: &Prog, result: &Synthesized, at_cycle: u32) {
    assert!(!result.implementation.has_holes(), "{name}: implementation still has holes");
    lr_ir::interp_equivalent(spec, &result.implementation, 0xD1FF, 8, at_cycle, at_cycle + 2)
        .unwrap_or_else(|e| panic!("{name}: model does not verify: {e}"));
}

/// The telemetry invariants any synthesis run must satisfy.
fn assert_stats_sane(name: &str, stats: &SynthesisStats) {
    let learnt_total: u64 = stats.glue_histogram.iter().sum();
    assert!(
        learnt_total <= stats.conflicts,
        "{name}: each conflict learns at most one stored clause"
    );
    assert!(
        stats.learnt_literals >= 2 * learnt_total,
        "{name}: every stored learnt clause has at least two literals"
    );
    if stats.verification_used_sat || stats.conflicts > 0 {
        assert!(stats.propagations > 0, "{name}: conflicts without propagation");
    }
}

/// Runs one task under both solver generations and cross-checks the results.
fn differential(name: &str, spec: &Prog, sketch: &Prog, at_cycle: u32, window: u32) {
    let task = SynthesisTask::over_window(spec, sketch, at_cycle, window);
    let modern =
        synthesize(&task, &config(SolverConfig::default())).expect("modern run must not error");
    let legacy =
        synthesize(&task, &config(SolverConfig::legacy())).expect("legacy run must not error");

    // Timeout is budget-dependent; any definite verdict pair must agree exactly.
    if !modern.is_timeout() && !legacy.is_timeout() {
        assert_eq!(
            modern.verdict(),
            legacy.verdict(),
            "{name}: solver generations disagree on the verdict"
        );
    }
    assert_eq!(modern.stats().restart_mode, "ema", "{name}: default must be EMA restarts");
    assert_eq!(legacy.stats().restart_mode, "luby", "{name}: legacy must be Luby restarts");
    assert_stats_sane(&format!("{name} (modern)"), modern.stats());
    assert_stats_sane(&format!("{name} (legacy)"), legacy.stats());

    if let SynthesisOutcome::Success(result) = modern {
        assert_model_verifies(&format!("{name} (modern)"), spec, &result, at_cycle);
    }
    if let SynthesisOutcome::Success(result) = legacy {
        assert_model_verifies(&format!("{name} (legacy)"), spec, &result, at_cycle);
    }
}

/// The e2e DSP tier: the same stratified quick sample of the §5.1 microbenchmark
/// suites the `exp_sat` driver measures, for every DSP-bearing architecture.
#[test]
fn dsp_tier_verdicts_agree_between_solver_generations() {
    let mut ran = 0usize;
    for arch in Architecture::with_dsps() {
        for bench in suite_for(arch.name(), [8u32].into_iter()).into_iter().step_by(7) {
            let spec = bench.build();
            let Ok(sketch) = generate_sketch(Template::Dsp, &arch, &spec) else {
                continue;
            };
            let t = pipeline_depth(&spec);
            differential(&bench.name, &spec, &sketch, t, 2);
            ran += 1;
        }
    }
    assert!(ran >= 10, "expected a meaningful tier, ran only {ran}");
}

/// Every portfolio member must agree with the default on a small end-to-end
/// mapping task — the portfolio now spans restart strategies and clause-db
/// policies, and none of that may change verdicts.
#[test]
fn portfolio_members_agree_end_to_end() {
    let arch = Architecture::intel_cyclone10lp();
    let bench = &suite_for(arch.name(), [8u32].into_iter())[0];
    let spec = bench.build();
    let sketch = generate_sketch(Template::Dsp, &arch, &spec).expect("sketch");
    let t = pipeline_depth(&spec);
    let task = SynthesisTask::over_window(&spec, &sketch, t, 2);
    let reference = synthesize(&task, &config(SolverConfig::default())).unwrap();
    for member in SolverConfig::portfolio() {
        let name = member.name.clone();
        let outcome = synthesize(&task, &config(member)).unwrap();
        if !reference.is_timeout() && !outcome.is_timeout() {
            assert_eq!(
                reference.verdict(),
                outcome.verdict(),
                "portfolio member {name} disagrees with the default"
            );
        }
        if let SynthesisOutcome::Success(result) = outcome {
            assert_model_verifies(&format!("portfolio:{name}"), &spec, &result, t);
        }
    }
}
