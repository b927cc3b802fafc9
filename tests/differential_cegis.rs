//! Differential harness for the incremental CEGIS loop: run every sketch/spec pair
//! of the e2e benchmark tier through *both* solving modes — incremental (persistent
//! solver state, assumption-guarded candidate checks) and from-scratch (fresh
//! solvers every iteration) — and require identical verdicts (Success/Unsat, with
//! Timeout exempt because it is budget-dependent) plus models that actually verify
//! against the spec by simulation. This is the safety net for the incremental
//! solver-state machinery in `lr_synth::cegis`.

use std::collections::BTreeMap;
use std::time::Duration;

use lakeroad_suite::prelude::*;

use lakeroad::pipeline_depth;
use lakeroad::suite::suite_for;
use lr_ir::{HoleDomain, HoleInfo};
use lr_sketch::generate_sketch;
use lr_smt::TermPool;
use lr_synth::{
    synthesize, SolverConfig, SynthesisConfig, SynthesisOutcome, SynthesisTask, Synthesized,
    Verdict,
};

fn config(incremental: bool) -> SynthesisConfig {
    // The conflict budget bounds every individual SAT check (wall-clock timeouts
    // are only polled between checks), keeping the harness's worst case small; a
    // blown budget surfaces as the Timeout verdict, which is budget-exempt below.
    SynthesisConfig {
        solver: SolverConfig { conflict_budget: Some(20_000), ..SolverConfig::default() },
        timeout: Some(Duration::from_secs(10)),
        incremental,
        ..SynthesisConfig::default()
    }
}

/// The returned model must verify: the completed implementation simulates
/// identically to the spec on random stimulus at (and a little past) the checked
/// cycles, and the hole assignment it claims must reproduce that implementation.
fn assert_model_verifies(name: &str, spec: &Prog, result: &Synthesized, at_cycle: u32) {
    assert!(!result.implementation.has_holes(), "{name}: implementation still has holes");
    lr_ir::interp_equivalent(spec, &result.implementation, 0xD1FF, 8, at_cycle, at_cycle + 2)
        .unwrap_or_else(|e| panic!("{name}: model does not verify: {e}"));
}

/// Runs one task through both modes and cross-checks the results. Returns the pair
/// of verdicts for reporting.
fn differential(
    name: &str,
    spec: &Prog,
    sketch: &Prog,
    at_cycle: u32,
    window: u32,
) -> (Verdict, Verdict) {
    let task = SynthesisTask::over_window(spec, sketch, at_cycle, window);
    let inc = synthesize(&task, &config(true)).expect("incremental run must not error");
    let scr = synthesize(&task, &config(false)).expect("from-scratch run must not error");

    // Timeout is budget-dependent; any definite verdict pair must agree exactly.
    if !inc.is_timeout() && !scr.is_timeout() {
        assert_eq!(inc.verdict(), scr.verdict(), "{name}: incremental and from-scratch disagree");
    }
    assert_eq!(inc.stats().constraints_reencoded, 0, "{name}: incremental mode re-encoded");
    assert!(inc.stats().incremental);
    assert!(!scr.stats().incremental);

    let verdicts = (inc.verdict(), scr.verdict());
    if let SynthesisOutcome::Success(result) = inc {
        assert_model_verifies(&format!("{name} (incremental)"), spec, &result, at_cycle);
    }
    if let SynthesisOutcome::Success(result) = scr {
        assert_model_verifies(&format!("{name} (from-scratch)"), spec, &result, at_cycle);
    }
    verdicts
}

/// The e2e DSP tier: the same stratified quick sample of the §5.1 microbenchmark
/// suites the experiment driver uses, for every DSP-bearing architecture.
#[test]
fn dsp_tier_verdicts_agree_between_modes() {
    let mut ran = 0usize;
    let mut agreements: Vec<String> = Vec::new();
    for arch in Architecture::with_dsps() {
        // The quick tier: every 7th benchmark of the one-bitwidth smoke suite.
        for bench in suite_for(arch.name(), [8u32].into_iter()).into_iter().step_by(7) {
            let spec = bench.build();
            let Ok(sketch) = generate_sketch(Template::Dsp, &arch, &spec) else {
                continue;
            };
            let t = pipeline_depth(&spec);
            let (inc, scr) = differential(&bench.name, &spec, &sketch, t, 2);
            agreements.push(format!("{}: {}/{}", bench.name, inc.name(), scr.name()));
            ran += 1;
        }
    }
    assert!(ran >= 10, "expected a meaningful tier, ran only {ran}: {agreements:?}");
}

/// The bitwise (LUT) template half of the e2e suite, on architectures with and
/// without DSPs.
#[test]
fn bitwise_tier_verdicts_agree_between_modes() {
    let shapes = [("xor", BvOp::Xor), ("and", BvOp::And), ("or", BvOp::Or)];
    for arch in [Architecture::sofa(), Architecture::lattice_ecp5()] {
        for (op_name, op) in shapes {
            let mut b = ProgBuilder::new(format!("{op_name}4"));
            let x = b.input("a", 4);
            let y = b.input("b", 4);
            let out = b.op2(op, x, y);
            let spec = b.finish(out);
            let Ok(sketch) = generate_sketch(Template::Bitwise, &arch, &spec) else {
                continue;
            };
            differential(&format!("{}/{op_name}4", arch.name()), &spec, &sketch, 0, 0);
        }
    }
}

/// Unsatisfiable tasks must be proven UNSAT by both modes (not just fail to find a
/// model): a two-multiply chain cannot fit the single-multiplier Intel DSP.
#[test]
fn unsat_tasks_agree_between_modes() {
    let mut b = ProgBuilder::new("mul_mul");
    let a = b.input("a", 8);
    let x = b.input("b", 8);
    let c = b.input("c", 8);
    let p1 = b.op2(BvOp::Mul, a, x);
    let p2 = b.op2(BvOp::Mul, p1, c);
    let spec = b.finish(p2);
    let arch = Architecture::intel_cyclone10lp();
    let sketch = generate_sketch(Template::Dsp, &arch, &spec).unwrap();
    let (inc, scr) = differential("mul_mul", &spec, &sketch, 0, 2);
    assert_eq!(inc, scr);
}

/// Multi-iteration synthesis (several counterexamples needed) must agree and both
/// models must verify — this is the path where incremental state actually carries
/// learnt clauses between iterations.
#[test]
fn multi_iteration_tasks_agree_between_modes() {
    // spec: out = (a ^ 0x5A) + 0x21 against a two-hole sketch.
    let mut b = ProgBuilder::new("spec");
    let a = b.input("a", 8);
    let m = b.constant_u64(0x5A, 8);
    let x = b.op2(BvOp::Xor, a, m);
    let k = b.constant_u64(0x21, 8);
    let out = b.op2(BvOp::Add, x, k);
    let spec = b.finish(out);

    let mut b = ProgBuilder::new("sketch");
    let a = b.input("a", 8);
    let j = b.hole("j", 8, lr_ir::HoleDomain::AnyConstant);
    let k = b.hole("k", 8, lr_ir::HoleDomain::AnyConstant);
    let x = b.op2(BvOp::Xor, a, j);
    let out = b.op2(BvOp::Add, x, k);
    let sketch = b.finish(out);

    let (inc, scr) = differential("xor_add_two_holes", &spec, &sketch, 0, 0);
    assert_eq!(inc, Verdict::Success);
    assert_eq!(scr, Verdict::Success);
}

/// The terms both CEGIS steps build, pinned: `TermId`s are made in a fixed
/// order, and since the pool orders commutative operands by `TermId`, that
/// order is part of the CNF and so of the search. On `mul_w8_s1`'s DSP48E2
/// sketch (Xilinx, saturated spec), one pool receives the synthesis step's
/// terms (the sketch on three fixed examples at cycles `t..=t+2`, holes
/// symbolic) and then the verification step's (the spec and the sketch with
/// every hole bound to the first value of its domain, inputs symbolic). The
/// pool's size and counters, the returned ids and a hash of every term's
/// rendering must not move.
#[test]
fn the_cegis_term_sequence_is_pinned() {
    fn fnv1a(hash: u64, text: &str) -> u64 {
        text.bytes().fold(hash, |h, byte| (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3))
    }
    fn first_value(hole: &HoleInfo) -> BitVec {
        match &hole.domain {
            HoleDomain::Choice(choices) => choices[0].clone(),
            HoleDomain::AnyConstant | HoleDomain::LessThan(_) => BitVec::zeros(hole.width),
        }
    }

    let arch = Architecture::xilinx_ultrascale_plus();
    let bench = suite_for(arch.name(), [8u32].into_iter())
        .into_iter()
        .find(|b| b.name == "mul_w8_s1")
        .expect("the suite holds mul_w8_s1");
    let spec = bench.build().saturated();
    let sketch = generate_sketch(Template::Dsp, &arch, &spec).unwrap();
    let t = pipeline_depth(&spec);
    assert_eq!(t, 1);
    let inputs = spec.free_vars();
    let examples: Vec<StreamInputs> = [0x35u64, 0xC6, 0x5B]
        .iter()
        .map(|&seed| {
            StreamInputs::from_constants(inputs.iter().enumerate().map(|(i, (name, width))| {
                (name.clone(), BitVec::from_u64(seed.wrapping_mul(i as u64 + 3), *width))
            }))
        })
        .collect();
    let first: BTreeMap<String, BitVec> =
        sketch.holes().iter().map(|h| (h.name.clone(), first_value(h))).collect();
    assert_eq!(first.len(), 16);

    let (spec, sketch) = (spec.schedule().unwrap(), sketch.schedule().unwrap());
    let (symbolic, no_holes) = (StreamInputs::new(), BTreeMap::new());
    let mut pool = TermPool::new();
    let mut terms = Vec::new();
    for example in &examples {
        for cycle in t..=t + 2 {
            terms.push(sketch.term(&mut pool, cycle, example, &no_holes));
        }
    }
    for cycle in t..=t + 2 {
        terms.push(spec.term(&mut pool, cycle, &symbolic, &no_holes));
        terms.push(sketch.term(&mut pool, cycle, &symbolic, &first));
    }

    let ids: Vec<usize> = terms.iter().map(|term| term.index()).collect();
    assert_eq!(ids, [218, 265, 304, 469, 516, 555, 720, 767, 806, 809, 145, 835, 145, 846, 145]);
    assert_eq!(pool.len(), 857);
    let stats = pool.stats();
    assert_eq!((stats.nodes, stats.cons_hits, stats.rewrite_hits), (857, 18_544, 17_938));
    let hash = terms.iter().fold(0xcbf2_9ce4_8422_2325, |h, &term| fnv1a(h, &pool.display(term)));
    assert_eq!(hash, 0x7587_05c7_b2cb_1d26);
}
