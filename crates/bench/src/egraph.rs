//! The equality-saturation experiment: measure what the `lr_egraph` subsystem
//! does across its three integration layers, and record it in a machine-readable
//! `BENCH_egraph.json` so the rewriting trajectory is tracked run over run.
//!
//! Three sections:
//!
//! 1. **Monster folds** — the PR-2 verification disequalities (DSP negate path,
//!    mirrored subtraction, carry-chain truncation) built in a *non-simplifying*
//!    pool and folded by saturation alone: fold verdict, node counts, iterations.
//! 2. **Spec canonicalization** — `Prog::saturated` over the sweep suites:
//!    program size before/after and saturation counters.
//! 3. **CEGIS ablation** — the DSP sweep synthesized with the e-graph pre-fold on
//!    and off (single solver, like `exp_cegis`): wall time, whether verification
//!    ever reached SAT, and the fold counters.

use std::time::Instant;

use lakeroad::suite::Microbenchmark;
use lakeroad::{generate_sketch, pipeline_depth, Template};
use lr_arch::Architecture;
use lr_bv::BitVec;
use lr_egraph::rules::bv_rules;
use lr_egraph::{fold_term, Limits};
use lr_serve::Json;
use lr_smt::{TermId, TermPool};
use lr_synth::{synthesize, SynthesisConfig, SynthesisTask, Verdict};

use crate::{decimal, Record, Scale};

/// One monster-disequality fold record.
#[derive(Debug, Clone)]
pub struct MonsterRecord {
    /// Which disequality.
    pub name: &'static str,
    /// Whether saturation alone folded it to constant false.
    pub folded: bool,
    /// Pool nodes reachable from the disequality before folding.
    pub input_nodes: usize,
    /// Nodes of the extracted term (1 when folded to a constant).
    pub output_nodes: usize,
    /// Saturation iterations.
    pub iterations: usize,
    /// E-nodes at the end of the run.
    pub enodes: usize,
    /// Wall-clock time of the fold.
    pub wall_ms: f64,
}

/// One spec-canonicalization record.
#[derive(Debug, Clone)]
pub struct SpecRecord {
    /// Architecture name.
    pub arch: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Program nodes before canonicalization.
    pub nodes_before: usize,
    /// Program nodes after canonicalization.
    pub nodes_after: usize,
    /// Saturation iterations.
    pub iterations: usize,
    /// E-nodes at the end of the run.
    pub enodes: usize,
    /// E-classes at the end of the run.
    pub classes: usize,
    /// Wall-clock time of the pass.
    pub wall_ms: f64,
}

/// One CEGIS ablation record (one benchmark in one mode).
#[derive(Debug, Clone)]
pub struct EgraphCegisRun {
    /// Architecture name.
    pub arch: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Whether the e-graph pre-fold was on.
    pub egraph: bool,
    /// `success` / `unsat` / `timeout`.
    pub verdict: Verdict,
    /// Measured wall-clock time.
    pub wall_ms: f64,
    /// Disequalities handed to the e-graph.
    pub egraph_attempts: usize,
    /// Of those, how many folded to false (no SAT).
    pub egraph_folds: usize,
    /// Whether verification ever reached the SAT solver.
    pub verification_used_sat: bool,
    /// SAT conflicts across the run.
    pub conflicts: u64,
}

/// The full experiment record.
#[derive(Debug, Clone)]
pub struct EgraphReport {
    /// The sweep scale.
    pub scale: Scale,
    /// Section 1: monster folds.
    pub monsters: Vec<MonsterRecord>,
    /// Section 2: spec canonicalization.
    pub specs: Vec<SpecRecord>,
    /// Section 3: CEGIS ablation, on/off interleaved per benchmark.
    pub cegis: Vec<EgraphCegisRun>,
}

impl EgraphReport {
    /// Whether every monster disequality folded by saturation alone — the
    /// acceptance gate this experiment exists to watch.
    pub fn all_monsters_fold(&self) -> bool {
        !self.monsters.is_empty() && self.monsters.iter().all(|m| m.folded)
    }

    /// Total CEGIS wall time of one mode, in milliseconds.
    pub fn cegis_total_ms(&self, egraph: bool) -> f64 {
        self.cegis.iter().filter(|r| r.egraph == egraph).map(|r| r.wall_ms).sum()
    }
}

impl Record for EgraphReport {
    const PATH: &'static str = "BENCH_egraph.json";

    fn to_json(&self) -> Json {
        let monsters = self.monsters.iter().map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("folded", Json::Bool(m.folded)),
                ("input_nodes", Json::Num(m.input_nodes as f64)),
                ("output_nodes", Json::Num(m.output_nodes as f64)),
                ("iterations", Json::Num(m.iterations as f64)),
                ("enodes", Json::Num(m.enodes as f64)),
                ("wall_ms", decimal(m.wall_ms, 3)),
            ])
        });
        let specs = self.specs.iter().map(|s| {
            Json::obj([
                ("arch", Json::str(&s.arch)),
                ("benchmark", Json::str(&s.benchmark)),
                ("nodes_before", Json::Num(s.nodes_before as f64)),
                ("nodes_after", Json::Num(s.nodes_after as f64)),
                ("iterations", Json::Num(s.iterations as f64)),
                ("enodes", Json::Num(s.enodes as f64)),
                ("classes", Json::Num(s.classes as f64)),
                ("wall_ms", decimal(s.wall_ms, 3)),
            ])
        });
        let cegis = self.cegis.iter().map(|r| {
            Json::obj([
                ("arch", Json::str(&r.arch)),
                ("benchmark", Json::str(&r.benchmark)),
                ("egraph", Json::Bool(r.egraph)),
                ("verdict", Json::str(r.verdict.name())),
                ("wall_ms", decimal(r.wall_ms, 3)),
                ("egraph_attempts", Json::Num(r.egraph_attempts as f64)),
                ("egraph_folds", Json::Num(r.egraph_folds as f64)),
                ("verification_used_sat", Json::Bool(r.verification_used_sat)),
                ("conflicts", Json::Num(r.conflicts as f64)),
            ])
        });
        Json::obj([
            ("scale", Json::str(format!("{:?}", self.scale))),
            ("all_monsters_fold", Json::Bool(self.all_monsters_fold())),
            ("monsters", Json::Arr(monsters.collect())),
            ("spec_saturations", Json::Arr(specs.collect())),
            ("cegis_total_wall_ms_egraph", decimal(self.cegis_total_ms(true), 3)),
            ("cegis_total_wall_ms_no_egraph", decimal(self.cegis_total_ms(false), 3)),
            ("cegis", Json::Arr(cegis.collect())),
        ])
    }

    fn gate_failures(&self) -> Vec<String> {
        if self.all_monsters_fold() {
            Vec::new()
        } else {
            vec!["a monster disequality no longer folds by saturation alone".to_string()]
        }
    }

    fn print_summary(&self) {
        println!("\n-- Equality saturation: monster disequalities (saturation alone) --");
        for m in &self.monsters {
            println!(
                "  {:26} {}  {} -> {} nodes, {} iters, {} e-nodes, {:.2} ms",
                m.name,
                if m.folded { "folds to false" } else { "NOT DECIDED  " },
                m.input_nodes,
                m.output_nodes,
                m.iterations,
                m.enodes,
                m.wall_ms,
            );
        }
        println!("\n-- Spec canonicalization (Prog::saturated over the sweep) --");
        for s in &self.specs {
            println!(
                "  {:44} {:>3} -> {:>3} nodes, {} iters, {:.2} ms",
                format!("{}/{}", s.arch, s.benchmark),
                s.nodes_before,
                s.nodes_after,
                s.iterations,
                s.wall_ms,
            );
        }
        println!("\n-- CEGIS with / without the e-graph pre-fold --");
        println!(
            "  {:44} {:>12} {:>12} {:>9} {:>7}",
            "benchmark", "egraph (ms)", "no-eg (ms)", "folds", "SAT?"
        );
        let mut i = 0;
        while i + 1 < self.cegis.len() {
            let (on, off) = (&self.cegis[i], &self.cegis[i + 1]);
            debug_assert!(on.egraph && !off.egraph);
            println!(
                "  {:44} {:>12.2} {:>12.2} {:>4}/{:<4} {:>7}",
                format!("{}/{}", on.arch, on.benchmark),
                on.wall_ms,
                off.wall_ms,
                on.egraph_folds,
                on.egraph_attempts,
                if on.verification_used_sat { "yes" } else { "no" },
            );
            i += 2;
        }
        println!(
            "  total: egraph {:.1} ms, no-eg {:.1} ms",
            self.cegis_total_ms(true),
            self.cegis_total_ms(false)
        );
    }
}

/// Builds the three monster disequalities in a non-simplifying pool, so folding
/// them is saturation's work alone. Mirrors
/// `crates/egraph/tests/monster_disequalities.rs`.
fn monster_terms(pool: &mut TermPool) -> Vec<(&'static str, TermId)> {
    let a = pool.var("a", 8);
    let b = pool.var("b", 8);
    let c = pool.var("c", 8);
    let d = pool.var("d", 8);
    let zero = pool.zero(8);
    let mut out = Vec::new();

    // DSP negate path: 0 − ((a · (0 − b)) + 0xff + 0x01) vs a · b.
    let spec = pool.mul(a, b);
    let nb = pool.sub(zero, b);
    let prod = pool.mul(a, nb);
    let ff = pool.constant(BitVec::from_u64(0xff, 8));
    let one = pool.constant(BitVec::from_u64(1, 8));
    let t = pool.add(prod, ff);
    let t = pool.add(t, one);
    let cand = pool.sub(zero, t);
    out.push(("dsp-negate-path", pool.ne(spec, cand)));

    // Mirrored subtraction: d − (c · (b − a)) vs (a − b) · c + d.
    let amb = pool.sub(a, b);
    let prod = pool.mul(amb, c);
    let spec = pool.add(prod, d);
    let bma = pool.sub(b, a);
    let mirrored = pool.mul(c, bma);
    let cand = pool.sub(d, mirrored);
    out.push(("mirrored-subtraction", pool.ne(spec, cand)));

    // Carry-chain truncation: extract[7:0]((zext48(a)·zext48(b) + ~0) + 1) vs a·b.
    let spec = pool.mul(a, b);
    let wa = pool.zext(a, 48);
    let wb = pool.zext(b, 48);
    let wide = pool.mul(wa, wb);
    let ones = pool.all_ones(48);
    let one48 = pool.constant(BitVec::from_u64(1, 48));
    let t = pool.add(wide, ones);
    let t = pool.add(t, one48);
    let cand = pool.extract(t, 7, 0);
    out.push(("carry-chain-truncation", pool.ne(spec, cand)));
    out
}

fn run_monsters() -> Vec<MonsterRecord> {
    let mut pool = TermPool::without_simplification();
    let rules = bv_rules();
    monster_terms(&mut pool)
        .into_iter()
        .map(|(name, ne)| {
            let start = Instant::now();
            let (folded, report) = fold_term(&mut pool, ne, &rules, &Limits::verifier());
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            let folded_false = pool.as_const(folded).map(|v| v.is_zero()).unwrap_or(false);
            MonsterRecord {
                name,
                folded: folded_false,
                input_nodes: report.input_nodes,
                output_nodes: report.output_nodes,
                iterations: report.stats.iterations,
                enodes: report.stats.enodes,
                wall_ms,
            }
        })
        .collect()
}

fn run_specs(scale: Scale) -> Vec<SpecRecord> {
    let mut out = Vec::new();
    for arch in Architecture::with_dsps() {
        for bench in scale.suite(arch.name()) {
            let spec = bench.build();
            let start = Instant::now();
            let outcome = spec.saturated_with_stats(&Limits::default());
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            out.push(SpecRecord {
                arch: arch.name().to_string(),
                benchmark: bench.name.clone(),
                nodes_before: spec.len(),
                nodes_after: outcome.prog.len(),
                iterations: outcome.stats.iterations,
                enodes: outcome.stats.enodes,
                classes: outcome.stats.classes,
                wall_ms,
            });
        }
    }
    out
}

fn run_cegis_one(
    arch: &Architecture,
    bench: &Microbenchmark,
    scale: Scale,
    egraph: bool,
) -> Option<EgraphCegisRun> {
    let spec = bench.build();
    let spec = if egraph { spec.saturated() } else { spec };
    let sketch = generate_sketch(Template::Dsp, arch, &spec).ok()?;
    let t = pipeline_depth(&spec);
    let task = SynthesisTask::over_window(&spec, &sketch, t, 2);
    let config = SynthesisConfig {
        timeout: Some(scale.timeout(arch.name())),
        egraph,
        ..SynthesisConfig::default()
    };
    let start = Instant::now();
    let outcome = synthesize(&task, &config).ok()?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let stats = outcome.stats();
    Some(EgraphCegisRun {
        arch: arch.name().to_string(),
        benchmark: bench.name.clone(),
        egraph,
        verdict: outcome.verdict(),
        wall_ms,
        egraph_attempts: stats.egraph_attempts,
        egraph_folds: stats.egraph_folds,
        verification_used_sat: stats.verification_used_sat,
        conflicts: stats.conflicts,
    })
}

fn run_cegis(scale: Scale) -> Vec<EgraphCegisRun> {
    let mut runs = Vec::new();
    for arch in Architecture::with_dsps() {
        for bench in scale.suite(arch.name()) {
            // Untimed warmup (allocator growth, page faults).
            let _ = run_cegis_one(&arch, &bench, scale, false);
            let pair: Vec<EgraphCegisRun> = [true, false]
                .into_iter()
                .filter_map(|mode| run_cegis_one(&arch, &bench, scale, mode))
                .collect();
            match pair.len() {
                2 => runs.extend(pair),
                0 => {}
                _ => eprintln!(
                    "warning: dropping unpaired egraph cegis runs for {}/{}",
                    arch.name(),
                    bench.name
                ),
            }
        }
    }
    runs
}

/// Runs the full experiment at `scale`.
pub fn run_egraph_experiment(scale: Scale) -> EgraphReport {
    EgraphReport {
        scale,
        monsters: run_monsters(),
        specs: run_specs(scale),
        cegis: run_cegis(scale),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monsters_fold_by_saturation_alone() {
        let monsters = run_monsters();
        assert_eq!(monsters.len(), 3);
        for m in &monsters {
            assert!(m.folded, "{} did not fold", m.name);
            assert_eq!(m.output_nodes, 1);
            assert!(m.input_nodes > 1);
        }
    }

    #[test]
    fn json_report_is_well_formed() {
        let report = EgraphReport {
            scale: Scale::Quick,
            monsters: vec![MonsterRecord {
                name: "dsp-negate-path",
                folded: true,
                input_nodes: 12,
                output_nodes: 1,
                iterations: 4,
                enodes: 90,
                wall_ms: 1.5,
            }],
            specs: vec![SpecRecord {
                arch: "intel_cyclone10lp".into(),
                benchmark: "mul_8b_0stage".into(),
                nodes_before: 4,
                nodes_after: 3,
                iterations: 3,
                enodes: 20,
                classes: 10,
                wall_ms: 0.4,
            }],
            cegis: vec![
                EgraphCegisRun {
                    arch: "intel_cyclone10lp".into(),
                    benchmark: "mul_8b_0stage".into(),
                    egraph: true,
                    verdict: Verdict::Success,
                    wall_ms: 10.0,
                    egraph_attempts: 1,
                    egraph_folds: 1,
                    verification_used_sat: false,
                    conflicts: 5,
                },
                EgraphCegisRun {
                    arch: "intel_cyclone10lp".into(),
                    benchmark: "mul_8b_0stage".into(),
                    egraph: false,
                    verdict: Verdict::Success,
                    wall_ms: 12.0,
                    egraph_attempts: 0,
                    egraph_folds: 0,
                    verification_used_sat: true,
                    conflicts: 40,
                },
            ],
        };
        let json = report.to_json();
        assert!(report.all_monsters_fold());
        assert!(report.gate_failures().is_empty());
        assert_eq!(json.get(&["all_monsters_fold"]), Some(&Json::Bool(true)));
        let cegis = json.get(&["cegis"]).and_then(Json::as_arr).unwrap();
        assert_eq!(cegis[0].get(&["egraph_folds"]), Some(&Json::num(1)));
        assert_eq!(json.get(&["cegis_total_wall_ms_egraph"]), Some(&Json::num(10)));
        assert_eq!(Json::parse(&json.render_indented()).unwrap(), json);
    }
}
