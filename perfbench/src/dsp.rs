//! The paper's §5.1 DSP microbenchmarks: one `map_design` call per design,
//! in-process, with a single solver and no cache.

use std::time::Instant;

use lakeroad::suite::suite_for;
use lakeroad::{map_design, pipeline_depth, MapConfig, MapOutcome, Template};
use lr_arch::{ArchName, Architecture};
use lr_bv::BitVec;
use lr_ir::{Prog, StreamInputs};

use crate::stats::Rng;

/// The three DSP-bearing architectures, in suite order.
pub const ARCHS: [ArchName; 3] =
    [ArchName::XilinxUltraScalePlus, ArchName::LatticeEcp5, ArchName::IntelCyclone10Lp];

/// Random environments each successful mapping is re-checked on.
const CHECK_ENVIRONMENTS: usize = 8;

/// One microbenchmark, ready to map.
pub struct Design {
    pub name: String,
    pub arch: ArchName,
    pub spec: Prog,
}

/// All 162 width-8 microbenchmarks (120 UltraScale+, 36 ECP5, 6 Cyclone 10 LP)
/// in suite order.
pub fn suite() -> Vec<Design> {
    ARCHS
        .iter()
        .flat_map(|&arch| suite_for(arch, [8u32].into_iter()))
        .map(|bench| Design { spec: bench.build(), name: bench.name, arch: bench.architecture })
        .collect()
}

/// The loaded architecture descriptions, indexed like [`ARCHS`].
pub fn architectures() -> Vec<Architecture> {
    ARCHS.iter().map(|&arch| Architecture::load(arch)).collect()
}

fn arch_index(arch: ArchName) -> usize {
    ARCHS.iter().position(|&a| a == arch).expect("suite designs target a DSP architecture")
}

/// The verdict of one mapping after the independent check.
enum Verdict {
    /// Re-verified, and exactly one DSP with no other resources.
    Optimal,
    /// Re-verified, but not a single-DSP mapping.
    Mapped,
    /// No configuration of the sketch implements the design: a valid answer.
    Unsat,
    /// An error or a timeout.
    Failed(String),
    /// An implementation that disagrees with its spec.
    Mismatched(String),
}

/// What a sequence of mappings measured.
#[derive(Default)]
pub struct Pass {
    pub latencies_ms: Vec<f64>,
    pub wall_s: f64,
    pub optimal: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Of the failures, implementations that disagreed with their spec.
    pub mismatched: u64,
}

/// Maps `order` (indices into `designs`) one at a time and re-checks every
/// success on environments drawn from `check_rng`.
pub fn run_pass(
    designs: &[Design],
    archs: &[Architecture],
    order: &[usize],
    check_rng: &mut Rng,
) -> Pass {
    let config = MapConfig::single_solver();
    let mut pass = Pass::default();
    let started = Instant::now();
    for &index in order {
        let design = &designs[index];
        let arch = &archs[arch_index(design.arch)];
        let t0 = Instant::now();
        let outcome = map_design(&design.spec, Template::Dsp, arch, &config);
        pass.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        pass.attempted += 1;
        match judge(&design.spec, outcome, config.bmc_window, check_rng) {
            Verdict::Optimal => pass.optimal += 1,
            Verdict::Mapped => {}
            Verdict::Unsat => {}
            Verdict::Failed(why) => {
                pass.failed += 1;
                eprintln!("perfbench: dsp `{}` on {} failed: {why}", design.name, design.arch);
            }
            Verdict::Mismatched(why) => {
                pass.failed += 1;
                pass.mismatched += 1;
                eprintln!("perfbench: dsp `{}` on {} is wrong: {why}", design.name, design.arch);
            }
        }
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass
}

fn judge(
    spec: &Prog,
    outcome: Result<MapOutcome, lakeroad::MapError>,
    bmc_window: u32,
    rng: &mut Rng,
) -> Verdict {
    match outcome {
        Err(e) => Verdict::Failed(e.to_string()),
        Ok(MapOutcome::Timeout { .. }) => Verdict::Failed("timeout".to_string()),
        Ok(MapOutcome::Unsat { .. }) => Verdict::Unsat,
        Ok(MapOutcome::Success(mapped)) => {
            match check_equivalent(spec, &mapped.implementation, bmc_window, rng) {
                Err(why) => Verdict::Mismatched(why),
                Ok(()) if mapped.resources.is_single_dsp() => Verdict::Optimal,
                Ok(()) => Verdict::Mapped,
            }
        }
    }
}

/// Interprets spec and implementation on random input streams and compares
/// them at every cycle from the pipeline depth through the BMC window the
/// synthesizer was asked to cover.
fn check_equivalent(
    spec: &Prog,
    implementation: &Prog,
    bmc_window: u32,
    rng: &mut Rng,
) -> Result<(), String> {
    let depth = pipeline_depth(spec);
    let last = depth + bmc_window;
    let inputs = spec.free_vars();
    for _ in 0..CHECK_ENVIRONMENTS {
        let mut env = StreamInputs::new();
        for (name, width) in &inputs {
            let mask = if *width >= 64 { u64::MAX } else { (1u64 << width) - 1 };
            let trace = (0..=last).map(|_| BitVec::from_u64(rng.next_u64() & mask, *width));
            env.set_trace(name.clone(), trace.collect());
        }
        for t in depth..=last {
            let want = spec.interp(&env, t).map_err(|e| format!("spec interp: {e}"))?;
            let got = implementation
                .interp(&env, t)
                .map_err(|e| format!("implementation interp: {e}"))?;
            if want != got {
                return Err(format!(
                    "mismatch at cycle {t}: spec {want:?}, implementation {got:?}"
                ));
            }
        }
    }
    Ok(())
}

/// The suite in a seeded order.
pub fn seeded_order(designs: &[Design], seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..designs.len()).collect();
    Rng::new(seed).shuffle(&mut order);
    order
}

/// The fixed, cheap probe the other workloads run so that every run reports
/// the DSP metrics: the 42 ECP5 and Cyclone 10 LP designs (the fastest to
/// map), three times over, so the p90 has twelve samples above it.
pub fn probe_order(designs: &[Design]) -> Vec<usize> {
    let cheap: Vec<usize> = designs
        .iter()
        .enumerate()
        .filter(|(_, d)| d.arch != ArchName::XilinxUltraScalePlus)
        .map(|(i, _)| i)
        .collect();
    cheap.repeat(3)
}
