//! Cone-partitioned netlist mapping through `lr_serve::map_netlist`, cold on a
//! fresh cache and then warm on the same cache.

use std::sync::Arc;
use std::time::Instant;

use lakeroad::MapConfig;
use lr_aig::Aig;
use lr_arch::ArchName;
use lr_bv::BitVec;
use lr_ir::StreamInputs;
use lr_serve::{map_netlist, NetlistOptions, NetlistReport, SynthCache};

use crate::stats::Rng;

/// The workload's netlist: 1100 ANDs, 6 latches, 254 cones.
pub const LARGE: (&str, &[u8]) = ("rand_large.aag", include_bytes!("../fixtures/rand_large.aag"));
/// The probe the other workloads run: 220 ANDs, 4 latches.
pub const PROBE: (&str, &[u8]) = ("rand_mid.aig", include_bytes!("../fixtures/rand_mid.aig"));

/// Environments and cycles of the independent re-simulation of each result.
const CHECK_ENVIRONMENTS: usize = 4;
const CHECK_CYCLES: usize = 8;

/// One cold run and the warm runs after it.
pub struct Pair {
    /// Parse time of the cold run alone.
    pub parse_ms: f64,
    pub cold_s: f64,
    pub warm_s: Vec<f64>,
    pub cold: Result<NetlistReport, String>,
    pub warm: Vec<Result<NetlistReport, String>>,
    /// Verdicts stored by the cold run.
    pub stores: u64,
}

fn parse((name, bytes): (&str, &[u8])) -> Result<Aig, String> {
    lr_aig::parse_netlist(bytes, Some(name)).map_err(|e| e.to_string())
}

/// Parses and maps the netlist cold on a fresh cache, then `warm_runs` times
/// on the same cache. Each timing covers what `lakeroad map-netlist` does:
/// parse, partition, map, stitch, verify.
pub fn run_pair(netlist: (&str, &[u8]), warm_runs: usize) -> Pair {
    let cache = Arc::new(SynthCache::new());
    let mut options = NetlistOptions::new(ArchName::IntelCyclone10Lp);
    // One worker: at two, the race between isomorphic cones makes the
    // cold hit count (and so the cold time) vary from run to run.
    options.workers = 1;
    options.map = MapConfig::single_solver().with_cache(Arc::<SynthCache>::clone(&cache) as Arc<_>);
    let run = || {
        let t0 = Instant::now();
        let aig = parse(netlist);
        let parse_ms = t0.elapsed().as_secs_f64() * 1e3;
        let report = aig.and_then(|aig| map_netlist(&aig, &options, |_| {}));
        (parse_ms, t0.elapsed().as_secs_f64(), report)
    };
    let (parse_ms, cold_s, cold) = run();
    let stores = cache.snapshot().stores;
    let (warm_s, warm) = (0..warm_runs).map(|_| run()).map(|(_, s, report)| (s, report)).unzip();
    Pair { parse_ms, cold_s, warm_s, cold, warm, stores }
}

/// Re-simulates a mapped netlist against `Aig::simulate` on stimulus drawn
/// from `rng`, which is seeded apart from `NetlistOptions::verify_seed`.
pub fn check(netlist: (&str, &[u8]), report: &NetlistReport, rng: &mut Rng) -> Result<(), String> {
    let aig = parse(netlist)?;
    for _ in 0..CHECK_ENVIRONMENTS {
        let stimulus: Vec<Vec<bool>> = (0..CHECK_CYCLES)
            .map(|_| (0..aig.num_inputs()).map(|_| rng.bool()).collect())
            .collect();
        let expected = aig.simulate(&stimulus);
        let mut env = StreamInputs::new();
        for (i, name) in aig.input_names().iter().enumerate() {
            let trace = stimulus.iter().map(|s| BitVec::from_u64(u64::from(s[i]), 1)).collect();
            env.set_trace(name.clone(), trace);
        }
        let got = report
            .implementation
            .interp_trace(&env, CHECK_CYCLES as u32 - 1)
            .map_err(|e| format!("implementation interp: {e}"))?;
        for (t, want) in expected.iter().enumerate() {
            for (bit, &want_bit) in want.iter().enumerate() {
                if got[t].bit(bit as u32) != want_bit {
                    return Err(format!("output {bit} differs at cycle {t}"));
                }
            }
        }
    }
    Ok(())
}
