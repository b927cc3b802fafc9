//! The structural-frontend experiment: map the committed AIGER/`.bench`
//! fixtures through the cone-partitioned netlist pipeline, cold and warm, and
//! record the deterministic cone accounting in `BENCH_aig.json`.
//!
//! Each fixture (ISCAS c17 plus two generated AIGER netlists, >1300 ANDs in
//! total, the largest >=1000 on its own) runs twice over one shared
//! [`SynthCache`]:
//!
//! * **cold** — every distinct cone synthesizes once; isomorphic cones
//!   (identical canonical `x0..xK` specs) collapse into cache hits even within
//!   the first run;
//! * **warm** — the identical mapping repeated against the same cache must be
//!   served entirely from it.
//!
//! Both runs stitch the per-cone implementations back together and verify the
//! result against the source AIG on seeded random stimulus. The gates are
//! zero-tolerance: any verification mismatch, any warm cone missing the cache,
//! or any cone wider than the LUT fails the run — and [`crate::gate`]
//! additionally pins the cone/coverage counters to the committed baseline
//! exactly, because the partitioner is deterministic, and requires that no
//! cone synthesis reached the SAT verifier: every cone is small enough for
//! synthesis's exhaustive path.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lakeroad::MapConfig;
use lr_aig::Aig;
use lr_arch::{ArchName, Architecture};
use lr_serve::{map_netlist, JobResult, Json, NetlistOptions, NetlistReport, SynthCache};

use crate::{decimal, Record, Scale};

/// The committed fixtures, relative to the crate's `fixtures/aig/` directory.
pub const FIXTURES: [&str; 3] = ["c17.bench", "rand_large.aag", "rand_mid.aig"];

/// The target architecture: a 4-LUT device, so every cone is a one-LUT
/// Bitwise problem.
pub const ARCH: ArchName = ArchName::IntelCyclone10Lp;

/// One fixture's cold + warm record.
#[derive(Debug, Clone)]
pub struct FixtureRun {
    /// Fixture file name.
    pub name: String,
    /// AND gates in the parsed AIG.
    pub ands: usize,
    /// Latches in the parsed AIG.
    pub latches: usize,
    /// Outputs in the parsed AIG.
    pub outputs: usize,
    /// Cones the partitioner cut.
    pub cones: usize,
    /// AND gates covered across cone bodies (clones counted per cone).
    pub covered_ands: usize,
    /// Widest cone (leaves); must stay within the LUT size.
    pub max_leaves: usize,
    /// Distinct cone specs after canonical leaf naming — what the cache can
    /// collapse the cone population down to.
    pub unique_cones: usize,
    /// Cone jobs served from the cache during the cold run (isomorphic-cone
    /// collapse; timing-dependent under parallel workers, so ungated).
    pub cold_cache_hits: usize,
    /// Cone jobs served from the cache during the warm run (must be all).
    pub warm_cache_hits: usize,
    /// Cone jobs of the cold run whose synthesis reached the SAT verifier.
    /// Cache hits never do, so the count is exact however the cold hits fall.
    pub cold_sat_verifications: usize,
    /// Logic elements of the stitched implementation.
    pub logic_elements: usize,
    /// Register bits of the stitched implementation.
    pub registers: usize,
    /// Verification environments replayed (each cold and warm).
    pub verify_environments: usize,
    /// Verification cycles per environment.
    pub verify_cycles: usize,
    /// Output-bit mismatches across both verification sweeps (must be 0).
    pub verify_mismatches: usize,
    /// Cold-run wall clock (ungated).
    pub cold_wall_ms: f64,
    /// Warm-run wall clock (ungated).
    pub warm_wall_ms: f64,
}

/// The full experiment record.
#[derive(Debug, Clone)]
pub struct AigReport {
    /// The sweep scale (sets the verification sweep size).
    pub scale: Scale,
    /// Per-fixture records.
    pub fixtures: Vec<FixtureRun>,
    /// Fixtures that failed to map end to end, with the error.
    pub failures: Vec<String>,
}

impl AigReport {
    /// Total AND gates across all fixtures.
    pub fn total_ands(&self) -> usize {
        self.fixtures.iter().map(|f| f.ands).sum()
    }

    /// The largest single fixture's AND count.
    pub fn largest_fixture_ands(&self) -> usize {
        self.fixtures.iter().map(|f| f.ands).max().unwrap_or(0)
    }

    /// Total cones across all fixtures.
    pub fn total_cones(&self) -> usize {
        self.fixtures.iter().map(|f| f.cones).sum()
    }

    /// Total distinct cone specs across all fixtures.
    pub fn unique_cones(&self) -> usize {
        self.fixtures.iter().map(|f| f.unique_cones).sum()
    }

    /// Total verification mismatches (must be 0).
    pub fn total_mismatches(&self) -> usize {
        self.fixtures.iter().map(|f| f.verify_mismatches).sum()
    }

    /// Whether every warm cone was served from the cache.
    pub fn warm_all_hits(&self) -> bool {
        self.fixtures.iter().all(|f| f.warm_cache_hits == f.cones)
    }
}

impl Record for AigReport {
    const PATH: &'static str = "BENCH_aig.json";

    fn to_json(&self) -> Json {
        let n = |v: usize| Json::Num(v as f64);
        let fixtures = self.fixtures.iter().map(|f| {
            Json::obj([
                ("name", Json::str(&f.name)),
                ("ands", n(f.ands)),
                ("latches", n(f.latches)),
                ("outputs", n(f.outputs)),
                ("cones", n(f.cones)),
                ("covered_ands", n(f.covered_ands)),
                ("max_leaves", n(f.max_leaves)),
                ("unique_cones", n(f.unique_cones)),
                ("cold_cache_hits", n(f.cold_cache_hits)),
                ("warm_cache_hits", n(f.warm_cache_hits)),
                ("cold_sat_verifications", n(f.cold_sat_verifications)),
                ("logic_elements", n(f.logic_elements)),
                ("registers", n(f.registers)),
                ("verify_environments", n(f.verify_environments)),
                ("verify_cycles", n(f.verify_cycles)),
                ("verify_mismatches", n(f.verify_mismatches)),
                ("cold_wall_ms", decimal(f.cold_wall_ms, 3)),
                ("warm_wall_ms", decimal(f.warm_wall_ms, 3)),
            ])
        });
        Json::obj([
            ("scale", Json::str(format!("{:?}", self.scale))),
            ("total_ands", n(self.total_ands())),
            ("largest_fixture_ands", n(self.largest_fixture_ands())),
            ("total_cones", n(self.total_cones())),
            ("unique_cones", n(self.unique_cones())),
            ("total_mismatches", n(self.total_mismatches())),
            ("warm_all_hits", Json::Bool(self.warm_all_hits())),
            ("gates_pass", Json::Bool(self.gate_failures().is_empty())),
            ("fixtures", Json::Arr(fixtures.collect())),
        ])
    }

    fn gate_failures(&self) -> Vec<String> {
        let mut failures = self.failures.clone();
        let lut = Architecture::load(ARCH).lut_size() as usize;
        for f in &self.fixtures {
            if f.verify_mismatches > 0 {
                failures.push(format!(
                    "{}: stitched design disagrees with the netlist on {} bits",
                    f.name, f.verify_mismatches
                ));
            }
            if f.warm_cache_hits != f.cones {
                failures.push(format!(
                    "{}: only {} of {} warm cones were served from the cache",
                    f.name, f.warm_cache_hits, f.cones
                ));
            }
            if f.cold_sat_verifications > 0 {
                failures.push(format!(
                    "{}: {} cold cone syntheses reached the SAT verifier",
                    f.name, f.cold_sat_verifications
                ));
            }
            if f.max_leaves > lut {
                failures.push(format!(
                    "{}: a cone has {} leaves, wider than the {lut}-LUT",
                    f.name, f.max_leaves
                ));
            }
            if f.registers != f.latches {
                failures.push(format!(
                    "{}: stitched register bits ({}) drifted from source latches ({})",
                    f.name, f.registers, f.latches
                ));
            }
        }
        if self.largest_fixture_ands() < 1000 {
            failures.push(format!(
                "largest fixture has {} ANDs, expected a >=1000-AND netlist",
                self.largest_fixture_ands()
            ));
        }
        failures
    }

    fn print_summary(&self) {
        println!(
            "\n-- Structural frontend: {} fixtures, {} ANDs total --",
            self.fixtures.len(),
            self.total_ands()
        );
        for f in &self.fixtures {
            println!(
                "  {:16} {:5} ANDs {:2} latches -> {:4} cones ({} unique, widest {}) \
                 cold {:8.1} ms ({} cache hits), warm {:7.1} ms ({} hits), \
                 {} LEs, verify {}x{} with {} mismatches",
                f.name,
                f.ands,
                f.latches,
                f.cones,
                f.unique_cones,
                f.max_leaves,
                f.cold_wall_ms,
                f.cold_cache_hits,
                f.warm_wall_ms,
                f.warm_cache_hits,
                f.logic_elements,
                f.verify_environments,
                f.verify_cycles,
                f.verify_mismatches,
            );
        }
        for failure in self.gate_failures() {
            println!("  GATE FAILED: {failure}");
        }
    }
}

/// The crate-relative fixtures directory.
pub fn fixtures_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/aig")
}

/// Counts the distinct cone specs of a partition after stripping the
/// root-specific program name — the population the synthesis cache can
/// collapse. The partitioner names leaves canonically (`x0..xK` in discovery
/// order), so a rendered spec with the name removed is an isomorphism key.
fn count_unique_cones(partition: &lr_aig::Partition) -> usize {
    let mut seen = std::collections::BTreeSet::new();
    for cone in &partition.cones {
        let rendered = format!("{:?}", cone.spec);
        let stripped = rendered.replacen(cone.spec.name(), "", 1);
        seen.insert(stripped);
    }
    seen.len()
}

fn run_fixture(name: &str, aig: &Aig, scale: Scale, workers: usize) -> Result<FixtureRun, String> {
    let cache = Arc::new(SynthCache::new());
    let mut options = NetlistOptions::new(ARCH);
    options.workers = workers;
    options.map = MapConfig::default()
        .with_timeout(scale.timeout(ARCH))
        .with_cache(Arc::<SynthCache>::clone(&cache) as Arc<_>);
    options.verify_environments = match scale {
        Scale::Quick => 32,
        Scale::Smoke => 64,
        Scale::Full => 128,
    };

    let sat_verified = AtomicUsize::new(0);
    let cold: NetlistReport = map_netlist(aig, &options, |record| {
        if let JobResult::Finished(outcome) = &record.result {
            if outcome.stats().verification_used_sat {
                sat_verified.fetch_add(1, Ordering::Relaxed);
            }
        }
    })
    .map_err(|e| format!("{name} (cold): {e}"))?;
    let warm: NetlistReport =
        map_netlist(aig, &options, |_| {}).map_err(|e| format!("{name} (warm): {e}"))?;

    let arch = Architecture::load(ARCH);
    let cone_opts = lr_aig::ConeOptions {
        max_leaves: arch.lut_size() as usize,
        max_ands: options.max_cone_ands,
    };
    let partition = lr_aig::partition(aig, &cone_opts);

    Ok(FixtureRun {
        name: name.to_string(),
        ands: aig.num_ands(),
        latches: aig.num_latches(),
        outputs: aig.outputs().len(),
        cones: cold.cones,
        covered_ands: cold.covered_ands,
        max_leaves: cold.max_leaves,
        unique_cones: count_unique_cones(&partition),
        cold_cache_hits: cold.cache_hits,
        warm_cache_hits: warm.cache_hits,
        cold_sat_verifications: sat_verified.into_inner(),
        logic_elements: cold.resources.logic_elements,
        registers: cold.resources.registers,
        verify_environments: cold.verify.environments,
        verify_cycles: cold.verify.cycles,
        verify_mismatches: cold.verify.mismatches + warm.verify.mismatches,
        cold_wall_ms: cold.elapsed.as_secs_f64() * 1e3,
        warm_wall_ms: warm.elapsed.as_secs_f64() * 1e3,
    })
}

/// Runs the full experiment at `scale` with `workers` scheduler threads.
pub fn run_aig_experiment(scale: Scale, workers: usize) -> AigReport {
    let dir = fixtures_dir();
    let mut report = AigReport { scale, fixtures: Vec::new(), failures: Vec::new() };
    for file in FIXTURES {
        let path = dir.join(file);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) => {
                report.failures.push(format!("cannot read `{}`: {e}", path.display()));
                continue;
            }
        };
        let aig = match lr_aig::parse_netlist(&bytes, path.to_str()) {
            Ok(aig) => aig.with_name(file.split('.').next().unwrap_or(file)),
            Err(e) => {
                report.failures.push(format!("{file}: {e}"));
                continue;
            }
        };
        match run_fixture(file, &aig, scale, workers) {
            Ok(run) => report.fixtures.push(run),
            Err(e) => report.failures.push(e),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_fixture() -> FixtureRun {
        FixtureRun {
            name: "c17.bench".into(),
            ands: 6,
            latches: 0,
            outputs: 2,
            cones: 2,
            covered_ands: 7,
            max_leaves: 4,
            unique_cones: 2,
            cold_cache_hits: 0,
            warm_cache_hits: 2,
            cold_sat_verifications: 0,
            logic_elements: 2,
            registers: 0,
            verify_environments: 32,
            verify_cycles: 8,
            verify_mismatches: 0,
            cold_wall_ms: 120.0,
            warm_wall_ms: 4.0,
        }
    }

    fn sample_report() -> AigReport {
        let mut big = sample_fixture();
        big.name = "rand_large.aag".into();
        big.ands = 1100;
        big.latches = 6;
        big.cones = 400;
        big.covered_ands = 1300;
        big.unique_cones = 60;
        big.cold_cache_hits = 340;
        big.warm_cache_hits = 400;
        big.registers = 6;
        AigReport {
            scale: Scale::Quick,
            fixtures: vec![sample_fixture(), big],
            failures: Vec::new(),
        }
    }

    #[test]
    fn healthy_reports_pass_the_gates() {
        let report = sample_report();
        assert!(report.gate_failures().is_empty(), "{:?}", report.gate_failures());
        assert_eq!(report.total_ands(), 1106);
        assert_eq!(report.largest_fixture_ands(), 1100);
        assert!(report.warm_all_hits());
    }

    #[test]
    fn each_gate_trips() {
        let mut mismatch = sample_report();
        mismatch.fixtures[0].verify_mismatches = 1;
        assert!(mismatch.gate_failures().iter().any(|f| f.contains("disagrees")));

        let mut cold_warm = sample_report();
        cold_warm.fixtures[1].warm_cache_hits = 399;
        assert!(cold_warm.gate_failures().iter().any(|f| f.contains("warm cones")));

        let mut sat = sample_report();
        sat.fixtures[1].cold_sat_verifications = 1;
        assert!(sat.gate_failures().iter().any(|f| f.contains("SAT verifier")));

        let mut wide = sample_report();
        wide.fixtures[0].max_leaves = 5;
        assert!(wide.gate_failures().iter().any(|f| f.contains("wider")));

        let mut regs = sample_report();
        regs.fixtures[1].registers = 5;
        assert!(regs.gate_failures().iter().any(|f| f.contains("register bits")));

        let mut small = sample_report();
        small.fixtures[1].ands = 900;
        assert!(small.gate_failures().iter().any(|f| f.contains(">=1000")));

        let mut failed = sample_report();
        failed.failures.push("rand_mid.aig (cold): cone `x` did not map: timeout".into());
        assert!(failed.gate_failures().iter().any(|f| f.contains("did not map")));
    }

    #[test]
    fn json_report_is_well_formed() {
        let report = sample_report();
        let json = report.to_json();
        assert_eq!(json.get(&["gates_pass"]), Some(&Json::Bool(true)));
        assert_eq!(json.get(&["total_mismatches"]), Some(&Json::num(0)));
        assert_eq!(json.get(&["warm_all_hits"]), Some(&Json::Bool(true)));
        let fixtures = json.get(&["fixtures"]).and_then(Json::as_arr).unwrap();
        assert_eq!(fixtures[1].get(&["name"]), Some(&Json::str("rand_large.aag")));
        assert_eq!(Json::parse(&json.render_indented()).unwrap(), json);
    }

    #[test]
    fn the_committed_fixtures_parse_and_are_large_enough() {
        let dir = fixtures_dir();
        let mut total = 0;
        let mut largest = 0;
        for file in FIXTURES {
            let bytes = std::fs::read(dir.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
            let aig =
                lr_aig::parse_netlist(&bytes, Some(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert!(!aig.outputs().is_empty(), "{file} has no outputs");
            total += aig.num_ands();
            largest = largest.max(aig.num_ands());
        }
        assert!(total >= 1000, "fixtures total {total} ANDs, expected >=1000");
        assert!(largest >= 1000, "largest fixture has {largest} ANDs, expected >=1000");
    }
}
