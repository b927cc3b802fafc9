//! Cone-partitioned netlist mapping: the structural-frontend counterpart of
//! the behavioral batch engine.
//!
//! A structural netlist (AIGER or `.bench`, parsed by `lr_aig`) can be far too
//! large to pose to the synthesizer as one spec — the paper's sketches target
//! *small* behavioral fragments, not thousand-gate netlists. [`map_netlist`]
//! instead:
//!
//! 1. cuts the AIG into single-output cones of at most `lut_size` leaves
//!    ([`lr_aig::partition`]), so every cone is a one-LUT problem of at most
//!    six input bits. The Bitwise sketch solves it on synthesis's exhaustive
//!    path (`lr_synth::cegis`), not the CEGIS loop: one synthesis check over
//!    every input assignment, one portfolio member, and evaluation of every
//!    assignment instead of the prefold and the SAT verifier;
//! 2. fans the cones out as jobs on the batch scheduler
//!    ([`run_batch_streaming`]), prioritized by cone size so the fattest
//!    cones start first, sharing one content-addressed [`SynthCache`] so
//!    isomorphic cones (identical canonical `x0..xK` specs) collapse into a
//!    single synthesis;
//! 3. stitches the per-cone implementations back into one mapped design
//!    ([`lr_aig::stitch`]) and verifies it against the original AIG on seeded
//!    random stimulus ([`lr_aig::verify_stitched`]).
//!
//! The `lakeroad map-netlist <file>` subcommand is a thin CLI over this
//! module; batch manifests and the daemon reach the same AIG frontend through
//! `lakeroad::DesignSource`, posing the whole netlist as one spec.
//!
//! [`SynthCache`]: crate::SynthCache

use std::time::{Duration, Instant};

use lakeroad::{count_resources, MapConfig, MapOutcome, Resources, Template};
use lr_aig::{partition, stitch, verify_stitched, Aig, ConeOptions, Partition, VerifyReport};
use lr_arch::{ArchName, Architecture};
use lr_ir::Prog;

use crate::scheduler::{
    run_batch_streaming, BatchJob, BatchOptions, JobRecord, JobResult, TemplateChoice,
};

/// Configuration for one cone-partitioned netlist mapping.
#[derive(Clone)]
pub struct NetlistOptions {
    /// Target architecture; its LUT size bounds every cone's leaf count.
    pub arch_name: ArchName,
    /// Worker threads for the cone batch.
    pub workers: usize,
    /// Base mapping configuration; install a shared [`crate::SynthCache`] on
    /// [`MapConfig::cache`] so isomorphic cones collapse.
    pub map: MapConfig,
    /// Maximum AND gates per cone (leaf bounds come from the architecture).
    pub max_cone_ands: usize,
    /// Independent random environments for post-stitch verification.
    pub verify_environments: usize,
    /// Clock cycles replayed per verification environment.
    pub verify_cycles: usize,
    /// Stimulus seed for verification.
    pub verify_seed: u64,
}

impl NetlistOptions {
    /// Defaults: one worker, the stock [`MapConfig`], 32-gate cones, and a
    /// 32-environment × 8-cycle verification sweep.
    pub fn new(arch_name: ArchName) -> NetlistOptions {
        NetlistOptions {
            arch_name,
            workers: 1,
            map: MapConfig::default(),
            max_cone_ands: 32,
            verify_environments: 32,
            verify_cycles: 8,
            verify_seed: 0x1a4e_715d,
        }
    }
}

/// What one netlist mapping did, end to end.
#[derive(Debug, Clone)]
pub struct NetlistReport {
    /// The netlist's name.
    pub name: String,
    /// AND gates in the source AIG.
    pub total_ands: usize,
    /// Latches in the source AIG.
    pub latches: usize,
    /// Cones the partitioner cut (one synthesis job each).
    pub cones: usize,
    /// AND gates covered across all cone bodies (clones counted per cone).
    pub covered_ands: usize,
    /// Largest leaf count over all cones (≤ the architecture's LUT size).
    pub max_leaves: usize,
    /// Cone jobs served from the synthesis cache rather than synthesized —
    /// isomorphic-cone collapse plus cross-run warmth.
    pub cache_hits: usize,
    /// Resources of the stitched implementation.
    pub resources: Resources,
    /// The post-stitch verification sweep. [`VerifyReport::passed`] must hold
    /// for the mapping to be trusted.
    pub verify: VerifyReport,
    /// The stitched structural implementation.
    pub implementation: Prog,
    /// Structural Verilog for the stitched implementation.
    pub verilog: String,
    /// Wall-clock time of the whole pipeline (partition + map + stitch +
    /// verify).
    pub elapsed: Duration,
}

impl NetlistReport {
    /// A human-readable summary block.
    pub fn render(&self) -> String {
        format!(
            "-- netlist mapping: {} --\n\
             \x20 source            : {} ANDs, {} latches\n\
             \x20 cones             : {} (covering {} ANDs, widest {} leaves)\n\
             \x20 cache hits        : {} of {} cone jobs\n\
             \x20 implementation    : {} LEs, {} register bits\n\
             \x20 verification      : {} environments x {} cycles, {} mismatches\n\
             \x20 elapsed           : {:.2?}\n",
            self.name,
            self.total_ands,
            self.latches,
            self.cones,
            self.covered_ands,
            self.max_leaves,
            self.cache_hits,
            self.cones,
            self.resources.logic_elements,
            self.resources.registers,
            self.verify.environments,
            self.verify.cycles,
            self.verify.mismatches,
            self.elapsed,
        )
    }
}

/// Builds the cone batch for `aig`: one Bitwise-template job per cone, named
/// `<netlist>::cone_v<root>`, prioritized by cone size so the largest cones
/// are dealt first.
pub fn cone_jobs(aig: &Aig, part: &Partition, arch: &Architecture) -> Vec<BatchJob> {
    part.cones
        .iter()
        .map(|cone| {
            let mut job = BatchJob::new(
                format!("{}::cone_v{}", aig.name(), cone.root),
                cone.spec.clone(),
                arch.clone(),
                TemplateChoice::Named(Template::Bitwise),
            );
            job.priority = cone.num_ands.min(255) as u8;
            job
        })
        .collect()
}

/// Maps a structural netlist end to end: partition into cones, synthesize
/// every cone on the batch scheduler, stitch, verify.
///
/// `on_cone` observes each cone job's [`JobRecord`] as it is delivered (in
/// submission order), exactly like [`run_batch_streaming`]'s callback; pass
/// `|_| {}` to ignore.
///
/// # Errors
/// Returns a message naming the failing cone if any cone does not map
/// (UNSAT/timeout/error — with leaf counts bounded by the LUT size this means
/// a too-small budget), and a mismatch summary if the stitched design
/// disagrees with the AIG on any verification bit.
pub fn map_netlist(
    aig: &Aig,
    options: &NetlistOptions,
    on_cone: impl Fn(&JobRecord) + Sync,
) -> Result<NetlistReport, String> {
    if aig.outputs().is_empty() {
        return Err("netlist has no outputs to map".to_string());
    }
    let start = Instant::now();
    let arch = Architecture::load(options.arch_name);
    let cone_opts =
        ConeOptions { max_leaves: arch.lut_size() as usize, max_ands: options.max_cone_ands };
    let part = {
        let mut sp = lr_trace::span("cone-partition");
        let part = partition(aig, &cone_opts);
        sp.attr("cones", part.cones.len() as u64);
        sp.attr("covered_ands", part.covered_ands as u64);
        part
    };

    let jobs = cone_jobs(aig, &part, &arch);
    let batch_opts = BatchOptions::new(options.workers, options.map.clone());
    let run = {
        let _sp = lr_trace::span("cone-map");
        run_batch_streaming(&jobs, &batch_opts, on_cone)
    };

    let mut impls = Vec::with_capacity(run.records.len());
    let mut cache_hits = 0;
    for record in &run.records {
        match &record.result {
            JobResult::Finished(MapOutcome::Success(mapped)) => {
                if mapped.from_cache {
                    cache_hits += 1;
                }
                impls.push(mapped.implementation.clone());
            }
            JobResult::Finished(outcome) => {
                let verdict = if outcome.is_unsat() { "UNSAT" } else { "timeout" };
                return Err(format!("cone `{}` did not map: {verdict}", record.name));
            }
            JobResult::Error(e) => {
                return Err(format!("cone `{}` did not map: {e}", record.name));
            }
            JobResult::DeadlineExpired | JobResult::Cancelled => {
                return Err(format!("cone `{}` did not run", record.name));
            }
        }
    }

    let implementation = {
        let _sp = lr_trace::span("cone-stitch");
        stitch(aig, &part, &impls)
    };
    let verify = {
        let _sp = lr_trace::span("cone-verify");
        verify_stitched(
            aig,
            &implementation,
            options.verify_seed,
            options.verify_environments,
            options.verify_cycles,
        )?
    };
    if !verify.passed() {
        return Err(format!(
            "stitched design disagrees with the netlist: {} mismatched bits over {} environments x {} cycles",
            verify.mismatches, verify.environments, verify.cycles
        ));
    }

    let verilog = lr_hdl::emit_verilog(&implementation);
    Ok(NetlistReport {
        name: aig.name().to_string(),
        total_ands: aig.num_ands(),
        latches: aig.num_latches(),
        cones: part.cones.len(),
        covered_ands: part.covered_ands,
        max_leaves: part.max_leaves_used(),
        cache_hits,
        resources: count_resources(&implementation),
        verify,
        implementation,
        verilog,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use lr_aig::{random_aig, GenConfig};

    use super::*;
    use crate::SynthCache;

    fn options_with_cache(workers: usize) -> (NetlistOptions, Arc<SynthCache>) {
        let cache = Arc::new(SynthCache::new());
        let mut options = NetlistOptions::new(ArchName::IntelCyclone10Lp);
        options.workers = workers;
        options.map = MapConfig::default().with_cache(Arc::<SynthCache>::clone(&cache) as Arc<_>);
        (options, cache)
    }

    /// The cone-stitching integration test: a random sequential AIG maps end
    /// to end through real synthesis, and the stitched implementation agrees
    /// with the source on 32 random environments.
    #[test]
    fn random_netlists_map_and_verify() {
        let aig = random_aig(0xA15, &GenConfig { inputs: 6, latches: 3, ands: 60, outputs: 5 });
        let (mut options, cache) = options_with_cache(2);
        options.verify_environments = 32;
        let report = map_netlist(&aig, &options, |_| {}).expect("netlist maps");
        assert!(report.cones > 0);
        assert!(report.verify.passed());
        assert_eq!(report.verify.environments, 32);
        assert!(report.max_leaves <= 4, "cones wider than the LUT: {}", report.max_leaves);
        assert_eq!(report.resources.registers, aig.num_latches());
        assert!(report.verilog.contains("module"));
        // Isomorphic-cone collapse: a 60-AND netlist cut into <=4-leaf cones
        // repeats structures, so the shared cache must have been hit.
        assert!(cache.len() <= report.cones);

        // A second run over the warm cache serves every cone from it.
        let warm = map_netlist(&aig, &options, |_| {}).expect("warm run maps");
        assert_eq!(warm.cache_hits, warm.cones);
    }

    /// Cones are prioritized by size: the fattest cone carries the highest
    /// priority in the dealt batch.
    #[test]
    fn cone_jobs_prioritize_fat_cones() {
        let aig = random_aig(7, &GenConfig { inputs: 5, latches: 0, ands: 40, outputs: 3 });
        let arch = Architecture::load(ArchName::IntelCyclone10Lp);
        let part = partition(&aig, &ConeOptions { max_leaves: 4, max_ands: 8 });
        let jobs = cone_jobs(&aig, &part, &arch);
        assert_eq!(jobs.len(), part.cones.len());
        for (job, cone) in jobs.iter().zip(&part.cones) {
            assert_eq!(job.priority as usize, cone.num_ands.min(255));
            assert!(matches!(job.template, TemplateChoice::Named(Template::Bitwise)));
            assert!(job.name.contains("cone_v"));
        }
    }

    #[test]
    fn netlists_without_outputs_are_rejected() {
        let text = "aag 1 1 0 0 0\n2\n";
        let aig = lr_aig::parse_aag(text).unwrap();
        let (options, _) = options_with_cache(1);
        let err = map_netlist(&aig, &options, |_| {}).unwrap_err();
        assert!(err.contains("no outputs"), "{err}");
    }

    /// An impossible budget surfaces as a per-cone error naming the cone, not
    /// a panic or a silently wrong stitch.
    #[test]
    fn cone_failures_name_the_cone() {
        let aig = random_aig(3, &GenConfig { inputs: 5, latches: 0, ands: 30, outputs: 3 });
        let mut options = NetlistOptions::new(ArchName::IntelCyclone10Lp);
        options.map = MapConfig::default().with_timeout(Duration::from_nanos(1));
        let err = map_netlist(&aig, &options, |_| {}).unwrap_err();
        assert!(err.contains("cone `"), "{err}");
    }
}
