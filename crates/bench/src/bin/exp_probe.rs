//! Single-benchmark CEGIS diagnostic: runs one named Xilinx microbenchmark in both
//! solving modes, with `lr_trace` on, and prints each run's statistics followed
//! by its per-stage span summary (`cegis-iteration`, `synth-check`,
//! `verify-check`, `sat-check`, … with call counts and total/mean/max time), to
//! localize where a slow benchmark spends its time.
//!
//! ```sh
//! cargo run --release -p lr_bench --bin exp_probe -- mul_w8_s1
//! ```
//!
//! For a whole-pipeline view (with Chrome `about:tracing` output) prefer
//! `lakeroad --trace out.json <design>`; this probe stays the quick
//! single-benchmark loupe.
use std::time::Instant;

use lakeroad::suite::suite_for;
use lakeroad::{generate_sketch, pipeline_depth, Template};
use lr_arch::{ArchName, Architecture};
use lr_synth::{synthesize, SynthesisConfig, SynthesisOutcome, SynthesisTask};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "mul_w8_s1".into());
    let arch = Architecture::xilinx_ultrascale_plus();
    let bench = suite_for(ArchName::XilinxUltraScalePlus, [8u32].into_iter())
        .into_iter()
        .find(|b| b.name == which)
        .expect("benchmark exists");
    let spec = bench.build();
    let sketch = generate_sketch(Template::Dsp, &arch, &spec).unwrap();
    let t = pipeline_depth(&spec);
    let task = SynthesisTask::over_window(&spec, &sketch, t, 2);
    lr_trace::set_enabled(true);
    for incremental in [true, false] {
        lr_trace::reset();
        let config = SynthesisConfig { timeout: None, incremental, ..Default::default() };
        let start = Instant::now();
        let outcome = synthesize(&task, &config).unwrap();
        let stats = outcome.stats().clone();
        let verdict = match &outcome {
            SynthesisOutcome::Success(_) => "success",
            SynthesisOutcome::Unsat { .. } => "unsat",
            SynthesisOutcome::Timeout { .. } => "timeout",
        };
        println!(
            "{which} incr={incremental}: {verdict} in {:.1} ms, iters={}, examples={}, \
             conflicts={}, verify_sat={}, enc={}, reenc={}, reuse={}",
            start.elapsed().as_secs_f64() * 1e3,
            stats.iterations,
            stats.examples,
            stats.conflicts,
            stats.verification_used_sat,
            stats.constraints_encoded,
            stats.constraints_reencoded,
            stats.learnt_clauses_reused,
        );
        print!("{}", lr_trace::stage_summary(&lr_trace::take_events()));
    }
}
