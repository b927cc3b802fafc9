//! Quickstart: map a behavioral multiply onto the Intel Cyclone 10 LP embedded
//! multiplier and print the synthesized structural Verilog.
//!
//! Run with `cargo run --example quickstart`.

use lakeroad_suite::prelude::*;

fn main() {
    // 1. Describe the behavioral design (this is what you would normally write in
    //    Verilog; see examples/add_mul_and.rs for the Verilog-driven flow).
    let mut b = ProgBuilder::new("mul8");
    let a = b.input("a", 8);
    let x = b.input("b", 8);
    let out = b.op2(BvOp::Mul, a, x);
    let spec = b.finish(out);

    // 2. Pick an architecture (input 2 of Figure 1) and the DSP sketch template.
    let arch = Architecture::intel_cyclone10lp();

    // 3. Map. The primitive semantics (input 3 of Figure 1) are already imported.
    let outcome = map_design(&spec, Template::Dsp, &arch, &MapConfig::default())
        .expect("the mapping task is well-formed");

    match &outcome {
        MapOutcome::Success(mapped) => {
            println!("mapped `mul8` onto {} in {:.2?}", arch.name(), outcome.elapsed());
            println!(
                "resources: {} DSP, {} logic elements, {} registers",
                mapped.resources.dsps, mapped.resources.logic_elements, mapped.resources.registers
            );
            if let Some(winner) = outcome.winning_solver() {
                println!("winning portfolio member: {winner}");
            }
            println!("\n--- structural Verilog ---\n{}", mapped.verilog);
        }
        MapOutcome::Unsat { .. } => println!("no single-DSP implementation exists"),
        MapOutcome::Timeout { .. } => println!("synthesis timed out"),
    }
}
