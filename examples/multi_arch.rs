//! Maps the same behavioral design onto all three DSP-bearing architectures,
//! demonstrating that the sketch templates are architecture-independent: nothing
//! about the design or the template changes between targets, only the architecture
//! description.
//!
//! Run with `cargo run --example multi_arch`.

use lakeroad_suite::prelude::*;

fn multiply_accumulate(width: u32) -> Prog {
    // out <= (a * b) + c, registered once.
    let mut b = ProgBuilder::new("mac");
    let a = b.input("a", width);
    let x = b.input("b", width);
    let c = b.input("c", width);
    let prod = b.op2(BvOp::Mul, a, x);
    let sum = b.op2(BvOp::Add, prod, c);
    let out = b.reg(sum, width);
    b.finish(out)
}

fn main() {
    let spec = multiply_accumulate(8);
    for arch in Architecture::with_dsps() {
        let outcome = map_design(&spec, Template::Dsp, &arch, &MapConfig::default())
            .expect("task is well-formed");
        match outcome {
            MapOutcome::Success(mapped) => println!(
                "{:22} -> single {}: {} (in {:.2?})",
                arch.name().to_string(),
                mapped
                    .implementation
                    .nodes()
                    .find_map(|(_, n)| match n {
                        lr_ir::Node::Prim(p) => Some(p.module.clone()),
                        _ => None,
                    })
                    .unwrap_or_default(),
                if mapped.resources.is_single_dsp() { "single DSP" } else { "DSP + soft logic" },
                mapped.stats.elapsed
            ),
            MapOutcome::Unsat { stats } => println!(
                "{:22} -> UNSAT: a multiply-accumulate does not fit this DSP ({:.2?})",
                arch.name().to_string(),
                stats.elapsed
            ),
            MapOutcome::Timeout { stats } => {
                println!("{:22} -> timeout after {:.2?}", arch.name().to_string(), stats.elapsed)
            }
        }
    }
}
