//! The paper's running example (§2): the `add_mul_and` module, which the
//! state-of-the-art flow maps to one DSP **plus 32 registers and 16 LUTs**, but which
//! Lakeroad maps to a single DSP48E2.
//!
//! This example drives the full partial-design-mapping workflow: behavioral Verilog
//! in, structural Verilog out, with the baseline comparison alongside.
//!
//! Run with `cargo run --example add_mul_and` (add `--release` for the 16-bit
//! version; the default runs at 8 bits so the example finishes in seconds).

use lakeroad_suite::prelude::*;
use lr_baselines::{estimate, BaselineTool};

const ADD_MUL_AND_8: &str = r#"
// add_mul_and.v: computes (a+b)*c&d in two clock cycles.
module add_mul_and(input clk, input [7:0] a, b, c, d,
                   output reg [7:0] out);
  reg [7:0] r;
  always @(posedge clk) begin
    r <= (a+b)*c&d;
    out <= r;
  end
endmodule
"#;

fn main() {
    let arch = Architecture::xilinx_ultrascale_plus();
    println!("$ lakeroad --template dsp --arch-desc xilinx-ultrascale-plus.yml add_mul_and.v\n");

    // What the baselines do with this module (the §2.1 story).
    let spec = lr_hdl::parse_and_elaborate(ADD_MUL_AND_8).expect("example Verilog parses");
    for tool in [BaselineTool::SotaLike, BaselineTool::YosysLike] {
        let r = estimate(tool, arch.name(), &spec);
        println!("{tool}: {} DSP, {} LUTs, {} registers", r.dsps, r.logic_elements, r.registers);
    }

    // What Lakeroad does.
    let outcome = map_verilog(ADD_MUL_AND_8, Template::Dsp, &arch, &MapConfig::default())
        .expect("mapping task is well-formed");
    match outcome {
        MapOutcome::Success(mapped) => {
            println!(
                "Lakeroad: {} DSP, {} LUTs, {} registers  (in {:.2?})",
                mapped.resources.dsps,
                mapped.resources.logic_elements,
                mapped.resources.registers,
                mapped.stats.elapsed
            );
            assert!(mapped.resources.is_single_dsp());
            println!("\n--- add_mul_and_impl.v ---\n{}", mapped.verilog);
        }
        other => println!("unexpected outcome: {other:?}"),
    }
}
