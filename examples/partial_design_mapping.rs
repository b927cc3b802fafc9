//! Partial design mapping (§2.1): a larger design contains four instances of the
//! same DSP-shaped computation; the designer separates the module out and maps it
//! with Lakeroad, then reuses the result four times.
//!
//! Run with `cargo run --example partial_design_mapping`.

use lakeroad_suite::prelude::*;

fn main() {
    // The module the designer pulled out of the larger design:
    //   for (i = 0; i < 4; i++) r[i] <= (d[i] + a[i]) * b[i] & c[i];
    let verilog = r#"
module lane(input clk, input [7:0] a, b, c, d, output reg [7:0] out);
  always @(posedge clk) out <= (d + a) * b & c;
endmodule
"#;
    let arch = Architecture::xilinx_ultrascale_plus();
    let outcome = map_verilog(verilog, Template::Dsp, &arch, &MapConfig::default())
        .expect("mapping task is well-formed");
    let mapped = outcome.success().expect("the lane maps to a single DSP48E2");
    assert!(mapped.resources.is_single_dsp());

    println!("one lane maps to a single DSP48E2 ({:.2?})", mapped.stats.elapsed);
    println!("the full four-lane design therefore uses 4 DSPs and no soft logic,");
    println!("versus 4 DSPs + 128 registers + 64 LUTs reported for the SOTA flow in §2.1.\n");
    println!("--- lane_impl.v ---\n{}", mapped.verilog);
}
