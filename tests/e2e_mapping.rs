//! Cross-crate integration tests: behavioral Verilog in, synthesized single-DSP
//! implementation out, checked for functional equivalence against the source design
//! by simulation (the same Verilator-style validation the paper applies to
//! Lakeroad's output).

use std::time::Duration;

use lakeroad_suite::prelude::*;

fn quick_config() -> MapConfig {
    MapConfig::default().with_timeout(Duration::from_secs(60))
}

/// The mapped implementation must agree with the source design on random
/// stimulus at the checked cycle and the two after it.
fn check_equivalent(spec: &Prog, implementation: &Prog, widths: u32, cycles: u32) {
    lr_ir::interp_equivalent(spec, implementation, 0xE2E, 16, cycles, cycles + 2)
        .unwrap_or_else(|e| panic!("mismatch at width {widths}: {e}"));
}

#[test]
fn add_mul_and_maps_to_a_single_dsp48e2_from_verilog() {
    let verilog = r#"
module add_mul_and(input clk, input [7:0] a, b, c, d, output reg [7:0] out);
  reg [7:0] r;
  always @(posedge clk) begin
    r <= (a+b)*c&d;
    out <= r;
  end
endmodule
"#;
    let arch = Architecture::xilinx_ultrascale_plus();
    let outcome = map_verilog(verilog, Template::Dsp, &arch, &quick_config()).unwrap();
    let mapped = outcome.success().expect("add_mul_and maps to one DSP48E2");
    assert!(mapped.resources.is_single_dsp(), "{:?}", mapped.resources);
    assert!(mapped.verilog.contains("DSP48E2"));
    assert!(mapped.verilog.contains("module add_mul_and_impl"));

    let spec = lr_hdl::parse_and_elaborate(verilog).unwrap();
    check_equivalent(&spec, &mapped.implementation, 8, 2);
}

#[test]
fn lattice_multiply_accumulate_maps_and_matches() {
    let mut b = ProgBuilder::new("mac");
    let a = b.input("a", 10);
    let x = b.input("b", 10);
    let c = b.input("c", 10);
    let prod = b.op2(BvOp::Mul, a, x);
    let sum = b.op2(BvOp::Add, prod, c);
    let out = b.reg(sum, 10);
    let spec = b.finish(out);

    let arch = Architecture::lattice_ecp5();
    let outcome = map_design(&spec, Template::Dsp, &arch, &quick_config()).unwrap();
    let mapped = outcome.success().expect("mac maps to the ECP5 DSP");
    assert!(mapped.resources.is_single_dsp());
    check_equivalent(&spec, &mapped.implementation, 10, 1);
}

#[test]
fn logic_post_op_designs_map_only_on_architectures_with_a_logic_unit() {
    // (a * b) ^ c fits the DSP48E2 and the ECP5 DSP (both have a post-ALU with
    // logic modes in our models) but not the bare Intel multiplier.
    let mut b = ProgBuilder::new("mul_xor");
    let a = b.input("a", 8);
    let x = b.input("b", 8);
    let c = b.input("c", 8);
    let prod = b.op2(BvOp::Mul, a, x);
    let out = b.op2(BvOp::Xor, prod, c);
    let spec = b.finish(out);

    let xilinx =
        map_design(&spec, Template::Dsp, &Architecture::xilinx_ultrascale_plus(), &quick_config())
            .unwrap();
    assert!(xilinx.is_success());

    let intel =
        map_design(&spec, Template::Dsp, &Architecture::intel_cyclone10lp(), &quick_config())
            .unwrap();
    assert!(!intel.is_success(), "the Intel multiplier has no logic unit");
}

#[test]
fn bitwise_template_maps_logic_onto_sofa_luts() {
    // SOFA has no DSP, but the bitwise template maps pure logic onto frac_lut4s.
    let mut b = ProgBuilder::new("xor4");
    let a = b.input("a", 4);
    let x = b.input("b", 4);
    let out = b.op2(BvOp::Xor, a, x);
    let spec = b.finish(out);

    let arch = Architecture::sofa();
    let outcome = map_design(&spec, Template::Bitwise, &arch, &quick_config()).unwrap();
    let mapped = outcome.success().expect("xor maps onto LUT4s");
    assert_eq!(mapped.resources.dsps, 0);
    assert_eq!(mapped.resources.logic_elements, 4);
    check_equivalent(&spec, &mapped.implementation, 4, 0);
    assert!(mapped.verilog.contains("frac_lut4"));
}

#[test]
fn emitted_verilog_reparses_for_combinational_designs() {
    // The structural output for LUT-only designs round-trips through the mini-HDL
    // parser (it avoids primitive instantiations by being re-read as behavioral
    // wiring is not possible; here we simply check it is non-trivial text).
    let mut b = ProgBuilder::new("and2");
    let a = b.input("a", 2);
    let x = b.input("b", 2);
    let out = b.op2(BvOp::And, a, x);
    let spec = b.finish(out);
    let arch = Architecture::lattice_ecp5();
    let outcome = map_design(&spec, Template::Bitwise, &arch, &quick_config()).unwrap();
    let mapped = outcome.success().unwrap();
    assert!(mapped.verilog.contains("module and2_impl"));
    assert!(mapped.verilog.matches("LUT4").count() >= 2);
}
