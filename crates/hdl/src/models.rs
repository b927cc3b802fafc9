//! Built-in primitive models written in the mini-HDL, standing in for the
//! vendor-provided Verilog simulation models the paper imports (Table 1).
//!
//! Licensing forbids shipping the vendor sources, so each model here re-implements
//! the documented behaviour of its primitive (UG574/UG579 for Xilinx, the ECP5
//! sysDSP usage guide and handbook, the Cyclone 10 LP handbook, and the SOFA
//! repository for `frac_lut4`). The models are deliberately written in the *style*
//! of vendor simulation models — parameters for configuration bits, registers
//! guarded by parameters — so that the semantics extraction pass
//! ([`crate::extract_semantics`]) exercises the same code path the paper
//! describes: parameters are converted to ports and become solver-visible
//! symbols.
//!
//! [`builtin_models`] is the only source of primitive semantics: every module an
//! architecture description names has exactly one model here, and `lr-arch`
//! extracts a module's semantics from the model of that name. The largest are
//! the two DSPs, Xilinx's `DSP48E2` and the Lattice ECP5 `MULT18X18C`
//! multiplier feeding an `ALU54A`, which Lakeroad maps to as one DSP.

/// A built-in primitive model: its module name and mini-HDL source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuiltinModel {
    /// Module name (matches the vendor primitive name).
    pub name: &'static str,
    /// Mini-HDL source text.
    pub source: &'static str,
}

/// Xilinx UltraScale+ LUT6 (UG574): 6-input LUT with a 64-bit truth table.
pub const LUT6: &str = r#"
// LUT6: 6-input look-up table. O = INIT[{I5,I4,I3,I2,I1,I0}].
module LUT6(input I0, input I1, input I2, input I3, input I4, input I5, output O);
  parameter [63:0] INIT = 64'h0000000000000000;
  wire [5:0] sel;
  assign sel = {I5, I4, I3, I2, I1, I0};
  assign O = INIT[sel];
endmodule
"#;

/// Xilinx UltraScale+ CARRY8 (UG574): 8-bit carry chain, sum outputs only.
pub const CARRY8: &str = r#"
// CARRY8: 8-bit carry chain. O[i] = S[i] ^ C[i]; C[i+1] = S[i] ? C[i] : DI[i].
module CARRY8(input [7:0] S, input [7:0] DI, input CI, output [8:0] O);
  wire c0, c1, c2, c3, c4, c5, c6, c7, c8;
  assign c0 = CI;
  wire [7:0] sum;
  assign c1 = S[0] ? c0 : DI[0];
  assign c2 = S[1] ? c1 : DI[1];
  assign c3 = S[2] ? c2 : DI[2];
  assign c4 = S[3] ? c3 : DI[3];
  assign c5 = S[4] ? c4 : DI[4];
  assign c6 = S[5] ? c5 : DI[5];
  assign c7 = S[6] ? c6 : DI[6];
  assign c8 = S[7] ? c7 : DI[7];
  assign sum = S ^ {c7, c6, c5, c4, c3, c2, c1, c0};
  assign O = {c8, sum};
endmodule
"#;

/// Xilinx UltraScale+ DSP48E2 (UG579): pre-adder, 27×18 multiplier, X/Y/Z
/// multiplexers and a 48-bit ALU with arithmetic and logic modes, with a
/// pipeline register per stage that its `*REG` parameter selects.
pub const DSP48E2: &str = r#"
// DSP48E2: P = ALU(X, Y, Z, CARRYIN) over the pre-added product M = (D +/- A) * B.
module DSP48E2(input clk, input [29:0] A, input [17:0] B, input [47:0] C, input [26:0] D,
               input CARRYIN, input [4:0] INMODE, input [8:0] OPMODE, input [3:0] ALUMODE,
               output [47:0] P);
  parameter [0:0] AREG = 1'b0;
  parameter [0:0] BREG = 1'b0;
  parameter [0:0] CREG = 1'b0;
  parameter [0:0] DREG = 1'b0;
  parameter [0:0] ADREG = 1'b0;
  parameter [0:0] MREG = 1'b0;
  parameter [0:0] PREG = 1'b0;
  parameter [0:0] AMULTSEL = 1'b0;
  reg [29:0] a_q;
  reg [17:0] b_q;
  reg [26:0] d_q, ad_q;
  reg [47:0] c_q, m_q, p_q;
  wire [29:0] a1;
  wire [17:0] b1;
  wire [26:0] d1, a27, ad_pre, ad;
  wire [44:0] ma, mb;
  wire [47:0] c1, m_pre, m, zero48, x, y, z, xyc, add_result, arith, x_xor_z, logic_out, alu_out;
  wire [1:0] xsel, ysel, alu_lo;
  wire is00, is01, is11;
  // Input pipeline registers.
  always @(posedge clk) begin
    a_q <= A;
    b_q <= B;
    c_q <= C;
    d_q <= D;
  end
  assign a1 = AREG ? a_q : A;
  assign b1 = BREG ? b_q : B;
  assign c1 = CREG ? c_q : C;
  assign d1 = DREG ? d_q : D;
  // Pre-adder: AD = D1 +/- A1[26:0], subtracting when INMODE[3] is set.
  assign a27 = a1[26:0];
  assign ad_pre = INMODE[3] ? d1 - a27 : d1 + a27;
  always @(posedge clk) ad_q <= ad_pre;
  assign ad = ADREG ? ad_q : ad_pre;
  // Multiplier: 27x18 -> 45 bits, then widened to 48.
  assign ma = AMULTSEL ? ad : a27;
  assign mb = b1;
  assign m_pre = ma * mb;
  always @(posedge clk) m_q <= m_pre;
  assign m = MREG ? m_q : m_pre;
  // X multiplexer (OPMODE[1:0]): 0 -> 0, 1 -> M, 3 -> {A1, B1}.
  assign zero48 = 48'd0;
  assign xsel = OPMODE[1:0];
  assign x = xsel == 2'd1 ? m : xsel == 2'd3 ? {a1, b1} : zero48;
  // Y multiplexer (OPMODE[3:2]): 0 -> 0, 1 -> all ones (logic unit), 3 -> C1.
  assign ysel = OPMODE[3:2];
  assign y = ysel == 2'd1 ? 48'hffffffffffff : ysel == 2'd3 ? c1 : zero48;
  // Z multiplexer (OPMODE[6:4]): 3 -> C1, otherwise 0.
  assign z = OPMODE[6:4] == 3'd3 ? c1 : zero48;
  // ALU, arithmetic modes (ALUMODE[3:2] == 0):
  //   00: Z + (X + Y + CIN)        01: (X + Y + CIN) - Z - 1
  //   10: -(Z + X + Y + CIN) - 1   11: Z - (X + Y + CIN)
  assign xyc = x + y + CARRYIN;
  assign add_result = z + xyc;
  assign alu_lo = ALUMODE[1:0];
  assign is00 = alu_lo == 2'd0;
  assign is11 = alu_lo == 2'd3;
  assign is01 = alu_lo == 2'd1;
  assign arith = is00 ? add_result : is11 ? z - xyc : is01 ? xyc - z - 48'd1 : ~add_result;
  // ALU, logic modes (ALUMODE[3:2] != 0): AND / OR / XOR / XNOR of X and Z.
  assign x_xor_z = x ^ z;
  assign logic_out = is00 ? x & z : is01 ? x | z : is11 ? ~x_xor_z : x_xor_z;
  assign alu_out = ALUMODE[3:2] == 2'd0 ? arith : logic_out;
  always @(posedge clk) p_q <= alu_out;
  assign P = PREG ? p_q : alu_out;
endmodule
"#;

/// Lattice ECP5 LUT2: 2-input LUT.
pub const LUT2: &str = r#"
// LUT2: 2-input look-up table.
module LUT2(input A, input B, output Z);
  parameter [3:0] INIT = 4'h0;
  wire [1:0] sel;
  assign sel = {B, A};
  assign Z = INIT[sel];
endmodule
"#;

/// Lattice ECP5 LUT4: 4-input LUT.
pub const LUT4: &str = r#"
// LUT4: 4-input look-up table.
module LUT4(input A, input B, input C, input D, output Z);
  parameter [15:0] INIT = 16'h0000;
  wire [3:0] sel;
  assign sel = {D, C, B, A};
  assign Z = INIT[sel];
endmodule
"#;

/// Lattice ECP5 CCU2C: 2-bit carry slice built from two LUT4 functions plus carry.
pub const CCU2C: &str = r#"
// CCU2C: two-bit carry-chain element (simplified to ADD/SUB style propagate-generate).
module CCU2C(input CIN, input A0, input B0, input A1, input B1, output [2:0] S);
  parameter [15:0] INIT0 = 16'h0000;
  parameter [15:0] INIT1 = 16'h0000;
  parameter [0:0] INJECT1_0 = 1'b0;
  parameter [0:0] INJECT1_1 = 1'b0;
  wire p0, p1, g0, g1, c1, c2, s0, s1;
  wire [1:0] sel0, sel1;
  assign sel0 = {B0, A0};
  assign sel1 = {B1, A1};
  assign p0 = INIT0[sel0];
  assign p1 = INIT1[sel1];
  assign g0 = A0 & B0 & ~INJECT1_0;
  assign g1 = A1 & B1 & ~INJECT1_1;
  assign c1 = p0 ? CIN : g0;
  assign c2 = p1 ? c1 : g1;
  assign s0 = p0 ^ CIN;
  assign s1 = p1 ^ c1;
  assign S = {c2, s1, s0};
endmodule
"#;

/// Lattice ECP5 DSP (sysDSP usage guide): a `MULT18X18C` 18×18 multiplier
/// feeding an `ALU54A`, the pair Lakeroad maps to as one DSP, with the input,
/// pipeline and output registers its `REG_*` parameters select.
pub const MULT18X18C_ALU54A: &str = r#"
// MULT18X18C_ALU54A: R = ALU_OP(M, C) for the product M = A * B. ALU_OP: 0 -> M,
// 1 -> M + C, 2 -> M - C, 3 -> C - M, 4 -> M & C, 5 -> M | C, 6 -> M ^ C.
module MULT18X18C_ALU54A(input clk, input [17:0] A, input [17:0] B, input [53:0] C,
                         output [53:0] R);
  parameter [0:0] REG_INPUT = 1'b0;
  parameter [0:0] REG_C = 1'b0;
  parameter [0:0] REG_PIPE = 1'b0;
  parameter [0:0] REG_OUTPUT = 1'b0;
  parameter [2:0] ALU_OP = 3'd0;
  reg [17:0] a_q, b_q;
  reg [53:0] c_q, m_q, c2_q, r_q;
  wire [35:0] ma, mb;
  wire [53:0] c1, m_wide, m, c2, result;
  always @(posedge clk) begin
    a_q <= A;
    b_q <= B;
    c_q <= C;
  end
  assign ma = REG_INPUT ? a_q : A;
  assign mb = REG_INPUT ? b_q : B;
  assign c1 = REG_C ? c_q : C;
  assign m_wide = ma * mb;
  always @(posedge clk) begin
    m_q <= m_wide;
    c2_q <= c1;
  end
  assign m = REG_PIPE ? m_q : m_wide;
  assign c2 = REG_PIPE ? c2_q : c1;
  assign result = ALU_OP == 3'd6 ? m ^ c2 : ALU_OP == 3'd5 ? m | c2 : ALU_OP == 3'd4 ? m & c2
                : ALU_OP == 3'd3 ? c2 - m : ALU_OP == 3'd2 ? m - c2 : ALU_OP == 3'd1 ? m + c2 : m;
  always @(posedge clk) r_q <= result;
  assign R = REG_OUTPUT ? r_q : result;
endmodule
"#;

/// Intel Cyclone 10 LP embedded multiplier (`cyclone10lp_mac_mult`).
pub const CYCLONE10LP_MAC_MULT: &str = r#"
// cyclone10lp_mac_mult: 18x18 embedded multiplier with optional register stages.
module cyclone10lp_mac_mult(input clk, input [17:0] dataa, input [17:0] datab,
                            output [35:0] dataout);
  parameter [0:0] REGISTER_A = 1'b0;
  parameter [0:0] REGISTER_B = 1'b0;
  parameter [0:0] REGISTER_OUT = 1'b0;
  reg [17:0] a_q;
  reg [17:0] b_q;
  reg [35:0] out_q;
  wire [17:0] a_mux;
  wire [17:0] b_mux;
  wire [35:0] product;
  always @(posedge clk) begin
    a_q <= dataa;
    b_q <= datab;
  end
  assign a_mux = REGISTER_A ? a_q : dataa;
  assign b_mux = REGISTER_B ? b_q : datab;
  assign product = {18'd0, a_mux} * {18'd0, b_mux};
  always @(posedge clk) out_q <= product;
  assign dataout = REGISTER_OUT ? out_q : product;
endmodule
"#;

/// SOFA `frac_lut4`: the open-source FPGA's fracturable LUT4 (simplified to its
/// whole-LUT mode, as in the paper's Figure 5 architecture description).
pub const FRAC_LUT4: &str = r#"
// frac_lut4: SOFA fracturable 4-input LUT (whole-LUT mode).
module frac_lut4(input [3:0] in, input mode, output lut4_out);
  parameter [15:0] sram = 16'h0000;
  assign lut4_out = sram[in];
endmodule
"#;

/// Every built-in primitive model: one per module the shipped architecture
/// descriptions name, in description order.
pub fn builtin_models() -> &'static [BuiltinModel] {
    &[
        BuiltinModel { name: "DSP48E2", source: DSP48E2 },
        BuiltinModel { name: "LUT6", source: LUT6 },
        BuiltinModel { name: "CARRY8", source: CARRY8 },
        BuiltinModel { name: "MULT18X18C_ALU54A", source: MULT18X18C_ALU54A },
        BuiltinModel { name: "LUT4", source: LUT4 },
        BuiltinModel { name: "LUT2", source: LUT2 },
        BuiltinModel { name: "CCU2C", source: CCU2C },
        BuiltinModel { name: "cyclone10lp_mac_mult", source: CYCLONE10LP_MAC_MULT },
        BuiltinModel { name: "frac_lut4", source: FRAC_LUT4 },
    ]
}

/// The built-in model of the module named `name`, if there is one.
pub fn builtin_model(name: &str) -> Option<&'static BuiltinModel> {
    builtin_models().iter().find(|model| model.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::extract_semantics;
    use lr_bv::BitVec;
    use lr_ir::StreamInputs;

    fn env(pairs: &[(&str, u64, u32)]) -> StreamInputs {
        StreamInputs::from_constants(
            pairs.iter().map(|&(n, v, w)| (n.to_string(), BitVec::from_u64(v, w))),
        )
    }

    #[test]
    fn every_builtin_model_extracts() {
        for model in builtin_models() {
            let prog = extract_semantics(model.source)
                .unwrap_or_else(|e| panic!("{} failed to extract: {e}", model.name));
            assert!(prog.well_formed().is_ok(), "{} not well-formed", model.name);
            // Parameters must have become free inputs.
            assert!(
                !prog.free_vars().is_empty(),
                "{} should expose at least one symbol",
                model.name
            );
        }
    }

    #[test]
    fn lut6_reads_its_truth_table() {
        let prog = extract_semantics(LUT6).unwrap();
        // INIT = bit 37 set only; inputs select index 37 = 0b100101.
        let init = 1u64 << 37;
        let e = env(&[
            ("I0", 1, 1),
            ("I1", 0, 1),
            ("I2", 1, 1),
            ("I3", 0, 1),
            ("I4", 0, 1),
            ("I5", 1, 1),
            ("INIT", init, 64),
        ]);
        assert_eq!(prog.interp(&e, 0).unwrap(), BitVec::from_bool(true));
        let e = env(&[
            ("I0", 0, 1),
            ("I1", 0, 1),
            ("I2", 1, 1),
            ("I3", 0, 1),
            ("I4", 0, 1),
            ("I5", 1, 1),
            ("INIT", init, 64),
        ]);
        assert_eq!(prog.interp(&e, 0).unwrap(), BitVec::from_bool(false));
    }

    #[test]
    fn carry8_adds_correctly() {
        // Configure the chain as an adder: S = a ^ b, DI = a (the standard pattern).
        let prog = extract_semantics(CARRY8).unwrap();
        let a = 0b1011_0110u64;
        let b = 0b0110_1011u64;
        let e = env(&[("S", a ^ b, 8), ("DI", a, 8), ("CI", 0, 1)]);
        let out = prog.interp(&e, 0).unwrap();
        assert_eq!(out.extract(7, 0), BitVec::from_u64((a + b) & 0xFF, 8));
        assert_eq!(out.bit(8), (a + b) > 0xFF);
    }

    #[test]
    fn frac_lut4_matches_lut4_semantics() {
        let prog = extract_semantics(FRAC_LUT4).unwrap();
        let e = env(&[("in", 5, 4), ("mode", 0, 1), ("sram", 1 << 5, 16)]);
        assert_eq!(prog.interp(&e, 0).unwrap(), BitVec::from_bool(true));
    }

    #[test]
    fn mac_mult_registers_are_parameter_controlled() {
        let prog = extract_semantics(CYCLONE10LP_MAC_MULT).unwrap();
        // Unregistered: product visible at cycle 0.
        let e = env(&[
            ("dataa", 100, 18),
            ("datab", 200, 18),
            ("REGISTER_A", 0, 1),
            ("REGISTER_B", 0, 1),
            ("REGISTER_OUT", 0, 1),
        ]);
        assert_eq!(prog.interp(&e, 0).unwrap(), BitVec::from_u64(20000, 36));
        // Fully registered: product appears two cycles later.
        let e = env(&[
            ("dataa", 100, 18),
            ("datab", 200, 18),
            ("REGISTER_A", 1, 1),
            ("REGISTER_B", 1, 1),
            ("REGISTER_OUT", 1, 1),
        ]);
        assert_eq!(prog.interp(&e, 0).unwrap(), BitVec::zeros(36));
        assert_eq!(prog.interp(&e, 2).unwrap(), BitVec::from_u64(20000, 36));
    }

    #[test]
    fn ccu2c_propagates_carry() {
        let prog = extract_semantics(CCU2C).unwrap();
        // Adder configuration: INIT = XOR truth table (0110 per bit pair = 0x6666).
        let e = env(&[
            ("CIN", 1, 1),
            ("A0", 1, 1),
            ("B0", 0, 1),
            ("A1", 0, 1),
            ("B1", 0, 1),
            ("INIT0", 0x6666, 16),
            ("INIT1", 0x6666, 16),
            ("INJECT1_0", 0, 1),
            ("INJECT1_1", 0, 1),
        ]);
        let out = prog.interp(&e, 0).unwrap();
        // 1 + 0 + carry-in 1 = 0b10: s0 = 0, s1 = 1 (carry into bit 1).
        assert!(!out.bit(0));
        assert!(out.bit(1));
    }

    #[test]
    fn table1_sloc_counts_are_positive() {
        for model in builtin_models() {
            assert!(crate::count_sloc(model.source) >= 4, "{} too small", model.name);
        }
    }
}
