//! Primitive semantic models.
//!
//! Most primitives (LUTs, carry chains, the Intel multiplier, SOFA's `frac_lut4`)
//! get their semantics through the mini-HDL extraction path in `lr-hdl`, exactly as
//! the paper extracts vendor simulation models (§4.4). The two large multi-function
//! DSPs — Xilinx's `DSP48E2` and the Lattice ECP5 `MULT18X18C`+`ALU54A` pair — are
//! built programmatically here, following the functional description in the vendor
//! documentation (UG579 and the ECP5 sysDSP usage guide): pre-adder, multiplier, ALU
//! with arithmetic and logic modes, and per-stage pipeline registers, all controlled
//! by variables that the sketch binds to holes.
//!
//! Every builder returns a behavioral [`Prog`] whose free variables are the
//! primitive's ports *and* configuration parameters; the architecture description
//! decides which of those become data connections and which become holes.
//! [`semantics`] is the one table from a description's module names to these
//! builders, so a new architecture that reuses a module needs no semantics code.

use lr_bv::BitVec;
use lr_ir::{BvOp, NodeId, Prog, ProgBuilder};

/// Approximate source-line counts of the programmatically-built DSP models, reported
/// alongside the mini-HDL models in the Table 1 experiment.
pub const DSP48E2_MODEL_SLOC: usize = 120;
/// See [`DSP48E2_MODEL_SLOC`].
pub const ECP5_DSP_MODEL_SLOC: usize = 80;

/// The semantics of the primitive module named `module` in an architecture
/// description, or `None` if no model of that module exists.
pub fn semantics(module: &str) -> Option<Prog> {
    Some(match module {
        "DSP48E2" => dsp48e2_semantics(),
        "MULT18X18C_ALU54A" => ecp5_dsp_semantics(),
        "cyclone10lp_mac_mult" => cyclone10_mac_mult_semantics(),
        "LUT2" => lut_semantics(2),
        "LUT4" => lut_semantics(4),
        "LUT6" => lut_semantics(6),
        "frac_lut4" => frac_lut4_semantics(),
        "CARRY8" => carry8_semantics(),
        _ => return None,
    })
}

fn opt_reg(b: &mut ProgBuilder, enable: NodeId, value: NodeId, width: u32) -> NodeId {
    let registered = b.reg(value, width);
    b.mux(enable, registered, value)
}

fn eq_const(b: &mut ProgBuilder, value: NodeId, constant: u64, width: u32) -> NodeId {
    let c = b.constant_u64(constant, width);
    b.op2(BvOp::Eq, value, c)
}

/// Builds the behavioral semantics of the Xilinx UltraScale+ `DSP48E2`.
///
/// Free variables (all of which the sketch must bind):
/// data ports `A`(30) `B`(18) `C`(48) `D`(27) `CARRYIN`(1); dynamic control
/// `INMODE`(5) `OPMODE`(9) `ALUMODE`(4); configuration parameters `AREG` `BREG`
/// `CREG` `DREG` `ADREG` `MREG` `PREG` `AMULTSEL` (1 bit each). The program's root is
/// the 48-bit `P` output.
pub fn dsp48e2_semantics() -> Prog {
    let mut b = ProgBuilder::new("DSP48E2_semantics");
    let a = b.var("A", 30);
    let bb = b.var("B", 18);
    let c = b.var("C", 48);
    let d = b.var("D", 27);
    let carryin = b.var("CARRYIN", 1);
    let inmode = b.var("INMODE", 5);
    let opmode = b.var("OPMODE", 9);
    let alumode = b.var("ALUMODE", 4);
    let areg = b.var("AREG", 1);
    let breg = b.var("BREG", 1);
    let creg = b.var("CREG", 1);
    let dreg = b.var("DREG", 1);
    let adreg = b.var("ADREG", 1);
    let mreg = b.var("MREG", 1);
    let preg = b.var("PREG", 1);
    let amultsel = b.var("AMULTSEL", 1);

    // Input pipeline registers.
    let a1 = opt_reg(&mut b, areg, a, 30);
    let b1 = opt_reg(&mut b, breg, bb, 18);
    let c1 = opt_reg(&mut b, creg, c, 48);
    let d1 = opt_reg(&mut b, dreg, d, 27);

    // Pre-adder: AD = D1 ± A1[26:0], subtract when INMODE[3] is set.
    let a27 = b.extract(a1, 26, 0);
    let sum = b.op2(BvOp::Add, d1, a27);
    let diff = b.op2(BvOp::Sub, d1, a27);
    let inmode3 = b.extract(inmode, 3, 3);
    let ad_pre = b.mux(inmode3, diff, sum);
    let ad = opt_reg(&mut b, adreg, ad_pre, 27);

    // Multiplier: 27x18 -> 45 bits, then widened to 48.
    let mult_a = b.mux(amultsel, ad, a27);
    let ma = b.zext(mult_a, 45);
    let mb = b.zext(b1, 45);
    let product = b.op2(BvOp::Mul, ma, mb);
    let m_pre = b.zext(product, 48);
    let m = opt_reg(&mut b, mreg, m_pre, 48);

    // X multiplexer (OPMODE[1:0]): 0 -> 0, 1 -> M, 3 -> {A1, B1}.
    let zero48 = b.constant_u64(0, 48);
    let xsel = b.extract(opmode, 1, 0);
    let ab_concat = b.op2(BvOp::Concat, a1, b1);
    let xsel_is_m = eq_const(&mut b, xsel, 1, 2);
    let xsel_is_ab = eq_const(&mut b, xsel, 3, 2);
    let x_ab = b.mux(xsel_is_ab, ab_concat, zero48);
    let x = b.mux(xsel_is_m, m, x_ab);

    // Y multiplexer (OPMODE[3:2]): 0 -> 0, 1 -> all ones (logic unit), 3 -> C1.
    let ones48 = b.constant(BitVec::ones(48));
    let ysel = b.extract(opmode, 3, 2);
    let ysel_is_ones = eq_const(&mut b, ysel, 1, 2);
    let ysel_is_c = eq_const(&mut b, ysel, 3, 2);
    let y_c = b.mux(ysel_is_c, c1, zero48);
    let y = b.mux(ysel_is_ones, ones48, y_c);

    // Z multiplexer (OPMODE[6:4]): 3 -> C1, otherwise 0.
    let zsel = b.extract(opmode, 6, 4);
    let zsel_is_c = eq_const(&mut b, zsel, 3, 3);
    let z = b.mux(zsel_is_c, c1, zero48);

    // ALU, arithmetic modes (ALUMODE[3:2] == 0):
    //   00: Z + (X + Y + CIN)        01: (X + Y + CIN) - Z - 1
    //   10: -(Z + X + Y + CIN) - 1   11: Z - (X + Y + CIN)
    let cin = b.zext(carryin, 48);
    let xy = b.op2(BvOp::Add, x, y);
    let xyc = b.op2(BvOp::Add, xy, cin);
    let add_result = b.op2(BvOp::Add, z, xyc);
    let sub_result = b.op2(BvOp::Sub, z, xyc);
    let one48 = b.constant_u64(1, 48);
    let xyc_minus_z = b.op2(BvOp::Sub, xyc, z);
    let mode01 = b.op2(BvOp::Sub, xyc_minus_z, one48);
    let mode10 = b.op1(BvOp::Not, add_result);
    let alu_lo = b.extract(alumode, 1, 0);
    let is00 = eq_const(&mut b, alu_lo, 0, 2);
    let is11 = eq_const(&mut b, alu_lo, 3, 2);
    let is01 = eq_const(&mut b, alu_lo, 1, 2);
    let arith_01_or_10 = b.mux(is01, mode01, mode10);
    let arith_11 = b.mux(is11, sub_result, arith_01_or_10);
    let arith = b.mux(is00, add_result, arith_11);

    // ALU, logic modes (ALUMODE[3:2] != 0): AND / OR / XOR / XNOR of X and Z.
    let x_and_z = b.op2(BvOp::And, x, z);
    let x_or_z = b.op2(BvOp::Or, x, z);
    let x_xor_z = b.op2(BvOp::Xor, x, z);
    let x_xnor_z = b.op1(BvOp::Not, x_xor_z);
    let logic_10_or_11 = b.mux(is11, x_xnor_z, x_xor_z);
    let logic_01 = b.mux(is01, x_or_z, logic_10_or_11);
    let logic = b.mux(is00, x_and_z, logic_01);

    let alu_hi = b.extract(alumode, 3, 2);
    let arith_mode = eq_const(&mut b, alu_hi, 0, 2);
    let alu_out = b.mux(arith_mode, arith, logic);

    let p = opt_reg(&mut b, preg, alu_out, 48);
    b.finish(p)
}

/// Builds the behavioral semantics of the combined Lattice ECP5 DSP
/// (`MULT18X18C` multiplier feeding an `ALU54A`), which the paper treats as a single
/// DSP target.
///
/// Free variables: data ports `A`(18) `B`(18) `C`(54); configuration `REG_INPUT`
/// `REG_C` `REG_PIPE` `REG_OUTPUT` (1 bit each) and `ALU_OP`(3). The root is the
/// 54-bit result.
pub fn ecp5_dsp_semantics() -> Prog {
    let mut b = ProgBuilder::new("ECP5_DSP_semantics");
    let a = b.var("A", 18);
    let bb = b.var("B", 18);
    let c = b.var("C", 54);
    let reg_input = b.var("REG_INPUT", 1);
    let reg_c = b.var("REG_C", 1);
    let reg_pipe = b.var("REG_PIPE", 1);
    let reg_output = b.var("REG_OUTPUT", 1);
    let alu_op = b.var("ALU_OP", 3);

    let a1 = opt_reg(&mut b, reg_input, a, 18);
    let b1 = opt_reg(&mut b, reg_input, bb, 18);
    let c1 = opt_reg(&mut b, reg_c, c, 54);

    let ma = b.zext(a1, 36);
    let mb = b.zext(b1, 36);
    let product = b.op2(BvOp::Mul, ma, mb);
    let m_wide = b.zext(product, 54);
    let m = opt_reg(&mut b, reg_pipe, m_wide, 54);
    let c2 = opt_reg(&mut b, reg_pipe, c1, 54);

    // ALU_OP: 0 -> M, 1 -> M + C, 2 -> M - C, 3 -> C - M, 4 -> M & C, 5 -> M | C,
    // 6 -> M ^ C.
    let add = b.op2(BvOp::Add, m, c2);
    let sub = b.op2(BvOp::Sub, m, c2);
    let rsub = b.op2(BvOp::Sub, c2, m);
    let and = b.op2(BvOp::And, m, c2);
    let or = b.op2(BvOp::Or, m, c2);
    let xor = b.op2(BvOp::Xor, m, c2);
    let mut result = m;
    for (code, value) in [(1, add), (2, sub), (3, rsub), (4, and), (5, or), (6, xor)] {
        let is = eq_const(&mut b, alu_op, code, 3);
        result = b.mux(is, value, result);
    }

    let out = opt_reg(&mut b, reg_output, result, 54);
    b.finish(out)
}

/// Extracts the Intel Cyclone 10 LP multiplier semantics from its mini-HDL model.
pub fn cyclone10_mac_mult_semantics() -> Prog {
    lr_hdl::extract_semantics(lr_hdl::models::CYCLONE10LP_MAC_MULT)
        .expect("built-in cyclone10lp_mac_mult model extracts")
}

/// Extracts a LUT semantics program from the built-in mini-HDL models.
/// `inputs` must be 2, 4, or 6.
pub fn lut_semantics(inputs: u32) -> Prog {
    let src = match inputs {
        2 => lr_hdl::models::LUT2,
        4 => lr_hdl::models::LUT4,
        6 => lr_hdl::models::LUT6,
        other => panic!("no built-in LUT model with {other} inputs"),
    };
    lr_hdl::extract_semantics(src).expect("built-in LUT model extracts")
}

/// Extracts the SOFA `frac_lut4` semantics.
pub fn frac_lut4_semantics() -> Prog {
    lr_hdl::extract_semantics(lr_hdl::models::FRAC_LUT4).expect("built-in frac_lut4 model extracts")
}

/// Extracts the Xilinx CARRY8 semantics.
pub fn carry8_semantics() -> Prog {
    lr_hdl::extract_semantics(lr_hdl::models::CARRY8).expect("built-in CARRY8 model extracts")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_ir::StreamInputs;

    fn env(pairs: &[(&str, u64, u32)]) -> StreamInputs {
        StreamInputs::from_constants(
            pairs.iter().map(|&(n, v, w)| (n.to_string(), BitVec::from_u64(v, w))),
        )
    }

    /// A DSP48E2 environment with every control input defaulted to the combinational
    /// multiply-add configuration `P = C + (D + A) * B`.
    fn dsp_env(a: u64, bv: u64, c: u64, d: u64) -> StreamInputs {
        env(&[
            ("A", a, 30),
            ("B", bv, 18),
            ("C", c, 48),
            ("D", d, 27),
            ("CARRYIN", 0, 1),
            ("INMODE", 0, 5),
            // OPMODE: X = M (01), Y = 0 (00), Z = C (011) -> 0_011_00_01.
            ("OPMODE", 0b0_011_00_01, 9),
            ("ALUMODE", 0, 4),
            ("AREG", 0, 1),
            ("BREG", 0, 1),
            ("CREG", 0, 1),
            ("DREG", 0, 1),
            ("ADREG", 0, 1),
            ("MREG", 0, 1),
            ("PREG", 0, 1),
            ("AMULTSEL", 1, 1),
        ])
    }

    #[test]
    fn dsp48e2_is_well_formed() {
        let prog = dsp48e2_semantics();
        assert!(prog.well_formed().is_ok());
        assert_eq!(prog.width(prog.root()), 48);
        assert_eq!(prog.free_vars().len(), 16);
    }

    #[test]
    fn dsp48e2_computes_pre_add_multiply_accumulate() {
        let prog = dsp48e2_semantics();
        // P = C + (D + A) * B = 100 + (7 + 3) * 5 = 150.
        let e = dsp_env(3, 5, 100, 7);
        assert_eq!(prog.interp(&e, 0).unwrap(), BitVec::from_u64(150, 48));
    }

    #[test]
    fn dsp48e2_pre_subtract_and_logic_modes() {
        let prog = dsp48e2_semantics();
        // Pre-subtract: INMODE[3] = 1 -> (D - A) * B = (7 - 3) * 5 = 20 with Z = 0.
        let mut e = dsp_env(3, 5, 0, 7);
        e.set_constant("INMODE", BitVec::from_u64(1 << 3, 5));
        e.set_constant("OPMODE", BitVec::from_u64(0b0_000_00_01, 9));
        assert_eq!(prog.interp(&e, 0).unwrap(), BitVec::from_u64(20, 48));

        // Logic mode: X = M, Z = C, ALUMODE = 0b0100 -> M & C.
        let mut e = dsp_env(3, 5, 0b1100, 7);
        e.set_constant("ALUMODE", BitVec::from_u64(0b0100, 4));
        e.set_constant("OPMODE", BitVec::from_u64(0b0_011_00_01, 9));
        let m = (7 + 3) * 5; // 50 = 0b110010
        assert_eq!(prog.interp(&e, 0).unwrap(), BitVec::from_u64(m & 0b1100, 48));
    }

    #[test]
    fn dsp48e2_subtract_alu_mode() {
        let prog = dsp48e2_semantics();
        // ALUMODE = 0b0011: Z - (X + Y + CIN) = C - (D + A) * B = 100 - 50 = 50.
        let mut e = dsp_env(3, 5, 100, 7);
        e.set_constant("ALUMODE", BitVec::from_u64(0b0011, 4));
        assert_eq!(prog.interp(&e, 0).unwrap(), BitVec::from_u64(50, 48));
        // ALUMODE = 0b0001 with CARRYIN = 1: (X + Y + CIN) - Z - 1 = 50 - 100 = -50.
        let mut e = dsp_env(3, 5, 100, 7);
        e.set_constant("ALUMODE", BitVec::from_u64(0b0001, 4));
        e.set_constant("CARRYIN", BitVec::from_u64(1, 1));
        assert_eq!(prog.interp(&e, 0).unwrap(), BitVec::from_i64(-50, 48));
    }

    #[test]
    fn dsp48e2_pipeline_registers_delay_the_result() {
        let prog = dsp48e2_semantics();
        let mut e = dsp_env(3, 5, 100, 7);
        e.set_constant("MREG", BitVec::from_u64(1, 1));
        e.set_constant("PREG", BitVec::from_u64(1, 1));
        // Two pipeline stages: registers start at zero, C+0 appears after one cycle,
        // and the steady-state value appears at cycle 2.
        assert_eq!(prog.interp(&e, 0).unwrap(), BitVec::zeros(48));
        assert_eq!(prog.interp(&e, 1).unwrap(), BitVec::from_u64(100, 48));
        assert_eq!(prog.interp(&e, 2).unwrap(), BitVec::from_u64(150, 48));
    }

    #[test]
    fn ecp5_dsp_modes() {
        let prog = ecp5_dsp_semantics();
        assert!(prog.well_formed().is_ok());
        let base = [
            ("A", 6u64, 18u32),
            ("B", 7, 18),
            ("C", 100, 54),
            ("REG_INPUT", 0, 1),
            ("REG_C", 0, 1),
            ("REG_PIPE", 0, 1),
            ("REG_OUTPUT", 0, 1),
        ];
        for (op, expect) in [
            (0u64, 42u64),
            (1, 142),
            (2, (42u64.wrapping_sub(100)) & ((1 << 54) - 1)),
            (3, 58),
            (4, 42 & 100),
            (5, 42 | 100),
            (6, 42 ^ 100),
        ] {
            let mut e = env(&base);
            e.set_constant("ALU_OP", BitVec::from_u64(op, 3));
            assert_eq!(prog.interp(&e, 0).unwrap(), BitVec::from_u64(expect, 54), "op {op}");
        }
    }

    #[test]
    fn ecp5_dsp_registers_delay() {
        let prog = ecp5_dsp_semantics();
        let mut e = env(&[
            ("A", 6, 18),
            ("B", 7, 18),
            ("C", 0, 54),
            ("REG_INPUT", 1, 1),
            ("REG_C", 0, 1),
            ("REG_PIPE", 0, 1),
            ("REG_OUTPUT", 1, 1),
            ("ALU_OP", 0, 3),
        ]);
        assert_eq!(prog.interp(&e, 0).unwrap(), BitVec::zeros(54));
        assert_eq!(prog.interp(&e, 2).unwrap(), BitVec::from_u64(42, 54));
        e.set_constant("REG_INPUT", BitVec::from_u64(0, 1));
        assert_eq!(prog.interp(&e, 1).unwrap(), BitVec::from_u64(42, 54));
    }

    #[test]
    fn extracted_primitives_are_available() {
        assert!(cyclone10_mac_mult_semantics().well_formed().is_ok());
        assert!(frac_lut4_semantics().well_formed().is_ok());
        assert!(carry8_semantics().well_formed().is_ok());
        for n in [2, 4, 6] {
            let lut = lut_semantics(n);
            assert!(lut.well_formed().is_ok(), "LUT{n}");
        }
    }

    #[test]
    #[should_panic]
    fn unknown_lut_size_panics() {
        lut_semantics(5);
    }
}
