//! Primitive semantics, extracted from mini-HDL models.
//!
//! Every primitive an architecture description names — the DSPs, LUTs and carry
//! chains alike — gets its semantics one way: [`semantics`] finds the module's
//! mini-HDL model in `lr_hdl::models` and runs semantics extraction on it, as
//! the paper extracts vendor simulation models (§4.4). The result is a
//! behavioral [`Prog`] whose free variables are the primitive's ports *and*
//! configuration parameters; the architecture description decides which of
//! those become data connections and which become holes. A new module therefore
//! needs a model and no Rust.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use lr_ir::Prog;

/// The semantics of the primitive module named `module` in an architecture
/// description, extracted from its built-in model, or `None` if no model of that
/// module exists.
///
/// The first call extracts every built-in model, once for the process, so a
/// sketch that instantiates a primitive reads its program instead of parsing
/// and elaborating the model again.
///
/// # Panics
/// Panics if a built-in model fails to extract, which its tests rule out.
pub fn semantics(module: &str) -> Option<&'static Prog> {
    static EXTRACTED: OnceLock<BTreeMap<&str, Prog>> = OnceLock::new();
    let extracted = EXTRACTED.get_or_init(|| {
        let extract = |model: &lr_hdl::BuiltinModel| {
            lr_hdl::extract_semantics(model.source)
                .unwrap_or_else(|e| panic!("built-in `{}` model fails to extract: {e}", model.name))
        };
        lr_hdl::builtin_models().iter().map(|model| (model.name, extract(model))).collect()
    });
    extracted.get(module)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_bv::BitVec;
    use lr_ir::StreamInputs;
    use std::collections::BTreeSet;

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
        let prog = semantics("DSP48E2").unwrap();
        assert!(prog.well_formed().is_ok());
        assert_eq!(prog.width(prog.root()), 48);
        assert_eq!(prog.free_vars().len(), 16);
    }

    #[test]
    fn dsp48e2_computes_pre_add_multiply_accumulate() {
        let prog = semantics("DSP48E2").unwrap();
        // P = C + (D + A) * B = 100 + (7 + 3) * 5 = 150.
        let e = dsp_env(3, 5, 100, 7);
        assert_eq!(prog.interp(&e, 0).unwrap(), BitVec::from_u64(150, 48));
    }

    #[test]
    fn dsp48e2_pre_subtract_and_logic_modes() {
        let prog = semantics("DSP48E2").unwrap();
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
        let prog = semantics("DSP48E2").unwrap();
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
        let prog = semantics("DSP48E2").unwrap();
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
        let prog = semantics("MULT18X18C_ALU54A").unwrap();
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
        let prog = semantics("MULT18X18C_ALU54A").unwrap();
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
    fn described_modules_are_exactly_the_builtin_models() {
        let archs = crate::Architecture::all();
        let described: BTreeSet<&str> = archs.iter().flat_map(|arch| arch.modules()).collect();
        let models: BTreeSet<&str> =
            lr_hdl::builtin_models().iter().map(|model| model.name).collect();
        assert_eq!(described, models);
        assert_eq!(models.len(), 9);
        for module in described {
            let prog = semantics(module).unwrap_or_else(|| panic!("`{module}` has no semantics"));
            assert!(prog.well_formed().is_ok(), "{module}: {:?}", prog.well_formed());
        }
        assert!(semantics("LUT5").is_none());
    }
}
