//! Elaboration of parsed mini-HDL modules into ℒbeh programs, including the
//! "semantics extraction from HDL" entry point (§4.4).

use std::collections::HashMap;
use std::fmt;

use lr_bv::BitVec;
use lr_ir::{BvOp, NodeId, Prog, ProgBuilder};

use crate::ast::{BinaryOp, Expr, ModuleAst, PortDir, SignalDecl, Statement, UnaryOp};
use crate::parser::{parse_module, ParseError};

/// An error produced during elaboration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElaborateError {
    /// The module has no data output.
    NoOutput,
    /// The module's output is never assigned.
    OutputNeverAssigned(String),
    /// A signal is referenced before any driver for it has been elaborated.
    UseBeforeDefinition(String),
    /// A signal is referenced but never declared.
    UndeclaredSignal(String),
    /// A name is declared more than once (as ports, wires, registers or
    /// parameters, in any combination), which Verilog forbids.
    Redeclared(String),
    /// A part-select `[hi:lo]` or bit-select `[hi]` (then `lo == hi`) whose
    /// bounds are reversed or reach past the `width` bits of the selected
    /// expression.
    SelectOutOfRange {
        /// The select's upper bound.
        hi: u32,
        /// The select's lower bound.
        lo: u32,
        /// The width of the selected expression.
        width: u32,
    },
    /// A syntax error from the parser (for [`parse_and_elaborate`]).
    Parse(String),
}

impl fmt::Display for ElaborateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElaborateError::NoOutput => write!(f, "module has no output port"),
            ElaborateError::OutputNeverAssigned(s) => write!(f, "output `{s}` is never assigned"),
            ElaborateError::UseBeforeDefinition(s) => {
                write!(f, "signal `{s}` is used before it is driven")
            }
            ElaborateError::UndeclaredSignal(s) => write!(f, "signal `{s}` is not declared"),
            ElaborateError::Redeclared(s) => write!(f, "signal `{s}` is declared more than once"),
            ElaborateError::SelectOutOfRange { hi, lo, width } => {
                write!(f, "select [{hi}:{lo}] is out of range for a value of width {width}")
            }
            ElaborateError::Parse(s) => write!(f, "{s}"),
        }
    }
}

impl std::error::Error for ElaborateError {}

impl From<ParseError> for ElaborateError {
    fn from(e: ParseError) -> Self {
        ElaborateError::Parse(e.to_string())
    }
}

/// Parses and elaborates a behavioral design (parameters keep their default values).
///
/// # Errors
/// Returns an error if parsing or elaboration fails.
pub fn parse_and_elaborate(src: &str) -> Result<Prog, ElaborateError> {
    let mut sp = lr_trace::span("elaborate");
    sp.attr("source_bytes", src.len() as u64);
    let ast = {
        let _parse = lr_trace::span("hdl-parse");
        parse_module(src)?
    };
    let _elab = lr_trace::span("hdl-elaborate");
    elaborate(&ast, false)
}

/// Semantics extraction from HDL (§4.4): parses a vendor-style primitive model and
/// elaborates it with **parameters converted to input ports**, so that parameters
/// remain symbols the synthesis engine can solve for.
///
/// # Errors
/// Returns an error if parsing or elaboration fails.
pub fn extract_semantics(src: &str) -> Result<Prog, ElaborateError> {
    let ast = parse_module(src)?;
    elaborate(&ast, true)
}

/// Elaborates a parsed module into an ℒbeh program rooted at its (single) output.
///
/// When `params_as_inputs` is true, `parameter` declarations become free variables of
/// the program (the extraction behaviour); otherwise their default values are used as
/// constants.
///
/// # Errors
/// Returns an error if the module has no output, a name is declared twice, a
/// signal is undeclared, a combinational signal is used before it is driven,
/// or a constant select is reversed or out of range.
pub fn elaborate(ast: &ModuleAst, params_as_inputs: bool) -> Result<Prog, ElaborateError> {
    let output_name = ast.outputs.first().cloned().ok_or(ElaborateError::NoOutput)?;
    let decls = declarations(ast)?;
    let declared_width = |name: &String| {
        decls
            .get(name.as_str())
            .map(|s| s.width)
            .ok_or_else(|| ElaborateError::UndeclaredSignal(name.clone()))
    };
    let mut b = ProgBuilder::new(&ast.name);
    let mut env: HashMap<String, NodeId> = HashMap::new();

    // Inputs (excluding the clock, which is implicit in the IR's register semantics).
    for sig in &ast.signals {
        if sig.dir == Some(PortDir::Input) && sig.name != "clk" {
            let id = b.input(&sig.name, sig.width);
            env.insert(sig.name.clone(), id);
        }
    }
    // Parameters: symbolic inputs when extracting, constants otherwise.
    for sig in &ast.signals {
        if sig.is_parameter {
            let id = if params_as_inputs {
                b.input(&sig.name, sig.width)
            } else {
                b.constant(sig.default.clone().unwrap_or_else(|| BitVec::zeros(sig.width)))
            };
            env.insert(sig.name.clone(), id);
        }
    }
    // Registers driven by non-blocking assignments get placeholders up front, so they
    // can be referenced before (or within) the statements that drive them.
    for stmt in &ast.statements {
        if let Statement::NonBlocking { lhs, .. } = stmt {
            let width = declared_width(lhs)?;
            env.entry(lhs.clone()).or_insert_with(|| b.reg_placeholder(width));
        }
    }
    // Elaborate statements in source order.
    for stmt in &ast.statements {
        match stmt {
            Statement::Assign { lhs, rhs } => {
                let width = declared_width(lhs)?;
                let value = lower_expr(&mut b, &env, &decls, rhs)?;
                let value = resize(&mut b, value, width);
                env.insert(lhs.clone(), value);
            }
            Statement::NonBlocking { lhs, rhs } => {
                // The placeholder loop above already rejected undeclared lhs names.
                let width = declared_width(lhs)?;
                let value = lower_expr(&mut b, &env, &decls, rhs)?;
                let value = resize(&mut b, value, width);
                let reg = env[lhs];
                b.set_reg_data(reg, value);
            }
        }
    }
    let root =
        *env.get(&output_name).ok_or(ElaborateError::OutputNeverAssigned(output_name.clone()))?;
    Ok(b.finish(root))
}

/// The module's declarations by name, built once so that every lookup during
/// elaboration is constant time.
///
/// # Errors
/// Returns [`ElaborateError::Redeclared`] for the first name declared twice.
fn declarations(ast: &ModuleAst) -> Result<HashMap<&str, &SignalDecl>, ElaborateError> {
    let mut decls = HashMap::with_capacity(ast.signals.len());
    for sig in &ast.signals {
        if decls.insert(sig.name.as_str(), sig).is_some() {
            return Err(ElaborateError::Redeclared(sig.name.clone()));
        }
    }
    Ok(decls)
}

fn resize(b: &mut ProgBuilder, id: NodeId, width: u32) -> NodeId {
    let current = b.width_of(id);
    if current == width {
        id
    } else if current < width {
        b.zext(id, width)
    } else {
        b.extract(id, width - 1, 0)
    }
}

/// Bits `hi` down to `lo` of `x`, checked against `x`'s width.
fn select(b: &mut ProgBuilder, x: NodeId, hi: u32, lo: u32) -> Result<NodeId, ElaborateError> {
    let width = b.width_of(x);
    if lo > hi || hi >= width {
        return Err(ElaborateError::SelectOutOfRange { hi, lo, width });
    }
    Ok(b.extract(x, hi, lo))
}

fn lower_expr(
    b: &mut ProgBuilder,
    env: &HashMap<String, NodeId>,
    decls: &HashMap<&str, &SignalDecl>,
    expr: &Expr,
) -> Result<NodeId, ElaborateError> {
    match expr {
        Expr::Literal(bv) => Ok(b.constant(bv.clone())),
        Expr::Ident(name) => {
            if let Some(&id) = env.get(name) {
                Ok(id)
            } else if decls.contains_key(name.as_str()) {
                Err(ElaborateError::UseBeforeDefinition(name.clone()))
            } else {
                Err(ElaborateError::UndeclaredSignal(name.clone()))
            }
        }
        Expr::Unary(op, inner) => {
            let x = lower_expr(b, env, decls, inner)?;
            Ok(match op {
                UnaryOp::Not => b.op1(BvOp::Not, x),
                UnaryOp::Neg => b.op1(BvOp::Neg, x),
                UnaryOp::RedAnd => b.op1(BvOp::RedAnd, x),
                UnaryOp::RedOr => b.op1(BvOp::RedOr, x),
                UnaryOp::RedXor => b.op1(BvOp::RedXor, x),
                UnaryOp::LogicalNot => {
                    let any = b.op1(BvOp::RedOr, x);
                    b.op1(BvOp::Not, any)
                }
            })
        }
        Expr::Binary(op, lhs, rhs) => {
            let mut x = lower_expr(b, env, decls, lhs)?;
            let mut y = lower_expr(b, env, decls, rhs)?;
            // Widen both operands to the larger width (Verilog's context rule,
            // restricted to our subset: widths are computed bottom-up, without
            // threading the assignment target's width into subexpressions).
            let wx = b.width_of(x);
            let wy = b.width_of(y);
            let w = wx.max(wy);
            // Shifts: the amount is self-determined and the result keeps the
            // *left* operand's width. The IR ops need equal-width arguments, so
            // widen both to the common width, shift there, and narrow the result
            // back to `wx` below. Widening (rather than truncating the amount)
            // is what makes shift-by-≥-width correctly yield zero even when the
            // amount is wider than the shifted operand.
            x = resize(b, x, w);
            y = resize(b, y, w);
            let shift_result = |b: &mut ProgBuilder, id: NodeId| {
                if w > wx {
                    b.extract(id, wx - 1, 0)
                } else {
                    id
                }
            };
            Ok(match op {
                BinaryOp::Add => b.op2(BvOp::Add, x, y),
                BinaryOp::Sub => b.op2(BvOp::Sub, x, y),
                BinaryOp::Mul => b.op2(BvOp::Mul, x, y),
                BinaryOp::And => b.op2(BvOp::And, x, y),
                BinaryOp::Or => b.op2(BvOp::Or, x, y),
                BinaryOp::Xor => b.op2(BvOp::Xor, x, y),
                BinaryOp::Shl => {
                    let s = b.op2(BvOp::Shl, x, y);
                    shift_result(b, s)
                }
                BinaryOp::Shr => {
                    let s = b.op2(BvOp::Lshr, x, y);
                    shift_result(b, s)
                }
                BinaryOp::Eq => b.op2(BvOp::Eq, x, y),
                BinaryOp::Ne => {
                    let e = b.op2(BvOp::Eq, x, y);
                    b.op1(BvOp::Not, e)
                }
                BinaryOp::Lt => b.op2(BvOp::Ult, x, y),
                BinaryOp::Le => b.op2(BvOp::Ule, x, y),
                BinaryOp::Gt => b.op2(BvOp::Ult, y, x),
                BinaryOp::Ge => b.op2(BvOp::Ule, y, x),
                BinaryOp::LogicalAnd => {
                    let xa = b.op1(BvOp::RedOr, x);
                    let ya = b.op1(BvOp::RedOr, y);
                    b.op2(BvOp::And, xa, ya)
                }
                BinaryOp::LogicalOr => {
                    let xa = b.op1(BvOp::RedOr, x);
                    let ya = b.op1(BvOp::RedOr, y);
                    b.op2(BvOp::Or, xa, ya)
                }
            })
        }
        Expr::Ternary(cond, then_, else_) => {
            let c = lower_expr(b, env, decls, cond)?;
            let c1 = if b.width_of(c) == 1 { c } else { b.op1(BvOp::RedOr, c) };
            let mut t = lower_expr(b, env, decls, then_)?;
            let mut e = lower_expr(b, env, decls, else_)?;
            let w = b.width_of(t).max(b.width_of(e));
            t = resize(b, t, w);
            e = resize(b, e, w);
            Ok(b.mux(c1, t, e))
        }
        Expr::Concat(parts) => {
            let mut ids: Vec<NodeId> = Vec::new();
            for p in parts {
                ids.push(lower_expr(b, env, decls, p)?);
            }
            // {a, b, c}: a is most significant. Fold left with Concat(high, low).
            let mut acc = *ids.last().expect("concat is non-empty");
            for &hi in ids.iter().rev().skip(1) {
                acc = b.op2(BvOp::Concat, hi, acc);
            }
            Ok(acc)
        }
        Expr::PartSelect(inner, hi, lo) => {
            let x = lower_expr(b, env, decls, inner)?;
            select(b, x, *hi, *lo)
        }
        Expr::BitSelect(inner, idx) => {
            let x = lower_expr(b, env, decls, inner)?;
            select(b, x, *idx, *idx)
        }
        Expr::DynBitSelect(inner, index) => {
            // x[i] with a non-constant index lowers to (x >> i)[0].
            let x = lower_expr(b, env, decls, inner)?;
            let i = lower_expr(b, env, decls, index)?;
            let w = b.width_of(x);
            let i = resize(b, i, w);
            let shifted = b.op2(BvOp::Lshr, x, i);
            Ok(b.extract(shifted, 0, 0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_ir::StreamInputs;

    fn inputs(pairs: &[(&str, u64, u32)]) -> StreamInputs {
        StreamInputs::from_constants(
            pairs.iter().map(|&(n, v, w)| (n.to_string(), BitVec::from_u64(v, w))),
        )
    }

    const ADD_MUL_AND: &str = r#"
module add_mul_and(input clk, input [15:0] a, b, c, d,
                   output reg [15:0] out);
  reg [15:0] r;
  always @(posedge clk) begin
    r <= (a+b)*c&d;
    out <= r;
  end
endmodule
"#;

    #[test]
    fn elaborates_the_running_example() {
        let prog = parse_and_elaborate(ADD_MUL_AND).unwrap();
        assert_eq!(prog.name(), "add_mul_and");
        assert!(prog.is_behavioral());
        assert!(prog.well_formed().is_ok());
        assert_eq!(prog.width(prog.root()), 16);
        // Two pipeline stages: result appears at cycle 2.
        let env = inputs(&[("a", 3, 16), ("b", 5, 16), ("c", 7, 16), ("d", 0xFF, 16)]);
        assert_eq!(prog.interp(&env, 2).unwrap(), BitVec::from_u64(((3 + 5) * 7) & 0xFF, 16));
        assert_eq!(prog.interp(&env, 0).unwrap(), BitVec::zeros(16));
    }

    #[test]
    fn elaborates_combinational_assign() {
        let prog = parse_and_elaborate(
            "module f(input [7:0] a, b, output [7:0] y); assign y = (a ^ b) | 8'h0f; endmodule",
        )
        .unwrap();
        let env = inputs(&[("a", 0x30, 8), ("b", 0x41, 8)]);
        assert_eq!(prog.interp(&env, 0).unwrap(), BitVec::from_u64((0x30 ^ 0x41) | 0x0F, 8));
    }

    #[test]
    fn parameters_become_constants_or_inputs() {
        let src = r#"
module lut2(input [1:0] in, output out);
  parameter [3:0] INIT = 4'h8;
  assign out = INIT[in];
endmodule
"#;
        // Design mode: INIT = 8 = 0b1000, so out = 1 only when in = 3.
        let design = parse_and_elaborate(src).unwrap();
        assert_eq!(design.free_vars().len(), 1);
        let env = inputs(&[("in", 3, 2)]);
        assert_eq!(design.interp(&env, 0).unwrap(), BitVec::from_bool(true));
        let env = inputs(&[("in", 1, 2)]);
        assert_eq!(design.interp(&env, 0).unwrap(), BitVec::from_bool(false));

        // Extraction mode: INIT becomes a free input (a solvable symbol).
        let extracted = extract_semantics(src).unwrap();
        let names: Vec<String> = extracted.free_vars().into_iter().map(|(n, _)| n).collect();
        assert!(names.contains(&"INIT".to_string()));
        let env = inputs(&[("in", 2, 2), ("INIT", 0b0100, 4)]);
        assert_eq!(extracted.interp(&env, 0).unwrap(), BitVec::from_bool(true));
    }

    #[test]
    fn width_mismatches_are_resolved_like_verilog() {
        // 8-bit + 32-bit literal truncates back to the 8-bit output.
        let prog = parse_and_elaborate(
            "module f(input [7:0] a, output [7:0] y); assign y = a + 300; endmodule",
        )
        .unwrap();
        let env = inputs(&[("a", 10, 8)]);
        assert_eq!(prog.interp(&env, 0).unwrap(), BitVec::from_u64((10 + 300) & 0xFF, 8));
    }

    #[test]
    fn self_feedback_counter() {
        let prog = parse_and_elaborate(
            "module counter(input clk, output reg [7:0] out); always @(posedge clk) out <= out + 8'd1; endmodule",
        )
        .unwrap();
        let env = StreamInputs::new();
        assert_eq!(prog.interp(&env, 5).unwrap(), BitVec::from_u64(5, 8));
    }

    #[test]
    fn errors_are_reported() {
        assert!(matches!(
            parse_and_elaborate("module m(input a); assign b = a; endmodule"),
            Err(ElaborateError::NoOutput)
        ));
        assert!(matches!(
            parse_and_elaborate("module m(input a, output y); assign y = zz; endmodule"),
            Err(ElaborateError::UndeclaredSignal(_))
        ));
        assert!(matches!(
            parse_and_elaborate("module m(input a, output y); endmodule"),
            Err(ElaborateError::OutputNeverAssigned(_))
        ));
        assert!(matches!(
            parse_and_elaborate(
                "module m(input a, output y); wire w; assign y = w; assign w = a; endmodule"
            ),
            Err(ElaborateError::UseBeforeDefinition(_))
        ));
        assert!(matches!(
            parse_and_elaborate("module m(input a output y);"),
            Err(ElaborateError::Parse(_))
        ));
    }

    #[test]
    fn a_name_declared_twice_is_rejected() {
        // Two ports of different widths under one name, and an input declared
        // again in the body: Verilog forbids both.
        for src in [
            "module m(input clk, input [7:0] a, input [3:0] a, output [7:0] out); \
             assign out = a * a; endmodule",
            "module m(input [7:0] a, output [7:0] out); wire [3:0] a; assign out = a; endmodule",
        ] {
            assert_eq!(
                parse_and_elaborate(src),
                Err(ElaborateError::Redeclared("a".to_string())),
                "{src}"
            );
        }
    }

    #[test]
    fn out_of_range_selects_are_rejected() {
        // `a` is 8 bits wide and `{a, a}` 16: selects past the width and
        // reversed part-selects are typed errors, not panics or wrapped widths.
        let elab = |expr: &str| {
            parse_and_elaborate(&format!(
                "module m(input [7:0] a, output [3:0] out); assign out = {expr}; endmodule"
            ))
        };
        for (expr, hi, lo, width) in [
            ("a[12:9]", 12, 9, 8),
            ("a[9]", 9, 9, 8),
            ("a[8]", 8, 8, 8),
            ("a[1:3]", 1, 3, 8),
            ("{a, a}[16:13]", 16, 13, 16),
        ] {
            assert_eq!(
                elab(expr),
                Err(ElaborateError::SelectOutOfRange { hi, lo, width }),
                "{expr}"
            );
        }
        for expr in ["a[7:4]", "a[7]", "a[0]", "{a, a}[15:12]"] {
            assert!(elab(expr).is_ok(), "{expr}");
        }
    }

    #[test]
    fn resize_width_can_depend_on_a_signal_chain() {
        // Regression: `resize`'s width query used to clone the whole builder and
        // finish() it per call (quadratic, and wrong-footed by its unused
        // env/ast parameters). This design forces width computation through a
        // register placeholder feedback path plus a wire chain, exactly the
        // shape the old helper handled by accident.
        let prog = parse_and_elaborate(
            "module fb(input clk, input [3:0] a, output reg [7:0] out);
               wire [5:0] w;
               assign w = a + out[3:0];
               always @(posedge clk) out <= w;
             endmodule",
        )
        .unwrap();
        assert_eq!(prog.width(prog.root()), 8);
        let env = inputs(&[("a", 3, 4)]);
        // out: 0, 3, 6 (w = a + out[3:0], registered).
        assert_eq!(prog.interp(&env, 0).unwrap(), BitVec::zeros(8));
        assert_eq!(prog.interp(&env, 1).unwrap(), BitVec::from_u64(3, 8));
        assert_eq!(prog.interp(&env, 2).unwrap(), BitVec::from_u64(6, 8));
    }

    #[test]
    fn shift_results_keep_the_left_operand_width() {
        // Subset rule (matching Verilog): the amount is self-determined and the
        // result has the *left* operand's width. The old lowering widened the
        // result to max(wx, wy), so `a << b` with a wide amount leaked bits
        // that should have been shifted out of a 4-bit lane.
        let prog = parse_and_elaborate(
            "module m(input [3:0] a, input [7:0] b, output [7:0] y); assign y = a << b; endmodule",
        )
        .unwrap();
        let env = inputs(&[("a", 0b1001, 4), ("b", 1, 8)]);
        // (4'b1001 << 1) = 4'b0010, then zero-extended to the 8-bit output.
        // The buggy widening gave 8'b0001_0010 = 18.
        assert_eq!(prog.interp(&env, 0).unwrap(), BitVec::from_u64(0b0010, 8));
    }

    #[test]
    fn shift_by_width_or_more_yields_zero() {
        let prog = parse_and_elaborate(
            "module m(input [3:0] a, input [7:0] b, output [3:0] y); assign y = a >> b; endmodule",
        )
        .unwrap();
        for amount in [4u64, 5, 63, 200] {
            let env = inputs(&[("a", 0b1111, 4), ("b", amount, 8)]);
            assert_eq!(
                prog.interp(&env, 0).unwrap(),
                BitVec::zeros(4),
                "a >> {amount} must be zero for a 4-bit a"
            );
        }
        let prog = parse_and_elaborate(
            "module m(input [3:0] a, input [7:0] b, output [3:0] y); assign y = a << b; endmodule",
        )
        .unwrap();
        let env = inputs(&[("a", 0b1111, 4), ("b", 4, 8)]);
        assert_eq!(prog.interp(&env, 0).unwrap(), BitVec::zeros(4));
    }

    #[test]
    fn arithmetic_shift_equals_logical_shift_on_the_unsigned_subset() {
        // All subset values are unsigned, so `>>>` and `>>` must agree (and
        // `<<<`/`<<` trivially so). Before the lexer fix, `a >>> b` tokenized
        // as `>>` `>` and died with an opaque parse error.
        let logical = parse_and_elaborate(
            "module m(input [7:0] a, b, output [7:0] y); assign y = a >> b; endmodule",
        )
        .unwrap();
        let arith = parse_and_elaborate(
            "module m(input [7:0] a, b, output [7:0] y); assign y = a >>> b; endmodule",
        )
        .unwrap();
        for (a, bv) in [(0x80u64, 1u64), (0xFF, 3), (0x01, 0), (0xAA, 9)] {
            let env = inputs(&[("a", a, 8), ("b", bv, 8)]);
            assert_eq!(
                logical.interp(&env, 0).unwrap(),
                arith.interp(&env, 0).unwrap(),
                "{a:#x} >>> {bv}"
            );
        }
    }

    #[test]
    fn ternary_and_comparisons() {
        let prog = parse_and_elaborate(
            "module max(input [7:0] a, b, output [7:0] y); assign y = a < b ? b : a; endmodule",
        )
        .unwrap();
        let env = inputs(&[("a", 9, 8), ("b", 200, 8)]);
        assert_eq!(prog.interp(&env, 0).unwrap(), BitVec::from_u64(200, 8));
        let env = inputs(&[("a", 250, 8), ("b", 200, 8)]);
        assert_eq!(prog.interp(&env, 0).unwrap(), BitVec::from_u64(250, 8));
    }
}
