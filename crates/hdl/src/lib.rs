//! # lr-hdl: mini-Verilog frontend, semantics extraction, and structural emission
//!
//! The original Lakeroad leans on Yosys for three translations (paper §4.4–4.5):
//!
//! 1. behavioral Verilog designs → the solver-facing IR (ℒbeh),
//! 2. vendor-provided Verilog primitive models → solver-ready semantics
//!    ("semantics extraction from HDL"),
//! 3. the synthesized structural program → structural Verilog.
//!
//! This crate provides all three for a behavioral Verilog *subset* (the mini-HDL):
//! modules with `input`/`output`/`reg`/`wire`/`parameter` declarations, continuous
//! `assign`s, and `always @(posedge clk)` blocks of non-blocking assignments, over
//! expressions built from the usual bitvector operators.
//!
//! * [`parse_module`] / [`elaborate`] implement (1);
//! * [`extract_semantics`] implements (2) — following §4.4, module **parameters are
//!   converted to input ports** during extraction so they remain solvable symbols;
//! * [`emit_verilog`] implements (3).
//!
//! ```
//! let src = r#"
//! module add_one(input clk, input [7:0] a, output [7:0] out);
//!   assign out = a + 8'd1;
//! endmodule
//! "#;
//! let design = lr_hdl::parse_and_elaborate(src).unwrap();
//! assert_eq!(design.name(), "add_one");
//! assert!(design.is_behavioral());
//! ```
//!
//! ## Subset width semantics
//!
//! Expression widths are computed **bottom-up**; the assignment target's width
//! is never threaded into subexpressions (full Verilog's context-determined
//! sizing is deliberately out of scope). The rules:
//!
//! * binary arithmetic/bitwise operators zero-extend both operands to the
//!   larger operand width, which is also the result width;
//! * shifts (`<<`, `>>`, and the arithmetic spellings `<<<`, `>>>`) have a
//!   self-determined amount and a result of the **left** operand's width;
//!   shifting by ≥ the operand width yields zero. All subset values are
//!   unsigned, so `>>>` behaves exactly like `>>`;
//! * comparisons, logical operators, and reductions produce 1 bit;
//! * sized literals are capped at 64 bits and must fit their stated width
//!   (`4'hFFF` is a parse error, not a silent truncation);
//! * the final value of an `assign`/non-blocking RHS is zero-extended or
//!   truncated to the destination width.
//!
//! The [`fuzz`] module turns these guarantees into an executable oracle: a
//! seeded generator covering the whole grammar plus a differential round-trip
//! check (`parse → elaborate → emit_verilog → re-parse → re-elaborate` must
//! preserve interpretation).

mod ast;
mod elaborate;
mod emit;
pub mod fuzz;
mod lexer;
pub mod models;
mod parser;

pub use ast::{Expr, ModuleAst, PortDir, Statement};
pub use elaborate::{elaborate, extract_semantics, parse_and_elaborate, ElaborateError};
pub use emit::emit_verilog;
pub use fuzz::{check_seed, generate_module, FuzzOutcome};
pub use models::{builtin_model, builtin_models, BuiltinModel};
pub use parser::{parse_module, ParseError};

/// Counts the source lines of code of an HDL snippet, skipping blank lines and
/// comment-only lines. Used by the Table 1 / extensibility experiments.
pub fn count_sloc(text: &str) -> usize {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//") && !l.starts_with('#'))
        .count()
}

#[cfg(test)]
mod tests {
    #[test]
    fn sloc_counting_skips_blanks_and_comments() {
        let text = "// header\n\nmodule m;\n  // body comment\n  wire x;\nendmodule\n";
        assert_eq!(super::count_sloc(text), 3);
    }
}
