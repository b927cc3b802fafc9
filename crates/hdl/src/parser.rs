//! Recursive-descent parser for the mini-HDL.

use std::fmt;

use lr_bv::BitVec;

use crate::ast::{BinaryOp, Expr, ModuleAst, PortDir, SignalDecl, Statement, UnaryOp};
use crate::lexer::{tokenize, Token};

/// A parse error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    message: String,
}

impl ParseError {
    fn new(message: impl Into<String>) -> Self {
        ParseError { message: message.into() }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

/// The widest sized literal the subset accepts, matching the widest signal the
/// fuzz generator emits and the 64-bit fast paths throughout `lr-bv` consumers.
const MAX_LITERAL_WIDTH: u32 = 64;

/// Parses a sized literal with subset hardening on top of
/// [`BitVec::parse_verilog`]: the stated width must be `1..=64`, and the
/// digits' value must fit the stated width. `BitVec::parse_verilog` alone
/// accumulates into a width-sized vector, so `4'hFFF` would silently truncate
/// to `4'hf`; here it is a parse error instead.
fn parse_sized_literal(text: &str) -> Result<BitVec, ParseError> {
    let cleaned: String = text.trim().replace('_', "");
    let tick = cleaned
        .find('\'')
        .ok_or_else(|| ParseError::new(format!("missing ' in literal `{text}`")))?;
    let width: u32 = cleaned[..tick]
        .parse()
        .map_err(|_| ParseError::new(format!("bad width in literal `{text}`")))?;
    if width == 0 {
        return Err(ParseError::new(format!("literal `{text}` has zero width")));
    }
    if width > MAX_LITERAL_WIDTH {
        return Err(ParseError::new(format!(
            "literal `{text}` is {width} bits wide; sized literals are capped at \
             {MAX_LITERAL_WIDTH} bits in this subset"
        )));
    }
    let rest = &cleaned[tick + 1..];
    let base = rest
        .chars()
        .next()
        .ok_or_else(|| ParseError::new(format!("missing base in literal `{text}`")))?;
    let digits = &rest[base.len_utf8()..];
    if digits.len() > 256 {
        return Err(ParseError::new(format!("literal `{text}` has too many digits")));
    }
    // Upper bound on the bits the digits can carry (10^n < 16^n for decimal);
    // parsing at this width makes overflow detectable instead of silent.
    let value_bits = match base.to_ascii_lowercase() {
        'h' | 'd' => 4 * digits.len() as u32,
        _ => digits.len() as u32, // 'b'; other bases are rejected below
    }
    .max(1);
    let wide = width.max(value_bits);
    let value = BitVec::parse_verilog(&format!("{wide}'{rest}"))
        .map_err(|e| ParseError::new(e.to_string()))?;
    if wide > width && !value.extract(wide - 1, width).is_zero() {
        return Err(ParseError::new(format!(
            "literal `{text}` overflows its stated {width}-bit width"
        )));
    }
    Ok(value.extract(width - 1, 0))
}

/// A constant select bound, which must fit in `u32`: a wider value is a parse
/// error, not a bound truncated into range.
fn select_index(bv: &BitVec) -> Result<u32, ParseError> {
    bv.to_u64()
        .and_then(|v| u32::try_from(v).ok())
        .ok_or_else(|| ParseError::new(format!("select index {bv} does not fit in 32 bits")))
}

/// Parses a single module from mini-HDL source text.
///
/// # Errors
/// Returns a [`ParseError`] describing the first syntax problem encountered.
pub fn parse_module(src: &str) -> Result<ModuleAst, ParseError> {
    let tokens = tokenize(src).map_err(ParseError::new)?;
    let mut parser = Parser { tokens, pos: 0 };
    parser.module()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_symbol(&mut self, sym: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Token::Symbol(s)) if s == sym => Ok(()),
            other => Err(ParseError::new(format!("expected `{sym}`, found {other:?}"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Token::Ident(s)) if s == kw => Ok(()),
            other => Err(ParseError::new(format!("expected `{kw}`, found {other:?}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(ParseError::new(format!("expected identifier, found {other:?}"))),
        }
    }

    fn at_symbol(&self, sym: &str) -> bool {
        matches!(self.peek(), Some(Token::Symbol(s)) if s == sym)
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s == kw)
    }

    fn eat_symbol(&mut self, sym: &str) -> bool {
        if self.at_symbol(sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn module(&mut self) -> Result<ModuleAst, ParseError> {
        self.expect_keyword("module")?;
        let name = self.expect_ident()?;
        let mut signals: Vec<SignalDecl> = Vec::new();
        let mut outputs: Vec<String> = Vec::new();
        self.expect_symbol("(")?;
        if !self.at_symbol(")") {
            self.port_list(&mut signals, &mut outputs)?;
        }
        self.expect_symbol(")")?;
        self.expect_symbol(";")?;

        let mut statements = Vec::new();
        loop {
            if self.eat_keyword("endmodule") {
                break;
            }
            if self.peek().is_none() {
                return Err(ParseError::new("unexpected end of input (missing endmodule)"));
            }
            if self.at_keyword("reg") || self.at_keyword("wire") {
                self.var_decl(&mut signals)?;
            } else if self.at_keyword("parameter") {
                self.parameter_decl(&mut signals)?;
            } else if self.at_keyword("assign") {
                self.pos += 1;
                let lhs = self.expect_ident()?;
                self.expect_symbol("=")?;
                let rhs = self.expr()?;
                self.expect_symbol(";")?;
                statements.push(Statement::Assign { lhs, rhs });
            } else if self.at_keyword("always") {
                self.always_block(&mut statements)?;
            } else {
                return Err(ParseError::new(format!("unexpected token {:?}", self.peek())));
            }
        }
        Ok(ModuleAst { name, signals, statements, outputs })
    }

    fn range(&mut self) -> Result<u32, ParseError> {
        // "[" hi ":" 0 "]" -> width hi + 1
        self.expect_symbol("[")?;
        let hi = self.const_number()?;
        self.expect_symbol(":")?;
        let lo = self.const_number()?;
        self.expect_symbol("]")?;
        if lo != 0 {
            return Err(ParseError::new("only [N:0] ranges are supported"));
        }
        hi.checked_add(1)
            .ok_or_else(|| ParseError::new(format!("range [{hi}:0] is too wide for 32 bits")))
    }

    fn const_number(&mut self) -> Result<u32, ParseError> {
        match self.next() {
            Some(Token::Number(n)) => Ok(n),
            other => Err(ParseError::new(format!("expected number, found {other:?}"))),
        }
    }

    fn port_list(
        &mut self,
        signals: &mut Vec<SignalDecl>,
        outputs: &mut Vec<String>,
    ) -> Result<(), ParseError> {
        let mut dir = PortDir::Input;
        let mut width = 1u32;
        let mut is_reg = false;
        loop {
            if self.eat_keyword("input") {
                dir = PortDir::Input;
                is_reg = false;
                width = 1;
            } else if self.eat_keyword("output") {
                dir = PortDir::Output;
                is_reg = false;
                width = 1;
            }
            if self.eat_keyword("reg") {
                is_reg = true;
            }
            if self.at_symbol("[") {
                width = self.range()?;
            }
            let name = self.expect_ident()?;
            signals.push(SignalDecl {
                name: name.clone(),
                width,
                dir: Some(dir),
                is_reg,
                is_parameter: false,
                default: None,
            });
            if dir == PortDir::Output {
                outputs.push(name);
            }
            if !self.eat_symbol(",") {
                break;
            }
        }
        Ok(())
    }

    fn var_decl(&mut self, signals: &mut Vec<SignalDecl>) -> Result<(), ParseError> {
        let is_reg = self.at_keyword("reg");
        self.pos += 1; // reg or wire
        let width = if self.at_symbol("[") { self.range()? } else { 1 };
        loop {
            let name = self.expect_ident()?;
            signals.push(SignalDecl {
                name,
                width,
                dir: None,
                is_reg,
                is_parameter: false,
                default: None,
            });
            if !self.eat_symbol(",") {
                break;
            }
        }
        self.expect_symbol(";")?;
        Ok(())
    }

    fn parameter_decl(&mut self, signals: &mut Vec<SignalDecl>) -> Result<(), ParseError> {
        self.expect_keyword("parameter")?;
        let width = if self.at_symbol("[") { self.range()? } else { 32 };
        let name = self.expect_ident()?;
        self.expect_symbol("=")?;
        let default = match self.next() {
            Some(Token::Number(n)) => BitVec::from_u64(n.into(), width),
            Some(Token::SizedLiteral(text)) => parse_sized_literal(&text)?.resize_zext(width),
            other => {
                return Err(ParseError::new(format!("expected parameter value, found {other:?}")))
            }
        };
        self.expect_symbol(";")?;
        signals.push(SignalDecl {
            name,
            width,
            dir: None,
            is_reg: false,
            is_parameter: true,
            default: Some(default),
        });
        Ok(())
    }

    fn always_block(&mut self, statements: &mut Vec<Statement>) -> Result<(), ParseError> {
        self.expect_keyword("always")?;
        self.expect_symbol("@")?;
        self.expect_symbol("(")?;
        self.expect_keyword("posedge")?;
        let _clk = self.expect_ident()?;
        self.expect_symbol(")")?;
        let block = self.eat_keyword("begin");
        loop {
            if block && self.eat_keyword("end") {
                break;
            }
            let lhs = self.expect_ident()?;
            self.expect_symbol("<=")?;
            let rhs = self.expr()?;
            self.expect_symbol(";")?;
            statements.push(Statement::NonBlocking { lhs, rhs });
            if !block {
                break;
            }
        }
        Ok(())
    }

    // ----- expressions, by descending precedence -----

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.ternary()
    }

    fn ternary(&mut self) -> Result<Expr, ParseError> {
        let cond = self.logical_or()?;
        if self.eat_symbol("?") {
            let then_ = self.expr()?;
            self.expect_symbol(":")?;
            let else_ = self.expr()?;
            Ok(Expr::Ternary(Box::new(cond), Box::new(then_), Box::new(else_)))
        } else {
            Ok(cond)
        }
    }

    fn logical_or(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.logical_and()?;
        while self.eat_symbol("||") {
            let rhs = self.logical_and()?;
            lhs = Expr::Binary(BinaryOp::LogicalOr, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn logical_and(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.bit_or()?;
        while self.eat_symbol("&&") {
            let rhs = self.bit_or()?;
            lhs = Expr::Binary(BinaryOp::LogicalAnd, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn bit_or(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.bit_xor()?;
        while self.at_symbol("|") {
            self.pos += 1;
            let rhs = self.bit_xor()?;
            lhs = Expr::Binary(BinaryOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn bit_xor(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.bit_and()?;
        while self.at_symbol("^") {
            self.pos += 1;
            let rhs = self.bit_and()?;
            lhs = Expr::Binary(BinaryOp::Xor, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn bit_and(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.equality()?;
        while self.at_symbol("&") {
            self.pos += 1;
            let rhs = self.equality()?;
            lhs = Expr::Binary(BinaryOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn equality(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.relational()?;
        loop {
            if self.eat_symbol("==") {
                let rhs = self.relational()?;
                lhs = Expr::Binary(BinaryOp::Eq, Box::new(lhs), Box::new(rhs));
            } else if self.eat_symbol("!=") {
                let rhs = self.relational()?;
                lhs = Expr::Binary(BinaryOp::Ne, Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn relational(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.shift()?;
        loop {
            let op = if self.eat_symbol("<=") {
                BinaryOp::Le
            } else if self.eat_symbol(">=") {
                BinaryOp::Ge
            } else if self.at_symbol("<") {
                self.pos += 1;
                BinaryOp::Lt
            } else if self.at_symbol(">") {
                self.pos += 1;
                BinaryOp::Gt
            } else {
                return Ok(lhs);
            };
            let rhs = self.shift()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn shift(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.additive()?;
        loop {
            // `<<<` / `>>>` are Verilog's arithmetic shifts. The subset has no
            // signed values, and Verilog defines arithmetic shifts of unsigned
            // operands to behave exactly like the logical ones, so both forms
            // lower to the same operators (the lexer keeps `>>>` a single
            // token, so it can no longer mis-parse as `>>` followed by `>`).
            if self.eat_symbol("<<") || self.eat_symbol("<<<") {
                let rhs = self.additive()?;
                lhs = Expr::Binary(BinaryOp::Shl, Box::new(lhs), Box::new(rhs));
            } else if self.eat_symbol(">>") || self.eat_symbol(">>>") {
                let rhs = self.additive()?;
                lhs = Expr::Binary(BinaryOp::Shr, Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn additive(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.multiplicative()?;
        loop {
            if self.at_symbol("+") {
                self.pos += 1;
                let rhs = self.multiplicative()?;
                lhs = Expr::Binary(BinaryOp::Add, Box::new(lhs), Box::new(rhs));
            } else if self.at_symbol("-") {
                self.pos += 1;
                let rhs = self.multiplicative()?;
                lhs = Expr::Binary(BinaryOp::Sub, Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        while self.at_symbol("*") {
            self.pos += 1;
            let rhs = self.unary()?;
            lhs = Expr::Binary(BinaryOp::Mul, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let op = if self.at_symbol("~") {
            Some(UnaryOp::Not)
        } else if self.at_symbol("-") {
            Some(UnaryOp::Neg)
        } else if self.at_symbol("!") {
            Some(UnaryOp::LogicalNot)
        } else if self.at_symbol("&") {
            Some(UnaryOp::RedAnd)
        } else if self.at_symbol("|") {
            Some(UnaryOp::RedOr)
        } else if self.at_symbol("^") {
            Some(UnaryOp::RedXor)
        } else {
            None
        };
        if let Some(op) = op {
            self.pos += 1;
            let operand = self.unary()?;
            return Ok(Expr::Unary(op, Box::new(operand)));
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut base = self.primary()?;
        while self.at_symbol("[") {
            self.pos += 1;
            let index = self.expr()?;
            if self.eat_symbol(":") {
                let hi = match index {
                    Expr::Literal(ref bv) => select_index(bv)?,
                    _ => return Err(ParseError::new("part-select bounds must be constants")),
                };
                let lo = self.const_number()?;
                self.expect_symbol("]")?;
                base = Expr::PartSelect(Box::new(base), hi, lo);
            } else {
                self.expect_symbol("]")?;
                base = match index {
                    Expr::Literal(ref bv) => Expr::BitSelect(Box::new(base), select_index(bv)?),
                    other => Expr::DynBitSelect(Box::new(base), Box::new(other)),
                };
            }
        }
        Ok(base)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.next() {
            Some(Token::Number(n)) => Ok(Expr::Literal(BitVec::from_u64(n.into(), 32))),
            Some(Token::SizedLiteral(text)) => Ok(Expr::Literal(parse_sized_literal(&text)?)),
            Some(Token::Ident(name)) => Ok(Expr::Ident(name)),
            Some(Token::Symbol(s)) if s == "(" => {
                let e = self.expr()?;
                self.expect_symbol(")")?;
                Ok(e)
            }
            Some(Token::Symbol(s)) if s == "{" => {
                let mut parts = vec![self.expr()?];
                while self.eat_symbol(",") {
                    parts.push(self.expr()?);
                }
                self.expect_symbol("}")?;
                Ok(Expr::Concat(parts))
            }
            other => Err(ParseError::new(format!("unexpected token {other:?} in expression"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ADD_MUL_AND: &str = r#"
// add_mul_and.v: computes (a+b)*c&d in two clock cycles.
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
    fn parses_the_papers_running_example() {
        let m = parse_module(ADD_MUL_AND).unwrap();
        assert_eq!(m.name, "add_mul_and");
        assert_eq!(m.outputs, vec!["out"]);
        assert_eq!(m.data_inputs().len(), 4);
        let signal = |name: &str| m.signals.iter().find(|s| s.name == name).unwrap();
        assert_eq!(signal("a").width, 16);
        assert_eq!(signal("r").width, 16);
        assert!(signal("out").is_reg);
        assert_eq!(m.statements.len(), 2);
        assert!(matches!(m.statements[0], Statement::NonBlocking { .. }));
    }

    #[test]
    fn parses_combinational_assign() {
        let m = parse_module(
            "module f(input [7:0] a, b, output [7:0] y); assign y = (a ^ b) | 8'h0f; endmodule",
        )
        .unwrap();
        assert_eq!(m.statements.len(), 1);
        match &m.statements[0] {
            Statement::Assign { lhs, rhs } => {
                assert_eq!(lhs, "y");
                assert!(matches!(rhs, Expr::Binary(BinaryOp::Or, _, _)));
            }
            _ => panic!("expected assign"),
        }
    }

    #[test]
    fn parses_parameters_ternary_and_selects() {
        let src = r#"
module lut2(input [1:0] in, output out);
  parameter [3:0] INIT = 4'h8;
  assign out = INIT[in];
endmodule
"#;
        let m = parse_module(src).unwrap();
        let init = m.signals.iter().find(|s| s.name == "INIT").unwrap();
        assert!(init.is_parameter);
        assert_eq!(init.width, 4);
        assert_eq!(init.default.as_ref().unwrap().to_u64(), Some(8));
        match &m.statements[0] {
            Statement::Assign { rhs, .. } => assert!(matches!(rhs, Expr::DynBitSelect(..))),
            _ => panic!(),
        }
    }

    #[test]
    fn parses_part_selects_and_concat() {
        let src =
            "module s(input [15:0] x, output [15:0] y); assign y = {x[7:0], x[15:8]}; endmodule";
        let m = parse_module(src).unwrap();
        match &m.statements[0] {
            Statement::Assign { rhs: Expr::Concat(parts), .. } => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[0], Expr::PartSelect(_, 7, 0)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn operator_precedence_mul_before_and() {
        // (a+b)*c&d must parse as ((a+b)*c) & d.
        let m = parse_module(
            "module p(input [7:0] a, b, c, d, output [7:0] y); assign y = (a+b)*c&d; endmodule",
        )
        .unwrap();
        match &m.statements[0] {
            Statement::Assign { rhs: Expr::Binary(BinaryOp::And, lhs, _), .. } => {
                assert!(matches!(**lhs, Expr::Binary(BinaryOp::Mul, _, _)));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn reports_errors_with_context() {
        assert!(parse_module("module m(").is_err());
        assert!(parse_module("module m(input a); assign ; endmodule").is_err());
        assert!(parse_module("module m(input a); garbage x; endmodule").is_err());
    }

    fn expr_module(expr: &str) -> String {
        format!("module m(input [7:0] a, b, output [7:0] y); assign y = {expr}; endmodule")
    }

    #[test]
    fn sized_literals_reject_overflow_and_wide_widths() {
        // Value overflowing the stated width: a parse error, not silent truncation.
        for bad in ["4'hFFF", "4'd16", "2'b111", "64'd18446744073709551616", "8'hABC"] {
            let err = parse_module(&expr_module(bad)).unwrap_err();
            assert!(
                err.to_string().contains("overflow"),
                "`{bad}` should report overflow, got: {err}"
            );
        }
        // Stated width beyond the 64-bit subset cap.
        for bad in ["65'd1", "128'd1", "4294967295'h0"] {
            let err = parse_module(&expr_module(bad)).unwrap_err();
            assert!(err.to_string().contains("64"), "`{bad}` should report the cap, got: {err}");
        }
    }

    #[test]
    fn sized_literals_accept_the_boundary() {
        // The same magnitudes one notch inside the limits parse fine.
        for (ok, value) in [
            ("4'hF", 0xF),
            ("4'd15", 15),
            ("2'b11", 3),
            ("8'h0FF", 0xFF), // leading zero digits are not overflow
            ("64'hFFFFFFFFFFFFFFFF", u64::MAX),
            ("64'd18446744073709551615", u64::MAX),
        ] {
            let m = parse_module(&expr_module(ok)).unwrap();
            match &m.statements[0] {
                Statement::Assign { rhs: Expr::Literal(bv), .. } => {
                    assert_eq!(bv.to_u64(), Some(value), "literal `{ok}`");
                }
                other => panic!("unexpected parse of `{ok}`: {other:?}"),
            }
        }
    }

    #[test]
    fn numbers_indices_and_widths_past_u32_are_rejected() {
        // An unsized literal, a select index and a declared width must each
        // fit in 32 bits; each shape one past the limit is a parse error.
        for (bad, reason) in [
            (expr_module("4294967296"), "does not fit in 32 bits"),
            (expr_module("a[4294967296]"), "does not fit in 32 bits"),
            (expr_module("a[33'h100000000]"), "select index"),
            (expr_module("a[33'h100000000:0]"), "select index"),
            (
                "module m(input [4294967295:0] a, output y); assign y = a; endmodule".to_string(),
                "too wide",
            ),
        ] {
            let err = parse_module(&bad).unwrap_err();
            assert!(err.to_string().contains(reason), "`{bad}`: {err}");
        }
        // At the limits themselves they parse.
        let m = parse_module(&expr_module("4294967295 + a[33'hFFFFFFFF]")).unwrap();
        match &m.statements[0] {
            Statement::Assign { rhs: Expr::Binary(BinaryOp::Add, lhs, rhs), .. } => {
                assert!(
                    matches!(&**lhs, Expr::Literal(bv) if bv.to_u64() == Some(u32::MAX.into()))
                );
                assert!(matches!(**rhs, Expr::BitSelect(_, u32::MAX)));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        let m = parse_module("module m(input [4294967294:0] a, output y); assign y = a; endmodule")
            .unwrap();
        assert_eq!(m.signals[0].width, u32::MAX);
    }

    #[test]
    fn arithmetic_shifts_lower_to_logical_ones() {
        // `>>>` used to lex as `>>` `>` and die with a confusing "unexpected
        // token" error; it now parses and, with only unsigned values in the
        // subset, means exactly `>>` (same for `<<<` and `<<`).
        let m = parse_module(&expr_module("a >>> b")).unwrap();
        match &m.statements[0] {
            Statement::Assign { rhs, .. } => {
                assert!(matches!(rhs, Expr::Binary(BinaryOp::Shr, _, _)))
            }
            _ => panic!(),
        }
        let m = parse_module(&expr_module("a <<< 2")).unwrap();
        match &m.statements[0] {
            Statement::Assign { rhs, .. } => {
                assert!(matches!(rhs, Expr::Binary(BinaryOp::Shl, _, _)))
            }
            _ => panic!(),
        }
        // Precedence unchanged: a >>> b > c is (a >>> b) > c.
        let m = parse_module(&expr_module("a >>> b > c ? a : b")).unwrap();
        match &m.statements[0] {
            Statement::Assign { rhs: Expr::Ternary(cond, _, _), .. } => {
                assert!(matches!(**cond, Expr::Binary(BinaryOp::Gt, _, _)));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }
}
