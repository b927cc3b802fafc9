//! Abstract syntax for the mini-HDL (a behavioral Verilog subset).

use lr_bv::BitVec;

/// Direction of a module port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortDir {
    /// An input port.
    Input,
    /// An output port (optionally a registered output, i.e. `output reg`).
    Output,
}

/// A declared signal: port, internal register, wire, or parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalDecl {
    /// Signal name.
    pub name: String,
    /// Width in bits.
    pub width: u32,
    /// Port direction, if the signal is a port.
    pub dir: Option<PortDir>,
    /// Whether the signal was declared `reg` (or `output reg`).
    pub is_reg: bool,
    /// Whether the signal was declared `parameter`; parameters carry a default.
    pub is_parameter: bool,
    /// Default value for parameters.
    pub default: Option<BitVec>,
}

/// An expression of the mini-HDL.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A sized literal (`8'hff`) or bare decimal literal (width inferred as 32).
    Literal(BitVec),
    /// A reference to a signal.
    Ident(String),
    /// A unary operator: `~`, `-`, `&` (reduction AND), `|` (reduction OR),
    /// `^` (reduction XOR), `!`.
    Unary(UnaryOp, Box<Expr>),
    /// A binary operator.
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// The ternary conditional `cond ? a : b`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// A concatenation `{a, b, c}` (first element is most significant).
    Concat(Vec<Expr>),
    /// A part-select `x[hi:lo]` with constant bounds.
    PartSelect(Box<Expr>, u32, u32),
    /// A bit-select `x[i]` with a constant index.
    BitSelect(Box<Expr>, u32),
    /// A dynamic bit-select `x[i]` where the index is an expression
    /// (lowered to a shift-and-mask).
    DynBitSelect(Box<Expr>, Box<Expr>),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Bitwise NOT (`~`).
    Not,
    /// Arithmetic negation (`-`).
    Neg,
    /// Logical NOT (`!`), producing 1 bit.
    LogicalNot,
    /// Reduction AND (`&x`).
    RedAnd,
    /// Reduction OR (`|x`).
    RedOr,
    /// Reduction XOR (`^x`).
    RedXor,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left.
    Shl,
    /// Logical shift right.
    Shr,
    /// Equality (1-bit result).
    Eq,
    /// Disequality (1-bit result).
    Ne,
    /// Unsigned less-than.
    Lt,
    /// Unsigned less-or-equal.
    Le,
    /// Unsigned greater-than.
    Gt,
    /// Unsigned greater-or-equal.
    Ge,
    /// Logical AND (`&&`), 1-bit result.
    LogicalAnd,
    /// Logical OR (`||`), 1-bit result.
    LogicalOr,
}

/// A statement of the mini-HDL.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A continuous assignment `assign lhs = expr;`.
    Assign {
        /// Target signal name.
        lhs: String,
        /// Driving expression.
        rhs: Expr,
    },
    /// A non-blocking assignment `lhs <= expr;` inside an `always @(posedge clk)`.
    NonBlocking {
        /// Target register name.
        lhs: String,
        /// Driving expression (sampled at the clock edge).
        rhs: Expr,
    },
}

/// A parsed module.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleAst {
    /// Module name.
    pub name: String,
    /// All declared signals (ports, regs, wires, parameters).
    pub signals: Vec<SignalDecl>,
    /// Statements, in source order.
    pub statements: Vec<Statement>,
    /// Names of output ports in declaration order.
    pub outputs: Vec<String>,
}

impl ModuleAst {
    /// Names of input ports (excluding `clk`) in declaration order.
    pub fn data_inputs(&self) -> Vec<&SignalDecl> {
        self.signals.iter().filter(|s| s.dir == Some(PortDir::Input) && s.name != "clk").collect()
    }
}
