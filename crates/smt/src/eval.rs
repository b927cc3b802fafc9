//! Concrete operator semantics and evaluation of terms under variable bindings.
//!
//! [`apply_op`] is the one table of operator semantics: constant folding inside
//! [`TermPool`], the e-graph's constant-folding analysis, and the ℒlr interpreter and
//! constant folder (`lr_ir`) all call it. [`TermPool::eval`] evaluates a whole term;
//! it is the reference that the property tests `prop_blast.rs` and
//! `prop_saturate.rs` check rewriting and bit-blasting against.

use std::collections::HashMap;
use std::fmt;

use lr_bv::BitVec;

use crate::op::BvOp;
use crate::pool::{Term, TermId, TermPool};

/// A variable environment mapping names to concrete values.
pub type Env = HashMap<String, BitVec>;

/// An error produced during evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A variable had no binding in the environment.
    UnboundVariable(String),
    /// A variable binding had the wrong width.
    WidthMismatch {
        /// The variable name.
        name: String,
        /// Width expected by the term graph.
        expected: u32,
        /// Width found in the environment.
        found: u32,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVariable(name) => write!(f, "unbound variable `{name}`"),
            EvalError::WidthMismatch { name, expected, found } => {
                write!(f, "variable `{name}` bound to width {found}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// Applies an operator to concrete operand values. This is the single source of truth
/// for operator semantics; constant folding, evaluation, the e-graph's
/// constant-folding analysis (`lr_egraph`), the ℒlr interpreter (`lr_ir`), and the
/// tests that compare bit-blasting against evaluation all call it.
pub fn apply_op(op: BvOp, args: &[&BitVec]) -> BitVec {
    match op {
        BvOp::Not => args[0].not(),
        BvOp::Neg => args[0].neg(),
        BvOp::And => args[0].and(args[1]),
        BvOp::Or => args[0].or(args[1]),
        BvOp::Xor => args[0].xor(args[1]),
        BvOp::Add => args[0].add(args[1]),
        BvOp::Sub => args[0].sub(args[1]),
        BvOp::Mul => args[0].mul(args[1]),
        BvOp::Udiv => args[0].udiv(args[1]),
        BvOp::Urem => args[0].urem(args[1]),
        BvOp::Shl => args[0].shl(args[1]),
        BvOp::Lshr => args[0].lshr(args[1]),
        BvOp::Ashr => args[0].ashr(args[1]),
        BvOp::Concat => args[0].concat(args[1]),
        BvOp::Extract { hi, lo } => args[0].extract(hi, lo),
        BvOp::ZeroExt { width } => args[0].zext(width),
        BvOp::SignExt { width } => args[0].sext(width),
        BvOp::Eq => BitVec::from_bool(args[0] == args[1]),
        BvOp::Ult => BitVec::from_bool(args[0].ult(args[1])),
        BvOp::Ule => BitVec::from_bool(args[0].ule(args[1])),
        BvOp::Slt => BitVec::from_bool(args[0].slt(args[1])),
        BvOp::Sle => BitVec::from_bool(args[0].sle(args[1])),
        BvOp::Ite => {
            if args[0].is_zero() {
                args[2].clone()
            } else {
                args[1].clone()
            }
        }
        BvOp::RedOr => args[0].reduce_or(),
        BvOp::RedAnd => args[0].reduce_and(),
        BvOp::RedXor => args[0].reduce_xor(),
    }
}

impl TermPool {
    /// Evaluates a term under `env`.
    ///
    /// # Errors
    /// Returns [`EvalError`] if a variable is unbound or bound at the wrong width.
    pub fn eval(&self, id: TermId, env: &Env) -> Result<BitVec, EvalError> {
        let mut cache: HashMap<TermId, BitVec> = HashMap::new();
        self.eval_cached(id, env, &mut cache)
    }

    fn eval_cached(
        &self,
        id: TermId,
        env: &Env,
        cache: &mut HashMap<TermId, BitVec>,
    ) -> Result<BitVec, EvalError> {
        if let Some(v) = cache.get(&id) {
            return Ok(v.clone());
        }
        let value = match self.term(id) {
            Term::Const(bv) => bv.clone(),
            Term::Var { name, width } => {
                let bound =
                    env.get(name).ok_or_else(|| EvalError::UnboundVariable(name.clone()))?;
                if bound.width() != *width {
                    return Err(EvalError::WidthMismatch {
                        name: name.clone(),
                        expected: *width,
                        found: bound.width(),
                    });
                }
                bound.clone()
            }
            Term::Op { op, args, .. } => {
                let op = *op;
                let args = args.clone();
                let values: Result<Vec<BitVec>, EvalError> =
                    args.iter().map(|&a| self.eval_cached(a, env, cache)).collect();
                let values = values?;
                let refs: Vec<&BitVec> = values.iter().collect();
                apply_op(op, &refs)
            }
        };
        cache.insert(id, value.clone());
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(pairs: &[(&str, u64, u32)]) -> Env {
        pairs.iter().map(|&(n, v, w)| (n.to_string(), BitVec::from_u64(v, w))).collect()
    }

    #[test]
    fn eval_arithmetic_expression() {
        let mut pool = TermPool::new();
        let a = pool.var("a", 16);
        let b = pool.var("b", 16);
        let c = pool.var("c", 16);
        let d = pool.var("d", 16);
        // (a + b) * c & d  -- the paper's running example.
        let sum = pool.add(a, b);
        let prod = pool.mul(sum, c);
        let out = pool.and(prod, d);
        let e = env(&[("a", 3, 16), ("b", 5, 16), ("c", 7, 16), ("d", 0xFF, 16)]);
        assert_eq!(pool.eval(out, &e).unwrap(), BitVec::from_u64(((3 + 5) * 7) & 0xFF, 16));
    }

    #[test]
    fn eval_predicates_and_ite() {
        let mut pool = TermPool::new();
        let a = pool.var("a", 8);
        let b = pool.var("b", 8);
        let lt = pool.ult(a, b);
        let max = pool.ite(lt, b, a);
        let e = env(&[("a", 9, 8), ("b", 4, 8)]);
        assert_eq!(pool.eval(max, &e).unwrap(), BitVec::from_u64(9, 8));
        let e = env(&[("a", 2, 8), ("b", 4, 8)]);
        assert_eq!(pool.eval(max, &e).unwrap(), BitVec::from_u64(4, 8));
    }

    #[test]
    fn eval_structural_ops() {
        let mut pool = TermPool::new();
        let a = pool.var("a", 8);
        let ext = pool.sext(a, 16);
        let hi = pool.extract(ext, 15, 8);
        let e = env(&[("a", 0x80, 8)]);
        assert_eq!(pool.eval(hi, &e).unwrap(), BitVec::from_u64(0xFF, 8));
    }

    #[test]
    fn unbound_variable_errors() {
        let mut pool = TermPool::new();
        let a = pool.var("a", 8);
        let err = pool.eval(a, &Env::new()).unwrap_err();
        assert_eq!(err, EvalError::UnboundVariable("a".to_string()));
        assert!(err.to_string().contains("unbound"));
    }

    #[test]
    fn width_mismatch_errors() {
        let mut pool = TermPool::new();
        let a = pool.var("a", 8);
        let e = env(&[("a", 1, 4)]);
        let err = pool.eval(a, &e).unwrap_err();
        assert!(matches!(err, EvalError::WidthMismatch { expected: 8, found: 4, .. }));
    }

    #[test]
    fn eval_agrees_with_simplifier() {
        // Evaluating `x * 0 + y` must agree whether or not the simplifier collapsed it.
        let e = env(&[("x", 17, 8), ("y", 9, 8)]);
        for mut pool in [TermPool::new(), TermPool::without_simplification()] {
            let x = pool.var("x", 8);
            let y = pool.var("y", 8);
            let zero = pool.zero(8);
            let prod = pool.mul(x, zero);
            let out = pool.add(prod, y);
            assert_eq!(pool.eval(out, &e).unwrap(), BitVec::from_u64(9, 8));
        }
    }
}
