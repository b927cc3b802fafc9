//! Property-based tests that tie the three views of the QF_BV semantics together:
//! concrete evaluation, constructor-time rewriting, and bit-blasting.
//!
//! For randomly generated terms `t` and randomly generated environments, we assert
//! that the constraint `t == eval(t)` is satisfiable with the environment fixed (the
//! bit-blasted circuit agrees with the interpreter), and that asserting
//! `t != eval(t)` under the same fixed environment is unsatisfiable. A seeded subset
//! of the variables is replaced by its value as a constant, so in an unsimplified
//! pool the gate layer's constant folding and gate sharing see constant, partly
//! constant and repeated operands.

use lr_bv::BitVec;
use lr_smt::{BvSolver, SatResult, TermId, TermPool};
use proptest::prelude::*;

/// A small expression AST for generating random terms without borrowing a pool
/// inside the proptest strategy.
#[derive(Debug, Clone)]
enum Expr {
    Var(usize),
    Const(u64),
    Not(Box<Expr>),
    Neg(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Shl(Box<Expr>, Box<Expr>),
    Lshr(Box<Expr>, Box<Expr>),
    Udiv(Box<Expr>, Box<Expr>),
    Urem(Box<Expr>, Box<Expr>),
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
    UltMux(Box<Expr>, Box<Expr>),
}

fn expr_strategy(depth: u32) -> impl Strategy<Value = Expr> {
    let leaf =
        prop_oneof![(0usize..3).prop_map(Expr::Var), (0u64..=u64::MAX).prop_map(Expr::Const),];
    leaf.prop_recursive(depth, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|a| Expr::Not(Box::new(a))),
            inner.clone().prop_map(|a| Expr::Neg(Box::new(a))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Shl(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Lshr(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Udiv(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Urem(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, a, b)| Expr::Ite(
                Box::new(c),
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::UltMux(Box::new(a), Box::new(b))),
        ]
    })
}

fn build(pool: &mut TermPool, expr: &Expr, width: u32) -> TermId {
    match expr {
        Expr::Var(i) => pool.var(&format!("v{i}"), width),
        Expr::Const(c) => pool.constant(BitVec::from_u64(*c, width)),
        Expr::Not(a) => {
            let a = build(pool, a, width);
            pool.not(a)
        }
        Expr::Neg(a) => {
            let a = build(pool, a, width);
            pool.neg(a)
        }
        Expr::And(a, b) => {
            let (a, b) = (build(pool, a, width), build(pool, b, width));
            pool.and(a, b)
        }
        Expr::Or(a, b) => {
            let (a, b) = (build(pool, a, width), build(pool, b, width));
            pool.or(a, b)
        }
        Expr::Xor(a, b) => {
            let (a, b) = (build(pool, a, width), build(pool, b, width));
            pool.xor(a, b)
        }
        Expr::Add(a, b) => {
            let (a, b) = (build(pool, a, width), build(pool, b, width));
            pool.add(a, b)
        }
        Expr::Sub(a, b) => {
            let (a, b) = (build(pool, a, width), build(pool, b, width));
            pool.sub(a, b)
        }
        Expr::Mul(a, b) => {
            let (a, b) = (build(pool, a, width), build(pool, b, width));
            pool.mul(a, b)
        }
        Expr::Shl(a, b) => {
            let (a, b) = (build(pool, a, width), build(pool, b, width));
            pool.shl(a, b)
        }
        Expr::Lshr(a, b) => {
            let (a, b) = (build(pool, a, width), build(pool, b, width));
            pool.lshr(a, b)
        }
        Expr::Udiv(a, b) => {
            let (a, b) = (build(pool, a, width), build(pool, b, width));
            pool.udiv(a, b)
        }
        Expr::Urem(a, b) => {
            let (a, b) = (build(pool, a, width), build(pool, b, width));
            pool.urem(a, b)
        }
        Expr::Ite(c, a, b) => {
            let c = build(pool, c, width);
            let c1 = pool.red_or(c);
            let (a, b) = (build(pool, a, width), build(pool, b, width));
            pool.ite(c1, a, b)
        }
        Expr::UltMux(a, b) => {
            let (a, b) = (build(pool, a, width), build(pool, b, width));
            let lt = pool.ult(a, b);
            pool.ite(lt, b, a)
        }
    }
}

/// `expr` with each variable whose bit is set in `fixed` replaced by its value.
fn substitute(expr: &Expr, fixed: u8, vals: &[u64]) -> Expr {
    let sub = |e: &Expr| Box::new(substitute(e, fixed, vals));
    match expr {
        Expr::Var(i) if fixed & (1 << i) != 0 => Expr::Const(vals[*i]),
        Expr::Var(_) | Expr::Const(_) => expr.clone(),
        Expr::Not(a) => Expr::Not(sub(a)),
        Expr::Neg(a) => Expr::Neg(sub(a)),
        Expr::And(a, b) => Expr::And(sub(a), sub(b)),
        Expr::Or(a, b) => Expr::Or(sub(a), sub(b)),
        Expr::Xor(a, b) => Expr::Xor(sub(a), sub(b)),
        Expr::Add(a, b) => Expr::Add(sub(a), sub(b)),
        Expr::Sub(a, b) => Expr::Sub(sub(a), sub(b)),
        Expr::Mul(a, b) => Expr::Mul(sub(a), sub(b)),
        Expr::Shl(a, b) => Expr::Shl(sub(a), sub(b)),
        Expr::Lshr(a, b) => Expr::Lshr(sub(a), sub(b)),
        Expr::Udiv(a, b) => Expr::Udiv(sub(a), sub(b)),
        Expr::Urem(a, b) => Expr::Urem(sub(a), sub(b)),
        Expr::Ite(c, a, b) => Expr::Ite(sub(c), sub(a), sub(b)),
        Expr::UltMux(a, b) => Expr::UltMux(sub(a), sub(b)),
    }
}

fn env_for(values: &[u64], width: u32) -> lr_smt::Env {
    values.iter().enumerate().map(|(i, &v)| (format!("v{i}"), BitVec::from_u64(v, width))).collect()
}

fn constrain_env(pool: &mut TermPool, solver: &mut BvSolver, env: &lr_smt::Env) {
    for (name, value) in env {
        let var = pool.var(name, value.width());
        let c = pool.constant(value.clone());
        let eq = pool.eq(var, c);
        solver.assert_true(pool, eq);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blasting_agrees_with_evaluation(
        expr in expr_strategy(3),
        vals in proptest::collection::vec(0u64..=u64::MAX, 3),
        width in 1u32..=6,
        simplify in proptest::bool::ANY,
        fixed in 0u8..8,
    ) {
        let mut pool = if simplify { TermPool::new() } else { TermPool::without_simplification() };
        let term = build(&mut pool, &substitute(&expr, fixed, &vals), width);
        let env = env_for(&vals, width);
        let expected = pool.eval(term, &env).unwrap();

        // SAT direction: term == expected is satisfiable with the inputs pinned.
        let mut solver = BvSolver::new();
        constrain_env(&mut pool, &mut solver, &env);
        let expected_const = pool.constant(expected.clone());
        let eq = pool.eq(term, expected_const);
        solver.assert_true(&pool, eq);
        prop_assert_eq!(solver.check(&pool), SatResult::Sat);

        // UNSAT direction: term != expected contradicts the pinned inputs.
        let mut solver = BvSolver::new();
        constrain_env(&mut pool, &mut solver, &env);
        let ne = pool.ne(term, expected_const);
        solver.assert_true(&pool, ne);
        prop_assert_eq!(solver.check(&pool), SatResult::Unsat);
    }

    #[test]
    fn simplified_and_unsimplified_pools_agree(
        expr in expr_strategy(3),
        vals in proptest::collection::vec(0u64..=u64::MAX, 3),
        width in 1u32..=16,
    ) {
        let env = env_for(&vals, width);
        let mut simplified = TermPool::new();
        let t1 = build(&mut simplified, &expr, width);
        let mut raw = TermPool::without_simplification();
        let t2 = build(&mut raw, &expr, width);
        prop_assert_eq!(simplified.eval(t1, &env).unwrap(), raw.eval(t2, &env).unwrap());
    }

    #[test]
    fn models_check_out_under_evaluation(
        expr in expr_strategy(2),
        width in 1u32..=5,
        target in 0u64..=u64::MAX,
    ) {
        // If the solver says `expr == target` is satisfiable, evaluating the term
        // under the returned model must reproduce `target`.
        let mut pool = TermPool::new();
        let term = build(&mut pool, &expr, width);
        let target_bv = BitVec::from_u64(target, width);
        let target_const = pool.constant(target_bv.clone());
        let eq = pool.eq(term, target_const);
        let mut solver = BvSolver::new();
        solver.assert_true(&pool, eq);
        if solver.check(&pool) == SatResult::Sat {
            let mut env = solver.model(&pool).into_env();
            // Variables not mentioned by the circuit may be missing; fill with zero.
            for i in 0..3 {
                env.entry(format!("v{i}")).or_insert_with(|| BitVec::zeros(width));
            }
            prop_assert_eq!(pool.eval(term, &env).unwrap(), target_bv);
        }
    }
}
