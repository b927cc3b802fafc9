//! Symbolic interpretation of ℒlr programs into `lr-smt` terms.
//!
//! This is the bridge between the IR and the solver. A program has one
//! [`Schedule`] for both semantics: [`Schedule::trace`] steps it forward on
//! concrete values, and [`Schedule::term`] walks it from the root on *symbolic*
//! ones, producing the QF_BV term for the program's output at a clock cycle `t`.
//! The synthesis engine (`lr-synth`) walks the spec's and the sketch's schedules
//! and asserts the terms equal (the synthesis condition of §3.3) or, to verify a
//! candidate, unequal.
//!
//! Naming scheme:
//! * input `x` at cycle `t` becomes the term variable `x@t`;
//! * hole `h` becomes the term variable `hole!h` (holes are time-invariant).

use std::collections::BTreeMap;
use std::slice;

use lr_bv::BitVec;
use lr_smt::{TermId, TermPool};

use crate::interp::Step;
use crate::{HoleDomain, Prog, Schedule, StreamInputs};

/// Name of the term variable standing for input `name` at cycle `time`.
pub fn input_var_name(name: &str, time: u32) -> String {
    format!("{name}@{time}")
}

/// Name of the term variable standing for hole `name`.
pub fn hole_var_name(name: &str) -> String {
    format!("hole!{name}")
}

/// If `term_name` names a hole variable, the hole's name.
pub fn parse_hole_var(term_name: &str) -> Option<&str> {
    term_name.strip_prefix("hole!")
}

/// If `term_name` names an input variable, the `(input, time)` pair.
pub fn parse_input_var(term_name: &str) -> Option<(&str, u32)> {
    let (name, time) = term_name.rsplit_once('@')?;
    time.parse().ok().map(|t| (name, t))
}

impl Schedule<'_> {
    /// Builds the QF_BV term for the root's value at clock cycle `cycle`. An
    /// input bound in `inputs` becomes its value at each cycle, any other input
    /// `x` the variable `x@t`; a hole bound in `holes` becomes its value, any
    /// other hole `h` the variable `hole!h`.
    ///
    /// The walk visits the slots the root reads depth-first, operands left to
    /// right, on an explicit stack, and makes each (cycle, slot) term once, after
    /// its operands. So every call makes its terms in the same order, and depth
    /// is not bounded by the thread's stack.
    ///
    /// # Panics
    /// Panics if a bound input or hole has the wrong width.
    pub fn term(
        &self,
        pool: &mut TermPool,
        cycle: u32,
        inputs: &StreamInputs,
        holes: &BTreeMap<String, BitVec>,
    ) -> TermId {
        let slots = self.steps.len();
        let at = |time: u32, slot: usize| time as usize * slots + slot;
        let mut memo: Vec<Option<TermId>> = vec![None; at(cycle + 1, 0)];
        // (cycle, slot, whether the slots it reads have their terms)
        let mut stack = vec![(cycle, self.root, false)];
        while let Some((time, slot, ready)) = stack.pop() {
            if memo[at(time, slot)].is_some() {
                continue;
            }
            let step = &self.steps[slot];
            // The slots the step reads, at the cycle it reads them.
            let (then, reads) = match step {
                Step::Var { bound: Some(from), .. } | Step::Copy(from) => {
                    (time, slice::from_ref(from))
                }
                Step::Reg { data, .. } if time > 0 => (time - 1, slice::from_ref(data)),
                Step::Op(_, args) => (time, &args[..]),
                _ => (time, &[][..]),
            };
            if !ready && !reads.is_empty() {
                stack.push((time, slot, true));
                stack.extend(reads.iter().rev().map(|&read| (then, read, false)));
                continue;
            }
            let read = |slot| memo[at(then, slot)].expect("read slots are walked first");
            let term = match step {
                Step::Const(value) => pool.constant((*value).clone()),
                Step::Reg { init, .. } if time == 0 => pool.constant((*init).clone()),
                Step::Hole { name, width } => match holes.get(*name) {
                    Some(value) => {
                        assert_eq!(value.width(), *width, "hole `{name}` has the wrong width");
                        pool.constant(value.clone())
                    }
                    None => pool.var(&hole_var_name(name), *width),
                },
                Step::Var { name, width, bound: None } => match inputs.get(name, time) {
                    Some(value) => {
                        assert_eq!(value.width(), *width, "input `{name}` has the wrong width");
                        pool.constant(value)
                    }
                    None => pool.var(&input_var_name(name, time), *width),
                },
                Step::Op(op, args) => pool.mk_op(*op, args.iter().map(|&a| read(a)).collect()),
                // A bound variable, a primitive's output, a register after cycle 0.
                Step::Var { .. } | Step::Copy(_) | Step::Reg { .. } => read(reads[0]),
            };
            memo[at(time, slot)] = Some(term);
        }
        memo[at(cycle, self.root)].expect("the root is walked")
    }
}

impl Prog {
    /// Builds 1-bit constraint terms restricting every hole variable to its domain
    /// (the map `h` of §3.1). The synthesis engine asserts these alongside the
    /// equivalence obligations.
    pub fn hole_domain_constraints(&self, pool: &mut TermPool) -> Vec<TermId> {
        let mut out = Vec::new();
        for hole in self.holes() {
            let var = pool.var(&hole_var_name(&hole.name), hole.width);
            match &hole.domain {
                HoleDomain::AnyConstant => {}
                HoleDomain::Choice(choices) => {
                    let mut any = pool.false_();
                    for choice in choices {
                        let c = pool.constant(choice.clone());
                        let eq = pool.eq(var, c);
                        any = pool.or(any, eq);
                    }
                    out.push(any);
                }
                HoleDomain::LessThan(bound) => {
                    let b = pool.constant(bound.clone());
                    out.push(pool.ult(var, b));
                }
            }
        }
        out
    }

    /// The names of the symbolic input variables the term for cycle `time` may
    /// mention (every declared/free input at every cycle up to `time`).
    pub fn symbolic_input_names(&self, time: u32) -> Vec<(String, u32)> {
        let mut out = Vec::new();
        for (name, width) in self.free_vars() {
            for t in 0..=time {
                out.push((input_var_name(&name, t), width));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BvOp, ProgBuilder};
    use lr_smt::{BvSolver, SatResult};

    /// The term for `prog`'s root at `cycle` with every input and hole symbolic.
    fn symbolic_term(prog: &Prog, pool: &mut TermPool, cycle: u32) -> TermId {
        prog.schedule().unwrap().term(pool, cycle, &StreamInputs::new(), &BTreeMap::new())
    }

    #[test]
    fn naming_helpers_roundtrip() {
        assert_eq!(input_var_name("a", 3), "a@3");
        assert_eq!(parse_input_var("a@3"), Some(("a", 3)));
        assert_eq!(parse_input_var("nope"), None);
        assert_eq!(hole_var_name("AREG"), "hole!AREG");
        assert_eq!(parse_hole_var("hole!AREG"), Some("AREG"));
        assert_eq!(parse_hole_var("a@3"), None);
    }

    #[test]
    fn symbolic_term_matches_concrete_interp() {
        // out = (a + b) & c with a register stage.
        let mut b = ProgBuilder::new("p");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let c = b.input("c", 8);
        let sum = b.op2(BvOp::Add, a, bb);
        let masked = b.op2(BvOp::And, sum, c);
        let r = b.reg(masked, 8);
        let prog = b.finish(r);

        let mut env = StreamInputs::new();
        env.set_constant("a", BitVec::from_u64(9, 8));
        env.set_constant("b", BitVec::from_u64(6, 8));
        env.set_constant("c", BitVec::from_u64(0x0F, 8));
        let concrete = prog.interp(&env, 1).unwrap();

        let mut pool = TermPool::new();
        let term = symbolic_term(&prog, &mut pool, 1);
        let smt_env: lr_smt::Env = [
            ("a@0".to_string(), BitVec::from_u64(9, 8)),
            ("b@0".to_string(), BitVec::from_u64(6, 8)),
            ("c@0".to_string(), BitVec::from_u64(0x0F, 8)),
        ]
        .into_iter()
        .collect();
        assert_eq!(pool.eval(term, &smt_env).unwrap(), concrete);
    }

    #[test]
    fn concrete_inputs_substitute_constants() {
        let mut b = ProgBuilder::new("p");
        let a = b.input("a", 8);
        let h = b.hole("k", 8, HoleDomain::AnyConstant);
        let sum = b.op2(BvOp::Add, a, h);
        let prog = b.finish(sum);
        let schedule = prog.schedule().unwrap();
        assert_eq!(
            schedule.trace(&StreamInputs::new(), 0),
            Err(crate::InterpError::UnboundVariable("a".into()))
        );

        let mut env = StreamInputs::new();
        env.set_constant("a", BitVec::from_u64(5, 8));
        let mut pool = TermPool::new();
        let term = schedule.term(&mut pool, 0, &env, &BTreeMap::new());
        // The only free variable left should be the hole.
        let smt_env: lr_smt::Env =
            [("hole!k".to_string(), BitVec::from_u64(3, 8))].into_iter().collect();
        assert_eq!(pool.eval(term, &smt_env).unwrap(), BitVec::from_u64(8, 8));

        // Binding the hole as well leaves a constant, the value tracing the
        // filled program gives.
        let holes: BTreeMap<String, BitVec> = [("k".into(), BitVec::from_u64(3, 8))].into();
        let term = schedule.term(&mut pool, 0, &env, &holes);
        assert_eq!(pool.as_const(term), Some(&BitVec::from_u64(8, 8)));
        assert_eq!(prog.fill_holes(&holes).unwrap().interp(&env, 0), Ok(BitVec::from_u64(8, 8)));
    }

    #[test]
    fn hole_constraints_restrict_choices() {
        let mut b = ProgBuilder::new("p");
        let h = b.hole(
            "mode",
            2,
            HoleDomain::Choice(vec![BitVec::from_u64(1, 2), BitVec::from_u64(2, 2)]),
        );
        let prog = b.finish(h);
        let mut pool = TermPool::new();
        let constraints = prog.hole_domain_constraints(&mut pool);
        assert_eq!(constraints.len(), 1);
        // mode == 0 should violate the constraint, mode == 2 should satisfy it.
        let mut solver = BvSolver::new();
        solver.assert_true(&pool, constraints[0]);
        let hole = pool.var(&hole_var_name("mode"), 2);
        let zero = pool.zero(2);
        let is_zero = pool.eq(hole, zero);
        solver.assert_true(&pool, is_zero);
        assert_eq!(solver.check(&pool), SatResult::Unsat);

        let mut solver = BvSolver::new();
        let constraints = prog.hole_domain_constraints(&mut pool);
        solver.assert_true(&pool, constraints[0]);
        let two = pool.constant(BitVec::from_u64(2, 2));
        let is_two = pool.eq(hole, two);
        solver.assert_true(&pool, is_two);
        assert_eq!(solver.check(&pool), SatResult::Sat);
    }

    #[test]
    fn registers_reference_earlier_cycle_inputs() {
        let mut b = ProgBuilder::new("p");
        let a = b.input("a", 4);
        let r = b.reg(a, 4);
        let prog = b.finish(r);
        let mut pool = TermPool::new();
        let term = symbolic_term(&prog, &mut pool, 2);
        // The value at cycle 2 is the input at cycle 1.
        let d = pool.display(term);
        assert!(d.contains("a@1"), "term should reference a@1, got {d}");
        // At cycle 0 the register shows its initial value.
        let term0 = symbolic_term(&prog, &mut pool, 0);
        assert_eq!(pool.as_const(term0), Some(&BitVec::zeros(4)));
    }

    #[test]
    fn deep_chains_walk_on_a_small_stack() {
        // out = ((a ^ b) + b) ^ b ... (100 000 operators) on a 256 KiB stack,
        // with `a` bound and `b` symbolic.
        let worker = std::thread::Builder::new().stack_size(256 << 10).spawn(|| {
            let mut b = ProgBuilder::new("chain");
            let mut x = b.input("a", 32);
            let y = b.input("b", 32);
            for i in 0..100_000 {
                let op = if i % 2 == 0 { BvOp::Xor } else { BvOp::Add };
                x = b.op2(op, x, y);
            }
            let prog = b.finish(x);
            let env = StreamInputs::from_constants([("a".to_string(), BitVec::from_u64(7, 32))]);
            let mut pool = TermPool::new();
            let term = prog.schedule().unwrap().term(&mut pool, 0, &env, &BTreeMap::new());
            (pool.width(term), pool.len())
        });
        let (width, len) = worker.expect("spawn").join().expect("no stack overflow");
        assert_eq!(width, 32);
        // `7`, `b@0` and one term per operator.
        assert_eq!(len, 100_002);
    }

    #[test]
    fn symbolic_input_names_enumerate_cycles() {
        let mut b = ProgBuilder::new("p");
        let a = b.input("a", 4);
        let prog = b.finish(a);
        let names = prog.symbolic_input_names(2);
        assert_eq!(
            names,
            vec![("a@0".to_string(), 4), ("a@1".to_string(), 4), ("a@2".to_string(), 4)]
        );
    }
}
