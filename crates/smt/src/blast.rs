//! Tseitin bit-blasting of QF_BV terms to CNF over `lr-sat` literals.
//!
//! Every term is lowered to a vector of SAT literals, least-significant bit first.
//! Word-level operators become the usual gate-level circuits: ripple-carry adders,
//! shift-and-add multipliers, borrow-based comparators, and barrel shifters. The
//! encoding is defined once here and validated against concrete evaluation by the
//! property tests in `tests/prop_blast.rs`.
//!
//! The circuits are built from three gates (and, xor, mux), and the gate layer
//! does not make one variable per gate. It folds: a gate with a constant input
//! (the one true literal or its negation), with equal or complementary inputs, or
//! a mux whose arms are equal or both constant, returns a constant or an input
//! literal, and a mux with one constant arm becomes an and or an or. It shares:
//! every other gate is looked up under its normalized inputs (and: operands
//! sorted; xor: the operands' variables, with the parity moved to the output; mux:
//! the select made positive) before a fresh variable and its clauses are made, so
//! each distinct gate has one variable per solver. Synthesis queries assert a
//! sketch's outputs on constant examples, so most of their gates fold away.
//!
//! The gate rules decide the CNF and so the SAT search: changing one moves the
//! solver counters, and needs re-baselined `BENCH_sat.json`, `BENCH_cegis.json`
//! and `BENCH_trace.json` records. `tests::the_encoding_is_pinned` fixes the CNF of
//! six small queries.

use std::collections::HashMap;

use lr_sat::{Lit, Solver};

use crate::op::BvOp;
use crate::pool::{Term, TermId, TermPool};

/// Counters describing how much encoding work the blaster performed and how much
/// it answered from its memo table. Exposed through `BvSolver::blast_stats` so the
/// incremental CEGIS loop can report clause/encoding reuse.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlastStats {
    /// Number of distinct terms lowered to literal vectors so far.
    pub cached_terms: usize,
    /// `blast` calls answered from the memo table without re-encoding.
    pub cache_hits: u64,
    /// `blast` calls that had to encode a new term.
    pub cache_misses: u64,
}

/// A gate under its normalized inputs: the key of the structural-hash table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Gate {
    /// Operands sorted.
    And(Lit, Lit),
    /// Positive literals of the operands' variables, sorted; the parity of the
    /// negations is applied to the output instead.
    Xor(Lit, Lit),
    /// Positive select, then the then- and else-arm.
    Mux(Lit, Lit, Lit),
}

/// Lowers terms into an [`lr_sat::Solver`], memoizing per-term literal vectors.
///
/// The memo table is append-only: once a `TermId` has been lowered, its literal
/// vector is final. Growing the pool with new terms (as the incremental CEGIS loop
/// does between `check` calls) can only add entries, never change existing ones —
/// `TermId`s are never reused within a pool, so previously returned bits stay valid.
/// The gate table is append-only for the same reason: every gate's defining
/// clauses are unconditional and permanent, so its output literal stays valid for
/// every later query, assumption-guarded ones included.
#[derive(Debug, Default)]
pub(crate) struct BitBlaster {
    cache: HashMap<TermId, Vec<Lit>>,
    gates: HashMap<Gate, Lit>,
    var_bits: HashMap<String, Vec<Lit>>,
    true_lit: Option<Lit>,
    hits: u64,
    misses: u64,
}

impl BitBlaster {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The literal vectors of every variable encountered so far (used for model
    /// extraction).
    pub(crate) fn var_bits(&self) -> &HashMap<String, Vec<Lit>> {
        &self.var_bits
    }

    /// Cache counters for encoding-reuse reporting.
    pub(crate) fn stats(&self) -> BlastStats {
        BlastStats {
            cached_terms: self.cache.len(),
            cache_hits: self.hits,
            cache_misses: self.misses,
        }
    }

    /// A literal constrained to be true.
    pub(crate) fn true_lit(&mut self, sat: &mut Solver) -> Lit {
        if let Some(l) = self.true_lit {
            return l;
        }
        let l = Lit::pos(sat.new_var());
        sat.add_clause(&[l]);
        self.true_lit = Some(l);
        l
    }

    fn false_lit(&mut self, sat: &mut Solver) -> Lit {
        self.true_lit(sat).not()
    }

    fn fresh(&mut self, sat: &mut Solver) -> Lit {
        Lit::pos(sat.new_var())
    }

    // ----- gate encodings -----

    /// Folds `and(a, b)` when an input is constant or the inputs are equal or
    /// complementary; otherwise returns the one shared gate for the pair.
    fn and_gate(&mut self, sat: &mut Solver, a: Lit, b: Lit) -> Lit {
        if let Some(t) = self.true_lit {
            if a == t.not() || b == t.not() {
                return t.not();
            }
            if a == t {
                return b;
            }
            if b == t {
                return a;
            }
        }
        if a == b {
            return a;
        }
        if a == b.not() {
            return self.false_lit(sat);
        }
        let key = Gate::And(a.min(b), a.max(b));
        self.gate(sat, key)
    }

    fn or_gate(&mut self, sat: &mut Solver, a: Lit, b: Lit) -> Lit {
        self.and_gate(sat, a.not(), b.not()).not()
    }

    /// Folds `xor(a, b)` when an input is constant or the inputs are equal or
    /// complementary; otherwise returns the shared gate over the inputs'
    /// variables, negated when an odd number of inputs was negated.
    fn xor_gate(&mut self, sat: &mut Solver, a: Lit, b: Lit) -> Lit {
        if let Some(t) = self.true_lit {
            for (x, y) in [(a, b), (b, a)] {
                if x == t {
                    return y.not();
                }
                if x == t.not() {
                    return y;
                }
            }
        }
        if a == b {
            return self.false_lit(sat);
        }
        if a == b.not() {
            return self.true_lit(sat);
        }
        let (pa, pb) = (Lit::pos(a.var()), Lit::pos(b.var()));
        let o = self.gate(sat, Gate::Xor(pa.min(pb), pa.max(pb)));
        if a.is_neg() != b.is_neg() {
            o.not()
        } else {
            o
        }
    }

    /// Folds `sel ? then_ : else_` when the select is constant or the arms are
    /// equal, and lowers a mux with a constant arm to an and or an or (which fold
    /// two constant arms to the select or its negation); otherwise returns the
    /// shared gate under a positive select.
    fn mux_gate(&mut self, sat: &mut Solver, sel: Lit, then_: Lit, else_: Lit) -> Lit {
        if then_ == else_ {
            return then_;
        }
        if let Some(t) = self.true_lit {
            if sel == t {
                return then_;
            }
            if sel == t.not() {
                return else_;
            }
            if then_ == t {
                return self.or_gate(sat, sel, else_);
            }
            if then_ == t.not() {
                return self.and_gate(sat, sel.not(), else_);
            }
            if else_ == t {
                return self.or_gate(sat, sel.not(), then_);
            }
            if else_ == t.not() {
                return self.and_gate(sat, sel, then_);
            }
        }
        let key = if sel.is_neg() {
            Gate::Mux(sel.not(), else_, then_)
        } else {
            Gate::Mux(sel, then_, else_)
        };
        self.gate(sat, key)
    }

    /// The output literal of `key`: the gate made earlier for the same
    /// normalized inputs, or a fresh variable with its defining clauses.
    fn gate(&mut self, sat: &mut Solver, key: Gate) -> Lit {
        if let Some(&o) = self.gates.get(&key) {
            return o;
        }
        let o = self.fresh(sat);
        match key {
            Gate::And(a, b) => {
                sat.add_clause(&[o.not(), a]);
                sat.add_clause(&[o.not(), b]);
                sat.add_clause(&[o, a.not(), b.not()]);
            }
            Gate::Xor(a, b) => {
                sat.add_clause(&[o.not(), a, b]);
                sat.add_clause(&[o.not(), a.not(), b.not()]);
                sat.add_clause(&[o, a.not(), b]);
                sat.add_clause(&[o, a, b.not()]);
            }
            Gate::Mux(sel, then_, else_) => {
                sat.add_clause(&[sel.not(), then_.not(), o]);
                sat.add_clause(&[sel.not(), then_, o.not()]);
                sat.add_clause(&[sel, else_.not(), o]);
                sat.add_clause(&[sel, else_, o.not()]);
            }
        }
        self.gates.insert(key, o);
        o
    }

    /// Full adder: returns (sum, carry-out).
    fn full_adder(&mut self, sat: &mut Solver, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        let axb = self.xor_gate(sat, a, b);
        let sum = self.xor_gate(sat, axb, cin);
        let ab = self.and_gate(sat, a, b);
        let c_axb = self.and_gate(sat, axb, cin);
        let cout = self.or_gate(sat, ab, c_axb);
        (sum, cout)
    }

    /// Ripple-carry addition; returns (sum bits, final carry-out).
    fn adder(&mut self, sat: &mut Solver, a: &[Lit], b: &[Lit], mut carry: Lit) -> (Vec<Lit>, Lit) {
        debug_assert_eq!(a.len(), b.len());
        let mut out = Vec::with_capacity(a.len());
        for (&ai, &bi) in a.iter().zip(b.iter()) {
            let (s, c) = self.full_adder(sat, ai, bi, carry);
            out.push(s);
            carry = c;
        }
        (out, carry)
    }

    fn negate_bits(bits: &[Lit]) -> Vec<Lit> {
        bits.iter().map(|l| l.not()).collect()
    }

    /// Unsigned less-than via the carry-out of `a + !b + 1`.
    fn ult_lit(&mut self, sat: &mut Solver, a: &[Lit], b: &[Lit]) -> Lit {
        let not_b = Self::negate_bits(b);
        let one = self.true_lit(sat);
        let (_, carry) = self.adder(sat, a, &not_b, one);
        carry.not()
    }

    fn slt_lit(&mut self, sat: &mut Solver, a: &[Lit], b: &[Lit]) -> Lit {
        let n = a.len();
        if n == 1 {
            // For 1-bit vectors: signed values are 0 and -1, so a < b iff a=1 (=-1) and b=0.
            return self.and_gate(sat, a[0], b[0].not());
        }
        let a_sign = a[n - 1];
        let b_sign = b[n - 1];
        let ult = self.ult_lit(sat, a, b);
        // a < b (signed) iff (a_sign & !b_sign) | ((a_sign == b_sign) & ult(a, b)).
        let neg_pos = self.and_gate(sat, a_sign, b_sign.not());
        let same_sign = self.xor_gate(sat, a_sign, b_sign).not();
        let same_and_ult = self.and_gate(sat, same_sign, ult);
        self.or_gate(sat, neg_pos, same_and_ult)
    }

    fn eq_lit(&mut self, sat: &mut Solver, a: &[Lit], b: &[Lit]) -> Lit {
        let mut acc = self.true_lit(sat);
        for (&ai, &bi) in a.iter().zip(b.iter()) {
            let same = self.xor_gate(sat, ai, bi).not();
            acc = self.and_gate(sat, acc, same);
        }
        acc
    }

    fn mul_bits(&mut self, sat: &mut Solver, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let width = a.len();
        let f = self.false_lit(sat);
        let mut acc: Vec<Lit> = vec![f; width];
        for (i, &bi) in b.iter().enumerate() {
            if i >= width {
                break;
            }
            // addend = (a << i) AND-masked with b[i]
            let mut addend: Vec<Lit> = vec![f; width];
            for j in 0..width - i {
                addend[i + j] = self.and_gate(sat, a[j], bi);
            }
            let (sum, _) = self.adder(sat, &acc, &addend, f);
            acc = sum;
        }
        acc
    }

    /// Shifts `bits` by the (symbolic) amount, filling with `fill`.
    fn barrel_shift(
        &mut self,
        sat: &mut Solver,
        bits: &[Lit],
        amount: &[Lit],
        fill: Lit,
        left: bool,
    ) -> Vec<Lit> {
        let width = bits.len();
        let mut current: Vec<Lit> = bits.to_vec();
        for (k, &amt_bit) in amount.iter().enumerate() {
            let shift: u128 = 1u128 << k.min(100);
            let mut shifted: Vec<Lit> = Vec::with_capacity(width);
            for i in 0..width {
                let src: i128 =
                    if left { i as i128 - shift as i128 } else { i as i128 + shift as i128 };
                let val =
                    if src < 0 || src >= width as i128 { fill } else { current[src as usize] };
                shifted.push(val);
            }
            current =
                (0..width).map(|i| self.mux_gate(sat, amt_bit, shifted[i], current[i])).collect();
        }
        current
    }

    // ----- the term walk -----

    /// Bit-blasts `id`, returning its literal vector (LSB first).
    ///
    /// The walk is an explicit post-order stack that lowers operands left to
    /// right, so a term's depth costs heap, not call stack.
    pub(crate) fn blast(&mut self, pool: &TermPool, sat: &mut Solver, id: TermId) -> Vec<Lit> {
        // Each entry is a term and whether its operands are lowered already.
        let mut stack = vec![(id, false)];
        while let Some((t, operands_ready)) = stack.pop() {
            if !operands_ready {
                if self.cache.contains_key(&t) {
                    self.hits += 1;
                    continue;
                }
                self.misses += 1;
            }
            let bits = match pool.term(t) {
                Term::Const(bv) => {
                    let one = self.true_lit(sat);
                    bv.bits_lsb_first().map(|b| if b { one } else { one.not() }).collect()
                }
                Term::Var { name, width } => match self.var_bits.get(name) {
                    Some(bits) => bits.clone(),
                    None => {
                        let bits: Vec<Lit> = (0..*width).map(|_| self.fresh(sat)).collect();
                        self.var_bits.insert(name.clone(), bits.clone());
                        bits
                    }
                },
                Term::Op { args, .. } if !operands_ready => {
                    stack.push((t, true));
                    stack.extend(args.iter().rev().map(|&a| (a, false)));
                    continue;
                }
                Term::Op { op, args, width } => {
                    let arg_bits: Vec<Vec<Lit>> =
                        args.iter().map(|a| self.cache[a].clone()).collect();
                    self.blast_op(sat, *op, &arg_bits, *width)
                }
            };
            self.cache.insert(t, bits);
        }
        self.cache[&id].clone()
    }

    fn blast_op(
        &mut self,
        sat: &mut Solver,
        op: BvOp,
        arg_bits: &[Vec<Lit>],
        width: u32,
    ) -> Vec<Lit> {
        let f = self.false_lit(sat);
        match op {
            BvOp::Not => Self::negate_bits(&arg_bits[0]),
            BvOp::Neg => {
                let inverted = Self::negate_bits(&arg_bits[0]);
                let zero: Vec<Lit> = vec![f; inverted.len()];
                let one = self.true_lit(sat);
                let (sum, _) = self.adder(sat, &inverted, &zero, one);
                sum
            }
            BvOp::And => arg_bits[0]
                .iter()
                .zip(&arg_bits[1])
                .map(|(&a, &b)| self.and_gate(sat, a, b))
                .collect(),
            BvOp::Or => arg_bits[0]
                .iter()
                .zip(&arg_bits[1])
                .map(|(&a, &b)| self.or_gate(sat, a, b))
                .collect(),
            BvOp::Xor => arg_bits[0]
                .iter()
                .zip(&arg_bits[1])
                .map(|(&a, &b)| self.xor_gate(sat, a, b))
                .collect(),
            BvOp::Add => {
                let (sum, _) = self.adder(sat, &arg_bits[0], &arg_bits[1], f);
                sum
            }
            BvOp::Sub => {
                let not_b = Self::negate_bits(&arg_bits[1]);
                let one = self.true_lit(sat);
                let (sum, _) = self.adder(sat, &arg_bits[0], &not_b, one);
                sum
            }
            BvOp::Mul => self.mul_bits(sat, &arg_bits[0], &arg_bits[1]),
            BvOp::Udiv | BvOp::Urem => self.blast_division(sat, op, &arg_bits[0], &arg_bits[1]),
            BvOp::Shl => self.barrel_shift(sat, &arg_bits[0], &arg_bits[1], f, true),
            BvOp::Lshr => self.barrel_shift(sat, &arg_bits[0], &arg_bits[1], f, false),
            BvOp::Ashr => {
                let sign = *arg_bits[0].last().expect("non-empty");
                self.barrel_shift(sat, &arg_bits[0], &arg_bits[1], sign, false)
            }
            BvOp::Concat => {
                // args[0] is the high part: result (LSB first) = bits(args[1]) ++ bits(args[0]).
                let mut out = arg_bits[1].clone();
                out.extend_from_slice(&arg_bits[0]);
                out
            }
            BvOp::Extract { hi, lo } => arg_bits[0][lo as usize..=hi as usize].to_vec(),
            BvOp::ZeroExt { .. } => {
                let mut out = arg_bits[0].clone();
                out.resize(width as usize, f);
                out
            }
            BvOp::SignExt { .. } => {
                let sign = *arg_bits[0].last().expect("non-empty");
                let mut out = arg_bits[0].clone();
                out.resize(width as usize, sign);
                out
            }
            BvOp::Eq => vec![self.eq_lit(sat, &arg_bits[0], &arg_bits[1])],
            BvOp::Ult => vec![self.ult_lit(sat, &arg_bits[0], &arg_bits[1])],
            BvOp::Ule => {
                let gt = self.ult_lit(sat, &arg_bits[1], &arg_bits[0]);
                vec![gt.not()]
            }
            BvOp::Slt => vec![self.slt_lit(sat, &arg_bits[0], &arg_bits[1])],
            BvOp::Sle => {
                let gt = self.slt_lit(sat, &arg_bits[1], &arg_bits[0]);
                vec![gt.not()]
            }
            BvOp::Ite => {
                let cond = arg_bits[0][0];
                arg_bits[1]
                    .iter()
                    .zip(&arg_bits[2])
                    .map(|(&t, &e)| self.mux_gate(sat, cond, t, e))
                    .collect()
            }
            BvOp::RedOr => {
                let mut acc = f;
                for &b in &arg_bits[0] {
                    acc = self.or_gate(sat, acc, b);
                }
                vec![acc]
            }
            BvOp::RedAnd => {
                let mut acc = self.true_lit(sat);
                for &b in &arg_bits[0] {
                    acc = self.and_gate(sat, acc, b);
                }
                vec![acc]
            }
            BvOp::RedXor => {
                let mut acc = f;
                for &b in &arg_bits[0] {
                    acc = self.xor_gate(sat, acc, b);
                }
                vec![acc]
            }
        }
    }

    /// Division/remainder via the defining constraints:
    /// if `b != 0` then `q * b + r == a` and `r < b`; if `b == 0` then `q == ~0`, `r == a`.
    fn blast_division(&mut self, sat: &mut Solver, op: BvOp, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let width = a.len();
        let f = self.false_lit(sat);
        let q: Vec<Lit> = (0..width).map(|_| self.fresh(sat)).collect();
        let r: Vec<Lit> = (0..width).map(|_| self.fresh(sat)).collect();
        // b_is_zero
        let mut b_nonzero = f;
        for &bit in b {
            b_nonzero = self.or_gate(sat, b_nonzero, bit);
        }
        // q*b + r == a, computed at double width so that a wrapping (q, r) pair cannot
        // masquerade as a valid division result.
        let widen = |bits: &[Lit]| -> Vec<Lit> {
            let mut wide = bits.to_vec();
            wide.resize(2 * width, f);
            wide
        };
        let (q2, b2, r2, a2) = (widen(&q), widen(b), widen(&r), widen(a));
        let qb = self.mul_bits(sat, &q2, &b2);
        let (qbr, _) = self.adder(sat, &qb, &r2, f);
        let product_ok = self.eq_lit(sat, &qbr, &a2);
        let r_lt_b = self.ult_lit(sat, &r, b);
        let both = self.and_gate(sat, product_ok, r_lt_b);
        // b != 0 -> (product_ok && r < b)
        sat.add_clause(&[b_nonzero.not(), both]);
        // b == 0 -> q == ~0 and r == a
        let q_all_ones = {
            let mut acc = self.true_lit(sat);
            for &bit in &q {
                acc = self.and_gate(sat, acc, bit);
            }
            acc
        };
        let r_eq_a = self.eq_lit(sat, &r, a);
        sat.add_clause(&[b_nonzero, q_all_ones]);
        sat.add_clause(&[b_nonzero, r_eq_a]);
        match op {
            BvOp::Udiv => q,
            BvOp::Urem => r,
            _ => unreachable!(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_bv::BitVec;
    use lr_sat::SolveResult;

    /// Asserts a 1-bit term and checks the expected SAT verdict.
    fn check_formula(build: impl FnOnce(&mut TermPool) -> TermId, expect_sat: bool) {
        let mut pool = TermPool::new();
        let t = build(&mut pool);
        let mut sat = Solver::new();
        let mut blaster = BitBlaster::new();
        let bits = blaster.blast(&pool, &mut sat, t);
        assert_eq!(bits.len(), 1);
        sat.add_clause(&[bits[0]]);
        let result = sat.solve();
        assert_eq!(result, if expect_sat { SolveResult::Sat } else { SolveResult::Unsat });
    }

    #[test]
    fn simple_equation_is_sat() {
        check_formula(
            |pool| {
                let x = pool.var("x", 8);
                let five = pool.constant(BitVec::from_u64(5, 8));
                let sum = pool.add(x, five);
                let twelve = pool.constant(BitVec::from_u64(12, 8));
                pool.eq(sum, twelve)
            },
            true,
        );
    }

    #[test]
    fn contradiction_is_unsat() {
        check_formula(
            |pool| {
                let x = pool.var("x", 8);
                let y = pool.var("y", 8);
                let eq = pool.eq(x, y);
                let ne = pool.ne(x, y);
                pool.and(eq, ne)
            },
            false,
        );
    }

    #[test]
    fn addition_is_commutative_by_sat() {
        // !(x + y == y + x) must be UNSAT. Use a non-simplifying pool so the check
        // actually exercises the adder encoding.
        let mut pool = TermPool::without_simplification();
        let x = pool.var("x", 6);
        let y = pool.var("y", 6);
        let xy = pool.mk_op(BvOp::Add, vec![x, y]);
        let yx = pool.mk_op(BvOp::Add, vec![y, x]);
        let eq = pool.mk_op(BvOp::Eq, vec![xy, yx]);
        let ne = pool.mk_op(BvOp::Not, vec![eq]);
        let mut sat = Solver::new();
        let mut blaster = BitBlaster::new();
        let bits = blaster.blast(&pool, &mut sat, ne);
        sat.add_clause(&[bits[0]]);
        assert_eq!(sat.solve(), SolveResult::Unsat);
    }

    #[test]
    fn multiplication_distributes_by_sat() {
        // !(a*(b+c) == a*b + a*c) must be UNSAT at 4 bits.
        let mut pool = TermPool::without_simplification();
        let a = pool.var("a", 4);
        let b = pool.var("b", 4);
        let c = pool.var("c", 4);
        let bc = pool.mk_op(BvOp::Add, vec![b, c]);
        let lhs = pool.mk_op(BvOp::Mul, vec![a, bc]);
        let ab = pool.mk_op(BvOp::Mul, vec![a, b]);
        let ac = pool.mk_op(BvOp::Mul, vec![a, c]);
        let rhs = pool.mk_op(BvOp::Add, vec![ab, ac]);
        let eq = pool.mk_op(BvOp::Eq, vec![lhs, rhs]);
        let ne = pool.mk_op(BvOp::Not, vec![eq]);
        let mut sat = Solver::new();
        let mut blaster = BitBlaster::new();
        let bits = blaster.blast(&pool, &mut sat, ne);
        sat.add_clause(&[bits[0]]);
        assert_eq!(sat.solve(), SolveResult::Unsat);
    }

    #[test]
    fn division_constraints_hold() {
        // x / 3 == 4 && x % 3 == 1  has the solution x == 13.
        let mut pool = TermPool::new();
        let x = pool.var("x", 8);
        let three = pool.constant(BitVec::from_u64(3, 8));
        let four = pool.constant(BitVec::from_u64(4, 8));
        let one = pool.constant(BitVec::from_u64(1, 8));
        let q = pool.udiv(x, three);
        let r = pool.urem(x, three);
        let qe = pool.eq(q, four);
        let re = pool.eq(r, one);
        let both = pool.and(qe, re);

        let mut sat = Solver::new();
        let mut blaster = BitBlaster::new();
        let bits = blaster.blast(&pool, &mut sat, both);
        sat.add_clause(&[bits[0]]);
        assert_eq!(sat.solve(), SolveResult::Sat);
        let xbits = &blaster.var_bits()["x"];
        let value: Vec<bool> = xbits.iter().map(|l| l.eval(sat.value(l.var()).unwrap())).collect();
        assert_eq!(BitVec::from_bits_lsb_first(&value), BitVec::from_u64(13, 8));
    }

    /// The CNF one assertion lowers to: variable count, problem-clause count and
    /// an FNV-1a hash of its DIMACS text.
    fn encoding(build: impl FnOnce(&mut TermPool) -> TermId) -> (usize, usize, u64) {
        let mut pool = TermPool::without_simplification();
        let t = build(&mut pool);
        let mut sat = Solver::new();
        let bits = BitBlaster::new().blast(&pool, &mut sat, t);
        sat.add_clause(&[bits[0]]);
        let hash = sat
            .to_dimacs()
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3));
        (sat.num_vars(), sat.num_clauses(), hash)
    }

    #[test]
    fn the_encoding_is_pinned() {
        // Unsimplified pools, so the gates themselves see the constants and the
        // repeated operands. A change to any gate rule moves these numbers and
        // the search with them (see the module docs).
        fn c(pool: &mut TermPool, v: u64, w: u32) -> TermId {
            pool.constant(BitVec::from_u64(v, w))
        }
        type Case = (&'static str, fn(&mut TermPool) -> TermId, (usize, usize, u64));
        let cases: [Case; 6] = [
            (
                "constants",
                |p| {
                    let x = p.var("x", 8);
                    let k = c(p, 0xa5, 8);
                    let m = p.mk_op(BvOp::And, vec![x, k]);
                    let f = c(p, 0x0f, 8);
                    let o = p.mk_op(BvOp::Or, vec![x, f]);
                    let t = p.mk_op(BvOp::Xor, vec![m, o]);
                    let r = c(p, 0x5a, 8);
                    p.mk_op(BvOp::Eq, vec![t, r])
                },
                (12, 9, 5236141336351174191),
            ),
            (
                "shared subterm",
                |p| {
                    let (x, y) = (p.var("x", 8), p.var("y", 8));
                    let s = p.mk_op(BvOp::Add, vec![x, y]);
                    let t = p.mk_op(BvOp::Xor, vec![s, y]);
                    let u = p.mk_op(BvOp::Add, vec![s, t]);
                    let v = p.mk_op(BvOp::And, vec![s, s]);
                    let w = p.mk_op(BvOp::Sub, vec![u, v]);
                    p.mk_op(BvOp::Eq, vec![w, x])
                },
                (152, 466, 13034951557031580066),
            ),
            (
                "ite over constants",
                |p| {
                    let (x, y) = (p.var("x", 8), p.var("y", 8));
                    let sel = p.mk_op(BvOp::Ult, vec![x, y]);
                    let (three, twelve, zero) = (c(p, 3, 8), c(p, 12, 8), c(p, 0, 8));
                    let a = p.mk_op(BvOp::Ite, vec![sel, three, twelve]);
                    let b = p.mk_op(BvOp::Ite, vec![sel, x, zero]);
                    let d = p.mk_op(BvOp::Ite, vec![sel, three, three]);
                    let s = p.mk_op(BvOp::Add, vec![a, b]);
                    let t = p.mk_op(BvOp::Add, vec![s, d]);
                    p.mk_op(BvOp::Eq, vec![t, y])
                },
                (118, 344, 5501743658002646670),
            ),
            (
                "multiply",
                |p| {
                    let (x, y) = (p.var("x", 8), p.var("y", 8));
                    let five = c(p, 5, 8);
                    let a = p.mk_op(BvOp::Mul, vec![x, five]);
                    let b = p.mk_op(BvOp::Mul, vec![x, y]);
                    p.mk_op(BvOp::Eq, vec![a, b])
                },
                (214, 659, 2003697674913175209),
            ),
            (
                "comparison",
                |p| {
                    let (x, y) = (p.var("x", 8), p.var("y", 8));
                    let k = c(p, 200, 8);
                    let lt = p.mk_op(BvOp::Slt, vec![x, y]);
                    let le = p.mk_op(BvOp::Ule, vec![x, k]);
                    p.mk_op(BvOp::And, vec![lt, le])
                },
                (75, 196, 13392995448420939674),
            ),
            (
                "shift",
                |p| {
                    let (x, y) = (p.var("x", 8), p.var("y", 8));
                    let two = c(p, 2, 8);
                    let a = p.mk_op(BvOp::Shl, vec![x, y]);
                    let b = p.mk_op(BvOp::Ashr, vec![x, two]);
                    let d = p.mk_op(BvOp::Lshr, vec![a, b]);
                    p.mk_op(BvOp::Ult, vec![d, x])
                },
                (183, 547, 12235648278345332112),
            ),
        ];
        for (name, build, pinned) in cases {
            assert_eq!(encoding(build), pinned, "{name}");
        }
    }

    #[test]
    fn a_deep_chain_blasts_on_a_small_stack() {
        // 100 000 alternating xor/add levels over two 2-bit inputs: a recursive
        // walk would need one frame per level and overflow a 256 KiB stack.
        let run = || {
            let mut pool = TermPool::without_simplification();
            let (a, b) = (pool.var("a", 2), pool.var("b", 2));
            let mut t = a;
            for level in 0..100_000 {
                t = match level % 2 {
                    0 => pool.mk_op(BvOp::Xor, vec![t, a]),
                    _ => pool.mk_op(BvOp::Add, vec![t, b]),
                };
            }
            let three = pool.constant(BitVec::from_u64(3, 2));
            let eq = pool.mk_op(BvOp::Eq, vec![t, three]);
            let mut solver = crate::BvSolver::new();
            solver.assert_true(&pool, eq);
            solver.check(&pool)
        };
        let small = std::thread::Builder::new().stack_size(256 * 1024).spawn(run).unwrap();
        assert_eq!(small.join().unwrap(), crate::SatResult::Sat);
    }

    #[test]
    fn barrel_shift_matches_semantics() {
        // (1 << s) == 8 forces s == 3.
        let mut pool = TermPool::new();
        let s = pool.var("s", 4);
        let one = pool.constant(BitVec::from_u64(1, 4));
        let eight = pool.constant(BitVec::from_u64(8, 4));
        let shifted = pool.shl(one, s);
        let eq = pool.eq(shifted, eight);
        let mut sat = Solver::new();
        let mut blaster = BitBlaster::new();
        let bits = blaster.blast(&pool, &mut sat, eq);
        sat.add_clause(&[bits[0]]);
        assert_eq!(sat.solve(), SolveResult::Sat);
        let sbits = &blaster.var_bits()["s"];
        let value: Vec<bool> = sbits.iter().map(|l| l.eval(sat.value(l.var()).unwrap())).collect();
        assert_eq!(BitVec::from_bits_lsb_first(&value), BitVec::from_u64(3, 4));
    }
}
