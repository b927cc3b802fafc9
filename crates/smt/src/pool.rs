//! The hash-consed term pool and its rewriting constructors.

use std::collections::HashMap;

use lr_bv::BitVec;

use crate::eval::apply_op;
use crate::op::BvOp;

/// A handle to a term in a [`TermPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub(crate) u32);

impl TermId {
    /// The dense index of this term within its pool.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A term node. Obtain these from [`TermPool::term`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A constant bitvector.
    Const(BitVec),
    /// A free variable with a name and width.
    Var {
        /// Variable name; unique within a pool.
        name: String,
        /// Width in bits.
        width: u32,
    },
    /// An operator applied to other terms.
    Op {
        /// The operator.
        op: BvOp,
        /// Operand term ids.
        args: Vec<TermId>,
        /// Result width in bits.
        width: u32,
    },
}

/// Counters describing pool behaviour (used by the ablation benchmarks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Number of distinct term nodes allocated.
    pub nodes: u64,
    /// Number of constructor calls answered from the hash-cons table.
    pub cons_hits: u64,
    /// Number of constructor calls answered by a rewrite rule.
    pub rewrite_hits: u64,
}

/// A hash-consed pool of QF_BV terms with constructor-time rewriting.
///
/// All term construction goes through this type. By default every constructor
/// applies local simplification rules (constant folding, identities, commutative
/// normalization); [`TermPool::without_simplification`] disables them, which the
/// ablation benchmark uses to quantify their effect.
#[derive(Debug, Clone)]
pub struct TermPool {
    terms: Vec<Term>,
    dedup: HashMap<Term, TermId>,
    vars: HashMap<String, TermId>,
    simplify: bool,
    stats: PoolStats,
}

impl Default for TermPool {
    fn default() -> Self {
        Self::new()
    }
}

impl TermPool {
    /// Creates an empty pool with simplification enabled.
    pub fn new() -> Self {
        TermPool {
            terms: Vec::new(),
            dedup: HashMap::new(),
            vars: HashMap::new(),
            simplify: true,
            stats: PoolStats::default(),
        }
    }

    /// Creates a pool that performs no constructor-time rewriting (hash-consing is
    /// still performed). Used by the rewriting ablation.
    pub fn without_simplification() -> Self {
        TermPool { simplify: false, ..Self::new() }
    }

    /// Whether constructor-time rewriting is enabled.
    pub fn simplification_enabled(&self) -> bool {
        self.simplify
    }

    /// Pool statistics.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Number of distinct term nodes in the pool.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the pool contains no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The term node behind an id.
    ///
    /// # Panics
    /// Panics if the id comes from a different pool.
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.index()]
    }

    /// The width in bits of a term.
    pub fn width(&self, id: TermId) -> u32 {
        match self.term(id) {
            Term::Const(bv) => bv.width(),
            Term::Var { width, .. } => *width,
            Term::Op { width, .. } => *width,
        }
    }

    /// If the term is a constant, its value.
    pub fn as_const(&self, id: TermId) -> Option<&BitVec> {
        match self.term(id) {
            Term::Const(bv) => Some(bv),
            _ => None,
        }
    }

    fn intern(&mut self, term: Term) -> TermId {
        if let Some(&id) = self.dedup.get(&term) {
            self.stats.cons_hits += 1;
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(term.clone());
        self.dedup.insert(term, id);
        self.stats.nodes += 1;
        id
    }

    /// Creates (or retrieves) a constant term.
    pub fn constant(&mut self, value: BitVec) -> TermId {
        self.intern(Term::Const(value))
    }

    /// A zero constant of the given width.
    pub fn zero(&mut self, width: u32) -> TermId {
        self.constant(BitVec::zeros(width))
    }

    /// An all-ones constant of the given width.
    pub fn all_ones(&mut self, width: u32) -> TermId {
        self.constant(BitVec::ones(width))
    }

    /// The 1-bit constant true.
    pub fn true_(&mut self) -> TermId {
        self.constant(BitVec::from_bool(true))
    }

    /// The 1-bit constant false.
    pub fn false_(&mut self) -> TermId {
        self.constant(BitVec::from_bool(false))
    }

    /// The 1-bit constant for `b`.
    pub fn bool_const(&mut self, b: bool) -> TermId {
        self.constant(BitVec::from_bool(b))
    }

    /// Creates (or retrieves) a free variable.
    ///
    /// # Panics
    /// Panics if a variable with the same name but a different width already exists.
    pub fn var(&mut self, name: &str, width: u32) -> TermId {
        if let Some(&id) = self.vars.get(name) {
            assert_eq!(
                self.width(id),
                width,
                "variable `{name}` redeclared with a different width"
            );
            return id;
        }
        let id = self.intern(Term::Var { name: name.to_string(), width });
        self.vars.insert(name.to_string(), id);
        id
    }

    /// Looks up an existing variable by name.
    pub fn lookup_var(&self, name: &str) -> Option<TermId> {
        self.vars.get(name).copied()
    }

    // ----- generic operator construction -----

    fn result_width(&self, op: BvOp, args: &[TermId]) -> u32 {
        let w = |i: usize| self.width(args[i]);
        match op {
            BvOp::Not | BvOp::Neg => w(0),
            BvOp::And
            | BvOp::Or
            | BvOp::Xor
            | BvOp::Add
            | BvOp::Sub
            | BvOp::Mul
            | BvOp::Udiv
            | BvOp::Urem
            | BvOp::Shl
            | BvOp::Lshr
            | BvOp::Ashr => {
                assert_eq!(w(0), w(1), "{op}: operand width mismatch");
                w(0)
            }
            BvOp::Concat => w(0) + w(1),
            BvOp::Extract { hi, lo } => {
                assert!(
                    hi >= lo && hi < w(0),
                    "extract[{hi}:{lo}] out of range for width {}",
                    w(0)
                );
                hi - lo + 1
            }
            BvOp::ZeroExt { width } | BvOp::SignExt { width } => {
                assert!(width >= w(0), "extension cannot shrink");
                width
            }
            BvOp::Eq | BvOp::Ult | BvOp::Ule | BvOp::Slt | BvOp::Sle => {
                assert_eq!(w(0), w(1), "{op}: operand width mismatch");
                1
            }
            BvOp::RedOr | BvOp::RedAnd | BvOp::RedXor => 1,
            BvOp::Ite => {
                assert_eq!(w(0), 1, "ite condition must be 1 bit");
                assert_eq!(w(1), w(2), "ite branches must have equal widths");
                w(1)
            }
        }
    }

    /// Builds `op(args)`, applying rewriting and hash-consing.
    pub fn mk_op(&mut self, op: BvOp, args: Vec<TermId>) -> TermId {
        assert_eq!(args.len(), op.arity(), "{op}: wrong arity");
        let width = self.result_width(op, &args);
        if self.simplify {
            if let Some(id) = self.try_rewrite(op, &args, width) {
                self.stats.rewrite_hits += 1;
                return id;
            }
        }
        let mut args = args;
        if op.is_commutative() && args.len() == 2 && args[0] > args[1] {
            args.swap(0, 1);
        }
        self.intern(Term::Op { op, args, width })
    }

    fn try_fold(&mut self, op: BvOp, args: &[TermId]) -> Option<TermId> {
        let consts: Option<Vec<BitVec>> = args.iter().map(|&a| self.as_const(a).cloned()).collect();
        let consts = consts?;
        let refs: Vec<&BitVec> = consts.iter().collect();
        let value = apply_op(op, &refs);
        Some(self.constant(value))
    }

    fn is_zero_const(&self, id: TermId) -> bool {
        self.as_const(id).map(|b| b.is_zero()).unwrap_or(false)
    }

    fn is_ones_const(&self, id: TermId) -> bool {
        self.as_const(id).map(|b| b.is_all_ones()).unwrap_or(false)
    }

    fn is_one_const(&self, id: TermId) -> bool {
        self.as_const(id).map(|b| b.to_u64() == Some(1)).unwrap_or(false)
    }

    fn try_rewrite(&mut self, op: BvOp, args: &[TermId], width: u32) -> Option<TermId> {
        if let Some(folded) = self.try_fold(op, args) {
            return Some(folded);
        }
        match op {
            BvOp::And => {
                let (a, b) = (args[0], args[1]);
                if a == b {
                    return Some(a);
                }
                if self.is_zero_const(a) || self.is_zero_const(b) {
                    return Some(self.zero(width));
                }
                if self.is_ones_const(a) {
                    return Some(b);
                }
                if self.is_ones_const(b) {
                    return Some(a);
                }
            }
            BvOp::Or => {
                let (a, b) = (args[0], args[1]);
                if a == b {
                    return Some(a);
                }
                if self.is_ones_const(a) || self.is_ones_const(b) {
                    return Some(self.all_ones(width));
                }
                if self.is_zero_const(a) {
                    return Some(b);
                }
                if self.is_zero_const(b) {
                    return Some(a);
                }
            }
            BvOp::Xor => {
                let (a, b) = (args[0], args[1]);
                if a == b {
                    return Some(self.zero(width));
                }
                if self.is_zero_const(a) {
                    return Some(b);
                }
                if self.is_zero_const(b) {
                    return Some(a);
                }
            }
            BvOp::Add => {
                let (a, b) = (args[0], args[1]);
                if self.is_zero_const(a) {
                    return Some(b);
                }
                if self.is_zero_const(b) {
                    return Some(a);
                }
                // (t + c₁) + c₂ → t + (c₁ + c₂): float constants together so they
                // fold. DSP ALU forms produce chains like ((x + 0xff) + 0x01).
                for (c, t) in [(a, b), (b, a)] {
                    if self.as_const(c).is_none() {
                        continue;
                    }
                    match self.term(t).clone() {
                        Term::Op { op: BvOp::Add, args: inner, .. } => {
                            for (ci, ti) in [(inner[0], inner[1]), (inner[1], inner[0])] {
                                if self.as_const(ci).is_some() {
                                    let folded = self.mk_op(BvOp::Add, vec![ci, c]);
                                    return Some(self.mk_op(BvOp::Add, vec![ti, folded]));
                                }
                            }
                        }
                        // (c₁ − u) + c₂ → (c₁ + c₂) − u.
                        Term::Op { op: BvOp::Sub, args: inner, .. }
                            if self.as_const(inner[0]).is_some() =>
                        {
                            let folded = self.mk_op(BvOp::Add, vec![inner[0], c]);
                            return Some(self.mk_op(BvOp::Sub, vec![folded, inner[1]]));
                        }
                        _ => {}
                    }
                }
                // x + (−y) → x − y: cancels the negate/carry-in encodings DSP ALUs
                // use for subtraction, so candidates normalize to the spec's form.
                for (x, y) in [(a, b), (b, a)] {
                    if let Term::Op { op: BvOp::Neg, args: inner, .. } = self.term(y).clone() {
                        return Some(self.mk_op(BvOp::Sub, vec![x, inner[0]]));
                    }
                }
            }
            BvOp::Sub => {
                let (a, b) = (args[0], args[1]);
                if a == b {
                    return Some(self.zero(width));
                }
                if self.is_zero_const(b) {
                    return Some(a);
                }
                // 0 − x → −x.
                if self.is_zero_const(a) {
                    return Some(self.mk_op(BvOp::Neg, vec![b]));
                }
                // x − (−y) → x + y.
                if let Term::Op { op: BvOp::Neg, args: inner, .. } = self.term(b).clone() {
                    return Some(self.mk_op(BvOp::Add, vec![a, inner[0]]));
                }
                // x − c → x + (−c): subtraction of a constant joins the additive
                // constant chains, where re-association folds it.
                if self.as_const(b).is_some() {
                    let negated = self.mk_op(BvOp::Neg, vec![b]);
                    return Some(self.mk_op(BvOp::Add, vec![a, negated]));
                }
                // Canonical operand order: x − y → −(y − x) when the ids are out of
                // order, so mirrored subtractions (a − b vs. b − a, as produced by
                // swapped DSP port bindings) meet at one node and cancel via the
                // negation rules.
                if a > b && self.as_const(a).is_none() {
                    let flipped = self.mk_op(BvOp::Sub, vec![b, a]);
                    return Some(self.mk_op(BvOp::Neg, vec![flipped]));
                }
            }
            BvOp::Mul => {
                let (a, b) = (args[0], args[1]);
                if self.is_zero_const(a) || self.is_zero_const(b) {
                    return Some(self.zero(width));
                }
                if self.is_one_const(a) {
                    return Some(b);
                }
                if self.is_one_const(b) {
                    return Some(a);
                }
                // (−x) · y → −(x · y): pull negations above multiplies so they meet
                // (and cancel against) the negations the ALU forms introduce.
                for (x, y) in [(a, b), (b, a)] {
                    if let Term::Op { op: BvOp::Neg, args: inner, .. } = self.term(x).clone() {
                        let prod = self.mk_op(BvOp::Mul, vec![inner[0], y]);
                        return Some(self.mk_op(BvOp::Neg, vec![prod]));
                    }
                }
            }
            BvOp::Shl | BvOp::Lshr | BvOp::Ashr if self.is_zero_const(args[1]) => {
                return Some(args[0]);
            }
            BvOp::Not => {
                if let Term::Op { op: BvOp::Not, args: inner, .. } = self.term(args[0]) {
                    return Some(inner[0]);
                }
            }
            BvOp::Neg => {
                if let Term::Op { op: BvOp::Neg, args: inner, .. } = self.term(args[0]) {
                    return Some(inner[0]);
                }
            }
            BvOp::Eq if args[0] == args[1] => {
                return Some(self.true_());
            }
            BvOp::Ult if args[0] == args[1] => {
                return Some(self.false_());
            }
            BvOp::Slt if args[0] == args[1] => {
                return Some(self.false_());
            }
            BvOp::Ule | BvOp::Sle if args[0] == args[1] => {
                return Some(self.true_());
            }
            BvOp::Ite => {
                let (c, t, e) = (args[0], args[1], args[2]);
                if t == e {
                    return Some(t);
                }
                if let Some(cv) = self.as_const(c) {
                    return Some(if cv.is_zero() { e } else { t });
                }
            }
            BvOp::ZeroExt { width: new_width } | BvOp::SignExt { width: new_width } => {
                if self.width(args[0]) == new_width {
                    return Some(args[0]);
                }
                // zext(zext(x)) / sext(sext(x)) compose.
                if let Term::Op { op: inner_op, args: inner, .. } = self.term(args[0]).clone() {
                    match (op, inner_op) {
                        (BvOp::ZeroExt { .. }, BvOp::ZeroExt { .. }) => {
                            return Some(
                                self.mk_op(BvOp::ZeroExt { width: new_width }, vec![inner[0]]),
                            );
                        }
                        (BvOp::SignExt { .. }, BvOp::SignExt { .. }) => {
                            return Some(
                                self.mk_op(BvOp::SignExt { width: new_width }, vec![inner[0]]),
                            );
                        }
                        _ => {}
                    }
                }
            }
            BvOp::Extract { hi, lo } => {
                let arg = args[0];
                if lo == 0 && hi + 1 == self.width(arg) {
                    return Some(arg);
                }
                // Low-bit narrowing: `extract[k:0]` distributes over operators whose
                // low result bits depend only on low operand bits. This is what lets
                // a correct DSP configuration (computing at 48 bits and truncating)
                // normalize to the same term as the behavioral spec (computing at the
                // design width), so that verification succeeds without touching the
                // SAT solver — the role Rosette's partial evaluation plays in the
                // original system.
                if lo == 0 {
                    if let Term::Op { op: inner_op, args: inner, .. } = self.term(arg).clone() {
                        match inner_op {
                            BvOp::Add
                            | BvOp::Sub
                            | BvOp::Mul
                            | BvOp::And
                            | BvOp::Or
                            | BvOp::Xor => {
                                let a = self.mk_op(BvOp::Extract { hi, lo: 0 }, vec![inner[0]]);
                                let b = self.mk_op(BvOp::Extract { hi, lo: 0 }, vec![inner[1]]);
                                return Some(self.mk_op(inner_op, vec![a, b]));
                            }
                            BvOp::Not | BvOp::Neg => {
                                let a = self.mk_op(BvOp::Extract { hi, lo: 0 }, vec![inner[0]]);
                                return Some(self.mk_op(inner_op, vec![a]));
                            }
                            BvOp::Ite => {
                                let t = self.mk_op(BvOp::Extract { hi, lo: 0 }, vec![inner[1]]);
                                let e = self.mk_op(BvOp::Extract { hi, lo: 0 }, vec![inner[2]]);
                                return Some(self.mk_op(BvOp::Ite, vec![inner[0], t, e]));
                            }
                            BvOp::Shl => {
                                // Low bits of a left shift depend only on low bits of
                                // the value, provided the (constant) amount still
                                // fits in the narrowed width.
                                if let Some(amount) =
                                    self.as_const(inner[1]).and_then(|a| a.to_u64())
                                {
                                    if amount > u64::from(hi) {
                                        return Some(self.zero(width));
                                    }
                                    let narrowed_amount =
                                        self.constant(lr_bv::BitVec::from_u64(amount, hi + 1));
                                    let a = self.mk_op(BvOp::Extract { hi, lo: 0 }, vec![inner[0]]);
                                    return Some(self.mk_op(BvOp::Shl, vec![a, narrowed_amount]));
                                }
                            }
                            _ => {}
                        }
                    }
                }
                match self.term(arg).clone() {
                    // extract of extract composes.
                    Term::Op { op: BvOp::Extract { lo: lo2, .. }, args: inner, .. } => {
                        return Some(
                            self.mk_op(
                                BvOp::Extract { hi: hi + lo2, lo: lo + lo2 },
                                vec![inner[0]],
                            ),
                        );
                    }
                    // extract entirely within one side of a concat.
                    Term::Op { op: BvOp::Concat, args: inner, .. } => {
                        let lo_width = self.width(inner[1]);
                        if hi < lo_width {
                            return Some(self.mk_op(BvOp::Extract { hi, lo }, vec![inner[1]]));
                        }
                        if lo >= lo_width {
                            return Some(self.mk_op(
                                BvOp::Extract { hi: hi - lo_width, lo: lo - lo_width },
                                vec![inner[0]],
                            ));
                        }
                    }
                    // extract entirely within the original operand of a zero/sign extension.
                    Term::Op {
                        op: BvOp::ZeroExt { .. } | BvOp::SignExt { .. },
                        args: inner,
                        ..
                    } => {
                        let orig_width = self.width(inner[0]);
                        if hi < orig_width {
                            return Some(self.mk_op(BvOp::Extract { hi, lo }, vec![inner[0]]));
                        }
                        if let Term::Op { op: BvOp::ZeroExt { .. }, .. } = self.term(arg) {
                            if lo >= orig_width {
                                return Some(self.zero(width));
                            }
                        }
                    }
                    _ => {}
                }
            }
            BvOp::RedOr | BvOp::RedAnd if self.width(args[0]) == 1 => {
                return Some(args[0]);
            }
            BvOp::RedXor if self.width(args[0]) == 1 => {
                return Some(args[0]);
            }
            _ => {}
        }
        None
    }

    // ----- convenience constructors -----

    /// Bitwise NOT.
    pub fn not(&mut self, a: TermId) -> TermId {
        self.mk_op(BvOp::Not, vec![a])
    }

    /// Two's-complement negation.
    pub fn neg(&mut self, a: TermId) -> TermId {
        self.mk_op(BvOp::Neg, vec![a])
    }

    /// Bitwise AND.
    pub fn and(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_op(BvOp::And, vec![a, b])
    }

    /// Bitwise OR.
    pub fn or(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_op(BvOp::Or, vec![a, b])
    }

    /// Bitwise XOR.
    pub fn xor(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_op(BvOp::Xor, vec![a, b])
    }

    /// Wrapping addition.
    pub fn add(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_op(BvOp::Add, vec![a, b])
    }

    /// Wrapping subtraction.
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_op(BvOp::Sub, vec![a, b])
    }

    /// Wrapping multiplication.
    pub fn mul(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_op(BvOp::Mul, vec![a, b])
    }

    /// Unsigned division.
    pub fn udiv(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_op(BvOp::Udiv, vec![a, b])
    }

    /// Unsigned remainder.
    pub fn urem(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_op(BvOp::Urem, vec![a, b])
    }

    /// Logical shift left.
    pub fn shl(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_op(BvOp::Shl, vec![a, b])
    }

    /// Logical shift right.
    pub fn lshr(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_op(BvOp::Lshr, vec![a, b])
    }

    /// Arithmetic shift right.
    pub fn ashr(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_op(BvOp::Ashr, vec![a, b])
    }

    /// Concatenation (`a` high, `b` low).
    pub fn concat(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_op(BvOp::Concat, vec![a, b])
    }

    /// Extraction of bits `hi..=lo`.
    pub fn extract(&mut self, a: TermId, hi: u32, lo: u32) -> TermId {
        self.mk_op(BvOp::Extract { hi, lo }, vec![a])
    }

    /// Zero-extension to `width` bits.
    pub fn zext(&mut self, a: TermId, width: u32) -> TermId {
        self.mk_op(BvOp::ZeroExt { width }, vec![a])
    }

    /// Sign-extension to `width` bits.
    pub fn sext(&mut self, a: TermId, width: u32) -> TermId {
        self.mk_op(BvOp::SignExt { width }, vec![a])
    }

    /// Zero-extends or truncates to exactly `width` bits.
    pub fn resize_zext(&mut self, a: TermId, width: u32) -> TermId {
        let w = self.width(a);
        if width == w {
            a
        } else if width < w {
            self.extract(a, width - 1, 0)
        } else {
            self.zext(a, width)
        }
    }

    /// Sign-extends or truncates to exactly `width` bits.
    pub fn resize_sext(&mut self, a: TermId, width: u32) -> TermId {
        let w = self.width(a);
        if width == w {
            a
        } else if width < w {
            self.extract(a, width - 1, 0)
        } else {
            self.sext(a, width)
        }
    }

    /// Equality (1-bit result).
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_op(BvOp::Eq, vec![a, b])
    }

    /// Disequality (1-bit result).
    pub fn ne(&mut self, a: TermId, b: TermId) -> TermId {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// Unsigned less-than.
    pub fn ult(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_op(BvOp::Ult, vec![a, b])
    }

    /// Unsigned less-than-or-equal.
    pub fn ule(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_op(BvOp::Ule, vec![a, b])
    }

    /// Signed less-than.
    pub fn slt(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_op(BvOp::Slt, vec![a, b])
    }

    /// Signed less-than-or-equal.
    pub fn sle(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_op(BvOp::Sle, vec![a, b])
    }

    /// If-then-else: `cond ? then_ : else_`.
    pub fn ite(&mut self, cond: TermId, then_: TermId, else_: TermId) -> TermId {
        self.mk_op(BvOp::Ite, vec![cond, then_, else_])
    }

    /// Reduction OR.
    pub fn red_or(&mut self, a: TermId) -> TermId {
        self.mk_op(BvOp::RedOr, vec![a])
    }

    /// Reduction AND.
    pub fn red_and(&mut self, a: TermId) -> TermId {
        self.mk_op(BvOp::RedAnd, vec![a])
    }

    /// Reduction XOR.
    pub fn red_xor(&mut self, a: TermId) -> TermId {
        self.mk_op(BvOp::RedXor, vec![a])
    }

    /// Boolean implication over 1-bit terms.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        let na = self.not(a);
        self.or(na, b)
    }

    /// Conjunction of a list of 1-bit terms (true if the list is empty).
    pub fn and_all(&mut self, terms: &[TermId]) -> TermId {
        let mut acc = self.true_();
        for &t in terms {
            acc = self.and(acc, t);
        }
        acc
    }

    /// Renders a term as an S-expression (for debugging and golden tests).
    pub fn display(&self, id: TermId) -> String {
        match self.term(id) {
            Term::Const(bv) => bv.to_verilog_literal(),
            Term::Var { name, width } => format!("{name}:{width}"),
            Term::Op { op, args, .. } => {
                let args: Vec<String> = args.iter().map(|&a| self.display(a)).collect();
                format!("({op} {})", args.join(" "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(pool: &mut TermPool, v: u64, w: u32) -> TermId {
        pool.constant(BitVec::from_u64(v, w))
    }

    #[test]
    fn hash_consing_deduplicates() {
        let mut pool = TermPool::new();
        let x = pool.var("x", 8);
        let y = pool.var("y", 8);
        let a = pool.add(x, y);
        let b = pool.add(x, y);
        assert_eq!(a, b);
        // Commutative normalization: x + y and y + x are the same node.
        let c = pool.add(y, x);
        assert_eq!(a, c);
        assert!(pool.stats().cons_hits > 0);
    }

    #[test]
    fn var_reuse_and_width_check() {
        let mut pool = TermPool::new();
        let x1 = pool.var("x", 8);
        let x2 = pool.var("x", 8);
        assert_eq!(x1, x2);
        assert_eq!(pool.lookup_var("x"), Some(x1));
        assert_eq!(pool.lookup_var("nope"), None);
    }

    #[test]
    #[should_panic]
    fn var_width_conflict_panics() {
        let mut pool = TermPool::new();
        pool.var("x", 8);
        pool.var("x", 16);
    }

    #[test]
    fn constant_folding() {
        let mut pool = TermPool::new();
        let a = c(&mut pool, 5, 8);
        let b = c(&mut pool, 7, 8);
        let sum = pool.add(a, b);
        assert_eq!(pool.as_const(sum), Some(&BitVec::from_u64(12, 8)));
        let prod = pool.mul(a, b);
        assert_eq!(pool.as_const(prod), Some(&BitVec::from_u64(35, 8)));
        let cmp = pool.ult(a, b);
        assert_eq!(pool.as_const(cmp), Some(&BitVec::from_bool(true)));
    }

    #[test]
    fn identity_rewrites() {
        let mut pool = TermPool::new();
        let x = pool.var("x", 8);
        let zero = pool.zero(8);
        let ones = pool.all_ones(8);
        let one = c(&mut pool, 1, 8);
        assert_eq!(pool.add(x, zero), x);
        assert_eq!(pool.add(zero, x), x);
        assert_eq!(pool.sub(x, zero), x);
        assert_eq!(pool.sub(x, x), zero);
        assert_eq!(pool.mul(x, one), x);
        assert_eq!(pool.mul(x, zero), zero);
        assert_eq!(pool.and(x, ones), x);
        assert_eq!(pool.and(x, zero), zero);
        assert_eq!(pool.and(x, x), x);
        assert_eq!(pool.or(x, zero), x);
        assert_eq!(pool.or(x, ones), ones);
        assert_eq!(pool.xor(x, zero), x);
        assert_eq!(pool.xor(x, x), zero);
    }

    #[test]
    fn structural_rewrites() {
        let mut pool = TermPool::new();
        let x = pool.var("x", 8);
        let n = pool.not(x);
        assert_eq!(pool.not(n), x);
        let neg = pool.neg(x);
        assert_eq!(pool.neg(neg), x);
        let t = pool.true_();
        assert_eq!(pool.eq(x, x), t);
        let f = pool.false_();
        assert_eq!(pool.ult(x, x), f);
        assert_eq!(pool.ule(x, x), t);
    }

    /// The algebraic-gap rules — `x − x → 0`, `x ^ x → 0`, `x & x → x`,
    /// shift-by-zero — one test per rule, mirrored on the e-graph side by
    /// `crates/egraph/tests/gap_rules.rs`: both rewriting engines must agree.
    #[test]
    fn gap_rules_fold_in_the_pool() {
        let mut pool = TermPool::new();
        let x = pool.var("x", 8);
        let zero = pool.zero(8);
        // x − x → 0.
        assert_eq!(pool.sub(x, x), zero);
        // x ^ x → 0.
        assert_eq!(pool.xor(x, x), zero);
        // x & x → x, and x | x → x.
        assert_eq!(pool.and(x, x), x);
        assert_eq!(pool.or(x, x), x);
        // Shift-by-zero is the identity for all three shift operators.
        assert_eq!(pool.shl(x, zero), x);
        assert_eq!(pool.lshr(x, zero), x);
        assert_eq!(pool.ashr(x, zero), x);
    }

    #[test]
    fn ite_rewrites() {
        let mut pool = TermPool::new();
        let x = pool.var("x", 8);
        let y = pool.var("y", 8);
        let t = pool.true_();
        let f = pool.false_();
        assert_eq!(pool.ite(t, x, y), x);
        assert_eq!(pool.ite(f, x, y), y);
        let c = pool.var("c", 1);
        assert_eq!(pool.ite(c, x, x), x);
    }

    #[test]
    fn extract_and_extension_rewrites() {
        let mut pool = TermPool::new();
        let x = pool.var("x", 8);
        assert_eq!(pool.extract(x, 7, 0), x);
        assert_eq!(pool.zext(x, 8), x);
        assert_eq!(pool.sext(x, 8), x);

        // extract of concat goes to the right side.
        let y = pool.var("y", 8);
        let cat = pool.concat(x, y);
        let lo = pool.extract(cat, 7, 0);
        assert_eq!(lo, y);
        let hi = pool.extract(cat, 15, 8);
        assert_eq!(hi, x);

        // extract within a zext goes to the original term.
        let wide = pool.zext(x, 32);
        assert_eq!(pool.extract(wide, 7, 0), x);
        let zeros = pool.extract(wide, 31, 8);
        assert_eq!(pool.as_const(zeros), Some(&BitVec::zeros(24)));

        // extract of extract composes.
        let mid = pool.extract(cat, 11, 4);
        let small = pool.extract(mid, 3, 0);
        assert_eq!(small, pool.extract(cat, 7, 4));

        // nested extensions compose.
        let z1 = pool.zext(x, 16);
        let z2 = pool.zext(z1, 32);
        assert_eq!(z2, pool.zext(x, 32));
    }

    #[test]
    fn resize_helpers() {
        let mut pool = TermPool::new();
        let x = pool.var("x", 8);
        let widened = pool.resize_zext(x, 16);
        assert_eq!(pool.width(widened), 16);
        assert_eq!(pool.resize_zext(x, 8), x);
        let trunc = pool.resize_zext(x, 4);
        assert_eq!(pool.width(trunc), 4);
        let s = pool.resize_sext(x, 12);
        assert_eq!(pool.width(s), 12);
    }

    #[test]
    fn negation_normalization_rewrites() {
        let mut pool = TermPool::new();
        let x = pool.var("x", 8);
        let y = pool.var("y", 8);
        let zero = pool.zero(8);
        // 0 − x → −x.
        let expect = pool.neg(x);
        assert_eq!(pool.sub(zero, x), expect);
        // x − (−y) → x + y, and x + (−y) → x − y.
        let ny = pool.neg(y);
        let expect = pool.add(x, y);
        assert_eq!(pool.sub(x, ny), expect);
        let expect = pool.sub(x, y);
        assert_eq!(pool.add(x, ny), expect);
        // (−x) · y → −(x · y).
        let nx = pool.neg(x);
        let got = pool.mul(nx, y);
        let prod = pool.mul(x, y);
        let expect = pool.neg(prod);
        assert_eq!(got, expect);
        // Mirrored subtraction: b − a normalizes to −(a − b).
        let ab = pool.sub(x, y);
        let ba = pool.sub(y, x);
        let expect = pool.neg(ab);
        assert_eq!(ba, expect);
        let restored = pool.neg(ba);
        assert_eq!(restored, ab);
    }

    #[test]
    fn constant_chains_reassociate_and_fold() {
        let mut pool = TermPool::new();
        let x = pool.var("x", 8);
        // ((x + 0xff) + 0x01) → x: the DSP ALU's subtract-via-carry encoding.
        let ff = c(&mut pool, 0xff, 8);
        let one = c(&mut pool, 1, 8);
        let t = pool.add(x, ff);
        let t = pool.add(t, one);
        assert_eq!(t, x);
        // x − 3 joins the additive chain: (x − 3) + 3 → x.
        let three = c(&mut pool, 3, 8);
        let down = pool.sub(x, three);
        let back = pool.add(down, three);
        assert_eq!(back, x);
        // (0x10 − x) + 0x05 → 0x15 − x.
        let c10 = c(&mut pool, 0x10, 8);
        let c05 = c(&mut pool, 0x05, 8);
        let diff = pool.sub(c10, x);
        let got = pool.add(diff, c05);
        let c15 = c(&mut pool, 0x15, 8);
        let expect = pool.sub(c15, x);
        assert_eq!(got, expect);
    }

    /// Regression for the CEGIS verification blowups: a DSP's negate-path encoding
    /// of a multiply must normalize to the plain multiply, so the disequality
    /// folds to false without any SAT work.
    #[test]
    fn dsp_negate_form_normalizes_to_plain_multiply() {
        // 0 − ((a · (0 − b)) + 0xff + 0x01)  ≡  a · b.
        let mut pool = TermPool::new();
        let a = pool.var("a", 8);
        let b = pool.var("b", 8);
        let spec = pool.mul(a, b);
        let zero = pool.zero(8);
        let nb = pool.sub(zero, b);
        let prod = pool.mul(a, nb);
        let ff = c(&mut pool, 0xff, 8);
        let one = c(&mut pool, 1, 8);
        let t = pool.add(prod, ff);
        let t = pool.add(t, one);
        let cand = pool.sub(zero, t);
        assert_eq!(cand, spec);
        // And the mirrored pre-subtract form: d − (c · (b − a)) ≡ (a − b) · c + d.
        let cc = pool.var("c", 8);
        let d = pool.var("d", 8);
        let amb = pool.sub(a, b);
        let lhs_mul = pool.mul(amb, cc);
        let spec2 = pool.add(lhs_mul, d);
        let bma = pool.sub(b, a);
        let mirrored = pool.mul(cc, bma);
        let cand2 = pool.sub(d, mirrored);
        assert_eq!(cand2, spec2);
    }

    #[test]
    fn without_simplification_builds_nodes() {
        let mut pool = TermPool::without_simplification();
        let x = pool.var("x", 8);
        let zero = pool.zero(8);
        let sum = pool.add(x, zero);
        assert_ne!(sum, x, "no rewriting should happen");
        assert!(matches!(pool.term(sum), Term::Op { op: BvOp::Add, .. }));
    }

    #[test]
    fn width_computation() {
        let mut pool = TermPool::new();
        let x = pool.var("x", 8);
        let y = pool.var("y", 8);
        let sum = pool.add(x, y);
        assert_eq!(pool.width(sum), 8);
        let eq = pool.eq(x, y);
        assert_eq!(pool.width(eq), 1);
        let cat = pool.concat(x, y);
        assert_eq!(pool.width(cat), 16);
        let e = pool.extract(x, 6, 2);
        assert_eq!(pool.width(e), 5);
        let r = pool.red_xor(x);
        assert_eq!(pool.width(r), 1);
    }

    #[test]
    #[should_panic]
    fn mismatched_widths_panic() {
        let mut pool = TermPool::new();
        let x = pool.var("x", 8);
        let y = pool.var("y", 4);
        pool.add(x, y);
    }

    #[test]
    fn display_sexpr() {
        let mut pool = TermPool::new();
        let x = pool.var("x", 8);
        let y = pool.var("y", 8);
        let s = pool.add(x, y);
        let d = pool.display(s);
        assert!(d.contains("bvadd"));
        assert!(d.contains("x:8"));
    }

    #[test]
    fn and_all_and_implies() {
        let mut pool = TermPool::new();
        let a = pool.var("a", 1);
        let b = pool.var("b", 1);
        let both = pool.and_all(&[a, b]);
        assert_eq!(pool.width(both), 1);
        let empty = pool.and_all(&[]);
        assert_eq!(pool.as_const(empty), Some(&BitVec::from_bool(true)));
        let t = pool.true_();
        let imp = pool.implies(a, t);
        assert_eq!(pool.as_const(imp), Some(&BitVec::from_bool(true)));
    }
}
