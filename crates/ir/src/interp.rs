//! The concrete stream interpreter for ℒlr (the `Interp` function of Fig. 4).
//!
//! Inputs are *streams*: functions from time (a clock-cycle index) to bitvectors. The
//! [`StreamInputs`] type provides the two common cases — inputs held constant over
//! time and explicit per-cycle traces — and the [`Inputs`] trait lets tests supply
//! arbitrary streams.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use lr_bv::BitVec;

use crate::{Node, NodeId, Prog};

/// An input environment: a map from variable names to streams of bitvectors.
pub trait Inputs {
    /// The value of input `name` at clock cycle `time`, if bound.
    fn get(&self, name: &str, time: u32) -> Option<BitVec>;
}

/// The standard input environment: each variable is either held constant or driven by
/// an explicit per-cycle trace (the last trace value is held once the trace runs out,
/// matching how testbenches hold their final stimulus).
#[derive(Debug, Clone, Default)]
pub struct StreamInputs {
    constants: HashMap<String, BitVec>,
    traces: HashMap<String, Vec<BitVec>>,
}

impl StreamInputs {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an environment from constant bindings.
    pub fn from_constants<I: IntoIterator<Item = (String, BitVec)>>(iter: I) -> Self {
        StreamInputs { constants: iter.into_iter().collect(), traces: HashMap::new() }
    }

    /// Binds a variable to a constant stream.
    pub fn set_constant(&mut self, name: impl Into<String>, value: BitVec) -> &mut Self {
        self.constants.insert(name.into(), value);
        self
    }

    /// Binds a variable to an explicit trace (value per clock cycle).
    ///
    /// # Panics
    /// Panics if the trace is empty.
    pub fn set_trace(&mut self, name: impl Into<String>, trace: Vec<BitVec>) -> &mut Self {
        assert!(!trace.is_empty(), "trace must contain at least one value");
        self.traces.insert(name.into(), trace);
        self
    }

    /// All variable names bound by this environment.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.constants.keys().chain(self.traces.keys()).map(|s| s.as_str())
    }
}

impl Inputs for StreamInputs {
    fn get(&self, name: &str, time: u32) -> Option<BitVec> {
        if let Some(trace) = self.traces.get(name) {
            let idx = (time as usize).min(trace.len() - 1);
            return Some(trace[idx].clone());
        }
        self.constants.get(name).cloned()
    }
}

/// An error raised by the interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// An input variable had no binding.
    UnboundVariable(String),
    /// A hole was encountered; holes have no semantics (§3.2.2) and must be filled
    /// before interpretation.
    HoleEncountered(String),
    /// An input binding had the wrong width.
    WidthMismatch {
        /// The variable name.
        name: String,
        /// Width declared in the program.
        expected: u32,
        /// Width of the bound value.
        found: u32,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::UnboundVariable(n) => write!(f, "unbound input `{n}`"),
            InterpError::HoleEncountered(n) => {
                write!(f, "hole `{n}` has no semantics; fill it before interpreting")
            }
            InterpError::WidthMismatch { name, expected, found } => {
                write!(f, "input `{name}` has width {found}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// The environment chain used during interpretation: either the external inputs or a
/// primitive's binding map layered over the enclosing program (the `e'` construction
/// in the `Prim` rule of Fig. 4).
enum EnvCtx<'a> {
    External(&'a dyn Inputs),
    Prim { outer_prog: &'a Prog, outer_env: &'a EnvCtx<'a>, bindings: &'a BTreeMap<String, NodeId> },
}

impl Prog {
    /// Evaluates the program's root at clock cycle `time` under `inputs`.
    ///
    /// # Errors
    /// Returns an error if an input is unbound or mis-sized, or if the program still
    /// contains holes.
    pub fn interp(&self, inputs: &dyn Inputs, time: u32) -> Result<BitVec, InterpError> {
        self.interp_node(inputs, time, self.root())
    }

    /// Evaluates an arbitrary node at clock cycle `time` under `inputs`.
    pub fn interp_node(
        &self,
        inputs: &dyn Inputs,
        time: u32,
        node: NodeId,
    ) -> Result<BitVec, InterpError> {
        let env = EnvCtx::External(inputs);
        let mut memo = HashMap::new();
        eval(self, &env, time, node, &mut memo)
    }

    /// Evaluates the root at each of the cycles `0..=last`, returning one value per
    /// cycle. Useful for comparing pipelined designs over a window of time.
    pub fn interp_trace(&self, inputs: &dyn Inputs, last: u32) -> Result<Vec<BitVec>, InterpError> {
        (0..=last).map(|t| self.interp(inputs, t)).collect()
    }
}

/// The one spec-vs-implementation agreement check: `candidate` must interpret
/// like `spec` in `envs` environments of constant inputs over `spec`'s free
/// variables, drawn deterministically from `seed`, at every cycle in
/// `first_cycle..=last_cycle`.
///
/// Cache replay, the HDL fuzz oracle (round-trip and mapped layers) and the
/// mapping integration tests all call this, so a faster evaluator changes one
/// call site. A mapped implementation owes agreement from the spec's pipeline
/// depth through the BMC window (earlier cycles may differ while pipelines
/// fill).
///
/// # Errors
/// Describes the first disagreement, with its input values, or the first
/// interpreter error.
pub fn interp_equivalent(
    spec: &Prog,
    candidate: &Prog,
    seed: u64,
    envs: usize,
    first_cycle: u32,
    last_cycle: u32,
) -> Result<(), String> {
    let vars = spec.free_vars();
    let mut rng = lr_bv::Rng::new(seed ^ 0xD1FF_F00D_5EED_5EED);
    for round in 0..envs {
        let values: Vec<(String, BitVec)> = vars
            .iter()
            .map(|(name, width)| (name.clone(), BitVec::from_u64(rng.next_u64(), *width)))
            .collect();
        let env = StreamInputs::from_constants(values.iter().cloned());
        for t in first_cycle..=last_cycle {
            let a = spec
                .interp(&env, t)
                .map_err(|e| format!("round {round} cycle {t}: spec interp failed: {e}"))?;
            let b = candidate
                .interp(&env, t)
                .map_err(|e| format!("round {round} cycle {t}: candidate interp failed: {e}"))?;
            if a != b {
                let inputs: Vec<String> = values
                    .iter()
                    .map(|(name, value)| format!("{name}={}", value.to_verilog_literal()))
                    .collect();
                return Err(format!(
                    "round {round} cycle {t}: spec = {a}, candidate = {b} (inputs: {})",
                    inputs.join(", ")
                ));
            }
        }
    }
    Ok(())
}

fn eval(
    prog: &Prog,
    env: &EnvCtx<'_>,
    time: u32,
    id: NodeId,
    memo: &mut HashMap<(NodeId, u32), BitVec>,
) -> Result<BitVec, InterpError> {
    if let Some(v) = memo.get(&(id, time)) {
        return Ok(v.clone());
    }
    let node = prog.node(id).expect("node id belongs to the program");
    let value = match node {
        Node::BV(bv) => bv.clone(),
        Node::Hole { name, .. } => return Err(InterpError::HoleEncountered(name.clone())),
        Node::Var { name, width } => {
            let value = lookup(env, name, time, memo)?
                .ok_or_else(|| InterpError::UnboundVariable(name.clone()))?;
            if value.width() != *width {
                return Err(InterpError::WidthMismatch {
                    name: name.clone(),
                    expected: *width,
                    found: value.width(),
                });
            }
            value
        }
        Node::Reg { data, init } => {
            if time == 0 {
                init.clone()
            } else {
                eval(prog, env, time - 1, *data, memo)?
            }
        }
        Node::Op(op, args) => {
            let values: Result<Vec<BitVec>, InterpError> =
                args.iter().map(|&a| eval(prog, env, time, a, memo)).collect();
            let values = values?;
            let refs: Vec<&BitVec> = values.iter().collect();
            apply_public(*op, &refs)
        }
        Node::Prim(p) => {
            let inner_env =
                EnvCtx::Prim { outer_prog: prog, outer_env: env, bindings: &p.bindings };
            // Sub-program node ids are disjoint from ours (W2), so sharing the memo
            // table across levels is sound.
            eval(&p.semantics, &inner_env, time, p.semantics.root(), memo)?
        }
    };
    memo.insert((id, time), value.clone());
    Ok(value)
}

fn lookup(
    env: &EnvCtx<'_>,
    name: &str,
    time: u32,
    memo: &mut HashMap<(NodeId, u32), BitVec>,
) -> Result<Option<BitVec>, InterpError> {
    match env {
        EnvCtx::External(inputs) => Ok(inputs.get(name, time)),
        EnvCtx::Prim { outer_prog, outer_env, bindings } => match bindings.get(name) {
            None => Ok(None),
            Some(&outer_id) => eval(outer_prog, outer_env, time, outer_id, memo).map(Some),
        },
    }
}

/// Applies a combinational operator to concrete values. Shares semantics with the
/// `lr-smt` evaluator via the same `BitVec` operations.
pub(crate) fn apply_public(op: crate::BvOp, args: &[&BitVec]) -> BitVec {
    use crate::BvOp;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BvOp, HoleDomain, PrimInstance, ProgBuilder};

    fn inputs(pairs: &[(&str, u64, u32)]) -> StreamInputs {
        StreamInputs::from_constants(
            pairs.iter().map(|&(n, v, w)| (n.to_string(), BitVec::from_u64(v, w))),
        )
    }

    #[test]
    fn combinational_add_mul_and() {
        // out = (a + b) * c & d, the paper's running example, combinationally.
        let mut b = ProgBuilder::new("add_mul_and");
        let a = b.input("a", 16);
        let bb = b.input("b", 16);
        let c = b.input("c", 16);
        let d = b.input("d", 16);
        let sum = b.op2(BvOp::Add, a, bb);
        let prod = b.op2(BvOp::Mul, sum, c);
        let out = b.op2(BvOp::And, prod, d);
        let prog = b.finish(out);
        let env = inputs(&[("a", 3, 16), ("b", 5, 16), ("c", 7, 16), ("d", 0xFF, 16)]);
        assert_eq!(prog.interp(&env, 0).unwrap(), BitVec::from_u64(((3 + 5) * 7) & 0xFF, 16));
    }

    #[test]
    fn registers_delay_by_one_cycle() {
        // out <= a (registered once): at t=0 the init value, at t>=1 the input.
        let mut b = ProgBuilder::new("reg1");
        let a = b.input("a", 8);
        let r = b.reg_init(a, BitVec::from_u64(0xAA, 8));
        let prog = b.finish(r);
        let env = inputs(&[("a", 5, 8)]);
        assert_eq!(prog.interp(&env, 0).unwrap(), BitVec::from_u64(0xAA, 8));
        assert_eq!(prog.interp(&env, 1).unwrap(), BitVec::from_u64(5, 8));
        assert_eq!(prog.interp(&env, 3).unwrap(), BitVec::from_u64(5, 8));
    }

    #[test]
    fn two_stage_pipeline() {
        // r <= a + b; out <= r   (the add_mul_and module shape from §2.1).
        let mut b = ProgBuilder::new("pipe2");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let sum = b.op2(BvOp::Add, a, bb);
        let r = b.reg(sum, 8);
        let out = b.reg(r, 8);
        let prog = b.finish(out);
        let env = inputs(&[("a", 3, 8), ("b", 4, 8)]);
        assert_eq!(prog.interp(&env, 0).unwrap(), BitVec::zeros(8));
        assert_eq!(prog.interp(&env, 1).unwrap(), BitVec::zeros(8));
        assert_eq!(prog.interp(&env, 2).unwrap(), BitVec::from_u64(7, 8));
    }

    #[test]
    fn traces_drive_time_varying_inputs() {
        let mut b = ProgBuilder::new("tr");
        let a = b.input("a", 8);
        let r = b.reg(a, 8);
        let prog = b.finish(r);
        let mut env = StreamInputs::new();
        env.set_trace(
            "a",
            vec![BitVec::from_u64(1, 8), BitVec::from_u64(2, 8), BitVec::from_u64(3, 8)],
        );
        // Register shows the previous cycle's trace value.
        assert_eq!(prog.interp(&env, 1).unwrap(), BitVec::from_u64(1, 8));
        assert_eq!(prog.interp(&env, 2).unwrap(), BitVec::from_u64(2, 8));
        // Trace is held at its last value past the end.
        assert_eq!(prog.interp(&env, 5).unwrap(), BitVec::from_u64(3, 8));
        let outputs = prog.interp_trace(&env, 3).unwrap();
        assert_eq!(outputs.len(), 4);
    }

    #[test]
    fn counter_feedback_through_register() {
        // r <= r + 1 starting at 0: value at time t is t (mod 256).
        use crate::{Node, NodeId, Prog};
        let mut nodes = std::collections::BTreeMap::new();
        nodes.insert(NodeId(0), Node::BV(BitVec::from_u64(1, 8)));
        nodes.insert(NodeId(1), Node::Op(BvOp::Add, vec![NodeId(0), NodeId(2)]));
        nodes.insert(NodeId(2), Node::Reg { data: NodeId(1), init: BitVec::zeros(8) });
        let prog = Prog { name: "counter".into(), root: NodeId(2), nodes, inputs: vec![] };
        let env = StreamInputs::new();
        for t in 0..10 {
            assert_eq!(prog.interp(&env, t).unwrap(), BitVec::from_u64(t as u64, 8));
        }
    }

    #[test]
    fn primitive_semantics_are_interpreted_through_bindings() {
        // A primitive whose semantics is x + y, bound to inputs a and a constant.
        let mut b = ProgBuilder::new("outer");
        let a = b.input("a", 8);
        let k = b.constant_u64(10, 8);
        let mut inner = ProgBuilder::with_base_id("adder_sem", 100);
        let x = inner.var("x", 8);
        let y = inner.var("y", 8);
        let s = inner.op2(BvOp::Add, x, y);
        let sem = inner.finish(s);
        let prim = PrimInstance {
            module: "ADDER".into(),
            interface: "ADDER".into(),
            bindings: [("x".to_string(), a), ("y".to_string(), k)].into_iter().collect(),
            semantics: sem,
            param_names: vec![],
            output_port: "o".into(),
        };
        let p = b.prim(prim);
        let prog = b.finish(p);
        assert!(prog.well_formed().is_ok());
        let env = inputs(&[("a", 7, 8)]);
        assert_eq!(prog.interp(&env, 0).unwrap(), BitVec::from_u64(17, 8));
    }

    #[test]
    fn unbound_and_hole_errors() {
        let mut b = ProgBuilder::new("p");
        let a = b.input("a", 8);
        let prog = b.finish(a);
        assert_eq!(
            prog.interp(&StreamInputs::new(), 0),
            Err(InterpError::UnboundVariable("a".to_string()))
        );

        let mut b = ProgBuilder::new("p");
        let h = b.hole("h", 8, HoleDomain::AnyConstant);
        let prog = b.finish(h);
        assert_eq!(
            prog.interp(&StreamInputs::new(), 0),
            Err(InterpError::HoleEncountered("h".to_string()))
        );
    }

    #[test]
    fn width_mismatch_error() {
        let mut b = ProgBuilder::new("p");
        let a = b.input("a", 8);
        let prog = b.finish(a);
        let env = inputs(&[("a", 1, 4)]);
        assert!(matches!(prog.interp(&env, 0), Err(InterpError::WidthMismatch { .. })));
    }

    #[test]
    fn wiring_ops_behave_structurally() {
        let mut b = ProgBuilder::new("wires");
        let a = b.input("a", 8);
        let hi = b.extract(a, 7, 4);
        let lo = b.extract(a, 3, 0);
        let swapped = b.op2(BvOp::Concat, lo, hi);
        let prog = b.finish(swapped);
        let env = inputs(&[("a", 0xAB, 8)]);
        assert_eq!(prog.interp(&env, 0).unwrap(), BitVec::from_u64(0xBA, 8));
    }
}
