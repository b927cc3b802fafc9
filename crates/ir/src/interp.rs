//! The concrete stream interpreter for ℒlr (the `Interp` function of Fig. 4).
//!
//! Inputs are *streams*: functions from time (a clock-cycle index) to bitvectors. The
//! [`StreamInputs`] type provides the two common cases — inputs held constant over
//! time and explicit per-cycle traces — and the [`Inputs`] trait lets tests supply
//! arbitrary streams.
//!
//! Evaluation steps forward one cycle at a time over the root's cone, sorted once by
//! the witness of Property 1 (W6) so every node comes after its same-cycle inputs.
//! Operators apply [`lr_smt::apply_op`], registers read the previous cycle's values,
//! and a primitive's output, like each sub-program variable it binds, copies the
//! value it stands for. Nothing recurses, so depth is not bounded by the stack.
//!
//! The sorted cone is a [`Schedule`]. It depends only on the program, so a caller
//! that evaluates one program in many environments (random-stimulus checks,
//! CEGIS examples, exhaustive input sweeps) builds it once with
//! [`Prog::schedule`] and calls [`Schedule::trace`] per environment;
//! [`Prog::interp_trace`] is the two in one call.

use std::collections::HashMap;
use std::fmt;

use lr_bv::BitVec;
use lr_smt::apply_op;

use crate::{BvOp, Node, NodeId, Prog, WellFormednessError};

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
    /// The program violates a well-formedness condition (W1–W6), so it has no
    /// witness order to evaluate in — for example, it has a combinational loop.
    IllFormed(WellFormednessError),
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
            InterpError::IllFormed(e) => write!(f, "ill-formed program: {e}"),
        }
    }
}

impl std::error::Error for InterpError {}

impl Prog {
    /// Evaluates the program's root at clock cycle `time` under `inputs`: the last
    /// value of [`Prog::interp_trace`].
    ///
    /// # Errors
    /// Every cycle evaluates the root's whole cone, so an unbound or mis-sized input
    /// or a hole anywhere in it is reported from cycle 0, even behind a register
    /// whose value would only reach the root later. An ill-formed program is
    /// [`InterpError::IllFormed`].
    pub fn interp(&self, inputs: &dyn Inputs, time: u32) -> Result<BitVec, InterpError> {
        let mut trace = self.interp_trace(inputs, time)?;
        Ok(trace.pop().expect("a trace holds one value per cycle"))
    }

    /// Evaluates the root at each of the cycles `0..=last`, returning one value per
    /// cycle. Useful for comparing pipelined designs over a window of time.
    ///
    /// This is [`Prog::schedule`] followed by [`Schedule::trace`]. A caller that
    /// evaluates one program in many environments should build the schedule once
    /// and trace it per environment instead.
    ///
    /// # Errors
    /// As for [`Prog::interp`].
    pub fn interp_trace(&self, inputs: &dyn Inputs, last: u32) -> Result<Vec<BitVec>, InterpError> {
        self.schedule()?.trace(inputs, last)
    }

    /// Builds the program's evaluation schedule: the W1–W6 witness, the root's cone
    /// and the slot each cone node's value occupies, none of which depend on the
    /// inputs.
    ///
    /// # Errors
    /// [`InterpError::IllFormed`] for an ill-formed program and
    /// [`InterpError::HoleEncountered`] for a hole in the root's cone.
    pub fn schedule(&self) -> Result<Schedule<'_>, InterpError> {
        let witness = self.well_formedness_witness().map_err(InterpError::IllFormed)?;
        // Each cone node with the binding map of the primitive whose semantics holds it.
        let mut cone = HashMap::new();
        let mut stack = vec![(self.root(), self, None)];
        while let Some((id, level, bindings)) = stack.pop() {
            let node = level.node(id).expect("W3: inputs exist at their level");
            if cone.insert(id, (node, bindings)).is_some() {
                continue;
            }
            match node {
                Node::Op(_, args) => stack.extend(args.iter().map(|&a| (a, level, bindings))),
                Node::Reg { data, .. } => stack.push((*data, level, bindings)),
                Node::Prim(p) => {
                    stack.extend(p.bindings.values().map(|&b| (b, level, bindings)));
                    stack.push((p.semantics.root(), &p.semantics, Some(&p.bindings)));
                }
                Node::BV(_) | Node::Var { .. } | Node::Hole { .. } => {}
            }
        }
        let mut order: Vec<(u32, NodeId)> = cone.keys().map(|id| (witness[id], *id)).collect();
        order.sort_unstable();
        let slot: HashMap<NodeId, usize> =
            order.iter().enumerate().map(|(slot, &(_, id))| (id, slot)).collect();
        let steps = order
            .iter()
            .map(|(_, id)| match cone[id] {
                (Node::BV(bv), _) => Ok(Step::Const(bv)),
                (Node::Var { name, width }, bindings) => {
                    let bound = bindings.map(|bindings| slot[&bindings[name]]);
                    Ok(Step::Var { name, width: *width, bound })
                }
                (Node::Op(op, args), _) => {
                    Ok(Step::Op(*op, args.iter().map(|a| slot[a]).collect()))
                }
                (Node::Reg { data, init }, _) => Ok(Step::Reg { data: slot[data], init }),
                (Node::Prim(p), _) => Ok(Step::Copy(slot[&p.semantics.root()])),
                (Node::Hole { name, .. }, _) => Err(InterpError::HoleEncountered(name.clone())),
            })
            .collect::<Result<_, _>>()?;
        Ok(Schedule { steps, root: slot[&self.root()] })
    }
}

/// A program's evaluation schedule, built by [`Prog::schedule`]: the root's cone
/// (the closure under [`Prog::node_inputs`], register data inputs and primitive
/// bindings included, plus primitive semantics) sorted once by the W6 witness, so
/// every step comes after the same-cycle inputs it reads. [`Schedule::trace`]
/// steps it forward cycle by cycle in any number of environments.
#[derive(Debug)]
pub struct Schedule<'p> {
    steps: Vec<Step<'p>>,
    /// The root's slot.
    root: usize,
}

/// One node of the root's cone. A node's slot, its index in the schedule, holds its
/// value in each cycle's value vector. A `Var` is an input, or (`bound`) a
/// sub-program variable copying the slot its primitive binds it to; a `Reg` is
/// `init` at cycle 0 and then the previous cycle's `data` slot; a `Copy` is a
/// primitive's output, the slot of its semantics root.
#[derive(Debug)]
enum Step<'p> {
    Const(&'p BitVec),
    Var { name: &'p str, width: u32, bound: Option<usize> },
    Op(BvOp, Vec<usize>),
    Reg { data: usize, init: &'p BitVec },
    Copy(usize),
}

impl Schedule<'_> {
    /// Evaluates the root at each of the cycles `0..=last` under `inputs`,
    /// returning one value per cycle, exactly as [`Prog::interp_trace`] does.
    ///
    /// # Errors
    /// An unbound or mis-sized input anywhere in the cone, from cycle 0 on.
    pub fn trace(&self, inputs: &dyn Inputs, last: u32) -> Result<Vec<BitVec>, InterpError> {
        let (mut prev, mut cur): (Vec<BitVec>, Vec<BitVec>) = (Vec::new(), Vec::new());
        let mut trace = Vec::with_capacity(last as usize + 1);
        for time in 0..=last {
            for step in &self.steps {
                let value = match *step {
                    Step::Const(bv) => bv.clone(),
                    Step::Var { name, width, bound } => {
                        let value = match bound {
                            Some(slot) => cur[slot].clone(),
                            None => inputs
                                .get(name, time)
                                .ok_or_else(|| InterpError::UnboundVariable(name.into()))?,
                        };
                        if value.width() != width {
                            return Err(InterpError::WidthMismatch {
                                name: name.into(),
                                expected: width,
                                found: value.width(),
                            });
                        }
                        value
                    }
                    Step::Op(op, ref args) => match args[..] {
                        [a] => apply_op(op, &[&cur[a]]),
                        [a, b] => apply_op(op, &[&cur[a], &cur[b]]),
                        [a, b, c] => apply_op(op, &[&cur[a], &cur[b], &cur[c]]),
                        _ => unreachable!("W-checked operators take one to three arguments"),
                    },
                    Step::Reg { init, .. } if time == 0 => init.clone(),
                    Step::Reg { data, .. } => prev[data].clone(),
                    Step::Copy(slot) => cur[slot].clone(),
                };
                cur.push(value);
            }
            trace.push(cur[self.root].clone());
            prev = std::mem::replace(&mut cur, Vec::with_capacity(self.steps.len()));
        }
        Ok(trace)
    }
}

/// The one spec-vs-implementation agreement check: `candidate` must interpret
/// like `spec` in `envs` environments of constant inputs over `spec`'s free
/// variables, drawn deterministically from `seed`, at every cycle in
/// `first_cycle..=last_cycle`. Each program's schedule is built once and traced
/// in every environment.
///
/// Cache replay, the HDL fuzz oracle (round-trip and mapped layers) and the
/// mapping integration tests all call this. A mapped implementation owes
/// agreement from the spec's pipeline depth through the BMC window (earlier
/// cycles may differ while pipelines fill).
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
    let want_schedule = spec.schedule().map_err(|e| format!("spec interp failed: {e}"))?;
    let got_schedule = candidate.schedule().map_err(|e| format!("candidate interp failed: {e}"))?;
    let mut rng = lr_bv::Rng::new(seed ^ 0xD1FF_F00D_5EED_5EED);
    for round in 0..envs {
        let values: Vec<(String, BitVec)> = vars
            .iter()
            .map(|(name, width)| (name.clone(), BitVec::from_u64(rng.next_u64(), *width)))
            .collect();
        let env = StreamInputs::from_constants(values.iter().cloned());
        let want = want_schedule
            .trace(&env, last_cycle)
            .map_err(|e| format!("round {round}: spec interp failed: {e}"))?;
        let got = got_schedule
            .trace(&env, last_cycle)
            .map_err(|e| format!("round {round}: candidate interp failed: {e}"))?;
        for t in first_cycle..=last_cycle {
            let (a, b) = (&want[t as usize], &got[t as usize]);
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
        let prog = Prog::from_nodes("counter", NodeId(2), nodes);
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
        // Behind a register, the value would only reach the root at cycle 1, but
        // the register's data input is in the cone, so cycle 0 reports it.
        for registered in [false, true] {
            let mut b = ProgBuilder::new("p");
            let a = b.input("a", 8);
            let root = if registered { b.reg(a, 8) } else { a };
            let prog = b.finish(root);
            assert_eq!(
                prog.interp(&StreamInputs::new(), 0),
                Err(InterpError::UnboundVariable("a".to_string()))
            );

            let mut b = ProgBuilder::new("p");
            let h = b.hole("h", 8, HoleDomain::AnyConstant);
            let root = if registered { b.reg(h, 8) } else { h };
            let prog = b.finish(root);
            assert_eq!(
                prog.interp(&StreamInputs::new(), 0),
                Err(InterpError::HoleEncountered("h".to_string()))
            );
        }
    }

    #[test]
    fn deep_chains_interpret_on_a_small_stack() {
        // out = a + 1 + 1 + ... (100 000 additions), on a 256 KiB stack; width
        // queries on the chain's end must not walk it either.
        let worker = std::thread::Builder::new().stack_size(256 << 10).spawn(|| {
            let mut b = ProgBuilder::new("chain");
            let one = b.constant_u64(1, 32);
            let mut x = b.input("a", 32);
            for _ in 0..100_000 {
                x = b.op2(BvOp::Add, x, one);
            }
            let built_width = b.width_of(x);
            let prog = b.finish(x);
            (built_width, prog.width(prog.root()), prog.interp(&inputs(&[("a", 5, 32)]), 0))
        });
        let (built_width, width, value) = worker.expect("spawn").join().expect("no stack overflow");
        assert_eq!((built_width, width), (32, 32));
        assert_eq!(value, Ok(BitVec::from_u64(100_005, 32)));
    }

    #[test]
    fn combinational_loops_are_ill_formed() {
        use crate::{Node, NodeId, Prog};
        // n0 = n1 & n1; n1 = n0 | n0: no cycle can evaluate either node first.
        let mut nodes = std::collections::BTreeMap::new();
        nodes.insert(NodeId(0), Node::Op(BvOp::And, vec![NodeId(1), NodeId(1)]));
        nodes.insert(NodeId(1), Node::Op(BvOp::Or, vec![NodeId(0), NodeId(0)]));
        let prog = Prog::from_nodes("loop", NodeId(0), nodes);
        assert!(matches!(prog.interp(&StreamInputs::new(), 0), Err(InterpError::IllFormed(_))));
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
