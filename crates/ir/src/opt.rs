//! Post-synthesis cleanup: constant folding and dead-node elimination.
//!
//! Sketches in this reproduction may contain *selection logic* — hole-driven
//! multiplexers that let the solver choose, e.g., which design input feeds which DSP
//! port. Once synthesis fills the holes with constants, that logic is decidable at
//! compile time; [`Prog::simplified`] folds it away so the final implementation is a
//! clean structural program (a primitive instance plus wiring), which is what gets
//! counted by resource reports and emitted as Verilog.

use std::collections::BTreeMap;

use lr_bv::BitVec;

use crate::{Node, NodeId, Prog, Slot};

impl Prog {
    /// Returns an equivalent program with constant sub-expressions folded,
    /// constant-condition multiplexers resolved, and unreachable nodes removed.
    /// Primitive semantics sub-programs are left untouched.
    pub fn simplified(&self) -> Prog {
        let mut nodes: BTreeMap<NodeId, Node> =
            self.nodes().map(|(id, node)| (id, node.clone())).collect();
        let mut alias: BTreeMap<NodeId, NodeId> = BTreeMap::new();

        // A few ascending passes reach a fixpoint for builder-shaped programs
        // (operands almost always have smaller ids than their users).
        for _ in 0..3 {
            let ids: Vec<NodeId> = nodes.keys().copied().collect();
            for id in ids {
                let node = nodes[&id].clone();
                match node {
                    Node::Op(op, args) => {
                        let args: Vec<NodeId> = args.iter().map(|a| resolve(&alias, *a)).collect();
                        // Fold if-then-else with a constant condition into an alias.
                        if op == crate::BvOp::Ite {
                            if let Some(Node::BV(c)) = nodes.get(&args[0]) {
                                let target = if c.is_zero() { args[2] } else { args[1] };
                                alias.insert(id, resolve(&alias, target));
                                continue;
                            }
                        }
                        // Fold operators over all-constant operands.
                        let const_args: Option<Vec<BitVec>> = args
                            .iter()
                            .map(|a| match nodes.get(a) {
                                Some(Node::BV(bv)) => Some(bv.clone()),
                                _ => None,
                            })
                            .collect();
                        if let Some(values) = const_args {
                            let refs: Vec<&BitVec> = values.iter().collect();
                            nodes.insert(id, Node::BV(lr_smt::apply_op(op, &refs)));
                        } else {
                            nodes.insert(id, Node::Op(op, args));
                        }
                    }
                    Node::Reg { data, init } => {
                        nodes.insert(id, Node::Reg { data: resolve(&alias, data), init });
                    }
                    Node::Prim(mut p) => {
                        for target in p.bindings.values_mut() {
                            *target = resolve(&alias, *target);
                        }
                        nodes.insert(id, Node::Prim(p));
                    }
                    Node::BV(_) | Node::Var { .. } | Node::Hole { .. } => {}
                }
            }
        }

        let root = resolve(&alias, self.root);
        // Dead-node elimination: keep only nodes reachable from the root.
        let mut reachable = std::collections::BTreeSet::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if !reachable.insert(id) {
                continue;
            }
            match &nodes[&id] {
                Node::Op(_, args) => stack.extend(args.iter().copied()),
                Node::Reg { data, .. } => stack.push(*data),
                Node::Prim(p) => stack.extend(p.bindings.values().copied()),
                _ => {}
            }
        }
        // Folding and aliasing keep every node's width, so each carries over.
        let nodes = nodes
            .into_iter()
            .filter(|(id, _)| reachable.contains(id))
            .map(|(id, node)| (id, Slot { node, width: self.nodes[&id].width }))
            .collect();
        Prog { name: self.name.clone(), root, nodes, inputs: self.inputs.clone() }
    }
}

fn resolve(alias: &BTreeMap<NodeId, NodeId>, mut id: NodeId) -> NodeId {
    while let Some(&next) = alias.get(&id) {
        if next == id {
            break;
        }
        id = next;
    }
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BvOp, ProgBuilder, StreamInputs};

    #[test]
    fn folds_constant_selection_logic() {
        // out = (1 == 1) ? a : b  with some dead arithmetic attached.
        let mut b = ProgBuilder::new("p");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let one = b.constant_u64(1, 4);
        let also_one = b.constant_u64(1, 4);
        let cond = b.op2(BvOp::Eq, one, also_one);
        let dead = b.op2(BvOp::Mul, a, bb);
        let _unused = b.op2(BvOp::Add, dead, a);
        let out = b.mux(cond, a, bb);
        let prog = b.finish(out);
        let simplified = prog.simplified();
        // The mux and the dead arithmetic disappear; the root is the input itself.
        assert!(simplified.len() < prog.len());
        assert!(simplified
            .nodes()
            .all(|(_, n)| !matches!(n, Node::Op(BvOp::Mul | BvOp::Ite | BvOp::Eq, _))));
        let env = StreamInputs::from_constants([
            ("a".to_string(), BitVec::from_u64(7, 8)),
            ("b".to_string(), BitVec::from_u64(9, 8)),
        ]);
        assert_eq!(simplified.interp(&env, 0).unwrap(), BitVec::from_u64(7, 8));
    }

    #[test]
    fn folding_preserves_semantics_with_registers() {
        let mut b = ProgBuilder::new("p");
        let a = b.input("a", 8);
        let two = b.constant_u64(2, 8);
        let three = b.constant_u64(3, 8);
        let six = b.op2(BvOp::Mul, two, three);
        let sum = b.op2(BvOp::Add, a, six);
        let r = b.reg(sum, 8);
        let prog = b.finish(r);
        let simplified = prog.simplified();
        assert!(simplified.well_formed().is_ok());
        let env = StreamInputs::from_constants([("a".to_string(), BitVec::from_u64(10, 8))]);
        for t in 0..3 {
            assert_eq!(prog.interp(&env, t).unwrap(), simplified.interp(&env, t).unwrap());
        }
        // The 2*3 multiplication was folded to a constant.
        assert!(simplified.nodes().all(|(_, n)| !matches!(n, Node::Op(BvOp::Mul, _))));
    }

    #[test]
    fn already_simple_programs_are_unchanged_semantically() {
        let mut b = ProgBuilder::new("p");
        let a = b.input("a", 4);
        let bbv = b.input("b", 4);
        let x = b.op2(BvOp::Xor, a, bbv);
        let prog = b.finish(x);
        let s = prog.simplified();
        assert_eq!(s.len(), prog.len());
        assert_eq!(s.root(), prog.root());
    }

    mod properties {
        //! `Prog::simplified` over *randomly generated* well-formed programs —
        //! not just the hand-built cases above: simplification must preserve
        //! well-formedness and stream semantics for any program shape.

        use super::super::*;
        use crate::symbolic::parse_input_var;
        use crate::{BvOp, HoleDomain, ProgBuilder, StreamInputs};
        use lr_bv::BitVec;
        use lr_smt::TermPool;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// One straight-line instruction over earlier nodes: the generator builds
        /// a DAG by construction, so every program is well-formed.
        #[derive(Debug, Clone)]
        enum Instr {
            Const(u64),
            Un(u8, usize),
            Bin(u8, usize, usize),
            Mux(usize, usize, usize),
            Reg(usize),
        }

        const WIDTH: u32 = 8;

        fn instr_strategy() -> impl Strategy<Value = Instr> {
            prop_oneof![
                (0u64..=0xff).prop_map(Instr::Const),
                (0u8..3, 0usize..64).prop_map(|(op, a)| Instr::Un(op, a)),
                (0u8..8, 0usize..64, 0usize..64).prop_map(|(op, a, b)| Instr::Bin(op, a, b)),
                (0usize..64, 0usize..64, 0usize..64).prop_map(|(c, t, e)| Instr::Mux(c, t, e)),
                (0usize..64).prop_map(Instr::Reg),
            ]
        }

        /// Realizes the instruction list as a well-formed 8-bit program over
        /// inputs `a`, `b`, `c`. Operand indices wrap over the nodes built so
        /// far; every node already built has width 8 except the 1-bit comparison
        /// results tracked in `one_bit`, which only mux conditions may consume.
        /// With `holes`, each constant is emitted as a hole instead, and the
        /// returned assignment fills the sketch back into the program.
        fn build(instrs: &[Instr], holes: bool) -> (Prog, BTreeMap<String, BitVec>) {
            let mut filling = BTreeMap::new();
            let mut b = ProgBuilder::new("prop_prog");
            let mut wide: Vec<NodeId> = Vec::new();
            let mut one_bit: Vec<NodeId> = Vec::new();
            for name in ["a", "b", "c"] {
                wide.push(b.input(name, WIDTH));
            }
            for (i, instr) in instrs.iter().enumerate() {
                let pick = |nodes: &[NodeId], i: usize| nodes[i % nodes.len()];
                match instr {
                    Instr::Const(v) if holes => {
                        let name = format!("k{i}");
                        wide.push(b.hole(&name, WIDTH, HoleDomain::AnyConstant));
                        filling.insert(name, BitVec::from_u64(*v, WIDTH));
                    }
                    Instr::Const(v) => wide.push(b.constant_u64(*v, WIDTH)),
                    Instr::Un(op, a) => {
                        let a = pick(&wide, *a);
                        let op = match op % 3 {
                            0 => BvOp::Not,
                            1 => BvOp::Neg,
                            _ => {
                                let low = b.extract(a, 3, 0);
                                wide.push(b.zext(low, WIDTH));
                                continue;
                            }
                        };
                        wide.push(b.op1(op, a));
                    }
                    Instr::Bin(op, x, y) => {
                        let x = pick(&wide, *x);
                        let y = pick(&wide, *y);
                        match op % 8 {
                            0 => wide.push(b.op2(BvOp::Add, x, y)),
                            1 => wide.push(b.op2(BvOp::Sub, x, y)),
                            2 => wide.push(b.op2(BvOp::Mul, x, y)),
                            3 => wide.push(b.op2(BvOp::And, x, y)),
                            4 => wide.push(b.op2(BvOp::Or, x, y)),
                            5 => wide.push(b.op2(BvOp::Xor, x, y)),
                            6 => wide.push(b.op2(BvOp::Shl, x, y)),
                            _ => one_bit.push(b.op2(BvOp::Ult, x, y)),
                        }
                    }
                    Instr::Mux(c, t, e) => {
                        if one_bit.is_empty() {
                            continue;
                        }
                        let c = pick(&one_bit, *c);
                        let t = pick(&wide, *t);
                        let e = pick(&wide, *e);
                        wide.push(b.mux(c, t, e));
                    }
                    Instr::Reg(d) => {
                        let d = pick(&wide, *d);
                        wide.push(b.reg(d, WIDTH));
                    }
                }
            }
            let root = *wide.last().expect("inputs guarantee at least one node");
            (b.finish(root), filling)
        }

        /// The width rule applied recursively through a node's operands: the
        /// reference every program's stored widths must agree with.
        fn reference_width(prog: &Prog, id: NodeId) -> u32 {
            match prog.node(id).expect("id belongs to the program") {
                Node::BV(bv) => bv.width(),
                Node::Var { width, .. } | Node::Hole { width, .. } => *width,
                Node::Reg { init, .. } => init.width(),
                Node::Prim(p) => reference_width(&p.semantics, p.semantics.root()),
                Node::Op(op, args) => {
                    let w = |i: usize| reference_width(prog, args[i]);
                    match op {
                        BvOp::Not | BvOp::Neg => w(0),
                        BvOp::Concat => w(0) + w(1),
                        BvOp::Extract { hi, lo } => hi - lo + 1,
                        BvOp::ZeroExt { width } | BvOp::SignExt { width } => *width,
                        BvOp::Eq
                        | BvOp::Ult
                        | BvOp::Ule
                        | BvOp::Slt
                        | BvOp::Sle
                        | BvOp::RedOr
                        | BvOp::RedAnd
                        | BvOp::RedXor => 1,
                        BvOp::Ite => w(1),
                        _ => w(0),
                    }
                }
            }
        }

        fn widths_match_reference(prog: &Prog, what: &str) -> TestCaseResult {
            for (id, _) in prog.nodes() {
                prop_assert_eq!(prog.width(id), reference_width(prog, id), "{} node {}", what, id);
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn simplified_preserves_wf_and_semantics(
                instrs in proptest::collection::vec(instr_strategy(), 1..24),
                inputs in proptest::collection::vec((0u64..=0xff, 0u64..=0xff, 0u64..=0xff), 3),
            ) {
                let (prog, _) = build(&instrs, false);
                prop_assert!(prog.well_formed().is_ok(), "generator must produce wf programs");
                let simplified = prog.simplified();
                prop_assert!(
                    simplified.well_formed().is_ok(),
                    "simplification broke well-formedness: {:?}",
                    simplified.well_formed()
                );
                prop_assert!(simplified.len() <= prog.len(), "simplification must not grow programs");
                // Every assembler of a `Prog` carries widths that agree with the
                // rule applied from scratch.
                widths_match_reference(&prog, "built")?;
                widths_match_reference(&simplified, "simplified")?;
                widths_match_reference(&prog.with_id_offset(1000), "offset")?;
                widths_match_reference(&prog.saturated(), "saturated")?;
                // One schedule traces every environment below.
                let schedule = prog.schedule().unwrap();
                // The same program with its constants as holes, and their values.
                let (sketch, filling) = build(&instrs, true);
                prop_assert_eq!(&sketch.fill_holes(&filling).unwrap(), &prog);
                let sketch_schedule = sketch.schedule().unwrap();
                let no_holes = BTreeMap::new();
                for (a, bv, c) in inputs {
                    let env = StreamInputs::from_constants([
                        ("a".to_string(), BitVec::from_u64(a, WIDTH)),
                        ("b".to_string(), BitVec::from_u64(bv, WIDTH)),
                        ("c".to_string(), BitVec::from_u64(c, WIDTH)),
                    ]);
                    let trace = prog.interp_trace(&env, 2).unwrap();
                    prop_assert_eq!(
                        &schedule.trace(&env, 2).unwrap(),
                        &trace,
                        "a reused schedule diverged for inputs ({}, {}, {})", a, bv, c
                    );
                    let mut pool = TermPool::new();
                    for t in 0..3 {
                        prop_assert_eq!(
                            prog.interp(&env, t).unwrap(),
                            simplified.interp(&env, t).unwrap(),
                            "semantics diverged at cycle {} for inputs ({}, {}, {})", t, a, bv, c
                        );
                        // The symbolic encoding of Fig. 4 must agree with the concrete one.
                        let bindings: lr_smt::Env = prog
                            .symbolic_input_names(t)
                            .into_iter()
                            .map(|(name, _)| {
                                let (input, time) = parse_input_var(&name).expect("input var");
                                let value = env.get(input, time).expect("bound input");
                                (name, value)
                            })
                            .collect();
                        let symbolic = StreamInputs::new();
                        let term = schedule.term(&mut pool, t, &symbolic, &no_holes);
                        prop_assert_eq!(
                            pool.eval(term, &bindings).unwrap(),
                            trace[t as usize].clone(),
                            "symbolic and concrete diverged at cycle {} for inputs ({}, {}, {})",
                            t, a, bv, c
                        );
                        // A sketch walked with its holes bound is the filled
                        // program's term, with inputs symbolic or bound.
                        for inputs in [&symbolic, &env] {
                            prop_assert_eq!(
                                sketch_schedule.term(&mut pool, t, inputs, &filling),
                                schedule.term(&mut pool, t, inputs, &no_holes),
                                "bound holes diverged from constants at cycle {}", t
                            );
                        }
                    }
                }
            }
        }
    }
}
