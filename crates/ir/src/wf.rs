//! Well-formedness checking for ℒlr programs (conditions W1–W6 of §3.2.1).
//!
//! The combinational-loop check (W6 / Property 1) constructs the constraint graph
//! implied by the monotonicity conditions and looks for a cycle; a topological order
//! doubles as the witness function `w`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::{Node, NodeId, Prog};

/// A violation of one of the well-formedness conditions W1–W6.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WellFormednessError {
    /// W1: the root id is not a node of the program.
    RootMissing(NodeId),
    /// W2: an id occurs more than once across the program and its sub-programs.
    DuplicateId(NodeId),
    /// W3: a node references an id that is not a node of the same program level.
    DanglingInput {
        /// The node whose input is missing.
        node: NodeId,
        /// The missing input id.
        input: NodeId,
    },
    /// W5: a primitive's binding map does not bind exactly the free variables of its
    /// semantics program.
    BindingMismatch {
        /// The primitive node.
        node: NodeId,
        /// Variables that are free in the semantics but unbound.
        missing: Vec<String>,
        /// Bindings that do not correspond to any free variable.
        extra: Vec<String>,
    },
    /// W6: the program contains a combinational loop.
    CombinationalLoop {
        /// A node participating in the loop.
        node: NodeId,
    },
    /// An operator node has the wrong number of arguments.
    BadArity {
        /// The offending node.
        node: NodeId,
        /// Expected argument count.
        expected: usize,
        /// Found argument count.
        found: usize,
    },
}

impl fmt::Display for WellFormednessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WellFormednessError::RootMissing(id) => write!(f, "root {id} is not a node (W1)"),
            WellFormednessError::DuplicateId(id) => write!(f, "id {id} is not unique (W2)"),
            WellFormednessError::DanglingInput { node, input } => {
                write!(f, "node {node} references missing node {input} (W3)")
            }
            WellFormednessError::BindingMismatch { node, missing, extra } => write!(
                f,
                "primitive {node} bindings mismatch: missing {missing:?}, extra {extra:?} (W5)"
            ),
            WellFormednessError::CombinationalLoop { node } => {
                write!(f, "combinational loop through node {node} (W6)")
            }
            WellFormednessError::BadArity { node, expected, found } => {
                write!(f, "node {node} has {found} arguments, expected {expected}")
            }
        }
    }
}

impl std::error::Error for WellFormednessError {}

impl Prog {
    /// Checks conditions W1–W6. Returns the witness function `w` of Property 1 (a
    /// topological level per node id, across all nesting levels) on success.
    pub fn well_formedness_witness(&self) -> Result<BTreeMap<NodeId, u32>, WellFormednessError> {
        // W1.
        if !self.nodes.contains_key(&self.root) {
            return Err(WellFormednessError::RootMissing(self.root));
        }
        // W2: ids unique across nesting.
        let all = self.all_ids();
        let mut seen = BTreeSet::new();
        for id in &all {
            if !seen.insert(*id) {
                return Err(WellFormednessError::DuplicateId(*id));
            }
        }
        // W3, W4, W5 and arity, recursively; also build the constraint graph edges
        // for W6 (edge u -> v means w(v) > w(u)).
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        self.collect_constraints(&mut edges)?;

        // W6: cycle detection / longest-path levels via Kahn's algorithm.
        let mut indegree: BTreeMap<NodeId, usize> = all.iter().map(|&id| (id, 0)).collect();
        let mut succs: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for &(u, v) in &edges {
            *indegree.get_mut(&v).expect("edge target exists") += 1;
            succs.entry(u).or_default().push(v);
        }
        let mut level: BTreeMap<NodeId, u32> = all.iter().map(|&id| (id, 0)).collect();
        let mut queue: Vec<NodeId> =
            indegree.iter().filter(|(_, &d)| d == 0).map(|(&id, _)| id).collect();
        let mut processed = 0usize;
        while let Some(id) = queue.pop() {
            processed += 1;
            let l = level[&id];
            for &s in succs.get(&id).into_iter().flatten() {
                let sl = level.get_mut(&s).expect("node exists");
                *sl = (*sl).max(l + 1);
                let d = indegree.get_mut(&s).expect("node exists");
                *d -= 1;
                if *d == 0 {
                    queue.push(s);
                }
            }
        }
        if processed != all.len() {
            let culprit = indegree
                .iter()
                .find(|(_, &d)| d > 0)
                .map(|(&id, _)| id)
                .expect("some node remains in a cycle");
            return Err(WellFormednessError::CombinationalLoop { node: culprit });
        }
        Ok(level)
    }

    /// Checks conditions W1–W6, discarding the witness.
    pub fn well_formed(&self) -> Result<(), WellFormednessError> {
        self.well_formedness_witness().map(|_| ())
    }

    fn collect_constraints(
        &self,
        edges: &mut Vec<(NodeId, NodeId)>,
    ) -> Result<(), WellFormednessError> {
        for (id, node) in self.nodes() {
            match node {
                Node::Op(op, args) => {
                    if args.len() != op.arity() {
                        return Err(WellFormednessError::BadArity {
                            node: id,
                            expected: op.arity(),
                            found: args.len(),
                        });
                    }
                    for &a in args {
                        if !self.nodes.contains_key(&a) {
                            return Err(WellFormednessError::DanglingInput { node: id, input: a });
                        }
                        edges.push((a, id));
                    }
                }
                Node::Reg { data, .. } => {
                    if !self.nodes.contains_key(data) {
                        return Err(WellFormednessError::DanglingInput { node: id, input: *data });
                    }
                    // Rule 1: registers impose no ordering constraint on their input
                    // (they read it at the previous timestep).
                }
                Node::Prim(p) => {
                    // W3 for the binding values.
                    for &bound in p.bindings.values() {
                        if !self.nodes.contains_key(&bound) {
                            return Err(WellFormednessError::DanglingInput {
                                node: id,
                                input: bound,
                            });
                        }
                    }
                    // W4: the sub-program must be well-formed locally (its own
                    // structure); its constraint edges join the global graph.
                    // W5: bindings == free vars of the semantics.
                    let fv: BTreeSet<String> =
                        p.semantics.free_vars().into_iter().map(|(n, _)| n).collect();
                    let bound: BTreeSet<String> = p.bindings.keys().cloned().collect();
                    if fv != bound {
                        return Err(WellFormednessError::BindingMismatch {
                            node: id,
                            missing: fv.difference(&bound).cloned().collect(),
                            extra: bound.difference(&fv).cloned().collect(),
                        });
                    }
                    if !p.semantics.nodes.contains_key(&p.semantics.root) {
                        return Err(WellFormednessError::RootMissing(p.semantics.root));
                    }
                    // Rule 2: w(prim) > w(sub-program root).
                    edges.push((p.semantics.root, id));
                    // Rule 3: for Var x nodes inside the sub-program, w(var) > w(bs[x]).
                    for (sub_id, sub_node) in p.semantics.nodes() {
                        if let Node::Var { name, .. } = sub_node {
                            if let Some(&outer) = p.bindings.get(name) {
                                edges.push((outer, sub_id));
                            }
                        }
                    }
                    // Recurse for the sub-program's own edges and checks.
                    p.semantics.collect_constraints(edges)?;
                }
                Node::BV(_) | Node::Var { .. } | Node::Hole { .. } => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BvOp, HoleDomain, PrimInstance, ProgBuilder};
    use lr_bv::BitVec;
    use std::collections::BTreeMap as Map;

    #[test]
    fn simple_program_is_well_formed() {
        let mut b = ProgBuilder::new("p");
        let a = b.input("a", 8);
        let c = b.constant_u64(1, 8);
        let s = b.op2(BvOp::Add, a, c);
        let prog = b.finish(s);
        let witness = prog.well_formedness_witness().unwrap();
        // Monotonicity: the sum is strictly above both inputs.
        assert!(witness[&s] > witness[&a]);
        assert!(witness[&s] > witness[&c]);
    }

    #[test]
    fn registers_break_cycles() {
        // A counter: r = r + 1 (through a register) is fine.
        let mut b = ProgBuilder::new("counter");
        let one = b.constant_u64(1, 8);
        // Build the register first with a placeholder data input, then patch via a
        // hand-constructed program is awkward with the builder; instead build the
        // cycle manually.
        let _ = one;
        use crate::{Node, Prog};
        let mut nodes = Map::new();
        nodes.insert(crate::NodeId(0), Node::BV(BitVec::from_u64(1, 8)));
        nodes.insert(
            crate::NodeId(1),
            Node::Op(BvOp::Add, vec![crate::NodeId(0), crate::NodeId(2)]),
        );
        nodes
            .insert(crate::NodeId(2), Node::Reg { data: crate::NodeId(1), init: BitVec::zeros(8) });
        let prog = Prog::from_nodes("counter", crate::NodeId(2), nodes);
        assert!(prog.well_formed().is_ok());
    }

    #[test]
    fn combinational_loop_is_rejected() {
        use crate::{Node, Prog};
        let mut nodes = Map::new();
        // n0 = n1 & n1; n1 = n0 | n0  -- a purely combinational loop.
        nodes.insert(
            crate::NodeId(0),
            Node::Op(BvOp::And, vec![crate::NodeId(1), crate::NodeId(1)]),
        );
        nodes
            .insert(crate::NodeId(1), Node::Op(BvOp::Or, vec![crate::NodeId(0), crate::NodeId(0)]));
        let prog = Prog::from_nodes("loop", crate::NodeId(0), nodes);
        assert!(matches!(prog.well_formed(), Err(WellFormednessError::CombinationalLoop { .. })));
    }

    #[test]
    fn dangling_input_is_rejected() {
        use crate::{Node, Prog};
        let mut nodes = Map::new();
        nodes.insert(crate::NodeId(0), Node::Op(BvOp::Not, vec![crate::NodeId(7)]));
        let prog = Prog::from_nodes("bad", crate::NodeId(0), nodes);
        assert!(matches!(prog.well_formed(), Err(WellFormednessError::DanglingInput { .. })));
    }

    #[test]
    fn missing_root_is_rejected() {
        use crate::{Node, Prog};
        let mut nodes = Map::new();
        nodes.insert(crate::NodeId(0), Node::BV(BitVec::zeros(1)));
        let prog = Prog::from_nodes("bad", crate::NodeId(3), nodes);
        assert_eq!(prog.well_formed(), Err(WellFormednessError::RootMissing(crate::NodeId(3))));
    }

    #[test]
    fn bad_arity_is_rejected() {
        use crate::{Node, Prog};
        let mut nodes = Map::new();
        nodes.insert(crate::NodeId(0), Node::BV(BitVec::zeros(4)));
        nodes.insert(crate::NodeId(1), Node::Op(BvOp::Add, vec![crate::NodeId(0)]));
        let prog = Prog::from_nodes("bad", crate::NodeId(1), nodes);
        assert!(matches!(prog.well_formed(), Err(WellFormednessError::BadArity { .. })));
    }

    fn buffer_prim(b: &mut ProgBuilder, driven_by: crate::NodeId, width: u32) -> PrimInstance {
        let mut inner = ProgBuilder::with_base_id("buf_sem", b.peek_next_id() + 500);
        let x = inner.var("x", width);
        let sem = inner.finish(x);
        PrimInstance {
            module: "BUF".into(),
            interface: "BUF".into(),
            bindings: [("x".to_string(), driven_by)].into_iter().collect(),
            semantics: sem,
            param_names: vec![],
            output_port: "o".into(),
        }
    }

    #[test]
    fn primitive_bindings_checked() {
        // Correct binding.
        let mut b = ProgBuilder::new("p");
        let a = b.input("a", 4);
        let prim = buffer_prim(&mut b, a, 4);
        let p = b.prim(prim);
        let prog = b.finish(p);
        assert!(prog.well_formed().is_ok());

        // Extra binding name.
        let mut b = ProgBuilder::new("p2");
        let a = b.input("a", 4);
        let mut prim = buffer_prim(&mut b, a, 4);
        prim.bindings.insert("ghost".to_string(), a);
        let p = b.prim(prim);
        let prog = b.finish(p);
        assert!(matches!(prog.well_formed(), Err(WellFormednessError::BindingMismatch { .. })));

        // Missing binding.
        let mut b = ProgBuilder::new("p3");
        let a = b.input("a", 4);
        let mut prim = buffer_prim(&mut b, a, 4);
        prim.bindings.clear();
        let p = b.prim(prim);
        let prog = b.finish(p);
        assert!(matches!(prog.well_formed(), Err(WellFormednessError::BindingMismatch { .. })));
    }

    #[test]
    fn duplicate_ids_across_nesting_are_rejected() {
        // Build a primitive whose semantics reuses the outer program's ids.
        let mut b = ProgBuilder::new("outer");
        let a = b.input("a", 4);
        let mut inner = ProgBuilder::new("inner"); // starts ids at 0 -> collides
        let x = inner.var("x", 4);
        let sem = inner.finish(x);
        let prim = PrimInstance {
            module: "BUF".into(),
            interface: "BUF".into(),
            bindings: [("x".to_string(), a)].into_iter().collect(),
            semantics: sem,
            param_names: vec![],
            output_port: "o".into(),
        };
        let p = b.prim(prim);
        let prog = b.finish(p);
        assert!(matches!(prog.well_formed(), Err(WellFormednessError::DuplicateId(_))));
    }

    #[test]
    fn sketches_with_holes_are_well_formed() {
        let mut b = ProgBuilder::new("sk");
        let a = b.input("a", 4);
        let h = b.hole("h", 4, HoleDomain::AnyConstant);
        let s = b.op2(BvOp::Add, a, h);
        let prog = b.finish(s);
        assert!(prog.well_formed().is_ok());
    }

    #[test]
    fn witness_respects_prim_rules() {
        let mut b = ProgBuilder::new("p");
        let a = b.input("a", 4);
        let prim = buffer_prim(&mut b, a, 4);
        let sem_root = prim.semantics.root();
        let p = b.prim(prim);
        let prog = b.finish(p);
        let w = prog.well_formedness_witness().unwrap();
        // Rule 2: the primitive node is above its semantics root.
        assert!(w[&p] > w[&sem_root]);
        // Rule 3: the semantics' Var node is above the binding source.
        assert!(w[&sem_root] > w[&a]);
    }
}
