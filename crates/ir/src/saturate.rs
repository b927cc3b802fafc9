//! Equality-saturation canonicalization of ℒlr programs.
//!
//! [`Prog::saturated`] runs the combinational regions of a program — the root cone
//! plus the cone feeding each register and each primitive binding — through the
//! shared `lr_egraph` rule set and extracts the minimum-size equivalent, leaving
//! registers, primitives, and holes as opaque boundaries. Where
//! [`Prog::simplified`] (one-shot constant folding) runs *after* synthesis to
//! clean up selection logic, `saturated` runs *before* sketch specialization: it
//! canonicalizes the behavioral spec so that algebraically-disguised forms
//! (mirrored subtractions, negate-path multiplies, re-associable constant chains)
//! reach the synthesis engine in one normal form.
//!
//! [`StructuralEvidence::scan`] of the canonical form finds the operator
//! families the sketch templates target — the "rule-driven sketch guidance" input
//! that `lr_sketch::guidance` ranks templates with.

use std::collections::{BTreeMap, HashMap};

use lr_egraph::{
    saturate, EClassId, EGraph, ENode, Extractor, Limits, NodeCount, RecNode, SaturationStats,
};
use lr_smt::BvOp;

use crate::{Node, NodeId, Prog, Slot};

/// The result of a saturation pass, with the counters the benchmarks record.
#[derive(Debug, Clone)]
pub struct SaturateOutcome {
    /// The canonicalized, semantically-equivalent program.
    pub prog: Prog,
    /// Saturation counters.
    pub stats: SaturationStats,
    /// Number of combinational cones saturated (root, register data, primitive
    /// bindings).
    pub cones: usize,
    /// Total nodes across the extracted cone expressions.
    pub extracted_nodes: usize,
}

/// Operator families present in a program's *canonical* (saturated) form — the
/// structural evidence sketch guidance ranks templates with. Computed on the
/// saturated program so that, e.g., a multiply-by-one or a constant-condition mux
/// does not claim evidence it no longer has.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StructuralEvidence {
    /// A genuine multiplication survives canonicalization (partial-product sums,
    /// DSP-shaped work).
    pub multiplier: bool,
    /// Additive arithmetic survives (add/sub/neg — carry-chain shaped work).
    pub carry_arith: bool,
    /// The root is a 1-bit comparison (or reduction) — comparison-template shaped.
    pub comparison: bool,
    /// Shifts survive canonicalization.
    pub shifts: bool,
    /// Bitwise logic (and/or/xor/not) survives.
    pub bitwise: bool,
    /// Multiplexing (`ite`) survives.
    pub mux: bool,
    /// Width of the program's root.
    pub root_width: u32,
}

fn var_symbol(name: &str) -> String {
    format!("v!{name}")
}

fn opaque_symbol(id: NodeId) -> String {
    format!("o!{}", id.0)
}

fn parse_symbol(name: &str) -> Option<SymbolKind<'_>> {
    if let Some(var) = name.strip_prefix("v!") {
        return Some(SymbolKind::Var(var));
    }
    name.strip_prefix("o!").and_then(|id| id.parse().ok()).map(|id| SymbolKind::Opaque(NodeId(id)))
}

enum SymbolKind<'a> {
    Var(&'a str),
    Opaque(NodeId),
}

/// Embeds the combinational cone rooted at `root` into the e-graph, stopping at
/// registers, primitives, and holes (which become opaque symbol leaves).
fn cone_to_egraph(
    prog: &Prog,
    root: NodeId,
    egraph: &mut EGraph,
    memo: &mut HashMap<NodeId, EClassId>,
) -> EClassId {
    // Iterative post-order; `None` marks a node whose children are being visited,
    // so a (necessarily ill-formed) combinational cycle degrades to an opaque leaf
    // instead of hanging.
    let mut state: HashMap<NodeId, Option<EClassId>> = HashMap::new();
    for (&id, &class) in memo.iter() {
        state.insert(id, Some(class));
    }
    let mut stack: Vec<(NodeId, bool)> = vec![(root, false)];
    while let Some((id, ready)) = stack.pop() {
        if let Some(Some(_)) = state.get(&id) {
            continue;
        }
        let node = prog.node(id).expect("node id belongs to the program");
        let class = match node {
            Node::BV(bv) => Some(egraph.add(ENode::Const(bv.clone()))),
            Node::Var { name, width } => {
                Some(egraph.add(ENode::Symbol { name: var_symbol(name), width: *width }))
            }
            Node::Reg { .. } | Node::Prim(_) | Node::Hole { .. } => {
                Some(egraph.add(ENode::Symbol { name: opaque_symbol(id), width: prog.width(id) }))
            }
            Node::Op(op, args) => {
                if ready {
                    let arg_classes: Vec<EClassId> = args
                        .iter()
                        .map(|a| state[a].expect("children visited before parents"))
                        .collect();
                    Some(egraph.add(ENode::Op { op: *op, args: arg_classes }))
                } else if let std::collections::hash_map::Entry::Vacant(slot) = state.entry(id) {
                    slot.insert(None);
                    stack.push((id, true));
                    for &a in args {
                        stack.push((a, false));
                    }
                    None
                } else {
                    // Re-encountered while open: combinational cycle fallback.
                    Some(
                        egraph
                            .add(ENode::Symbol { name: opaque_symbol(id), width: prog.width(id) }),
                    )
                }
            }
        };
        if let Some(class) = class {
            state.insert(id, Some(class));
        }
    }
    let class = state[&root].expect("root cone embedded");
    for (id, entry) in state {
        if let Some(class) = entry {
            memo.insert(id, class);
        }
    }
    class
}

impl Prog {
    /// Returns a semantically-equivalent program with every combinational region
    /// canonicalized by equality saturation under the shared QF_BV rule set.
    /// Registers, primitives, and holes are opaque boundaries (kept as-is);
    /// declared inputs are preserved even when rewriting proves them irrelevant,
    /// so the program's interface — and therefore sketch generation — is stable.
    pub fn saturated(&self) -> Prog {
        self.saturated_with_stats(&Limits::default()).prog
    }

    /// [`Prog::saturated`] with explicit limits and the counters the `exp_egraph`
    /// benchmark records.
    pub fn saturated_with_stats(&self, limits: &Limits) -> SaturateOutcome {
        let mut sp = lr_trace::span("saturate");
        // The cone roots: the program output plus every sequential/structural
        // boundary's inputs.
        let mut cone_roots: Vec<NodeId> = vec![self.root];
        for (_, node) in self.nodes() {
            match node {
                Node::Reg { data, .. } => cone_roots.push(*data),
                Node::Prim(p) => cone_roots.extend(p.bindings.values().copied()),
                _ => {}
            }
        }
        cone_roots.sort_unstable();
        cone_roots.dedup();

        // One shared e-graph across all cones, so common sub-structure saturates
        // once and extraction shares it.
        let mut egraph = EGraph::new();
        let mut embed_memo: HashMap<NodeId, EClassId> = HashMap::new();
        let root_classes: Vec<EClassId> = cone_roots
            .iter()
            .map(|&r| cone_to_egraph(self, r, &mut egraph, &mut embed_memo))
            .collect();
        let stats = saturate(&mut egraph, lr_egraph::rules::bv_rules_cached(), limits);
        let extractor = Extractor::new(&egraph, &NodeCount);
        let (expr, root_indices) = extractor.extract_many(&root_classes);

        // Rebuild: original nodes keep their ids; extracted expressions get fresh
        // ids above the current maximum (preserving W2 global uniqueness).
        let mut nodes: BTreeMap<NodeId, Slot> = self.nodes.clone();
        let mut next_id = self.max_id().map(|m| m + 1).unwrap_or(0);
        let mut var_ids: HashMap<&str, NodeId> = HashMap::new();
        for (id, node) in self.nodes() {
            if let Node::Var { name, .. } = node {
                var_ids.entry(name.as_str()).or_insert(id);
            }
        }
        let mut add = |node: Node| {
            let id = NodeId(next_id);
            next_id += 1;
            // Operands are extracted before their users, so their widths are known.
            let width = node.width_from(&nodes);
            nodes.insert(id, Slot { node, width });
            id
        };
        let mut expr_ids: Vec<NodeId> = Vec::with_capacity(expr.len());
        for rec in &expr.nodes {
            let id = match rec {
                RecNode::Symbol { name, .. } => match parse_symbol(name) {
                    Some(SymbolKind::Var(var)) => {
                        *var_ids.get(var).expect("symbol names an existing variable")
                    }
                    Some(SymbolKind::Opaque(id)) => id,
                    None => unreachable!("saturate only embeds v!/o! symbols"),
                },
                RecNode::Const(bv) => add(Node::BV(bv.clone())),
                RecNode::Op { op, args } => {
                    add(Node::Op(*op, args.iter().map(|&i| expr_ids[i]).collect()))
                }
            };
            expr_ids.push(id);
        }
        let extracted: HashMap<NodeId, NodeId> =
            cone_roots.iter().zip(&root_indices).map(|(&old, &idx)| (old, expr_ids[idx])).collect();

        // Re-point the sequential/structural boundaries at the canonical cones.
        for slot in nodes.values_mut() {
            match &mut slot.node {
                Node::Reg { data, .. } => {
                    if let Some(&new) = extracted.get(data) {
                        *data = new;
                    }
                }
                Node::Prim(p) => {
                    for target in p.bindings.values_mut() {
                        if let Some(&new) = extracted.get(target) {
                            *target = new;
                        }
                    }
                }
                _ => {}
            }
        }
        let root = extracted.get(&self.root).copied().unwrap_or(self.root);

        // Dead-node elimination, keeping every `Var` node so the program's input
        // interface (free_vars / declared_inputs) survives even when rewriting
        // proved an input irrelevant.
        let mut reachable = std::collections::BTreeSet::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if !reachable.insert(id) {
                continue;
            }
            match &nodes[&id].node {
                Node::Op(_, args) => stack.extend(args.iter().copied()),
                Node::Reg { data, .. } => stack.push(*data),
                Node::Prim(p) => stack.extend(p.bindings.values().copied()),
                _ => {}
            }
        }
        nodes.retain(|id, slot| reachable.contains(id) || matches!(slot.node, Node::Var { .. }));
        let prog = Prog { name: self.name.clone(), root, nodes, inputs: self.inputs.clone() };
        if sp.is_active() {
            sp.attr("cones", cone_roots.len() as u64);
            sp.attr("extracted_nodes", expr.len() as u64);
            sp.attr("egraph_iterations", stats.iterations as u64);
            sp.attr("egraph_unions", stats.unions);
        }
        SaturateOutcome { prog, stats, cones: cone_roots.len(), extracted_nodes: expr.len() }
    }
}

impl StructuralEvidence {
    /// Scans a program's operators *as-is* (no saturation). Pass a canonical
    /// program ([`Prog::saturated`]) for disguise-proof evidence, as
    /// `lakeroad::map_design_auto` does.
    pub fn scan(canonical: &Prog) -> StructuralEvidence {
        let mut ev = StructuralEvidence {
            root_width: canonical.width(canonical.root()),
            ..Default::default()
        };
        // Comparison evidence requires a predicate-shaped *root* (possibly behind
        // a NOT — `!(a < b)` is still comparison work). Buried comparisons feeding
        // wider logic or muxes are condition logic, not a comparison design.
        let mut predicate_root = false;
        if let Some(Node::Op(op, args)) = canonical.node(canonical.root()) {
            predicate_root = op.is_predicate();
            if let (BvOp::Not, Some(Node::Op(inner, _))) =
                (op, args.first().and_then(|a| canonical.node(*a)))
            {
                predicate_root |= inner.is_predicate();
            }
        }
        ev.comparison = ev.root_width == 1 && predicate_root;
        for (_, node) in canonical.nodes() {
            let Node::Op(op, _) = node else { continue };
            match op {
                BvOp::Mul => ev.multiplier = true,
                BvOp::Add | BvOp::Sub | BvOp::Neg => ev.carry_arith = true,
                BvOp::Shl | BvOp::Lshr | BvOp::Ashr => ev.shifts = true,
                BvOp::And | BvOp::Or | BvOp::Xor | BvOp::Not => ev.bitwise = true,
                BvOp::Ite => ev.mux = true,
                _ => {}
            }
        }
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::StreamInputs;
    use crate::ProgBuilder;
    use lr_bv::BitVec;

    #[test]
    fn saturated_folds_disguised_identities() {
        // ((a + 0xff) + 1) − (b − b)  ≡  a.
        let mut b = ProgBuilder::new("p");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let ff = b.constant_u64(0xff, 8);
        let one = b.constant_u64(1, 8);
        let t = b.op2(BvOp::Add, a, ff);
        let t = b.op2(BvOp::Add, t, one);
        let bmb = b.op2(BvOp::Sub, bb, bb);
        let out = b.op2(BvOp::Sub, t, bmb);
        let prog = b.finish(out);
        let canonical = prog.saturated();
        assert!(canonical.well_formed().is_ok());
        // The root collapses to the input variable itself.
        assert!(
            matches!(canonical.node(canonical.root()), Some(Node::Var { name, .. }) if name == "a")
        );
        // The interface survives: `b` is still a free variable.
        assert_eq!(prog.free_vars(), canonical.free_vars());
        assert_eq!(prog.declared_inputs(), canonical.declared_inputs());
    }

    #[test]
    fn saturated_preserves_semantics_across_registers() {
        // reg((a − b) · c) + reg-of-reg structure.
        let mut b = ProgBuilder::new("p");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let c = b.input("c", 8);
        let amb = b.op2(BvOp::Sub, a, bb);
        let prod = b.op2(BvOp::Mul, amb, c);
        let r1 = b.reg(prod, 8);
        let zero = b.constant_u64(0, 8);
        let noisy = b.op2(BvOp::Add, r1, zero);
        let r2 = b.reg(noisy, 8);
        let prog = b.finish(r2);
        let canonical = prog.saturated();
        assert!(canonical.well_formed().is_ok());
        let env = StreamInputs::from_constants([
            ("a".to_string(), BitVec::from_u64(9, 8)),
            ("b".to_string(), BitVec::from_u64(4, 8)),
            ("c".to_string(), BitVec::from_u64(3, 8)),
        ]);
        for t in 0..4 {
            assert_eq!(
                prog.interp(&env, t).unwrap(),
                canonical.interp(&env, t).unwrap(),
                "cycle {t}"
            );
        }
        // The registers survive as registers (sequential depth is untouched).
        let before = prog.count_kinds();
        let after = canonical.count_kinds();
        assert_eq!(before.regs, after.regs);
    }

    #[test]
    fn structural_evidence_sees_through_disguises() {
        // A multiply hidden behind a negate path still reads as a multiplier.
        let mut b = ProgBuilder::new("p");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let zero = b.constant_u64(0, 8);
        let nb = b.op2(BvOp::Sub, zero, bb);
        let prod = b.op2(BvOp::Mul, a, nb);
        let out = b.op2(BvOp::Sub, zero, prod);
        let prog = b.finish(out);
        let ev = StructuralEvidence::scan(&prog.saturated());
        assert!(ev.multiplier);
        assert_eq!(ev.root_width, 8);
        assert!(!ev.comparison);

        // A multiply-by-one is *not* multiplier evidence after canonicalization.
        let mut b = ProgBuilder::new("q");
        let a = b.input("a", 8);
        let one = b.constant_u64(1, 8);
        let prod = b.op2(BvOp::Mul, a, one);
        let bb = b.input("b", 8);
        let out = b.op2(BvOp::Xor, prod, bb);
        let prog = b.finish(out);
        let ev = StructuralEvidence::scan(&prog.saturated());
        assert!(!ev.multiplier);
        assert!(ev.bitwise);

        // A comparison root reads as comparison-shaped.
        let mut b = ProgBuilder::new("r");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let out = b.op2(BvOp::Ult, a, bb);
        let prog = b.finish(out);
        let ev = StructuralEvidence::scan(&prog.saturated());
        assert!(ev.comparison);
        assert_eq!(ev.root_width, 1);
    }

    #[test]
    fn saturated_keeps_holes_and_prims_opaque() {
        let mut b = ProgBuilder::new("p");
        let a = b.input("a", 8);
        let h = b.hole("k", 8, crate::HoleDomain::AnyConstant);
        let zero = b.constant_u64(0, 8);
        let noisy = b.op2(BvOp::Add, h, zero);
        let out = b.op2(BvOp::Xor, a, noisy);
        let prog = b.finish(out);
        let canonical = prog.saturated();
        assert!(canonical.well_formed().is_ok());
        assert!(canonical.has_holes());
        // The + 0 around the hole is gone.
        let stats = canonical.count_kinds();
        assert_eq!(stats.ops, 1, "only the xor remains: {canonical:?}");
    }
}
