//! Cost-based extraction: pick the cheapest concrete term representing each class.

use std::collections::HashMap;

use lr_bv::BitVec;
use lr_smt::BvOp;

use crate::graph::{EClassId, EGraph, ENode};

/// Assigns a local cost to an e-node; a term's cost is its node's cost plus the
/// best costs of its children.
pub trait CostFunction {
    /// The cost contributed by `node` itself (children not included).
    fn node_cost(&self, node: &ENode) -> u64;
}

/// Every node costs one — extraction minimizes term size.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeCount;

impl CostFunction for NodeCount {
    fn node_cost(&self, _node: &ENode) -> u64 {
        1
    }
}

/// One node of an extracted term; children refer to earlier indices of the
/// containing [`RecExpr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecNode {
    /// A constant leaf.
    Const(BitVec),
    /// An opaque leaf.
    Symbol {
        /// Leaf name.
        name: String,
        /// Width in bits.
        width: u32,
    },
    /// An operator over earlier entries.
    Op {
        /// The operator.
        op: BvOp,
        /// Indices of the children within the expression.
        args: Vec<usize>,
    },
}

/// A concrete term extracted from an e-graph, in topological order (children
/// strictly before parents; the last entry is the root).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecExpr {
    /// The nodes, children-first.
    pub nodes: Vec<RecNode>,
}

impl RecExpr {
    /// Index of the root node.
    pub fn root(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Number of nodes in the extracted term.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the expression is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// A bottom-up best-cost table over an e-graph, from which terms are extracted.
pub struct Extractor<'a> {
    egraph: &'a EGraph,
    /// Canonical class id → (best cost, best node).
    best: HashMap<u32, (u64, ENode)>,
}

impl<'a> Extractor<'a> {
    /// Computes best costs for every class under `cost` (call
    /// [`EGraph::rebuild`] first).
    pub fn new(egraph: &'a EGraph, cost: &impl CostFunction) -> Self {
        let mut best: HashMap<u32, (u64, ENode)> = HashMap::new();
        // Fixpoint: a class's best cost can only decrease as children resolve.
        // Ascending id order approximates bottom-up (children are hash-consed
        // before their parents), so even a deep linear chain resolves in a couple
        // of passes instead of one level per pass.
        let mut ids: Vec<EClassId> = egraph.class_ids();
        ids.sort_unstable();
        loop {
            let mut changed = false;
            for class in ids.iter().map(|&id| egraph.class(id)) {
                for node in &class.nodes {
                    let children: Option<u64> = node.children().iter().try_fold(0u64, |acc, &c| {
                        best.get(&egraph.find(c).0).map(|&(cost, _)| acc.saturating_add(cost))
                    });
                    let Some(children_cost) = children else { continue };
                    let total = cost.node_cost(node).saturating_add(children_cost);
                    // Equal-cost candidates (ubiquitous once commutativity has run:
                    // `a+b` and `b+a` share a class at the same cost) are broken by
                    // the total order on `ENode`, not by class-list position, so
                    // the extracted canonical form never depends on union history.
                    let replace = match best.get(&class.id.0) {
                        None => true,
                        Some((existing, chosen)) => {
                            total < *existing || (total == *existing && node < chosen)
                        }
                    };
                    if replace {
                        best.insert(class.id.0, (total, node.clone()));
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        Extractor { egraph, best }
    }

    /// The best cost of a class, if any concrete term exists for it.
    pub fn cost(&self, id: EClassId) -> Option<u64> {
        self.best.get(&self.egraph.find(id).0).map(|&(c, _)| c)
    }

    /// Extracts the cheapest term for `root`.
    ///
    /// # Panics
    /// Panics if the class has no extractable term (impossible for classes built
    /// from concrete terms).
    pub fn extract(&self, root: EClassId) -> RecExpr {
        let mut expr = RecExpr::default();
        let mut memo: HashMap<u32, usize> = HashMap::new();
        self.extract_into(root, &mut expr, &mut memo);
        expr
    }

    /// Extracts several roots into one shared expression, returning each root's
    /// index. Shared structure is emitted once.
    pub fn extract_many(&self, roots: &[EClassId]) -> (RecExpr, Vec<usize>) {
        let mut expr = RecExpr::default();
        let mut memo: HashMap<u32, usize> = HashMap::new();
        let indices = roots.iter().map(|&r| self.extract_into(r, &mut expr, &mut memo)).collect();
        (expr, indices)
    }

    fn extract_into(
        &self,
        id: EClassId,
        expr: &mut RecExpr,
        memo: &mut HashMap<u32, usize>,
    ) -> usize {
        // Iterative post-order on (class, ready) pairs: extracted terms can be as
        // deep as the terms that were embedded (ripple structures nest one level
        // per bit), and the embedding side is deliberately recursion-free — the
        // read-back must not reintroduce a stack bound the write side avoided.
        let mut stack: Vec<(u32, bool)> = vec![(self.egraph.find(id).0, false)];
        while let Some((canon, ready)) = stack.pop() {
            if memo.contains_key(&canon) {
                continue;
            }
            let (_, node) = self
                .best
                .get(&canon)
                .unwrap_or_else(|| panic!("class {canon} has no extractable term"));
            let rec = match node {
                ENode::Const(bv) => RecNode::Const(bv.clone()),
                ENode::Symbol { name, width } => {
                    RecNode::Symbol { name: name.clone(), width: *width }
                }
                ENode::Op { op, args } => {
                    if !ready {
                        stack.push((canon, true));
                        for &a in args {
                            stack.push((self.egraph.find(a).0, false));
                        }
                        continue;
                    }
                    let args: Vec<usize> =
                        args.iter().map(|&a| memo[&self.egraph.find(a).0]).collect();
                    RecNode::Op { op: *op, args }
                }
            };
            expr.nodes.push(rec);
            memo.insert(canon, expr.nodes.len() - 1);
        }
        memo[&self.egraph.find(id).0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{p, Rewrite};
    use crate::runner::{saturate, Limits};

    #[test]
    fn extraction_picks_the_constant() {
        let mut eg = EGraph::new();
        let a = eg.add(ENode::Const(BitVec::from_u64(5, 8)));
        let b = eg.add(ENode::Const(BitVec::from_u64(7, 8)));
        let sum = eg.add(ENode::Op { op: BvOp::Add, args: vec![a, b] });
        eg.rebuild();
        let extractor = Extractor::new(&eg, &NodeCount);
        let expr = extractor.extract(sum);
        assert_eq!(expr.len(), 1);
        assert_eq!(expr.nodes[0], RecNode::Const(BitVec::from_u64(12, 8)));
    }

    #[test]
    fn extraction_picks_the_smaller_form_after_saturation() {
        let mut eg = EGraph::new();
        let x = eg.add(ENode::Symbol { name: "x".into(), width: 8 });
        let zero = eg.add(ENode::Const(BitVec::zeros(8)));
        let sum = eg.add(ENode::Op { op: BvOp::Add, args: vec![x, zero] });
        let rules = vec![Rewrite::rule("add-zero", p::add(p::any("x"), p::zero()), p::any("x"))];
        saturate(&mut eg, &rules, &Limits::default());
        let extractor = Extractor::new(&eg, &NodeCount);
        let expr = extractor.extract(sum);
        assert_eq!(expr.len(), 1);
        assert!(matches!(&expr.nodes[0], RecNode::Symbol { name, .. } if name == "x"));
    }

    /// Equal-cost candidates must extract identically regardless of the order
    /// they entered their class — the property the synthesis cache's stable
    /// keys rest on.
    #[test]
    fn equal_cost_ties_break_on_node_order_not_insertion_order() {
        let build = |swapped: bool| {
            let mut eg = EGraph::new();
            let x = eg.add(ENode::Symbol { name: "x".into(), width: 8 });
            let y = eg.add(ENode::Symbol { name: "y".into(), width: 8 });
            let (first, second) = if swapped { (y, x) } else { (x, y) };
            let a = eg.add(ENode::Op { op: BvOp::Add, args: vec![first, second] });
            let b = eg.add(ENode::Op { op: BvOp::Add, args: vec![second, first] });
            eg.union(a, b);
            eg.rebuild();
            let extractor = Extractor::new(&eg, &NodeCount);
            extractor.extract(a)
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn extract_many_shares_structure() {
        let mut eg = EGraph::new();
        let x = eg.add(ENode::Symbol { name: "x".into(), width: 8 });
        let y = eg.add(ENode::Symbol { name: "y".into(), width: 8 });
        let sum = eg.add(ENode::Op { op: BvOp::Add, args: vec![x, y] });
        let prod = eg.add(ENode::Op { op: BvOp::Mul, args: vec![sum, sum] });
        eg.rebuild();
        let extractor = Extractor::new(&eg, &NodeCount);
        let (expr, roots) = extractor.extract_many(&[sum, prod]);
        assert_eq!(roots.len(), 2);
        // x, y, sum, prod — the shared sum is emitted once.
        assert_eq!(expr.len(), 4);
    }
}
