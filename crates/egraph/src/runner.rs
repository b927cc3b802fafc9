//! Bounded equality saturation: apply every rule everywhere, rebuild, repeat until
//! a fixpoint or a resource limit.

use crate::graph::{EClassId, EGraph};
use crate::pattern::{instantiate, match_in_class, Recipe, Rewrite, RewriteKind, Subst};

/// Resource limits bounding a saturation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum number of search/apply/rebuild iterations.
    pub max_iterations: usize,
    /// Stop once the graph holds this many e-nodes (checked between iterations, so
    /// the final graph may overshoot by one iteration's growth). It also bounds
    /// one iteration's search: once that has collected more than ten matches per
    /// e-node of this limit, the run stops with [`StopReason::NodeLimit`]
    /// without applying them.
    pub max_nodes: usize,
}

/// Matches one iteration may collect per e-node of [`Limits::max_nodes`]. A
/// class that contains itself under an associative, commutative operator (as
/// `a & 0` does in the class of `0`) lets the search match without end while
/// the graph stays far below its node limit.
const MATCHES_PER_NODE: usize = 10;

impl Default for Limits {
    fn default() -> Self {
        Limits { max_iterations: 16, max_nodes: 10_000 }
    }
}

impl Limits {
    /// The tighter budget used when folding CEGIS verification disequalities: those
    /// queries sit on the synthesis hot path, so saturation must stay cheap even
    /// when it fails to decide the query. Decidable disequalities stop early via
    /// the goal short-circuit (the PR-2 monster forms fold within 6 iterations and
    /// ~300 e-nodes); this cap only bounds the wasted work on queries saturation
    /// cannot decide, which go to SAT regardless.
    pub fn verifier() -> Self {
        Limits { max_iterations: 7, max_nodes: 1_200 }
    }
}

/// Why a saturation run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A fixpoint: no rule application changed the graph.
    Saturated,
    /// The iteration limit was reached.
    IterationLimit,
    /// The node limit was reached.
    NodeLimit,
    /// The goal class's constant value was decided (see [`saturate_with_goal`]),
    /// so further saturation could not change the answer.
    GoalDecided,
}

/// Counters describing one saturation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaturationStats {
    /// Iterations performed.
    pub iterations: usize,
    /// Total pattern/dynamic matches found across all iterations.
    pub matches: u64,
    /// Unions performed (including congruence repairs).
    pub unions: u64,
    /// E-nodes in the graph when the run stopped.
    pub enodes: usize,
    /// E-classes in the graph when the run stopped.
    pub classes: usize,
    /// Why the run stopped.
    pub stop: StopReason,
}

/// Runs the rules to saturation (or a limit) and reports statistics.
pub fn saturate(egraph: &mut EGraph, rules: &[Rewrite], limits: &Limits) -> SaturationStats {
    saturate_with_goal(egraph, rules, limits, None)
}

/// [`saturate`] with an early exit: once `goal`'s constant value is decided the
/// run stops, because no further rewriting can change a constant. This is what
/// keeps the verification pre-fold cheap — a disequality that is going to fold to
/// `false` usually does so in the first few iterations, and paying the full node
/// budget after the answer is known would waste exactly the time the pre-fold is
/// supposed to save.
pub fn saturate_with_goal(
    egraph: &mut EGraph,
    rules: &[Rewrite],
    limits: &Limits,
    goal: Option<EClassId>,
) -> SaturationStats {
    let mut sp = lr_trace::span("egraph-saturate");
    let stats = saturate_goal_inner(egraph, rules, limits, goal);
    if sp.is_active() {
        sp.attr("iterations", stats.iterations as u64);
        sp.attr("matches", stats.matches);
        sp.attr("unions", stats.unions);
        sp.attr("enodes", stats.enodes as u64);
        sp.attr("classes", stats.classes as u64);
    }
    stats
}

fn saturate_goal_inner(
    egraph: &mut EGraph,
    rules: &[Rewrite],
    limits: &Limits,
    goal: Option<EClassId>,
) -> SaturationStats {
    egraph.rebuild();
    let mut stats = SaturationStats {
        iterations: 0,
        matches: 0,
        unions: 0,
        enodes: egraph.total_enodes(),
        classes: egraph.num_classes(),
        stop: StopReason::IterationLimit,
    };
    let unions_at_start = egraph.union_count();
    if let Some(goal) = goal {
        if egraph.constant(goal).is_some() {
            stats.stop = StopReason::GoalDecided;
            stats.unions = 0;
            return stats;
        }
    }
    let max_matches = limits.max_nodes.saturating_mul(MATCHES_PER_NODE);
    for _ in 0..limits.max_iterations {
        stats.iterations += 1;
        let unions_before = egraph.union_count();
        let nodes_before = egraph.nodes_added();

        // Search phase (immutable): collect every (matched class, production),
        // up to the match bound.
        let mut pattern_apps: Vec<(EClassId, u32, &crate::pattern::Pattern, Subst)> = Vec::new();
        let mut dyn_apps: Vec<(EClassId, Recipe)> = Vec::new();
        let ids = egraph.class_ids();
        'search: for rule in rules {
            for &id in &ids {
                let class = egraph.class(id);
                let room = max_matches.saturating_add(1) - (pattern_apps.len() + dyn_apps.len());
                match &rule.kind {
                    RewriteKind::Rule { lhs, rhs } => {
                        let matches = match_in_class(egraph, lhs, class, &Subst::default());
                        let apps = matches.into_iter().take(room);
                        pattern_apps.extend(apps.map(|subst| (id, class.width, rhs, subst)));
                    }
                    RewriteKind::Dyn(f) => {
                        let recipes = class.nodes.iter().flat_map(|node| f(egraph, class, node));
                        dyn_apps.extend(recipes.take(room).map(|recipe| (id, recipe)));
                    }
                }
                if pattern_apps.len() + dyn_apps.len() > max_matches {
                    break 'search;
                }
            }
        }
        stats.matches += (pattern_apps.len() + dyn_apps.len()) as u64;
        if pattern_apps.len() + dyn_apps.len() > max_matches {
            stats.stop = StopReason::NodeLimit;
            break;
        }

        // Apply phase (mutable): instantiate productions and union.
        for (id, width, rhs, subst) in pattern_apps {
            let new = instantiate(egraph, rhs, &subst, width);
            egraph.union(id, new);
        }
        for (id, recipe) in dyn_apps {
            let new = recipe.build(egraph);
            egraph.union(id, new);
        }
        egraph.rebuild();

        stats.enodes = egraph.total_enodes();
        stats.classes = egraph.num_classes();
        if let Some(goal) = goal {
            if egraph.constant(goal).is_some() {
                stats.stop = StopReason::GoalDecided;
                break;
            }
        }
        if egraph.union_count() == unions_before && egraph.nodes_added() == nodes_before {
            stats.stop = StopReason::Saturated;
            break;
        }
        if stats.enodes >= limits.max_nodes {
            stats.stop = StopReason::NodeLimit;
            break;
        }
    }
    stats.unions = egraph.union_count() - unions_at_start;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ENode;
    use crate::pattern::{p, Rewrite};
    use crate::rules::bv_rules;
    use lr_bv::BitVec;
    use lr_smt::BvOp;

    #[test]
    fn saturation_reaches_fixpoint_on_identities() {
        let mut eg = EGraph::new();
        let x = eg.add(ENode::Symbol { name: "x".into(), width: 8 });
        let zero = eg.add(ENode::Const(BitVec::zeros(8)));
        let sum = eg.add(ENode::Op { op: BvOp::Add, args: vec![x, zero] });
        let rules = vec![Rewrite::rule("add-zero", p::add(p::any("x"), p::zero()), p::any("x"))];
        let stats = saturate(&mut eg, &rules, &Limits::default());
        assert_eq!(stats.stop, StopReason::Saturated);
        assert!(stats.matches >= 1);
        assert!(eg.equiv(sum, x));
    }

    #[test]
    fn node_limit_stops_runaway_growth() {
        // Associativity + commutativity over a long chain grows fast; a tiny node
        // budget must stop it without hanging.
        let mut eg = EGraph::new();
        let mut acc = eg.add(ENode::Symbol { name: "v0".into(), width: 8 });
        for i in 1..10 {
            let v = eg.add(ENode::Symbol { name: format!("v{i}"), width: 8 });
            acc = eg.add(ENode::Op { op: BvOp::Add, args: vec![acc, v] });
        }
        let limits = Limits { max_iterations: 50, max_nodes: 60 };
        let stats = saturate(&mut eg, &bv_rules(), &limits);
        assert_eq!(stats.stop, StopReason::NodeLimit);
    }

    #[test]
    fn a_class_that_contains_itself_stops_at_the_match_bound() {
        // b * (a & (a & 0)): `x & 0 = 0` puts `a & 0` into the class of 0, so
        // that class contains itself under `and`, and associativity and
        // commutativity match without end while the graph stays small.
        let mut eg = EGraph::new();
        let a = eg.add(ENode::Symbol { name: "a".into(), width: 8 });
        let b = eg.add(ENode::Symbol { name: "b".into(), width: 8 });
        let zero = eg.add(ENode::Const(BitVec::zeros(8)));
        let inner = eg.add(ENode::Op { op: BvOp::And, args: vec![a, zero] });
        let outer = eg.add(ENode::Op { op: BvOp::And, args: vec![a, inner] });
        let root = eg.add(ENode::Op { op: BvOp::Mul, args: vec![b, outer] });
        let stats = saturate(&mut eg, &bv_rules(), &Limits::default());
        assert_eq!(stats.stop, StopReason::NodeLimit);
        assert!(stats.matches < 200_000, "{stats:?}");
        assert!(stats.enodes < Limits::default().max_nodes, "{stats:?}");
        assert_eq!(eg.constant(root), Some(&BitVec::zeros(8)));
    }

    #[test]
    fn iteration_limit_is_respected() {
        let mut eg = EGraph::new();
        let mut acc = eg.add(ENode::Symbol { name: "v0".into(), width: 8 });
        for i in 1..8 {
            let v = eg.add(ENode::Symbol { name: format!("v{i}"), width: 8 });
            acc = eg.add(ENode::Op { op: BvOp::Mul, args: vec![acc, v] });
        }
        let limits = Limits { max_iterations: 2, max_nodes: usize::MAX };
        let stats = saturate(&mut eg, &bv_rules(), &limits);
        assert!(stats.iterations <= 2);
    }
}
