//! # lr-egraph: equality saturation over the QF_BV operator set
//!
//! This crate is the principled successor to `lr_smt::TermPool`'s one-shot,
//! constructor-time rewriting, following *Scaling Program Synthesis Based
//! Technology Mapping with Equality Saturation* (arXiv 2411.11036): instead of
//! committing to one rewrite order, an **e-graph** keeps every equivalent form
//! discovered so far, rules only ever add information, and a cost-based extraction
//! picks the best representative at the end. The pieces:
//!
//! * [`EGraph`] — hash-consed e-nodes over a union-find of e-classes, congruence
//!   closure with a deferred [`EGraph::rebuild`], and a constant-folding analysis
//!   (every class whose value is decided carries it, and is unioned with the
//!   literal constant);
//! * [`pattern`] — the [`Pattern`]/[`Rewrite`] representation and the [`pattern::p`]
//!   builder DSL for stating rules declaratively;
//! * [`rules::bv_rules`] — the rule set shared with the rest of the workspace: the
//!   `TermPool` rewrites in declarative form, plus associativity/commutativity,
//!   which one-shot rewriting cannot exploit;
//! * [`saturate`] — bounded saturation ([`Limits`] caps iterations and nodes) with
//!   [`SaturationStats`] counters;
//! * [`Extractor`] — cost-based extraction under a [`CostFunction`] (every
//!   extraction uses [`NodeCount`], which minimizes term size);
//! * [`fold_term`] — the `TermPool` bridge: embed a term, saturate, extract. Used
//!   by `lr_synth`'s CEGIS verifier to pre-fold disequalities before any SAT work,
//!   and by `lr_ir`'s `Prog::saturated` canonicalization pass.
//!
//! ```
//! use lr_egraph::{fold_term, Limits};
//! use lr_egraph::rules::bv_rules;
//! use lr_smt::TermPool;
//! use lr_bv::BitVec;
//!
//! // A disequality the pool's one-shot rewriting cannot decide…
//! let mut pool = TermPool::without_simplification();
//! let (a, b) = (pool.var("a", 8), pool.var("b", 8));
//! let ab = pool.sub(a, b);
//! let ba = pool.sub(b, a);
//! let neg = pool.neg(ba);
//! let ne = pool.ne(ab, neg);      // (a − b) ≠ −(b − a)
//! assert!(pool.as_const(ne).is_none());
//!
//! // …folds to false by saturation alone.
//! let (folded, report) = fold_term(&mut pool, ne, &bv_rules(), &Limits::default());
//! assert_eq!(pool.as_const(folded), Some(&BitVec::from_bool(false)));
//! assert!(report.folded_const);
//! ```

mod extract;
mod fold;
mod graph;
pub mod pattern;
pub mod rules;
mod runner;

pub use extract::{CostFunction, Extractor, NodeCount, RecExpr, RecNode};
pub use fold::{fold_term, recexpr_to_term, term_to_egraph, FoldReport};
pub use graph::{EClass, EClassId, EGraph, ENode};
pub use pattern::{Pattern, Recipe, Rewrite, Subst};
pub use runner::{saturate, saturate_with_goal, Limits, SaturationStats, StopReason};
