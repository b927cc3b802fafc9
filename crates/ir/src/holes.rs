//! Holes, hole domains, sublanguage classification, and hole filling.
//!
//! A sketch Ψ = (ψ, h) of §3.1 is represented as a [`crate::Prog`] whose `Hole` nodes
//! each carry their own [`HoleDomain`] (the map `h`). Filling holes with concrete
//! values produces an ℒstruct program, which is the paper's
//! `Ψ[■x₁ ↦ n₁, …]` substitution.

use std::collections::BTreeMap;

use lr_bv::BitVec;

use crate::{Node, Prog};

/// The set of hole-free nodes allowed to fill a hole (the map `h` of §3.1).
///
/// In practice Lakeroad's holes stand for primitive ports and parameters, so the
/// domains are either "any constant of the hole's width" or an explicit choice list
/// (e.g. a parameter that must be one of `"AD"`, `"A"`, … encoded as small integers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HoleDomain {
    /// Any constant bitvector of the hole's width.
    AnyConstant,
    /// One of an explicit list of constants.
    Choice(Vec<BitVec>),
    /// Any constant whose value is strictly less than the bound (used for mode
    /// fields whose high encodings are reserved/invalid).
    LessThan(BitVec),
}

/// A description of one hole found in a program.
#[derive(Debug, Clone, PartialEq)]
pub struct HoleInfo {
    /// The hole's name.
    pub name: String,
    /// The hole's width.
    pub width: u32,
    /// The allowed values.
    pub domain: HoleDomain,
}

impl Prog {
    /// Collects all holes in the program, including inside primitive *bindings* at
    /// this level. Holes never occur inside primitive semantics (those are ℒbeh).
    pub fn holes(&self) -> Vec<HoleInfo> {
        let mut out = Vec::new();
        for (_, node) in self.nodes() {
            if let Node::Hole { name, width, domain } = node {
                out.push(HoleInfo { name: name.clone(), width: *width, domain: domain.clone() });
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Whether the program contains any holes (making it a sketch).
    pub fn has_holes(&self) -> bool {
        self.nodes().any(|(_, n)| matches!(n, Node::Hole { .. }))
    }

    /// Whether the program is in the behavioral fragment ℒbeh (no primitives, no
    /// holes).
    pub fn is_behavioral(&self) -> bool {
        self.nodes().all(|(_, n)| !matches!(n, Node::Prim(_) | Node::Hole { .. }))
    }

    /// Whether the program is in the structural fragment ℒstruct: no operator nodes
    /// and no holes at this level (primitive semantics sub-programs are behavioral by
    /// construction). Registers are permitted at the top level as an extension; the
    /// structural Verilog emitter lowers them to flip-flop always-blocks.
    pub fn is_structural(&self) -> bool {
        self.nodes().all(|(_, n)| match n {
            Node::Op(op, _) => matches!(
                op,
                // Pure wiring operators are allowed in structural programs: they
                // lower to Verilog concatenations/slices, not to logic.
                lr_smt::BvOp::Concat
                    | lr_smt::BvOp::Extract { .. }
                    | lr_smt::BvOp::ZeroExt { .. }
                    | lr_smt::BvOp::SignExt { .. }
            ),
            Node::Hole { .. } => false,
            _ => true,
        })
    }

    /// Whether the program is in the sketch fragment ℒsketch: like ℒstruct but holes
    /// are allowed.
    pub fn is_sketch(&self) -> bool {
        self.nodes().all(|(_, n)| match n {
            Node::Op(op, _) => matches!(
                op,
                lr_smt::BvOp::Concat
                    | lr_smt::BvOp::Extract { .. }
                    | lr_smt::BvOp::ZeroExt { .. }
                    | lr_smt::BvOp::SignExt { .. }
            ),
            _ => true,
        })
    }

    /// Fills holes with constant values, producing a hole-free program
    /// (`Ψ[■x₁ ↦ n₁, …]` in the paper's notation).
    ///
    /// # Errors
    /// Returns the name of the first hole that has no assignment, an assignment of
    /// the wrong width, or an assignment outside its domain.
    pub fn fill_holes(&self, assignment: &BTreeMap<String, BitVec>) -> Result<Prog, String> {
        let mut out = self.clone();
        for slot in out.nodes.values_mut() {
            if let Node::Hole { name, width, domain } = &slot.node {
                let value = assignment
                    .get(name)
                    .ok_or_else(|| format!("no assignment for hole `{name}`"))?;
                if value.width() != *width {
                    return Err(format!(
                        "hole `{name}` expects width {width}, got {}",
                        value.width()
                    ));
                }
                if !domain.contains(value) {
                    return Err(format!("value {value} is outside the domain of hole `{name}`"));
                }
                slot.node = Node::BV(value.clone());
            }
        }
        Ok(out)
    }
}

impl HoleDomain {
    /// Whether a value is allowed by this domain.
    pub fn contains(&self, value: &BitVec) -> bool {
        match self {
            HoleDomain::AnyConstant => true,
            HoleDomain::Choice(choices) => choices.contains(value),
            HoleDomain::LessThan(bound) => value.ult(bound),
        }
    }

    /// The number of allowed values, if finite and cheaply countable.
    pub fn size_hint(&self, width: u32) -> Option<u64> {
        match self {
            HoleDomain::AnyConstant => {
                if width >= 64 {
                    None
                } else {
                    Some(1u64 << width)
                }
            }
            HoleDomain::Choice(choices) => Some(choices.len() as u64),
            HoleDomain::LessThan(bound) => bound.to_u64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BvOp, ProgBuilder};

    #[test]
    fn hole_collection_and_filling() {
        let mut b = ProgBuilder::new("sketch");
        let a = b.input("a", 8);
        let h = b.hole("k", 8, HoleDomain::AnyConstant);
        let sum = b.op2(BvOp::Add, a, h);
        let prog = b.finish(sum);
        assert!(prog.has_holes());
        let holes = prog.holes();
        assert_eq!(holes.len(), 1);
        assert_eq!(holes[0].name, "k");

        let mut asg = BTreeMap::new();
        asg.insert("k".to_string(), BitVec::from_u64(7, 8));
        let filled = prog.fill_holes(&asg).unwrap();
        assert!(!filled.has_holes());
        assert!(filled.is_behavioral());
    }

    #[test]
    fn fill_holes_rejects_bad_assignments() {
        let mut b = ProgBuilder::new("sketch");
        let h = b.hole("k", 8, HoleDomain::Choice(vec![BitVec::from_u64(1, 8)]));
        let prog = b.finish(h);
        assert!(prog.fill_holes(&BTreeMap::new()).is_err());

        let mut wrong_width = BTreeMap::new();
        wrong_width.insert("k".to_string(), BitVec::from_u64(1, 4));
        assert!(prog.fill_holes(&wrong_width).is_err());

        let mut outside = BTreeMap::new();
        outside.insert("k".to_string(), BitVec::from_u64(3, 8));
        assert!(prog.fill_holes(&outside).is_err());

        let mut ok = BTreeMap::new();
        ok.insert("k".to_string(), BitVec::from_u64(1, 8));
        assert!(prog.fill_holes(&ok).is_ok());
    }

    #[test]
    fn domain_membership() {
        assert!(HoleDomain::AnyConstant.contains(&BitVec::from_u64(99, 8)));
        let choice = HoleDomain::Choice(vec![BitVec::from_u64(1, 4), BitVec::from_u64(2, 4)]);
        assert!(choice.contains(&BitVec::from_u64(2, 4)));
        assert!(!choice.contains(&BitVec::from_u64(3, 4)));
        let lt = HoleDomain::LessThan(BitVec::from_u64(4, 4));
        assert!(lt.contains(&BitVec::from_u64(3, 4)));
        assert!(!lt.contains(&BitVec::from_u64(4, 4)));
    }

    #[test]
    fn domain_size_hints() {
        assert_eq!(HoleDomain::AnyConstant.size_hint(3), Some(8));
        assert_eq!(HoleDomain::AnyConstant.size_hint(80), None);
        let choice = HoleDomain::Choice(vec![BitVec::from_u64(1, 4)]);
        assert_eq!(choice.size_hint(4), Some(1));
        assert_eq!(HoleDomain::LessThan(BitVec::from_u64(9, 8)).size_hint(8), Some(9));
    }

    #[test]
    fn sublanguage_classification() {
        // Behavioral: ops and regs, no prims/holes.
        let mut b = ProgBuilder::new("beh");
        let a = b.input("a", 4);
        let r = b.reg(a, 4);
        let beh = b.finish(r);
        assert!(beh.is_behavioral());
        assert!(!beh.has_holes());

        // Sketch: a hole makes it non-behavioral but still a sketch.
        let mut b = ProgBuilder::new("sk");
        let h = b.hole("h", 4, HoleDomain::AnyConstant);
        let sk = b.finish(h);
        assert!(!sk.is_behavioral());
        assert!(sk.is_sketch());
        assert!(!sk.is_structural());

        // Structural-with-logic-op is not structural.
        let mut b = ProgBuilder::new("st");
        let x = b.input("x", 4);
        let y = b.input("y", 4);
        let sum = b.op2(BvOp::Add, x, y);
        let st = b.finish(sum);
        assert!(!st.is_structural());

        // Wiring ops are allowed in structural programs.
        let mut b = ProgBuilder::new("wire");
        let x = b.input("x", 4);
        let y = b.input("y", 4);
        let cat = b.op2(BvOp::Concat, x, y);
        let st = b.finish(cat);
        assert!(st.is_structural());
        assert!(st.is_sketch());
    }
}
