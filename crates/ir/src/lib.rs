//! # lr-ir: the ℒlr intermediate language
//!
//! This crate implements the ℒlr language of the paper's §3.2: a graph-structured IR
//! whose nodes are constant bitvectors, input variables, combinational operators,
//! registers, hardware primitives, and holes (Fig. 3). On top of the syntax it
//! provides:
//!
//! * well-formedness checking (conditions W1–W6, including the combinational-loop
//!   witness of Property 1) in [`wf`],
//! * the stream semantics of Fig. 4 as a concrete evaluator in [`interp`], which
//!   steps a program forward cycle by cycle in the witness order of Property 1
//!   (a [`Schedule`], built once per program and traced in any number of
//!   environments),
//! * symbolic interpretation into `lr-smt` terms in [`symbolic`], which is how the
//!   synthesis queries of §3.3 are constructed,
//! * the behavioral / structural / sketch sublanguage classification and hole
//!   filling in [`holes`].
//!
//! Programs are built with [`ProgBuilder`]:
//!
//! ```
//! use lr_bv::BitVec;
//! use lr_ir::{ProgBuilder, BvOp};
//!
//! // out = (a + b) & c, an 8-bit combinational design.
//! let mut b = ProgBuilder::new("example");
//! let a = b.input("a", 8);
//! let bb = b.input("b", 8);
//! let c = b.input("c", 8);
//! let sum = b.op2(BvOp::Add, a, bb);
//! let out = b.op2(BvOp::And, sum, c);
//! let prog = b.finish(out);
//! assert!(prog.well_formed().is_ok());
//! assert!(prog.is_behavioral());
//! ```

pub mod holes;
pub mod interp;
pub mod opt;
pub mod saturate;
pub mod symbolic;
pub mod wf;

use std::collections::BTreeMap;
use std::fmt;

use lr_bv::BitVec;

pub use holes::{HoleDomain, HoleInfo};
pub use interp::{interp_equivalent, Inputs, InterpError, Schedule, StreamInputs};
pub use lr_smt::BvOp;
pub use saturate::{SaturateOutcome, StructuralEvidence};
pub use wf::WellFormednessError;

/// Identifier of a node within a [`Prog`] (unique across the whole program,
/// including sub-programs carried by primitives — condition W2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A hardware primitive instance (the `Prim binds Prog` form of Fig. 3).
///
/// The `semantics` program defines the primitive's behaviour over the variables in
/// `bindings`; it is what the synthesis engine reasons about. The remaining fields
/// are structural metadata used when the program is lowered to structural Verilog
/// (they do not affect semantics).
#[derive(Debug, Clone, PartialEq)]
pub struct PrimInstance {
    /// Architecture-specific module name (e.g. `DSP48E2`, `LUT6`, `frac_lut4`).
    pub module: String,
    /// The Lakeroad primitive interface this instance implements (e.g. `DSP`, `LUT4`).
    pub interface: String,
    /// Binding map: free variable of `semantics` → node id in the *enclosing* program.
    pub bindings: BTreeMap<String, NodeId>,
    /// The ℒbeh program giving the primitive's semantics; its free variables must be
    /// exactly the keys of `bindings` (condition W5).
    pub semantics: Prog,
    /// The subset of binding names that are Verilog *parameters* (as opposed to
    /// ports) when emitting structural HDL.
    pub param_names: Vec<String>,
    /// Name of the Verilog output port the semantics root corresponds to.
    pub output_port: String,
}

/// A node of an ℒlr program (Fig. 3).
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A constant bitvector (`BV b`).
    BV(BitVec),
    /// An input variable (`Var x`) with an explicit width.
    Var {
        /// Variable name.
        name: String,
        /// Width in bits.
        width: u32,
    },
    /// A combinational operator applied to other nodes (`OP op Id*`).
    Op(BvOp, Vec<NodeId>),
    /// A register (`Reg id b_init`): samples its data input at each positive clock
    /// edge, and holds `init` at time 0.
    Reg {
        /// The data input node.
        data: NodeId,
        /// The initialization value (also fixes the register's width).
        init: BitVec,
    },
    /// A hardware primitive instance (`Prim binds Prog`).
    Prim(PrimInstance),
    /// A syntactic hole (`■x`), to be filled by synthesis.
    Hole {
        /// Hole name (unique within the program).
        name: String,
        /// Width of the node that must fill the hole.
        width: u32,
        /// The set of values allowed to fill the hole (the map `h` of §3.1).
        domain: HoleDomain,
    },
}

/// An ℒlr program: a root node plus a graph of nodes (Fig. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct Prog {
    name: String,
    root: NodeId,
    nodes: BTreeMap<NodeId, Slot>,
    /// Declared input order (for HDL round-tripping and report stability).
    inputs: Vec<(String, u32)>,
}

/// A node beside its width, which [`Node::width_from`] fixed when the node was
/// added to its program. The width is `None` only in an ill-formed program,
/// for a node that reads a missing node or one without a width.
///
/// The width lives in the node map's entry rather than in a table of its own
/// so that `Prog`, which every primitive node embeds, keeps its size.
#[derive(Debug, Clone, PartialEq)]
struct Slot {
    node: Node,
    width: Option<u32>,
}

impl Prog {
    /// The program's name (used for module names when emitting HDL).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The root (output) node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The node behind an id, if it exists in this program (not in sub-programs).
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(&id).map(|slot| &slot.node)
    }

    /// Iterates over `(id, node)` pairs in ascending id order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().map(|(&id, slot)| (id, &slot.node))
    }

    /// Number of nodes in this program (excluding sub-programs).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the program has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The declared inputs, in declaration order.
    pub fn declared_inputs(&self) -> &[(String, u32)] {
        &self.inputs
    }

    /// The free variables of the program: names of `Var` nodes at this level
    /// (sub-program variables are bound by their primitive's binding map).
    pub fn free_vars(&self) -> Vec<(String, u32)> {
        let mut seen = std::collections::BTreeMap::new();
        for (_, node) in self.nodes() {
            if let Node::Var { name, width } = node {
                seen.entry(name.clone()).or_insert(*width);
            }
        }
        seen.into_iter().collect()
    }

    /// The width in bits of a node. Each node's width was fixed when the node
    /// was added, so this is a lookup that costs the same at any depth of the
    /// graph.
    ///
    /// # Panics
    /// Panics if the id does not belong to this program, or names an operator
    /// node that reads a node missing from it (an ill-formed program).
    pub fn width(&self, id: NodeId) -> u32 {
        stored_width(&self.nodes, id)
            .unwrap_or_else(|| panic!("{id} has no width in `{}`", self.name))
    }

    /// Ids of all nodes in this program and, recursively, in primitive sub-programs
    /// (the paper's `p.all_ids`).
    pub fn all_ids(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = Vec::new();
        for (id, node) in self.nodes() {
            out.push(id);
            if let Node::Prim(p) = node {
                out.extend(p.semantics.all_ids());
            }
        }
        out
    }

    /// The inputs of a node (the `inputs` function of §3.2.1).
    pub fn node_inputs(&self, id: NodeId) -> Vec<NodeId> {
        match &self.nodes[&id].node {
            Node::BV(_) | Node::Var { .. } | Node::Hole { .. } => Vec::new(),
            Node::Op(_, args) => args.clone(),
            Node::Reg { data, .. } => vec![*data],
            Node::Prim(p) => p.bindings.values().copied().collect(),
        }
    }

    /// Renames the program.
    pub fn with_name(mut self, name: impl Into<String>) -> Prog {
        self.name = name.into();
        self
    }

    /// Returns a copy of the program with every node id (including ids inside
    /// primitive sub-programs) shifted by `offset`. Used to keep ids globally unique
    /// (condition W2) when a program built elsewhere — e.g. primitive semantics
    /// extracted from HDL — is embedded as a `Prim` sub-program.
    pub fn with_id_offset(&self, offset: u32) -> Prog {
        let remap = |id: NodeId| NodeId(id.0 + offset);
        let nodes = self
            .nodes
            .iter()
            .map(|(&id, slot)| {
                let node = match &slot.node {
                    Node::BV(bv) => Node::BV(bv.clone()),
                    Node::Var { name, width } => Node::Var { name: name.clone(), width: *width },
                    Node::Hole { name, width, domain } => {
                        Node::Hole { name: name.clone(), width: *width, domain: domain.clone() }
                    }
                    Node::Op(op, args) => Node::Op(*op, args.iter().map(|&a| remap(a)).collect()),
                    Node::Reg { data, init } => {
                        Node::Reg { data: remap(*data), init: init.clone() }
                    }
                    Node::Prim(p) => Node::Prim(PrimInstance {
                        module: p.module.clone(),
                        interface: p.interface.clone(),
                        bindings: p.bindings.iter().map(|(k, &v)| (k.clone(), remap(v))).collect(),
                        semantics: p.semantics.with_id_offset(offset),
                        param_names: p.param_names.clone(),
                        output_port: p.output_port.clone(),
                    }),
                };
                (remap(id), Slot { node, width: slot.width })
            })
            .collect();
        Prog { name: self.name.clone(), root: remap(self.root), nodes, inputs: self.inputs.clone() }
    }

    /// The largest node id used by this program or any sub-program, if any nodes
    /// exist. Useful for choosing id offsets.
    pub fn max_id(&self) -> Option<u32> {
        self.all_ids().into_iter().map(|id| id.0).max()
    }

    /// Counts nodes by kind; used by resource accounting and reports.
    pub fn count_kinds(&self) -> ProgStats {
        let mut stats = ProgStats::default();
        for (_, node) in self.nodes() {
            match node {
                Node::BV(_) => stats.constants += 1,
                Node::Var { .. } => stats.vars += 1,
                Node::Op(..) => stats.ops += 1,
                Node::Reg { .. } => stats.regs += 1,
                Node::Prim(_) => stats.prims += 1,
                Node::Hole { .. } => stats.holes += 1,
            }
        }
        stats
    }
}

impl Node {
    /// The width of this node, from the stored widths of the nodes it reads
    /// in `nodes`. This is the one width rule: a program applies it once per
    /// node, as the node is added, so no width query walks the graph. Returns
    /// `None` when an operand the rule reads has no width (it is missing, or
    /// is itself such a node).
    fn width_from(&self, nodes: &BTreeMap<NodeId, Slot>) -> Option<u32> {
        match self {
            Node::BV(bv) => Some(bv.width()),
            Node::Var { width, .. } | Node::Hole { width, .. } => Some(*width),
            // Never reads `data`, so a register placeholder pointing at
            // itself has a width.
            Node::Reg { init, .. } => Some(init.width()),
            Node::Prim(p) => stored_width(&p.semantics.nodes, p.semantics.root),
            Node::Op(op, args) => {
                let w = |i: usize| args.get(i).and_then(|&a| stored_width(nodes, a));
                match op {
                    BvOp::Concat => Some(w(0)? + w(1)?),
                    BvOp::Extract { hi, lo } => Some(hi - lo + 1),
                    BvOp::ZeroExt { width } | BvOp::SignExt { width } => Some(*width),
                    BvOp::Eq
                    | BvOp::Ult
                    | BvOp::Ule
                    | BvOp::Slt
                    | BvOp::Sle
                    | BvOp::RedOr
                    | BvOp::RedAnd
                    | BvOp::RedXor => Some(1),
                    BvOp::Ite => w(1),
                    _ => w(0),
                }
            }
        }
    }
}

/// The stored width of a node of a program or builder, if it has one.
fn stored_width(nodes: &BTreeMap<NodeId, Slot>, id: NodeId) -> Option<u32> {
    nodes.get(&id).and_then(|slot| slot.width)
}

/// Node counts per kind for a program (top level only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgStats {
    /// Constant nodes.
    pub constants: usize,
    /// Input variable nodes.
    pub vars: usize,
    /// Combinational operator nodes.
    pub ops: usize,
    /// Register nodes.
    pub regs: usize,
    /// Primitive instances.
    pub prims: usize,
    /// Holes.
    pub holes: usize,
}

/// A builder for ℒlr programs that allocates node ids and keeps the program
/// well-formed by construction (ids are unique, inputs refer to existing nodes).
#[derive(Debug, Clone)]
pub struct ProgBuilder {
    name: String,
    nodes: BTreeMap<NodeId, Slot>,
    inputs: Vec<(String, u32)>,
    next_id: u32,
}

impl ProgBuilder {
    /// Creates a builder for a program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ProgBuilder { name: name.into(), nodes: BTreeMap::new(), inputs: Vec::new(), next_id: 0 }
    }

    /// Creates a builder whose node ids start at `base` (used when composing programs
    /// that must keep globally unique ids, e.g. primitive semantics sub-programs).
    pub fn with_base_id(name: impl Into<String>, base: u32) -> Self {
        ProgBuilder { name: name.into(), nodes: BTreeMap::new(), inputs: Vec::new(), next_id: base }
    }

    fn insert(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        let width = node.width_from(&self.nodes);
        self.nodes.insert(id, Slot { node, width });
        id
    }

    /// The id that will be assigned to the next node.
    pub fn peek_next_id(&self) -> u32 {
        self.next_id
    }

    /// The width in bits of a node already added to this builder.
    ///
    /// This is the query HDL elaboration uses to apply Verilog width-context
    /// rules while the program is still under construction. Each node's width
    /// was recorded when the node was added, so the query is a lookup that
    /// costs the same however long the node's operand chain is.
    ///
    /// # Panics
    /// Panics if the id was not allocated by this builder, or names an
    /// operator node that reads a missing node.
    pub fn width_of(&self, id: NodeId) -> u32 {
        stored_width(&self.nodes, id)
            .unwrap_or_else(|| panic!("{id} has no width in builder `{}`", self.name))
    }

    /// Adds a constant node.
    pub fn constant(&mut self, value: BitVec) -> NodeId {
        self.insert(Node::BV(value))
    }

    /// Adds a constant node from a `u64`.
    pub fn constant_u64(&mut self, value: u64, width: u32) -> NodeId {
        self.constant(BitVec::from_u64(value, width))
    }

    /// Adds an input variable node and records it in the declared-input list.
    pub fn input(&mut self, name: &str, width: u32) -> NodeId {
        if !self.inputs.iter().any(|(n, _)| n == name) {
            self.inputs.push((name.to_string(), width));
        }
        self.insert(Node::Var { name: name.to_string(), width })
    }

    /// Adds a variable node without recording it as a declared input (used for
    /// primitive semantics programs whose variables are bound by the primitive).
    pub fn var(&mut self, name: &str, width: u32) -> NodeId {
        self.insert(Node::Var { name: name.to_string(), width })
    }

    /// Adds a unary operator node.
    pub fn op1(&mut self, op: BvOp, a: NodeId) -> NodeId {
        self.insert(Node::Op(op, vec![a]))
    }

    /// Adds a binary operator node.
    pub fn op2(&mut self, op: BvOp, a: NodeId, b: NodeId) -> NodeId {
        self.insert(Node::Op(op, vec![a, b]))
    }

    /// Adds a ternary operator node (if-then-else).
    pub fn op3(&mut self, op: BvOp, a: NodeId, b: NodeId, c: NodeId) -> NodeId {
        self.insert(Node::Op(op, vec![a, b, c]))
    }

    /// Adds an if-then-else node.
    pub fn mux(&mut self, cond: NodeId, then_: NodeId, else_: NodeId) -> NodeId {
        self.op3(BvOp::Ite, cond, then_, else_)
    }

    /// Adds an extract node.
    pub fn extract(&mut self, a: NodeId, hi: u32, lo: u32) -> NodeId {
        self.op1(BvOp::Extract { hi, lo }, a)
    }

    /// Adds a zero-extension node.
    pub fn zext(&mut self, a: NodeId, width: u32) -> NodeId {
        self.op1(BvOp::ZeroExt { width }, a)
    }

    /// Adds a sign-extension node.
    pub fn sext(&mut self, a: NodeId, width: u32) -> NodeId {
        self.op1(BvOp::SignExt { width }, a)
    }

    /// Adds a register node initialized to zero of the data node's width.
    pub fn reg(&mut self, data: NodeId, width: u32) -> NodeId {
        self.insert(Node::Reg { data, init: BitVec::zeros(width) })
    }

    /// Adds a register node with an explicit initialization value.
    pub fn reg_init(&mut self, data: NodeId, init: BitVec) -> NodeId {
        self.insert(Node::Reg { data, init })
    }

    /// Adds a register node whose data input is not yet known (it points at itself).
    /// Use [`ProgBuilder::set_reg_data`] to patch it once the driving node exists.
    /// This is how HDL elaboration handles registers that are read before the
    /// statement that assigns them (including self-feedback such as counters).
    pub fn reg_placeholder(&mut self, width: u32) -> NodeId {
        self.reg_placeholder_init(BitVec::zeros(width))
    }

    /// Like [`ProgBuilder::reg_placeholder`], but with an explicit initial value
    /// (AIGER latches may reset to 1, which a zero-initialized placeholder
    /// cannot express).
    pub fn reg_placeholder_init(&mut self, init: BitVec) -> NodeId {
        self.insert(Node::Reg { data: NodeId(self.next_id), init })
    }

    /// Patches the data input of a register created by [`ProgBuilder::reg_placeholder`].
    ///
    /// # Panics
    /// Panics if `reg` is not a register node of this builder.
    pub fn set_reg_data(&mut self, reg: NodeId, data: NodeId) {
        match self.nodes.get_mut(&reg).map(|slot| &mut slot.node) {
            Some(Node::Reg { data: slot, .. }) => *slot = data,
            _ => panic!("set_reg_data: {reg} is not a register node"),
        }
    }

    /// Adds a hole node.
    pub fn hole(&mut self, name: &str, width: u32, domain: HoleDomain) -> NodeId {
        self.insert(Node::Hole { name: name.to_string(), width, domain })
    }

    /// Adds a primitive instance node.
    pub fn prim(&mut self, instance: PrimInstance) -> NodeId {
        self.insert(Node::Prim(instance))
    }

    /// Copies every node of `prog` into this builder, substituting each free
    /// variable named in `subst` with an existing node of this builder, and
    /// returns the id of the copied root. This is how per-cone mapped
    /// implementations are stitched back into one design: the cone's canonical
    /// inputs are replaced by the nodes that drive them at the top level.
    ///
    /// Ids are shifted uniformly (as in [`Prog::with_id_offset`]) so primitive
    /// sub-programs stay disjoint from this builder's ids (condition W2).
    /// Variables *not* named in `subst` are copied as-is and stay free; they are
    /// not recorded as declared inputs. Each copied node keeps its width in
    /// `prog`: a substitution has the width of the variable it replaces.
    ///
    /// # Panics
    /// Panics if a substituted node's width differs from the variable it
    /// replaces.
    pub fn inline(&mut self, prog: &Prog, subst: &BTreeMap<String, NodeId>) -> NodeId {
        let offset = self.next_id;
        let shifted = prog.with_id_offset(offset);
        self.next_id = shifted.max_id().map_or(offset, |max| max + 1);
        let mut redirect: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        for (id, node) in shifted.nodes() {
            if let Node::Var { name, width } = node {
                if let Some(&target) = subst.get(name) {
                    assert_eq!(
                        self.width_of(target),
                        *width,
                        "substitution for `{name}` must match the variable's width"
                    );
                    redirect.insert(id, target);
                }
            }
        }
        let rd = |id: NodeId| redirect.get(&id).copied().unwrap_or(id);
        for (&id, slot) in &shifted.nodes {
            if redirect.contains_key(&id) {
                continue; // The variable dissolves into its driver.
            }
            let node = match &slot.node {
                Node::Op(op, args) => Node::Op(*op, args.iter().map(|&a| rd(a)).collect()),
                Node::Reg { data, init } => Node::Reg { data: rd(*data), init: init.clone() },
                Node::Prim(p) => Node::Prim(PrimInstance {
                    bindings: p.bindings.iter().map(|(k, &v)| (k.clone(), rd(v))).collect(),
                    ..p.clone()
                }),
                other => other.clone(),
            };
            self.nodes.insert(id, Slot { node, width: slot.width });
        }
        rd(shifted.root())
    }

    /// Finalizes the program with `root` as its output.
    ///
    /// # Panics
    /// Panics if `root` was not allocated by this builder.
    pub fn finish(self, root: NodeId) -> Prog {
        assert!(self.nodes.contains_key(&root), "root node was not created by this builder");
        Prog { name: self.name, root, nodes: self.nodes, inputs: self.inputs }
    }
}

#[cfg(test)]
impl Prog {
    /// A program from a hand-written node map, for test fixtures the builder
    /// cannot express (combinational loops, dangling inputs, a missing root).
    /// Widths follow [`Node::width_from`] in ascending id order, so a node whose
    /// width depends on a later or missing node gets none.
    pub(crate) fn from_nodes(name: &str, root: NodeId, nodes: BTreeMap<NodeId, Node>) -> Prog {
        let mut slots = BTreeMap::new();
        for (id, node) in nodes {
            let width = node.width_from(&slots);
            slots.insert(id, Slot { node, width });
        }
        Prog { name: name.to_string(), root, nodes: slots, inputs: Vec::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_prog() -> Prog {
        let mut b = ProgBuilder::new("p");
        let a = b.input("a", 8);
        let c = b.constant_u64(1, 8);
        let sum = b.op2(BvOp::Add, a, c);
        b.finish(sum)
    }

    #[test]
    fn builder_allocates_unique_ids() {
        let prog = simple_prog();
        let ids = prog.all_ids();
        let set: std::collections::BTreeSet<_> = ids.iter().collect();
        assert_eq!(ids.len(), set.len());
        assert_eq!(prog.len(), 3);
    }

    #[test]
    fn widths_are_computed() {
        let mut b = ProgBuilder::new("w");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let cat = b.op2(BvOp::Concat, a, bb);
        let cmp = b.op2(BvOp::Ult, a, bb);
        let ext = b.extract(cat, 11, 4);
        let z = b.zext(a, 20);
        let r = b.reg(a, 8);
        let prog = b.finish(cat);
        assert_eq!(prog.width(cat), 16);
        assert_eq!(prog.width(cmp), 1);
        assert_eq!(prog.width(ext), 8);
        assert_eq!(prog.width(z), 20);
        assert_eq!(prog.width(r), 8);
    }

    #[test]
    fn free_vars_and_declared_inputs() {
        let prog = simple_prog();
        assert_eq!(prog.free_vars(), vec![("a".to_string(), 8)]);
        assert_eq!(prog.declared_inputs(), &[("a".to_string(), 8)]);
    }

    #[test]
    fn node_inputs_follow_the_paper() {
        let mut b = ProgBuilder::new("p");
        let a = b.input("a", 4);
        let c = b.constant_u64(3, 4);
        let sum = b.op2(BvOp::Add, a, c);
        let r = b.reg(sum, 4);
        let prog = b.finish(r);
        assert!(prog.node_inputs(a).is_empty());
        assert!(prog.node_inputs(c).is_empty());
        assert_eq!(prog.node_inputs(sum), vec![a, c]);
        assert_eq!(prog.node_inputs(r), vec![sum]);
    }

    #[test]
    fn count_kinds() {
        let mut b = ProgBuilder::new("p");
        let a = b.input("a", 4);
        let h = b.hole("h", 4, HoleDomain::AnyConstant);
        let sum = b.op2(BvOp::Add, a, h);
        let r = b.reg(sum, 4);
        let prog = b.finish(r);
        let stats = prog.count_kinds();
        assert_eq!(stats.vars, 1);
        assert_eq!(stats.holes, 1);
        assert_eq!(stats.ops, 1);
        assert_eq!(stats.regs, 1);
        assert_eq!(stats.prims, 0);
    }

    #[test]
    #[should_panic]
    fn finish_with_foreign_root_panics() {
        let b = ProgBuilder::new("p");
        b.finish(NodeId(42));
    }

    #[test]
    fn inline_substitutes_variables_and_keeps_ids_unique() {
        // Inner program: x & ~y.
        let mut inner = ProgBuilder::new("cone");
        let x = inner.input("x", 4);
        let y = inner.input("y", 4);
        let ny = inner.op1(BvOp::Not, y);
        let and = inner.op2(BvOp::And, x, ny);
        let cone = inner.finish(and);

        let mut outer = ProgBuilder::new("top");
        let a = outer.input("a", 4);
        let b = outer.input("b", 4);
        let sum = outer.op2(BvOp::Add, a, b);
        let subst: BTreeMap<String, NodeId> =
            [("x".to_string(), sum), ("y".to_string(), b)].into_iter().collect();
        let root = outer.inline(&cone, &subst);
        let prog = outer.finish(root);
        assert!(prog.well_formed().is_ok());
        let ids = prog.all_ids();
        let set: std::collections::BTreeSet<_> = ids.iter().collect();
        assert_eq!(ids.len(), set.len());
        // Only the outer inputs remain free; the cone's variables dissolved.
        assert_eq!(prog.free_vars(), vec![("a".to_string(), 4), ("b".to_string(), 4)],);
        let env = crate::interp::StreamInputs::from_constants([
            ("a".to_string(), BitVec::from_u64(0b1100, 4)),
            ("b".to_string(), BitVec::from_u64(0b0101, 4)),
        ]);
        // (a + b) & ~b = 0b0001 & 0b1010.
        assert_eq!(prog.interp(&env, 0).unwrap(), BitVec::from_u64(0b0000, 4));
    }

    #[test]
    #[should_panic]
    fn inline_rejects_width_mismatched_substitutions() {
        let mut inner = ProgBuilder::new("cone");
        let x = inner.input("x", 4);
        let cone = inner.finish(x);
        let mut outer = ProgBuilder::new("top");
        let wide = outer.input("a", 8);
        let subst: BTreeMap<String, NodeId> = [("x".to_string(), wide)].into_iter().collect();
        outer.inline(&cone, &subst);
    }

    #[test]
    fn with_base_id_keeps_ids_disjoint() {
        let mut outer = ProgBuilder::new("outer");
        let a = outer.input("a", 4);
        let mut inner = ProgBuilder::with_base_id("inner", 1000);
        let x = inner.var("x", 4);
        let inner_prog = inner.finish(x);
        let prim = PrimInstance {
            module: "BUF".into(),
            interface: "BUF".into(),
            bindings: [("x".to_string(), a)].into_iter().collect(),
            semantics: inner_prog,
            param_names: vec![],
            output_port: "o".into(),
        };
        let p = outer.prim(prim);
        let prog = outer.finish(p);
        let ids = prog.all_ids();
        let set: std::collections::BTreeSet<_> = ids.iter().collect();
        assert_eq!(ids.len(), set.len());
    }
}
