//! Cone-of-influence partitioning: cutting a large AIG into bounded-fanin,
//! bounded-size combinational cones the sketch engine can map one at a time —
//! and stitching the per-cone mapped implementations back into one design.
//!
//! ## How the cut is chosen
//!
//! Walking the AND gates in dependency order, each gate accumulates the leaf
//! set and gate count of its (not yet cut) operands. When a gate would exceed
//! the configured bounds, its operand subtrees are *sealed* — turned into cone
//! roots — so the gate sees them as single leaves. Primary outputs and latch
//! next-state functions are sealed up front, since their values must exist as
//! stitchable signals. The result is a set of cones, each:
//!
//! * rooted at one AND variable, producing a **one-bit** value,
//! * reading at most `max_leaves` leaves (inputs, latches, or other cone
//!   roots), renamed canonically to `x0..xK` in DFS order so that isomorphic
//!   cones produce byte-identical specs (and therefore collide in the
//!   synthesis cache),
//! * containing at most `max_ands` AND gates.
//!
//! With `max_leaves` at or below the target architecture's LUT size, every
//! cone is a one-LUT mapping problem over at most six one-bit inputs. Synthesis
//! solves such a problem on its exhaustive path (`lr_synth::cegis`): one
//! synthesis check over every input assignment, accepted only after evaluating
//! them all, with no SAT verification.
//!
//! ## Stitching
//!
//! [`stitch`] rebuilds the full design: inputs and latches become ℒlr inputs
//! and registers, and each cone's mapped implementation is inlined (via
//! [`ProgBuilder::inline`]) with its `x<i>` inputs substituted by the nodes
//! computing the corresponding leaves. Cones are emitted in dependency order,
//! so a cone's leaves always exist by the time it is inlined.
//! [`verify_stitched`] then replays seeded random stimulus through both the
//! original AIG (bit-level simulation) and the stitched program (ℒlr
//! interpretation, through one [`lr_ir::Schedule`] for every environment) and
//! counts disagreements.

use std::collections::{BTreeMap, BTreeSet};

use lr_bv::BitVec;
use lr_ir::{BvOp, NodeId, Prog, ProgBuilder, StreamInputs};

use crate::gen::seeded;
use crate::{lit_node, Aig};

/// Bounds on a single cone.
#[derive(Debug, Clone, Copy)]
pub struct ConeOptions {
    /// Maximum leaves (cone inputs). Clamped to at least 2; set this to the
    /// target architecture's LUT size to make every cone a one-LUT problem.
    pub max_leaves: usize,
    /// Maximum AND gates inside one cone. Clamped to at least 1.
    pub max_ands: usize,
}

impl Default for ConeOptions {
    fn default() -> ConeOptions {
        ConeOptions { max_leaves: 4, max_ands: 32 }
    }
}

/// One combinational cone: a one-bit function of at most `max_leaves` leaves.
#[derive(Debug, Clone)]
pub struct Cone {
    /// The AND variable this cone computes.
    pub root: u32,
    /// The AIG variables feeding the cone, in canonical `x0..xK` order.
    pub leaves: Vec<u32>,
    /// AND gates inside the cone body.
    pub num_ands: usize,
    /// The cone as a one-bit ℒlr spec over inputs `x0..xK`.
    pub spec: Prog,
}

/// A complete cut of an AIG into cones.
#[derive(Debug, Clone)]
pub struct Partition {
    /// The cones, in dependency order: any cone leaf that is itself a cone
    /// root appears earlier in the list.
    pub cones: Vec<Cone>,
    /// Total AND gates across all cone bodies. Shared logic that was cloned
    /// into several cones is counted once per clone, so this can exceed the
    /// source AIG's gate count.
    pub covered_ands: usize,
}

impl Partition {
    /// The largest leaf count over all cones.
    pub fn max_leaves_used(&self) -> usize {
        self.cones.iter().map(|c| c.leaves.len()).max().unwrap_or(0)
    }
}

/// Cuts `aig` into cones respecting `options`.
///
/// Every primary-output and latch-next AND variable becomes a cone root; gates
/// reachable from none of them are dropped. An AIG whose outputs are all
/// constants, inputs, or latches yields an empty partition — [`stitch`] still
/// produces the correct design.
pub fn partition(aig: &Aig, options: &ConeOptions) -> Partition {
    let max_leaves = options.max_leaves.max(2);
    let max_ands = options.max_ands.max(1);
    let first_and = aig.first_and_var();
    let idx = |var: u32| (var - first_and) as usize;

    // Cone roots the stitched design must expose as signals.
    let mut demand: BTreeSet<u32> = BTreeSet::new();
    for output in aig.outputs() {
        if aig.and_of(output.lit.var()).is_some() {
            demand.insert(output.lit.var());
        }
    }
    for latch in aig.latches() {
        if aig.and_of(latch.next.var()).is_some() {
            demand.insert(latch.next.var());
        }
    }

    let mut sealed = vec![false; aig.num_ands()];
    for &var in &demand {
        sealed[idx(var)] = true;
    }

    // Bottom-up over the dependency order: accumulate each gate's leaf set and
    // body size, sealing oversized operand subtrees into cone roots.
    let mut leaves: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); aig.num_ands()];
    let mut body: Vec<usize> = vec![0; aig.num_ands()];
    for &var in &aig.order {
        let gate = aig.ands()[idx(var)];
        let children = [gate.rhs0.var(), gate.rhs1.var()];
        let combine = |sealed: &[bool], leaves: &[BTreeSet<u32>], body: &[usize]| {
            let mut ls = BTreeSet::new();
            let mut size = 1usize;
            for &child in &children {
                if child == 0 {
                    continue; // Constants live inside the spec, not as leaves.
                } else if child >= first_and && !sealed[idx(child)] {
                    ls.extend(leaves[idx(child)].iter().copied());
                    size += body[idx(child)];
                } else {
                    ls.insert(child);
                }
            }
            (ls, size)
        };
        let (mut ls, mut size) = combine(&sealed, &leaves, &body);
        if ls.len() > max_leaves || size > max_ands {
            // Seal the fatter operand subtree first; sealing both always fits
            // (two leaves, one gate).
            let mut cands: Vec<u32> =
                children.iter().copied().filter(|&c| c >= first_and && !sealed[idx(c)]).collect();
            cands.sort_by_key(|&c| std::cmp::Reverse(leaves[idx(c)].len()));
            cands.dedup();
            for child in cands {
                sealed[idx(child)] = true;
                (ls, size) = combine(&sealed, &leaves, &body);
                if ls.len() <= max_leaves && size <= max_ands {
                    break;
                }
            }
        }
        leaves[idx(var)] = ls;
        body[idx(var)] = size;
    }

    // Keep only cones some demanded signal transitively reads.
    let mut needed: BTreeSet<u32> = demand.clone();
    let mut work: Vec<u32> = demand.into_iter().collect();
    while let Some(var) = work.pop() {
        for &leaf in &leaves[idx(var)] {
            if leaf >= first_and && needed.insert(leaf) {
                work.push(leaf);
            }
        }
    }

    // Emit in dependency order so stitching can run front to back.
    let topo_pos: BTreeMap<u32, usize> =
        aig.order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let mut roots: Vec<u32> = needed.into_iter().collect();
    roots.sort_by_key(|v| topo_pos[v]);

    let mut cones = Vec::with_capacity(roots.len());
    let mut covered_ands = 0;
    for root in roots {
        let cone = build_cone(aig, root, &leaves[idx(root)]);
        covered_ands += cone.num_ands;
        cones.push(cone);
    }
    Partition { cones, covered_ands }
}

/// Builds one cone's canonical spec by DFS from `root`, stopping at the
/// recorded leaf frontier. Leaves are named `x0..xK` in discovery order
/// (operand 0 explored before operand 1), which depends only on the cone's
/// shape — isomorphic cones get identical specs.
fn build_cone(aig: &Aig, root: u32, frontier: &BTreeSet<u32>) -> Cone {
    let mut b = ProgBuilder::new(format!("cone_v{root}"));
    let mut memo: BTreeMap<u32, NodeId> = BTreeMap::new();
    let mut leaves: Vec<u32> = Vec::new();
    let mut num_ands = 0usize;

    let mut stack: Vec<u32> = vec![root];
    while let Some(&var) = stack.last() {
        if memo.contains_key(&var) {
            stack.pop();
            continue;
        }
        if var == 0 {
            memo.insert(var, b.constant_u64(0, 1));
            stack.pop();
            continue;
        }
        if var != root
            && (aig.is_input_var(var) || aig.is_latch_var(var) || frontier.contains(&var))
        {
            let node = b.var(&format!("x{}", leaves.len()), 1);
            leaves.push(var);
            memo.insert(var, node);
            stack.pop();
            continue;
        }
        let gate = *aig.and_of(var).expect("interior cone nodes are AND gates");
        match (memo.get(&gate.rhs0.var()), memo.get(&gate.rhs1.var())) {
            (Some(&n0), Some(&n1)) => {
                let a = if gate.rhs0.negated() { b.op1(BvOp::Not, n0) } else { n0 };
                let x = if gate.rhs1.negated() { b.op1(BvOp::Not, n1) } else { n1 };
                memo.insert(var, b.op2(BvOp::And, a, x));
                num_ands += 1;
                stack.pop();
            }
            (None, _) => stack.push(gate.rhs0.var()),
            (_, None) => stack.push(gate.rhs1.var()),
        }
    }
    let root_node = memo[&root];
    Cone { root, leaves, num_ands, spec: b.finish(root_node) }
}

/// Reassembles a full design from per-cone mapped implementations.
///
/// `impls[i]` replaces `partition.cones[i]` and must be a one-bit program over
/// (a subset of) the inputs `x0..xK` — exactly the shape the mapper returns for
/// the cone's spec. Pass the cone specs themselves to get a reference stitching
/// for testing.
///
/// # Panics
/// Panics if the implementation count does not match the cone count, if a
/// substituted input's width is not 1, or if the AIG has no outputs.
pub fn stitch(aig: &Aig, partition: &Partition, impls: &[Prog]) -> Prog {
    assert_eq!(impls.len(), partition.cones.len(), "one implementation per cone");
    assert!(!aig.outputs().is_empty(), "cannot stitch an AIG without outputs");
    let mut b = ProgBuilder::new(format!("{}_stitched", aig.name()));
    let mut var_nodes = vec![None::<NodeId>; aig.num_vars()];
    for (i, name) in aig.input_names().iter().enumerate() {
        var_nodes[1 + i] = Some(b.input(name, 1));
    }
    let first_latch = 1 + aig.num_inputs();
    for (j, latch) in aig.latches().iter().enumerate() {
        let init = BitVec::from_u64(u64::from(latch.init), 1);
        var_nodes[first_latch + j] = Some(b.reg_placeholder_init(init));
    }
    for (cone, implementation) in partition.cones.iter().zip(impls) {
        let mut subst = BTreeMap::new();
        for (i, &leaf) in cone.leaves.iter().enumerate() {
            let node = lit_node(&mut b, &mut var_nodes, crate::Lit::new(leaf, false));
            subst.insert(format!("x{i}"), node);
        }
        var_nodes[cone.root as usize] = Some(b.inline(implementation, &subst));
    }
    for (j, latch) in aig.latches().iter().enumerate().rev() {
        let data = lit_node(&mut b, &mut var_nodes, latch.next);
        b.set_reg_data(var_nodes[first_latch + j].expect("latch node exists"), data);
    }
    let outputs = aig.outputs();
    let mut root = lit_node(&mut b, &mut var_nodes, outputs[0].lit);
    for output in &outputs[1..] {
        let bit = lit_node(&mut b, &mut var_nodes, output.lit);
        // High bits first: output i stays at bit i, matching `Aig::to_prog`.
        root = b.op2(BvOp::Concat, bit, root);
    }
    b.finish(root)
}

/// Outcome of replaying random stimulus through a stitched design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    /// Independent random environments replayed.
    pub environments: usize,
    /// Clock cycles per environment.
    pub cycles: usize,
    /// Output-bit/cycle disagreements between AIG simulation and ℒlr
    /// interpretation. Zero means the stitched design matched everywhere.
    pub mismatches: usize,
}

impl VerifyReport {
    /// Whether every checked bit agreed.
    pub fn passed(&self) -> bool {
        self.mismatches == 0
    }
}

/// Replays `environments` seeded random stimulus sequences of `cycles` cycles
/// through both the original AIG (bit-level simulation) and the stitched
/// program (ℒlr interpretation, one schedule traced per environment), counting
/// every output-bit disagreement.
///
/// Errors only if the stitched program fails to interpret — a malformed
/// stitching, not a functional mismatch.
pub fn verify_stitched(
    aig: &Aig,
    stitched: &Prog,
    seed: u64,
    environments: usize,
    cycles: usize,
) -> Result<VerifyReport, String> {
    let mut report = VerifyReport { environments, cycles, mismatches: 0 };
    if cycles == 0 {
        return Ok(report);
    }
    let schedule =
        stitched.schedule().map_err(|e| format!("stitched design failed to interpret: {e}"))?;
    let mut rng = seeded(seed);
    for _ in 0..environments {
        let stimulus: Vec<Vec<bool>> =
            (0..cycles).map(|_| (0..aig.num_inputs()).map(|_| rng.bool()).collect()).collect();
        let expected = aig.simulate(&stimulus);
        let mut env = StreamInputs::new();
        for (i, name) in aig.input_names().iter().enumerate() {
            let trace = stimulus.iter().map(|s| BitVec::from_u64(u64::from(s[i]), 1)).collect();
            env.set_trace(name.clone(), trace);
        }
        let got = schedule
            .trace(&env, cycles as u32 - 1)
            .map_err(|e| format!("stitched design failed to interpret: {e}"))?;
        for (t, want) in expected.iter().enumerate() {
            for (bit, &want_bit) in want.iter().enumerate() {
                if got[t].bit(bit as u32) != want_bit {
                    report.mismatches += 1;
                }
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_aig, GenConfig};

    #[test]
    fn partition_respects_bounds_and_orders_cones() {
        let options = ConeOptions { max_leaves: 4, max_ands: 8 };
        for seed in 0..6 {
            let aig = random_aig(seed, &GenConfig { inputs: 7, latches: 3, ands: 150, outputs: 5 });
            let partition = partition(&aig, &options);
            assert!(!partition.cones.is_empty());
            let mut roots_seen = BTreeSet::new();
            for cone in &partition.cones {
                assert!(
                    cone.leaves.len() <= 4,
                    "cone v{} has {} leaves",
                    cone.root,
                    cone.leaves.len()
                );
                assert!(cone.num_ands <= 8, "cone v{} has {} gates", cone.root, cone.num_ands);
                assert!(cone.spec.well_formed().is_ok());
                assert_eq!(cone.spec.free_vars().len(), cone.leaves.len());
                for (i, (name, width)) in cone.spec.free_vars().iter().enumerate() {
                    assert_eq!(name, &format!("x{i}"), "canonical leaf naming");
                    assert_eq!(*width, 1);
                }
                // Dependency order: every cone-root leaf was emitted earlier.
                for &leaf in &cone.leaves {
                    if aig.and_of(leaf).is_some() {
                        assert!(
                            roots_seen.contains(&leaf),
                            "cone v{} reads unstitched v{leaf}",
                            cone.root
                        );
                    }
                }
                roots_seen.insert(cone.root);
            }
        }
    }

    #[test]
    fn isomorphic_cones_get_identical_specs() {
        // Two disjoint copies of the same function: (a & b) & !(c & d).
        let text = "\
INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nINPUT(f)\nINPUT(g)\nINPUT(h)\n\
OUTPUT(y0)\nOUTPUT(y1)\n\
t0 = AND(a, b)\nt1 = NAND(c, d)\ny0 = AND(t0, t1)\n\
u0 = AND(e, f)\nu1 = NAND(g, h)\ny1 = AND(u0, u1)\n";
        let aig = crate::parse::parse_bench(text).unwrap();
        let partition = partition(&aig, &ConeOptions::default());
        assert_eq!(partition.cones.len(), 2);
        let render = |cone: &Cone| format!("{:?}", cone.spec).replace(cone.spec.name(), "");
        assert_eq!(render(&partition.cones[0]), render(&partition.cones[1]));
    }

    #[test]
    fn identity_stitching_matches_the_aig_on_32_environments() {
        // The cone specs themselves are valid "mapped implementations"; the
        // stitched design must then be cycle-accurate against AIG simulation.
        for seed in [7u64, 1312] {
            let aig = random_aig(seed, &GenConfig { inputs: 9, latches: 4, ands: 300, outputs: 6 });
            let partition = partition(&aig, &ConeOptions { max_leaves: 4, max_ands: 16 });
            let impls: Vec<Prog> = partition.cones.iter().map(|c| c.spec.clone()).collect();
            let stitched = stitch(&aig, &partition, &impls);
            assert!(stitched.well_formed().is_ok(), "{:?}", stitched.well_formed());
            let report = verify_stitched(&aig, &stitched, seed ^ 0xF00, 32, 6).unwrap();
            assert!(report.passed(), "seed {seed}: {report:?}");
        }
    }

    #[test]
    fn trivial_outputs_stitch_without_cones() {
        // Outputs that are an input, a latch, and a constant: no cone needed.
        let text = "INPUT(a)\nq = DFF(a)\nOUTPUT(a)\nOUTPUT(q)\n";
        let aig = crate::parse::parse_bench(text).unwrap();
        let partition = partition(&aig, &ConeOptions::default());
        assert!(partition.cones.is_empty());
        let stitched = stitch(&aig, &partition, &[]);
        let report = verify_stitched(&aig, &stitched, 5, 8, 5).unwrap();
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn stitching_a_wrong_implementation_is_caught() {
        let aig = random_aig(99, &GenConfig { inputs: 6, latches: 0, ands: 80, outputs: 3 });
        let partition = partition(&aig, &ConeOptions::default());
        let mut impls: Vec<Prog> = partition.cones.iter().map(|c| c.spec.clone()).collect();
        // Sabotage one cone: replace it with constant false... unless the cone
        // really is constant false, in which case constant true.
        let mut b = ProgBuilder::new("sabotage");
        let one = b.constant_u64(1, 1);
        let last = impls.len() - 1;
        impls[last] = b.finish(one);
        let stitched = stitch(&aig, &partition, &impls);
        let report = verify_stitched(&aig, &stitched, 4, 16, 4).unwrap();
        // The sabotaged cone feeds at least one output with probability ~1
        // over 16 environments; if this ever flakes the sabotage picked a
        // tautological cone, which random_aig(99) does not produce.
        assert!(!report.passed(), "sabotage went unnoticed");
    }
}
