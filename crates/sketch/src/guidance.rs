//! Rule-driven sketch guidance: rank which templates to try first.
//!
//! The sketch templates describe disjoint hardware patterns, and trying them in
//! the wrong order wastes whole synthesis timeouts (a comparison design handed to
//! the multiplication template burns its budget before UNSAT). This module ranks
//! [`Template`]s from the *structural evidence* of the design's canonical form
//! ([`StructuralEvidence::scan`] of the program saturated under the shared
//! `lr_egraph` rule set), so evidence is judged after disguises are gone: a
//! multiply hidden behind a DSP-style negate path still ranks the DSP templates
//! first, while a multiply-by-one ranks them last.

use lr_arch::Architecture;
use lr_ir::StructuralEvidence;

use crate::Template;

/// Ranks the templates the architecture can instantiate, best first, from
/// the evidence of a canonical program (SOFA has no DSP, so the DSP template
/// is dropped rather than ranked). `lakeroad::map_design_auto` scans the spec
/// it saturated once for all of its attempts.
///
/// Every template the architecture can instantiate appears exactly once, so a
/// caller that walks the ranking in order degrades to "try everything" — the
/// ranking only changes *which timeout is spent first*, never what is
/// reachable.
pub fn rank_for_evidence(ev: &StructuralEvidence, arch: &Architecture) -> Vec<Template> {
    rank_from_evidence(ev).into_iter().filter(|t| *t != Template::Dsp || arch.has_dsp()).collect()
}

/// The ranking policy over evidence bits, every template included.
fn rank_from_evidence(ev: &StructuralEvidence) -> Vec<Template> {
    let mut ranked: Vec<(i32, Template)> = Vec::new();
    // Comparison designs: a 1-bit predicate root is decisive — nothing else maps
    // a predicate without wasting width.
    ranked.push((if ev.comparison { 100 } else { 0 }, Template::Comparison));
    // Multiplier evidence (partial-product sums) points at the DSP first — that is
    // the whole point of DSP mapping — with the LUT multiplication sketch as the
    // fallback for architectures where the DSP query fails.
    let mul_score = if ev.multiplier { 90 } else { 10 };
    ranked.push((mul_score, Template::Dsp));
    ranked.push((if ev.multiplier { 40 } else { 5 }, Template::Multiplication));
    // Carry chains (add/sub/neg surviving canonicalization) without a multiplier
    // favor the ripple-carry sketch; a DSP's ALU also covers them, which the DSP
    // entry above already accounts for.
    let carry_score = if ev.carry_arith && !ev.multiplier {
        80
    } else if ev.carry_arith {
        30
    } else {
        0
    };
    ranked.push((carry_score, Template::BitwiseWithCarry));
    // Pure per-bit work — bitwise logic, muxing (which per-bit LUTs absorb), or
    // shifts (constant shifts are wiring into LUT inputs) — favors the bitwise
    // template; it is also the fallback of last resort for anything else.
    let per_bit = ev.bitwise || ev.mux || ev.shifts;
    let bitwise_score =
        if per_bit && !ev.multiplier && !ev.carry_arith && !ev.comparison { 85 } else { 20 };
    ranked.push((bitwise_score, Template::Bitwise));
    ranked.sort_by_key(|&(score, _)| std::cmp::Reverse(score));
    ranked.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_ir::{BvOp, Prog, ProgBuilder};

    /// The ranking `map_design_auto` walks.
    fn rank(spec: &Prog, arch: &Architecture) -> Vec<Template> {
        rank_for_evidence(&StructuralEvidence::scan(&spec.saturated()), arch)
    }

    fn ranked_first(spec: &Prog) -> Template {
        rank(spec, &Architecture::xilinx_ultrascale_plus())[0]
    }

    #[test]
    fn multiplier_designs_rank_the_dsp_first_even_disguised() {
        // A plain multiply.
        let mut b = ProgBuilder::new("mul");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let out = b.op2(BvOp::Mul, a, bb);
        let plain = b.finish(out);
        assert_eq!(ranked_first(&plain), Template::Dsp);

        // The same multiply behind a negate path: 0 − (a · (0 − b)).
        let mut b = ProgBuilder::new("mul_disguised");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let zero = b.constant_u64(0, 8);
        let nb = b.op2(BvOp::Sub, zero, bb);
        let prod = b.op2(BvOp::Mul, a, nb);
        let out = b.op2(BvOp::Sub, zero, prod);
        let disguised = b.finish(out);
        assert_eq!(ranked_first(&disguised), Template::Dsp);
    }

    #[test]
    fn comparison_designs_rank_the_comparison_template_first() {
        let mut b = ProgBuilder::new("cmp");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let out = b.op2(BvOp::Ult, a, bb);
        let spec = b.finish(out);
        assert_eq!(ranked_first(&spec), Template::Comparison);
    }

    #[test]
    fn adders_without_multiplies_rank_the_carry_template_first() {
        let mut b = ProgBuilder::new("add");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let out = b.op2(BvOp::Add, a, bb);
        let spec = b.finish(out);
        assert_eq!(ranked_first(&spec), Template::BitwiseWithCarry);
    }

    #[test]
    fn bitwise_designs_rank_the_bitwise_template_first() {
        // A multiply-by-one is noise: after saturation only the xor remains.
        let mut b = ProgBuilder::new("bitwise");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let one = b.constant_u64(1, 8);
        let noisy = b.op2(BvOp::Mul, a, one);
        let out = b.op2(BvOp::Xor, noisy, bb);
        let spec = b.finish(out);
        assert_eq!(ranked_first(&spec), Template::Bitwise);
    }

    #[test]
    fn every_template_appears_exactly_once() {
        let mut b = ProgBuilder::new("p");
        let a = b.input("a", 4);
        let spec = b.finish(a);
        let ranked = rank(&spec, &Architecture::xilinx_ultrascale_plus());
        let mut sorted: Vec<&str> = ranked.iter().map(Template::cli_name).collect();
        sorted.sort_unstable();
        let mut all: Vec<&str> = Template::all().iter().map(Template::cli_name).collect();
        all.sort_unstable();
        assert_eq!(sorted, all);
    }

    #[test]
    fn architecture_filter_drops_missing_interfaces() {
        let mut b = ProgBuilder::new("mul");
        let a = b.input("a", 4);
        let bb = b.input("b", 4);
        let out = b.op2(BvOp::Mul, a, bb);
        let spec = b.finish(out);
        let sofa = Architecture::sofa();
        let ranked = rank(&spec, &sofa);
        assert!(!ranked.contains(&Template::Dsp));
        assert_eq!(ranked.len(), Template::all().len() - 1);
        let xilinx = Architecture::xilinx_ultrascale_plus();
        assert!(rank(&spec, &xilinx).contains(&Template::Dsp));
    }
}
