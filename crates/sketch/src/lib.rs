//! # lr-sketch: architecture-independent sketch templates and sketch generation
//!
//! Sketch templates (paper §2.2, §4.3) capture common FPGA implementation patterns
//! without naming any architecture-specific primitive. Specializing a template
//! against an [`Architecture`] description produces a *sketch*: an ℒsketch program
//! whose holes the synthesis engine fills.
//!
//! The five templates of the paper are provided:
//!
//! | template | pattern captured |
//! |---|---|
//! | [`Template::Dsp`] | a single DSP instance with all ports/parameters as holes |
//! | [`Template::Bitwise`] | one LUT per output bit over the corresponding input bits |
//! | [`Template::BitwiseWithCarry`] | per-bit LUTs feeding a ripple carry (add/sub-style) |
//! | [`Template::Comparison`] | a LUT ripple that folds a per-bit comparison into one bit |
//! | [`Template::Multiplication`] | LUT partial products summed by LUT-based ripple adders |
//!
//! Templates never mention `DSP48E2`, `LUT6`, or any other concrete primitive; the
//! [`Architecture`] supplies those during generation, which is what makes a new
//! architecture supportable by writing only an architecture description.

pub mod guidance;

use std::fmt;

use lr_arch::Architecture;
use lr_ir::{BvOp, NodeId, Prog, ProgBuilder};

pub use guidance::rank_for_evidence;

/// The architecture-independent sketch templates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Template {
    /// A single DSP with holes for its ports and parameters (`--template dsp`).
    Dsp,
    /// One LUT per output bit (bitwise logic).
    Bitwise,
    /// Per-bit LUTs plus a LUT-built ripple carry (addition/subtraction).
    BitwiseWithCarry,
    /// A comparison folded through a 1-bit LUT ripple.
    Comparison,
    /// LUT-based multiplication (partial products + ripple adders).
    Multiplication,
}

impl Template {
    /// All templates, in the order the paper lists them.
    pub fn all() -> [Template; 5] {
        [
            Template::Dsp,
            Template::Bitwise,
            Template::BitwiseWithCarry,
            Template::Comparison,
            Template::Multiplication,
        ]
    }

    /// The command-line name of the template (`--template <name>`).
    pub fn cli_name(&self) -> &'static str {
        match self {
            Template::Dsp => "dsp",
            Template::Bitwise => "bitwise",
            Template::BitwiseWithCarry => "bitwise-with-carry",
            Template::Comparison => "comparison",
            Template::Multiplication => "multiplication",
        }
    }

    /// Parses a command-line template name.
    pub fn from_cli_name(name: &str) -> Option<Template> {
        Template::all().into_iter().find(|t| t.cli_name() == name)
    }
}

impl fmt::Display for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.cli_name())
    }
}

/// An error produced during sketch generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SketchError {
    /// The template needs a primitive interface the architecture does not implement
    /// (e.g. the `dsp` template on SOFA).
    MissingInterface {
        /// The template requested.
        template: &'static str,
        /// The missing interface.
        interface: &'static str,
        /// The architecture.
        architecture: String,
    },
    /// The design shape is outside what the template supports (e.g. a design wider
    /// than the DSP's multiplier, or a multiplication template over a width that
    /// would need more LUTs than the sketch budget allows).
    Unsupported(String),
}

impl fmt::Display for SketchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SketchError::MissingInterface { template, interface, architecture } => write!(
                f,
                "template `{template}` needs the {interface} interface, which {architecture} does not implement"
            ),
            SketchError::Unsupported(msg) => write!(f, "unsupported design for template: {msg}"),
        }
    }
}

impl std::error::Error for SketchError {}

/// Generates a sketch for `spec` (whose inputs and output width the sketch must
/// match) by specializing `template` against `arch`.
///
/// # Errors
/// Returns [`SketchError`] if the architecture lacks a needed primitive interface or
/// the design shape is out of the template's range.
pub fn generate_sketch(
    template: Template,
    arch: &Architecture,
    spec: &Prog,
) -> Result<Prog, SketchError> {
    let mut sp = lr_trace::span("specialize");
    let inputs = spec.free_vars();
    let out_width = spec.width(spec.root());
    let name = format!("{}_{}_sketch", spec.name(), template.cli_name());
    let sketch = match template {
        Template::Dsp => dsp_sketch(&name, arch, &inputs, out_width),
        Template::Bitwise => bitwise_sketch(&name, arch, &inputs, out_width, 0),
        Template::BitwiseWithCarry => carry_sketch(&name, arch, &inputs, out_width),
        Template::Comparison => comparison_sketch(&name, arch, &inputs),
        Template::Multiplication => multiplication_sketch(&name, arch, &inputs, out_width),
    };
    if sp.is_active() {
        sp.attr("template", template as u64);
        sp.attr("inputs", inputs.len() as u64);
        sp.attr("out_width", u64::from(out_width));
        if let Ok(sketch) = &sketch {
            sp.attr("holes", sketch.holes().len() as u64);
        }
    }
    sketch
}

fn dsp_sketch(
    name: &str,
    arch: &Architecture,
    inputs: &[(String, u32)],
    out_width: u32,
) -> Result<Prog, SketchError> {
    if !arch.has_dsp() {
        return Err(SketchError::MissingInterface {
            template: "dsp",
            interface: "DSP",
            architecture: arch.name().to_string(),
        });
    }
    let max_w = arch.dsp_max_operand_width().unwrap_or(18);
    if inputs.iter().any(|(_, w)| *w > max_w) {
        return Err(SketchError::Unsupported(format!(
            "input wider than the DSP multiplier ({max_w} bits)"
        )));
    }
    let mut b = ProgBuilder::new(name);
    let mut design_inputs = Vec::new();
    for (input_name, width) in inputs {
        let id = b.input(input_name, *width);
        design_inputs.push((input_name.clone(), id, *width));
    }
    let dsp = arch.instantiate_dsp(&mut b, &design_inputs, 0).expect("architecture reports a DSP");
    if out_width > dsp.output_width {
        return Err(SketchError::Unsupported(format!(
            "output wider than the DSP output ({} bits)",
            dsp.output_width
        )));
    }
    let out = if out_width == dsp.output_width {
        dsp.node
    } else {
        b.extract(dsp.node, out_width - 1, 0)
    };
    Ok(b.finish(out))
}

/// Per-output-bit LUTs over the same bit position of every input. `extra_stages`
/// registers are appended to every output bit (used by the pipelined variants).
fn bitwise_sketch(
    name: &str,
    arch: &Architecture,
    inputs: &[(String, u32)],
    out_width: u32,
    extra_stages: u32,
) -> Result<Prog, SketchError> {
    if inputs.len() as u32 > arch.lut_size() {
        return Err(SketchError::Unsupported(format!(
            "bitwise template supports at most {} inputs on {}",
            arch.lut_size(),
            arch.name()
        )));
    }
    let mut b = ProgBuilder::new(name);
    let mut input_ids = Vec::new();
    for (input_name, width) in inputs {
        input_ids.push((b.input(input_name, *width), *width));
    }
    let mut bits = Vec::new();
    for bit in 0..out_width {
        let lut_inputs: Vec<NodeId> = input_ids
            .iter()
            .map(|&(id, w)| {
                let idx = bit.min(w - 1);
                b.extract(id, idx, idx)
            })
            .collect();
        let mut out_bit = arch.instantiate_lut(&mut b, &lut_inputs, bit as usize);
        for _ in 0..extra_stages {
            out_bit = b.reg(out_bit, 1);
        }
        bits.push(out_bit);
    }
    let root = concat_bits(&mut b, &bits);
    Ok(b.finish(root))
}

/// Per-bit sum LUT plus a per-bit carry LUT forming a ripple chain — the
/// "carry from LUTs" lowering the paper mentions for architectures (like SOFA)
/// without a hard carry primitive.
fn carry_sketch(
    name: &str,
    arch: &Architecture,
    inputs: &[(String, u32)],
    out_width: u32,
) -> Result<Prog, SketchError> {
    if inputs.len() != 2 {
        return Err(SketchError::Unsupported(
            "bitwise-with-carry expects exactly two inputs".to_string(),
        ));
    }
    if arch.lut_size() < 3 {
        return Err(SketchError::MissingInterface {
            template: "bitwise-with-carry",
            interface: "LUT3+",
            architecture: arch.name().to_string(),
        });
    }
    let mut b = ProgBuilder::new(name);
    let mut input_ids = Vec::new();
    for (input_name, width) in inputs {
        input_ids.push((b.input(input_name, *width), *width));
    }
    let mut carry = b.constant_u64(0, 1);
    let mut bits = Vec::new();
    for bit in 0..out_width {
        let xa = {
            let (id, w) = input_ids[0];
            let idx = bit.min(w - 1);
            b.extract(id, idx, idx)
        };
        let xb = {
            let (id, w) = input_ids[1];
            let idx = bit.min(w - 1);
            b.extract(id, idx, idx)
        };
        let sum = arch.instantiate_lut(&mut b, &[xa, xb, carry], (2 * bit) as usize);
        let next_carry = arch.instantiate_lut(&mut b, &[xa, xb, carry], (2 * bit + 1) as usize);
        bits.push(sum);
        carry = next_carry;
    }
    let root = concat_bits(&mut b, &bits);
    Ok(b.finish(root))
}

/// A comparison folded through a chain of 1-bit LUTs: each stage combines one bit of
/// each operand with the running result.
fn comparison_sketch(
    name: &str,
    arch: &Architecture,
    inputs: &[(String, u32)],
) -> Result<Prog, SketchError> {
    if inputs.len() != 2 {
        return Err(SketchError::Unsupported("comparison expects exactly two inputs".to_string()));
    }
    if arch.lut_size() < 3 {
        return Err(SketchError::MissingInterface {
            template: "comparison",
            interface: "LUT3+",
            architecture: arch.name().to_string(),
        });
    }
    let mut b = ProgBuilder::new(name);
    let mut input_ids = Vec::new();
    for (input_name, width) in inputs {
        input_ids.push((b.input(input_name, *width), *width));
    }
    let width = input_ids.iter().map(|&(_, w)| w).max().unwrap_or(1);
    let mut acc = b.constant_u64(0, 1);
    for bit in 0..width {
        let xa = {
            let (id, w) = input_ids[0];
            let idx = bit.min(w - 1);
            b.extract(id, idx, idx)
        };
        let xb = {
            let (id, w) = input_ids[1];
            let idx = bit.min(w - 1);
            b.extract(id, idx, idx)
        };
        acc = arch.instantiate_lut(&mut b, &[xa, xb, acc], bit as usize);
    }
    Ok(b.finish(acc))
}

/// LUT-based multiplication: AND-style partial-product LUTs summed by LUT ripple
/// adders. Deliberately bounded to small widths — the sketch grows quadratically,
/// which is exactly why DSP mapping matters.
fn multiplication_sketch(
    name: &str,
    arch: &Architecture,
    inputs: &[(String, u32)],
    out_width: u32,
) -> Result<Prog, SketchError> {
    if inputs.len() != 2 {
        return Err(SketchError::Unsupported(
            "multiplication expects exactly two inputs".to_string(),
        ));
    }
    if out_width > 6 {
        return Err(SketchError::Unsupported(format!(
            "LUT-based multiplication sketch is limited to 6 output bits, requested {out_width}"
        )));
    }
    let mut b = ProgBuilder::new(name);
    let mut input_ids = Vec::new();
    for (input_name, width) in inputs {
        input_ids.push((b.input(input_name, *width), *width));
    }
    let (a_id, a_w) = input_ids[0];
    let (b_id, b_w) = input_ids[1];
    let mut lut_counter = 0usize;
    // Partial products pp[i][j] = LUT(a[i], b[j]) (the hole lets the solver pick AND).
    let mut acc: Vec<NodeId> = Vec::new();
    let zero1 = b.constant_u64(0, 1);
    for _ in 0..out_width {
        acc.push(zero1);
    }
    for i in 0..a_w.min(out_width) {
        let mut carry = zero1;
        for j in 0..b_w.min(out_width - i) {
            let ai = b.extract(a_id, i, i);
            let bj = b.extract(b_id, j, j);
            let pp = arch.instantiate_lut(&mut b, &[ai, bj], lut_counter);
            lut_counter += 1;
            let k = (i + j) as usize;
            // acc[k], pp, carry -> sum and carry via two LUTs.
            let sum = arch.instantiate_lut(&mut b, &[acc[k], pp, carry], lut_counter);
            lut_counter += 1;
            let new_carry = arch.instantiate_lut(&mut b, &[acc[k], pp, carry], lut_counter);
            lut_counter += 1;
            acc[k] = sum;
            carry = new_carry;
        }
    }
    let root = concat_bits(&mut b, &acc);
    Ok(b.finish(root))
}

fn concat_bits(b: &mut ProgBuilder, bits: &[NodeId]) -> NodeId {
    // bits[0] is the LSB; fold into {msb, ..., lsb}.
    let mut acc = bits[0];
    for &bit in &bits[1..] {
        acc = b.op2(BvOp::Concat, bit, acc);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_ir::ProgBuilder;

    fn spec_two_input(width: u32) -> Prog {
        let mut b = ProgBuilder::new("xor_spec");
        let a = b.input("a", width);
        let bb = b.input("b", width);
        let out = b.op2(BvOp::Xor, a, bb);
        b.finish(out)
    }

    fn spec_four_input(width: u32) -> Prog {
        let mut b = ProgBuilder::new("amab");
        let a = b.input("a", width);
        let bb = b.input("b", width);
        let c = b.input("c", width);
        let d = b.input("d", width);
        let sum = b.op2(BvOp::Add, a, bb);
        let prod = b.op2(BvOp::Mul, sum, c);
        let out = b.op2(BvOp::And, prod, d);
        b.finish(out)
    }

    #[test]
    fn template_names_round_trip() {
        for t in Template::all() {
            assert_eq!(Template::from_cli_name(t.cli_name()), Some(t));
        }
        assert_eq!(Template::from_cli_name("nope"), None);
        assert_eq!(Template::Dsp.to_string(), "dsp");
    }

    #[test]
    fn dsp_sketch_generates_for_all_dsp_architectures() {
        let spec = spec_four_input(8);
        for arch in Architecture::with_dsps() {
            let sketch = generate_sketch(Template::Dsp, &arch, &spec).unwrap();
            assert!(sketch.well_formed().is_ok(), "{}", arch.name());
            assert!(sketch.has_holes());
            assert_eq!(sketch.width(sketch.root()), 8);
            // The sketch's inputs must match the spec's (required by synthesis).
            assert_eq!(sketch.free_vars(), spec.free_vars());
        }
    }

    #[test]
    fn dsp_sketch_fails_cleanly_on_sofa() {
        let spec = spec_four_input(8);
        let err = generate_sketch(Template::Dsp, &Architecture::sofa(), &spec).unwrap_err();
        assert!(matches!(err, SketchError::MissingInterface { .. }));
        assert!(err.to_string().contains("SOFA"));
    }

    #[test]
    fn dsp_sketch_rejects_overwide_designs() {
        let spec = spec_four_input(24);
        let err = generate_sketch(Template::Dsp, &Architecture::xilinx_ultrascale_plus(), &spec)
            .unwrap_err();
        assert!(matches!(err, SketchError::Unsupported(_)));
    }

    #[test]
    fn bitwise_sketch_on_every_architecture() {
        let spec = spec_two_input(4);
        for arch in Architecture::all() {
            let sketch = generate_sketch(Template::Bitwise, &arch, &spec).unwrap();
            assert!(sketch.well_formed().is_ok(), "{}", arch.name());
            assert_eq!(sketch.width(sketch.root()), 4);
            assert_eq!(sketch.holes().len(), 4, "{}: one INIT hole per bit", arch.name());
        }
    }

    #[test]
    fn carry_and_comparison_and_multiplication_sketches_build() {
        let spec = spec_two_input(4);
        let arch = Architecture::sofa();
        let carry = generate_sketch(Template::BitwiseWithCarry, &arch, &spec).unwrap();
        assert!(carry.well_formed().is_ok());
        assert_eq!(carry.width(carry.root()), 4);
        assert_eq!(carry.holes().len(), 8);

        let cmp = generate_sketch(Template::Comparison, &arch, &spec).unwrap();
        assert!(cmp.well_formed().is_ok());
        assert_eq!(cmp.width(cmp.root()), 1);

        let mut b = ProgBuilder::new("mul_spec");
        let a = b.input("a", 3);
        let bb = b.input("b", 3);
        let out = b.op2(BvOp::Mul, a, bb);
        let mul_spec = b.finish(out);
        let mul = generate_sketch(Template::Multiplication, &arch, &mul_spec).unwrap();
        assert!(mul.well_formed().is_ok());
        assert_eq!(mul.width(mul.root()), 3);

        // Wide multiplications are rejected rather than exploding.
        let wide = spec_two_input(12);
        assert!(generate_sketch(Template::Multiplication, &arch, &wide).is_err());
    }

    #[test]
    fn bitwise_rejects_too_many_inputs() {
        let spec = spec_four_input(4);
        // SOFA's LUT4 can take 4 inputs, so this succeeds...
        assert!(generate_sketch(Template::Bitwise, &Architecture::sofa(), &spec).is_ok());
        // ...but a 5-input design cannot map to a LUT4 bitwise sketch.
        let mut b = ProgBuilder::new("five");
        let mut acc = b.input("i0", 2);
        for k in 1..5 {
            let x = b.input(&format!("i{k}"), 2);
            acc = b.op2(BvOp::Xor, acc, x);
        }
        let five = b.finish(acc);
        assert!(generate_sketch(Template::Bitwise, &Architecture::sofa(), &five).is_err());
    }
}
