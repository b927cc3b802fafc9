//! Differential fuzzing of the HDL frontend.
//!
//! From a single `u64` seed, [`generate_module`] emits a well-formed module in
//! the mini-HDL subset that deliberately spans the parser's grammar: mixed
//! signal widths (1..=64), every binary and unary operator (including shifts,
//! comparisons and the arithmetic-shift spellings), ternaries, concats,
//! bit/part/dynamic selects, sized literals in all three bases, and registers
//! with default (zero) initialisation.
//!
//! [`check_seed`] then runs the differential oracle over that module:
//!
//! 1. **Frontend closure** — the generated source must tokenize, parse and
//!    elaborate.
//! 2. **Round-trip closure** — `emit_verilog` of the elaborated program must
//!    re-parse and re-elaborate to an *interpretation-equivalent* program,
//!    checked by `lr_ir`'s one agreement check, [`lr_ir::interp_equivalent`],
//!    over many random input environments across several cycles.
//!
//! A third layer — agreement between the elaborated spec and a technology-mapped
//! implementation — needs the mapping engine and therefore lives upstream in
//! `lr_bench` (`exp_fuzz`), calling the same agreement check.
//!
//! The generator draws from the shared seeded [`lr_bv::Rng`] and is
//! deterministic: the same seed always yields byte-identical source, so any
//! failing seed is a one-line reproducer. Counterexamples this firehose shakes
//! out are frozen as named fixtures under `tests/fixtures/`.

use lr_bv::Rng;
use lr_ir::{interp_equivalent, Prog};

use crate::elaborate::elaborate;
use crate::emit::emit_verilog;
use crate::parser::parse_module;

/// A signal visible to the expression generator.
#[derive(Debug, Clone)]
struct Sig {
    name: String,
    width: u32,
}

fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Widths biased toward the narrow end but covering the full 1..=64 range.
fn pick_width(rng: &mut Rng) -> u32 {
    match rng.below(10) {
        0..=4 => rng.range(1, 8) as u32,
        5..=7 => rng.range(9, 16) as u32,
        _ => rng.range(17, 64) as u32,
    }
}

/// A random literal that fits its stated width (the parser rejects overflow).
fn gen_literal(rng: &mut Rng) -> (String, u32) {
    if rng.chance(15) {
        // Unsized decimal: 32 bits in the subset.
        return (format!("{}", rng.below(1024)), 32);
    }
    let w = pick_width(rng);
    let v = rng.next_u64() & mask(w);
    let text = match rng.below(3) {
        0 => format!("{w}'h{v:x}"),
        1 => format!("{w}'d{v}"),
        _ => format!("{w}'b{v:b}"),
    };
    (text, w)
}

/// Generates an expression over `avail`, returning its text and the width the
/// elaborator will compute for it (bottom-up subset rules: arithmetic/bitwise
/// take the max operand width, shifts keep the left operand's width,
/// comparisons and reductions are 1 bit, concats sum).
fn gen_expr(rng: &mut Rng, avail: &[Sig], depth: u32) -> (String, u32) {
    let leaf = |rng: &mut Rng| -> (String, u32) {
        if rng.chance(55) {
            let s = &avail[rng.below(avail.len() as u64) as usize];
            (s.name.clone(), s.width)
        } else {
            gen_literal(rng)
        }
    };
    if depth == 0 {
        return leaf(rng);
    }
    match rng.below(100) {
        // Leaves keep trees from exploding.
        0..=19 => leaf(rng),
        // Unary operators.
        20..=33 => {
            let (inner, w) = gen_expr(rng, avail, depth - 1);
            match rng.below(6) {
                0 => (format!("(~{inner})"), w),
                1 => (format!("(-{inner})"), w),
                2 => (format!("(!{inner})"), 1),
                3 => (format!("(&{inner})"), 1),
                4 => (format!("(|{inner})"), 1),
                _ => (format!("(^{inner})"), 1),
            }
        }
        // Binary operators.
        34..=68 => {
            let (l, wl) = gen_expr(rng, avail, depth - 1);
            let (r, wr) = gen_expr(rng, avail, depth - 1);
            const ARITH: [&str; 6] = ["+", "-", "*", "&", "|", "^"];
            const SHIFT: [&str; 4] = ["<<", ">>", "<<<", ">>>"];
            const COMPARE: [&str; 8] = ["==", "!=", "<", "<=", ">", ">=", "&&", "||"];
            match rng.below(10) {
                0..=4 => {
                    let op = ARITH[rng.below(ARITH.len() as u64) as usize];
                    (format!("({l} {op} {r})"), wl.max(wr))
                }
                5..=6 => {
                    let op = SHIFT[rng.below(SHIFT.len() as u64) as usize];
                    (format!("({l} {op} {r})"), wl)
                }
                _ => {
                    let op = COMPARE[rng.below(COMPARE.len() as u64) as usize];
                    (format!("({l} {op} {r})"), 1)
                }
            }
        }
        // Ternary.
        69..=78 => {
            let (c, _) = gen_expr(rng, avail, depth - 1);
            let (t, wt) = gen_expr(rng, avail, depth - 1);
            let (e, we) = gen_expr(rng, avail, depth - 1);
            (format!("({c} ? {t} : {e})"), wt.max(we))
        }
        // Concat of 2..=3 parts.
        79..=88 => {
            let n = rng.range(2, 3);
            let mut parts = Vec::new();
            let mut total = 0;
            for _ in 0..n {
                let (p, w) = gen_expr(rng, avail, depth - 1);
                total += w;
                parts.push(p);
            }
            (format!("{{{}}}", parts.join(", ")), total)
        }
        // Bit / part / dynamic selects on a named signal.
        _ => {
            let s = avail[rng.below(avail.len() as u64) as usize].clone();
            match rng.below(10) {
                0..=4 => {
                    let i = rng.below(u64::from(s.width));
                    (format!("{}[{i}]", s.name), 1)
                }
                5..=7 => {
                    let hi = rng.below(u64::from(s.width)) as u32;
                    let lo = rng.below(u64::from(hi) + 1) as u32;
                    (format!("{}[{hi}:{lo}]", s.name), hi - lo + 1)
                }
                _ => {
                    // Dynamic index: must not be a bare literal (the parser
                    // folds those into constant bit-selects, whose bound we
                    // could not control here), so index through an addition.
                    let idx = &avail[rng.below(avail.len() as u64) as usize];
                    let off = rng.below(8);
                    (format!("{}[({} + {off})]", s.name, idx.name), 1)
                }
            }
        }
    }
}

fn decl(kind: &str, sig: &Sig) -> String {
    if sig.width == 1 {
        format!("  {kind} {};", sig.name)
    } else {
        format!("  {kind} [{}:0] {};", sig.width - 1, sig.name)
    }
}

/// Emits a deterministic, well-formed module for `seed`.
///
/// The module is named `fuzz_<seed hex>`; its output is `y`. Sequential
/// designs gain a `clk` input and drive their registers from a single
/// `always @(posedge clk)` block placed after all wire assigns, so elaboration
/// order constraints (combinational use-before-def) hold by construction.
#[must_use]
pub fn generate_module(seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let n_inputs = rng.range(2, 4);
    let inputs: Vec<Sig> =
        (0..n_inputs).map(|k| Sig { name: format!("i{k}"), width: pick_width(&mut rng) }).collect();
    let n_regs = if rng.chance(50) { rng.range(1, 2) } else { 0 };
    let sequential = n_regs > 0;
    let out = Sig { name: "y".to_string(), width: pick_width(&mut rng) };
    let out_is_reg = sequential && rng.chance(50);
    let n_wires = rng.below(4);
    let wires: Vec<Sig> =
        (0..n_wires).map(|k| Sig { name: format!("w{k}"), width: pick_width(&mut rng) }).collect();
    let regs: Vec<Sig> =
        (0..n_regs).map(|k| Sig { name: format!("r{k}"), width: pick_width(&mut rng) }).collect();

    let mut ports = Vec::new();
    if sequential {
        ports.push("input clk".to_string());
    }
    for s in &inputs {
        if s.width == 1 {
            ports.push(format!("input {}", s.name));
        } else {
            ports.push(format!("input [{}:0] {}", s.width - 1, s.name));
        }
    }
    let out_kind = if out_is_reg { "output reg" } else { "output" };
    if out.width == 1 {
        ports.push(format!("{out_kind} {}", out.name));
    } else {
        ports.push(format!("{out_kind} [{}:0] {}", out.width - 1, out.name));
    }

    let mut body = Vec::new();
    let depth = rng.range(2, 3) as u32;

    // Wires, in dependency order: wire k may read inputs, wires 0..k, and any
    // register (registers get placeholders before statement elaboration).
    let mut wire_avail: Vec<Sig> = inputs.clone();
    wire_avail.extend(regs.iter().cloned());
    if out_is_reg {
        wire_avail.push(out.clone());
    }
    for (k, w) in wires.iter().enumerate() {
        body.push(decl("wire", w));
        let avail: Vec<Sig> =
            wire_avail.iter().cloned().chain(wires[..k].iter().cloned()).collect();
        let (rhs, _) = gen_expr(&mut rng, &avail, depth);
        body.push(format!("  assign {} = {rhs};", w.name));
    }

    // Register declarations, then one always block driving every register.
    for r in &regs {
        body.push(decl("reg", r));
    }
    let mut everything: Vec<Sig> = inputs.clone();
    everything.extend(wires.iter().cloned());
    everything.extend(regs.iter().cloned());
    if out_is_reg {
        everything.push(out.clone());
    }
    if sequential {
        body.push("  always @(posedge clk) begin".to_string());
        for r in &regs {
            let (rhs, _) = gen_expr(&mut rng, &everything, depth);
            body.push(format!("    {} <= {rhs};", r.name));
        }
        if out_is_reg {
            let (rhs, _) = gen_expr(&mut rng, &everything, depth);
            body.push(format!("    {} <= {rhs};", out.name));
        }
        body.push("  end".to_string());
    }
    if !out_is_reg {
        let (rhs, _) = gen_expr(&mut rng, &everything, depth);
        body.push(format!("  assign {} = {rhs};", out.name));
    }

    format!("module fuzz_{seed:016x}({});\n{}\nendmodule\n", ports.join(", "), body.join("\n"))
}

/// The outcome of running the differential oracle on one seed.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// The seed that produced this module.
    pub seed: u64,
    /// The generated source (kept so failures can be frozen as fixtures).
    pub source: String,
    /// The elaborated program, when layer 1 passed (callers feed this to the
    /// mapping oracle).
    pub spec: Option<Prog>,
    /// Layer 1a: generated source parses.
    pub parse_ok: bool,
    /// Layer 1b: parsed module elaborates.
    pub elaborate_ok: bool,
    /// Layer 2: emit → re-parse → re-elaborate is interpretation-equivalent.
    pub roundtrip_ok: bool,
    /// Description of the first failure, if any.
    pub failure: Option<String>,
}

impl FuzzOutcome {
    /// True when every oracle layer passed.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

/// Runs oracle layers 1 and 2 on one seed: generate, parse, elaborate, then
/// round-trip the emitted Verilog and check interpretation equivalence over
/// `envs` random environments across cycles `0..=cycles`.
#[must_use]
pub fn check_seed(seed: u64, envs: usize, cycles: u32) -> FuzzOutcome {
    let source = generate_module(seed);
    let mut out = FuzzOutcome {
        seed,
        source,
        spec: None,
        parse_ok: false,
        elaborate_ok: false,
        roundtrip_ok: false,
        failure: None,
    };
    let ast = match parse_module(&out.source) {
        Ok(ast) => ast,
        Err(e) => {
            out.failure = Some(format!("seed {seed}: generated source failed to parse: {e}"));
            return out;
        }
    };
    out.parse_ok = true;
    let spec = match elaborate(&ast, false) {
        Ok(p) => p,
        Err(e) => {
            out.failure = Some(format!("seed {seed}: generated source failed to elaborate: {e}"));
            return out;
        }
    };
    out.elaborate_ok = true;
    let emitted = emit_verilog(&spec);
    let reparsed = match parse_module(&emitted)
        .map_err(|e| e.to_string())
        .and_then(|ast| elaborate(&ast, false).map_err(|e| e.to_string()))
    {
        Ok(p) => p,
        Err(e) => {
            out.failure = Some(format!("seed {seed}: emitted Verilog failed to re-elaborate: {e}"));
            out.spec = Some(spec);
            return out;
        }
    };
    if let Err(e) = interp_equivalent(&spec, &reparsed, seed, envs, 0, cycles) {
        out.failure = Some(format!("seed {seed}: round-trip mismatch: {e}"));
        out.spec = Some(spec);
        return out;
    }
    out.roundtrip_ok = true;
    out.spec = Some(spec);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        assert_eq!(generate_module(42), generate_module(42));
        assert_ne!(generate_module(1), generate_module(2));
        assert!(generate_module(7).starts_with("module fuzz_0000000000000007("));
    }

    #[test]
    fn below_is_unbiased_and_in_range() {
        let mut rng = Rng::new(99);
        let mut counts = [0u32; 3];
        for _ in 0..3000 {
            let v = rng.below(3);
            assert!(v < 3);
            counts[v as usize] += 1;
        }
        for c in counts {
            // Loose uniformity bound: each bucket within ±30% of the mean.
            assert!((700..=1300).contains(&c), "skewed bucket counts {counts:?}");
        }
    }

    #[test]
    fn early_seeds_survive_the_full_oracle() {
        for seed in 0..50 {
            let outcome = check_seed(seed, 8, 4);
            assert!(
                outcome.ok(),
                "seed {seed} failed: {}\nsource:\n{}",
                outcome.failure.unwrap(),
                outcome.source
            );
        }
    }

    #[test]
    fn the_grammar_gets_exercised() {
        // Over a modest seed range the generator should hit every construct
        // class at least once; this guards against weight-table rot.
        let all: String = (0..200).map(generate_module).collect();
        for needle in
            ["<<", ">>", "<<<", ">>>", "?", "{", "always @(posedge clk)", "'h", "'d", "'b", "=="]
        {
            assert!(all.contains(needle), "200 seeds never produced `{needle}`");
        }
    }
}
