//! Design-size scaling of the Verilog frontend: chains of N 8-bit `assign`s,
//! parsed and elaborated through `DesignSource::resolve` (never mapped).

use std::fmt::Write as _;
use std::time::Instant;

use lakeroad::DesignSource;
use lr_arch::ArchName;
use lr_bv::BitVec;
use lr_ir::StreamInputs;

use crate::stats::Rng;

/// The ladder's rungs: assigns per chain.
pub const RUNGS: [usize; 3] = [1000, 2000, 4000];

/// One generated chain and the operator sequence that defines it.
pub struct Chain {
    pub assigns: usize,
    pub source: DesignSource,
    ops: Vec<u8>,
}

/// Wire `i` combines wire `i - 1` with input `a`, `b` or `c`; the operator
/// and input cycle through a fixed pattern so the text is the same on every
/// commit.
fn step(op: u8, prev: u8, a: u8, b: u8, c: u8) -> u8 {
    match op {
        0 => prev.wrapping_add(a),
        1 => prev ^ b,
        2 => prev.wrapping_sub(c),
        _ => prev | (a & b),
    }
}

const OP_TEXT: [&str; 4] = ["w{p} + a", "w{p} ^ b", "w{p} - c", "w{p} | (a & b)"];

pub fn chain(assigns: usize) -> Chain {
    let ops: Vec<u8> = (0..assigns).map(|i| ((i * 7 + i / 3) % 4) as u8).collect();
    let mut text = String::from(
        "module chain(input clk, input [7:0] a, b, c, output [7:0] out);\n  wire [7:0] w0;\n  assign w0 = a;\n",
    );
    for (i, &op) in ops.iter().enumerate() {
        let expr = OP_TEXT[op as usize].replace("{p}", &i.to_string());
        let _ = write!(text, "  wire [7:0] w{};\n  assign w{} = {expr};\n", i + 1, i + 1);
    }
    let _ = write!(text, "  assign out = w{assigns};\nendmodule\n");
    Chain {
        assigns,
        source: DesignSource::VerilogInline { name: format!("chain{assigns}"), text },
        ops,
    }
}

/// What resolving one chain measured.
pub struct Resolved {
    pub ms: f64,
    pub nodes: usize,
    pub result: Result<(), String>,
}

/// Resolves the chain (timed), then checks the elaborated program against
/// the chain evaluated directly on inputs drawn from `rng` (untimed).
pub fn resolve(chain: &Chain, rng: &mut Rng) -> Resolved {
    let t0 = Instant::now();
    let resolved = chain.source.resolve(ArchName::IntelCyclone10Lp);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let prog = match resolved {
        Ok(prog) => prog,
        Err(e) => return Resolved { ms, nodes: 0, result: Err(e) },
    };
    let [a, b, c] = [0u8; 3].map(|_| rng.below(256) as u8);
    let want = chain.ops.iter().fold(a, |prev, &op| step(op, prev, a, b, c));
    let env = StreamInputs::from_constants(
        [("a", a), ("b", b), ("c", c)]
            .map(|(name, v)| (name.to_string(), BitVec::from_u64(u64::from(v), 8))),
    );
    let result = match prog.interp(&env, 0) {
        Ok(got) if got == BitVec::from_u64(u64::from(want), 8) => Ok(()),
        Ok(got) => Err(format!("chain{} computes {got:?}, expected {want}", chain.assigns)),
        Err(e) => Err(format!("chain{} interp: {e}", chain.assigns)),
    };
    Resolved { ms, nodes: prog.len(), result }
}
