//! Content-addressed synthesis caching: the `lr_core` side of the `lr_serve`
//! batch-serving subsystem.
//!
//! A mapping run is expensive (CEGIS over SAT) but its *inputs* are small: the
//! behavioral spec, the architecture and the sketch template. Once the spec has
//! been canonicalized by equality saturation
//! ([`lr_ir::Prog::saturated`] + cost-based extraction), semantically-equal
//! designs collapse to one normal form — so a hash of the canonical spec is a
//! *content address* under which the synthesis verdict can be reused across
//! requests, batches, and (with `lr_serve`'s on-disk persistence) processes.
//!
//! This module defines what a cache stores and how keys are computed; the
//! map, persistence, and statistics live in `lr_serve`, which plugs in
//! through [`MapCache`] on [`crate::MapConfig::cache`]. Three design points:
//!
//! * **Keys are AC-normalized.** Extraction breaks cost ties deterministically,
//!   but two *different* embeddings of equivalent specs can still extract
//!   commuted or re-associated forms of the same expression. The fingerprint
//!   therefore hashes commutative-associative operator chains as sorted
//!   multisets, so `a+(b+c)` and `(c+a)+b` share a key.
//! * **Entries replay hole assignments, not programs.** A success is stored as
//!   the synthesized hole values; a hit regenerates the sketch and re-fills it.
//!   That keeps entries tiny and forces every replay through the same
//!   specialization path as synthesis.
//! * **Success hits are verified.** A replayed implementation is checked
//!   against the spec by `lr_ir` interpretation on pseudorandom stimulus
//!   before it is served (see [`replay`]); a stale or hash-colliding entry
//!   fails the check, is invalidated, and the request falls back to real
//!   synthesis. UNSAT entries have nothing to replay, so they rest on the
//!   content address alone — which is why the key is 128 bits and why the
//!   on-disk format carries a version header that must be bumped whenever the
//!   sketch generator or synthesis semantics change what is mappable.
//!
//! The synthesis budget is not part of the key: no stored verdict depends on
//! it. A success is re-verified on replay, an UNSAT is a proof, and timeouts —
//! the only verdicts a budget decides — are never stored. So a verdict found
//! under one budget is served under a tighter one (a deadline clamp, the
//! auto-template loop's remainder) and under a larger one alike.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::time::{Duration, Instant};

use lr_arch::Architecture;
use lr_bv::BitVec;
use lr_ir::{interp_equivalent, HoleDomain, Node, NodeId, Prog};
use lr_sketch::Template;
use lr_synth::cegis::{check_examples, exhaustive_inputs};
use lr_synth::SynthesisStats;

use crate::{generate_sketch, pipeline_depth, MapConfig, MappedDesign};

/// A 128-bit content address: spec fingerprint × architecture × template.
/// Displayed (and persisted) as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub [u64; 2]);

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0[0], self.0[1])
    }
}

impl FromStr for CacheKey {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 32 {
            return Err(format!("cache key must be 32 hex digits, got {}", s.len()));
        }
        let hi = u64::from_str_radix(&s[..16], 16).map_err(|e| e.to_string())?;
        let lo = u64::from_str_radix(&s[16..], 16).map_err(|e| e.to_string())?;
        Ok(CacheKey([hi, lo]))
    }
}

impl CacheKey {
    /// Computes the content address of one mapping job. `spec` must be the
    /// *prepared* spec — already canonicalized by equality saturation — since
    /// the whole point is that equal canonical forms share an address.
    pub fn for_mapping(spec: &Prog, arch: &Architecture, template: Template) -> CacheKey {
        let mut mix = Mix::new();
        let (a, b) = spec_fingerprint(spec);
        mix.u64(a);
        mix.u64(b);
        mix.str(&arch.name().to_string());
        mix.str(template.cli_name());
        CacheKey(mix.finish())
    }
}

/// What a cache stores per key: the verdict worth replaying. Timeouts are never
/// cached — they say nothing about the design, only about the budget.
#[derive(Debug, Clone, PartialEq)]
pub enum CachedOutcome {
    /// Synthesis succeeded with these hole values; a hit re-specializes the
    /// sketch and re-fills the holes (see [`replay`]).
    Success {
        /// The synthesized hole assignment.
        holes: BTreeMap<String, BitVec>,
    },
    /// The solver proved no completion of the template's sketch implements the
    /// spec. Valid under every budget (UNSAT is a proof).
    Unsat,
}

/// The hook `lr_serve` implements: a concurrent, content-addressed store of
/// synthesis verdicts. `map_design` consults it before synthesis and feeds it
/// after; implementations must be safe to share across scheduler workers.
pub trait MapCache: Send + Sync {
    /// Looks up a verdict. Implementations should count hits/misses themselves.
    fn lookup(&self, key: &CacheKey) -> Option<CachedOutcome>;

    /// Records a verdict (last writer wins).
    fn store(&self, key: CacheKey, outcome: CachedOutcome);

    /// Drops an entry whose replay failed verification, so the slot is rewritten
    /// by the synthesis fallback instead of poisoning every future lookup.
    fn invalidate(&self, key: &CacheKey);
}

// ---------------------------------------------------------------------------
// Spec fingerprinting
// ---------------------------------------------------------------------------

/// Two independent FNV-1a streams over the same bytes; 128 bits keeps accidental
/// collisions out of reach of any realistic workload, and verified replay makes
/// even a collision harmless.
struct Mix {
    a: u64,
    b: u64,
}

impl Mix {
    fn new() -> Mix {
        // FNV-1a offset basis, and the same basis re-mixed with the FNV prime so
        // the two lanes decorrelate from the first byte.
        Mix { a: 0xcbf2_9ce4_8422_2325, b: 0xcbf2_9ce4_8422_2325 ^ 0x0100_0000_01b3 }
    }

    fn u8(&mut self, byte: u8) {
        const PRIME: u64 = 0x0100_0000_01b3;
        // The second lane must multiply by an *odd* constant — an even one
        // shifts entropy out of the low bits on every step and degenerates the
        // lane. The golden-ratio constant is odd and mixes well.
        const PRIME_B: u64 = 0x9E37_79B9_7F4A_7C15;
        self.a = (self.a ^ byte as u64).wrapping_mul(PRIME);
        self.b = (self.b ^ byte.rotate_left(3) as u64).wrapping_mul(PRIME_B);
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.u8(byte);
        }
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for byte in s.bytes() {
            self.u8(byte);
        }
    }

    fn bitvec(&mut self, bv: &BitVec) {
        self.u64(bv.width() as u64);
        self.str(&bv.to_hex_string());
    }

    fn finish(&self) -> [u64; 2] {
        [self.a, self.b]
    }
}

/// Operators that are both commutative and associative: their operand chains are
/// hashed as sorted multisets so that tree shape and operand order cannot split
/// equal specs across keys.
fn is_ac(op: lr_ir::BvOp) -> bool {
    use lr_ir::BvOp;
    matches!(op, BvOp::Add | BvOp::Mul | BvOp::And | BvOp::Or | BvOp::Xor)
}

/// A structural fingerprint of a program, invariant under node renumbering and
/// under commutation/re-association of AC operator chains. Cycles through
/// registers (counters, accumulators) hash by back-edge *distance*, which is
/// isomorphism-invariant.
///
/// Each node is hashed once, unless its hash read a back edge: such a hash
/// depends on the path that reached the node, so a node inside a feedback loop
/// is hashed once per path (a register pipeline without feedback stays linear).
pub fn spec_fingerprint(spec: &Prog) -> (u64, u64) {
    /// The node's hash, and whether it read a back edge.
    fn node_fp(
        prog: &Prog,
        id: NodeId,
        open: &mut Vec<NodeId>,
        memo: &mut std::collections::HashMap<NodeId, ([u64; 2], bool)>,
    ) -> ([u64; 2], bool) {
        if let Some(pos) = open.iter().rposition(|&o| o == id) {
            // Back edge (feedback through a register): hash the distance to the
            // open node, the de-Bruijn trick that names cycles canonically.
            let mut m = Mix::new();
            m.str("back");
            m.u64((open.len() - pos) as u64);
            return (m.finish(), true);
        }
        // A hash that read no back edge is the same on every path. One that did
        // depends on back-edge distances, which change with the path taken, so
        // it is reused only where no cycle is open.
        if let Some(&(fp, looped)) = memo.get(&id) {
            if !looped || open.is_empty() {
                return (fp, looped);
            }
        }
        let mut looped = false;
        let mut read = |fp: ([u64; 2], bool)| {
            looped |= fp.1;
            fp.0
        };
        let mut m = Mix::new();
        match prog.node(id).expect("node id belongs to the program") {
            Node::BV(bv) => {
                m.str("const");
                m.bitvec(bv);
            }
            Node::Var { name, width } => {
                m.str("var");
                m.str(name);
                m.u64(*width as u64);
            }
            Node::Hole { name, width, domain } => {
                m.str("hole");
                m.str(name);
                m.u64(*width as u64);
                match domain {
                    HoleDomain::AnyConstant => m.str("any"),
                    HoleDomain::Choice(vs) => {
                        m.str("choice");
                        m.u64(vs.len() as u64);
                        for v in vs {
                            m.bitvec(v);
                        }
                    }
                    HoleDomain::LessThan(bound) => {
                        m.str("lt");
                        m.bitvec(bound);
                    }
                }
            }
            Node::Reg { data, init } => {
                m.str("reg");
                m.bitvec(init);
                open.push(id);
                let fp = read(node_fp(prog, *data, open, memo));
                open.pop();
                m.u64(fp[0]);
                m.u64(fp[1]);
            }
            Node::Op(op, args) => {
                if is_ac(*op) {
                    // Flatten the same-op chain and hash its operands order-free.
                    let mut operands: Vec<[u64; 2]> = Vec::new();
                    let mut stack: Vec<NodeId> = args.iter().rev().copied().collect();
                    while let Some(a) = stack.pop() {
                        match prog.node(a) {
                            Some(Node::Op(inner, inner_args)) if inner == op => {
                                stack.extend(inner_args.iter().rev().copied());
                            }
                            _ => operands.push(read(node_fp(prog, a, open, memo))),
                        }
                    }
                    operands.sort_unstable();
                    m.str("ac-op");
                    m.str(&op.to_string());
                    m.u64(operands.len() as u64);
                    for fp in operands {
                        m.u64(fp[0]);
                        m.u64(fp[1]);
                    }
                } else {
                    m.str("op");
                    m.str(&op.to_string());
                    let mut fps: Vec<[u64; 2]> =
                        args.iter().map(|&a| read(node_fp(prog, a, open, memo))).collect();
                    // `Eq` is commutative but (being 1-bit-valued) not usefully
                    // associative: sort its two operand hashes in place.
                    if *op == lr_ir::BvOp::Eq {
                        fps.sort_unstable();
                    }
                    for fp in fps {
                        m.u64(fp[0]);
                        m.u64(fp[1]);
                    }
                }
            }
            Node::Prim(p) => {
                m.str("prim");
                m.str(&p.module);
                m.str(&p.interface);
                m.str(&p.output_port);
                m.u64(p.bindings.len() as u64);
                for (port, &target) in &p.bindings {
                    m.str(port);
                    let fp = read(node_fp(prog, target, open, memo));
                    m.u64(fp[0]);
                    m.u64(fp[1]);
                }
                let (a, b) = spec_fingerprint(&p.semantics);
                m.u64(a);
                m.u64(b);
            }
        }
        let fp = m.finish();
        if !looped || open.is_empty() {
            memo.insert(id, (fp, looped));
        }
        (fp, looped)
    }

    let mut m = Mix::new();
    m.str("prog");
    // The input interface is part of the content: two specs computing the same
    // cone over different declared interfaces pose different synthesis tasks.
    let inputs = spec.free_vars();
    m.u64(inputs.len() as u64);
    for (name, width) in &inputs {
        m.str(name);
        m.u64(*width as u64);
    }
    let (root, _) =
        node_fp(spec, spec.root(), &mut Vec::new(), &mut std::collections::HashMap::new());
    m.u64(root[0]);
    m.u64(root[1]);
    let [a, b] = m.finish();
    (a, b)
}

// ---------------------------------------------------------------------------
// Verified replay
// ---------------------------------------------------------------------------

/// Rounds of random stimulus a replayed implementation must match before it is
/// served. Cheap (pure interpretation) relative to even one solver call.
const REPLAY_ROUNDS: usize = 12;

/// Seed of the replay stimulus, fixed so a replay verdict is reproducible.
const REPLAY_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Replays a cached hole assignment: regenerates the sketch for `(template,
/// arch, spec)`, fills the holes, simplifies, and checks the result against the
/// spec by stream interpretation at the cycles synthesis would have checked.
/// A spec small enough for synthesis's exhaustive path
/// ([`lr_synth::cegis::exhaustive_inputs`]) is checked on every input
/// assignment, any other on `REPLAY_ROUNDS` pseudorandom ones.
/// Returns `None` — caller falls back to synthesis — if the sketch no longer
/// generates, the assignment no longer fits its domains, or any checked input
/// disagrees (a stale or colliding entry).
pub fn replay(
    spec: &Prog,
    template: Template,
    arch: &Architecture,
    config: &MapConfig,
    holes: &BTreeMap<String, BitVec>,
    started: Instant,
) -> Option<MappedDesign> {
    let sketch = generate_sketch(template, arch, spec).ok()?;
    let filled = sketch.fill_holes(holes).ok()?;
    let mapped = MappedDesign::from_filled(spec, &filled, SynthesisStats::default());
    let implementation = &mapped.implementation;
    let t = pipeline_depth(spec);
    let last = t + config.bmc_window;
    let agrees = match exhaustive_inputs(spec, implementation) {
        Some(all) => check_examples(&spec.schedule().ok()?, implementation, &all, t..=last).is_ok(),
        None => {
            interp_equivalent(spec, implementation, REPLAY_SEED, REPLAY_ROUNDS, t, last).is_ok()
        }
    };
    agrees.then(|| MappedDesign { stats: served_stats(started.elapsed()), ..mapped })
}

/// The statistics of a verdict served from the cache: a `"cache"`-labelled
/// stub with [`SynthesisStats::from_cache`] set, no solver work, and the
/// lookup-plus-replay time as `elapsed`.
pub(crate) fn served_stats(elapsed: Duration) -> SynthesisStats {
    SynthesisStats {
        solver_name: "cache".to_string(),
        elapsed,
        from_cache: true,
        ..SynthesisStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_ir::{BvOp, ProgBuilder};

    fn key_of(spec: &Prog) -> CacheKey {
        CacheKey::for_mapping(spec, &Architecture::intel_cyclone10lp(), Template::Dsp)
    }

    #[test]
    fn keys_are_stable_and_roundtrip_through_hex() {
        let mut b = ProgBuilder::new("p");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let out = b.op2(BvOp::Mul, a, bb);
        let spec = b.finish(out);
        let k1 = key_of(&spec);
        let k2 = key_of(&spec.clone());
        assert_eq!(k1, k2);
        let parsed: CacheKey = k1.to_string().parse().unwrap();
        assert_eq!(parsed, k1);
        assert!("xyz".parse::<CacheKey>().is_err());
    }

    #[test]
    fn ac_chains_share_a_fingerprint_and_order_matters_elsewhere() {
        // (a + b) + c vs c + (b + a): same key.
        let build = |perm: [&str; 3], left_assoc: bool| {
            let mut b = ProgBuilder::new("p");
            let xs: Vec<_> = perm.iter().map(|n| b.input(n, 8)).collect();
            let out = if left_assoc {
                let t = b.op2(BvOp::Add, xs[0], xs[1]);
                b.op2(BvOp::Add, t, xs[2])
            } else {
                let t = b.op2(BvOp::Add, xs[1], xs[2]);
                b.op2(BvOp::Add, xs[0], t)
            };
            b.finish(out)
        };
        let p1 = build(["a", "b", "c"], true);
        let p2 = build(["c", "b", "a"], false);
        assert_eq!(spec_fingerprint(&p1), spec_fingerprint(&p2));

        // a - b vs b - a: different keys.
        let sub = |swap: bool| {
            let mut b = ProgBuilder::new("p");
            let a = b.input("a", 8);
            let bb = b.input("b", 8);
            let out = if swap { b.op2(BvOp::Sub, bb, a) } else { b.op2(BvOp::Sub, a, bb) };
            b.finish(out)
        };
        assert_ne!(spec_fingerprint(&sub(false)), spec_fingerprint(&sub(true)));
    }

    /// Records every key `map_design` looks up and answers each with UNSAT, so
    /// a mapping stops at the cache's front door without synthesizing.
    #[derive(Default)]
    struct KeyLog(std::sync::Mutex<Vec<CacheKey>>);

    impl MapCache for KeyLog {
        fn lookup(&self, key: &CacheKey) -> Option<CachedOutcome> {
            self.0.lock().expect("no test thread panics holding the log").push(*key);
            Some(CachedOutcome::Unsat)
        }
        fn store(&self, _: CacheKey, _: CachedOutcome) {}
        fn invalidate(&self, _: &CacheKey) {}
    }

    #[test]
    fn key_distinguishes_arch_template_and_tier() {
        let mut b = ProgBuilder::new("p");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let out = b.op2(BvOp::Mul, a, bb);
        let spec = b.finish(out);
        let base = key_of(&spec);
        let other_arch = CacheKey::for_mapping(&spec, &Architecture::lattice_ecp5(), Template::Dsp);
        let other_template = CacheKey::for_mapping(
            &spec,
            &Architecture::intel_cyclone10lp(),
            Template::Multiplication,
        );
        assert_ne!(base, other_arch);
        assert_ne!(base, other_template);

        // Budgets do not split a key: a deadline-clamped budget and the paper's
        // three look up the same keys, named and auto-template alike.
        let arch = Architecture::intel_cyclone10lp();
        let keys_under = |secs: u64| {
            let log = std::sync::Arc::new(KeyLog::default());
            let config = MapConfig::single_solver()
                .with_timeout(Duration::from_secs(secs))
                .with_cache(log.clone());
            let named = crate::map_design(&spec, Template::Dsp, &arch, &config).unwrap();
            let auto = crate::map_design_auto(&spec, &arch, &config).unwrap();
            for outcome in [named, auto] {
                assert!(outcome.is_unsat() && outcome.served_from_cache());
                assert_eq!(outcome.winning_solver(), None);
            }
            let keys = log.0.lock().unwrap().clone();
            keys
        };
        let clamped = keys_under(2);
        assert_eq!(clamped[0], key_of(&spec.saturated()));
        for secs in [20, 40, 120] {
            assert_eq!(keys_under(secs), clamped, "a {secs} s budget changed a key");
        }
    }

    /// `levels` of `w = (w ^ b) + (w & a)` from `w = c`, ending in one register:
    /// every level reads the one below twice, so a walk that hashes per path
    /// doubles its work per level.
    fn registered_chain(levels: usize) -> Prog {
        let mut b = ProgBuilder::new("chain");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let mut w = b.input("c", 8);
        for _ in 0..levels {
            let x = b.op2(BvOp::Xor, w, bb);
            let y = b.op2(BvOp::And, w, a);
            w = b.op2(BvOp::Add, x, y);
        }
        let r = b.reg(w, 8);
        b.finish(r)
    }

    #[test]
    fn keys_are_pinned() {
        let mut corpus = Vec::new();
        let mut b = ProgBuilder::new("mul");
        let a = b.input("a", 8);
        let x = b.input("b", 8);
        let m = b.op2(BvOp::Mul, a, x);
        corpus.push(b.finish(m));
        let mut b = ProgBuilder::new("ac");
        let a = b.input("a", 8);
        let x = b.input("b", 8);
        let c = b.input("c", 8);
        let s = b.op2(BvOp::Add, a, x);
        let s = b.op2(BvOp::Add, s, c);
        corpus.push(b.finish(s));
        // A counter: r <= r + 1.
        let mut b = ProgBuilder::new("ctr");
        let r = b.reg_placeholder(8);
        let one = b.constant_u64(1, 8);
        let next = b.op2(BvOp::Add, r, one);
        b.set_reg_data(r, next);
        corpus.push(b.finish(r));
        // An accumulator read through the product it adds: r <= r + a * b,
        // out = r ^ (a * b).
        let mut b = ProgBuilder::new("acc");
        let a = b.input("a", 8);
        let x = b.input("b", 8);
        let r = b.reg_placeholder(8);
        let m = b.op2(BvOp::Mul, a, x);
        let next = b.op2(BvOp::Add, r, m);
        b.set_reg_data(r, next);
        let o = b.op2(BvOp::Xor, r, m);
        corpus.push(b.finish(o));
        // A product read both before and after a register: reg(reg(s) - s).
        let mut b = ProgBuilder::new("pipe");
        let a = b.input("a", 8);
        let x = b.input("b", 8);
        let s = b.op2(BvOp::Mul, a, x);
        let r1 = b.reg(s, 8);
        let d = b.op2(BvOp::Sub, r1, s);
        let r2 = b.reg(d, 8);
        corpus.push(b.finish(r2));
        corpus.push(registered_chain(6));
        let suite =
            crate::suite::suite_for(lr_arch::ArchName::XilinxUltraScalePlus, [8].into_iter());
        for name in [
            "mul_w8_s2",
            "preadd_mul_add_w8_s3_signed",
            "presub_mul_sub_w8_s2_signed",
            "mul_sub_w8_s1",
        ] {
            let bench = suite.iter().find(|b| b.name == name).expect("a suite design");
            corpus.push(bench.build().saturated());
        }
        let keys: Vec<String> = corpus.iter().map(|spec| key_of(spec).to_string()).collect();
        assert_eq!(
            keys,
            [
                "0561cfde55c60a0487efec60db260a5d",
                "068d9b984a14a888949d709f435a8b92",
                "0589a8d86f959751b046ee3206be8ca5",
                "405a58273bd72b08c6a73723ada6341c",
                "376b56008c6c2d6a30409f6e1867f724",
                "ef298b88ee5c68f87711f6ea86785d06",
                "e424cdf2af1c8cb3e828a58ec8551eda",
                "4ffad7c7543bb455ebee25cec4cc4a24",
                "b7aa706796060f7e78d65c6921d16c08",
                "4d4a8ada492475843eca95d85c18aba1",
            ]
        );
    }

    #[test]
    fn a_deep_register_pipeline_keys_in_linear_time() {
        let (send, receive) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = send.send(spec_fingerprint(&registered_chain(40)));
        });
        // Hashing once per path would take 2^40 steps.
        let fingerprint = receive.recv_timeout(Duration::from_secs(5));
        assert!(fingerprint.is_ok(), "a 40-level chain did not key within 5 s");
    }

    #[test]
    fn register_feedback_hashes_by_shape_not_id() {
        // Two counters built with different id layouts fingerprint equal.
        let counter = |pad: bool| {
            let mut b = ProgBuilder::new("ctr");
            if pad {
                let _ = b.constant_u64(99, 4); // dead node shifts every id
            }
            let r = b.reg_placeholder(8);
            let one = b.constant_u64(1, 8);
            let next = b.op2(BvOp::Add, r, one);
            b.set_reg_data(r, next);
            b.finish(r)
        };
        assert_eq!(spec_fingerprint(&counter(false)), spec_fingerprint(&counter(true)));
    }
}
