//! Cache-key soundness.
//!
//! The content-addressed cache is only sound if (1) keys are *stable* — the
//! same spec always addresses the same entry, across saturations and across
//! processes — and (2) hits are *verified* — a replayed program is checked
//! against the requesting spec before it is served, so a colliding or stale
//! entry can never produce a wrong mapping. The properties here pin both down
//! over randomly generated well-formed programs and over adversarially
//! poisoned cache entries.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use lakeroad::cache::spec_fingerprint;
use lakeroad::{map_design, CacheKey, CachedOutcome, MapCache, MapConfig, Template};
use lr_arch::Architecture;
use lr_bv::BitVec;
use lr_egraph::{Limits, StopReason};
use lr_ir::{BvOp, Node, Prog, ProgBuilder};
use lr_serve::{random_program, SynthCache};
use proptest::prelude::*;

/// Wraps a program's root in an algebraic disguise that saturation removes:
/// `root + 0`, `-(-root)`, or `root - (x - x)` over a fresh use of an input.
fn disguise(prog: &Prog, variant: usize) -> Prog {
    let width = prog.width(prog.root());
    // Rebuild the program node-for-node on top of a fresh builder, then wrap.
    let mut b = ProgBuilder::with_base_id(prog.name(), prog.max_id().map(|m| m + 1).unwrap_or(0));
    let mut remap: BTreeMap<lr_ir::NodeId, lr_ir::NodeId> = BTreeMap::new();
    // The builder refuses foreign ids, so re-add every node in ascending id
    // order (operands of builder-shaped programs precede their users, except
    // register feedback, which is patched afterwards).
    let mut reg_patches = Vec::new();
    for (id, node) in prog.nodes() {
        let new = match node {
            Node::BV(bv) => b.constant(bv.clone()),
            Node::Var { name, width } => b.input(name, *width),
            Node::Op(op, args) => {
                let args: Vec<_> = args.iter().map(|a| remap[a]).collect();
                match args.len() {
                    1 => b.op1(*op, args[0]),
                    2 => b.op2(*op, args[0], args[1]),
                    _ => b.op3(*op, args[0], args[1], args[2]),
                }
            }
            Node::Reg { data, init } => {
                let reg = b.reg_placeholder(init.width());
                reg_patches.push((reg, *data));
                reg
            }
            Node::Prim(_) | Node::Hole { .. } => unreachable!("generator emits behavioral nodes"),
        };
        remap.insert(id, new);
    }
    for (reg, data) in reg_patches {
        b.set_reg_data(reg, remap[&data]);
    }
    let root = remap[&prog.root()];
    let out = match variant % 3 {
        0 => {
            let zero = b.constant(BitVec::zeros(width));
            b.op2(BvOp::Add, root, zero)
        }
        1 => {
            let neg = b.op1(BvOp::Neg, root);
            b.op1(BvOp::Neg, neg)
        }
        _ => {
            // Reuse the rebuilt `a` input node rather than adding a duplicate.
            let a = *remap
                .iter()
                .find_map(|(old, new)| match prog.node(*old) {
                    Some(Node::Var { name, .. }) if name == "a" => Some(new),
                    _ => None,
                })
                .expect("generated programs always declare input a");
            let ama = b.op2(BvOp::Sub, a, a);
            let z = if width == 8 { ama } else { b.op1(BvOp::ZeroExt { width }, ama) };
            b.op2(BvOp::Sub, root, z)
        }
    };
    b.finish(out)
}

fn key_for(spec: &Prog) -> CacheKey {
    CacheKey::for_mapping(spec, &Architecture::intel_cyclone10lp(), Template::Dsp)
}

/// A budget tight enough to keep 24 random saturations in CI time. Key
/// *stability* must hold under any fixed limits (the runner is deterministic);
/// the canonical-form *convergence* property additionally rejects runs that
/// stopped on a limit.
const LIMITS: Limits = Limits { max_iterations: 10, max_nodes: 2_500 };

fn saturated(prog: &Prog) -> (Prog, StopReason) {
    let outcome = prog.saturated_with_stats(&LIMITS);
    (outcome.prog, outcome.stats.stop)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Key stability: saturating the same program twice — two independent
    /// e-graphs — must yield the same fingerprint, and re-saturating the
    /// canonical form must be a fixpoint for the key.
    #[test]
    fn keys_are_stable_across_independent_saturations(
        seed in 0u64..=u64::MAX,
        len in 1usize..9,
    ) {
        let prog = random_program(seed, "p", len);
        let (canon1, _) = saturated(&prog);
        let (canon2, _) = saturated(&prog);
        let (k1, k2) = (key_for(&canon1), key_for(&canon2));
        prop_assert_eq!(k1, k2, "two saturations of one spec disagree");
        let (recanon, stop) = saturated(&canon1);
        // A limit-stopped first pass may leave rewriting headroom; only a truly
        // saturated form owes key idempotence.
        if stop == StopReason::Saturated {
            prop_assert_eq!(k1, key_for(&recanon), "saturation is not a key fixpoint");
        }
    }

    /// The same stability property over the HDL fuzz population: elaborated
    /// mini-Verilog designs (mixed widths, shifts, selects, registers) are a
    /// far rougher key surface than the straight-line generator above.
    #[test]
    fn fuzz_population_keys_are_stable(seed in 0u64..=u64::MAX) {
        let src = lr_hdl::fuzz::generate_module(seed);
        let prog = lr_hdl::parse_and_elaborate(&src)
            .expect("fuzz modules elaborate by construction");
        let (canon1, _) = saturated(&prog);
        let (canon2, _) = saturated(&prog);
        prop_assert_eq!(key_for(&canon1), key_for(&canon2), "two saturations disagree");
    }

    /// Semantically-identical specs that saturate to the same canonical form
    /// share one cache entry: an algebraically disguised copy of a random
    /// program fingerprints identically after canonicalization.
    #[test]
    fn disguised_specs_share_a_key(
        seed in 0u64..=u64::MAX,
        len in 1usize..9,
        variant in 0usize..3,
    ) {
        let prog = random_program(seed, "p", len);
        let disguised = disguise(&prog, variant);
        let (base, base_stop) = saturated(&prog);
        let (wrapped, wrapped_stop) = saturated(&disguised);
        // The claim is conditional on both runs truly saturating: a run that
        // stopped on a node/iteration limit explored rule-application-order-
        // dependent subsets and owes no canonical form.
        if base_stop != StopReason::Saturated || wrapped_stop != StopReason::Saturated {
            return Err(proptest::TestCaseError::reject("saturation hit a limit"));
        }
        prop_assert_eq!(
            spec_fingerprint(&base),
            spec_fingerprint(&wrapped),
            "disguise changed the canonical fingerprint"
        );
        prop_assert_eq!(key_for(&base), key_for(&wrapped));
    }
}

/// End to end: mapping a disguised twin of a cached spec is served from the
/// twin's entry, and the replayed implementation is verified against the
/// *requesting* spec.
#[test]
fn disguised_twin_is_served_from_one_entry_with_a_verified_replay() {
    let mut b = ProgBuilder::new("mul_plain");
    let a = b.input("a", 8);
    let x = b.input("b", 8);
    let out = b.op2(BvOp::Mul, a, x);
    let plain = b.finish(out);

    // 0 − (a · (0 − b)) ≡ a · b.
    let mut b = ProgBuilder::new("mul_disguised");
    let a = b.input("a", 8);
    let x = b.input("b", 8);
    let zero = b.constant_u64(0, 8);
    let nb = b.op2(BvOp::Sub, zero, x);
    let prod = b.op2(BvOp::Mul, a, nb);
    let out = b.op2(BvOp::Sub, zero, prod);
    let disguised = b.finish(out);

    let arch = Architecture::intel_cyclone10lp();
    let cache = Arc::new(SynthCache::new());
    let shared: Arc<dyn MapCache> = Arc::<SynthCache>::clone(&cache);
    let config =
        MapConfig::single_solver().with_timeout(Duration::from_secs(30)).with_cache(shared);

    let first = map_design(&plain, Template::Dsp, &arch, &config).unwrap();
    assert!(first.is_success() && !first.served_from_cache());
    let second = map_design(&disguised, Template::Dsp, &arch, &config).unwrap();
    assert!(second.served_from_cache(), "canonical twin must hit the shared entry");
    let mapped = second.success().unwrap();
    assert!(mapped.stats.from_cache);
    assert_eq!(mapped.stats.iterations, 0);
    assert!(mapped.resources.is_single_dsp());
    // The replay was verified against the *disguised* spec; cross-check again.
    for (av, bv) in [(0u64, 0u64), (3, 5), (255, 254), (17, 200)] {
        let env = lr_ir::StreamInputs::from_constants([
            ("a".to_string(), BitVec::from_u64(av, 8)),
            ("b".to_string(), BitVec::from_u64(bv, 8)),
        ]);
        assert_eq!(
            disguised.interp(&env, 0).unwrap(),
            mapped.implementation.interp(&env, 0).unwrap(),
        );
    }
    let snap = cache.snapshot();
    assert_eq!(snap.stores, 1, "one canonical entry serves both spellings");
    assert_eq!(snap.hits, 1);
    assert_eq!(cache.len(), 1);
}

/// A stored verdict does not depend on the budget it was found under (a
/// success is re-verified on replay, an UNSAT is a proof, and timeouts are
/// never stored), so it is served under a budget clamped by a deadline or the
/// auto-template loop and under a larger one alike.
#[test]
fn a_verdict_stored_under_one_budget_is_served_under_any_other() {
    let mut b = ProgBuilder::new("mul_budget");
    let a = b.input("a", 8);
    let x = b.input("b", 8);
    let out = b.op2(BvOp::Mul, a, x);
    let spec = b.finish(out);

    let arch = Architecture::intel_cyclone10lp();
    let cache = Arc::new(SynthCache::new());
    let shared: Arc<dyn MapCache> = Arc::<SynthCache>::clone(&cache);
    let stored =
        MapConfig::single_solver().with_timeout(Duration::from_secs(15)).with_cache(shared);
    assert!(map_design(&spec, Template::Dsp, &arch, &stored).unwrap().is_success());
    for budget in [2, 120] {
        let config = stored.clone().with_timeout(Duration::from_secs(budget));
        let served = map_design(&spec, Template::Dsp, &arch, &config).unwrap();
        assert!(served.served_from_cache(), "a {budget} s budget missed the stored verdict");
    }
    let snap = cache.snapshot();
    assert_eq!((snap.stores, snap.hits), (1, 2));
}

/// A poisoned entry — a stored hole assignment that no longer implements the
/// spec — must fail replay verification, be invalidated, and fall back to real
/// synthesis with a correct result.
#[test]
fn stale_entries_fail_verification_and_fall_back_to_synthesis() {
    let mut b = ProgBuilder::new("add5");
    let a = b.input("a", 8);
    let x = b.input("b", 8);
    let out = b.op2(BvOp::Mul, a, x);
    let spec = b.finish(out);

    let arch = Architecture::intel_cyclone10lp();
    let cache = Arc::new(SynthCache::new());
    let shared: Arc<dyn MapCache> = Arc::<SynthCache>::clone(&cache);
    let config =
        MapConfig::single_solver().with_timeout(Duration::from_secs(30)).with_cache(shared);

    // Synthesize once to learn the real key and hole names…
    let honest = map_design(&spec, Template::Dsp, &arch, &config).unwrap();
    assert!(honest.is_success());
    let (key, stored) = cache.entries().into_iter().next().unwrap();
    let CachedOutcome::Success { holes } = stored else {
        panic!("successful mapping must store a success entry")
    };
    // …then poison the entry: flip a port-selection hole to a wrong-but-in-
    // domain value, so replay type-checks yet computes the wrong function.
    let mut poisoned = holes.clone();
    let victim = poisoned
        .iter()
        .find(|(name, _)| name.ends_with("A_SEL") || name.ends_with("B_SEL"))
        .map(|(name, value)| (name.clone(), value.clone()))
        .expect("DSP entries carry selection holes");
    let flipped = if victim.1 == BitVec::from_u64(1, victim.1.width()) {
        BitVec::from_u64(0, victim.1.width())
    } else {
        BitVec::from_u64(1, victim.1.width())
    };
    poisoned.insert(victim.0, flipped);
    cache.store(key, CachedOutcome::Success { holes: poisoned });

    let served = map_design(&spec, Template::Dsp, &arch, &config).unwrap();
    let mapped = served.success().expect("fallback synthesis must succeed");
    assert!(!mapped.stats.from_cache, "a failed replay must not be served");
    for (av, bv) in [(3u64, 5u64), (255, 254)] {
        let env = lr_ir::StreamInputs::from_constants([
            ("a".to_string(), BitVec::from_u64(av, 8)),
            ("b".to_string(), BitVec::from_u64(bv, 8)),
        ]);
        assert_eq!(spec.interp(&env, 0).unwrap(), mapped.implementation.interp(&env, 0).unwrap(),);
    }
    let snap = cache.snapshot();
    assert_eq!(snap.invalidations, 1, "the poisoned entry must be dropped");
    // The fallback re-stored an honest entry under the same key; a fresh
    // lookup now replays successfully.
    let replayed = map_design(&spec, Template::Dsp, &arch, &config).unwrap();
    assert!(replayed.served_from_cache());
}

/// Replay checks a cone-sized entry on every input assignment: an INIT wrong
/// on exactly one of a 4-leaf cone's 16 inputs is rejected, invalidated and
/// resynthesized whichever input it is, including the ones that a fixed set
/// of pseudorandom replay rounds never draws.
#[test]
fn small_entries_wrong_on_one_input_are_rejected() {
    // (x0 & x1) & !(x2 & x3): one bit over four one-bit leaves.
    let mut b = ProgBuilder::new("cone");
    let x: Vec<_> = (0..4).map(|i| b.input(&format!("x{i}"), 1)).collect();
    let lo = b.op2(BvOp::And, x[0], x[1]);
    let hi = b.op2(BvOp::And, x[2], x[3]);
    let not_hi = b.op1(BvOp::Not, hi);
    let out = b.op2(BvOp::And, lo, not_hi);
    let spec = b.finish(out);

    let arch = Architecture::intel_cyclone10lp();
    let cache = Arc::new(SynthCache::new());
    let shared: Arc<dyn MapCache> = Arc::<SynthCache>::clone(&cache);
    let config =
        MapConfig::single_solver().with_timeout(Duration::from_secs(30)).with_cache(shared);
    assert!(map_design(&spec, Template::Bitwise, &arch, &config).unwrap().is_success());
    let (key, stored) = cache.entries().into_iter().next().unwrap();
    let CachedOutcome::Success { holes } = stored else {
        panic!("successful mapping must store a success entry")
    };
    let init = &holes["lut0.INIT"];
    assert_eq!(init.width(), 16, "one LUT4 address per cone input");

    for address in 0..16 {
        // Each INIT bit is the LUT's output on one input assignment.
        let mut poisoned = holes.clone();
        poisoned.insert("lut0.INIT".into(), init.with_bit(address, !init.bit(address)));
        cache.store(key, CachedOutcome::Success { holes: poisoned });
        let before = cache.snapshot();
        let mapped = map_design(&spec, Template::Bitwise, &arch, &config)
            .unwrap()
            .success()
            .expect("fallback synthesis must succeed");
        assert!(!mapped.stats.from_cache, "an INIT wrong at address {address} was served");
        assert_eq!(before.delta(&cache.snapshot()).invalidations, 1);
        for value in 0..16u64 {
            let env = lr_ir::StreamInputs::from_constants(
                (0..4).map(|i| (format!("x{i}"), BitVec::from_u64(value >> i, 1))),
            );
            assert_eq!(spec.interp(&env, 0), mapped.implementation.interp(&env, 0));
        }
    }
}
