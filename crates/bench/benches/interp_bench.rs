//! B3: micro-benchmarks of the ℒlr interpreter on the DSP48E2 primitive model:
//! tracing its schedule on concrete inputs, and walking it into a solver term
//! with every input symbolic (the verification step's shape) or with the
//! inputs bound (the synthesis step's).

use std::collections::BTreeMap;

use criterion::{criterion_group, criterion_main, Criterion};
use lr_arch::primitives::semantics;
use lr_bv::BitVec;
use lr_ir::StreamInputs;

fn dsp_env() -> StreamInputs {
    StreamInputs::from_constants(
        [
            ("A", 3u64, 30u32),
            ("B", 5, 18),
            ("C", 100, 48),
            ("D", 7, 27),
            ("CARRYIN", 0, 1),
            ("INMODE", 0, 5),
            ("OPMODE", 0b0_011_00_01, 9),
            ("ALUMODE", 0, 4),
            ("AREG", 1, 1),
            ("BREG", 1, 1),
            ("CREG", 1, 1),
            ("DREG", 1, 1),
            ("ADREG", 0, 1),
            ("MREG", 1, 1),
            ("PREG", 1, 1),
            ("AMULTSEL", 1, 1),
        ]
        .into_iter()
        .map(|(n, v, w)| (n.to_string(), BitVec::from_u64(v, w))),
    )
}

fn bench_interp(c: &mut Criterion) {
    let prog = semantics("DSP48E2").expect("DSP48E2 has a model");
    let env = dsp_env();
    let mut group = c.benchmark_group("interp");
    group.bench_function("dsp48e2_cycle0", |b| {
        b.iter(|| std::hint::black_box(prog.interp(&env, 0).unwrap()))
    });
    group.bench_function("dsp48e2_cycle5", |b| {
        b.iter(|| std::hint::black_box(prog.interp(&env, 5).unwrap()))
    });
    let schedule = prog.schedule().expect("the model is well-formed");
    let (symbolic, no_holes) = (StreamInputs::new(), BTreeMap::new());
    group.bench_function("dsp48e2_symbolic_cycle2", |b| {
        b.iter(|| {
            let mut pool = lr_smt::TermPool::new();
            std::hint::black_box(schedule.term(&mut pool, 2, &symbolic, &no_holes))
        })
    });
    group.bench_function("dsp48e2_bound_inputs_cycle2", |b| {
        b.iter(|| {
            let mut pool = lr_smt::TermPool::new();
            std::hint::black_box(schedule.term(&mut pool, 2, &env, &no_holes))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_interp);
criterion_main!(benches);
