//! Growth of the Verilog frontend with design size: `parse_and_elaborate` and
//! `emit_verilog` on chains of 1k, 4k and 16k `assign`s. A stage whose cost is
//! linear in design size takes roughly four times as long per fourfold step
//! in length; a quadratic one takes sixteen.

use criterion::{criterion_group, criterion_main, Criterion};
use lr_hdl::fuzz::assign_chain;
use lr_hdl::{emit_verilog, parse_and_elaborate};

fn bench_frontend(c: &mut Criterion) {
    let mut group = c.benchmark_group("frontend");
    group.sample_size(10);
    for len in [1_000, 4_000, 16_000] {
        let text = assign_chain(len);
        let prog = parse_and_elaborate(&text).expect("chain elaborates");
        group.bench_function(&format!("parse_and_elaborate_{len}"), |b| {
            b.iter(|| std::hint::black_box(parse_and_elaborate(&text).expect("chain elaborates")))
        });
        group.bench_function(&format!("emit_verilog_{len}"), |b| {
            b.iter(|| std::hint::black_box(emit_verilog(&prog)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_frontend);
criterion_main!(benches);
