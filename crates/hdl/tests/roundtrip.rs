//! Round-trip closure of the frontend/backend pair: for any design we can
//! elaborate, `emit_verilog` must produce source that re-parses and
//! re-elaborates to an interpretation-equivalent program.
//!
//! Coverage comes from three directions: the frozen fuzz counterexamples under
//! `fixtures/`, a sweep of the seeded fuzz generator, and every §5.1
//! microbenchmark design (emitted from IR rather than parsed, so this is the
//! emit-side half of the loop over realistic DSP-shaped programs).

use lr_hdl::{check_seed, emit_verilog, parse_and_elaborate};
use lr_ir::interp_equivalent;

const FIXTURES: &[(&str, &str)] = &[
    ("reg_data_forward_ref", include_str!("fixtures/reg_data_forward_ref.v")),
    ("wide_zext_padding", include_str!("fixtures/wide_zext_padding.v")),
    ("shift_keeps_left_width", include_str!("fixtures/shift_keeps_left_width.v")),
    ("arith_shift_unsigned", include_str!("fixtures/arith_shift_unsigned.v")),
    ("sized_literal_boundary", include_str!("fixtures/sized_literal_boundary.v")),
    ("signal_dependent_resize", include_str!("fixtures/signal_dependent_resize.v")),
];

fn assert_roundtrip(name: &str, spec: &lr_ir::Prog, cycles: u32) {
    let emitted = emit_verilog(spec);
    let reparsed = parse_and_elaborate(&emitted).unwrap_or_else(|e| {
        panic!("{name}: emitted Verilog failed to re-elaborate: {e}\n{emitted}")
    });
    interp_equivalent(spec, &reparsed, 0xF1A7_C0DE, 16, 0, cycles)
        .unwrap_or_else(|e| panic!("{name}: round-trip mismatch: {e}\n{emitted}"));
}

#[test]
fn frozen_fixtures_round_trip() {
    for (name, src) in FIXTURES {
        let spec =
            parse_and_elaborate(src).unwrap_or_else(|e| panic!("{name}: failed to elaborate: {e}"));
        assert_roundtrip(name, &spec, 4);
    }
}

#[test]
fn fuzz_sweep_round_trips() {
    for seed in 0..300 {
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
fn suite_designs_round_trip() {
    use lakeroad::suite::{suite_for, FULL_WIDTHS};
    use lr_arch::ArchName;
    let mut checked = 0usize;
    for arch in [ArchName::XilinxUltraScalePlus, ArchName::LatticeEcp5, ArchName::IntelCyclone10Lp]
    {
        for mb in suite_for(arch, FULL_WIDTHS) {
            let spec = mb.build();
            assert_roundtrip(&mb.name, &spec, mb.stages + 1);
            checked += 1;
        }
    }
    assert!(checked >= 1000, "suite unexpectedly small: {checked} designs");
}
