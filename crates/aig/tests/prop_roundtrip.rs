//! Property tests for the structural frontend: every randomly generated AIG
//! must survive the format round-trips byte-exactly or behavior-exactly, the
//! ℒlr conversion must agree with direct bit-level simulation, and truncated
//! binary streams must never parse.

use lr_aig::{parse_aag, parse_aig_binary, random_aig, AigError, GenConfig};
use lr_bv::{BitVec, Rng};
use lr_ir::StreamInputs;
use proptest::prelude::*;

const CYCLES: usize = 5;

fn shape(inputs: u32, latches: u32, ands: u32, outputs: u32) -> GenConfig {
    GenConfig { inputs, latches, ands, outputs }
}

/// Deterministic stimulus from a seed, one bool vector per cycle.
fn stimulus(seed: u64, inputs: usize) -> Vec<Vec<bool>> {
    let mut rng = Rng::new(seed);
    (0..CYCLES).map(|_| (0..inputs).map(|_| rng.bool()).collect()).collect()
}

prop_compose! {
    fn aig_shape()(
        seed in 0u64..1 << 48,
        inputs in 1u32..10,
        latches in 0u32..5,
        ands in 1u32..300,
        outputs in 1u32..7,
        stim_seed in 0u64..1 << 48,
    ) -> (u64, GenConfig, u64) {
        (seed, shape(inputs, latches, ands, outputs), stim_seed)
    }
}

proptest! {
    /// parse(write(aig)) is structurally identical for ASCII AIGER: the
    /// generator emits canonical numbering and the parser re-derives it.
    #[test]
    fn ascii_round_trip_is_exact((seed, config, _) in aig_shape()) {
        let aig = random_aig(seed, &config);
        let again = parse_aag(&aig.to_aag()).unwrap().with_name(aig.name());
        prop_assert_eq!(aig, again);
    }

    /// The binary and ASCII writers agree behaviorally: both round-trips
    /// simulate identically on random stimulus (the binary writer may renumber
    /// gates, so structural equality is not required).
    #[test]
    fn binary_and_ascii_agree((seed, config, stim_seed) in aig_shape()) {
        let aig = random_aig(seed, &config);
        let stim = stimulus(stim_seed, aig.num_inputs());
        let from_ascii = parse_aag(&aig.to_aag()).unwrap();
        let from_binary = parse_aig_binary(&aig.to_aig_binary()).unwrap();
        prop_assert_eq!(from_ascii.simulate(&stim), aig.simulate(&stim));
        prop_assert_eq!(from_binary.simulate(&stim), aig.simulate(&stim));
    }

    /// parse → Prog → interpret matches direct AIG simulation cycle-for-cycle,
    /// latches included.
    #[test]
    fn prog_interpretation_matches_simulation((seed, config, stim_seed) in aig_shape()) {
        let aig = parse_aag(&random_aig(seed, &config).to_aag()).unwrap();
        let prog = aig.to_prog();
        prop_assert!(prog.well_formed().is_ok());
        let stim = stimulus(stim_seed, aig.num_inputs());
        let expected = aig.simulate(&stim);
        let mut env = StreamInputs::new();
        for (i, name) in aig.input_names().iter().enumerate() {
            let trace = stim.iter().map(|s| BitVec::from_u64(u64::from(s[i]), 1)).collect();
            env.set_trace(name.clone(), trace);
        }
        let got = prog.interp_trace(&env, CYCLES as u32 - 1).unwrap();
        for (t, want) in expected.iter().enumerate() {
            for (bit, &want_bit) in want.iter().enumerate() {
                prop_assert_eq!(got[t].bit(bit as u32), want_bit, "cycle {} output {}", t, bit);
            }
        }
    }

    /// Any truncation inside the delta-compressed AND section is rejected —
    /// never silently parsed as a smaller netlist.
    #[test]
    fn truncated_binary_never_parses((seed, config, cut_seed) in aig_shape()) {
        let aig = random_aig(seed, &config);
        let bytes = aig.to_aig_binary();
        // The symbol table trails the delta stream; everything before it is
        // header + latch/output lines + exactly the delta bytes.
        let symbols: usize = aig
            .input_names()
            .iter()
            .enumerate()
            .map(|(k, n)| format!("i{k} {n}\n").len())
            .sum::<usize>()
            + aig
                .outputs()
                .iter()
                .enumerate()
                .map(|(k, o)| format!("o{k} {}\n", o.name).len())
                .sum::<usize>();
        let delta_end = bytes.len() - symbols;
        // Each of the 2A deltas is at least one byte, so this cut always lands
        // in (or at the start of) the delta stream.
        let span = (2 * aig.num_ands()).min(delta_end);
        let cut = delta_end - 1 - (cut_seed as usize % span);
        let err = parse_aig_binary(&bytes[..cut]).unwrap_err();
        prop_assert!(
            matches!(err, AigError::Truncated(_)),
            "cut at {} of {} gave {:?}", cut, bytes.len(), err
        );
    }
}
