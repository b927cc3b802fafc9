//! The workspace's one seeded pseudorandom generator.

/// A deterministic xorshift64* generator: the same seed always yields the same
/// stream, so any fuzzed design, generated netlist, synthetic batch or replay
/// stimulus is reproducible from a single `u64`. Not statistically fancy —
/// its users need diversity and reproducibility, not cryptographic quality.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Seeds the generator. Zero is xorshift's fixed point (every draw would
    /// be 0), so it is remapped to a fixed odd constant.
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng { state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed } }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut s = self.state;
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        self.state = s;
        s.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A value in `0..bound` (`bound` must be non-zero).
    ///
    /// Uses Lemire's widening-multiply reduction rather than `% bound`: the
    /// modulo mapping over-weights the low residues whenever `2^64` is not a
    /// multiple of `bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `percent`/100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// A fair coin: the low bit of the next draw.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_seed_is_remapped() {
        assert_ne!(Rng::new(0).next_u64(), 0);
    }

    #[test]
    fn below_is_unbiased_and_in_range() {
        for seed in [7, 99] {
            let mut rng = Rng::new(seed);
            let mut counts = [0u32; 3];
            for _ in 0..3000 {
                let v = rng.below(3);
                assert!(v < 3);
                counts[v as usize] += 1;
            }
            for c in counts {
                // Loose uniformity bound: each bucket within ±30% of the mean.
                assert!((700..=1300).contains(&c), "seed {seed}: skewed bucket counts {counts:?}");
            }
        }
    }

    #[test]
    fn range_and_chance_stay_in_bounds() {
        let mut rng = Rng::new(3);
        for _ in 0..1000 {
            assert!((5..=9).contains(&rng.range(5, 9)));
        }
        assert!((0..1000).all(|_| !rng.chance(0)));
        assert!((0..1000).all(|_| rng.chance(100)));
    }

    #[test]
    fn the_stream_is_pinned() {
        // Committed fixtures and fuzz seeds replay this exact stream.
        let mut rng = Rng::new(1);
        assert_eq!(rng.next_u64(), 0xbafa_cf62_4f01_c45d);
    }
}
