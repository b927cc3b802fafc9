//! Host-speed calibration.
//!
//! The benchmark's host is a few vCPUs of a shared machine whose speed moves
//! by a fifth or more from one minute to the next as its neighbours load it,
//! and every CPU-bound stage of a run moves with it alike. Before every unit
//! of work the benchmark times a fixed reference kernel that uses nothing of
//! the program (a random walk over a table larger than the L2 cache, hash map
//! updates, a sort: the access patterns of the solver and the e-graph), and
//! scales the run's CPU-bound timings by [`REFERENCE_S`] over the kernel's
//! median time in the run, so they read as wall times at the reference
//! speed. A change to the program moves the timings and not the kernel, so it
//! shows in full; a change of host speed moves both, and cancels.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::{median, Rng};

/// The kernel's typical median time in a run on the reference container
/// (2 vCPUs, x86-64, release build).
pub const REFERENCE_S: f64 = 0.018;

/// Kernel runs per calibration, about a tenth of a second in all.
const RUNS: usize = 5;

/// Entries of the random-walk table (4 MiB of `u32`).
const TABLE: usize = 1 << 20;

/// A fixed mix of the kind of work the synthesis stack does.
fn kernel() -> u64 {
    let mut rng = Rng::new(0x5EED_CA11);
    // Sattolo's shuffle: one cycle through the whole table, so the walk
    // misses the cache at every step.
    let mut next: Vec<u32> = (0..TABLE as u32).collect();
    for i in (1..TABLE).rev() {
        next.swap(i, rng.below(i as u64) as usize);
    }
    let mut at = 0u32;
    let mut acc = 0u64;
    for _ in 0..TABLE / 4 {
        at = next[at as usize];
        acc = acc.wrapping_add(u64::from(at));
    }
    // A fixed hasher: the default one is keyed at random per map, which
    // would change the probing from run to run.
    let mut counts: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut keys = Vec::new();
    for _ in 0..40_000 {
        let key = rng.next_u64() & 0x3FFF;
        *counts.entry(key).or_insert(0) += 1;
        keys.push(key);
    }
    keys.sort_unstable();
    for &key in &keys {
        let n = counts[&key];
        acc = if n & 1 == 1 { acc.rotate_left(5) ^ key } else { acc.wrapping_add(key * n) };
    }
    black_box(acc)
}

/// Times [`RUNS`] runs of the kernel, in seconds each.
pub fn sample() -> impl Iterator<Item = f64> {
    (0..RUNS).map(|_| {
        let t0 = Instant::now();
        black_box(kernel());
        t0.elapsed().as_secs_f64()
    })
}

/// The factor that turns the run's wall times into times at the reference
/// speed, from the kernel times sampled across the run.
pub fn speed(kernel_s: &[f64]) -> f64 {
    REFERENCE_S / median(kernel_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_does_the_same_work_every_run() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn speed_is_one_at_the_reference() {
        assert_eq!(speed(&[REFERENCE_S / 2.0, REFERENCE_S, REFERENCE_S * 3.0]), 1.0);
        assert_eq!(speed(&[REFERENCE_S * 2.0]), 0.5);
    }
}
