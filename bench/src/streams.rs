//! Input generators. Everything a workload feeds the program — keys,
//! deltas, datasets — is made here from the run's seed; the program sees
//! only the generated values.
//!
//! A synthetic workload's input is one [`StepGen`] per worker: an endless,
//! seeded sequence of steps of [`BATCH`] keys, each key with a small
//! integer delta. Steps are drawn as the pass runs (one random word per
//! key), so a pass of any length sees fresh keys throughout instead of
//! cycling a fixed buffer — relocation traffic neither dries up nor
//! depends on how fast the program is. Every pass of a run restarts the
//! generators from the same seed: the timed, traced and virtual-time
//! passes see the same accesses in the same order, and the output check
//! replays them to know what was pushed.

use std::ops::Range;

use nups_core::Key;
use nups_workloads::drift::{DriftConfig, DriftingHotspots};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// Keys per step: one `pull_many` and one `push_many` of this many keys.
pub const BATCH: usize = 8;

/// Largest per-push delta unit; deltas are `1..=MAX_DELTA`.
pub const MAX_DELTA: u8 = 3;

/// Where a workload's keys come from.
#[derive(Clone, Debug)]
pub enum Pattern {
    /// Uniform over `[0, n_keys)`.
    Uniform { n_keys: u64 },
    /// `hot_share` of the accesses to `hot`, the rest uniform over `tail`
    /// (the worker's own node's home range: clustered data).
    Skewed { hot: Vec<Key>, hot_share: f64, tail: Range<Key> },
    /// `hot_share` of the accesses to the current phase's hot set, the rest
    /// uniform over `[0, n_keys)`; the phase advances every
    /// `steps_per_phase` steps and the hot sets rotate.
    Drifting { hot_sets: Vec<Vec<Key>>, hot_share: f64, n_keys: u64, steps_per_phase: usize },
}

impl Pattern {
    /// The hot sets of a [`DriftingHotspots`] workload, rotated every
    /// `cfg.batches_per_phase` steps. Which keys are hot is the program's
    /// generator's choice (disjoint sets striped over the key range); the
    /// draws are the benchmark's own.
    pub fn drifting(cfg: DriftConfig) -> Pattern {
        assert_eq!(cfg.batch, BATCH);
        let gen = DriftingHotspots::new(cfg);
        Pattern::Drifting {
            hot_sets: (0..cfg.phases).map(|p| gen.hot_set(p)).collect(),
            hot_share: cfg.hot_share,
            n_keys: cfg.n_keys,
            steps_per_phase: cfg.batches_per_phase,
        }
    }
}

/// `n_hot` keys striped over the universe, so every node's home range
/// holds some.
pub fn striped_hot_keys(n_keys: u64, n_hot: usize) -> Vec<Key> {
    let stride = n_keys / n_hot as u64;
    (0..n_hot as u64).map(|j| j * stride + stride / 2).collect()
}

/// One step's accesses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Step {
    pub keys: [Key; BATCH],
    /// One delta unit per key, `1..=MAX_DELTA`. The pushed vector is
    /// [`delta_component`] of it: integer-valued, so sums are exact in
    /// `f32` whatever the order.
    pub deltas: [u8; BATCH],
}

/// One worker's seeded step sequence.
pub struct StepGen {
    pattern: Pattern,
    rng: SmallRng,
    step: usize,
}

/// `x` scaled from 32 random bits to `[0, n)`.
#[inline]
fn scale(bits: u32, n: u64) -> u64 {
    (bits as u64 * n) >> 32
}

impl StepGen {
    pub fn new(pattern: Pattern, seed: u64, worker: usize) -> StepGen {
        let seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (worker as u64 + 1).rotate_left(32);
        StepGen { pattern, rng: SmallRng::seed_from_u64(seed), step: 0 }
    }

    /// The next step. One random word per key: 32 bits pick the key, 24
    /// decide hot or cold, 8 pick the delta.
    pub fn next_step(&mut self) -> Step {
        let mut out = Step::default();
        for i in 0..BATCH {
            let word = self.rng.next_u64();
            let pick = word as u32;
            let is_hot =
                |share: f64| ((word >> 32) & 0xFF_FFFF) < (share * (1u64 << 24) as f64) as u64;
            out.keys[i] = match &self.pattern {
                Pattern::Uniform { n_keys } => scale(pick, *n_keys),
                Pattern::Skewed { hot, hot_share, tail } => {
                    if is_hot(*hot_share) {
                        hot[scale(pick, hot.len() as u64) as usize]
                    } else {
                        tail.start + scale(pick, tail.end - tail.start)
                    }
                }
                Pattern::Drifting { hot_sets, hot_share, n_keys, steps_per_phase } => {
                    if is_hot(*hot_share) {
                        let hot = &hot_sets[self.step / steps_per_phase % hot_sets.len()];
                        hot[scale(pick, hot.len() as u64) as usize]
                    } else {
                        scale(pick, *n_keys)
                    }
                }
            };
            out.deltas[i] = 1 + ((word >> 56) as u8) % MAX_DELTA;
        }
        self.step += 1;
        out
    }
}

/// Add the delta units the first `n_steps` steps of `(pattern, seed,
/// worker)` push into `sums`, one slot per key.
pub fn add_pushed(pattern: &Pattern, seed: u64, worker: usize, n_steps: usize, sums: &mut [u64]) {
    let mut gen = StepGen::new(pattern.clone(), seed, worker);
    for _ in 0..n_steps {
        let step = gen.next_step();
        for (&k, &d) in step.keys.iter().zip(&step.deltas) {
            sums[k as usize] += d as u64;
        }
    }
}

/// Component `j` of the delta vector for unit `d`: `d` at even positions,
/// `2d` at odd ones, so a check that compares whole values also catches a
/// component applied to the wrong position.
#[inline]
pub fn delta_component(d: u8, j: usize) -> f32 {
    (d as u32 * (1 + (j as u32 & 1))) as f32
}

/// Initial value of every component of `key`.
#[inline]
pub fn init_component(key: Key) -> f32 {
    (key % 97) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterns() -> [Pattern; 3] {
        [
            Pattern::Uniform { n_keys: 4096 },
            Pattern::Skewed { hot: striped_hot_keys(4096, 8), hot_share: 0.9, tail: 2048..4096 },
            Pattern::drifting(DriftConfig {
                n_keys: 4096,
                hot_keys: 4,
                hot_share: 0.9,
                phases: 3,
                batches_per_phase: 16,
                batch: BATCH,
                seed: 0,
            }),
        ]
    }

    fn steps(p: &Pattern, seed: u64, worker: usize, n: usize) -> Vec<Step> {
        let mut g = StepGen::new(p.clone(), seed, worker);
        (0..n).map(|_| g.next_step()).collect()
    }

    #[test]
    fn generators_repeat_per_seed_and_differ_across_seeds_and_workers() {
        for (i, p) in patterns().iter().enumerate() {
            let a = steps(p, 7, 0, 48);
            assert_eq!(a, steps(p, 7, 0, 48), "pattern {i} must replay for the same seed");
            assert_ne!(a, steps(p, 8, 0, 48), "pattern {i}: another seed, other steps");
            assert_ne!(a, steps(p, 7, 1, 48), "pattern {i}: another worker, other steps");
            for s in &a {
                assert!(s.keys.iter().all(|&k| k < 4096));
                assert!(s.deltas.iter().all(|d| (1..=MAX_DELTA).contains(d)));
            }
            // A longer run starts with the shorter one: passes of different
            // lengths see the same prefix.
            assert_eq!(steps(p, 7, 0, 96)[..48], a[..]);
        }
    }

    #[test]
    fn skewed_keeps_the_tail_at_home_and_the_hot_share_high() {
        let hot = striped_hot_keys(4096, 8);
        let p = Pattern::Skewed { hot: hot.clone(), hot_share: 0.9, tail: 2048..4096 };
        let keys: Vec<Key> = steps(&p, 3, 1, 512).iter().flat_map(|s| s.keys).collect();
        let share = keys.iter().filter(|k| hot.contains(k)).count() as f64 / keys.len() as f64;
        assert!((0.87..0.93).contains(&share), "hot share {share}");
        assert!(keys.iter().all(|k| hot.contains(k) || (2048..4096).contains(k)));
        assert!(hot.iter().any(|&k| k < 2048) && hot.iter().any(|&k| k >= 2048));
        // Every hot key and both ends of the tail are reachable.
        assert!(hot.iter().all(|h| keys.contains(h)));
        assert!(keys.iter().any(|&k| (2048..2100).contains(&k)));
        assert!(keys.iter().any(|&k| (4040..4096).contains(&k)));
    }

    #[test]
    fn drifting_rotates_disjoint_hot_sets_every_phase() {
        let p = &patterns()[2];
        let Pattern::Drifting { hot_sets, steps_per_phase, .. } = p else { unreachable!() };
        let all = steps(p, 5, 0, 4 * steps_per_phase);
        for (phase, chunk) in all.chunks(*steps_per_phase).enumerate() {
            let hot = &hot_sets[phase % hot_sets.len()];
            let keys: Vec<Key> = chunk.iter().flat_map(|s| s.keys).collect();
            let share = keys.iter().filter(|k| hot.contains(k)).count() as f64 / keys.len() as f64;
            assert!(share > 0.8, "phase {phase}: hot share {share}");
        }
        assert!(hot_sets[0].iter().all(|k| !hot_sets[1].contains(k)));
    }

    #[test]
    fn pushed_sums_are_a_replay_of_the_generator() {
        let p = &patterns()[0];
        let mut by_hand = vec![0u64; 4096];
        for s in steps(p, 1, 0, 100) {
            for (&k, &d) in s.keys.iter().zip(&s.deltas) {
                by_hand[k as usize] += d as u64;
            }
        }
        let mut replayed = vec![0u64; 4096];
        add_pushed(p, 1, 0, 100, &mut replayed);
        assert_eq!(by_hand, replayed);
        assert_eq!(replayed.iter().sum::<u64>(), by_hand.iter().sum::<u64>());
    }

    #[test]
    fn delta_vectors_are_small_integers() {
        assert_eq!(delta_component(3, 0), 3.0);
        assert_eq!(delta_component(3, 1), 6.0);
        assert_eq!(delta_component(1, 15), 2.0);
        assert_eq!(init_component(98), 1.0);
    }
}
