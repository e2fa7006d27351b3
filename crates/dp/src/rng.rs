//! Deterministic randomness for reproducible experiments.
//!
//! Every mechanism in this workspace draws from a [`DpRng`] seeded
//! explicitly, so any experiment row can be regenerated bit-for-bit. The
//! generator is the vendored `rand` stand-in's `StdRng`, which is
//! xoshiro256++: adequate for simulation, but a linear generator whose
//! state follows from a few outputs, so not a noise source a deployed
//! service should rest on. Replacing it with a keyed counter-based
//! generator is ROADMAP item 3.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The workspace's seedable RNG.
#[derive(Debug, Clone)]
pub struct DpRng {
    inner: StdRng,
}

impl DpRng {
    /// Seed from a 64-bit value.
    pub fn seed_from(seed: u64) -> Self {
        DpRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derive a child RNG for a labelled sub-task.
    ///
    /// Mixing the label keeps sibling tasks (e.g. per-trial mechanisms)
    /// statistically independent while still fully determined by the parent
    /// seed.
    pub fn fork(&mut self, label: u64) -> DpRng {
        // splitmix64 finalizer over (next ^ label) for solid bit diffusion.
        let mut z = self.inner.next_u64() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        DpRng::seed_from(z)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Integer-threshold Bernoulli: success iff the next raw 64-bit draw is
    /// strictly below `threshold`, i.e. success probability
    /// `threshold / 2^64`. The hot-path form of [`DpRng::bernoulli`] — one
    /// raw draw and one comparison, no float conversion.
    #[inline]
    pub fn bernoulli_threshold(&mut self, threshold: u64) -> bool {
        self.inner.next_u64() < threshold
    }

    /// Sample a whole 64-bit Bernoulli mask: for every set bit of `lanes`
    /// (ascending bit order), draw one raw 64-bit value and set the result
    /// bit iff it falls below `threshold`; cleared lanes draw nothing.
    ///
    /// Each produced bit is an independent Bernoulli with success
    /// probability `threshold / 2^64` — this is the word-parallel
    /// randomized-response primitive (one threshold comparison per bit,
    /// whole words at a time), and the documented draw order (ascending
    /// bit index within the word) is part of the seeded-determinism
    /// contract of the flip plan built on top of it.
    #[inline]
    pub fn bernoulli_word(&mut self, threshold: u64, lanes: u64) -> u64 {
        let mut out = 0u64;
        let mut remaining = lanes;
        while remaining != 0 {
            let bit = remaining.trailing_zeros();
            remaining &= remaining - 1;
            if self.inner.next_u64() < threshold {
                out |= 1u64 << bit;
            }
        }
        out
    }

    /// Uniform integer in `[0, n)`; panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        self.inner.random_range(0..n)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        self.inner.random_range(lo..hi)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (k ≤ n), in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct items from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k);
        idx
    }

    /// Capture the generator's exact position in its draw stream.
    ///
    /// The checkpoint/restore primitive of the durability layer: a
    /// generator rebuilt with [`DpRng::from_state`] continues with the
    /// identical sequence, which is what keeps seeded replay bit-for-bit
    /// deterministic across a crash/restore boundary.
    pub fn state(&self) -> [u64; 4] {
        self.inner.state()
    }

    /// Rebuild a generator at an exact captured position (the inverse of
    /// [`DpRng::state`]).
    pub fn from_state(state: [u64; 4]) -> Self {
        DpRng {
            inner: StdRng::from_state(state),
        }
    }
}

impl RngCore for DpRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = DpRng::seed_from(42);
        let mut b = DpRng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_with_distinct_labels_diverge() {
        let mut root = DpRng::seed_from(7);
        let mut c1 = root.fork(1);
        let mut root2 = DpRng::seed_from(7);
        let mut c2 = root2.fork(2);
        let a: Vec<u64> = (0..8).map(|_| c1.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| c2.next_u64()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = DpRng::seed_from(1);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
        assert!(!rng.bernoulli(-0.5));
        assert!(rng.bernoulli(1.5));
    }

    #[test]
    fn bernoulli_rate_roughly_matches() {
        let mut rng = DpRng::seed_from(99);
        let n = 20_000;
        let hits = (0..n).filter(|_| rng.bernoulli(0.3)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate} too far from 0.3");
    }

    #[test]
    fn bernoulli_threshold_rate_matches() {
        let mut rng = DpRng::seed_from(17);
        // threshold for p = 0.25
        let threshold = (0.25 * 2f64.powi(64)) as u64;
        let n = 40_000;
        let hits = (0..n)
            .filter(|_| rng.bernoulli_threshold(threshold))
            .count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
        // degenerate thresholds
        assert!(!rng.bernoulli_threshold(0));
    }

    #[test]
    fn bernoulli_word_draws_only_for_set_lanes() {
        // threshold 2^63 = p 1/2; a full-lane word consumes 64 draws, a
        // sparse one only as many as it has lanes — verified via lockstep
        // with a manual per-bit reference
        let lanes = 0b1011u64;
        let mut a = DpRng::seed_from(5);
        let mut b = DpRng::seed_from(5);
        let threshold = 1u64 << 63;
        let word = a.bernoulli_word(threshold, lanes);
        let mut want = 0u64;
        for bit in [0u32, 1, 3] {
            if b.bernoulli_threshold(threshold) {
                want |= 1 << bit;
            }
        }
        assert_eq!(word, want);
        assert_eq!(word & !lanes, 0, "cleared lanes never set");
        // both generators are in the same state afterwards
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn bernoulli_word_rate_matches_per_lane() {
        let mut rng = DpRng::seed_from(23);
        let threshold = (0.3 * 2f64.powi(64)) as u64;
        let n = 4_000;
        let mut counts = [0usize; 64];
        for _ in 0..n {
            let w = rng.bernoulli_word(threshold, u64::MAX);
            for (b, slot) in counts.iter_mut().enumerate() {
                *slot += ((w >> b) & 1) as usize;
            }
        }
        let total: usize = counts.iter().sum();
        let rate = total as f64 / (n * 64) as f64;
        assert!((rate - 0.3).abs() < 0.01, "aggregate rate {rate}");
        for (b, &c) in counts.iter().enumerate() {
            let lane_rate = c as f64 / n as f64;
            assert!((lane_rate - 0.3).abs() < 0.05, "lane {b} rate {lane_rate}");
        }
    }

    #[test]
    fn sample_indices_are_distinct_and_bounded() {
        let mut rng = DpRng::seed_from(5);
        let picks = rng.sample_indices(10, 4);
        assert_eq!(picks.len(), 4);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
        assert!(picks.iter().all(|&i| i < 10));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DpRng::seed_from(3);
        let mut v: Vec<u32> = (0..20).collect();
        rng.shuffle(&mut v);
        let mut s = v.clone();
        s.sort_unstable();
        assert_eq!(s, (0..20).collect::<Vec<u32>>());
    }

    #[test]
    fn state_round_trip_resumes_identically() {
        let mut a = DpRng::seed_from(31);
        for _ in 0..23 {
            a.next_u64();
        }
        let mut b = DpRng::from_state(a.state());
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // fresh generators at the same seed share the same state word
        assert_eq!(DpRng::seed_from(9).state(), DpRng::seed_from(9).state());
    }

    #[test]
    fn unit_in_range() {
        let mut rng = DpRng::seed_from(11);
        for _ in 0..1000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
