//! Deterministic, seedable pseudo-random numbers without external crates.
//!
//! The build must work with no network access, so `rand` is replaced by
//! this small module: [`SplitMix64`] for seed expansion (Steele, Lea &
//! Flood, OOPSLA'14; its output step is [`splitmix64`]) and [`Xoshiro256`] (xoshiro256**, Blackman & Vigna)
//! as the general-purpose generator. Both are tiny, well-studied, and —
//! crucial for this repo — *stable across platforms and releases*: every
//! randomized test and benchmark derives its inputs from a fixed seed and
//! reproduces bit-identically everywhere.
//!
//! This is not a cryptographic generator and must never be used as one.

/// SplitMix64's state increment (the 64-bit golden ratio).
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One SplitMix64 step as a stateless hash: the output the generator
/// yields from state `x`. Full avalanche, so it doubles as the workspace's
/// 64-bit mixer — fault coins, retry jitter, stack-signature folding.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64: a 64-bit mixer with a simple additive state. Used to expand
/// one user seed into the four xoshiro256** state words, and usable on its
/// own where a cheap stateless-ish stream is enough.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        out
    }
}

/// xoshiro256**: 256 bits of state, period 2^256 − 1, passes BigCrush.
/// The workhorse generator for tests, benches, and K-random clustering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Generator whose state is expanded from `seed` via [`SplitMix64`],
    /// per the reference implementation's seeding recommendation.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Xoshiro256 { s }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift with a
    /// rejection step to remove modulo bias. Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Rejection sampling over the biased zone only.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let wide = (x as u128) * (bound as u128);
            if (wide as u64) >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` in `[0, bound)`.
    pub fn usize_below(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.f64_unit() < p
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.usize_below(i + 1);
            xs.swap(i, j);
        }
    }

    /// `k` distinct indices sampled uniformly from `0..n`, in selection
    /// order (partial Fisher–Yates — the same contract `rand`'s
    /// `seq::index::sample` had where this replaced it). Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct indices from {n}");
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = self.range_usize(i, n);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First two outputs for seed 0 of the public-domain splitmix64.c
        // reference implementation.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(sm.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn xoshiro_deterministic_per_seed() {
        let mut a = Xoshiro256::seed_from_u64(42);
        let mut b = Xoshiro256::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256::seed_from_u64(43);
        let same = (0..100).filter(|_| a.next_u64() == c.next_u64()).count();
        assert!(same < 3, "different seeds must give different streams");
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            let x = rng.below(10);
            assert!(x < 10);
            counts[x as usize] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "bucket count {c} out of bounds");
        }
    }

    #[test]
    fn f64_unit_in_half_open_interval() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = rng.f64_unit();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        let mut xs: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = Xoshiro256::seed_from_u64(13);
        for (n, k) in [(10, 3), (10, 10), (100, 1), (5, 0)] {
            let s = rng.sample_indices(n, k);
            assert_eq!(s.len(), k);
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), k, "indices must be distinct");
            assert!(s.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn range_bounds_inclusive_exclusive() {
        let mut rng = Xoshiro256::seed_from_u64(17);
        let mut saw_lo = false;
        for _ in 0..10_000 {
            let x = rng.range_usize(3, 6);
            assert!((3..6).contains(&x));
            saw_lo |= x == 3;
        }
        assert!(saw_lo, "lower bound must be reachable");
    }
}
