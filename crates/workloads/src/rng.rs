//! Deterministic random-number helpers for workload generation.
//!
//! Workload op streams must be reproducible (`Workload::ops` is documented
//! to return the same sequence on every call, so DRAM and CXL runs see the
//! same instructions). All generators are seeded from the workload *name*,
//! which also makes streams stable across suite reorderings.

/// SplitMix64: a small, high-quality deterministic generator.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Seeds from a workload name (FNV-1a hash).
    pub fn from_name(name: &str) -> Self {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in name.bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        SplitMix(hash)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift reduction; bias is negligible for our bounds.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`: [`unit_bits`](Self::unit_bits) scaled
    /// by `2^-53`, which is exact.
    pub fn unit(&mut self) -> f64 {
        self.unit_bits() as f64 / UNIT_SCALE
    }

    /// The 53-bit integer behind [`unit`](Self::unit), uniform in
    /// `[0, 2^53)`. Comparing it with [`unit_cut`]`(p)` gives the same
    /// answer as `unit() < p`, without the conversion.
    #[inline]
    pub fn unit_bits(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// A Zipf-like (s ≈ 1) rank in `[0, n)`: density falls off as `1/(k+1)`,
    /// so low ranks are hot. Uses the inverse-CDF approximation
    /// `k = n^u - 1`.
    pub fn zipf(&mut self, n: u64) -> u64 {
        assert!(n > 0, "population must be positive");
        let u = self.unit();
        let k = (n as f64).powf(u) - 1.0;
        (k as u64).min(n - 1)
    }
}

/// `2^53`: the number of distinct [`SplitMix::unit`] values.
const UNIT_SCALE: f64 = (1u64 << 53) as f64;

/// The integer cut for probability `p ∈ [0, 1]`: `k < unit_cut(p)` exactly
/// when `k as f64 / 2^53 < p`, for every 53-bit `k`. Both `k / 2^53` and
/// `p · 2^53` are exact in `f64`, and an integer is below a real `x`
/// exactly when it is below `ceil(x)`.
pub fn unit_cut(p: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
    (p * UNIT_SCALE).ceil() as u64
}

/// A full-period power-of-two LCG used to model pointer-chase permutations
/// without materialising them: `x' = (a*x + c) mod 2^k` visits every value
/// in `[0, 2^k)` exactly once per period when `a ≡ 5 (mod 8)` and `c` is
/// odd.
#[derive(Debug, Clone, Copy)]
pub struct ChaseWalk {
    state: u64,
    mult: u64,
    add: u64,
    mask: u64,
}

impl ChaseWalk {
    /// Creates a walk over `[0, size)`; `size` must be a power of two.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or not a power of two.
    pub fn new(size: u64, seed: u64) -> Self {
        assert!(size.is_power_of_two(), "chase walk needs a power-of-two size");
        let mut mix = SplitMix::new(seed);
        // a ≡ 5 (mod 8) guarantees full period together with odd c.
        let mult = (mix.next_u64() & !0b111) | 5;
        let add = mix.next_u64() | 1;
        ChaseWalk {
            state: mix.next_u64() & (size - 1),
            mult,
            add,
            mask: size - 1,
        }
    }

    /// Advances to the next element of the permutation cycle.
    pub fn next_index(&mut self) -> u64 {
        self.state = self.state.wrapping_mul(self.mult).wrapping_add(self.add) & self.mask;
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix::new(42);
        let mut b = SplitMix::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn name_seeding_distinguishes_names() {
        let a = SplitMix::from_name("gap.pr-kron").next_u64();
        let b = SplitMix::from_name("gap.pr-road").next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn below_stays_in_range_and_covers() {
        let mut rng = SplitMix::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit");
    }

    #[test]
    fn unit_in_half_open_interval() {
        let mut rng = SplitMix::new(9);
        for _ in 0..1000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let mut rng = SplitMix::new(11);
        let n = 1u64 << 20;
        let mut low = 0;
        for _ in 0..10_000 {
            if rng.zipf(n) < n / 100 {
                low += 1;
            }
        }
        // With s≈1, ~2/3 of samples land in the first 1% of ranks.
        assert!(low > 5_000, "only {low} of 10000 samples in the hot 1%");
    }

    #[test]
    fn chase_walk_visits_every_index_once() {
        let size = 1u64 << 12;
        let mut walk = ChaseWalk::new(size, 3);
        let mut seen = vec![false; size as usize];
        for _ in 0..size {
            let idx = walk.next_index();
            assert!(!seen[idx as usize], "index {idx} visited twice");
            seen[idx as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn chase_walks_differ_by_seed() {
        let mut a = ChaseWalk::new(1 << 10, 1);
        let mut b = ChaseWalk::new(1 << 10, 2);
        let va: Vec<u64> = (0..16).map(|_| a.next_index()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_index()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn chase_walk_rejects_non_power_of_two() {
        let _ = ChaseWalk::new(100, 1);
    }
}
