//! A small, fast, deterministic pseudo-random generator (SplitMix64).
//!
//! The experiment harness needs reproducible randomness that does not
//! depend on platform, crate versions, or thread scheduling; SplitMix64
//! is a well-known 64-bit mixer with full-period state advance.

/// SplitMix64 pseudo-random number generator.
///
/// # Example
///
/// ```
/// use simkit::SplitMix64;
/// let mut a = SplitMix64::new(9);
/// let mut b = SplitMix64::new(9);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

/// The state increment ("gamma") of every draw.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    /// Creates a generator from a seed. Distinct seeds yield
    /// independent-looking streams.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub const fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Discards the next `n` draws in O(1): a draw advances the state
    /// by a constant, so `n` of them advance it by `n` times that
    /// (wrapping). The stream continues exactly as after `n` calls of
    /// [`next_u64`](SplitMix64::next_u64) — every other draw method
    /// consumes exactly one of those per call.
    ///
    /// # Example
    ///
    /// ```
    /// use simkit::SplitMix64;
    /// let mut a = SplitMix64::new(9);
    /// let mut b = a.clone();
    /// for _ in 0..5 {
    ///     a.next_u64();
    /// }
    /// b.skip(5);
    /// assert_eq!(a, b);
    /// ```
    pub fn skip(&mut self, n: u64) {
        self.state = self.state.wrapping_add(n.wrapping_mul(GAMMA));
    }

    /// Derives an independent generator for stream `stream_id` without
    /// perturbing `self`.
    ///
    /// The parallel sweep engine gives every experiment cell its own
    /// stream forked from one master seed, so a sweep's results depend
    /// only on `(master_seed, cell_index)` — never on which worker
    /// thread ran the cell or in what order. The stream id is folded
    /// into the state through two rounds of the SplitMix64 finalizer,
    /// so adjacent ids (0, 1, 2, ...) land on widely separated states.
    ///
    /// # Example
    ///
    /// ```
    /// use simkit::SplitMix64;
    /// let master = SplitMix64::new(42);
    /// let mut a = master.fork(0);
    /// let mut b = master.fork(1);
    /// assert_ne!(a.next_u64(), b.next_u64());
    /// ```
    pub fn fork(&self, stream_id: u64) -> SplitMix64 {
        let mut z = self
            .state
            .wrapping_add(GAMMA)
            .wrapping_add(stream_id.wrapping_mul(0xD1B5_4A32_D192_ED03));
        for _ in 0..2 {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
        }
        SplitMix64 { state: z }
    }

    /// Uniform value in `[0, bound)` using Lemire rejection-free
    /// multiply-shift (bias negligible for simulation purposes).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub const fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform value in `[lo, hi]` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        lo + self.below(hi - lo + 1)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(5);
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn below_covers_range() {
        let mut r = SplitMix64::new(5);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(99);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SplitMix64::new(11);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // With overwhelming probability the shuffle moved something.
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    /// `n` draws from `seed`, the slow way.
    fn drawn(seed: u64, n: u64) -> SplitMix64 {
        let mut r = SplitMix64::new(seed);
        for _ in 0..n {
            r.next_u64();
        }
        r
    }

    #[test]
    fn skip_equals_that_many_draws() {
        // u64::MAX - 3·γ: the state wraps around zero within a few
        // draws.
        let near_wrap = u64::MAX.wrapping_sub(GAMMA.wrapping_mul(3));
        for seed in [0, 42, near_wrap] {
            for n in [0, 1, 94, 9_977, 1 << 16] {
                let mut skipped = SplitMix64::new(seed);
                skipped.skip(n);
                let mut stepped = drawn(seed, n);
                assert_eq!(skipped, stepped, "seed {seed:#x}, n {n}");
                assert_eq!(skipped.next_u64(), stepped.next_u64());
            }
            // 2^33 draws one at a time is minutes of test time; 2^17
            // skips of 2^16 — each just shown equal to 2^16 draws —
            // cover the same distance, many wrap-arounds included.
            let mut skipped = SplitMix64::new(seed);
            skipped.skip(1 << 33);
            let mut chunked = SplitMix64::new(seed);
            for _ in 0..1 << 17 {
                chunked.skip(1 << 16);
            }
            assert_eq!(skipped, chunked, "seed {seed:#x}, n 2^33");
        }
    }

    #[test]
    fn fork_same_stream_is_identical() {
        let master = SplitMix64::new(42);
        let mut a = master.fork(7);
        let mut b = master.fork(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn fork_different_streams_are_disjoint() {
        let master = SplitMix64::new(42);
        // Adjacent stream ids must produce sequences that never
        // collide over a healthy prefix; a shared value would mean the
        // streams overlap and parallel cells would correlate.
        let mut seen = std::collections::HashSet::new();
        for stream in 0..16u64 {
            let mut r = master.fork(stream);
            for _ in 0..256 {
                assert!(seen.insert(r.next_u64()), "streams overlap");
            }
        }
    }

    #[test]
    fn fork_does_not_perturb_parent() {
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        let _ = a.fork(3);
        let _ = a.fork(4);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fork_depends_on_master_seed() {
        let mut a = SplitMix64::new(1).fork(0);
        let mut b = SplitMix64::new(2).fork(0);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn range_inclusive_hits_endpoints() {
        let mut r = SplitMix64::new(3);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..10_000 {
            match r.range_inclusive(2, 4) {
                2 => lo_seen = true,
                4 => hi_seen = true,
                3 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(lo_seen && hi_seen);
    }
}
