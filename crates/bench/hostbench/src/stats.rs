//! Order statistics, the digest, the seeded generator for benchmark
//! inputs, and the `paper_err` formula.

/// Median of `values` (mean of the two middle ones for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample:
/// the smallest value with at least `p` % of the sample at or below
/// it. 0 for an empty sample (a layer the workload never entered).
pub fn percentile(samples: &mut [u32], p: f64) -> u32 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (p / 100.0 * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// FNV-1a, 64-bit, continuing from `state` (start from [`FNV_INIT`]).
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

pub const FNV_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// The benchmark's own generator (SplitMix64), so inputs depend on
/// `--seed` alone and never on a product RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (multiply-shift; `bound` > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// A seeded permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n).collect();
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
        v
    }
}

/// One reference cell: what the simulator produced against what the
/// paper printed, with where the paper printed it.
#[derive(Debug, Clone)]
pub struct PaperCell {
    pub cite: &'static str,
    pub simulated: f64,
    pub paper: f64,
}

/// `paper_err`: the median over the reference cells of
/// |ln(simulated ÷ paper)| — 0 when every cell matches, ln 2 ≈ 0.69
/// when the typical cell is off by a factor of two either way.
/// `None` without reference cells (the scale is unvalidated).
pub fn paper_err(cells: &[PaperCell]) -> Option<f64> {
    if cells.is_empty() {
        return None;
    }
    let errs: Vec<f64> = cells
        .iter()
        .map(|c| (c.simulated / c.paper).ln().abs())
        .collect();
    Some(median(&errs))
}

/// How much worse `b` is than `a`, as a share of `a`, for a
/// lower-is-better metric (negative when `b` is better).
pub fn worsening(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        if b == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (b - a) / a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut s, 99.0), 99);
        assert_eq!(percentile(&mut s, 50.0), 50);
        assert_eq!(percentile(&mut s, 100.0), 100);
        assert_eq!(percentile(&mut s, 0.0), 1);
        let mut few = vec![10, 30, 20];
        assert_eq!(percentile(&mut few, 99.0), 30);
        assert_eq!(percentile(&mut [], 99.0), 0);
    }

    #[test]
    fn paper_err_is_median_abs_log_ratio() {
        let cell = |simulated: f64, paper: f64| PaperCell {
            cite: "t",
            simulated,
            paper,
        };
        // Off by 2x high, 2x low and exact: |ln| = ln2, ln2, 0.
        let cells = [cell(20.0, 10.0), cell(5.0, 10.0), cell(7.0, 7.0)];
        let e = paper_err(&cells).unwrap();
        assert!((e - 2f64.ln()).abs() < 1e-12, "{e}");
        assert_eq!(paper_err(&[cell(3.0, 3.0)]), Some(0.0));
        assert_eq!(paper_err(&[]), None);
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = Rng::new(7).permutation(1000);
        let b = Rng::new(7).permutation(1000);
        let c = Rng::new(8).permutation(1000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<u64>>());
    }

    #[test]
    fn fnv1a_matches_reference_vector() {
        // FNV-1a 64 of "a" from the reference test suite.
        assert_eq!(fnv1a(FNV_INIT, b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn worsening_is_relative_to_first() {
        assert_eq!(worsening(10.0, 11.0), 0.1);
        assert_eq!(worsening(10.0, 9.0), -0.1);
        assert_eq!(worsening(0.0, 0.0), 0.0);
    }
}
