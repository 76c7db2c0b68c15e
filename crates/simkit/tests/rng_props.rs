//! Property tests for `SplitMix64::skip`: discarding `n` draws in one
//! step lands on the state `n` single draws reach, from any state
//! (wrap-around included), and skips compose.

use proptest::prelude::*;
use simkit::SplitMix64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 128 }))]

    #[test]
    fn skip_matches_repeated_draws(seed in 0u64..u64::MAX, n in 0u64..20_000) {
        let mut skipped = SplitMix64::new(seed);
        skipped.skip(n);
        let mut drawn = SplitMix64::new(seed);
        for _ in 0..n {
            drawn.next_u64();
        }
        prop_assert_eq!(&skipped, &drawn);
        // Every draw method continues identically from there.
        prop_assert_eq!(skipped.below(94), drawn.below(94));
        prop_assert_eq!(skipped.range_inclusive(500, 9_977), drawn.range_inclusive(500, 9_977));
    }

    #[test]
    fn skips_compose(seed in 0u64..u64::MAX, a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
        let mut once = SplitMix64::new(seed);
        once.skip(a.wrapping_add(b));
        let mut twice = SplitMix64::new(seed);
        twice.skip(a);
        twice.skip(b);
        prop_assert_eq!(once, twice);
    }
}
