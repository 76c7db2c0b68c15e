//! Property tests for `simkit::units`: the newtypes are transparent
//! wrappers — every operation agrees exactly with the raw-`u64`
//! arithmetic it replaced, and `transfer_time` matches the old
//! `saturating_mul(8_000_000_000)` formula wherever that formula did
//! not saturate. (The vendored shim only implements the half-open
//! `Range` strategy, so draws span `0..u64::MAX`; the `u64::MAX`
//! endpoint itself is pinned by the unit tests in `units.rs`.)

use proptest::prelude::*;
use simkit::units::{self, transfer_time, Bps, Bytes};
use simkit::SimDuration;

proptest! {
    // Miri interprets every case; a handful still exercises the
    // arena/arithmetic invariants without minutes of wall clock.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 128 }))]

    /// Add / AddAssign / saturating ops / Mul / Div / Sum on `Bytes`
    /// are the wrapped `u64` operations, bit for bit.
    #[test]
    fn bytes_arithmetic_matches_raw_u64(
        a in 0u64..1 << 40,
        b in 0u64..1 << 40,
        k in 1u64..1 << 10,
    ) {
        prop_assert_eq!((Bytes::new(a) + Bytes::new(b)).get(), a + b);
        let mut acc = Bytes::new(a);
        acc += Bytes::new(b);
        prop_assert_eq!(acc.get(), a + b);
        if a >= b {
            prop_assert_eq!((Bytes::new(a) - Bytes::new(b)).get(), a - b);
        }
        prop_assert_eq!(
            Bytes::new(a).saturating_sub(Bytes::new(b)).get(),
            a.saturating_sub(b)
        );
        prop_assert_eq!((Bytes::new(a) * k).get(), a * k);
        prop_assert_eq!((Bytes::new(a) / k).get(), a / k);
        let total: Bytes = [a, b, k].into_iter().map(Bytes::new).sum();
        prop_assert_eq!(total.get(), a + b + k);
        prop_assert_eq!(Bytes::new(a).is_zero(), a == 0);
    }

    /// Same transparency for `Bps`.
    #[test]
    fn bps_arithmetic_matches_raw_u64(r in 1u64..u64::MAX, k in 1u64..1 << 10) {
        prop_assert_eq!((Bps::new(r) / k).get(), r / k);
        if let Some(p) = r.checked_mul(k) {
            prop_assert_eq!((Bps::new(r) * k).get(), p);
        }
        prop_assert_eq!(Bps::from_mbps(k).get(), k * 1_000_000);
    }

    /// Ordering and rendering are the wrapped integer's: comparisons
    /// agree with `u64`, and Debug/Display print the bare number (the
    /// golden byte-identity contract).
    #[test]
    fn ordering_and_rendering_are_transparent(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
        prop_assert_eq!(Bytes::new(a).cmp(&Bytes::new(b)), a.cmp(&b));
        prop_assert_eq!(Bps::new(a).cmp(&Bps::new(b)), a.cmp(&b));
        prop_assert_eq!(format!("{}", Bytes::new(a)), format!("{a}"));
        prop_assert_eq!(format!("{:?}", Bytes::new(a)), format!("{a:?}"));
        prop_assert_eq!(format!("{}", Bps::new(a)), format!("{a}"));
        prop_assert_eq!(format!("{:?}", Bps::new(a)), format!("{a:?}"));
    }

    /// Wherever the old `u64` product did not saturate, the widened
    /// `transfer_time` returns the identical nanosecond count.
    #[test]
    fn transfer_time_matches_old_formula_when_unsaturated(
        bytes in 0u64..u64::MAX / 8_000_000_000 + 1,
        bps in 1u64..u64::MAX,
    ) {
        let old = bytes.saturating_mul(8_000_000_000) / bps;
        prop_assert_eq!(
            transfer_time(Bytes::new(bytes), Bps::new(bps)).as_nanos(),
            old
        );
    }

    /// Past the old saturation point the widened formula is the true
    /// quotient — always at least what the pinned product produced.
    #[test]
    fn transfer_time_never_under_reports(bytes in 0u64..u64::MAX, bps in 1u64..u64::MAX) {
        let exact = (bytes as u128 * 8_000_000_000) / bps as u128;
        let want = exact.min(u64::MAX as u128) as u64;
        prop_assert_eq!(transfer_time(Bytes::new(bytes), Bps::new(bps)).as_nanos(), want);
        let old = bytes.saturating_mul(8_000_000_000) / bps;
        prop_assert!(want >= old);
    }

    /// The sanctioned lossy helpers reproduce the cast expressions
    /// they replaced, bit for bit.
    #[test]
    fn lossy_helpers_are_bit_identical_to_casts(x in 0u64..u64::MAX, d in 1u64..u64::MAX) {
        prop_assert_eq!(units::to_f64(x).to_bits(), (x as f64).to_bits());
        prop_assert_eq!(
            units::ratio(x, d).to_bits(),
            (x as f64 / d as f64).to_bits()
        );
        prop_assert_eq!(
            units::unit_interval(x).to_bits(),
            (x as f64 / u64::MAX as f64).to_bits()
        );
        prop_assert_eq!(
            units::unit_interval_53(x).to_bits(),
            ((x >> 11) as f64 / (1u64 << 53) as f64).to_bits()
        );
        let f = units::to_f64(x);
        prop_assert_eq!(units::f64_to_u64(f), f as u64);
        prop_assert_eq!(units::f64_to_u32(f), f as u32);
        prop_assert_eq!(
            units::duration_from_nanos_f64(f),
            SimDuration::from_nanos(f as u64)
        );
        prop_assert_eq!(
            units::nanos_f64(SimDuration::from_nanos(x)).to_bits(),
            (x as f64).to_bits()
        );
        prop_assert_eq!(units::usize_f64(x as usize).to_bits(), (x as f64).to_bits());
    }
}
