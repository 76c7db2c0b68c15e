//! Dimensioned quantities: byte counts ([`Bytes`]) and link bandwidths
//! ([`Bps`]), plus the *only* sanctioned lossy numeric conversions in
//! the workspace.
//!
//! The paper's tables are exact arithmetic over wire bytes, bandwidths
//! and nanosecond timelines; a silent `bytes`/`bits` or `u64 as f64`
//! slip distorts every comparison downstream. Like
//! [`SimTime`](crate::SimTime)/[`SimDuration`], these newtypes make the
//! dimension part of the API signature, and rules U1/U2 (checked by
//! `detlint`, DESIGN.md §8) keep bare integers and ad-hoc casts from
//! creeping back in.
//!
//! Two contracts hold everywhere in this module:
//!
//! * **Rendering is the bare integer.** `Debug` and `Display` print
//!   exactly what the wrapped `u64` would print. Goldens and JSON
//!   reports are byte-compared across runs, so wrapping a quantity must
//!   never change its rendering.
//! * **Conversions are value-preserving.** [`transfer_time`] widens to
//!   `u128` so `bytes × 8 × 10⁹` cannot overflow, and every float helper
//!   reproduces the exact expression it replaced (`x as f64`,
//!   `n as f64 / d as f64`, ...) so converted call sites stay
//!   bit-identical to the raw-cast originals.

use crate::clock::SimDuration;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A count of bytes (payload sizes, header overheads, wire totals).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

/// A link bandwidth in bits per second.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bps(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a byte count.
    pub const fn new(n: u64) -> Self {
        Bytes(n)
    }

    /// The raw count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// True if this is zero bytes.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl Bps {
    /// Creates a bandwidth in bits per second.
    pub const fn new(n: u64) -> Self {
        Bps(n)
    }

    /// Creates a bandwidth from whole megabits per second.
    pub const fn from_mbps(m: u64) -> Self {
        Bps(m * 1_000_000)
    }

    /// The raw bits-per-second value.
    pub const fn get(self) -> u64 {
        self.0
    }
}

/// Serialization delay of `bytes` over a `bps` link: exact
/// `bytes × 8 × 10⁹ / bps` nanoseconds with a `u128` intermediate, so
/// the product cannot overflow for any `u64` byte count (the old
/// `saturating_mul(8_000_000_000)` formulation silently pinned
/// transfers above ~2.3 GB). A quotient beyond `u64::MAX` nanoseconds
/// (sub-bit/s bandwidths) saturates.
///
/// # Panics
///
/// Panics if `bps` is zero.
pub fn transfer_time(bytes: Bytes, bps: Bps) -> SimDuration {
    assert!(bps.0 != 0, "transfer_time: zero bandwidth");
    let nanos = (bytes.0 as u128 * 8_000_000_000) / bps.0 as u128;
    SimDuration::from_nanos(nanos.min(u64::MAX as u128) as u64)
}

/// The exact `x as f64` conversion (round-to-nearest above 2⁵³).
pub fn to_f64(x: u64) -> f64 {
    x as f64
}

/// [`to_f64`] for count-typed `usize` values (lengths, grid sizes),
/// so call sites need no `as u64` widening cast of their own.
pub fn usize_f64(n: usize) -> f64 {
    n as u64 as f64
}

/// The exact `n as f64 / d as f64` ratio.
pub fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den as f64
}

/// The exact `x as u64` float truncation (saturating, NaN → 0).
pub fn f64_to_u64(x: f64) -> u64 {
    x as u64
}

/// The exact `x as u32` float truncation (saturating, NaN → 0).
/// Public because detlint's U2 message names it as the sanctioned cast.
pub fn f64_to_u32(x: f64) -> u32 {
    x as u32
}

/// The exact `x as usize` float truncation (saturating, NaN → 0), for
/// indices and counts computed in floating point.
pub fn f64_to_usize(x: f64) -> usize {
    x as usize
}

/// A duration's nanosecond count as a float (`as_nanos() as f64`).
pub fn nanos_f64(d: SimDuration) -> f64 {
    d.as_nanos() as f64
}

/// A duration from a float nanosecond count, truncated and saturated
/// exactly like `SimDuration::from_nanos(ns as u64)`.
pub fn duration_from_nanos_f64(ns: f64) -> SimDuration {
    SimDuration::from_nanos(ns as u64)
}

/// Maps a raw RNG draw onto `[0, 1)` using the top 53 bits
/// (`(x >> 11) as f64 / 2⁵³`), the exact-mantissa form used by the RPC
/// jitter draw.
pub fn unit_interval_53(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(
            self.0
                .checked_sub(rhs.0)
                .expect("Bytes subtraction underflow"),
        )
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Div<u64> for Bytes {
    type Output = Bytes;
    fn div(self, rhs: u64) -> Bytes {
        Bytes(self.0 / rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        Bytes(iter.map(|b| b.0).sum())
    }
}

impl Div<u64> for Bps {
    type Output = Bps;
    fn div(self, rhs: u64) -> Bps {
        Bps(self.0 / rhs)
    }
}

impl Mul<u64> for Bps {
    type Output = Bps;
    fn mul(self, rhs: u64) -> Bps {
        Bps(self.0 * rhs)
    }
}

impl From<u64> for Bytes {
    fn from(n: u64) -> Bytes {
        Bytes(n)
    }
}

impl From<u64> for Bps {
    fn from(n: u64) -> Bps {
        Bps(n)
    }
}

// Bare-integer rendering: see the module docs — `{:?}` of these types
// is embedded in golden reports, which are byte-compared across runs
// and refactors.
impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl fmt::Debug for Bps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

impl fmt::Display for Bps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_matches_raw_u64() {
        let a = Bytes::new(4096);
        let b = Bytes::new(512);
        assert_eq!((a + b).get(), 4096 + 512);
        assert_eq!((a - b).get(), 4096 - 512);
        assert_eq!((a * 3).get(), 4096 * 3);
        assert_eq!((a / 2).get(), 4096 / 2);
        let mut c = a;
        c += b;
        assert_eq!(c.get(), 4608);
        let total: Bytes = [a, b, b].into_iter().sum();
        assert_eq!(total.get(), 4096 + 1024);
        assert_eq!(Bps::from_mbps(100).get(), 100_000_000);
        assert_eq!((Bps::new(9) / 3).get(), 3);
    }

    #[test]
    fn rendering_is_the_bare_integer() {
        assert_eq!(format!("{:?}", Bytes::new(65536)), "65536");
        assert_eq!(format!("{}", Bytes::new(65536)), "65536");
        assert_eq!(format!("{:?}", Bps::new(1_000_000_000)), "1000000000");
        assert_eq!(format!("{}", Bps::new(125_000)), "125000");
    }

    #[test]
    fn transfer_time_matches_old_formula_in_range() {
        // The pre-newtype net-layer formula.
        let old = |bytes: u64, bps: u64| bytes.saturating_mul(8_000_000_000) / bps;
        for &bytes in &[0u64, 1, 1460, 8192, 65536, 1 << 30] {
            for &bps in &[1_000_000u64, 100_000_000, 1_000_000_000, 10_000_000_000] {
                assert_eq!(
                    transfer_time(Bytes::new(bytes), Bps::new(bps)).as_nanos(),
                    old(bytes, bps),
                    "bytes={bytes} bps={bps}"
                );
            }
        }
    }

    #[test]
    fn transfer_time_is_exact_past_the_old_saturation_point() {
        // 4 GB at 1 Gb/s: the old u64 product saturated and under-reported;
        // the u128 widening gives the true 32 s serialization delay.
        let t = transfer_time(Bytes::new(4 << 30), Bps::new(1_000_000_000));
        assert_eq!(t.as_nanos(), (4u128 << 30) as u64 * 8);
        let old = (4u64 << 30).saturating_mul(8_000_000_000) / 1_000_000_000;
        assert!(old < t.as_nanos(), "old formula saturated");
    }

    #[test]
    fn lossy_helpers_reproduce_the_cast_expressions() {
        for &x in &[0u64, 1, 12345, u64::MAX - 1, u64::MAX] {
            assert_eq!(to_f64(x).to_bits(), (x as f64).to_bits());
            assert_eq!(
                unit_interval_53(x).to_bits(),
                ((x >> 11) as f64 / (1u64 << 53) as f64).to_bits()
            );
        }
        assert_eq!(ratio(1, 3).to_bits(), (1.0f64 / 3.0).to_bits());
        assert_eq!(f64_to_u64(2.9), 2);
        assert_eq!(f64_to_u64(-1.0), 0);
        assert_eq!(f64_to_u64(f64::INFINITY), u64::MAX);
        assert_eq!(f64_to_u32(70000.5), 70000);
        assert_eq!(f64_to_u32(f64::NAN), 0);
        assert_eq!(duration_from_nanos_f64(1234.9).as_nanos(), 1234);
        assert_eq!(nanos_f64(SimDuration::from_micros(5)), 5000.0);
        assert!(unit_interval_53(u64::MAX) < 1.0);
    }
}
