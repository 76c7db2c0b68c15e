//! Fixture: lossy numeric casts outside `simkit::units`. Expected: U2
//! on the `as f64` widening, the `.round() as u64` truncation, the
//! `* 1e9` scaling truncation and the `as usize` index — and nothing
//! for int→int narrowing/widening, hex literals, or test code.

/// u64 → f64 loses bits above 2^53: fires.
pub fn throughput(n: u64, secs: f64) -> f64 {
    n as f64 / secs
}

/// Float → int truncation in float context: fires.
pub fn quantize(x: f64) -> u64 {
    x.round() as u64
}

/// Exponent-form float literal is float context: fires.
pub fn to_nanos(secs: f64) -> u64 {
    (secs * 1e9) as u64
}

/// Int → int narrowing is a different, unlinted class: clean.
pub fn low_word(x: u64) -> u32 {
    (x & 0xffff_ffff) as u32
}

/// Widening with a hex literal (`e` is a hex digit, not an
/// exponent): clean.
pub fn widen(x: u32) -> u64 {
    x as u64 | 0x1e9
}

/// Float → index truncation: fires.
pub fn bucket(frac: f64) -> usize {
    (frac * 100.0).floor() as usize
}

#[cfg(test)]
mod tests {
    // U2 is relaxed on test lines: quick casts are fine in assertions.
    #[test]
    fn casts_ok_in_tests() {
        assert_eq!(3u64 as f64, 3.0);
        assert_eq!(2.9f64.round() as u64, 3);
    }
}
