//! Fixture: determinism-clean code — ordered storage, seeded RNG
//! pattern, no threads, no wall clock. Expected: zero findings.

use std::collections::BTreeMap;

pub fn summarize(counts: &BTreeMap<String, u64>) -> u64 {
    counts.values().sum()
}

pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x ^ (x >> 31)
}
