//! Fixture: ambient (seed-free) randomness (D3).
//! Expected: D3 on the `use` (6), `RandomState::new` (10) and the
//! `DefaultHasher` type and call (14, 15). All simulation randomness
//! must flow from `simkit::rng::SplitMix64` streams forked per cell.

use std::collections::hash_map::{DefaultHasher, RandomState};
use std::hash::BuildHasher;

pub fn ambient_seed() -> u64 {
    let state = RandomState::new();
    state.hash_one(42u64)
}

pub fn ambient_hash() -> DefaultHasher {
    DefaultHasher::new()
}
