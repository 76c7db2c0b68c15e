//! Fixture: a real D1 violation behind an `#[expect]` that states its
//! reason — the only way to sanction a D1-D4 site. Expected: clean.

#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "fixture: demonstrates a justified suppression"
)]
pub fn wall_deadline() -> std::time::Instant {
    std::time::Instant::now()
}
