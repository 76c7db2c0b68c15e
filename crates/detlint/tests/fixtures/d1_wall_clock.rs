//! Fixture: wall-clock reads outside the bench crate (D1). Expected:
//! D1 at `Instant::now` (5), the `SystemTime` type (9) and its `now` (10).

pub fn elapsed_ms() -> u128 {
    let start = std::time::Instant::now();
    start.elapsed().as_millis()
}

pub fn stamp() -> std::time::SystemTime {
    std::time::SystemTime::now()
}

// Mentioning Instant in a comment or "Instant::now" in a string is fine:
pub const DOC: &str = "never call Instant::now in sim code";
