//! Fixture: the same suppression with no reason. Expected: rejected
//! at the attribute (line 4) by `allow_attributes_without_reason`.

#[expect(clippy::disallowed_methods, clippy::disallowed_types)]
pub fn wall_deadline() -> std::time::Instant {
    std::time::Instant::now()
}
