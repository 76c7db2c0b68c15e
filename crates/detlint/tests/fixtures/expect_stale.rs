//! Fixture: an `#[expect]` whose site no longer breaks the rule — the
//! clock read it sanctioned is gone. Expected: rejected at the lint
//! name (line 6) as `unfulfilled_lint_expectations`, so a stale
//! sanction cannot outlive its site.

#[expect(clippy::disallowed_methods, reason = "fixture: stale sanction")]
pub fn virtual_deadline(now_ns: u64) -> u64 {
    now_ns + 1_000
}
