//! `detlint` — the workspace determinism linter for the rules clippy
//! cannot state.
//!
//! Every number this testbed reports rests on one invariant: *no
//! nondeterminism may reach simulation state or report output*. The
//! end-to-end golden diffs catch a violation long after it is
//! introduced and say nothing about where it came from; the lints
//! reject the bug class at its source, at CI time. Clippy enforces
//! D1 (wall clock), D2 (hash-order iteration), D3 (ambient
//! randomness) and D4 (threads and channels) on the compiler's types,
//! configured by the root `clippy.toml` (DESIGN.md §8). This crate
//! keeps the four rules that need a shape no clippy setting names:
//!
//! # The lint catalogue
//!
//! | id | rejects | rationale |
//! |----|---------|-----------|
//! | D5 | float arithmetic inside a spawned closure | float addition is not associative; cross-thread float folds must go through `ReportBuilder::merge_report`'s index-ordered fold |
//! | D6 | heap/queue ordering on bare `SimTime` (a `BinaryHeap` whose key names `SimTime` without the `EventKey` wrapper) | equal-time entries then pop in heap-internal order, which is not part of any contract; key events with `simkit::events::EventKey`'s `(time, host, seq)` tie-break |
//! | U1 | public quantity params/fields named `*_bytes`/`*_bps`/`*_nanos` (or exactly `bytes`/`bps`/`nanos`) declared as bare integers in model crates | quantities must carry their dimension in the type (`simkit::units::Bytes`, `simkit::units::Bps`, `simkit::SimDuration`), so a bits/bytes or ns/ms mix-up is a compile error, not a silently wrong golden |
//! | U2 | lossy `as f64`/`as f32` casts, and `as u64`/`as u32`/`as usize` in float context, in model code outside `simkit::units` | every float↔int boundary must go through the audited `simkit::units` helpers (`to_f64`, `ratio`, `f64_to_u64`, ...), so saturation and rounding semantics are defined in exactly one place |
//!
//! # How it works (and what it cannot see)
//!
//! There is no `syn` available to an offline workspace, so this is a
//! *token* scanner, not an AST pass: source is stripped of comments
//! and string literals (preserving line structure), `#[cfg(test)]`
//! regions are tracked by brace depth (a file declared as
//! `#[cfg(test)] mod name;` is skipped whole), and each lint matches
//! word-bounded token patterns on a line (D6 also looks at the next
//! line, for declarations whose generics wrap). A heap key built far
//! from its declaration, or a float reached through a variable with
//! no float token on its line, is invisible; the golden diffs remain
//! the backstop. No finding can be suppressed: each one is fixed.

use std::fmt;

mod scan;
mod strip;

pub use scan::{lint_files, lint_source};

/// A determinism lint class. See the crate docs for the catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    /// Float arithmetic inside a spawned closure.
    D5,
    /// Heap/queue ordering on bare `SimTime` without the
    /// `(time, host, seq)` tie-break wrapper.
    D6,
    /// Bare-integer quantity declarations (`*_bytes`/`*_bps`/
    /// `*_nanos`) in model crates.
    U1,
    /// Lossy numeric casts in model code outside `simkit::units`.
    U2,
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// One finding: a lint fired at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Which lint fired.
    pub lint: Lint,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.lint, self.message
        )
    }
}

/// Where a file sits in the workspace, which decides which lints
/// apply. Derived purely from the workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FileContext<'a> {
    /// Workspace-relative path, `/`-separated.
    pub path: &'a str,
}

impl<'a> FileContext<'a> {
    /// Creates a context for a workspace-relative path.
    pub(crate) fn new(path: &'a str) -> Self {
        FileContext { path }
    }

    /// Files the linter refuses to scan at all: build output and the
    /// linter's own intentionally-violating test fixtures.
    pub(crate) fn skip_entirely(&self) -> bool {
        self.path.starts_with("target/")
            || self.path.contains("/target/")
            || self.path.contains("tests/fixtures/")
    }

    /// True if the whole file is test code (integration test trees).
    pub(crate) fn whole_file_test(&self) -> bool {
        self.path.starts_with("tests/") || self.path.contains("/tests/")
    }

    fn in_crate(&self, name: &str) -> bool {
        let prefix = format!("crates/{name}/");
        self.path.starts_with(&prefix)
    }

    /// Crates whose code models physical quantities — where the U1/U2
    /// unit-safety lints apply. `bench`, `traces`, `detlint` and the
    /// vendored `proptest` shim move tool-side numbers, not modeled
    /// bytes or bandwidths.
    fn in_model_crate(&self) -> bool {
        const MODEL_CRATES: &[&str] = &[
            "simkit",
            "net",
            "blockdev",
            "rpc",
            "iscsi",
            "nfs",
            "scsi",
            "ext3",
            "cpu",
            "vfs",
            "workloads",
            "core",
        ];
        MODEL_CRATES.iter().any(|c| self.in_crate(c))
    }

    /// The sanctioned homes of raw-integer quantity math: the newtype
    /// module itself, the virtual clock, and the deterministic RNG's
    /// uniform-draw helpers.
    fn units_sanctioned(&self) -> bool {
        matches!(
            self.path,
            "crates/simkit/src/units.rs"
                | "crates/simkit/src/clock.rs"
                | "crates/simkit/src/rng.rs"
        )
    }

    /// Whether `lint` applies to this file's non-test lines. No lint
    /// applies on test lines: tests spawn threads to *test* the
    /// concurrent structures, build throwaway time-keyed heaps whose
    /// pop order the assertion itself pins down, and compare newtype
    /// arithmetic against raw-integer reference formulas.
    ///
    /// D5 and D6 apply everywhere. U1/U2 apply only in model crates
    /// (see `in_model_crate`), and never in `simkit`'s
    /// `units`/`clock`/`rng` modules — those are where the raw-integer
    /// math is supposed to live.
    pub(crate) fn lint_applies(&self, lint: Lint) -> bool {
        match lint {
            Lint::D5 | Lint::D6 => true,
            Lint::U1 | Lint::U2 => self.in_model_crate() && !self.units_sanctioned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_policy_matrix() {
        let sweep = FileContext::new("crates/simkit/src/sweep.rs");
        assert!(sweep.lint_applies(Lint::D5));

        let fixtures = FileContext::new("crates/detlint/tests/fixtures/d5.rs");
        assert!(fixtures.skip_entirely());

        let itest = FileContext::new("crates/nfs/tests/coherence_props.rs");
        assert!(itest.whole_file_test());

        // D6 applies in every crate's library code — including the
        // event module that defines the sanctioned wrapper.
        assert!(FileContext::new("crates/simkit/src/events.rs").lint_applies(Lint::D6));

        // U1/U2: model crates only, minus the sanctioned units trio.
        let net = FileContext::new("crates/net/src/lib.rs");
        assert!(net.lint_applies(Lint::U1));
        assert!(net.lint_applies(Lint::U2));
        for sanctioned in [
            "crates/simkit/src/units.rs",
            "crates/simkit/src/clock.rs",
            "crates/simkit/src/rng.rs",
        ] {
            let f = FileContext::new(sanctioned);
            assert!(!f.lint_applies(Lint::U1), "{sanctioned}");
            assert!(!f.lint_applies(Lint::U2), "{sanctioned}");
        }
        assert!(FileContext::new("crates/simkit/src/histogram.rs").lint_applies(Lint::U2));
        for tool in [
            "crates/bench/src/bin/tables.rs",
            "crates/detlint/src/scan.rs",
            "crates/proptest/src/lib.rs",
            "crates/traces/src/lib.rs",
        ] {
            let f = FileContext::new(tool);
            assert!(!f.lint_applies(Lint::U1), "{tool}");
            assert!(!f.lint_applies(Lint::U2), "{tool}");
        }
    }

    #[test]
    fn diagnostic_display_is_clickable() {
        let d = Diagnostic {
            path: "crates/net/src/lib.rs".into(),
            line: 42,
            lint: Lint::D6,
            message: "heap ordered on bare `SimTime`".into(),
        };
        assert_eq!(
            d.to_string(),
            "crates/net/src/lib.rs:42: D6: heap ordered on bare `SimTime`"
        );
    }
}
