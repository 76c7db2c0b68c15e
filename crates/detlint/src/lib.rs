//! `detlint` — the workspace determinism linter.
//!
//! Every number this testbed reports rests on one invariant: *no
//! nondeterminism may reach simulation state or report output*. The
//! end-to-end golden diffs catch a violation long after it is
//! introduced and say nothing about where it came from; this linter
//! rejects the bug class at its source, at CI time.
//!
//! # The lint catalogue
//!
//! | id | rejects | rationale |
//! |----|---------|-----------|
//! | D1 | wall-clock reads (`Instant::now`, `SystemTime`, `UNIX_EPOCH`, `thread::sleep`) | all time must be virtual (`simkit::clock`); wall time differs per run/host |
//! | D2 | iteration over `HashMap`/`HashSet` | iteration order is seeded per process; anything folded from it can differ run-to-run |
//! | D3 | ambient randomness (`thread_rng`, `RandomState`, `DefaultHasher`, `OsRng`, ...) | all randomness must flow from `simkit::rng::SplitMix64` seeds |
//! | D4 | thread spawn / channels outside `simkit::sweep` | one sanctioned home for parallelism keeps the `--jobs N == --jobs 1` proof small |
//! | D5 | float arithmetic inside a spawned closure | float addition is not associative; cross-thread float folds must go through `ReportBuilder::merge_report`'s index-ordered fold |
//! | D6 | heap/queue ordering on bare `SimTime` (a `BinaryHeap` whose key names `SimTime` without the `EventKey` wrapper) | equal-time entries then pop in heap-internal order, which is not part of any contract; key events with `simkit::events::EventKey`'s `(time, host, seq)` tie-break |
//! | U1 | public quantity params/fields named `*_bytes`/`*_bps`/`*_nanos` (or exactly `bytes`/`bps`/`nanos`) declared as bare integers in model crates | quantities must carry their dimension in the type (`simkit::units::Bytes`, `simkit::units::Bps`, `simkit::SimDuration`), so a bits/bytes or ns/ms mix-up is a compile error, not a silently wrong golden |
//! | U2 | lossy `as f64`/`as u64`/`as u32` casts in model code outside `simkit::units` | every float↔int boundary must go through the audited `simkit::units` helpers (`to_f64`, `ratio`, `f64_to_u64`, ...), so saturation and rounding semantics are defined in exactly one place |
//!
//! # How it works (and what it cannot see)
//!
//! There is no `syn` available to an offline workspace, so this is a
//! *token* scanner, not an AST pass: source is stripped of comments
//! and string literals (preserving line structure), `#[cfg(test)]`
//! regions are tracked by brace depth, and each lint matches
//! word-bounded token patterns. For D2 the scanner additionally
//! tracks, per file, which identifiers are declared with a
//! `HashMap`/`HashSet` type (let bindings, struct fields, `type`
//! aliases) and flags iteration through those names. The documented
//! limits:
//!
//! * same-named bindings of different types in one file share a
//!   verdict (over-approximation — suppress via `detlint.toml`);
//! * a hash container smuggled through a function boundary or a
//!   fully-inferred binding is invisible (under-approximation — the
//!   golden diffs remain the backstop);
//! * an iteration immediately re-ordered (same or next line contains
//!   `sort`, or collects into a `BTreeMap`/`BTreeSet`) is accepted.
//!
//! Findings are suppressible only through a checked-in
//! [`Allowlist`] (`detlint.toml`), and every entry must carry a
//! non-empty `reason`.

use std::fmt;

mod allowlist;
mod scan;
mod strip;

pub use allowlist::{parse_allowlist, AllowEntry, Allowlist};
pub use scan::lint_source;
pub use strip::{strip_source, test_lines};

/// A determinism lint class. See the crate docs for the catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    /// Wall-clock time reads.
    D1,
    /// Iteration over hash-ordered containers.
    D2,
    /// Ambient (non-`SplitMix64`) randomness.
    D3,
    /// Thread spawn / channel use outside `simkit::sweep`.
    D4,
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

impl Lint {
    /// All lints, in id order.
    pub const ALL: [Lint; 8] = [
        Lint::D1,
        Lint::D2,
        Lint::D3,
        Lint::D4,
        Lint::D5,
        Lint::D6,
        Lint::U1,
        Lint::U2,
    ];

    /// Parses `"D1"`..`"D6"`, `"U1"`, `"U2"`.
    pub fn from_id(s: &str) -> Option<Lint> {
        match s {
            "D1" => Some(Lint::D1),
            "D2" => Some(Lint::D2),
            "D3" => Some(Lint::D3),
            "D4" => Some(Lint::D4),
            "D5" => Some(Lint::D5),
            "D6" => Some(Lint::D6),
            "U1" => Some(Lint::U1),
            "U2" => Some(Lint::U2),
            _ => None,
        }
    }

    /// The short id (`"D1"`..`"D6"`, `"U1"`, `"U2"`).
    pub fn id(self) -> &'static str {
        match self {
            Lint::D1 => "D1",
            Lint::D2 => "D2",
            Lint::D3 => "D3",
            Lint::D4 => "D4",
            Lint::D5 => "D5",
            Lint::D6 => "D6",
            Lint::U1 => "U1",
            Lint::U2 => "U2",
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
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
    /// The offending source line (original, untrimmed of code; used
    /// for allowlist `contains` matching).
    pub source_line: String,
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
pub struct FileContext<'a> {
    /// Workspace-relative path, `/`-separated.
    pub path: &'a str,
}

impl<'a> FileContext<'a> {
    /// Creates a context for a workspace-relative path.
    pub fn new(path: &'a str) -> Self {
        FileContext { path }
    }

    /// Files the linter refuses to scan at all: build output and the
    /// linter's own intentionally-violating test fixtures.
    pub fn skip_entirely(&self) -> bool {
        self.path.starts_with("target/")
            || self.path.contains("/target/")
            || self.path.contains("tests/fixtures/")
    }

    /// True if the whole file is test code (integration test trees).
    pub fn whole_file_test(&self) -> bool {
        self.path.starts_with("tests/") || self.path.contains("/tests/")
    }

    fn in_crate(&self, name: &str) -> bool {
        let prefix = format!("crates/{name}/");
        self.path.starts_with(&prefix)
    }

    /// Crates whose code models physical quantities — where the U1/U2
    /// unit-safety lints apply. `bench`, `traces`, `detlint` and the
    /// vendored `loom`/`proptest` shims move tool-side numbers, not
    /// modeled bytes or bandwidths.
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

    /// Whether `lint` applies to this file at all (test-line handling
    /// is separate, see [`Self::lint_applies_in_tests`]).
    ///
    /// * `crates/bench` measures real elapsed time by design — D1 off.
    /// * `crates/loom` is the concurrency-exploration shim: its whole
    ///   purpose is spawning threads on perturbed schedules — D1, D4
    ///   and D5 off.
    /// * `crates/simkit/src/sweep.rs` is the one sanctioned home of
    ///   thread spawn and channels — D4 off there and only there.
    /// * U1/U2 apply only in model crates (see `in_model_crate`),
    ///   and never in `simkit`'s `units`/`clock`/`rng` modules — those
    ///   are where the raw-integer math is supposed to live.
    pub fn lint_applies(&self, lint: Lint) -> bool {
        match lint {
            Lint::D1 => !self.in_crate("bench") && !self.in_crate("loom"),
            Lint::D2 | Lint::D3 | Lint::D6 => true,
            Lint::D4 => !self.in_crate("loom") && self.path != "crates/simkit/src/sweep.rs",
            Lint::D5 => !self.in_crate("loom"),
            Lint::U1 | Lint::U2 => self.in_model_crate() && !self.units_sanctioned(),
        }
    }

    /// Whether `lint` still applies on test-only lines.
    ///
    /// Tests legitimately spawn threads (to *test* the concurrent
    /// structures), iterate model hash maps whose fold is
    /// assertion-internal, and build throwaway time-keyed heaps whose
    /// pop order the assertion itself pins down, so D2, D4, D5 and D6
    /// are off; D1 and D3 stay on — a test reading the wall clock or
    /// ambient randomness is a flaky test. U1/U2 are off too: tests
    /// legitimately compare newtype arithmetic against raw-integer
    /// reference formulas.
    pub fn lint_applies_in_tests(lint: Lint) -> bool {
        matches!(lint, Lint::D1 | Lint::D3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_ids_round_trip() {
        for l in Lint::ALL {
            assert_eq!(Lint::from_id(l.id()), Some(l));
        }
        assert_eq!(Lint::from_id("D9"), None);
    }

    #[test]
    fn context_policy_matrix() {
        let bench = FileContext::new("crates/bench/src/bin/tables.rs");
        assert!(!bench.lint_applies(Lint::D1));
        assert!(bench.lint_applies(Lint::D2));

        let sweep = FileContext::new("crates/simkit/src/sweep.rs");
        assert!(!sweep.lint_applies(Lint::D4));
        assert!(sweep.lint_applies(Lint::D5));

        let loom = FileContext::new("crates/loom/src/lib.rs");
        assert!(!loom.lint_applies(Lint::D4));
        assert!(!loom.lint_applies(Lint::D5));
        assert!(loom.lint_applies(Lint::D3));

        let fixtures = FileContext::new("crates/detlint/tests/fixtures/d1.rs");
        assert!(fixtures.skip_entirely());

        let itest = FileContext::new("crates/nfs/tests/coherence_props.rs");
        assert!(itest.whole_file_test());
        assert!(FileContext::lint_applies_in_tests(Lint::D1));
        assert!(!FileContext::lint_applies_in_tests(Lint::D4));

        // D6 applies in every crate's library code — including the
        // event module that defines the sanctioned wrapper — but not
        // on test lines.
        assert!(FileContext::new("crates/simkit/src/events.rs").lint_applies(Lint::D6));
        assert!(loom.lint_applies(Lint::D6));
        assert!(!FileContext::lint_applies_in_tests(Lint::D6));

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
            "crates/loom/src/lib.rs",
            "crates/proptest/src/lib.rs",
            "crates/traces/src/lib.rs",
        ] {
            let f = FileContext::new(tool);
            assert!(!f.lint_applies(Lint::U1), "{tool}");
            assert!(!f.lint_applies(Lint::U2), "{tool}");
        }
        assert!(!FileContext::lint_applies_in_tests(Lint::U1));
        assert!(!FileContext::lint_applies_in_tests(Lint::U2));
    }

    #[test]
    fn diagnostic_display_is_clickable() {
        let d = Diagnostic {
            path: "crates/net/src/lib.rs".into(),
            line: 42,
            lint: Lint::D2,
            message: "iteration over `HashMap`".into(),
            source_line: String::new(),
        };
        assert_eq!(
            d.to_string(),
            "crates/net/src/lib.rs:42: D2: iteration over `HashMap`"
        );
    }
}
