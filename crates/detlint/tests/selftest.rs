//! Linter self-tests: each file under `tests/fixtures/` is fed to
//! [`lint_source`] under a fake workspace-relative path (the real
//! fixture path would be skipped — the scanner ignores
//! `tests/fixtures/` so the fixtures never fail the workspace gate)
//! and the resulting diagnostics are checked lint-by-lint and
//! line-by-line. The D1-D4 fixtures are clippy's: `clippy_fixtures.sh`
//! checks them.

use detlint::{lint_source, Lint};

fn lint_fixture(name: &str) -> Vec<detlint::Diagnostic> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    // Pretend the fixture lives in library code so every lint applies.
    // The units fixtures need a model-crate home (U1/U2 are scoped to
    // the quantity-modeling crates by policy); the determinism ones
    // keep a neutral path.
    let home = if name.starts_with('u') {
        "net"
    } else {
        "example"
    };
    lint_source(&format!("crates/{home}/src/{name}"), &src)
}

/// `(lint, line)` pairs, sorted, for compact expectations.
fn findings(name: &str) -> Vec<(Lint, usize)> {
    let mut v: Vec<(Lint, usize)> = lint_fixture(name)
        .iter()
        .map(|d| (d.lint, d.line))
        .collect();
    v.sort();
    v
}

#[test]
fn d5_flags_float_accumulation_in_spawn_only() {
    // Exactly one D5, in the float body, none in the integer body.
    assert_eq!(findings("d5_float_accumulation.rs"), vec![(Lint::D5, 11)]);
}

#[test]
fn d6_flags_simtime_keyed_heaps_but_not_the_eventkey_wrapper() {
    // The bare-`SimTime` heap field, the inline tuple-keyed queue,
    // and the declaration whose generics wrap onto the next line —
    // and nothing for the EventKey-keyed calendar or the heap that
    // never orders on virtual time.
    assert_eq!(
        findings("d6_unordered_event_keys.rs"),
        vec![(Lint::D6, 12), (Lint::D6, 16), (Lint::D6, 22)]
    );
}

#[test]
fn d6_flags_flow_timer_heaps_but_not_eventkey_deadlines() {
    // The congestion model's temptation case: per-flow RTO deadlines
    // heaped on bare `SimTime` (the struct field and the inline heap
    // in `bad_arm_rto`) — and nothing for the EventKey-keyed shape
    // `net::tcp` actually uses.
    assert_eq!(
        findings("d6_flow_timers.rs"),
        vec![(Lint::D6, 14), (Lint::D6, 18)]
    );
}

#[test]
fn u1_flags_bare_quantity_names_with_suggestions() {
    // The raw field, the raw param, and the two wrapper-generic
    // fields — nothing for the newtype field, the SCREAMING_CASE
    // constant, the non-quantity name, or the test helper.
    assert_eq!(
        findings("u1_bare_quantities.rs"),
        vec![
            (Lint::U1, 11),
            (Lint::U1, 15),
            (Lint::U1, 20),
            (Lint::U1, 24)
        ]
    );
    // Every diagnostic names the replacement type.
    for d in lint_fixture("u1_bare_quantities.rs") {
        let ok = d.message.contains("simkit::units::Bytes")
            || d.message.contains("simkit::units::Bps")
            || d.message.contains("simkit::SimDuration");
        assert!(ok, "no suggestion in: {}", d.message);
    }
}

#[test]
fn u2_flags_lossy_casts_with_helper_suggestions() {
    // int→float widening, `.round()` truncation, exponent-literal
    // scaling, a float index cast to `usize` — nothing for int→int
    // narrowing, hex literals, or test code.
    assert_eq!(
        findings("u2_lossy_casts.rs"),
        vec![
            (Lint::U2, 8),
            (Lint::U2, 13),
            (Lint::U2, 18),
            (Lint::U2, 34)
        ]
    );
    for d in lint_fixture("u2_lossy_casts.rs") {
        assert!(
            d.message.contains("units::"),
            "no helper suggestion in: {}",
            d.message
        );
    }
}

#[test]
fn clean_fixture_has_no_findings() {
    assert_eq!(findings("clean.rs"), vec![]);
}

/// The binary end to end, pointed at the fixtures: must exit nonzero
/// and name every violating file (the walker only skips `fixtures`
/// directories while descending, so using one as `--root` lints it).
#[test]
fn binary_exits_nonzero_on_fixture_violations() {
    let fixtures = format!("{}/tests/fixtures", env!("CARGO_MANIFEST_DIR"));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_detlint"))
        .args(["--root", &fixtures])
        .output()
        .expect("run detlint");
    assert!(
        !out.status.success(),
        "violating fixtures must fail the gate"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for file in [
        "d5_float_accumulation.rs",
        "d6_unordered_event_keys.rs",
        "d6_flow_timers.rs",
    ] {
        assert!(
            stdout.contains(file),
            "missing finding for {file}:\n{stdout}"
        );
    }
    assert!(
        !stdout.contains("clean.rs"),
        "clean fixture must not be flagged"
    );
    // Under `--root fixtures` the walker sees bare file names with no
    // `crates/<model>/` prefix, so the units lints are policy-exempt:
    // the U fixtures fire only when homed in a model crate (covered by
    // the `u1_`/`u2_` tests above).
    for file in ["u1_bare_quantities.rs", "u2_lossy_casts.rs"] {
        assert!(
            !stdout.contains(file),
            "units lints must stay scoped to model crates:\n{stdout}"
        );
    }
}

/// A module file declared `#[cfg(test)] mod name;` by its parent is
/// test code, as is every module below it, whether it lives in
/// `name.rs` or `name/mod.rs`; a library module beside it is linted.
/// Each of the four module files in `fixtures/test_modules` holds the
/// same D6 line.
#[test]
fn binary_skips_out_of_line_test_modules() {
    let tree = format!("{}/tests/fixtures/test_modules", env!("CARGO_MANIFEST_DIR"));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_detlint"))
        .args(["--root", &tree])
        .output()
        .expect("run detlint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let found: Vec<&str> = stdout
        .lines()
        .map(|l| &l[..l.find(" heap").unwrap()])
        .collect();
    assert_eq!(found, ["src/cal.rs:4: D6:"], "{stdout}");
}

/// The binary against the real workspace (its default root): the gate
/// CI runs must pass.
#[test]
fn binary_exits_zero_on_the_workspace() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_detlint"))
        .output()
        .expect("run detlint");
    assert!(
        out.status.success(),
        "workspace must be lint-clean:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The policy matrix in one place: library code may not fold floats
/// on its threads, test code is never linted, and the units lints stay
/// in model crates outside the sanctioned `simkit::units` module.
#[test]
fn policy_matrix_is_enforced_per_path() {
    let fold = "pub fn go() { std::thread::spawn(|| 1.5 + 2.5); }\n";
    assert_eq!(lint_source("crates/simkit/src/sweep.rs", fold).len(), 1);
    assert!(lint_source("crates/simkit/tests/x.rs", fold).is_empty());

    // Units lints run in model crates only, and the sanctioned
    // simkit::units boundary module is where the casts are allowed
    // to live.
    let quantity = "pub fn f(req_bytes: u64) -> f64 { req_bytes as f64 }\n";
    assert_eq!(lint_source("crates/nfs/src/client.rs", quantity).len(), 2);
    assert!(lint_source("crates/simkit/src/units.rs", quantity).is_empty());
    assert!(lint_source("crates/bench/src/bin/tables.rs", quantity).is_empty());
}
