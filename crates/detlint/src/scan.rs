//! The lint pass proper: word-bounded pattern matching over stripped
//! source, and the walk from a module declaration to its file.

use crate::strip::{strip_source, test_lines};
use crate::{Diagnostic, FileContext, Lint};
use std::collections::BTreeMap;

/// Bare integer types a U1 quantity name must not be declared with.
const U1_INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Float-producing method calls that mark a line as float context for
/// U2's float→int check.
const U2_FLOAT_CALLS: &[&str] = &[
    ".round()", ".ceil()", ".floor()", ".trunc()", ".ln(", ".log2(", ".log10(", ".sqrt(", ".exp(",
    ".powf(", ".powi(",
];

/// Lints a tree of files, each keyed by its workspace-relative,
/// `/`-separated path. A module that its parent declares as
/// `#[cfg(test)] mod name;` is test code as a whole, with every module
/// below it; every other file goes through [`lint_source`].
pub fn lint_files(files: &BTreeMap<String, String>) -> Vec<Diagnostic> {
    let tests: Vec<String> = files
        .iter()
        .flat_map(|(path, src)| test_module_prefixes(path, src))
        .collect();
    files
        .iter()
        .filter(|(path, _)| !tests.iter().any(|t| path.starts_with(t.as_str())))
        .flat_map(|(path, src)| lint_source(path, src))
        .collect()
}

/// Path prefixes of the out-of-line modules `src` declares on test
/// lines: `name.rs` and `name/`, beside a `lib.rs`, `main.rs` or
/// `mod.rs` and below any other file. `#[path]` is not followed.
fn test_module_prefixes(rel_path: &str, src: &str) -> Vec<String> {
    let stem = rel_path.trim_end_matches(".rs");
    let dir = match stem.rsplit_once('/') {
        Some((dir, "lib" | "main" | "mod")) => dir,
        _ => stem,
    };
    let stripped = strip_source(src);
    let lines = stripped.split('\n').zip(test_lines(&stripped));
    lines
        .filter(|&(_, test)| test)
        .filter_map(|(line, _)| {
            let mut words = line.split_whitespace().skip_while(|&w| w != "mod");
            words.nth(1)?.strip_suffix(';')
        })
        .flat_map(|name| [format!("{dir}/{name}.rs"), format!("{dir}/{name}/")])
        .collect()
}

/// Lints one file. `rel_path` must be workspace-relative and
/// `/`-separated; `src` is the raw source text.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let ctx = FileContext::new(rel_path);
    // No lint applies to test code (see `FileContext::lint_applies`).
    if ctx.skip_entirely() || ctx.whole_file_test() {
        return Vec::new();
    }
    let stripped = strip_source(src);
    let in_test = test_lines(&stripped);
    let lines: Vec<&str> = stripped.split('\n').collect();

    let mut out = Vec::new();
    let mut push = |lint: Lint, lineno0: usize, message: String| {
        out.push(Diagnostic {
            path: rel_path.to_string(),
            line: lineno0 + 1,
            lint,
            message,
        });
    };

    let active = |lint: Lint, lineno0: usize| -> bool {
        ctx.lint_applies(lint) && !in_test.get(lineno0).copied().unwrap_or(false)
    };

    // D6: a BinaryHeap ordered on bare SimTime. Like the other lints
    // this is a token heuristic: a line (or the line plus its
    // continuation, for declarations whose generics wrap) that names
    // both `BinaryHeap` and `SimTime` is keying a heap on raw times
    // unless the sanctioned `EventKey` wrapper appears in the same
    // window. A heap key built far from its declaration is invisible
    // (documented under-approximation); the EventQueue property tests
    // are the backstop.
    for (i, line) in lines.iter().enumerate() {
        if !contains_word(line, "BinaryHeap") || !active(Lint::D6, i) {
            continue;
        }
        let window = match lines.get(i + 1) {
            Some(next) => format!("{line} {next}"),
            None => (*line).to_string(),
        };
        if contains_word(&window, "SimTime") && !contains_word(&window, "EventKey") {
            push(
                Lint::D6,
                i,
                "heap ordered on bare `SimTime` — equal-time entries pop in \
                 heap-internal order, which no run-to-run contract covers; key \
                 events with simkit::events::EventKey's (time, host, seq) \
                 tie-break (or use simkit::EventQueue)"
                    .to_string(),
            );
        }
    }

    // U1: quantity-named identifiers (`bytes`/`bps`/`nanos` or a
    // `_bytes`/`_bps`/`_nanos` suffix) declared with a bare integer
    // type. The match is case-sensitive, so SCREAMING_CASE constants
    // (`SEGMENT_HEADER_BYTES: u64`) — compile-time protocol facts, not
    // flowing quantities — do not fire.
    for (i, line) in lines.iter().enumerate() {
        if let Some((ident, ty, suggest)) = u1_bare_quantity(line) {
            if active(Lint::U1, i) {
                push(
                    Lint::U1,
                    i,
                    format!(
                        "bare integer quantity `{ident}: {ty}` — declare it as {suggest} \
                         so the dimension is carried by the type; wrap with ::new() at \
                         the boundary and unwrap with .get() where raw math is needed"
                    ),
                );
            }
        }
    }

    // U2: lossy numeric casts outside the sanctioned simkit::units
    // helpers. `as f64`/`as f32` always lose (u64 has more mantissa
    // than f64); `as u64`/`as u32`/`as usize` are flagged only in
    // float context — int→int narrowing is a different (documented,
    // unlinted) class.
    for (i, line) in lines.iter().enumerate() {
        for pat in ["as f64", "as f32"] {
            if contains_word(line, pat) && active(Lint::U2, i) {
                push(
                    Lint::U2,
                    i,
                    format!(
                        "lossy cast `{pat}` outside simkit::units — use units::to_f64 \
                         (or units::ratio for a quotient) so the int→float boundary \
                         is audited in one place"
                    ),
                );
            }
        }
        for (pat, helper) in [
            ("as u64", "units::f64_to_u64"),
            ("as u32", "units::f64_to_u32"),
            ("as usize", "units::f64_to_usize"),
        ] {
            if contains_word(line, pat) && float_context(line) && active(Lint::U2, i) {
                push(
                    Lint::U2,
                    i,
                    format!(
                        "lossy float→int cast `{pat}` outside simkit::units — use \
                         {helper} (saturating, NaN→0) so rounding semantics are \
                         audited in one place"
                    ),
                );
            }
        }
    }

    // D5: float tokens inside a spawned closure.
    for (start, end) in spawn_spans(&stripped) {
        let span = &stripped[start..end];
        if let Some(off) = find_float_token(span) {
            let lineno0 = stripped[..start + off].matches('\n').count();
            if active(Lint::D5, lineno0) {
                push(
                    Lint::D5,
                    lineno0,
                    "float arithmetic inside a spawned closure — float addition is not \
                     associative across schedules; fold per-cell fragments through \
                     ReportBuilder::merge_report in index order"
                        .to_string(),
                );
            }
        }
    }

    out.sort_by_key(|d| (d.line, d.lint));
    // One diagnostic per (line, lint): a `use` line importing two
    // banned names is one finding, not two.
    out.dedup_by(|a, b| a.line == b.line && a.lint == b.lint);
    out
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Substring match with identifier boundaries on both ends (so
/// `thread_rng` does not match inside `other_thread_rng_state`, and
/// `rand::` requires `rand` to be a full path segment).
fn contains_word(line: &str, pat: &str) -> bool {
    let first_is_ident = pat.chars().next().is_some_and(is_ident_char);
    let last_is_ident = pat.chars().next_back().is_some_and(is_ident_char);
    let mut from = 0;
    while let Some(pos) = line[from..].find(pat) {
        let start = from + pos;
        let end = start + pat.len();
        let ok_before =
            !first_is_ident || !line[..start].chars().next_back().is_some_and(is_ident_char);
        let ok_after = !last_is_ident || !line[end..].chars().next().is_some_and(is_ident_char);
        if ok_before && ok_after {
            return true;
        }
        from = start + 1;
    }
    false
}

/// Trailing identifier of `s`, if any.
fn trailing_ident(s: &str) -> Option<String> {
    let end = s.len();
    let start = s.rfind(|c: char| !is_ident_char(c)).map_or(0, |p| p + 1);
    let id = &s[start..end];
    (!id.is_empty() && !id.chars().next().is_some_and(|c| c.is_ascii_digit()))
        .then(|| id.to_string())
}

/// If `line` declares a quantity-named identifier with a bare integer
/// type (`foo_bytes: u64`, `bps: Cell<u64>`, ...), returns
/// `(ident, int_type, suggested_replacement)`.
fn u1_bare_quantity(line: &str) -> Option<(String, &'static str, &'static str)> {
    let b = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(':') {
        let at = from + pos;
        from = at + 1;
        // Skip `::` path separators (either side).
        if b.get(at + 1) == Some(&b':') || (at > 0 && b[at - 1] == b':') {
            from = at + 2;
            continue;
        }
        let Some(ident) = trailing_ident(&line[..at]) else {
            continue;
        };
        let Some(suggest) = u1_suggestion(&ident) else {
            continue;
        };
        if let Some(ty) = bare_int_type_after(&line[at + 1..]) {
            return Some((ident, ty, suggest));
        }
    }
    None
}

/// The `simkit` replacement for a quantity-suffixed identifier, if the
/// name marks one. Case-sensitive so SCREAMING_CASE consts stay out.
fn u1_suggestion(ident: &str) -> Option<&'static str> {
    if ident == "bytes" || ident.ends_with("_bytes") {
        Some("simkit::units::Bytes")
    } else if ident == "bps" || ident.ends_with("_bps") {
        Some("simkit::units::Bps")
    } else if ident == "nanos" || ident.ends_with("_nanos") {
        Some("simkit::SimDuration")
    } else {
        None
    }
}

/// If the text after a declaration colon is a bare integer type —
/// possibly behind references or wrapper generics (`&`, `Option<`,
/// `Cell<`, ...) — returns that type token.
fn bare_int_type_after(rest: &str) -> Option<&'static str> {
    let mut rest = rest.trim_start();
    loop {
        if let Some(r) = rest.strip_prefix('&') {
            rest = r.trim_start();
            continue;
        }
        let id_len = rest.chars().take_while(|&c| is_ident_char(c)).count();
        if id_len > 0 && !U1_INT_TYPES.contains(&&rest[..id_len]) {
            let after = rest[id_len..].trim_start();
            if let Some(inner) = after.strip_prefix('<') {
                rest = inner.trim_start();
                continue;
            }
        }
        break;
    }
    let id_len = rest.chars().take_while(|&c| is_ident_char(c)).count();
    U1_INT_TYPES
        .iter()
        .find(|&&t| t == &rest[..id_len])
        .copied()
}

/// Is there float math on this line (literal, `f64`/`f32` word, or a
/// float-producing method call)?
fn float_context(line: &str) -> bool {
    if contains_word(line, "f64") || contains_word(line, "f32") {
        return true;
    }
    if U2_FLOAT_CALLS.iter().any(|p| line.contains(p)) {
        return true;
    }
    // Float literal: `1.5` or exponent form `1e9` (but not a hex
    // literal like `0x1e9`, where `e` is just a digit).
    let b = line.as_bytes();
    (1..b.len().saturating_sub(1)).any(|i| {
        if !b[i - 1].is_ascii_digit() || !b[i + 1].is_ascii_digit() {
            return false;
        }
        match b[i] {
            b'.' => true,
            b'e' | b'E' => {
                let start = (0..i)
                    .rev()
                    .take_while(|&j| is_ident_char(b[j] as char))
                    .last();
                let start = start.unwrap_or(i);
                !line[start..].starts_with("0x") && !line[start..].starts_with("0X")
            }
            _ => false,
        }
    })
}

/// Byte spans of arguments to `spawn(...)` calls (the closure body a
/// worker thread runs).
fn spawn_spans(stripped: &str) -> Vec<(usize, usize)> {
    let b = stripped.as_bytes();
    let mut spans = Vec::new();
    let mut from = 0;
    while let Some(pos) = stripped[from..].find("spawn(") {
        let start = from + pos;
        // Word boundary before `spawn`.
        let bounded = start == 0 || !is_ident_char(stripped[..start].chars().next_back().unwrap());
        let open = start + "spawn".len();
        from = open;
        if !bounded {
            continue;
        }
        let mut depth = 0usize;
        let mut j = open;
        while j < b.len() {
            match b[j] {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        spans.push((open, j.min(b.len())));
    }
    spans
}

/// Byte offset of the first float token (`f32`/`f64` word or a float
/// literal like `1.5`) in `span`, if any.
fn find_float_token(span: &str) -> Option<usize> {
    for pat in ["f64", "f32"] {
        let mut from = 0;
        while let Some(pos) = span[from..].find(pat) {
            let start = from + pos;
            from = start + 1;
            let ok_before = !span[..start].chars().next_back().is_some_and(is_ident_char);
            let ok_after = !span[start + 3..].chars().next().is_some_and(is_ident_char);
            if ok_before && ok_after {
                return Some(start);
            }
        }
    }
    // Float literal: digit '.' digit.
    let b = span.as_bytes();
    (1..b.len().saturating_sub(1))
        .find(|&i| b[i] == b'.' && b[i - 1].is_ascii_digit() && b[i + 1].is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lints_of(path: &str, src: &str) -> Vec<(Lint, usize)> {
        lint_source(path, src)
            .into_iter()
            .map(|d| (d.lint, d.line))
            .collect()
    }

    #[test]
    fn d5_fires_on_floats_in_spawn() {
        let src = "\
fn f() {
    std::thread::spawn(move || {
        let mut acc: f64 = 0.0;
        acc += 1.5;
    });
}
";
        let got = lints_of("crates/simkit/src/sweep.rs", src);
        assert_eq!(got, vec![(Lint::D5, 3)], "{got:?}");
    }

    #[test]
    fn d6_fires_on_simtime_keyed_heaps_only() {
        let bad = "struct Cal { heap: BinaryHeap<Reverse<SimTime>> }\n";
        assert_eq!(lints_of("crates/x/src/lib.rs", bad), vec![(Lint::D6, 1)]);
        // Wrapped declarations split across lines are still seen.
        let split = "struct Cal {\n    heap: BinaryHeap<\n        Reverse<(SimTime, u32)>>,\n}\n";
        assert_eq!(lints_of("crates/x/src/lib.rs", split), vec![(Lint::D6, 2)]);
        // The sanctioned EventKey wrapper passes...
        let good = "struct Cal { heap: BinaryHeap<Reverse<(EventKey, u32, u32)>> }\n";
        assert!(lints_of("crates/x/src/lib.rs", good).is_empty());
        // ...as does a heap of something other than times.
        let other = "struct Q { heap: BinaryHeap<(u64, usize)> }\n";
        assert!(lints_of("crates/x/src/lib.rs", other).is_empty());
        // Off on test lines: a test pinning pop order with raw times
        // is asserting about its own toy heap.
        let test = "#[cfg(test)]\nmod tests {\n    fn t() { let h: BinaryHeap<SimTime> = BinaryHeap::new(); let _ = h; }\n}\n";
        assert!(lints_of("crates/x/src/lib.rs", test).is_empty());
    }

    #[test]
    fn u1_fires_on_bare_quantity_declarations() {
        // Params, struct fields, and wrapper generics all fire.
        let param = "pub fn send(&self, payload_bytes: u64) {}\n";
        assert_eq!(
            lints_of("crates/net/src/lib.rs", param),
            vec![(Lint::U1, 1)]
        );
        let field = "pub struct L { pub bandwidth_bps: Cell<u64> }\n";
        assert_eq!(
            lints_of("crates/net/src/lib.rs", field),
            vec![(Lint::U1, 1)]
        );
        let opt = "pub core_bandwidth_bps: Option<u64>,\n";
        assert_eq!(
            lints_of("crates/core/src/testbed.rs", opt),
            vec![(Lint::U1, 1)]
        );
        // The newtype declaration itself is clean.
        let typed = "pub struct L { pub bandwidth_bps: Bps }\n";
        assert!(lints_of("crates/net/src/lib.rs", typed).is_empty());
        // SCREAMING_CASE protocol constants are not flowing quantities.
        let konst = "pub const SEGMENT_HEADER_BYTES: u64 = 66;\n";
        assert!(lints_of("crates/net/src/lib.rs", konst).is_empty());
        // Outside the model crates the lint is off entirely.
        assert!(lints_of("crates/bench/src/bin/tables.rs", param).is_empty());
        // Suggestions name the replacement type.
        let d = &lint_source("crates/net/src/lib.rs", param)[0];
        assert!(d.message.contains("simkit::units::Bytes"), "{}", d.message);
        let n = "fn wait(deadline_nanos: u64) {}\n";
        let d = &lint_source("crates/rpc/src/lib.rs", n)[0];
        assert!(d.message.contains("simkit::SimDuration"), "{}", d.message);
    }

    #[test]
    fn u1_is_off_on_test_lines_and_sanctioned_files() {
        let src = "\
#[cfg(test)]
mod tests {
    fn helper(bytes: u64) -> u64 { bytes }
}
";
        assert!(lints_of("crates/net/src/lib.rs", src).is_empty());
        let clock = "pub const fn from_nanos(nanos: u64) -> SimDuration { SimDuration(nanos) }\n";
        assert!(lints_of("crates/simkit/src/clock.rs", clock).is_empty());
        // The same declaration in unsanctioned simkit code fires.
        assert_eq!(
            lints_of("crates/simkit/src/histogram.rs", clock),
            vec![(Lint::U1, 1)]
        );
    }

    #[test]
    fn u2_fires_on_lossy_casts() {
        let f = "fn f(n: u64) -> f64 { n as f64 }\n";
        assert_eq!(lints_of("crates/cpu/src/lib.rs", f), vec![(Lint::U2, 1)]);
        // Float→int only in float context...
        let rounded = "fn g(x: f64) -> u64 { x.round() as u64 }\n";
        assert_eq!(
            lints_of("crates/cpu/src/lib.rs", rounded),
            vec![(Lint::U2, 1)]
        );
        let scaled = "let n = (secs * 1e9) as u64;\n";
        assert_eq!(
            lints_of("crates/cpu/src/lib.rs", scaled),
            vec![(Lint::U2, 1)]
        );
        // ...not for int→int narrowing or widening.
        let index = "let i = (pct * 1.5).round() as usize;\n";
        let d = &lint_source("crates/cpu/src/lib.rs", index);
        assert_eq!(d.len(), 1);
        assert!(
            d[0].message.contains("units::f64_to_usize"),
            "{}",
            d[0].message
        );
        let narrow = "let lo = (x >> 32) as u32;\n";
        assert!(lints_of("crates/cpu/src/lib.rs", narrow).is_empty());
        let widen = "let w = nblocks as u64 * 4096;\n";
        assert!(lints_of("crates/cpu/src/lib.rs", widen).is_empty());
        // Off in the sanctioned helper module and on test lines.
        assert!(lints_of("crates/simkit/src/units.rs", f).is_empty());
        let test = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = 3u64 as f64; }\n}\n";
        assert!(lints_of("crates/cpu/src/lib.rs", test).is_empty());
        // The message names the sanctioned helper.
        let d = &lint_source("crates/cpu/src/lib.rs", rounded)[0];
        assert!(d.message.contains("units::f64_to_u64"), "{}", d.message);
    }

    #[test]
    fn patterns_in_strings_and_comments_do_not_fire() {
        let src = "\
fn f() {
    // BinaryHeap<SimTime> would be wrong here.
    let msg = \"n as f64, x.round() as u64, BinaryHeap<SimTime>\";
    let _ = msg;
}
";
        assert!(lints_of("crates/net/src/lib.rs", src).is_empty());
    }

    #[test]
    fn test_modules_resolve_next_to_their_parent() {
        let src = "mod dir;\n#[cfg(test)]\nmod cache_table;\n#[cfg(test)]\nmod tests {}\n";
        let lib = test_module_prefixes("crates/ext3/src/lib.rs", src);
        assert_eq!(
            lib,
            [
                "crates/ext3/src/cache_table.rs",
                "crates/ext3/src/cache_table/"
            ]
        );
        let fs = test_module_prefixes("crates/ext3/src/fs.rs", src);
        assert_eq!(
            fs,
            [
                "crates/ext3/src/fs/cache_table.rs",
                "crates/ext3/src/fs/cache_table/"
            ]
        );
    }

    #[test]
    fn word_boundaries_hold() {
        assert!(contains_word("let h: BinaryHeap<SimTime>;", "SimTime"));
        assert!(!contains_word("let t: SimTimeish;", "SimTime"));
        assert!(contains_word("n as u64", "as u64"));
        assert!(!contains_word("n as u640", "as u64"));
        assert!(!contains_word("alias f64", "as f64"));
    }
}
