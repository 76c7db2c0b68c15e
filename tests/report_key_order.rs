//! Regression guard for the determinism contract's key-order half:
//! every map section of the machine-readable report (`tables --json`
//! emits one [`RunReport`] line per runner) must list its keys in
//! sorted order, so equal-seed runs are byte-comparable across
//! processes. This is what the detlint D2 lint enforces statically;
//! these tests pin the observable behavior after the HashMap→BTreeMap
//! conversions in `traces`, `rpc`, `iscsi`, `nfs`, and `ext3`.

use ipstorage::core::experiments::micro::{matrix, CacheState};
use ipstorage::core::report::{ChannelStats, RunReport};
use ipstorage::core::RunOptions;

/// Extracts the top-level keys of the JSON object that follows
/// `"section":{` — enough of a parser for the report's flat schema
/// (values are integers or one-level objects, and keys contain no
/// escaped quotes).
fn object_keys(json: &str, section: &str) -> Vec<String> {
    let marker = format!("\"{section}\":{{");
    let start = json
        .find(&marker)
        .unwrap_or_else(|| panic!("section {section} missing from {json}"))
        + marker.len();
    let mut keys = Vec::new();
    let mut depth = 1usize;
    let mut expecting_key = true;
    let mut chars = json[start..].char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            ',' if depth == 1 => expecting_key = true,
            '"' if depth == 1 && expecting_key => {
                let rest = &json[start + i + 1..];
                let end = rest.find('"').expect("unterminated key");
                keys.push(rest[..end].to_string());
                expecting_key = false;
                for _ in 0..end + 1 {
                    chars.next();
                }
            }
            _ => {}
        }
    }
    keys
}

fn assert_sorted(section: &str, keys: &[String]) {
    let mut sorted = keys.to_vec();
    sorted.sort();
    assert_eq!(
        keys,
        &sorted[..],
        "{section} keys must serialize in sorted order"
    );
}

/// A real experiment's report — produced by the same path `tables
/// --json` uses — must emit every map section in sorted key order.
#[test]
fn real_report_sections_are_key_sorted() {
    let options = RunOptions {
        jobs: 1,
        ..RunOptions::default()
    };
    let (_, report) = matrix("micro", options, CacheState::Cold, &["mkdir", "stat"], &[0]);
    let json = report.to_json();
    for section in ["counters", "histograms", "channels", "cpu_busy_ns"] {
        let keys = object_keys(&json, section);
        assert_sorted(section, &keys);
    }
    let counters = object_keys(&json, "counters");
    assert!(
        counters.len() > 1,
        "need at least two counters for the order check to bite"
    );
}

/// Adversarial insertion order: a report built worst-key-first still
/// serializes sorted, because the storage itself is ordered — there is
/// no sort-at-print step to forget.
#[test]
fn adversarial_insertion_order_serializes_sorted() {
    let mut r = RunReport {
        name: "order".into(),
        runs: 1,
        ..RunReport::default()
    };
    for key in ["zeta", "mid", "alpha"] {
        r.counters.insert(key.into(), 1);
        r.cpu_busy_ns.insert(key.into(), 2);
        r.channels.insert(
            key.into(),
            ChannelStats {
                messages: 1,
                bytes: 8.into(),
                dropped: 0,
            },
        );
    }
    let json = r.to_json();
    for section in ["counters", "channels", "cpu_busy_ns"] {
        assert_eq!(
            object_keys(&json, section),
            vec!["alpha".to_string(), "mid".into(), "zeta".into()]
        );
    }
}

/// The trace-analysis paths converted from HashMap to BTreeMap must
/// stay value-identical across repeated runs — their folds are now
/// index-ordered, so two equal inputs give byte-equal floats.
#[test]
fn trace_analysis_is_repeatable() {
    use ipstorage::traces::{
        generate, sharing_analysis, simulate_metadata_cache, Profile, TraceConfig,
    };
    let events = generate(TraceConfig {
        profile: Profile::Eecs,
        duration_s: 3_600,
        clients: 8,
        dirs: 200,
        events: 20_000,
        seed: 17,
    });
    let a = sharing_analysis(&events, &[60, 3600]);
    let b = sharing_analysis(&events, &[60, 3600]);
    assert_eq!(a, b);
    let c1 = simulate_metadata_cache(&events, 64);
    let c2 = simulate_metadata_cache(&events, 64);
    assert_eq!(c1, c2);
}
