//! Fixture: a trace-ID-keyed `HashMap` — the shape the causal tracer
//! must avoid — iterated unordered (D2) versus drained through a sort
//! (clean). Expected: D2 on the `for` loop (line 10) and the `.values()`
//! sum (17); NOT on the collect-then-sort export (its `#[expect]`).

use std::collections::HashMap;

pub fn dump_spans(spans_by_trace: &HashMap<u64, Vec<String>>) -> String {
    let mut out = String::new();
    for (trace, ops) in spans_by_trace.iter() {
        out.push_str(&format!("{trace:x}: {} spans\n", ops.len()));
    }
    out
}

pub fn total_ns(critical_path_ns: &HashMap<u64, u64>) -> u64 {
    critical_path_ns.values().sum()
}

#[expect(clippy::disallowed_methods, reason = "sorted on the next line")]
pub fn ordered_export(critical_path_ns: &HashMap<u64, u64>) -> Vec<(u64, u64)> {
    let mut rows: Vec<(u64, u64)> = critical_path_ns.iter().map(|(k, v)| (*k, *v)).collect();
    rows.sort();
    rows
}
