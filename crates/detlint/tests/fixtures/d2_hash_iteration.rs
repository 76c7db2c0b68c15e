//! Fixture: HashMap/HashSet iteration feeding output (D2). Expected: D2
//! on the `.iter()` chain (8), the `for` loop (13) and the `.keys()` line
//! of the multi-line chain (26); NOT on the sorted case (its `#[expect]`).

use std::collections::{HashMap, HashSet};

pub fn summarize(counts: &HashMap<String, u64>) -> u64 {
    counts.iter().map(|(_, v)| v).sum()
}

pub fn render(seen: &HashSet<u32>) -> String {
    let mut out = String::new();
    for id in seen.iter() {
        out.push_str(&id.to_string());
    }
    out
}

pub struct Stats {
    counts: HashMap<String, u64>,
}

impl Stats {
    pub fn names(&self) -> Vec<String> {
        self.counts
            .keys()
            .cloned()
            .collect()
    }

    #[expect(clippy::disallowed_methods, reason = "sorted on the next line")]
    pub fn sorted_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.counts.keys().cloned().collect();
        v.sort();
        v
    }
}
