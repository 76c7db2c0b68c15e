//! Fixture: a `HashSet` that reaches its iteration through a function
//! boundary, bound by inference inside a generic helper. The token
//! scanner could not see it (no binding here names a hash type);
//! clippy sees the type. Expected: D2 on the `.iter()` call and the
//! `for` loop.

use std::collections::HashSet;
use std::hash::Hash;

fn distinct<T: Clone + Eq + Hash>(xs: &[T]) -> HashSet<T> {
    xs.iter().cloned().collect()
}

pub fn first_distinct<T: Clone + Eq + Hash>(xs: &[T]) -> Option<T> {
    let set = distinct(xs);
    set.iter().next().cloned()
}

pub fn render<T: Clone + Eq + Hash + ToString>(xs: &[T]) -> String {
    let mut out = String::new();
    for x in &distinct(xs) {
        out.push_str(&x.to_string());
    }
    out
}
