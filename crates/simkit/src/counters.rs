//! Monotonic counters for message/byte accounting.
//!
//! Counters are the raw data behind every message-count column in the
//! paper's tables: protocol layers bump counters as they exchange
//! messages, and the experiment harness snapshots/deltas them around
//! each measured operation.
//!
//! Series are named by typed [`StatKey`]s:
//! values live in dense slots, and a dotted name is rendered — in name
//! order, so report bytes never depend on registration order — only
//! when a listing asks for it.

use crate::stat::{Chunk, Slots, StatKey};
use std::cell::Cell;

/// A set of monotonic `u64` counters, one per [`StatKey`].
///
/// Hot paths should obtain a [`CounterHandle`] once (at wiring time)
/// and bump it directly — a handle add is a single `Cell` store with
/// no lookup, no string formatting, and no allocation. An add by key
/// hashes the key's rendered name and allocates nothing once the
/// series exists.
///
/// # Example
///
/// ```
/// use simkit::Counters;
/// let c = Counters::new();
/// c.add("nfs.rpc_calls", 2);
/// assert_eq!(c.get("nfs.rpc_calls"), 2);
/// let snap = c.snapshot();
/// c.add("nfs.rpc_calls", 3);
/// assert_eq!(c.delta_since(&snap, "nfs.rpc_calls"), 3);
/// ```
#[derive(Debug, Default)]
pub struct Counters {
    slots: Slots<Cell<u64>>,
}

/// A live reference to one counter.
///
/// Handles stay valid across [`Counters::reset`] (reset zeroes the
/// shared cell in place), so components wired before a measurement
/// window keep accounting into the same counter afterwards.
///
/// # Example
///
/// ```
/// use simkit::Counters;
/// let c = Counters::new();
/// let h = c.handle("net.msgs");
/// h.incr();
/// h.add(4);
/// assert_eq!(c.get("net.msgs"), 5);
/// ```
#[derive(Clone)]
pub struct CounterHandle {
    chunk: Chunk<Cell<u64>>,
    at: u32,
}

impl std::fmt::Debug for CounterHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CounterHandle({})", self.get())
    }
}

impl CounterHandle {
    fn cell(&self) -> &Cell<u64> {
        &self.chunk[self.at as usize].value
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        let c = self.cell();
        c.set(c.get() + n);
    }

    /// Increments the counter by one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell().get()
    }
}

/// A point-in-time copy of all counters, used to compute per-operation
/// deltas.
///
/// Values are stored positionally by slot, so a snapshot is only
/// meaningful against the [`Counters`] it was taken from (which is how
/// every caller uses it — the slots of a different registry would not
/// line up).
#[derive(Debug, Clone, Default)]
pub struct CounterSnapshot {
    values: Vec<u64>,
}

impl Counters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Counters::default()
    }

    fn value(&self, slot: u32) -> u64 {
        self.slots.with_entry(slot, |e| e.value.get())
    }

    /// Adds `n` to counter `key`, creating it at zero if absent.
    pub fn add(&self, key: impl Into<StatKey>, n: u64) {
        let slot = self.slots.slot(key.into());
        self.slots
            .with_entry(slot, |e| e.value.set(e.value.get() + n));
    }

    /// Increments counter `key` by one.
    pub fn incr(&self, key: impl Into<StatKey>) {
        self.add(key, 1);
    }

    /// Returns a live handle to counter `key`, creating it at zero if
    /// absent. See [`CounterHandle`].
    pub fn handle(&self, key: impl Into<StatKey>) -> CounterHandle {
        let (chunk, at) = self.slots.chunk_of(self.slots.slot(key.into()));
        CounterHandle { chunk, at }
    }

    /// Current value of the counter named `name` (zero if never
    /// touched; does not create the counter, allocates nothing).
    pub fn get(&self, name: &str) -> u64 {
        self.slots.lookup_name(name).map_or(0, |s| self.value(s))
    }

    /// Copies all counters for later delta computation.
    pub fn snapshot(&self) -> CounterSnapshot {
        let mut values = Vec::with_capacity(self.slots.len() as usize);
        self.slots.for_each(|_, v| values.push(v.get()));
        CounterSnapshot { values }
    }

    /// Growth of the counter named `name` since `snap` was taken.
    /// Saturates at zero if the counter shrank (e.g. a `reset()` after
    /// the snapshot) rather than panicking on u64 underflow.
    pub fn delta_since(&self, snap: &CounterSnapshot, name: &str) -> u64 {
        self.slots.lookup_name(name).map_or(0, |s| {
            let then = snap.values.get(s as usize).copied().unwrap_or(0);
            self.value(s).saturating_sub(then)
        })
    }

    /// Visits every `(key, value)` pair in registration order without
    /// rendering a name — the allocation-free way to fold counters into
    /// an aggregate.
    pub fn for_each(&self, mut f: impl FnMut(StatKey, u64)) {
        self.slots.for_each(|k, v| f(k, v.get()));
    }

    /// All `(name, value)` pairs in name order.
    pub fn to_vec(&self) -> Vec<(String, u64)> {
        self.slots
            .sorted()
            .into_iter()
            .map(|(k, s)| (k.to_string(), self.value(s)))
            .collect()
    }

    /// Resets every counter to zero. Keys are retained and existing
    /// [`CounterHandle`]s stay attached to their (zeroed) counters.
    pub fn reset(&self) {
        self.slots.for_each(|_, v| v.set(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HostId;

    #[test]
    fn add_and_get() {
        let c = Counters::new();
        assert_eq!(c.get("x"), 0);
        c.add("x", 5);
        c.incr("x");
        assert_eq!(c.get("x"), 6);
    }

    #[test]
    fn snapshot_deltas() {
        let c = Counters::new();
        c.add("a", 10);
        let snap = c.snapshot();
        c.add("a", 7);
        c.add("b", 2); // created after the snapshot
        assert_eq!(c.delta_since(&snap, "a"), 7);
        assert_eq!(c.delta_since(&snap, "b"), 2);
        assert_eq!(c.delta_since(&snap, "missing"), 0);
    }

    #[test]
    fn deltas_saturate_after_reset() {
        // Regression: a reset (or any shrink) between snapshot and
        // delta used to underflow-panic in debug builds.
        let c = Counters::new();
        c.add("net.msgs", 10);
        c.add("net.bytes", 4096);
        let snap = c.snapshot();
        c.reset();
        c.add("net.msgs", 3);
        assert_eq!(c.delta_since(&snap, "net.msgs"), 0);
        assert_eq!(c.delta_since(&snap, "net.bytes"), 0);
        // Growth past the snapshot value reports normally again.
        c.add("net.msgs", 20);
        assert_eq!(c.delta_since(&snap, "net.msgs"), 13);
    }

    #[test]
    fn reset_zeroes_values() {
        let c = Counters::new();
        c.add("x", 3);
        c.reset();
        assert_eq!(c.get("x"), 0);
    }

    #[test]
    fn handles_share_the_named_counter() {
        let c = Counters::new();
        let h1 = c.handle("net.msgs");
        let h2 = c.handle("net.msgs");
        h1.incr();
        h2.add(4);
        c.add("net.msgs", 2);
        assert_eq!(h1.get(), 7);
        assert_eq!(c.get("net.msgs"), 7);
    }

    #[test]
    fn handles_survive_reset() {
        let c = Counters::new();
        let h = c.handle("x");
        h.add(10);
        c.reset();
        assert_eq!(h.get(), 0);
        h.incr();
        assert_eq!(c.get("x"), 1, "handle stays attached after reset");
    }

    #[test]
    fn to_vec_is_sorted() {
        let c = Counters::new();
        c.add("b", 1);
        c.add("a", 2);
        let v = c.to_vec();
        assert_eq!(v[0].0, "a");
        assert_eq!(v[1].0, "b");
    }

    #[test]
    fn typed_and_named_keys_meet_in_one_series() {
        let c = Counters::new();
        let typed = StatKey::new("net").host(HostId::client(0)).push("msgs");
        let h = c.handle(typed);
        h.add(3);
        c.add("net.c0.msgs", 2);
        assert_eq!(c.get("net.c0.msgs"), 5);
        assert_eq!(c.to_vec(), [("net.c0.msgs".to_string(), 5)]);
        c.reset();
        h.incr();
        assert_eq!(c.get("net.c0.msgs"), 1, "handle survives reset");
    }

    #[test]
    fn handles_stay_valid_as_the_registry_grows() {
        let c = Counters::new();
        let first = c.handle("first");
        for i in 0..500 {
            c.incr(StatKey::new("n").host(HostId::client(i)));
        }
        first.add(9);
        assert_eq!(c.get("first"), 9);
        assert_eq!(c.get("n.c499"), 1);
    }

    #[test]
    fn get_does_not_create() {
        let c = Counters::new();
        assert_eq!(c.get("phantom"), 0);
        assert!(c.to_vec().is_empty(), "get() must not materialize names");
    }
}
