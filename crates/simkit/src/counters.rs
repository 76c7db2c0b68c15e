//! Named monotonic counters for message/byte accounting.
//!
//! Counters are the raw data behind every message-count column in the
//! paper's tables: protocol layers bump counters as they exchange
//! messages, and the experiment harness snapshots/deltas them around
//! each measured operation.
//!
//! Names are interned (see [`crate::intern`]): each distinct name is
//! assigned a dense [`KeyId`] once, values live in a `Vec` indexed by
//! id, and the string map is only materialized — in name order, so
//! report bytes never depend on intern order — at snapshot/report
//! time.

use crate::intern::{KeyId, SymbolTable};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// A set of named monotonic `u64` counters.
///
/// Hot paths should obtain a [`CounterHandle`] once (at wiring time)
/// and bump it directly — a handle add is a single `Cell` store with
/// no map lookup, no string formatting, and no allocation. Paths that
/// keep a dynamic name can pre-intern it with [`Counters::id`] and use
/// [`Counters::add_id`], which is a bare `Vec` index.
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
    table: SymbolTable,
    slots: RefCell<Vec<Rc<Cell<u64>>>>,
}

/// A live reference to one named counter.
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
#[derive(Debug, Clone)]
pub struct CounterHandle(Rc<Cell<u64>>);

impl CounterHandle {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get() + n);
    }

    /// Increments the counter by one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A point-in-time copy of all counters, used to compute per-operation
/// deltas.
///
/// Values are stored positionally by [`KeyId`], so a snapshot is only
/// meaningful against the [`Counters`] it was taken from (which is how
/// every caller uses it — the ids of a different registry would not
/// line up).
#[derive(Debug, Clone, Default)]
pub struct CounterSnapshot {
    values: Vec<u64>,
}

impl CounterSnapshot {
    fn value_of(&self, id: KeyId) -> u64 {
        self.values.get(id.index()).copied().unwrap_or(0)
    }
}

impl Counters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Interns `name` and returns its dense id, creating the counter
    /// at zero if absent. The id stays valid for the life of this
    /// registry (including across [`reset`](Counters::reset)).
    pub fn id(&self, name: &str) -> KeyId {
        let id = self.table.intern(name);
        let mut slots = self.slots.borrow_mut();
        while slots.len() <= id.index() {
            slots.push(Rc::new(Cell::new(0)));
        }
        id
    }

    /// Adds `n` to the counter behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this registry's
    /// [`id`](Counters::id)/[`handle`](Counters::handle) calls.
    pub fn add_id(&self, id: KeyId, n: u64) {
        let slots = self.slots.borrow();
        let c = &slots[id.index()];
        c.set(c.get() + n);
    }

    /// Current value of the counter behind `id`.
    pub(crate) fn get_id(&self, id: KeyId) -> u64 {
        self.slots.borrow()[id.index()].get()
    }

    /// Adds `n` to counter `name`, creating it at zero if absent.
    pub fn add(&self, name: &str, n: u64) {
        match self.table.lookup(name) {
            Some(id) => self.add_id(id, n),
            None => self.add_id(self.id(name), n),
        }
    }

    /// Increments counter `name` by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Returns a live handle to counter `name`, creating it at zero if
    /// absent. See [`CounterHandle`].
    pub fn handle(&self, name: &str) -> CounterHandle {
        let id = self.id(name);
        CounterHandle(Rc::clone(&self.slots.borrow()[id.index()]))
    }

    /// Current value of counter `name` (zero if never touched; does
    /// not create the counter).
    pub fn get(&self, name: &str) -> u64 {
        self.table.lookup(name).map_or(0, |id| self.get_id(id))
    }

    /// Copies all counters for later delta computation.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            values: self.slots.borrow().iter().map(|c| c.get()).collect(),
        }
    }

    /// Growth of counter `name` since `snap` was taken. Saturates at
    /// zero if the counter shrank (e.g. a `reset()` after the
    /// snapshot) rather than panicking on u64 underflow.
    pub fn delta_since(&self, snap: &CounterSnapshot, name: &str) -> u64 {
        match self.table.lookup(name) {
            Some(id) => self.get_id(id).saturating_sub(snap.value_of(id)),
            None => 0,
        }
    }

    /// Visits every `(name, value)` pair in id (first-intern) order
    /// without materializing owned strings — the allocation-free way
    /// to fold counters into an aggregate (reports intern the names
    /// once on their side and add by slot thereafter).
    pub fn for_each(&self, mut f: impl FnMut(&str, u64)) {
        let slots = self.slots.borrow();
        self.table
            .for_each(|id, name| f(name, slots[id.index()].get()));
    }

    /// All `(name, value)` pairs in name order.
    pub fn to_vec(&self) -> Vec<(String, u64)> {
        let slots = self.slots.borrow();
        self.table
            .sorted_ids()
            .into_iter()
            .map(|id| (self.table.name(id), slots[id.index()].get()))
            .collect()
    }

    /// Resets every counter to zero. Names are retained and existing
    /// [`CounterHandle`]s stay attached to their (zeroed) counters.
    pub fn reset(&self) {
        for v in self.slots.borrow().iter() {
            v.set(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn ids_are_stable_and_fast_path_matches_names() {
        let c = Counters::new();
        let id = c.id("net.c0.msgs");
        c.add_id(id, 3);
        c.add("net.c0.msgs", 2);
        assert_eq!(c.get_id(id), 5);
        assert_eq!(c.get("net.c0.msgs"), 5);
        c.reset();
        c.add_id(id, 1);
        assert_eq!(c.get("net.c0.msgs"), 1, "id survives reset");
    }

    #[test]
    fn get_does_not_create() {
        let c = Counters::new();
        assert_eq!(c.get("phantom"), 0);
        assert!(c.to_vec().is_empty(), "get() must not materialize names");
    }
}
