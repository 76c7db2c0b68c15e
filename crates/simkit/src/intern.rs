//! Interned stat keys: a `u32` symbol table behind [`crate::Counters`]
//! and [`crate::Metrics`].
//!
//! Thousand-client topologies create tens of thousands of dotted stat
//! names (`net.c731.nfs.msgs`, …). Keying every bump off a
//! `BTreeMap<String, _>` makes each one pay an O(log n) string-compare
//! walk, and cold adds pay an allocation for the owned key. The symbol
//! table assigns each distinct name a small dense [`KeyId`] once; after
//! that, lookups are a single hash probe with no allocation and slot
//! access is a `Vec` index.
//!
//! # Determinism contract
//!
//! * Ids are assigned in first-intern order, which is deterministic
//!   because the simulation is single-threaded and seeded.
//! * Ids are never exposed in reports: every materialized listing
//!   (`SymbolTable::sorted_ids`) is produced in lexicographic *name*
//!   order, so report bytes are independent of intern order.
//! * The internal `HashMap` is used for lookup only and never
//!   iterated — hash iteration order is the nondeterminism rule D2
//!   bans (clippy enforces it, DESIGN.md §8); ordered walks come from
//!   the insertion-ordered name vector or from `sorted_ids`.

use std::cell::RefCell;
use std::collections::HashMap;

/// A dense identifier for one interned stat name.
///
/// Valid only for the [`SymbolTable`] (and therefore the
/// [`crate::Counters`]/[`crate::Metrics`] registry) that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyId(u32);

impl KeyId {
    /// The id's dense slot index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only string-to-[`KeyId`] symbol table.
///
/// # Example
///
/// ```
/// use simkit::intern::SymbolTable;
/// let t = SymbolTable::new();
/// let a = t.intern("net.msgs");
/// assert_eq!(t.intern("net.msgs"), a);
/// ```
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Name → id. Lookup only; never iterated (see module docs).
    ids: RefCell<HashMap<Box<str>, u32>>,
    /// Id → name, in first-intern order.
    names: RefCell<Vec<Box<str>>>,
}

impl SymbolTable {
    /// An empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Returns the id for `name`, interning it if new. Allocates only
    /// on first sight of a name.
    pub fn intern(&self, name: &str) -> KeyId {
        if let Some(&id) = self.ids.borrow().get(name) {
            return KeyId(id);
        }
        let mut names = self.names.borrow_mut();
        let id = names.len() as u32;
        let owned: Box<str> = name.into();
        self.ids.borrow_mut().insert(owned.clone(), id);
        names.push(owned);
        KeyId(id)
    }

    /// The id for `name`, if it has been interned.
    pub(crate) fn lookup(&self, name: &str) -> Option<KeyId> {
        self.ids.borrow().get(name).copied().map(KeyId)
    }

    /// The name behind `id` (owned copy; report-time only).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this table.
    pub(crate) fn name(&self, id: KeyId) -> String {
        self.names.borrow()[id.index()].to_string()
    }

    /// Calls `f` with `(id, name)` for every interned name, in
    /// id (first-intern) order.
    pub fn for_each(&self, mut f: impl FnMut(KeyId, &str)) {
        for (i, name) in self.names.borrow().iter().enumerate() {
            f(KeyId(i as u32), name);
        }
    }

    /// All ids, sorted by name — the materialization step every
    /// report-facing listing goes through.
    pub(crate) fn sorted_ids(&self) -> Vec<KeyId> {
        let names = self.names.borrow();
        let mut order: Vec<u32> = (0..names.len() as u32).collect();
        order.sort_by(|&a, &b| names[a as usize].cmp(&names[b as usize]));
        order.into_iter().map(KeyId).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let t = SymbolTable::new();
        let a = t.intern("b");
        let b = t.intern("a");
        assert_eq!(t.intern("b"), a);
        assert_eq!(t.intern("a"), b);
        assert_eq!(t.names.borrow().len(), 2);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
    }

    #[test]
    fn sorted_ids_are_name_ordered_not_intern_ordered() {
        let t = SymbolTable::new();
        t.intern("zeta");
        t.intern("alpha");
        t.intern("mid");
        let names: Vec<String> = t.sorted_ids().into_iter().map(|id| t.name(id)).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn lookup_does_not_intern() {
        let t = SymbolTable::new();
        assert_eq!(t.lookup("x"), None);
        assert_eq!(t.names.borrow().len(), 0);
        let id = t.intern("x");
        assert_eq!(t.lookup("x"), Some(id));
    }

    #[test]
    fn for_each_walks_in_intern_order() {
        let t = SymbolTable::new();
        t.intern("c");
        t.intern("a");
        let mut seen = Vec::new();
        t.for_each(|id, name| seen.push((id.index(), name.to_string())));
        assert_eq!(seen, [(0, "c".to_string()), (1, "a".to_string())]);
    }
}
