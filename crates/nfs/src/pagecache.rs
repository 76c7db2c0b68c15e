//! The NFS client's data page cache.
//!
//! Stores real page contents keyed by `(file handle, page index)` with
//! LRU eviction, dirty tracking (for v3/v4 write-back), and per-file
//! revalidation timestamps used for the 30-second consistency checks.

use crate::Fh;
use ext3::Image;
use std::cell::RefCell;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Page size: 4 KiB, as on the paper's testbed — one block [`Image`].
pub const PAGE_SIZE: usize = 4096;

#[derive(Debug)]
struct Page {
    data: Image,
    dirty: bool,
    /// Reference bit for CLOCK second-chance eviction.
    referenced: bool,
}

#[derive(Debug, Default)]
struct FileState {
    /// When the file's cached data was last validated against the
    /// server (ns).
    validated_at: u64,
    /// Server mtime observed at validation.
    mtime: u64,
}

/// The keys of every page of `fh`: the map orders by file handle first,
/// so one file's pages are a contiguous range and per-file sweeps need
/// not walk the whole cache.
fn file_range(fh: Fh) -> std::ops::RangeInclusive<(Fh, u64)> {
    (fh, 0)..=(fh, u64::MAX)
}

/// A page cache with CLOCK (second-chance) eviction and dirty pinning.
#[derive(Debug)]
pub struct PageCache {
    capacity: usize,
    pages: RefCell<BTreeMap<(Fh, u64), Page>>,
    files: RefCell<BTreeMap<Fh, FileState>>,
    /// CLOCK ring of candidate victims (may contain stale keys).
    ring: RefCell<std::collections::VecDeque<(Fh, u64)>>,
}

impl PageCache {
    /// Creates a cache of at most `capacity` pages.
    pub(crate) fn new(capacity: usize) -> PageCache {
        PageCache {
            capacity: capacity.max(8),
            pages: RefCell::new(BTreeMap::new()),
            files: RefCell::new(BTreeMap::new()),
            ring: RefCell::new(std::collections::VecDeque::new()),
        }
    }

    /// Number of resident pages.
    pub(crate) fn len(&self) -> usize {
        self.pages.borrow().len()
    }

    /// Lends a cached page to `f`, if resident, and sets its reference
    /// bit; `None` (and `f` not called) if absent. The page stays where
    /// it is: the caller copies out only the bytes it needs.
    pub(crate) fn get<R>(
        &self,
        fh: Fh,
        page: u64,
        f: impl FnOnce(&[u8; PAGE_SIZE]) -> R,
    ) -> Option<R> {
        let mut pages = self.pages.borrow_mut();
        pages.get_mut(&(fh, page)).map(|p| {
            p.referenced = true;
            f(&p.data)
        })
    }

    /// True if the page is resident (no LRU side effects).
    pub(crate) fn contains(&self, fh: Fh, page: u64) -> bool {
        self.pages.borrow().contains_key(&(fh, page))
    }

    /// Installs a clean page fetched from the server.
    pub(crate) fn insert_clean(&self, fh: Fh, page: u64, data: &[u8]) {
        self.insert(fh, page, data, false);
    }

    /// Installs a page, or overwrites a resident one in place. A short
    /// `data` is zero-padded to the page.
    pub(crate) fn insert(&self, fh: Fh, page: u64, data: &[u8], dirty: bool) {
        match self.pages.borrow_mut().entry((fh, page)) {
            Entry::Occupied(e) => {
                let p = e.into_mut();
                p.data.overwrite(data);
                p.dirty = dirty;
                p.referenced = false;
            }
            Entry::Vacant(v) => {
                v.insert(Page {
                    data: Image::from_slice(data),
                    dirty,
                    referenced: false,
                });
                self.ring.borrow_mut().push_back((fh, page));
            }
        }
        self.shrink();
    }

    /// Mutates a page in place and marks it dirty; returns `false` if
    /// absent.
    pub(crate) fn modify(&self, fh: Fh, page: u64, f: impl FnOnce(&mut [u8; PAGE_SIZE])) -> bool {
        let mut pages = self.pages.borrow_mut();
        match pages.get_mut(&(fh, page)) {
            Some(p) => {
                f(&mut p.data);
                p.dirty = true;
                p.referenced = true;
                true
            }
            None => false,
        }
    }

    /// Marks one page clean (its WRITE was sent to the server).
    pub(crate) fn clean_page(&self, fh: Fh, page: u64) {
        if let Some(p) = self.pages.borrow_mut().get_mut(&(fh, page)) {
            p.dirty = false;
        }
    }

    /// Marks every page of the file clean (after a COMMIT).
    pub(crate) fn clean_file(&self, fh: Fh) {
        for p in self.pages.borrow_mut().range_mut(file_range(fh)) {
            p.1.dirty = false;
        }
    }

    /// Drops every page of `fh` (cache invalidation after an mtime
    /// mismatch).
    pub(crate) fn invalidate_file(&self, fh: Fh) {
        let mut pages = self.pages.borrow_mut();
        while let Some((&k, _)) = pages.range(file_range(fh)).next() {
            pages.remove(&k);
        }
        self.files.borrow_mut().remove(&fh);
    }

    /// Drops everything (fresh mount).
    pub(crate) fn clear(&self) {
        self.pages.borrow_mut().clear();
        self.files.borrow_mut().clear();
        self.ring.borrow_mut().clear();
    }

    /// Validation state: `(validated_at, mtime)` recorded for the file.
    pub(crate) fn validation(&self, fh: Fh) -> Option<(u64, u64)> {
        self.files
            .borrow()
            .get(&fh)
            .map(|s| (s.validated_at, s.mtime))
    }

    /// Records a successful validation against server `mtime` at `now`.
    pub(crate) fn set_validation(&self, fh: Fh, now: u64, mtime: u64) {
        self.files.borrow_mut().insert(
            fh,
            FileState {
                validated_at: now,
                mtime,
            },
        );
    }

    fn shrink(&self) {
        let mut pages = self.pages.borrow_mut();
        let mut ring = self.ring.borrow_mut();
        let mut budget = ring.len() * 2 + 2;
        while pages.len() > self.capacity && budget > 0 {
            budget -= 1;
            let Some(k) = ring.pop_front() else { break };
            match pages.get_mut(&k) {
                None => {} // stale ring entry
                Some(p) if p.dirty => ring.push_back(k),
                Some(p) if p.referenced => {
                    p.referenced = false;
                    ring.push_back(k);
                }
                Some(_) => {
                    pages.remove(&k);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dirty(c: &PageCache) -> usize {
        c.pages.borrow().values().filter(|p| p.dirty).count()
    }

    const F: Fh = Fh(7);

    #[test]
    fn insert_get_round_trip() {
        let c = PageCache::new(16);
        c.insert_clean(F, 3, &[9u8; PAGE_SIZE]);
        assert_eq!(c.get(F, 3, |p| p[0]), Some(9));
        assert_eq!(c.get(F, 4, |p| p[0]), None);
    }

    #[test]
    fn modify_marks_dirty() {
        let c = PageCache::new(16);
        c.insert_clean(F, 0, &[0u8; PAGE_SIZE]);
        assert_eq!(dirty(&c), 0);
        assert!(c.modify(F, 0, |p| p[0] = 1));
        assert_eq!(dirty(&c), 1);
        c.clean_file(F);
        assert_eq!(dirty(&c), 0);
    }

    #[test]
    fn lru_eviction_spares_dirty() {
        let c = PageCache::new(8);
        for i in 0..8 {
            c.insert(F, i, &[i as u8; PAGE_SIZE], i < 4); // 0..4 dirty
        }
        for i in 8..12 {
            c.insert_clean(F, i, &[0u8; PAGE_SIZE]);
        }
        assert_eq!(c.len(), 8);
        for i in 0..4 {
            assert!(c.contains(F, i), "dirty page {i} must survive");
        }
    }

    #[test]
    fn invalidate_file_is_selective() {
        let c = PageCache::new(16);
        c.insert_clean(F, 0, &[1u8; PAGE_SIZE]);
        c.insert_clean(Fh(9), 0, &[2u8; PAGE_SIZE]);
        c.set_validation(F, 100, 50);
        c.invalidate_file(F);
        assert!(!c.contains(F, 0));
        assert!(c.contains(Fh(9), 0));
        assert!(c.validation(F).is_none());
    }

    #[test]
    fn per_file_sweeps_stop_at_the_file_boundary() {
        let c = PageCache::new(16);
        // Neighbouring handles, with pages at both ends of the key space.
        for fh in [Fh(6), F, Fh(8)] {
            c.insert(fh, 0, &[1u8; PAGE_SIZE], true);
            c.insert(fh, u64::MAX, &[1u8; PAGE_SIZE], true);
        }
        c.clean_file(F);
        assert_eq!(dirty(&c), 4, "only F's two pages were cleaned");
        c.invalidate_file(F);
        assert_eq!(c.len(), 4);
        assert!(!c.contains(F, 0) && !c.contains(F, u64::MAX));
        assert!(c.contains(Fh(6), u64::MAX) && c.contains(Fh(8), 0));
    }

    #[test]
    fn validation_round_trips() {
        let c = PageCache::new(16);
        assert!(c.validation(F).is_none());
        c.set_validation(F, 123, 456);
        assert_eq!(c.validation(F), Some((123, 456)));
    }

    #[test]
    fn partial_page_insert_zero_pads() {
        let c = PageCache::new(16);
        c.insert_clean(F, 0, &[5u8; 100]);
        assert_eq!(c.get(F, 0, |p| (p[99], p[100])), Some((5, 0)));
        // An in-place overwrite pads too: no byte of the old page
        // survives past the new data.
        c.insert_clean(F, 0, &[6u8; 10]);
        assert_eq!(c.get(F, 0, |p| (p[9], p[10], p[99])), Some((6, 0, 0)));
    }
}
