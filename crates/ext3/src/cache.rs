//! The buffer cache: every block the file system touches lives here.
//!
//! This cache is the mechanism behind the paper's central observation:
//! with iSCSI the *whole* cache (data + meta-data) sits at the client,
//! so warm-cache operations touch the network only to write back
//! updates. Blocks are keyed by device block number; dirty blocks are
//! tagged as meta-data (journaled at commit) or data (flushed by the
//! pdflush-style daemon).
//!
//! Resident blocks live in a two-level block table: a directory indexed
//! by `bno / LEAF` whose entries are fixed leaves of `LEAF` slots, so a
//! lookup is two index operations — no hashing, no tree descent — and
//! iteration runs in block order. `LEAF` is 64: a slot is 16 bytes, so
//! a leaf is 1 KiB, never a 4 KiB request that would look like a block
//! image to the allocator. A leaf is allocated the first time one of
//! its blocks is cached and kept until the cache is dropped. The
//! directory grows on demand to the highest block cached, which the
//! file system bounds by the volume: `bmap` turns an on-disk pointer at
//! or past `blocks_count` into [`FsError::Corrupt`](crate::FsError), and
//! a failed load caches nothing.

use blockdev::{BlockNo, Image, BLOCK_SIZE};
use std::collections::BTreeSet;

/// Dirty state of a cached block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirtyKind {
    /// In sync with the device.
    Clean,
    /// Modified meta-data: owned by the running journal transaction.
    Meta,
    /// Modified file data: owned by the write-back daemon.
    Data,
}

#[derive(Debug)]
struct Buf {
    data: Image,
    dirty: DirtyKind,
    /// Reference bit for CLOCK second-chance eviction.
    referenced: bool,
}

/// Blocks per leaf of a [`BlockTable`] (see the module docs).
const LEAF: usize = 64;
const _: () = assert!(std::mem::size_of::<[Option<Buf>; LEAF]>() == 1024);

/// The block number → buffer map: a directory of lazily allocated
/// `LEAF`-slot leaves.
#[derive(Debug, Default)]
struct BlockTable {
    dir: Vec<Option<Box<[Option<Buf>; LEAF]>>>,
    len: usize,
}

impl BlockTable {
    /// `(directory index, slot within the leaf)` of a block.
    fn split(bno: BlockNo) -> (usize, usize) {
        let leaf = LEAF as BlockNo;
        ((bno / leaf) as usize, (bno % leaf) as usize)
    }

    fn get(&self, bno: BlockNo) -> Option<&Buf> {
        let (d, i) = Self::split(bno);
        self.dir.get(d)?.as_ref()?[i].as_ref()
    }

    fn get_mut(&mut self, bno: BlockNo) -> Option<&mut Buf> {
        let (d, i) = Self::split(bno);
        self.dir.get_mut(d)?.as_mut()?[i].as_mut()
    }

    /// Stores `buf` at a block that is not resident, growing the
    /// directory and allocating the leaf if this is its first block.
    fn insert(&mut self, bno: BlockNo, buf: Buf) -> &mut Buf {
        let (d, i) = Self::split(bno);
        if d >= self.dir.len() {
            self.dir.resize_with(d + 1, || None);
        }
        let leaf = self.dir[d].get_or_insert_with(|| Box::new([const { None }; LEAF]));
        debug_assert!(leaf[i].is_none(), "block {bno} already resident");
        self.len += 1;
        leaf[i].insert(buf)
    }

    fn remove(&mut self, bno: BlockNo) {
        let (d, i) = Self::split(bno);
        if let Some(Some(leaf)) = self.dir.get_mut(d) {
            if leaf[i].take().is_some() {
                self.len -= 1;
            }
        }
    }

    /// Drops every buffer; the directory and leaves stay for the
    /// blocks the cache will load again.
    fn clear(&mut self) {
        for leaf in self.dir.iter_mut().flatten() {
            leaf.fill_with(|| None);
        }
        self.len = 0;
    }

    /// Resident buffers in block order.
    fn iter(&self) -> impl Iterator<Item = (BlockNo, &Buf)> {
        self.dir
            .iter()
            .enumerate()
            .filter_map(|(d, leaf)| Some((d * LEAF, leaf.as_deref()?)))
            .flat_map(|(base, leaf)| {
                (base..)
                    .zip(leaf)
                    .filter_map(|(bno, b)| Some((bno as BlockNo, b.as_ref()?)))
            })
    }
}

/// A fixed-capacity block cache with CLOCK (second-chance) eviction of
/// clean blocks — O(1) amortized, unlike a strict LRU scan, which
/// matters for the gigabyte-scale database workloads.
///
/// Dirty blocks are never evicted — the file system must clean them
/// first (journal commit or data write-back), mirroring how a real
/// kernel pins dirty buffers.
#[derive(Debug)]
pub struct BufferCache {
    capacity: usize,
    map: BlockTable,
    /// CLOCK ring of candidate victims (may contain stale keys).
    ring: std::collections::VecDeque<BlockNo>,
    /// Blocks currently dirty with [`DirtyKind::Data`], kept sorted so
    /// the write-back path can merge runs without re-sorting the whole
    /// cache (hot under throttling).
    dirty_data: BTreeSet<BlockNo>,
    hits: u64,
    misses: u64,
}

impl BufferCache {
    /// Creates a cache holding up to `capacity` blocks.
    pub fn new(capacity: usize) -> Self {
        BufferCache {
            capacity: capacity.max(8),
            map: BlockTable::default(),
            ring: std::collections::VecDeque::new(),
            dirty_data: BTreeSet::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Number of blocks currently cached.
    pub(crate) fn len(&self) -> usize {
        self.map.len
    }

    /// True if nothing is cached.
    pub(crate) fn is_empty(&self) -> bool {
        self.map.len == 0
    }

    /// `(hits, misses)` since creation.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Looks up a block, counting a hit (and setting its reference
    /// bit) or a miss. On a miss `load` fills the image — from the
    /// journal's pinned copy or the device — and the block becomes
    /// resident and clean with its reference bit clear. The borrow
    /// handed back is the cache's own storage: callers read in place.
    ///
    /// # Errors
    ///
    /// Whatever `load` returns; the miss stays counted and nothing is
    /// inserted.
    pub fn get_or_load<E>(
        &mut self,
        bno: BlockNo,
        load: impl FnOnce(&mut [u8; BLOCK_SIZE]) -> Result<(), E>,
    ) -> Result<&[u8; BLOCK_SIZE], E> {
        if !self.contains(bno) {
            self.misses += 1;
            let mut data = Image::zeroed();
            load(&mut data)?;
            self.ring.push_back(bno);
            let b = self.map.insert(
                bno,
                Buf {
                    data,
                    dirty: DirtyKind::Clean,
                    referenced: false,
                },
            );
            return Ok(&b.data);
        }
        self.hits += 1;
        let b = self.map.get_mut(bno).expect("checked resident above");
        b.referenced = true;
        Ok(&b.data)
    }

    /// True if the block is resident (no hit/miss accounting).
    pub(crate) fn contains(&self, bno: BlockNo) -> bool {
        self.map.get(bno).is_some()
    }

    /// Inserts a block image read from the device (clean).
    pub(crate) fn insert_clean(&mut self, bno: BlockNo, data: &[u8]) {
        self.insert(bno, data, DirtyKind::Clean);
    }

    /// Inserts a block, or overwrites a resident one in place, with the
    /// given dirty state. A short `data` is zero-padded to the block.
    pub fn insert(&mut self, bno: BlockNo, data: &[u8], dirty: DirtyKind) {
        match dirty {
            DirtyKind::Data => {
                self.dirty_data.insert(bno);
            }
            _ => {
                self.dirty_data.remove(&bno);
            }
        }
        // The reference bit starts clear: a block earns its second
        // chance by being *used* after insertion, as in classic CLOCK.
        match self.map.get_mut(bno) {
            Some(b) => {
                b.data.overwrite(data);
                b.dirty = dirty;
                b.referenced = false;
            }
            None => {
                self.map.insert(
                    bno,
                    Buf {
                        data: Image::from_slice(data),
                        dirty,
                        referenced: false,
                    },
                );
                self.ring.push_back(bno);
            }
        }
    }

    /// Mutates a resident block in place and raises its dirty state to
    /// at least `kind`. Returns `false` if the block is not resident.
    pub(crate) fn modify(
        &mut self,
        bno: BlockNo,
        kind: DirtyKind,
        f: impl FnOnce(&mut [u8; BLOCK_SIZE]),
    ) -> bool {
        match self.map.get_mut(bno) {
            Some(b) => {
                f(&mut b.data);
                b.referenced = true;
                if b.dirty == DirtyKind::Clean {
                    b.dirty = kind;
                } else if b.dirty == DirtyKind::Data && kind == DirtyKind::Meta {
                    b.dirty = DirtyKind::Meta;
                }
                if b.dirty == DirtyKind::Data {
                    self.dirty_data.insert(bno);
                } else {
                    self.dirty_data.remove(&bno);
                }
                true
            }
            None => false,
        }
    }

    /// Dirty state of a block (`Clean` if absent).
    pub(crate) fn dirty_kind(&self, bno: BlockNo) -> DirtyKind {
        self.map.get(bno).map_or(DirtyKind::Clean, |b| b.dirty)
    }

    /// Marks a block clean after write-back (no-op if absent).
    pub(crate) fn mark_clean(&mut self, bno: BlockNo) {
        if let Some(b) = self.map.get_mut(bno) {
            b.dirty = DirtyKind::Clean;
            self.dirty_data.remove(&bno);
        }
    }

    /// Sorted list of blocks dirty with the given kind. `Data` is
    /// served from the maintained index in O(n of dirty); other kinds
    /// scan the map.
    pub(crate) fn dirty_blocks(&self, kind: DirtyKind) -> Vec<BlockNo> {
        if kind == DirtyKind::Data {
            return self.dirty_data.iter().copied().collect();
        }
        self.map
            .iter()
            .filter(|(_, b)| b.dirty == kind)
            .map(|(k, _)| k)
            .collect()
    }

    /// The first `limit` dirty-data blocks, in block order (the
    /// write-back path's working set).
    pub(crate) fn dirty_data_prefix(&self, limit: usize) -> Vec<BlockNo> {
        self.dirty_data.iter().copied().take(limit).collect()
    }

    /// Count of dirty blocks of the given kind.
    pub(crate) fn dirty_count(&self, kind: DirtyKind) -> usize {
        if kind == DirtyKind::Data {
            return self.dirty_data.len();
        }
        self.map.iter().filter(|(_, b)| b.dirty == kind).count()
    }

    /// The block's bytes (for journal commit images and write-back),
    /// without touching hit/miss or CLOCK state.
    pub(crate) fn peek(&self, bno: BlockNo) -> Option<&[u8; BLOCK_SIZE]> {
        self.map.get(bno).map(|b| &*b.data)
    }

    /// Evicts clean blocks (CLOCK second-chance order) until the cache
    /// fits its capacity. Returns how many were evicted. Dirty blocks
    /// are pinned, so the cache may remain over capacity until the
    /// owner cleans them.
    pub(crate) fn shrink_to_capacity(&mut self) -> usize {
        let mut evicted = 0;
        // Bound the sweep so an all-dirty/all-referenced cache cannot
        // loop forever: two full passes clear every reference bit.
        let mut budget = self.ring.len() * 2 + 2;
        while self.map.len > self.capacity && budget > 0 {
            budget -= 1;
            let Some(k) = self.ring.pop_front() else {
                break;
            };
            match self.map.get_mut(k) {
                None => {} // stale ring entry: drop it
                Some(b) if b.dirty != DirtyKind::Clean => self.ring.push_back(k),
                Some(b) if b.referenced => {
                    b.referenced = false; // second chance
                    self.ring.push_back(k);
                }
                Some(_) => {
                    self.map.remove(k);
                    evicted += 1;
                }
            }
        }
        evicted
    }

    /// Drops every block (crash, or unmount after flushing).
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.ring.clear();
        self.dirty_data.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(fill: u8) -> Vec<u8> {
        vec![fill; BLOCK_SIZE]
    }

    /// A lookup whose miss path must not run.
    fn hit(c: &mut BufferCache, bno: BlockNo) -> &[u8; BLOCK_SIZE] {
        c.get_or_load(bno, |_| Err(())).expect("resident")
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = BufferCache::new(16);
        assert!(c.get_or_load(5, |_| Err(())).is_err());
        assert!(!c.contains(5), "a failed load inserts nothing");
        let load = |b: &mut [u8; BLOCK_SIZE]| {
            b.fill(1);
            Ok::<(), ()>(())
        };
        assert_eq!(c.get_or_load(5, load).unwrap()[0], 1);
        assert_eq!(hit(&mut c, 5)[0], 1);
        assert_eq!(c.stats(), (1, 2));
        assert_eq!(c.dirty_kind(5), DirtyKind::Clean);
    }

    #[test]
    fn insert_overwrites_in_place() {
        let mut c = BufferCache::new(8);
        c.insert(3, &blk(1), DirtyKind::Data);
        hit(&mut c, 3); // sets the reference bit
        c.insert(3, &blk(2), DirtyKind::Clean);
        assert_eq!(c.peek(3).unwrap()[0], 2);
        assert_eq!(c.dirty_count(DirtyKind::Data), 0);
        // Still one ring entry, and the overwrite cleared the
        // reference bit: the block is the first victim.
        for i in 10..18 {
            c.insert_clean(i, &blk(0));
        }
        assert_eq!(c.shrink_to_capacity(), 1);
        assert!(!c.contains(3));
    }

    #[test]
    fn modify_promotes_dirty_kind() {
        let mut c = BufferCache::new(16);
        c.insert_clean(1, &blk(0));
        assert!(c.modify(1, DirtyKind::Data, |b| b[0] = 7));
        assert_eq!(c.dirty_kind(1), DirtyKind::Data);
        // Data → Meta promotes (journal owns it now).
        assert!(c.modify(1, DirtyKind::Meta, |b| b[1] = 8));
        assert_eq!(c.dirty_kind(1), DirtyKind::Meta);
        // Meta never demotes to Data.
        assert!(c.modify(1, DirtyKind::Data, |b| b[2] = 9));
        assert_eq!(c.dirty_kind(1), DirtyKind::Meta);
        assert_eq!(c.peek(1).unwrap()[..3], [7, 8, 9]);
    }

    #[test]
    fn modify_missing_block_fails() {
        let mut c = BufferCache::new(16);
        assert!(!c.modify(9, DirtyKind::Meta, |_| {}));
    }

    #[test]
    fn lru_evicts_cleanest_oldest() {
        let mut c = BufferCache::new(8);
        for i in 0..8 {
            c.insert_clean(i, &blk(i as u8));
        }
        hit(&mut c, 0); // 0 is now most recent
        c.insert_clean(100, &blk(0));
        assert_eq!(c.shrink_to_capacity(), 1);
        assert!(c.contains(0), "recently used survives");
        assert!(!c.contains(1), "oldest clean is evicted");
    }

    #[test]
    fn dirty_blocks_are_pinned() {
        let mut c = BufferCache::new(8);
        for i in 0..8 {
            c.insert(i, &blk(0), DirtyKind::Data);
        }
        c.insert_clean(100, &blk(0));
        // Only the clean newcomer can go.
        assert_eq!(c.shrink_to_capacity(), 1);
        assert_eq!(c.len(), 8);
        assert_eq!(c.dirty_count(DirtyKind::Data), 8);
    }

    #[test]
    fn dirty_lists_are_sorted() {
        let mut c = BufferCache::new(16);
        for &b in &[9u64, 3, 7, 1] {
            c.insert(b, &blk(0), DirtyKind::Data);
        }
        c.insert(5, &blk(0), DirtyKind::Meta);
        assert_eq!(c.dirty_blocks(DirtyKind::Data), vec![1, 3, 7, 9]);
        assert_eq!(c.dirty_blocks(DirtyKind::Meta), vec![5]);
    }

    #[test]
    fn mark_clean_unpins() {
        let mut c = BufferCache::new(8);
        c.insert(1, &blk(0), DirtyKind::Meta);
        c.mark_clean(1);
        assert_eq!(c.dirty_kind(1), DirtyKind::Clean);
        assert_eq!(c.dirty_count(DirtyKind::Meta), 0);
    }

    #[test]
    fn clear_empties() {
        let mut c = BufferCache::new(8);
        c.insert(1, &blk(0), DirtyKind::Data);
        c.clear();
        assert!(c.is_empty());
    }
}
