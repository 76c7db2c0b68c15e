//! The buffer cache's two-level block table against the `BTreeMap`
//! cache it replaced: random operation sequences run on both, and
//! every return value, the order of every dirty list, and the CLOCK
//! eviction that follows from them must agree. Block numbers sit on
//! both sides of leaf boundaries and far apart, and capacities are
//! small so that eviction runs.

use crate::{BufferCache, DirtyKind};
use blockdev::{BlockNo, Image, BLOCK_SIZE};
use proptest::prelude::*;

/// The block map as it was before the block table: a `BTreeMap` with
/// the same CLOCK ring, `dirty_data` index and accounting, kept here
/// verbatim as the reference.
mod reference {
    use super::*;
    use std::collections::btree_map::Entry;
    use std::collections::{BTreeMap, BTreeSet, VecDeque};

    struct Buf {
        data: Image,
        dirty: DirtyKind,
        referenced: bool,
    }

    pub struct RefCache {
        capacity: usize,
        map: BTreeMap<BlockNo, Buf>,
        ring: VecDeque<BlockNo>,
        dirty_data: BTreeSet<BlockNo>,
        hits: u64,
        misses: u64,
    }

    impl RefCache {
        pub fn new(capacity: usize) -> Self {
            RefCache {
                capacity: capacity.max(8),
                map: BTreeMap::new(),
                ring: VecDeque::new(),
                dirty_data: BTreeSet::new(),
                hits: 0,
                misses: 0,
            }
        }

        pub fn len(&self) -> usize {
            self.map.len()
        }

        pub fn is_empty(&self) -> bool {
            self.map.is_empty()
        }

        pub fn stats(&self) -> (u64, u64) {
            (self.hits, self.misses)
        }

        pub fn get_or_load<E>(
            &mut self,
            bno: BlockNo,
            load: impl FnOnce(&mut [u8; BLOCK_SIZE]) -> Result<(), E>,
        ) -> Result<&[u8; BLOCK_SIZE], E> {
            match self.map.entry(bno) {
                Entry::Occupied(e) => {
                    self.hits += 1;
                    let b = e.into_mut();
                    b.referenced = true;
                    Ok(&b.data)
                }
                Entry::Vacant(v) => {
                    self.misses += 1;
                    let mut data = Image::zeroed();
                    load(&mut data)?;
                    self.ring.push_back(bno);
                    let b = v.insert(Buf {
                        data,
                        dirty: DirtyKind::Clean,
                        referenced: false,
                    });
                    Ok(&b.data)
                }
            }
        }

        pub fn contains(&self, bno: BlockNo) -> bool {
            self.map.contains_key(&bno)
        }

        pub fn insert_clean(&mut self, bno: BlockNo, data: &[u8]) {
            self.insert(bno, data, DirtyKind::Clean);
        }

        pub fn insert(&mut self, bno: BlockNo, data: &[u8], dirty: DirtyKind) {
            match dirty {
                DirtyKind::Data => {
                    self.dirty_data.insert(bno);
                }
                _ => {
                    self.dirty_data.remove(&bno);
                }
            }
            match self.map.entry(bno) {
                Entry::Occupied(e) => {
                    let b = e.into_mut();
                    b.data.overwrite(data);
                    b.dirty = dirty;
                    b.referenced = false;
                }
                Entry::Vacant(v) => {
                    v.insert(Buf {
                        data: Image::from_slice(data),
                        dirty,
                        referenced: false,
                    });
                    self.ring.push_back(bno);
                }
            }
        }

        pub fn modify(
            &mut self,
            bno: BlockNo,
            kind: DirtyKind,
            f: impl FnOnce(&mut [u8; BLOCK_SIZE]),
        ) -> bool {
            match self.map.get_mut(&bno) {
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

        pub fn dirty_kind(&self, bno: BlockNo) -> DirtyKind {
            self.map.get(&bno).map_or(DirtyKind::Clean, |b| b.dirty)
        }

        pub fn mark_clean(&mut self, bno: BlockNo) {
            if let Some(b) = self.map.get_mut(&bno) {
                b.dirty = DirtyKind::Clean;
                self.dirty_data.remove(&bno);
            }
        }

        pub fn dirty_blocks(&self, kind: DirtyKind) -> Vec<BlockNo> {
            if kind == DirtyKind::Data {
                return self.dirty_data.iter().copied().collect();
            }
            self.map
                .iter()
                .filter(|(_, b)| b.dirty == kind)
                .map(|(&k, _)| k)
                .collect()
        }

        pub fn dirty_data_prefix(&self, limit: usize) -> Vec<BlockNo> {
            self.dirty_data.iter().copied().take(limit).collect()
        }

        pub fn dirty_count(&self, kind: DirtyKind) -> usize {
            if kind == DirtyKind::Data {
                return self.dirty_data.len();
            }
            self.map.values().filter(|b| b.dirty == kind).count()
        }

        pub fn peek(&self, bno: BlockNo) -> Option<&[u8; BLOCK_SIZE]> {
            self.map.get(&bno).map(|b| &*b.data)
        }

        pub fn shrink_to_capacity(&mut self) -> usize {
            let mut evicted = 0;
            let mut budget = self.ring.len() * 2 + 2;
            while self.map.len() > self.capacity && budget > 0 {
                budget -= 1;
                let Some(k) = self.ring.pop_front() else {
                    break;
                };
                match self.map.get_mut(&k) {
                    None => {}
                    Some(b) if b.dirty != DirtyKind::Clean => self.ring.push_back(k),
                    Some(b) if b.referenced => {
                        b.referenced = false;
                        self.ring.push_back(k);
                    }
                    Some(_) => {
                        self.map.remove(&k);
                        evicted += 1;
                    }
                }
            }
            evicted
        }

        pub fn clear(&mut self) {
            self.map.clear();
            self.ring.clear();
            self.dirty_data.clear();
        }
    }
}

use reference::RefCache;

/// The cache's leaf size: the block numbers below straddle its
/// boundaries.
const LEAF: BlockNo = 64;

/// Block numbers just below, on and just above leaf boundaries near the
/// start of a volume, in the middle and far out, so a sequence mixes
/// blocks of one leaf, neighbouring leaves and distant ones.
fn block_pool() -> Vec<BlockNo> {
    let mut pool = vec![0, 1, 2];
    for k in [1, 2, 3, 17, 1_000, 16_383] {
        pool.extend([k * LEAF - 1, k * LEAF, k * LEAF + 1]);
    }
    pool
}

fn bno() -> impl Strategy<Value = BlockNo> {
    let pool = block_pool();
    let n = pool.len() as u8;
    prop_oneof![(0..n).prop_map(move |i| pool[i as usize]), 120u64..200]
}

fn kind() -> impl Strategy<Value = DirtyKind> {
    prop_oneof![
        Just(DirtyKind::Clean),
        Just(DirtyKind::Meta),
        Just(DirtyKind::Data)
    ]
}

#[derive(Debug)]
enum Op {
    /// `get_or_load`; the loader fills with the byte, or fails on `None`.
    GetOrLoad(BlockNo, Option<u8>),
    /// `insert` of `len` bytes (short data is zero-padded) of one byte.
    Insert(BlockNo, DirtyKind, u16, u8),
    InsertClean(BlockNo, u8),
    /// `modify`, storing the byte at the offset.
    Modify(BlockNo, DirtyKind, u16, u8),
    MarkClean(BlockNo),
    Shrink,
    Clear,
    Contains(BlockNo),
    Peek(BlockNo),
    DirtyKindOf(BlockNo),
    DirtyBlocks(DirtyKind),
    DirtyCount(DirtyKind),
    DirtyPrefix(u8),
}

fn op() -> impl Strategy<Value = Op> {
    let len = prop_oneof![Just(BLOCK_SIZE as u16), 0u16..BLOCK_SIZE as u16];
    let load = prop_oneof![Just(None), (0u8..255).prop_map(Some)];
    prop_oneof![
        (bno(), load).prop_map(|(b, l)| Op::GetOrLoad(b, l)),
        (bno(), kind(), len, 0u8..255).prop_map(|(b, k, n, v)| Op::Insert(b, k, n, v)),
        (bno(), 0u8..255).prop_map(|(b, v)| Op::InsertClean(b, v)),
        (bno(), kind(), 0u16..BLOCK_SIZE as u16, 0u8..255)
            .prop_map(|(b, k, o, v)| Op::Modify(b, k, o, v)),
        bno().prop_map(Op::MarkClean),
        // `clear` rarely, so that the cache fills past its capacity.
        (0u8..20).prop_map(|i| if i == 0 { Op::Clear } else { Op::Shrink }),
        bno().prop_map(Op::Contains),
        bno().prop_map(Op::Peek),
        bno().prop_map(Op::DirtyKindOf),
        kind().prop_map(Op::DirtyBlocks),
        kind().prop_map(Op::DirtyCount),
        (0u8..12).prop_map(Op::DirtyPrefix),
    ]
}

/// A miss's loader: fills the block with `fill`, or fails on `None`;
/// records that it ran.
fn loader(
    fill: Option<u8>,
    called: &mut bool,
) -> impl FnOnce(&mut [u8; BLOCK_SIZE]) -> Result<(), &'static str> + '_ {
    move |img| {
        *called = true;
        img.fill(fill.ok_or("load failed")?);
        Ok(())
    }
}

/// Applies `op` to both caches and checks that they answer alike.
fn step(table: &mut BufferCache, reference: &mut RefCache, op: &Op) -> Result<(), String> {
    match *op {
        Op::GetOrLoad(b, fill) => {
            let (mut loaded_t, mut loaded_r) = (false, false);
            let t = table.get_or_load(b, loader(fill, &mut loaded_t)).copied();
            let r = reference
                .get_or_load(b, loader(fill, &mut loaded_r))
                .copied();
            prop_assert_eq!(t, r);
            prop_assert_eq!(loaded_t, loaded_r, "the loader runs on a miss only");
        }
        Op::Insert(b, k, len, v) => {
            let data = vec![v; len as usize];
            table.insert(b, &data, k);
            reference.insert(b, &data, k);
        }
        Op::InsertClean(b, v) => {
            table.insert_clean(b, &[v; BLOCK_SIZE]);
            reference.insert_clean(b, &[v; BLOCK_SIZE]);
        }
        Op::Modify(b, k, off, v) => {
            let store = |img: &mut [u8; BLOCK_SIZE]| img[off as usize] = v;
            prop_assert_eq!(table.modify(b, k, store), reference.modify(b, k, store));
        }
        Op::MarkClean(b) => {
            table.mark_clean(b);
            reference.mark_clean(b);
        }
        Op::Shrink => {
            prop_assert_eq!(table.shrink_to_capacity(), reference.shrink_to_capacity())
        }
        Op::Clear => {
            table.clear();
            reference.clear();
        }
        Op::Contains(b) => prop_assert_eq!(table.contains(b), reference.contains(b)),
        Op::Peek(b) => prop_assert_eq!(table.peek(b), reference.peek(b)),
        Op::DirtyKindOf(b) => prop_assert_eq!(table.dirty_kind(b), reference.dirty_kind(b)),
        Op::DirtyBlocks(k) => prop_assert_eq!(table.dirty_blocks(k), reference.dirty_blocks(k)),
        Op::DirtyCount(k) => prop_assert_eq!(table.dirty_count(k), reference.dirty_count(k)),
        Op::DirtyPrefix(n) => prop_assert_eq!(
            table.dirty_data_prefix(n as usize),
            reference.dirty_data_prefix(n as usize)
        ),
    }
    prop_assert_eq!(table.len(), reference.len());
    prop_assert_eq!(table.is_empty(), reference.is_empty());
    prop_assert_eq!(table.stats(), reference.stats());
    Ok(())
}

/// Every block either cache could hold, in both caches' eyes.
fn same_contents(table: &BufferCache, reference: &RefCache) -> Result<(), String> {
    for k in [DirtyKind::Clean, DirtyKind::Meta, DirtyKind::Data] {
        prop_assert_eq!(table.dirty_blocks(k), reference.dirty_blocks(k));
        prop_assert_eq!(table.dirty_count(k), reference.dirty_count(k));
    }
    for b in block_pool().into_iter().chain(120..200) {
        prop_assert_eq!(table.peek(b), reference.peek(b), "block {}", b);
        prop_assert_eq!(table.dirty_kind(b), reference.dirty_kind(b), "block {}", b);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn block_table_answers_like_the_btree_cache(
        capacity in 0usize..24,
        ops in prop::collection::vec(op(), 1..300),
    ) {
        let mut table = BufferCache::new(capacity);
        let mut reference = RefCache::new(capacity);
        for (i, op) in ops.iter().enumerate() {
            step(&mut table, &mut reference, op).map_err(|e| format!("op {i} {op:?}: {e}"))?;
        }
        same_contents(&table, &reference)?;
    }
}
