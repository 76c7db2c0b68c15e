//! Typed stat keys and the dense slot store behind [`crate::Counters`]
//! and [`crate::Metrics`].
//!
//! A [`StatKey`] names one counter or histogram series without owning
//! a string: it is a `Copy` value holding the rendered dotted name
//! inline, at most 63 bytes. A key is built by appending parts, each
//! after a dot: `&'static str` parts (a layer, a channel label, a
//! procedure, an op; a part may itself be dotted) and short run-time
//! labels (a host `c731`, a device `sd3`).
//!
//! # Contract
//!
//! * **A key is its rendered name.** Equality, ordering and the hash
//!   are the name's bytes, so `StatKey::new("net").push("total.bytes")`
//!   and `StatKey::new("net.total.bytes")` are the same key, and a
//!   by-name read meets the typed writer's series.
//! * **Listings sort by the rendered name**, byte-wise, so report
//!   bytes never depend on registration order.
//! * **A key does not depend on the run.** It holds no id assigned in
//!   registration order, so one cell's key set is comparable across
//!   worker counts and snapshot modes.
//! * The slot store's index is probed by a hash of the name, and is
//!   never iterated, so no hash order reaches a report (rule D2).

use crate::HostId;
use std::cell::{Cell, OnceCell, RefCell};
use std::fmt;
use std::rc::Rc;

/// Bytes of a key's rendered name.
const NAME: usize = 63;

/// The name of one counter or histogram series.
///
/// # Example
///
/// ```
/// use simkit::{HostId, StatKey};
/// let k = StatKey::new("net").host(HostId::client(7)).push("nfs").push("msgs");
/// assert_eq!(k.to_string(), "net.c7.nfs.msgs");
/// assert_eq!(k, StatKey::from("net.c7.nfs.msgs"));
/// ```
///
/// Equality and order are derived, and are those of the rendered name:
/// the buffer is zero past the name, so comparing the whole buffer and
/// then the length orders names byte-wise, a prefix first.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct StatKey {
    /// The dotted name in `name[..len]`; zeros after it.
    name: [u8; NAME],
    len: u8,
}

impl StatKey {
    /// A key of one part, which may be a whole dotted name.
    ///
    /// # Panics
    ///
    /// Panics if `first` is longer than 63 bytes.
    #[inline]
    pub const fn new(first: &'static str) -> StatKey {
        let mut k = StatKey {
            name: [0; NAME],
            len: 0,
        };
        k.put(first.as_bytes());
        k
    }

    /// This key with `part` appended after a dot.
    ///
    /// # Panics
    ///
    /// Panics if the name would exceed 63 bytes.
    #[inline]
    pub const fn push(mut self, part: &'static str) -> StatKey {
        self.put(b".");
        self.put(part.as_bytes());
        self
    }

    /// This key with `label` as the next part, such as a device name
    /// (`sd3`). The label is copied into the key itself, so nothing is
    /// allocated.
    ///
    /// # Panics
    ///
    /// Panics if the name would exceed 63 bytes.
    pub fn text(mut self, label: &str) -> StatKey {
        self.put(b".");
        self.put(label.as_bytes());
        self
    }

    /// This key with `host` (`c731`, `s2`, `server`) as the next part,
    /// its digits written without the formatter: per-call keys carry a
    /// host.
    #[inline]
    pub fn host(mut self, host: HostId) -> StatKey {
        let (prefix, index) = host.name_parts();
        self.put(b".");
        self.put(prefix.as_bytes());
        if let Some(mut n) = index {
            let mut digits = [0; 5];
            let mut at = digits.len();
            loop {
                at -= 1;
                // `n % 10` is a decimal digit.
                digits[at] = b'0' + (n % 10) as u8;
                n /= 10;
                if n == 0 {
                    break;
                }
            }
            self.put(&digits[at..]);
        }
        self
    }

    /// Appends `s` to the name. In place, not by value: building a
    /// per-call key stays a few stores.
    #[inline]
    const fn put(&mut self, s: &[u8]) {
        let at = self.len as usize;
        assert!(s.len() <= NAME - at, "a stat key's name fits in 63 bytes");
        let (_, free) = self.name.split_at_mut(at);
        free.split_at_mut(s.len()).0.copy_from_slice(s);
        self.len = (at + s.len()) as u8; // at most 63, checked above
    }

    /// The rendered name's bytes.
    #[inline]
    fn as_bytes(&self) -> &[u8] {
        &self.name[..usize::from(self.len)]
    }

    /// The hash of the rendered name: equal names, equal hashes, on
    /// every run.
    #[inline]
    fn name_hash(&self) -> u64 {
        hash_name(self.as_bytes())
    }
}

impl From<&'static str> for StatKey {
    fn from(name: &'static str) -> StatKey {
        StatKey::new(name)
    }
}

/// The dotted name.
impl fmt::Display for StatKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The name is whole `str`s joined by dots.
        f.write_str(std::str::from_utf8(self.as_bytes()).map_err(|_| fmt::Error)?)
    }
}

impl fmt::Debug for StatKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StatKey({self})")
    }
}

/// A name's hash: its 8-byte little-endian words, the zero-padded
/// tail word and the length, mixed in that order, then spread so that
/// every bit of it reaches the high and low halves (the index probes
/// by the low bits and tags by the high).
fn hash_name(name: &[u8]) -> u64 {
    let mix = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    let mut words = name.chunks_exact(8);
    let mut h = 0;
    for w in &mut words {
        h = mix(h, u64::from_le_bytes(w.try_into().expect("8 bytes")));
    }
    let tail = (words.remainder().iter().rev()).fold(0, |w, &b| w << 8 | u64::from(b));
    let h = mix(mix(h, tail), name.len() as u64);
    let h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

/// Slots in the first chunk; chunk `c` holds `FIRST_CHUNK << c`.
const FIRST_CHUNK: usize = 16;
/// An empty index bucket.
const EMPTY: u32 = u32::MAX;

/// One series: its key and its value.
#[derive(Default)]
pub(crate) struct Entry<T> {
    key: OnceCell<StatKey>,
    pub(crate) value: T,
}

/// A chunk of entries, shared by the store and every handle into it.
pub(crate) type Chunk<T> = Rc<[Entry<T>]>;

/// Dense series slots behind a key-to-slot index.
///
/// Entries live in chunks that double in size and never move, so a
/// handle is the chunk's `Rc` and an offset, and an add through it is
/// one store. Registering a series allocates only when a chunk or the
/// index fills: O(log n) allocations for n series.
///
/// The index finds a slot by its name's hash (`hash_name`), so a typed
/// key, a by-name read and a key that builds the same name another way
/// all find the one slot.
pub(crate) struct Slots<T> {
    chunks: RefCell<Vec<Chunk<T>>>,
    len: Cell<u32>,
    /// Open-addressed `(slot, hash >> 32)` pairs, one per slot, probed
    /// linearly from the hash's low bits and kept at most half full.
    /// Lookup only, never iterated.
    index: RefCell<Vec<(u32, u32)>>,
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots {
            chunks: RefCell::new(Vec::new()),
            len: Cell::new(0),
            index: RefCell::new(Vec::new()),
        }
    }
}

/// `(chunk, offset)` of slot `i`.
fn locate(i: u32) -> (usize, usize) {
    let q = i as usize / FIRST_CHUNK + 1;
    let c = (usize::BITS - 1 - q.leading_zeros()) as usize;
    (c, i as usize - FIRST_CHUNK * ((1 << c) - 1))
}

impl<T: Default> Slots<T> {
    /// Number of registered series.
    pub(crate) fn len(&self) -> u32 {
        self.len.get()
    }

    /// The slot of the series named `name`, if registered. Allocates
    /// nothing.
    pub(crate) fn lookup_name(&self, name: &str) -> Option<u32> {
        self.find(name.as_bytes())
    }

    fn find(&self, name: &[u8]) -> Option<u32> {
        let index = self.index.borrow();
        if index.is_empty() {
            return None;
        }
        let hash = hash_name(name);
        let mask = index.len() - 1;
        let tag = (hash >> 32) as u32;
        let mut b = hash as usize & mask;
        loop {
            let (slot, t) = index[b];
            if slot == EMPTY {
                return None;
            }
            if t == tag
                && self.with_entry(slot, |e| e.key.get().is_some_and(|k| k.as_bytes() == name))
            {
                return Some(slot);
            }
            b = (b + 1) & mask;
        }
    }

    /// The slot of `key`, registering it if new.
    pub(crate) fn slot(&self, key: StatKey) -> u32 {
        if let Some(s) = self.find(key.as_bytes()) {
            return s;
        }
        let s = self.len.get();
        let (c, off) = locate(s);
        {
            let mut chunks = self.chunks.borrow_mut();
            if chunks.len() == c {
                chunks.push((0..FIRST_CHUNK << c).map(|_| Entry::default()).collect());
            }
            let fresh = chunks[c][off].key.set(key).is_ok();
            debug_assert!(fresh, "slot {s} is registered once");
        }
        self.len.set(s + 1);
        if 2 * (s as usize + 1) > self.index.borrow().len() {
            // Double the index and re-place every earlier slot.
            let cap = (self.index.borrow().len() * 2).max(2 * FIRST_CHUNK);
            *self.index.borrow_mut() = vec![(EMPTY, 0); cap];
            for earlier in 0..s {
                self.place(earlier);
            }
        }
        self.place(s);
        s
    }

    /// Puts `slot` in the first free bucket from its name's hash's.
    fn place(&self, slot: u32) {
        let hash = self.with_entry(slot, |e| {
            e.key
                .get()
                .expect("a registered slot has a key")
                .name_hash()
        });
        let mut index = self.index.borrow_mut();
        let mask = index.len() - 1;
        let mut b = hash as usize & mask;
        while index[b].0 != EMPTY {
            b = (b + 1) & mask;
        }
        index[b] = (slot, (hash >> 32) as u32);
    }

    /// Runs `f` on the entry at `slot`.
    pub(crate) fn with_entry<R>(&self, slot: u32, f: impl FnOnce(&Entry<T>) -> R) -> R {
        let (c, off) = locate(slot);
        f(&self.chunks.borrow()[c][off])
    }

    /// The chunk holding `slot` and the slot's offset in it.
    pub(crate) fn chunk_of(&self, slot: u32) -> (Chunk<T>, u32) {
        let (c, off) = locate(slot);
        (Rc::clone(&self.chunks.borrow()[c]), off as u32)
    }

    /// Calls `f` on every series in slot (registration) order.
    pub(crate) fn for_each(&self, mut f: impl FnMut(StatKey, &T)) {
        let mut left = self.len.get() as usize;
        for chunk in self.chunks.borrow().iter() {
            for e in chunk.iter().take(left) {
                f(*e.key.get().expect("a registered slot has a key"), &e.value);
            }
            left = left.saturating_sub(chunk.len());
        }
    }

    /// Every slot, sorted by its key's rendered name.
    pub(crate) fn sorted(&self) -> Vec<(StatKey, u32)> {
        let mut v = Vec::with_capacity(self.len.get() as usize);
        let mut slot = 0;
        self.for_each(|k, _| {
            v.push((k, slot));
            slot += 1;
        });
        v.sort_unstable_by_key(|a| a.0);
        v
    }
}

impl<T> fmt::Debug for Slots<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Slots")
            .field("len", &self.len.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_render_dotted_with_the_label_in_place() {
        let k = StatKey::new("nfs.server").text("c12").push("lookup");
        assert_eq!(k.to_string(), "nfs.server.c12.lookup");
        let tail = StatKey::new("disk").push("x").text("sd3");
        assert_eq!(tail.to_string(), "disk.x.sd3");
        let host = StatKey::new("net").host(HostId::server(2)).push("nfs");
        assert_eq!(host.to_string(), "net.s2.nfs");
        for h in [
            HostId::SERVER,
            HostId::client(0),
            HostId::client(731),
            HostId::server(9),
        ] {
            assert_eq!(StatKey::new("x").host(h).to_string(), format!("x.{h}"));
        }
    }

    #[test]
    fn equal_names_are_equal_keys_with_equal_name_hashes() {
        let typed = StatKey::new("net").push("total").push("bytes");
        let named = StatKey::from("net.total.bytes");
        assert_eq!(typed, named);
        assert_eq!(typed.name_hash(), named.name_hash());
        assert_eq!(typed.name_hash(), hash_name(b"net.total.bytes"));
        assert_ne!(typed, StatKey::from("net.total"));
        let split = StatKey::new("nfs.server").text("c123").push("readdirplus");
        assert_eq!(split.name_hash(), hash_name(b"nfs.server.c123.readdirplus"));
    }

    /// A key's hash is a function of its rendered name alone: the same
    /// on every run, whatever ran before and wherever the key's parts
    /// live, which a digest folding counters under their keys needs.
    #[test]
    fn name_hashes_are_pinned() {
        let per_host = StatKey::new("net")
            .host(HostId::client(7))
            .push("nfs")
            .push("msgs");
        assert_eq!(per_host.name_hash(), 0xb07e_8c25_b6ba_b18c);
        assert_eq!(hash_name(b"net.c7.nfs.msgs"), per_host.name_hash());
        assert_eq!(hash_name(b"proto.nfs.txns"), 0x9be7_b1f9_bfc4_b018);
        assert_eq!(
            hash_name(b"disk.sd-0123456789.service"),
            0x7a2d_57eb_c215_668e
        );
    }

    #[test]
    fn every_cut_of_a_name_hashes_and_compares_as_the_name() {
        // Parts that cross the hasher's eight-byte words at every offset.
        const NAME: &str = "nfs.server.c12345678.readdirplus.x";
        let dots: Vec<usize> = NAME.match_indices('.').map(|(i, _)| i).collect();
        for cuts in (0u32..1 << dots.len()).filter(|c| c.count_ones() <= 3) {
            let mut key: Option<StatKey> = None;
            let mut start = 0;
            for (j, &d) in dots.iter().enumerate() {
                if cuts & 1 << j != 0 {
                    let part = &NAME[start..d];
                    key = Some(key.map_or(StatKey::new(part), |k| k.push(part)));
                    start = d + 1;
                }
            }
            let last = &NAME[start..];
            let key = key.map_or(StatKey::new(last), |k| k.push(last));
            assert_eq!(key.to_string(), NAME, "cuts {cuts:b}");
            assert_eq!(key.name_hash(), hash_name(NAME.as_bytes()), "cuts {cuts:b}");
            assert_eq!(key, StatKey::new(NAME), "cuts {cuts:b}");
            assert!(StatKey::new("nfs.server") < key, "cuts {cuts:b}");
            assert!(key < StatKey::new("nfs.server.c2"), "cuts {cuts:b}");
        }
        let labelled = StatKey::new("nfs.server")
            .text("c12345678")
            .push("readdirplus.x");
        assert_eq!(labelled.name_hash(), hash_name(NAME.as_bytes()));
        assert_eq!(labelled, StatKey::new(NAME));
    }

    #[test]
    fn keys_order_by_rendered_name() {
        let mut v = [
            StatKey::new("net").text("c10"),
            StatKey::new("net.c1"),
            StatKey::new("net").push("c2"),
            StatKey::new("n"),
            StatKey::new("n\0"),
        ];
        v.sort();
        let names: Vec<String> = v.iter().map(ToString::to_string).collect();
        assert_eq!(names, ["n", "n\0", "net.c1", "net.c10", "net.c2"]);
    }

    #[test]
    fn a_key_is_64_bytes_and_holds_a_63_byte_name() {
        assert!(std::mem::size_of::<StatKey>() <= 64);
        const NAME_63: &str = "a.name.of.63.bytes.abcdefghijklmnopqrstuvwxyz.0123456789.abcdef";
        assert_eq!(StatKey::new(NAME_63).to_string(), NAME_63);
    }

    #[test]
    #[should_panic(expected = "63 bytes")]
    fn a_64_byte_name_is_rejected() {
        let _ = StatKey::new("a.name.of.64.bytes")
            .push("abcdefghijklmnopqrstuvwxyz.0123456789.abcdefg");
    }

    #[test]
    fn slots_are_dense_stable_and_found_by_name() {
        let s: Slots<Cell<u64>> = Slots::default();
        let keys: Vec<StatKey> = (0..1000)
            .map(|i| StatKey::new("net").host(HostId::client(i)).push("msgs"))
            .collect();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(s.slot(k), i as u32);
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(s.slot(k), i as u32, "re-registering finds the slot");
        }
        assert_eq!(s.lookup_name("net.c731.msgs"), Some(731));
        assert_eq!(s.lookup_name("net.c1000.msgs"), None);
        assert_eq!(s.lookup_name("net.c731.msg"), None);
        assert_eq!(s.lookup_name("net.c731.msgs."), None);
        assert_eq!(s.len(), 1000);
        let (chunk, off) = s.chunk_of(999);
        chunk[off as usize].value.set(5);
        assert_eq!(s.with_entry(999, |e| e.value.get()), 5);
        let sorted = s.sorted();
        assert_eq!(sorted[0].0.to_string(), "net.c0.msgs");
        assert_eq!(sorted[1].0.to_string(), "net.c1.msgs");
        assert_eq!(sorted[2].0.to_string(), "net.c10.msgs");
    }

    #[test]
    fn one_name_split_any_way_is_one_slot() {
        let s: Slots<Cell<u64>> = Slots::default();
        let ways = [
            StatKey::new("nfs.server.proc.getattr"),
            StatKey::new("nfs")
                .push("server")
                .push("proc")
                .push("getattr"),
            StatKey::new("nfs.server").push("proc.getattr"),
            StatKey::new("nfs.server").text("proc").push("getattr"),
        ];
        for (i, &k) in ways.iter().enumerate() {
            assert_eq!(s.slot(k), 0, "way {i}");
        }
        // Enough further keys to rebuild the index several times: every
        // way still finds the one slot.
        for i in 0..300 {
            s.slot(StatKey::new("n.x").host(HostId::client(i)));
        }
        for (i, &k) in ways.iter().enumerate() {
            assert_eq!(s.slot(k), 0, "way {i} after growth");
        }
        assert_eq!(s.lookup_name("nfs.server.proc.getattr"), Some(0));
        assert_eq!(s.lookup_name("n.x.c299"), Some(300));
        assert_eq!(s.len(), 301);
    }

    #[test]
    fn slot_locations_tile_the_chunks() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(15), (0, 15));
        assert_eq!(locate(16), (1, 0));
        assert_eq!(locate(47), (1, 31));
        assert_eq!(locate(48), (2, 0));
    }
}
