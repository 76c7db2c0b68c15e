//! Sparse in-memory backing store with copy-on-write layering.

use crate::image::SharedImage;
use crate::{check_request, BlockDevice, BlockNo, Image, IoCost, Result, BLOCK_SIZE};
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Block-number hasher: one multiply and a fold. The keys are this
/// program's own dense block numbers, never outside input, so SipHash's
/// collision resistance buys nothing here, and a fixed function keeps
/// the map's layout the same on every run.
#[derive(Debug, Default, Clone, Copy)]
struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, n: u64) {
        let h = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }
}

/// Hash state of the block maps behind [`DiskImage`] and [`MemDisk`].
type BlockHash = BuildHasherDefault<BlockHasher>;

/// An immutable, shareable image of a [`MemDisk`]'s contents.
///
/// Blocks are individually `Arc`-shared, so an image derived from a
/// disk that was itself forked from an image shares the storage of
/// every block the fork never wrote. A block's storage comes from the
/// capturing thread's recycled [`Image`]s and is freed outright by
/// whichever thread drops the last reference. Images are `Send +
/// Sync`: the snapshot cache hands one image to many worker threads,
/// each of which builds a private [`MemDisk`] overlay on top of it.
pub struct DiskImage {
    name: String,
    blocks: u64,
    data: HashMap<BlockNo, Arc<SharedImage>, BlockHash>,
}

impl DiskImage {
    /// Number of blocks with captured (non-zero-fill) content.
    pub fn touched_blocks(&self) -> usize {
        self.data.len()
    }
}

impl std::fmt::Debug for DiskImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskImage")
            .field("name", &self.name)
            .field("blocks", &self.blocks)
            .field("touched", &self.data.len())
            .finish()
    }
}

/// A sparse, in-memory block store with zero-fill semantics for blocks
/// never written. All operations have zero [`IoCost`]; wrap a
/// `MemDisk` in a [`DiskModel`](crate::DiskModel) to get mechanical
/// timing.
///
/// A disk may sit on top of a shared immutable [`DiskImage`] base
/// (see [`MemDisk::from_image`]): reads fall through to the base for
/// blocks not yet written locally, and every write lands in a private
/// overlay — the base is never mutated, so many disks can fork from
/// one image concurrently.
#[derive(Debug)]
pub struct MemDisk {
    name: String,
    blocks: u64,
    base: RefCell<Option<Arc<DiskImage>>>,
    data: RefCell<HashMap<BlockNo, Image, BlockHash>>,
}

impl MemDisk {
    /// Creates a disk of `blocks` 4 KiB blocks, all initially zero.
    pub fn new(name: impl Into<String>, blocks: u64) -> Self {
        MemDisk {
            name: name.into(),
            blocks,
            base: RefCell::new(None),
            data: RefCell::new(HashMap::default()),
        }
    }

    /// Creates a copy-on-write disk whose initial contents are `image`
    /// (name and capacity are inherited). Writes divert into a private
    /// overlay; the image itself is never modified.
    pub fn from_image(image: Arc<DiskImage>) -> Self {
        MemDisk {
            name: image.name.clone(),
            blocks: image.blocks,
            base: RefCell::new(Some(image)),
            data: RefCell::new(HashMap::default()),
        }
    }

    /// Number of blocks written locally since construction — for a
    /// disk forked from an image, how far it has diverged (its private
    /// memory footprint).
    pub fn diverged_blocks(&self) -> usize {
        self.data.borrow().len()
    }

    /// Captures the current contents as an immutable image. Blocks
    /// inherited untouched from a base image share its storage; only
    /// locally written blocks are copied.
    pub fn image(&self) -> DiskImage {
        let overlay = self.data.borrow();
        let mut data: HashMap<BlockNo, Arc<SharedImage>, BlockHash> = match &*self.base.borrow() {
            Some(img) => img.data.clone(),
            None => HashMap::default(),
        };
        #[expect(
            clippy::iter_over_hash_type,
            clippy::disallowed_methods,
            reason = "D2: inserting overlay blocks reaches the same final map under any iteration \
                      order (keys are disjoint per insert); the map is keyed by BlockNo and only \
                      ever looked up per block afterwards"
        )]
        for (&block, content) in overlay.iter() {
            let copy = Image::from_slice(&content[..]);
            data.insert(block, Arc::new(SharedImage(copy)));
        }
        DiskImage {
            name: self.name.clone(),
            blocks: self.blocks,
            data,
        }
    }
}

impl BlockDevice for MemDisk {
    fn name(&self) -> &str {
        &self.name
    }

    fn block_count(&self) -> u64 {
        self.blocks
    }

    fn read(&self, start: BlockNo, nblocks: u32, buf: &mut [u8]) -> Result<IoCost> {
        check_request(self.blocks, start, nblocks as u64, buf.len())?;
        let data = self.data.borrow();
        let base = self.base.borrow();
        for (bno, dst) in (start..).zip(buf.chunks_exact_mut(BLOCK_SIZE)) {
            match data.get(&bno) {
                Some(block) => dst.copy_from_slice(&block[..]),
                None => match base.as_ref().and_then(|img| img.data.get(&bno)) {
                    Some(block) => dst.copy_from_slice(&block.0[..]),
                    None => dst.fill(0),
                },
            }
        }
        Ok(IoCost::FREE)
    }

    fn write(&self, start: BlockNo, data: &[u8]) -> Result<IoCost> {
        let nblocks = (data.len() / BLOCK_SIZE) as u64;
        check_request(self.blocks, start, nblocks, data.len())?;
        let mut map = self.data.borrow_mut();
        for (bno, src) in (start..).zip(data.chunks_exact(BLOCK_SIZE)) {
            match map.entry(bno) {
                Entry::Occupied(e) => e.into_mut().copy_from_slice(src),
                Entry::Vacant(v) => {
                    v.insert(Image::from_slice(src));
                }
            }
        }
        Ok(IoCost::FREE)
    }

    fn flush(&self) -> Result<IoCost> {
        Ok(IoCost::FREE)
    }

    /// Checks the range and moves nothing: a charge stores no block.
    fn charge(&self, start: BlockNo, nblocks: u32, _write: bool) -> Result<IoCost> {
        let nblocks = nblocks as u64;
        check_request(self.blocks, start, nblocks, nblocks as usize * BLOCK_SIZE)?;
        Ok(IoCost::FREE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_blocks_read_zero() {
        let d = MemDisk::new("m", 8);
        let mut buf = vec![1u8; BLOCK_SIZE];
        d.read(3, 1, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn write_then_read_round_trips() {
        let d = MemDisk::new("m", 8);
        let mut data = vec![0u8; 2 * BLOCK_SIZE];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        d.write(5, &data).unwrap();
        let mut buf = vec![0u8; 2 * BLOCK_SIZE];
        d.read(5, 2, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn out_of_range_rejected() {
        let d = MemDisk::new("m", 4);
        let mut buf = vec![0u8; BLOCK_SIZE];
        assert!(d.read(4, 1, &mut buf).is_err());
        assert!(d.write(3, &vec![0u8; 2 * BLOCK_SIZE]).is_err());
    }

    #[test]
    fn sparse_accounting() {
        let d = MemDisk::new("m", 1000);
        assert_eq!(d.diverged_blocks(), 0);
        d.write(10, &vec![1u8; BLOCK_SIZE]).unwrap();
        d.write(10, &vec![2u8; BLOCK_SIZE]).unwrap();
        d.write(11, &vec![3u8; BLOCK_SIZE]).unwrap();
        assert_eq!(d.diverged_blocks(), 2);
        let mut buf = vec![9u8; BLOCK_SIZE];
        d.read(12, 1, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn fork_reads_base_content() {
        let d = MemDisk::new("m", 16);
        d.write(3, &vec![7u8; BLOCK_SIZE]).unwrap();
        let img = Arc::new(d.image());
        let fork = MemDisk::from_image(img);
        assert_eq!(fork.name(), "m");
        assert_eq!(fork.block_count(), 16);
        let mut buf = vec![0u8; BLOCK_SIZE];
        fork.read(3, 1, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 7));
        // Blocks the base never touched still read zero.
        fork.read(4, 1, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn fork_writes_never_reach_the_base() {
        let d = MemDisk::new("m", 16);
        d.write(3, &vec![7u8; BLOCK_SIZE]).unwrap();
        let img = Arc::new(d.image());
        let a = MemDisk::from_image(Arc::clone(&img));
        let b = MemDisk::from_image(Arc::clone(&img));
        a.write(3, &vec![1u8; BLOCK_SIZE]).unwrap();
        a.write(9, &vec![2u8; BLOCK_SIZE]).unwrap();
        assert_eq!(a.diverged_blocks(), 2);
        assert_eq!(b.diverged_blocks(), 0);
        let mut buf = vec![0u8; BLOCK_SIZE];
        b.read(3, 1, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 7), "sibling fork sees base data");
        assert_eq!(img.touched_blocks(), 1, "image itself unchanged");
    }

    #[test]
    fn image_of_fork_shares_untouched_blocks() {
        let d = MemDisk::new("m", 16);
        d.write(0, &vec![5u8; BLOCK_SIZE]).unwrap();
        d.write(1, &vec![6u8; BLOCK_SIZE]).unwrap();
        let img = Arc::new(d.image());
        let fork = MemDisk::from_image(Arc::clone(&img));
        fork.write(1, &vec![9u8; BLOCK_SIZE]).unwrap();
        let img2 = fork.image();
        assert_eq!(img2.touched_blocks(), 2);
        // Block 0 was never written by the fork: its storage is the
        // base image's allocation, not a copy.
        assert!(Arc::ptr_eq(&img.data[&0], &img2.data[&0]));
        assert!(!Arc::ptr_eq(&img.data[&1], &img2.data[&1]));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "D4: the test drops an image on a second thread on purpose"
    )]
    fn image_blocks_are_recycled_storage_and_freed_where_they_die() {
        use crate::image::recycled_count;
        let d = MemDisk::new("m", 16);
        d.write(0, &vec![1u8; 3 * BLOCK_SIZE]).unwrap();
        d.data.borrow_mut().clear();
        assert_eq!(recycled_count(), 3, "kept for the next disk");
        d.write(0, &vec![2u8; 2 * BLOCK_SIZE]).unwrap();
        assert_eq!(recycled_count(), 1);
        let (a, b) = (d.image(), d.image());
        assert_eq!(recycled_count(), 0, "the first capture took the last one");
        drop(a);
        assert_eq!(recycled_count(), 0, "freed here, not kept");
        std::thread::spawn(move || {
            drop(b);
            assert_eq!(recycled_count(), 0, "nor on a thread that only drops");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn diverged_counts_only_the_overlay() {
        let d = MemDisk::new("m", 16);
        d.write(0, &vec![1u8; BLOCK_SIZE]).unwrap();
        d.write(1, &vec![1u8; BLOCK_SIZE]).unwrap();
        let fork = MemDisk::from_image(Arc::new(d.image()));
        assert_eq!(fork.diverged_blocks(), 0);
        fork.write(1, &vec![2u8; BLOCK_SIZE]).unwrap(); // shadows base
        fork.write(5, &vec![3u8; BLOCK_SIZE]).unwrap(); // new block
        assert_eq!(fork.diverged_blocks(), 2);
    }
}
