//! Owned 4 KiB block images whose storage is recycled per thread.
//!
//! Every cache of block contents — the [`MemDisk`](crate::MemDisk)
//! overlay, ext3's buffer cache and checkpoint-pending set, the NFS
//! client's page cache — holds its blocks as [`Image`]s. A testbed
//! frees tens of thousands of them when it is dropped and the next one
//! on the same thread asks for as many again; handing the storage from
//! the one to the other through a free list keeps that traffic away
//! from the allocator (and from the first-touch page faults of the heap
//! it would regrow).
//!
//! The free list is per thread and has no cap: it can hold at most what
//! the thread itself freed, so never more than the thread's own
//! high-water mark of live images, and it is released when the thread
//! exits. Both constructors overwrite all [`BLOCK_SIZE`] bytes, so a
//! recycled image never shows what its previous owner stored.
//!
//! The blocks of a shared [`DiskImage`](crate::DiskImage) are the one
//! exception to "dropped means kept": see [`SharedImage`].

use crate::BLOCK_SIZE;
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

type Storage = Box<[u8; BLOCK_SIZE]>;

thread_local! {
    /// Storage of the images this thread dropped, awaiting reuse.
    static FREE: RefCell<Vec<Storage>> = const { RefCell::new(Vec::new()) };
}

/// Takes a recycled allocation, contents unspecified. `None` when the
/// list is empty or the thread is tearing its locals down.
fn recycled() -> Option<Storage> {
    FREE.try_with(|free| free.borrow_mut().pop()).ok().flatten()
}

/// How many allocations this thread is keeping for reuse.
#[cfg(test)]
pub(crate) fn recycled_count() -> usize {
    FREE.with(|free| free.borrow().len())
}

/// One block's worth of bytes, heap-allocated.
///
/// Dereferences to `[u8; BLOCK_SIZE]`.
pub struct Image(
    /// `Some` from construction until `drop` takes the storage out.
    Option<Storage>,
);

impl Image {
    /// An all-zero image.
    pub fn zeroed() -> Image {
        Image::from_slice(&[])
    }

    /// An image holding `src`, zero-padded to the block.
    ///
    /// # Panics
    ///
    /// Panics if `src` is longer than [`BLOCK_SIZE`].
    pub fn from_slice(src: &[u8]) -> Image {
        assert!(src.len() <= BLOCK_SIZE, "{} bytes in one block", src.len());
        if let Some(storage) = recycled() {
            let mut image = Image(Some(storage));
            image.overwrite(src);
            return image;
        }
        let mut bytes = Vec::with_capacity(BLOCK_SIZE);
        bytes.extend_from_slice(src);
        bytes.resize(BLOCK_SIZE, 0);
        let storage = bytes.into_boxed_slice().try_into();
        Image(Some(storage.expect("resized to one block")))
    }

    /// Replaces the whole content with `src`, zero-padded to the block.
    ///
    /// # Panics
    ///
    /// Panics if `src` is longer than [`BLOCK_SIZE`].
    pub fn overwrite(&mut self, src: &[u8]) {
        let (head, tail) = self.split_at_mut(src.len());
        head.copy_from_slice(src);
        tail.fill(0);
    }
}

/// An [`Image`] that may be dropped by another thread than the one
/// that will want its storage again — a block of a shared
/// [`DiskImage`](crate::DiskImage), which dies wherever the last
/// snapshot reference does. Built from the building thread's free list
/// like any image, but freed, not recycled, when dropped: a thread that
/// only ever drops snapshots would otherwise keep every block of every
/// one of them.
pub(crate) struct SharedImage(pub(crate) Image);

impl Drop for SharedImage {
    fn drop(&mut self) {
        // Leaves the image without storage for its own `drop` to keep.
        self.0 .0.take();
    }
}

impl Drop for Image {
    fn drop(&mut self) {
        let Some(storage) = self.0.take() else { return };
        // Past the free list's own destructor `try_with` fails without
        // running the closure, which then frees `storage` as it drops.
        let _ = FREE.try_with(move |free| free.borrow_mut().push(storage));
    }
}

impl Deref for Image {
    type Target = [u8; BLOCK_SIZE];

    fn deref(&self) -> &[u8; BLOCK_SIZE] {
        self.0.as_deref().expect("storage present until drop")
    }
}

impl DerefMut for Image {
    fn deref_mut(&mut self) -> &mut [u8; BLOCK_SIZE] {
        self.0.as_deref_mut().expect("storage present until drop")
    }
}

impl std::fmt::Debug for Image {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Image(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_images_never_show_old_bytes() {
        let mut dirty = Image::zeroed();
        dirty.fill(0xEE);
        let was = dirty.as_ptr();
        drop(dirty);
        let zero = Image::zeroed();
        assert_eq!(zero.as_ptr(), was, "the storage was reused");
        assert!(zero.iter().all(|&b| b == 0));
        let mut dirty = zero;
        dirty.fill(0xEE);
        drop(dirty);
        let short = Image::from_slice(&[7u8; 100]);
        assert_eq!(short.as_ptr(), was);
        assert!(short[..100].iter().all(|&b| b == 7));
        assert!(short[100..].iter().all(|&b| b == 0), "tail zero-padded");
    }

    #[test]
    fn fresh_images_are_zero_padded_too() {
        // A thread of its own: the free list starts empty.
        std::thread::spawn(|| {
            let full = Image::from_slice(&[9u8; BLOCK_SIZE]);
            assert!(full.iter().all(|&b| b == 9));
            let short = Image::from_slice(&[9u8; 10]);
            assert_eq!((short[9], short[10], short[BLOCK_SIZE - 1]), (9, 0, 0));
            assert!(Image::zeroed().iter().all(|&b| b == 0));
        })
        .join()
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "bytes in one block")]
    fn oversized_source_is_rejected() {
        let _ = Image::from_slice(&[0u8; BLOCK_SIZE + 1]);
    }

    #[test]
    fn images_outliving_the_free_list_free_normally() {
        thread_local! {
            static HELD: RefCell<Vec<Image>> = const { RefCell::new(Vec::new()) };
        }
        // Thread-local destructors run in an unspecified order: `HELD`
        // may drop its images before or after `FREE` is gone. Either
        // way the thread must exit cleanly, and having used the free
        // list first makes sure it exists to be torn down.
        std::thread::spawn(|| {
            drop(Image::zeroed());
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                for fill in 0..64u8 {
                    held.push(Image::from_slice(&[fill; 32]));
                }
            });
        })
        .join()
        .expect("exit with images in a thread-local");
        // The same, with `HELD` initialised (so destroyed) the other
        // way round relative to `FREE`.
        std::thread::spawn(|| {
            HELD.with(|held| held.borrow_mut().reserve(64));
            HELD.with(|held| held.borrow_mut().push(Image::zeroed()));
        })
        .join()
        .expect("exit with images in a thread-local");
    }
}
