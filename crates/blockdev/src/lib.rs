//! Block devices for the `ipstorage` testbed.
//!
//! Everything below the file system speaks this crate's
//! [`BlockDevice`] trait: an in-memory backing store ([`MemDisk`]), a
//! mechanical disk timing model ([`DiskModel`]) approximating the
//! paper's 10,000 RPM Ultra-160 SCSI drives, and a [`Raid5`] array in
//! the paper's 4+p configuration.
//!
//! Devices do **not** advance the simulation clock themselves. Every
//! operation returns an [`IoCost`] describing how long the request
//! would take at the device; the caller decides whether that time is
//! foreground (advance the clock — a synchronous read) or background
//! (charge it to a utilization account — an asynchronous flush). This
//! split is what lets the testbed model ext3's write-back behaviour,
//! which is central to the paper's iSCSI results.
//!
//! # Example
//!
//! ```
//! use blockdev::{BlockDevice, MemDisk, BLOCK_SIZE};
//!
//! let disk = MemDisk::new("d0", 1024);
//! let data = vec![0xabu8; BLOCK_SIZE];
//! disk.write(7, &data).unwrap();
//! let mut buf = vec![0u8; BLOCK_SIZE];
//! disk.read(7, 1, &mut buf).unwrap();
//! assert_eq!(buf, data);
//! ```

mod diskmodel;
mod image;
mod memdisk;
mod partition;
mod raid5;
mod writecache;

pub use diskmodel::{DiskModel, DiskParams, DiskStats};
pub use image::Image;
pub use memdisk::{DiskImage, MemDisk};
pub use partition::Partition;
pub use raid5::{Raid5, Raid5Geometry};
pub use writecache::WriteCache;

use simkit::SimDuration;
use std::fmt;

/// Fixed simulation block size: 4 KiB, matching the ext3 configuration
/// and database page size used throughout the paper.
pub const BLOCK_SIZE: usize = 4096;

/// Logical block number on a device.
pub type BlockNo = u64;

/// The time a request occupies the device, as computed by the device's
/// service model. Callers turn this into foreground latency or
/// background utilization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoCost {
    /// Service time of the request at this device.
    pub time: SimDuration,
}

impl IoCost {
    /// A request that is free (e.g. satisfied without touching media).
    pub const FREE: IoCost = IoCost {
        time: SimDuration::ZERO,
    };

    /// Creates a cost from a duration.
    pub const fn new(time: SimDuration) -> Self {
        IoCost { time }
    }

    /// Combines two costs sequentially.
    #[must_use]
    pub fn then(self, other: IoCost) -> IoCost {
        IoCost {
            time: self.time + other.time,
        }
    }
}

/// Errors returned by block devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockError {
    /// Request touches blocks past the end of the device.
    OutOfRange {
        /// First block of the request.
        start: BlockNo,
        /// Number of blocks requested.
        count: u64,
        /// Device capacity in blocks.
        capacity: u64,
    },
    /// Buffer length is not a multiple of [`BLOCK_SIZE`].
    Misaligned {
        /// Offending length in bytes.
        len: usize,
    },
    /// The device (or an array member) has failed.
    DeviceFailed {
        /// Name of the failed device.
        device: String,
    },
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockError::OutOfRange {
                start,
                count,
                capacity,
            } => write!(
                f,
                "request [{start}, {start}+{count}) exceeds capacity {capacity}"
            ),
            BlockError::Misaligned { len } => {
                write!(f, "buffer length {len} is not a multiple of {BLOCK_SIZE}")
            }
            BlockError::DeviceFailed { device } => write!(f, "device {device} has failed"),
        }
    }
}

impl std::error::Error for BlockError {}

/// Result alias for block operations.
pub type Result<T> = std::result::Result<T, BlockError>;

/// A random-access block store.
///
/// Implementations use interior mutability so devices can be shared
/// (`Rc<dyn BlockDevice>`) between a file system and background
/// flushers.
pub trait BlockDevice {
    /// Human-readable device name (used in counters and errors).
    fn name(&self) -> &str;

    /// Capacity in blocks.
    fn block_count(&self) -> u64;

    /// Reads `nblocks` starting at `start` into `buf`.
    ///
    /// # Errors
    ///
    /// Fails if the range exceeds the device or `buf` is not exactly
    /// `nblocks * BLOCK_SIZE` bytes.
    fn read(&self, start: BlockNo, nblocks: u32, buf: &mut [u8]) -> Result<IoCost>;

    /// Writes `data` (a whole number of blocks) starting at `start`.
    ///
    /// # Errors
    ///
    /// Fails if the range exceeds the device or `data` is misaligned.
    fn write(&self, start: BlockNo, data: &[u8]) -> Result<IoCost>;

    /// Forces any device-internal volatile state to stable storage.
    ///
    /// # Errors
    ///
    /// Fails if the device has failed.
    fn flush(&self) -> Result<IoCost>;

    /// Bills the service time of reading (`write == false`) or writing
    /// `nblocks` starting at `start`, without moving any data the
    /// caller could observe: what RAID-5 charges for every member
    /// request, data and parity alike, since its content lives at
    /// logical addresses in a store of its own.
    ///
    /// The default issues the real request, reading into a scratch
    /// buffer or writing zeros, so a decorator that overrides only
    /// `read` and `write` sees, times and costs exactly the request it
    /// would have seen before; a write charge then stores those zeros.
    /// Devices that can bill without the bytes ([`MemDisk`],
    /// [`DiskModel`], `Rc<T>`) override it.
    ///
    /// # Errors
    ///
    /// Fails as the equivalent `read` or `write` would.
    fn charge(&self, start: BlockNo, nblocks: u32, write: bool) -> Result<IoCost> {
        let mut block = [0u8; BLOCK_SIZE];
        let mut heap = Vec::new();
        let buf: &mut [u8] = if nblocks == 1 {
            &mut block
        } else {
            heap.resize(nblocks as usize * BLOCK_SIZE, 0);
            &mut heap
        };
        if write {
            self.write(start, buf)
        } else {
            self.read(start, nblocks, buf)
        }
    }
}

/// Shared handles are devices too, so a timing layer can wrap a device
/// that its caller keeps a handle to: a [`DiskModel`] over an
/// `Rc<MemDisk>` whose content the caller still inspects.
impl<T: BlockDevice + ?Sized> BlockDevice for std::rc::Rc<T> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn block_count(&self) -> u64 {
        (**self).block_count()
    }
    fn read(&self, start: BlockNo, nblocks: u32, buf: &mut [u8]) -> Result<IoCost> {
        (**self).read(start, nblocks, buf)
    }
    fn write(&self, start: BlockNo, data: &[u8]) -> Result<IoCost> {
        (**self).write(start, data)
    }
    fn flush(&self) -> Result<IoCost> {
        (**self).flush()
    }
    fn charge(&self, start: BlockNo, nblocks: u32, write: bool) -> Result<IoCost> {
        (**self).charge(start, nblocks, write)
    }
}

/// Validates a request range and buffer alignment; shared by all
/// implementations.
pub(crate) fn check_request(
    capacity: u64,
    start: BlockNo,
    nblocks: u64,
    buf_len: usize,
) -> Result<()> {
    if !buf_len.is_multiple_of(BLOCK_SIZE) || buf_len as u64 / BLOCK_SIZE as u64 != nblocks {
        return Err(BlockError::Misaligned { len: buf_len });
    }
    if start.checked_add(nblocks).is_none_or(|end| end > capacity) {
        return Err(BlockError::OutOfRange {
            start,
            count: nblocks,
            capacity,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_request_accepts_exact_fit() {
        assert!(check_request(10, 8, 2, 2 * BLOCK_SIZE).is_ok());
    }

    #[test]
    fn check_request_rejects_overflow() {
        assert!(matches!(
            check_request(10, 9, 2, 2 * BLOCK_SIZE),
            Err(BlockError::OutOfRange { .. })
        ));
        // start + nblocks overflows u64
        assert!(matches!(
            check_request(10, u64::MAX, 2, 2 * BLOCK_SIZE),
            Err(BlockError::OutOfRange { .. })
        ));
    }

    #[test]
    fn check_request_rejects_misaligned_buffer() {
        assert!(matches!(
            check_request(10, 0, 1, BLOCK_SIZE - 1),
            Err(BlockError::Misaligned { .. })
        ));
        // Buffer size disagreeing with nblocks is also misalignment.
        assert!(matches!(
            check_request(10, 0, 2, BLOCK_SIZE),
            Err(BlockError::Misaligned { .. })
        ));
    }

    #[test]
    fn iocost_combines() {
        let a = IoCost::new(SimDuration::from_micros(10));
        let b = IoCost::new(SimDuration::from_micros(5));
        assert_eq!(a.then(b).time.as_micros(), 15);
        assert_eq!(IoCost::FREE.then(a).time, a.time);
    }

    #[test]
    fn errors_display() {
        let e = BlockError::OutOfRange {
            start: 5,
            count: 2,
            capacity: 6,
        };
        assert!(e.to_string().contains("exceeds capacity 6"));
        assert!(BlockError::Misaligned { len: 3 }
            .to_string()
            .contains("not a multiple"));
    }
}
