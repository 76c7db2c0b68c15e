//! A fixed window onto another block device.
//!
//! Multi-initiator iSCSI targets export one LUN per session, each a
//! disjoint slice of the same backing array — the "private volume"
//! half of the paper's NFS/iSCSI sharing contrast. [`Partition`]
//! models that: block `b` of the partition is block `first + b` of the
//! underlying device, with its own name for counters and errors.

use crate::{check_request, BlockDevice, BlockNo, IoCost, Result};
use std::rc::Rc;

/// A contiguous, fixed-size slice of an underlying device.
#[derive(Clone)]
pub struct Partition {
    name: String,
    inner: Rc<dyn BlockDevice>,
    first: BlockNo,
    blocks: u64,
}

impl Partition {
    /// Creates a partition of `blocks` blocks starting at `first` on
    /// `inner`.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty or extends past the end of
    /// `inner`.
    pub fn new(
        name: impl Into<String>,
        inner: Rc<dyn BlockDevice>,
        first: BlockNo,
        blocks: u64,
    ) -> Self {
        assert!(blocks > 0, "partition must hold at least one block");
        let cap = inner.block_count();
        assert!(
            first.checked_add(blocks).is_some_and(|end| end <= cap),
            "partition [{first}, {first}+{blocks}) exceeds device capacity {cap}"
        );
        Partition {
            name: name.into(),
            inner,
            first,
            blocks,
        }
    }
}

impl BlockDevice for Partition {
    fn name(&self) -> &str {
        &self.name
    }

    fn block_count(&self) -> u64 {
        self.blocks
    }

    fn read(&self, start: BlockNo, nblocks: u32, buf: &mut [u8]) -> Result<IoCost> {
        check_request(self.blocks, start, nblocks as u64, buf.len())?;
        self.inner.read(self.first + start, nblocks, buf)
    }

    fn write(&self, start: BlockNo, data: &[u8]) -> Result<IoCost> {
        check_request(
            self.blocks,
            start,
            (data.len() / crate::BLOCK_SIZE) as u64,
            data.len(),
        )?;
        self.inner.write(self.first + start, data)
    }

    fn flush(&self) -> Result<IoCost> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockError, MemDisk, BLOCK_SIZE};

    fn disk(blocks: u64) -> Rc<dyn BlockDevice> {
        Rc::new(MemDisk::new("base", blocks))
    }

    #[test]
    fn reads_and_writes_are_offset() {
        let base = disk(100);
        let p = Partition::new("p1", Rc::clone(&base), 40, 20);
        let data = vec![0x5au8; BLOCK_SIZE];
        p.write(3, &data).unwrap();
        // Block 3 of the partition is block 43 of the base device.
        let mut buf = vec![0u8; BLOCK_SIZE];
        base.read(43, 1, &mut buf).unwrap();
        assert_eq!(buf, data);
        let mut via = vec![0u8; BLOCK_SIZE];
        p.read(3, 1, &mut via).unwrap();
        assert_eq!(via, data);
    }

    #[test]
    fn bounds_are_the_partition_not_the_device() {
        let p = Partition::new("p", disk(100), 0, 10);
        assert_eq!(p.block_count(), 10);
        let mut buf = vec![0u8; BLOCK_SIZE];
        let err = p.read(10, 1, &mut buf).unwrap_err();
        assert!(matches!(err, BlockError::OutOfRange { capacity: 10, .. }));
        let err = p.write(9, &vec![0u8; 2 * BLOCK_SIZE]).unwrap_err();
        assert!(matches!(err, BlockError::OutOfRange { .. }));
    }

    #[test]
    fn sibling_partitions_are_disjoint() {
        let base = disk(64);
        let a = Partition::new("a", Rc::clone(&base), 0, 32);
        let b = Partition::new("b", Rc::clone(&base), 32, 32);
        a.write(0, &vec![1u8; BLOCK_SIZE]).unwrap();
        b.write(0, &vec![2u8; BLOCK_SIZE]).unwrap();
        let mut buf = vec![0u8; BLOCK_SIZE];
        a.read(0, 1, &mut buf).unwrap();
        assert_eq!(buf[0], 1, "a's block 0 untouched by b");
        b.read(0, 1, &mut buf).unwrap();
        assert_eq!(buf[0], 2);
    }

    #[test]
    #[should_panic(expected = "exceeds device capacity")]
    fn oversized_partition_is_rejected() {
        let _ = Partition::new("p", disk(10), 8, 4);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn empty_partition_is_rejected() {
        let _ = Partition::new("p", disk(10), 0, 0);
    }
}
