//! Controller write-back cache (the ServeRAID adapter's cache).
//!
//! Writes land in controller RAM at a small fixed cost and destage to
//! the underlying array in the background; reads pass through at full
//! cost (the workloads that matter here never read what is still in
//! the controller cache without having it in a host cache too).

use crate::{BlockDevice, BlockNo, IoCost, Result};
use simkit::SimDuration;

/// A write-back cache in front of a device.
#[derive(Debug)]
pub struct WriteCache<D> {
    inner: D,
    hit_cost: SimDuration,
}

impl<D: BlockDevice> WriteCache<D> {
    /// Wraps `inner`; each write costs `hit_cost` in the foreground
    /// while the device write behind it goes uncharged.
    pub fn new(inner: D, hit_cost: SimDuration) -> Self {
        WriteCache { inner, hit_cost }
    }
}

impl<D: BlockDevice> BlockDevice for WriteCache<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }

    fn read(&self, start: BlockNo, nblocks: u32, buf: &mut [u8]) -> Result<IoCost> {
        self.inner.read(start, nblocks, buf)
    }

    fn write(&self, start: BlockNo, data: &[u8]) -> Result<IoCost> {
        self.inner.write(start, data)?;
        Ok(IoCost::new(self.hit_cost))
    }

    fn flush(&self) -> Result<IoCost> {
        // Battery-backed cache: a flush is already durable.
        Ok(IoCost::new(self.hit_cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskModel, DiskParams, MemDisk, BLOCK_SIZE};

    fn cached() -> WriteCache<DiskModel<MemDisk>> {
        WriteCache::new(
            DiskModel::new(MemDisk::new("d", 1000), DiskParams::ultra160_10k()),
            SimDuration::from_micros(250),
        )
    }

    #[test]
    fn writes_cost_the_cache_hit() {
        let d = cached();
        let c = d.write(100, &vec![1u8; BLOCK_SIZE]).unwrap();
        assert_eq!(c.time, SimDuration::from_micros(250));
    }

    #[test]
    fn reads_pass_through_at_device_cost() {
        let d = cached();
        d.write(5, &vec![7u8; BLOCK_SIZE]).unwrap();
        let mut buf = vec![0u8; BLOCK_SIZE];
        let c = d.read(5, 1, &mut buf).unwrap();
        assert_eq!(buf[0], 7);
        assert!(c.time > SimDuration::from_micros(250));
    }

    #[test]
    fn data_is_durable_through_the_cache() {
        let d = cached();
        let data = vec![9u8; 2 * BLOCK_SIZE];
        d.write(10, &data).unwrap();
        d.flush().unwrap();
        let mut buf = vec![0u8; 2 * BLOCK_SIZE];
        d.read(10, 2, &mut buf).unwrap();
        assert_eq!(buf, data);
    }
}
