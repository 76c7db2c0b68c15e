//! RAID-0 striping over member devices.
//!
//! Block `b` lives on member `b % n` at local block `b / n`. There is
//! no redundancy: the stripe exists to aggregate the bandwidth of
//! several members, matching the "striped LUNs across iSCSI targets"
//! topology where a client's volume is spread over per-server slices.
//!
//! A multi-block request is split per member; blocks that land on the
//! same member are served sequentially there, while distinct members
//! work in parallel, so the request cost is the slowest member's
//! share.

use crate::{check_request, BlockDevice, BlockNo, IoCost, Result, BLOCK_SIZE};
use std::rc::Rc;

/// A RAID-0 stripe over equally sized member devices.
pub struct Stripe {
    name: String,
    members: Vec<Rc<dyn BlockDevice>>,
    blocks: u64,
}

impl Stripe {
    /// Creates a stripe over `members`. Capacity is the smallest
    /// member's capacity times the member count, so unequal members
    /// waste their excess rather than corrupting the geometry.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or the smallest member is empty.
    pub fn new(name: &str, members: Vec<Rc<dyn BlockDevice>>) -> Stripe {
        assert!(
            !members.is_empty(),
            "stripe {name} needs at least one member"
        );
        let per_member = members
            .iter()
            .map(|m| m.block_count())
            .min()
            .expect("non-empty");
        assert!(per_member > 0, "stripe {name} members are empty");
        let blocks = per_member * members.len() as u64;
        Stripe {
            name: name.to_string(),
            members,
            blocks,
        }
    }

    fn locate(&self, block: BlockNo) -> (usize, BlockNo) {
        let n = self.members.len() as u64;
        ((block % n) as usize, block / n)
    }

    /// Runs `op` once per block of the request and combines the
    /// per-member sequential costs into the parallel request cost.
    fn fan_out(
        &self,
        start: BlockNo,
        nblocks: u64,
        mut op: impl FnMut(&Rc<dyn BlockDevice>, BlockNo, usize) -> Result<IoCost>,
    ) -> Result<IoCost> {
        let mut per_member = vec![IoCost::FREE; self.members.len()];
        for i in 0..nblocks {
            let (m, local) = self.locate(start + i);
            let cost = op(&self.members[m], local, i as usize)?;
            per_member[m] = per_member[m].then(cost);
        }
        // Members run in parallel: the request takes as long as the
        // busiest member.
        let mut total = IoCost::FREE;
        for c in &per_member {
            if c.time > total.time {
                total = *c;
            }
        }
        Ok(total)
    }
}

impl BlockDevice for Stripe {
    fn name(&self) -> &str {
        &self.name
    }

    fn block_count(&self) -> u64 {
        self.blocks
    }

    fn read(&self, start: BlockNo, nblocks: u32, buf: &mut [u8]) -> Result<IoCost> {
        check_request(self.blocks, start, nblocks as u64, buf.len())?;
        let chunks: Vec<&mut [u8]> = buf.chunks_mut(BLOCK_SIZE).collect();
        let mut chunks = chunks;
        self.fan_out(start, nblocks as u64, |member, local, i| {
            member.read(local, 1, chunks[i])
        })
    }

    fn write(&self, start: BlockNo, data: &[u8]) -> Result<IoCost> {
        let nblocks = (data.len() / BLOCK_SIZE) as u64;
        check_request(self.blocks, start, nblocks, data.len())?;
        self.fan_out(start, nblocks, |member, local, i| {
            member.write(local, &data[i * BLOCK_SIZE..(i + 1) * BLOCK_SIZE])
        })
    }

    fn flush(&self) -> Result<IoCost> {
        // Flushes fan out to every member in parallel.
        let mut total = IoCost::FREE;
        for m in &self.members {
            let c = m.flush()?;
            if c.time > total.time {
                total = c;
            }
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockError, MemDisk};

    fn members(n: usize, blocks: u64) -> Vec<Rc<dyn BlockDevice>> {
        (0..n)
            .map(|i| Rc::new(MemDisk::new(format!("m{i}"), blocks)) as Rc<dyn BlockDevice>)
            .collect()
    }

    #[test]
    fn capacity_is_members_times_smallest() {
        let mut ms = members(3, 10);
        ms.push(Rc::new(MemDisk::new("small", 4)));
        let s = Stripe::new("s", ms);
        assert_eq!(s.block_count(), 16);
        assert_eq!(s.members.len(), 4);
    }

    #[test]
    fn blocks_round_robin_across_members() {
        let ms = members(2, 8);
        let s = Stripe::new("s", ms.clone());
        for b in 0..4u64 {
            let data = vec![b as u8 + 1; BLOCK_SIZE];
            s.write(b, &data).unwrap();
        }
        // Blocks 0,2 land on member 0 at local 0,1; blocks 1,3 on member 1.
        let mut buf = vec![0u8; BLOCK_SIZE];
        ms[0].read(0, 1, &mut buf).unwrap();
        assert_eq!(buf[0], 1);
        ms[0].read(1, 1, &mut buf).unwrap();
        assert_eq!(buf[0], 3);
        ms[1].read(0, 1, &mut buf).unwrap();
        assert_eq!(buf[0], 2);
        ms[1].read(1, 1, &mut buf).unwrap();
        assert_eq!(buf[0], 4);
    }

    #[test]
    fn round_trips_multi_block_requests() {
        let s = Stripe::new("s", members(3, 16));
        let data: Vec<u8> = (0..5 * BLOCK_SIZE)
            .map(|i| (i / BLOCK_SIZE) as u8)
            .collect();
        s.write(7, &data).unwrap();
        let mut buf = vec![0u8; 5 * BLOCK_SIZE];
        s.read(7, 5, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn bounds_are_the_stripe_capacity() {
        let s = Stripe::new("s", members(2, 4));
        assert_eq!(s.block_count(), 8);
        let mut buf = vec![0u8; BLOCK_SIZE];
        let err = s.read(8, 1, &mut buf).unwrap_err();
        assert!(matches!(err, BlockError::OutOfRange { capacity: 8, .. }));
    }
}
