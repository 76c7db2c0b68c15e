//! Software RAID-5 in the paper's 4+p configuration.
//!
//! Left-symmetric rotating parity over `n` member devices.
//!
//! **What is charged.** Every member request is a
//! [`BlockDevice::charge`]: each member bills its service time (head
//! position, busy time, histogram, span) exactly as for the real
//! request, and moves no byte. A read charges its data member. Every
//! block written pays the classic read-modify-write penalty, one block
//! per member request: a read of the old data, a read of the old
//! parity, a write of the new data and a write of the new parity, in
//! that order, the reads in parallel and then the writes. A write
//! covering a whole stripe pays it too, where a real array would
//! compute parity directly. That is a known deviation (EXPERIMENTS.md
//! "Known deviations" #6), pinned by
//! `full_stripe_write_is_one_rmw_per_block` below because every
//! committed number was recorded with it.
//!
//! **Where the bytes are.** The array owns one store at logical block
//! addresses (a [`MemDisk`], possibly a fork of a captured image); a
//! read or a write moves its bytes once, there, after the charges. No
//! member holds content, data or parity: nothing in the model reads a
//! byte at its member address, and XOR reconstruction over maintained
//! parity would yield exactly what the logical store holds.
//!
//! **Degraded mode.** Failing a member is a flag. A read whose data
//! member has failed charges a read of every survivor, in parallel,
//! as XOR reconstruction would. A write whose data member has failed
//! charges the survivors' reads, the parity read and the parity write,
//! and the array remembers the member block; healing the member
//! charges one write of each remembered block, in block order.

use crate::{check_request, BlockDevice, BlockError, BlockNo, IoCost, MemDisk, Result, BLOCK_SIZE};
use simkit::{MetricHandle, Sim, SimDuration};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Geometry of a RAID-5 array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Raid5Geometry {
    /// Stripe unit in blocks (the contiguous run placed on one member
    /// before moving to the next). The paper's ServeRAID default of
    /// 64 KiB corresponds to 16 blocks.
    pub stripe_unit: u64,
}

impl Default for Raid5Geometry {
    fn default() -> Self {
        Raid5Geometry { stripe_unit: 16 }
    }
}

/// A RAID-5 array over `n ≥ 3` member block devices.
pub struct Raid5 {
    name: String,
    members: Vec<Rc<dyn BlockDevice>>,
    geometry: Raid5Geometry,
    failed: RefCell<Vec<bool>>,
    /// The array's content, at logical block addresses.
    store: Rc<MemDisk>,
    /// Blocks written while their data member was failed, by (member,
    /// member block): what healing the member writes back.
    stale: RefCell<BTreeSet<(usize, BlockNo)>>,
    capacity: u64,
    /// Observability handles, attached by the testbed; the
    /// parity-update histogram is resolved once, at attach time.
    sim: RefCell<Option<(Rc<Sim>, MetricHandle)>>,
}

impl std::fmt::Debug for Raid5 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Raid5")
            .field("name", &self.name)
            .field("members", &self.members.len())
            .field("geometry", &self.geometry)
            .field("capacity", &self.capacity)
            .finish()
    }
}

/// Where a logical block lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Placement {
    data_disk: usize,
    parity_disk: usize,
    member_block: BlockNo,
}

impl Raid5 {
    /// Builds an array from identically sized members, with a blank
    /// store of its own.
    ///
    /// # Panics
    ///
    /// Panics if fewer than three members are supplied or their sizes
    /// differ.
    pub fn new(
        name: impl Into<String>,
        members: Vec<Rc<dyn BlockDevice>>,
        geometry: Raid5Geometry,
    ) -> Self {
        let name = name.into();
        let blocks = members.first().map_or(0, |m| m.block_count())
            * (members.len() as u64).saturating_sub(1);
        let store = Rc::new(MemDisk::new(name.clone(), blocks));
        Self::with_store(name, members, geometry, store)
    }

    /// Builds an array from identically sized members whose content
    /// lives in `store`, at logical block addresses: a blank disk, or a
    /// fork of a captured image.
    ///
    /// # Panics
    ///
    /// Panics if fewer than three members are supplied, their sizes
    /// differ, or `store` is smaller than the array.
    pub fn with_store(
        name: impl Into<String>,
        members: Vec<Rc<dyn BlockDevice>>,
        geometry: Raid5Geometry,
        store: Rc<MemDisk>,
    ) -> Self {
        assert!(members.len() >= 3, "RAID-5 requires at least 3 members");
        let size = members[0].block_count();
        assert!(
            members.iter().all(|m| m.block_count() == size),
            "RAID-5 members must be identically sized"
        );
        let n = members.len() as u64;
        // Whole stripes only.
        let stripes = size / geometry.stripe_unit;
        let capacity = stripes * geometry.stripe_unit * (n - 1);
        assert!(
            store.block_count() >= capacity,
            "the RAID-5 store must hold the array's capacity"
        );
        let count = members.len();
        Raid5 {
            name: name.into(),
            members,
            geometry,
            failed: RefCell::new(vec![false; count]),
            store,
            stale: RefCell::new(BTreeSet::new()),
            capacity,
            sim: RefCell::new(None),
        }
    }

    /// Attaches an observability handle: parity updates are then
    /// recorded in the `raid5.<name>.parity_update` histogram and
    /// (when tracing is enabled) as `raid5` spans.
    pub fn instrument(&self, sim: Rc<Sim>) {
        let parity_update = sim
            .metrics()
            .handle(&format!("raid5.{}.parity_update", self.name));
        *self.sim.borrow_mut() = Some((sim, parity_update));
    }

    /// Records one parity-update cycle (the RMW penalty the paper
    /// measures as RAID-5's small-write cost).
    fn note_parity_update(&self, lb: BlockNo, t: SimDuration, degraded: bool) {
        if let Some((sim, parity_update)) = self.sim.borrow().as_ref() {
            parity_update.record_duration(t);
            let tracer = sim.tracer();
            if tracer.enabled() {
                let now = sim.now();
                // The array (and its parity work) lives at the server.
                tracer.record_at(
                    simkit::HostId::SERVER,
                    "raid5",
                    "parity_update",
                    now,
                    now + t,
                    vec![
                        ("array", self.name.clone()),
                        ("lb", lb.to_string()),
                        ("degraded", degraded.to_string()),
                    ],
                );
            }
        }
    }

    /// Marks member `idx` failed; subsequent reads of its blocks are
    /// charged as reconstructions, and writes to them charge a parity
    /// update and are remembered until the member heals.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range. Public for ROADMAP item 12's
    /// disk-failure fault schedule.
    pub fn fail_member(&self, idx: usize) {
        self.failed.borrow_mut()[idx] = true;
    }

    /// Restores member `idx`: charges it one write of every block
    /// written while it was down, in block order (a real array would
    /// rebuild it whole), and returns what those writes cost. Public
    /// for ROADMAP item 12's disk-failure fault schedule.
    ///
    /// # Errors
    ///
    /// Fails as the member's `charge` does; the member then stays
    /// failed and keeps the blocks not yet written back.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn heal_member(&self, idx: usize) -> Result<IoCost> {
        let mut stale = self.stale.borrow_mut();
        let mut cost = IoCost::FREE;
        while let Some(&key) = stale.range((idx, 0)..=(idx, BlockNo::MAX)).next() {
            cost = cost.then(self.members[idx].charge(key.1, 1, true)?);
            stale.remove(&key);
        }
        self.failed.borrow_mut()[idx] = false;
        Ok(cost)
    }

    fn placement(&self, lb: BlockNo) -> Placement {
        let n = self.members.len() as u64;
        let unit = self.geometry.stripe_unit;
        let per_stripe = (n - 1) * unit;
        let stripe = lb / per_stripe;
        let within = lb % per_stripe;
        let unit_idx = within / unit;
        let off = within % unit;
        // Left-symmetric: parity rotates from the last disk downward;
        // data units start just after the parity disk.
        let parity_disk = ((n - 1) - (stripe % n)) as usize;
        let data_disk = ((parity_disk as u64 + 1 + unit_idx) % n) as usize;
        Placement {
            data_disk,
            parity_disk,
            member_block: stripe * unit + off,
        }
    }

    fn is_failed(&self, idx: usize) -> bool {
        self.failed.borrow()[idx]
    }

    /// Charges the reads that reconstructing the block at (`disk`,
    /// `block`) makes: one of every other member, in parallel, so the
    /// cost is the slowest.
    fn charge_survivors(&self, disk: usize, block: BlockNo) -> Result<IoCost> {
        let mut cost = SimDuration::ZERO;
        for (i, member) in self.members.iter().enumerate() {
            if i == disk {
                continue;
            }
            if self.is_failed(i) {
                return Err(BlockError::DeviceFailed {
                    device: format!("{}:{}", self.name, i),
                });
            }
            cost = cost.max(member.charge(block, 1, false)?.time);
        }
        Ok(IoCost::new(cost))
    }

    /// Charges the member reads behind one logical block: its data
    /// member's, or every survivor's if that member has failed.
    fn charge_read(&self, lb: BlockNo) -> Result<IoCost> {
        let p = self.placement(lb);
        if self.is_failed(p.data_disk) {
            self.charge_survivors(p.data_disk, p.member_block)
        } else {
            self.members[p.data_disk].charge(p.member_block, 1, false)
        }
    }

    /// Read-modify-write of a single logical block.
    fn write_one(&self, lb: BlockNo, data: &[u8]) -> Result<IoCost> {
        let Placement {
            data_disk,
            parity_disk,
            member_block: b,
        } = self.placement(lb);
        let (data_member, parity_member) = (&self.members[data_disk], &self.members[parity_disk]);
        let data_ok = !self.is_failed(data_disk);
        let parity_ok = !self.is_failed(parity_disk);

        let cost = if data_ok && parity_ok {
            let r1 = data_member.charge(b, 1, false)?;
            let r2 = parity_member.charge(b, 1, false)?;
            let w1 = data_member.charge(b, 1, true)?;
            let w2 = parity_member.charge(b, 1, true)?;
            // Reads in parallel, then writes in parallel.
            let t = r1.time.max(r2.time) + w1.time.max(w2.time);
            self.note_parity_update(lb, t, false);
            IoCost::new(t)
        } else if data_ok {
            // Parity disk failed: just write the data.
            data_member.charge(b, 1, true)?
        } else if parity_ok {
            // Data disk failed: reconstruct the old data, fold the new
            // data into parity, and remember the block for the heal.
            let rc = self.charge_survivors(data_disk, b)?;
            let r2 = parity_member.charge(b, 1, false)?;
            let w = parity_member.charge(b, 1, true)?;
            self.stale.borrow_mut().insert((data_disk, b));
            let t = rc.time.max(r2.time) + w.time;
            self.note_parity_update(lb, t, true);
            IoCost::new(t)
        } else {
            return Err(BlockError::DeviceFailed {
                device: self.name.clone(),
            });
        };
        self.store.write(lb, data)?;
        Ok(cost)
    }
}

impl BlockDevice for Raid5 {
    fn name(&self) -> &str {
        &self.name
    }

    fn block_count(&self) -> u64 {
        self.capacity
    }

    fn read(&self, start: BlockNo, nblocks: u32, buf: &mut [u8]) -> Result<IoCost> {
        check_request(self.capacity, start, nblocks as u64, buf.len())?;
        let mut total = SimDuration::ZERO;
        for lb in start..start + nblocks as u64 {
            total += self.charge_read(lb)?.time;
        }
        self.store.read(start, nblocks, buf)?;
        Ok(IoCost::new(total))
    }

    fn write(&self, start: BlockNo, data: &[u8]) -> Result<IoCost> {
        let nblocks = (data.len() / BLOCK_SIZE) as u64;
        check_request(self.capacity, start, nblocks, data.len())?;
        let mut total = SimDuration::ZERO;
        for i in 0..nblocks {
            let c = self.write_one(start + i, &data[(i as usize) * BLOCK_SIZE..][..BLOCK_SIZE])?;
            total += c.time;
        }
        Ok(IoCost::new(total))
    }

    fn flush(&self) -> Result<IoCost> {
        let mut t = SimDuration::ZERO;
        for m in &self.members {
            t = t.max(m.flush()?.time);
        }
        Ok(IoCost::new(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDisk;

    fn array(members: usize, blocks_per_member: u64) -> Raid5 {
        let ms: Vec<Rc<dyn BlockDevice>> = (0..members)
            .map(|i| {
                Rc::new(MemDisk::new(format!("m{i}"), blocks_per_member)) as Rc<dyn BlockDevice>
            })
            .collect();
        Raid5::new("r5", ms, Raid5Geometry { stripe_unit: 4 })
    }

    fn block(fill: u8) -> Vec<u8> {
        vec![fill; BLOCK_SIZE]
    }

    #[test]
    fn capacity_excludes_parity() {
        let r = array(5, 100);
        // 100 blocks/member, unit 4 → 25 stripes × 4 units × 4 data disks
        assert_eq!(r.block_count(), 400);
    }

    #[test]
    fn round_trip_across_stripes() {
        let r = array(5, 100);
        for lb in 0..64u64 {
            r.write(lb, &block(lb as u8 + 1)).unwrap();
        }
        let mut buf = block(0);
        for lb in 0..64u64 {
            r.read(lb, 1, &mut buf).unwrap();
            assert_eq!(buf[0], lb as u8 + 1, "block {lb}");
        }
    }

    #[test]
    fn parity_rotates_across_stripes() {
        let r = array(5, 100);
        // Within one stripe all data placements share a parity disk;
        // consecutive stripes use different parity disks.
        let p0 = r.placement(0);
        let p1 = r.placement(16); // per_stripe = 4 disks-1... = 16
        assert_ne!(p0.parity_disk, p1.parity_disk);
        for i in 0..16 {
            assert_eq!(r.placement(i).parity_disk, p0.parity_disk);
            assert_ne!(r.placement(i).data_disk, p0.parity_disk);
        }
    }

    #[test]
    fn reads_survive_any_single_failure() {
        let r = array(5, 100);
        for lb in 0..64u64 {
            r.write(lb, &block((lb % 250) as u8 + 1)).unwrap();
        }
        for failed in 0..5 {
            r.fail_member(failed);
            let mut buf = block(0);
            for lb in 0..64u64 {
                r.read(lb, 1, &mut buf).unwrap();
                assert_eq!(buf[0], (lb % 250) as u8 + 1, "member {failed}, block {lb}");
            }
            r.heal_member(failed).unwrap();
        }
    }

    #[test]
    fn writes_in_degraded_mode_are_durable() {
        let r = array(4, 64);
        r.write(0, &block(1)).unwrap();
        let home = r.placement(0).data_disk;
        r.fail_member(home);
        // Update the block while its home disk is down.
        r.write(0, &block(9)).unwrap();
        let mut buf = block(0);
        r.read(0, 1, &mut buf).unwrap();
        assert_eq!(buf[0], 9);
        // The read reconstructed: it needs every other member.
        r.fail_member((home + 1) % 4);
        assert!(r.read(0, 1, &mut buf).is_err());
    }

    #[test]
    fn double_failure_is_an_error() {
        let r = array(4, 64);
        r.write(0, &block(1)).unwrap();
        r.fail_member(0);
        r.fail_member(1);
        let mut buf = block(0);
        let mut failures = 0;
        for lb in 0..12u64 {
            if r.read(lb, 1, &mut buf).is_err() {
                failures += 1;
            }
        }
        assert!(failures > 0, "some reads must hit the failed pair");
    }

    #[test]
    fn parity_updates_are_observable_when_instrumented() {
        use simkit::Sim;
        let sim = Sim::new(7);
        sim.tracer().set_enabled(true);
        let r = array(5, 100);
        r.instrument(sim.clone());
        r.write(0, &block(1)).unwrap();
        let h = sim.metrics().histogram("raid5.r5.parity_update").unwrap();
        assert_eq!(h.count(), 1);
        let spans = sim.tracer().spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].layer, "raid5");
        assert_eq!(spans[0].op, "parity_update");
        // Degraded fold path records too, flagged as such.
        r.fail_member(r.placement(0).data_disk);
        r.write(0, &block(2)).unwrap();
        let spans = sim.tracer().spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[1]
            .attrs
            .iter()
            .any(|(k, v)| *k == "degraded" && v == "true"));
    }

    /// The paper's 4+p array over mechanical members, and the members.
    fn timed_array() -> (Raid5, Vec<Rc<crate::DiskModel<MemDisk>>>) {
        use crate::{DiskModel, DiskParams};
        let disks: Vec<_> = (0..5)
            .map(|i| {
                Rc::new(DiskModel::new(
                    MemDisk::new(format!("m{i}"), 1000),
                    DiskParams::ultra160_10k(),
                ))
            })
            .collect();
        let ms = disks
            .iter()
            .map(|d| Rc::clone(d) as Rc<dyn BlockDevice>)
            .collect();
        (Raid5::new("r5", ms, Raid5Geometry::default()), disks)
    }

    #[test]
    fn small_write_costs_more_than_read() {
        let (r, _) = timed_array();
        let w = r.write(123, &block(1)).unwrap();
        let mut buf = block(0);
        let rd = r.read(123, 1, &mut buf).unwrap();
        // RMW = parallel reads + parallel writes ≥ 2 service times.
        assert!(w.time > rd.time, "{} !> {}", w.time, rd.time);
    }

    /// Pins the known deviation the module doc describes: one command
    /// covering a whole stripe (4 data disks x 16 blocks) costs, and
    /// asks of every member, exactly what 64 one-block writes do. A
    /// direct-parity full-stripe path moves virtual time in every
    /// committed table; this test makes that a deliberate change.
    #[test]
    fn full_stripe_write_is_one_rmw_per_block() {
        const STRIPE: u64 = 64;
        let data: Vec<u8> = (0..STRIPE as usize * BLOCK_SIZE)
            .map(|i| (i / BLOCK_SIZE) as u8 + 1)
            .collect();

        let (whole, whole_disks) = timed_array();
        let one_command = whole.write(STRIPE, &data).unwrap();

        let (split, split_disks) = timed_array();
        let mut block_by_block = SimDuration::ZERO;
        for (i, b) in data.chunks(BLOCK_SIZE).enumerate() {
            block_by_block += split.write(STRIPE + i as u64, b).unwrap().time;
        }

        assert_eq!(one_command.time, block_by_block);
        let mut requests = 0;
        for (w, s) in whole_disks.iter().zip(&split_disks) {
            assert_eq!(w.stats(), s.stats());
            assert_eq!(w.stats().read_blocks, w.stats().read_reqs);
            assert_eq!(w.stats().write_blocks, w.stats().write_reqs);
            requests += w.stats().read_reqs + w.stats().write_reqs;
        }
        assert_eq!(requests, 4 * STRIPE, "2 reads + 2 writes per block");
    }
}
