//! Mechanical disk timing model.
//!
//! Approximates the paper's 10,000 RPM Ultra-160 SCSI drives: a
//! request pays positioning time (seek + half-rotation) unless it is
//! sequential with the previous request, plus media transfer time
//! proportional to its size.

use crate::{BlockDevice, BlockNo, IoCost, Result, BLOCK_SIZE};
use simkit::units::Bytes;
use simkit::{MetricHandle, Sim, SimDuration, StatKey};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Mechanical parameters of a disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskParams {
    /// Average seek time for a random access.
    pub avg_seek: SimDuration,
    /// Time for one full platter rotation (10,000 RPM → 6 ms).
    pub rotation: SimDuration,
    /// Sustained media transfer rate in bytes per second.
    pub transfer_rate: u64,
}

impl DiskParams {
    /// Parameters approximating the paper's 18 GB 10,000 RPM
    /// Ultra-160 SCSI drives (Seagate Cheetah class): 5.2 ms average
    /// seek, 6 ms rotation, 40 MB/s sustained transfer.
    pub fn ultra160_10k() -> Self {
        DiskParams {
            avg_seek: SimDuration::from_micros(5_200),
            rotation: SimDuration::from_micros(6_000),
            transfer_rate: 40_000_000,
        }
    }

    /// Positioning cost of a random (non-sequential) access.
    pub fn positioning(&self) -> SimDuration {
        self.avg_seek + self.rotation / 2
    }

    /// Media transfer time for `bytes`. Widened to `u128` so the
    /// product cannot saturate for any representable size.
    pub fn transfer(&self, bytes: Bytes) -> SimDuration {
        let nanos = bytes.get() as u128 * 1_000_000_000 / self.transfer_rate as u128;
        SimDuration::from_nanos(nanos.min(u64::MAX as u128) as u64)
    }
}

impl Default for DiskParams {
    fn default() -> Self {
        DiskParams::ultra160_10k()
    }
}

/// Cumulative request statistics maintained by a [`DiskModel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Read requests serviced.
    pub read_reqs: u64,
    /// Write requests serviced.
    pub write_reqs: u64,
    /// Blocks read.
    pub read_blocks: u64,
    /// Blocks written.
    pub write_blocks: u64,
    /// Requests that were sequential with their predecessor.
    pub sequential_reqs: u64,
    /// Total service time accumulated.
    pub busy: SimDuration,
}

/// A [`BlockDevice`] decorator that adds mechanical service time to an
/// underlying store (normally a [`MemDisk`](crate::MemDisk)).
#[derive(Debug)]
pub struct DiskModel<D> {
    inner: D,
    params: DiskParams,
    /// `params.positioning()`, and the media transfer time of one
    /// block, computed once: nearly every member request is one block.
    positioning: SimDuration,
    block_transfer: SimDuration,
    /// Block just past the previous request (for sequentiality).
    head: Cell<Option<BlockNo>>,
    stats: RefCell<DiskStats>,
    /// Observability handles; devices sit below the layers that own an
    /// `Rc<Sim>`, so the testbed attaches one explicitly. The service
    /// histogram is resolved once, at attach time: `service` runs per
    /// member I/O and must not format a name or look one up.
    sim: RefCell<Option<(Rc<Sim>, MetricHandle)>>,
}

impl<D: BlockDevice> DiskModel<D> {
    /// Wraps `inner` with mechanical timing `params`.
    pub fn new(inner: D, params: DiskParams) -> Self {
        DiskModel {
            inner,
            params,
            positioning: params.positioning(),
            block_transfer: params.transfer(Bytes::new(BLOCK_SIZE as u64)),
            head: Cell::new(None),
            stats: RefCell::new(DiskStats::default()),
            sim: RefCell::new(None),
        }
    }

    /// Attaches an observability handle: every serviced request is
    /// then recorded in the `disk.<name>.service` histogram and (when
    /// tracing is enabled) as a `disk` span.
    ///
    /// # Panics
    ///
    /// Panics if the histogram's name is longer than a [`StatKey`]'s
    /// 63 bytes.
    pub fn instrument(&self, sim: Rc<Sim>) {
        let service = sim
            .metrics()
            .handle(StatKey::new("disk").text(self.inner.name()).push("service"));
        *self.sim.borrow_mut() = Some((sim, service));
    }

    /// A copy of the cumulative statistics.
    pub fn stats(&self) -> DiskStats {
        *self.stats.borrow()
    }

    fn service(&self, start: BlockNo, nblocks: u64, is_read: bool) -> SimDuration {
        let sequential = self.head.get() == Some(start);
        let mut t = if nblocks == 1 {
            self.block_transfer
        } else {
            self.params
                .transfer(Bytes::new(nblocks * BLOCK_SIZE as u64))
        };
        if !sequential {
            t += self.positioning;
        }
        self.head.set(Some(start + nblocks));
        let mut s = self.stats.borrow_mut();
        if sequential {
            s.sequential_reqs += 1;
        }
        if is_read {
            s.read_reqs += 1;
            s.read_blocks += nblocks;
        } else {
            s.write_reqs += 1;
            s.write_blocks += nblocks;
        }
        s.busy += t;
        drop(s);
        if let Some((sim, service)) = self.sim.borrow().as_ref() {
            service.record_duration(t);
            let tracer = sim.tracer();
            if tracer.enabled() {
                let now = sim.now();
                // Physical disks live at the server regardless of
                // which client's request reached them.
                tracer.record_at(
                    simkit::HostId::SERVER,
                    "disk",
                    if is_read { "read" } else { "write" },
                    now,
                    now + t,
                    vec![
                        ("dev", self.inner.name().to_owned()),
                        ("start", start.to_string()),
                        ("blocks", nblocks.to_string()),
                        ("seq", sequential.to_string()),
                    ],
                );
            }
        }
        t
    }
}

impl<D: BlockDevice> BlockDevice for DiskModel<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }

    fn read(&self, start: BlockNo, nblocks: u32, buf: &mut [u8]) -> Result<IoCost> {
        let below = self.inner.read(start, nblocks, buf)?;
        let t = self.service(start, nblocks as u64, true);
        Ok(below.then(IoCost::new(t)))
    }

    fn write(&self, start: BlockNo, data: &[u8]) -> Result<IoCost> {
        let below = self.inner.write(start, data)?;
        let nblocks = (data.len() / BLOCK_SIZE) as u64;
        let t = self.service(start, nblocks, false);
        Ok(below.then(IoCost::new(t)))
    }

    fn flush(&self) -> Result<IoCost> {
        self.inner.flush()
    }

    /// Runs the service model as the real request would and asks the
    /// store below only to charge (for a [`MemDisk`](crate::MemDisk),
    /// a range check).
    fn charge(&self, start: BlockNo, nblocks: u32, write: bool) -> Result<IoCost> {
        let below = self.inner.charge(start, nblocks, write)?;
        let t = self.service(start, nblocks as u64, !write);
        Ok(below.then(IoCost::new(t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDisk;

    fn disk() -> DiskModel<MemDisk> {
        DiskModel::new(MemDisk::new("d", 100_000), DiskParams::ultra160_10k())
    }

    #[test]
    fn random_access_pays_positioning() {
        let d = disk();
        let mut buf = vec![0u8; BLOCK_SIZE];
        let c = d.read(50, 1, &mut buf).unwrap();
        // 5.2ms seek + 3ms rotational latency + 4KB/40MBs ≈ 102.4us
        let expected = SimDuration::from_micros(5_200 + 3_000)
            + DiskParams::ultra160_10k().transfer(Bytes::new(BLOCK_SIZE as u64));
        assert_eq!(c.time, expected);
    }

    #[test]
    fn sequential_access_skips_positioning() {
        let d = disk();
        let mut buf = vec![0u8; BLOCK_SIZE];
        d.read(50, 1, &mut buf).unwrap();
        let c = d.read(51, 1, &mut buf).unwrap();
        assert_eq!(c.time, d.params.transfer(Bytes::new(BLOCK_SIZE as u64)));
        assert_eq!(d.stats().sequential_reqs, 1);
    }

    #[test]
    fn transfer_scales_with_size() {
        let p = DiskParams::ultra160_10k();
        assert_eq!(
            p.transfer(Bytes::new(40_000_000)),
            SimDuration::from_secs(1)
        );
        assert_eq!(
            p.transfer(Bytes::new(8 * BLOCK_SIZE as u64)).as_nanos(),
            2 * p.transfer(Bytes::new(4 * BLOCK_SIZE as u64)).as_nanos()
        );
    }

    #[test]
    fn stats_accumulate() {
        let d = disk();
        let mut buf = vec![0u8; 2 * BLOCK_SIZE];
        d.read(0, 2, &mut buf).unwrap();
        d.write(10, &buf).unwrap();
        let s = d.stats();
        assert_eq!(s.read_reqs, 1);
        assert_eq!(s.write_reqs, 1);
        assert_eq!(s.read_blocks, 2);
        assert_eq!(s.write_blocks, 2);
        assert!(s.busy > SimDuration::ZERO);
    }

    #[test]
    fn instrumented_model_records_service_times() {
        use simkit::Sim;
        let sim = Sim::new(1);
        let d = disk();
        let mut buf = vec![0u8; BLOCK_SIZE];
        d.read(50, 1, &mut buf).unwrap(); // before attach: unrecorded
        d.instrument(sim.clone());
        d.read(51, 1, &mut buf).unwrap();
        d.write(60, &buf).unwrap();
        let h = sim.metrics().histogram("disk.d.service").unwrap();
        assert_eq!(h.count(), 2);
        assert!(h.max() > 0);
        // Spans only when the tracer is on.
        assert!(sim.tracer().is_empty());
        sim.tracer().set_enabled(true);
        d.read(0, 1, &mut buf).unwrap();
        let spans = sim.tracer().spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].layer, "disk");
        assert_eq!(spans[0].op, "read");
    }

    #[test]
    fn data_round_trips_through_model() {
        let d = disk();
        let data = vec![7u8; BLOCK_SIZE];
        d.write(3, &data).unwrap();
        let mut buf = vec![0u8; BLOCK_SIZE];
        d.read(3, 1, &mut buf).unwrap();
        assert_eq!(buf, data);
    }
}
