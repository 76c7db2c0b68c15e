//! The single-client stacks of the paper's Figure 2, assembled from the
//! pinned public constructors exactly as the product's own builder
//! (`Testbed::build`) wires them, with two shims owned by the
//! benchmark spliced into the seams: [`TimedFs`] around the mount and
//! [`TimedDev`] at each block boundary. The shims only time and count;
//! the traced pass checks that a stack assembled here sends the same
//! messages and reaches the same virtual completion time as the
//! product's (`traced.parity`).
//!
//! ```text
//! NFSv3: TimedFs(Vfs) NfsMount → NfsClient → RpcClient → channel → NfsServer → Ext3
//!          → TimedDev(ServerBlock) WriteCache → Raid5 → TimedDev(Member) DiskModel → MemDisk
//! iSCSI: TimedFs(Vfs) LocalMount → Ext3 → TimedDev(ClientBlock) RemoteDisk → channel
//!          → Target → TargetCpu → TimedDev(ServerBlock) WriteCache → Raid5 → TimedDev(Member) …
//! local: TimedFs(Vfs) LocalMount → Ext3 → TimedDev(ServerBlock) WriteCache → Raid5 → …
//! ```

use crate::pinned::{
    calibration, Attr, BlockDevice, BlockNo, Bytes, CostModel, CpuAccount, DiskModel,
    EventQueueStats, Ext3, Fabric, Fd, FileSystem, FsResult, HostId, Initiator, IoCost, LinkParams,
    LocalMount, MemDisk, NfsClient, NfsConfig, NfsMount, NfsServer, Raid5, Raid5Geometry,
    RpcClient, RpcConfig, SessionParams, Sim, SimDuration, StatFs, Target, Transport, Version,
    WriteCache, BLOCK_SIZE,
};
use crate::spans::{Boundary, Recorder};
use crate::workloads::Bed;
use std::rc::Rc;

/// Times every call through a block-device seam.
pub struct TimedDev {
    inner: Rc<dyn BlockDevice>,
    rec: Rc<Recorder>,
    boundary: Boundary,
}

impl TimedDev {
    fn wrap(
        inner: Rc<dyn BlockDevice>,
        rec: &Rc<Recorder>,
        boundary: Boundary,
    ) -> Rc<dyn BlockDevice> {
        Rc::new(TimedDev {
            inner,
            rec: Rc::clone(rec),
            boundary,
        })
    }
}

impl BlockDevice for TimedDev {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }
    fn read(
        &self,
        start: BlockNo,
        nblocks: u32,
        buf: &mut [u8],
    ) -> Result<IoCost, crate::pinned::BlockError> {
        self.rec
            .span(self.boundary, "read", u64::from(nblocks), || {
                self.inner.read(start, nblocks, buf)
            })
    }
    fn write(&self, start: BlockNo, data: &[u8]) -> Result<IoCost, crate::pinned::BlockError> {
        let blocks = (data.len() / BLOCK_SIZE) as u64;
        self.rec.span(self.boundary, "write", blocks, || {
            self.inner.write(start, data)
        })
    }
    fn flush(&self) -> Result<IoCost, crate::pinned::BlockError> {
        self.rec
            .span(self.boundary, "flush", 0, || self.inner.flush())
    }
}

/// The iSCSI target's CPU accounting, as the product's builder wraps
/// the volume: each command charges the server CPU its (short) iSCSI
/// processing path, and that time extends the command's service time.
struct TargetCpu {
    inner: Rc<dyn BlockDevice>,
    sim: Rc<Sim>,
    cpu: Rc<CpuAccount>,
    cost: CostModel,
}

impl BlockDevice for TargetCpu {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }
    fn read(
        &self,
        start: BlockNo,
        nblocks: u32,
        buf: &mut [u8],
    ) -> Result<IoCost, crate::pinned::BlockError> {
        let cpu = self
            .cost
            .iscsi_request(Bytes::new(u64::from(nblocks) * 4096));
        self.cpu.charge_tagged(self.sim.now(), cpu, "iscsi.target");
        Ok(self.inner.read(start, nblocks, buf)?.then(IoCost::new(cpu)))
    }
    fn write(&self, start: BlockNo, data: &[u8]) -> Result<IoCost, crate::pinned::BlockError> {
        let cpu = self.cost.iscsi_request(Bytes::new(data.len() as u64));
        self.cpu.charge_spread_tagged(
            self.sim.now(),
            cpu,
            SimDuration::from_secs(5),
            "iscsi.target",
        );
        Ok(self.inner.write(start, data)?.then(IoCost::new(cpu)))
    }
    fn flush(&self) -> Result<IoCost, crate::pinned::BlockError> {
        self.inner.flush()
    }
}

/// Times every system call entering a mount: the root span of a
/// request. Counts calls that return `Err`.
pub struct TimedFs {
    inner: Box<dyn FileSystem>,
    rec: Rc<Recorder>,
}

impl TimedFs {
    fn call<T>(
        &self,
        name: &'static str,
        f: impl FnOnce(&dyn FileSystem) -> FsResult<T>,
    ) -> FsResult<T> {
        let out = self
            .rec
            .span(Boundary::Vfs, name, 0, || f(self.inner.as_ref()));
        if out.is_err() {
            self.rec.root_failed();
        }
        out
    }
}

impl FileSystem for TimedFs {
    fn mkdir(&self, path: &str) -> FsResult<()> {
        self.call("mkdir", |fs| fs.mkdir(path))
    }
    fn chdir(&self, path: &str) -> FsResult<()> {
        self.call("chdir", |fs| fs.chdir(path))
    }
    fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        self.call("readdir", |fs| fs.readdir(path))
    }
    fn rmdir(&self, path: &str) -> FsResult<()> {
        self.call("rmdir", |fs| fs.rmdir(path))
    }
    fn symlink(&self, target: &str, linkpath: &str) -> FsResult<()> {
        self.call("symlink", |fs| fs.symlink(target, linkpath))
    }
    fn readlink(&self, path: &str) -> FsResult<String> {
        self.call("readlink", |fs| fs.readlink(path))
    }
    fn unlink(&self, path: &str) -> FsResult<()> {
        self.call("unlink", |fs| fs.unlink(path))
    }
    fn creat(&self, path: &str) -> FsResult<()> {
        self.call("creat", |fs| fs.creat(path))
    }
    fn open(&self, path: &str) -> FsResult<Fd> {
        self.call("open", |fs| fs.open(path))
    }
    fn close(&self, fd: Fd) -> FsResult<()> {
        self.call("close", |fs| fs.close(fd))
    }
    fn link(&self, existing: &str, newpath: &str) -> FsResult<()> {
        self.call("link", |fs| fs.link(existing, newpath))
    }
    fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        self.call("rename", |fs| fs.rename(from, to))
    }
    fn truncate(&self, path: &str, size: u64) -> FsResult<()> {
        self.call("truncate", |fs| fs.truncate(path, size))
    }
    fn chmod(&self, path: &str, perm: u16) -> FsResult<()> {
        self.call("chmod", |fs| fs.chmod(path, perm))
    }
    fn chown(&self, path: &str, uid: u32, gid: u32) -> FsResult<()> {
        self.call("chown", |fs| fs.chown(path, uid, gid))
    }
    fn access(&self, path: &str) -> FsResult<()> {
        self.call("access", |fs| fs.access(path))
    }
    fn stat(&self, path: &str) -> FsResult<Attr> {
        self.call("stat", |fs| fs.stat(path))
    }
    fn utime(&self, path: &str) -> FsResult<()> {
        self.call("utime", |fs| fs.utime(path))
    }
    fn read(&self, fd: Fd, off: u64, len: usize) -> FsResult<Vec<u8>> {
        self.call("read", |fs| fs.read(fd, off, len))
    }
    fn write(&self, fd: Fd, off: u64, data: &[u8]) -> FsResult<usize> {
        self.call("write", |fs| fs.write(fd, off, data))
    }
    fn fsync(&self, fd: Fd) -> FsResult<()> {
        self.call("fsync", |fs| fs.fsync(fd))
    }
    fn statfs(&self) -> FsResult<StatFs> {
        self.call("statfs", |fs| fs.statfs())
    }
}

/// What sits under the mount, for cache control and `fsck`.
enum Under {
    Nfs(Rc<NfsClient>),
    /// Client-side ext3: over iSCSI, or directly over the RAID.
    Local(Rc<Ext3>),
}

/// An assembled stack with its recorder.
pub struct Stack {
    sim: Rc<Sim>,
    fs: TimedFs,
    under: Under,
    txn_counter: &'static str,
    pub rec: Rc<Recorder>,
}

/// The server-side RAID-5 array (4+p) behind the controller's write
/// cache, with a shim above the volume and one above each member.
fn build_raid(sim: &Rc<Sim>, rec: &Rc<Recorder>) -> Rc<dyn BlockDevice> {
    let member_blocks = calibration::VOLUME_BLOCKS / (calibration::RAID_MEMBERS as u64 - 1) + 1024;
    let members: Vec<Rc<dyn BlockDevice>> = (0..calibration::RAID_MEMBERS)
        .map(|i| {
            let store = Rc::new(MemDisk::new(format!("sd{i}"), member_blocks));
            let model = Rc::new(DiskModel::new(store, calibration::raid_member_params()));
            model.instrument(Rc::clone(sim));
            TimedDev::wrap(model, rec, Boundary::Member)
        })
        .collect();
    let r5 = Raid5::new(
        "raid5",
        members,
        Raid5Geometry {
            stripe_unit: calibration::RAID_STRIPE_UNIT,
        },
    );
    r5.instrument(Rc::clone(sim));
    let cached = Rc::new(WriteCache::new(r5, calibration::controller_cache_hit()));
    TimedDev::wrap(cached, rec, Boundary::ServerBlock)
}

fn cpu_account(sim: &Rc<Sim>, host: HostId) -> Rc<CpuAccount> {
    let cpu = Rc::new(CpuAccount::new());
    cpu.instrument(Rc::clone(sim), host);
    cpu
}

impl Stack {
    fn finish(
        sim: Rc<Sim>,
        mount: Box<dyn FileSystem>,
        under: Under,
        txn_counter: &'static str,
        rec: Rc<Recorder>,
    ) -> Stack {
        // Formatting, mounting and login are set-up, not workload.
        sim.counters().reset();
        sim.metrics().reset();
        sim.tracer().clear();
        Stack {
            sim,
            fs: TimedFs {
                inner: mount,
                rec: Rc::clone(&rec),
            },
            under,
            txn_counter,
            rec,
        }
    }

    /// Figure 2(a): the file system at the server, NFS v3 over TCP.
    pub fn nfs_v3(seed: u64, rec: &Rc<Recorder>) -> Stack {
        let rec = Rc::clone(rec);
        let sim = Sim::new(seed);
        let fabric = Fabric::new(Rc::clone(&sim), LinkParams::gigabit_lan());
        let client_cpu = cpu_account(&sim, HostId::client(0));
        let server_cpu = cpu_account(&sim, HostId::SERVER);
        let cost = CostModel::p3_933();
        let raid = build_raid(&sim, &rec);
        let fs = Ext3::mkfs(Rc::clone(&sim), raid, calibration::server_ext3_options())
            .expect("server mkfs");
        let server = Rc::new(NfsServer::new(fs, server_cpu, cost));
        let cfg = NfsConfig::for_version(Version::V3);
        let rpc = RpcClient::new(
            fabric
                .host("c0")
                .channel_flows("nfs", Version::V3.transport(), Some(cfg.nconnect)),
            RpcConfig::default(),
        );
        let client = Rc::new(NfsClient::new(
            Rc::clone(&sim),
            rpc,
            server,
            cfg,
            client_cpu,
            cost,
        ));
        client.mount();
        let mount = Box::new(NfsMount::new(Rc::clone(&client)));
        Stack::finish(sim, mount, Under::Nfs(client), "proto.nfs.txns", rec)
    }

    /// Figure 2(b): the file system at the client over an iSCSI disk.
    pub fn iscsi(seed: u64, rec: &Rc<Recorder>) -> Stack {
        let rec = Rc::clone(rec);
        let sim = Sim::new(seed);
        let fabric = Fabric::new(Rc::clone(&sim), LinkParams::gigabit_lan());
        let client_cpu = cpu_account(&sim, HostId::client(0));
        let server_cpu = cpu_account(&sim, HostId::SERVER);
        let cost = CostModel::p3_933();
        let charged = Rc::new(TargetCpu {
            inner: build_raid(&sim, &rec),
            sim: Rc::clone(&sim),
            cpu: server_cpu,
            cost,
        });
        let target = Rc::new(Target::new(charged));
        let initiator = Initiator::new(fabric.host("c0").channel("iscsi", Transport::Tcp), target);
        let disk = Rc::new(initiator.login(SessionParams::default()).expect("login"));
        let remote = TimedDev::wrap(disk, &rec, Boundary::ClientBlock);
        let fs = Rc::new(
            Ext3::mkfs(Rc::clone(&sim), remote, calibration::client_ext3_options())
                .expect("client mkfs"),
        );
        let mount = Box::new(LocalMount::new(Rc::clone(&fs), client_cpu, cost));
        Stack::finish(sim, mount, Under::Local(fs), "proto.iscsi.txns", rec)
    }

    /// The "layer alone" rung: the same ext3 and mount directly over
    /// the RAID, no protocol and no network in between.
    pub fn local(seed: u64, rec: &Rc<Recorder>) -> Stack {
        let rec = Rc::clone(rec);
        let sim = Sim::new(seed);
        let cpu = cpu_account(&sim, HostId::client(0));
        let raid = build_raid(&sim, &rec);
        let fs = Rc::new(
            Ext3::mkfs(Rc::clone(&sim), raid, calibration::client_ext3_options())
                .expect("local mkfs"),
        );
        let mount = Box::new(LocalMount::new(Rc::clone(&fs), cpu, CostModel::p3_933()));
        Stack::finish(sim, mount, Under::Local(fs), "proto.none.txns", rec)
    }

    /// `fsck` of the stack's volume: the inconsistencies found.
    pub fn fsck(&self) -> Vec<String> {
        let report = match &self.under {
            Under::Nfs(client) => client.server().fs().fsck(),
            Under::Local(fs) => fs.fsck(),
        };
        match report {
            Ok(r) => r.errors,
            Err(e) => vec![format!("fsck could not read the volume: {e:?}")],
        }
    }

    /// Event-calendar activity of this stack's simulation.
    pub fn event_stats(&self) -> EventQueueStats {
        self.sim.event_stats()
    }
}

impl Bed for Stack {
    fn fs(&self) -> &dyn FileSystem {
        &self.fs
    }
    fn settle(&self) {
        self.rec.span(Boundary::Settle, "settle", 0, || {
            if let Under::Nfs(client) = &self.under {
                client.flush_delegated_updates();
            }
            self.sim.advance(calibration::settle_time());
        });
    }
    fn cold_caches(&self) {
        self.rec
            .span(Boundary::Settle, "cold_caches", 0, || match &self.under {
                Under::Nfs(client) => {
                    client.drop_caches();
                    client.server().drop_caches();
                }
                Under::Local(fs) => {
                    let _ = fs.sync();
                    let _ = fs.drop_caches();
                }
            });
    }
    fn now_ns(&self) -> u64 {
        self.sim.now().as_nanos()
    }
    fn messages(&self) -> u64 {
        self.sim.counters().get(self.txn_counter)
    }
    fn wire_bytes(&self) -> u64 {
        self.sim.counters().get("net.total.bytes")
    }
}
