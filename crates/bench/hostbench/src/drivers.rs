//! Drivers: standalone loops over one layer's public functions, each a
//! fixed number of operations, reported as host ns per operation (and
//! allocations per operation where the layer is expected to be
//! allocation-free or allocation-bound). The Dagenais rung: each layer
//! alone, before the spans show it stacked.
//!
//! They do not depend on the workload or the seed: every traced pass
//! runs all of them (≈3 s), after its own work, so the numbers sit
//! beside the spans they explain.

use crate::alloc;
use crate::host;
use crate::pinned::{
    build_testbed, calibration, codec, run_indexed, traces_analyze, traces_generate, Attr,
    BlockDevice, Bytes, CostModel, CpuAccount, EventQueue, Ext3, Fabric, Fd, FileSystem, FsResult,
    HostId, LinkParams, LocalMount, MemDisk, PostmarkConfig, PostmarkSession, Protocol, Raid5,
    Raid5Geometry, RpcClient, RpcConfig, SetupKey, Sim, SimDuration, SimTime, Snapshot, StatFs,
    TestbedConfig, Transport, TransportModel, BLOCK_SIZE,
};
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// `(metric name, value, unit)` rows, in output order.
pub type Rows = Vec<(String, f64, &'static str)>;

/// Times `ops` calls of `f`; pushes `<name>` in ns per `per_call`-th of
/// a call (e.g. blocks moved per call) and, if asked, `<name>`'s
/// allocations per call.
fn drive(
    rows: &mut Rows,
    name: &str,
    ops: u64,
    per_call: u64,
    count_allocs: bool,
    mut f: impl FnMut(u64),
) {
    let allocs0 = alloc::snapshot().0;
    let t0 = Instant::now();
    for i in 0..ops {
        f(i);
    }
    let ns = t0.elapsed().as_nanos() as f64;
    let allocs = alloc::snapshot().0 - allocs0;
    rows.push((name.to_string(), ns / (ops * per_call) as f64, "ns"));
    if count_allocs {
        let stem = name.split_once("_ns").map_or(name, |(stem, _)| stem);
        rows.push((
            format!("{stem}.allocs_per_op"),
            allocs as f64 / ops as f64,
            "count/op",
        ));
    }
}

fn block(fill: u8) -> Vec<u8> {
    vec![fill; BLOCK_SIZE]
}

fn memdisk(rows: &mut Rows) {
    const BLOCKS: u64 = 16_384; // 64 MB
    let data = block(0x5a);
    // Fill and release one disk first, so the timed one below reuses
    // resident memory: the figure wanted is the map and the copy, not
    // this VM's price for a fresh page.
    let scratch = MemDisk::new("scratch", BLOCKS);
    for i in 0..BLOCKS {
        scratch.write(i, &data).expect("in range");
    }
    drop(scratch);
    let disk = MemDisk::new("bench", BLOCKS);
    drive(
        rows,
        "blockdev.memdisk.write_ns_per_block",
        BLOCKS,
        1,
        true,
        |i| {
            disk.write(i, &data).expect("in range");
        },
    );
    let mut buf = block(0);
    drive(
        rows,
        "blockdev.memdisk.read_ns_per_block",
        BLOCKS,
        1,
        true,
        |i| {
            // A stride co-prime with the size: not the insertion order.
            disk.read((i * 7919) % BLOCKS, 1, &mut buf)
                .expect("in range");
        },
    );
    let fork = MemDisk::from_image(Arc::new(disk.image()));
    drive(
        rows,
        "blockdev.memdisk.overlay_read_ns_per_block",
        BLOCKS,
        1,
        false,
        |i| {
            fork.read((i * 7919) % BLOCKS, 1, &mut buf)
                .expect("in range");
        },
    );
    black_box(&buf);
}

fn raid5(rows: &mut Rows) {
    let unit = calibration::RAID_STRIPE_UNIT;
    let members: Vec<Rc<dyn BlockDevice>> = (0..calibration::RAID_MEMBERS)
        .map(|i| Rc::new(MemDisk::new(format!("m{i}"), 65_536)) as Rc<dyn BlockDevice>)
        .collect();
    let data_members = members.len() as u64 - 1;
    let array = Raid5::new("bench", members, Raid5Geometry { stripe_unit: unit });
    let stripe_blocks = unit * data_members;
    let stripes = array.block_count() / stripe_blocks;
    let full = vec![0xa5u8; stripe_blocks as usize * BLOCK_SIZE];
    drive(
        rows,
        "blockdev.raid5.full_stripe_write_ns",
        512,
        1,
        false,
        |i| {
            array
                .write((i % stripes) * stripe_blocks, &full)
                .expect("in range");
        },
    );
    let one = block(0x3c);
    drive(rows, "blockdev.raid5.small_write_ns", 8_192, 1, true, |i| {
        // One block per stripe: every write is a read-modify-write.
        array
            .write((i * 37 % 512) * stripe_blocks + i % stripe_blocks, &one)
            .expect("in range");
    });
    let mut buf = vec![0u8; unit as usize * BLOCK_SIZE];
    drive(
        rows,
        "blockdev.raid5.read_ns_per_block",
        2_048,
        unit,
        false,
        |i| {
            array
                .read((i % (512 * data_members)) * unit, unit as u32, &mut buf)
                .expect("in range");
        },
    );
    black_box(&buf);
}

/// ext3 through its mount, on a bare `MemDisk`, in 500-entry
/// directories as PostMark makes them.
fn ext3(rows: &mut Rows) {
    const FILES: u64 = 2_000;
    let sim = Sim::new(1);
    let disk = Rc::new(MemDisk::new("bench", 262_144));
    let fs = Rc::new(
        Ext3::mkfs(Rc::clone(&sim), disk, calibration::client_ext3_options()).expect("mkfs"),
    );
    let cpu = Rc::new(CpuAccount::new());
    let mount = LocalMount::new(fs, cpu, CostModel::p3_933());
    let paths: Vec<String> = (0..FILES).map(|i| format!("/d{}/pm{i}", i / 500)).collect();
    for d in 0..FILES.div_ceil(500) {
        mount.mkdir(&format!("/d{d}")).expect("mkdir");
    }
    drive(rows, "ext3.create_ns", FILES, 1, true, |i| {
        mount.creat(&paths[i as usize]).expect("creat");
    });
    drive(rows, "ext3.lookup_ns", FILES * 4, 1, false, |i| {
        black_box(
            mount
                .stat(&paths[(i * 7919 % FILES) as usize])
                .expect("stat"),
        );
    });
    let fd = mount.open(&paths[0]).expect("open");
    let data = block(0x77);
    drive(rows, "ext3.write_4k_ns", 8_192, 1, true, |i| {
        mount.write(fd, i * 4096, &data).expect("write");
    });
    drive(rows, "ext3.read_4k_ns", 8_192, 1, false, |i| {
        black_box(
            mount
                .read(fd, (i * 7919 % 8_192) * 4096, 4096)
                .expect("read"),
        );
    });
    drive(rows, "ext3.commit_ns", 256, 1, false, |i| {
        mount.write(fd, i * 4096, &data).expect("write");
        mount.fsync(fd).expect("fsync");
    });
    drive(rows, "ext3.unlink_ns", FILES, 1, false, |i| {
        mount.unlink(&paths[i as usize]).expect("unlink");
    });
}

fn wire(rows: &mut Rows) {
    let sim = Sim::new(1);
    let fabric = Fabric::new(Rc::clone(&sim), LinkParams::gigabit_lan());
    let rpc = RpcClient::new(
        fabric.host("c0").channel("nfs", Transport::Tcp),
        RpcConfig::default(),
    );
    drive(rows, "rpc.call_ns", 400_000, 1, true, |_| {
        black_box(rpc.call("null", Bytes::new(40), Bytes::new(24), SimDuration::ZERO));
    });
    drive(rows, "rpc.wire.codec_ns", 1_000_000, 1, false, |i| {
        black_box(codec::rpc_wire(i as u32));
    });
    drive(rows, "nfs.xdr.codec_ns", 1_000_000, 1, false, |i| {
        black_box(codec::nfs_xdr(i as u32));
    });
    drive(rows, "iscsi.pdu.codec_ns", 2_000_000, 1, false, |i| {
        black_box(codec::iscsi_pdu(i as u32));
    });
    drive(rows, "scsi.cdb.codec_ns", 1_000_000, 1, false, |i| {
        black_box(codec::scsi_cdb(i as u32));
    });
    let pipe = fabric.host("c0").channel("pipe", Transport::Tcp);
    drive(rows, "net.pipe.round_trip_ns", 2_000_000, 1, true, |_| {
        black_box(pipe.round_trip(Bytes::new(128), Bytes::new(128)));
    });
    drive(rows, "net.pipe.stream_ns_per_mb", 100_000, 1, false, |_| {
        black_box(pipe.stream(Bytes::new(1 << 20), 32));
    });
    let cpu = CpuAccount::new();
    cpu.instrument(Rc::clone(&sim), HostId::SERVER);
    drive(rows, "cpu.charge_ns", 1_000_000, 1, false, |_| {
        cpu.charge_tagged(sim.now(), SimDuration::from_micros(10), "bench");
    });
}

fn net_models(rows: &mut Rows) {
    // 8 MB bursts over a 20 ms link under the congestion model: slow
    // start, queueing and drops are all event-scheduled host work.
    let sim = Sim::new(1);
    let link = LinkParams::wan(SimDuration::from_millis(20))
        .with_transport(TransportModel::Tcp { connections: 1 });
    let tcp = Fabric::new(Rc::clone(&sim), link)
        .host("c0")
        .channel("bulk", Transport::Tcp);
    drive(rows, "net.tcp.burst_ns_per_mb", 16, 8, false, |_| {
        let d = tcp.stream(Bytes::new(8 << 20), 1);
        sim.advance(d);
    });

    let sim = Sim::new(1);
    let fabric = Fabric::new(Rc::clone(&sim), LinkParams::gigabit_lan());
    let channels: Vec<_> = (0..1000)
        .map(|i| fabric.host(&format!("c{i}")).channel("nfs", Transport::Tcp))
        .collect();
    fabric.set_active(1000);
    drive(rows, "net.fabric.round_trip_ns", 1_000_000, 1, false, |i| {
        black_box(channels[(i % 1000) as usize].round_trip(Bytes::new(128), Bytes::new(128)));
    });
}

fn engine(rows: &mut Rows) {
    const WINDOW: u64 = 1024;
    let mut q: EventQueue<u64> = EventQueue::with_capacity(WINDOW as usize);
    let at = |ns: u64| SimTime::ZERO + SimDuration::from_nanos(ns);
    for i in 0..WINDOW {
        q.schedule(at(i * 1000), HostId::client((i % 64) as u32), i);
    }
    drive(
        rows,
        "simkit.events.churn_ns_per_event",
        2_000_000,
        1,
        true,
        |i| {
            let (key, payload) = q.pop().expect("window stays full");
            // Re-arm a pseudo-random distance ahead, as timers do.
            let ahead = 1_000 + payload.wrapping_mul(0x9e37_79b9) % 1_000_000;
            q.schedule(key.time + SimDuration::from_nanos(ahead), key.host, i);
        },
    );

    let sim = Sim::new(1);
    let handle = sim.counters().handle("bench.handle");
    drive(
        rows,
        "simkit.counters.handle_add_ns",
        20_000_000,
        1,
        true,
        |i| {
            black_box(&handle).add(black_box(i & 1));
        },
    );
    black_box(handle.get());
    drive(
        rows,
        "simkit.counters.named_add_ns",
        2_000_000,
        1,
        false,
        |i| {
            sim.counters().add("bench.named", i & 1);
        },
    );

    let cells = 200_000usize;
    let t0 = Instant::now();
    let out = run_indexed(host::cores(), cells, |i| i as u64);
    let ns = t0.elapsed().as_nanos() as f64;
    black_box(out);
    rows.push((
        "simkit.sweep.dispatch_ns_per_cell".to_string(),
        ns / cells as f64,
        "ns",
    ));
}

fn core_pieces(rows: &mut Rows) {
    for (protocol, label) in [(Protocol::NfsV3, "nfsv3"), (Protocol::Iscsi, "iscsi")] {
        drive(
            rows,
            &format!("core.testbed.build_ns.{label}"),
            64,
            1,
            false,
            |i| {
                black_box(build_testbed(protocol, i));
            },
        );
    }
    // A snapshot of a small populated volume, then forks of it: what
    // every sweep cell does instead of a cold build.
    let tb = build_testbed(Protocol::NfsV3, 1);
    for i in 0..64 {
        let fs = tb.fs();
        fs.creat(&format!("/f{i}")).expect("creat");
        let fd = fs.open(&format!("/f{i}")).expect("open");
        fs.write(fd, 0, &block(i as u8)).expect("write");
        fs.close(fd).expect("close");
    }
    let key = SetupKey::for_config(&TestbedConfig::new(Protocol::NfsV3), "hostbench:fork");
    let snap = Snapshot::capture(tb, key);
    drive(rows, "core.snapshot.fork_ns", 64, 1, false, |i| {
        black_box(snap.fork(i));
    });
}

/// A `FileSystem` that does nothing, so PostMark's generator (path
/// formatting, size draws, payload bytes) is all that runs.
struct NullFs;

impl FileSystem for NullFs {
    fn mkdir(&self, _: &str) -> FsResult<()> {
        Ok(())
    }
    fn chdir(&self, _: &str) -> FsResult<()> {
        Ok(())
    }
    fn readdir(&self, _: &str) -> FsResult<Vec<String>> {
        Ok(Vec::new())
    }
    fn rmdir(&self, _: &str) -> FsResult<()> {
        Ok(())
    }
    fn symlink(&self, _: &str, _: &str) -> FsResult<()> {
        Ok(())
    }
    fn readlink(&self, _: &str) -> FsResult<String> {
        Ok(String::new())
    }
    fn unlink(&self, _: &str) -> FsResult<()> {
        Ok(())
    }
    fn creat(&self, _: &str) -> FsResult<()> {
        Ok(())
    }
    fn open(&self, _: &str) -> FsResult<Fd> {
        Ok(Fd(0))
    }
    fn close(&self, _: Fd) -> FsResult<()> {
        Ok(())
    }
    fn link(&self, _: &str, _: &str) -> FsResult<()> {
        Ok(())
    }
    fn rename(&self, _: &str, _: &str) -> FsResult<()> {
        Ok(())
    }
    fn truncate(&self, _: &str, _: u64) -> FsResult<()> {
        Ok(())
    }
    fn chmod(&self, _: &str, _: u16) -> FsResult<()> {
        Ok(())
    }
    fn chown(&self, _: &str, _: u32, _: u32) -> FsResult<()> {
        Ok(())
    }
    fn access(&self, _: &str) -> FsResult<()> {
        Ok(())
    }
    fn stat(&self, _: &str) -> FsResult<Attr> {
        Err(crate::pinned::FsError::NotFound)
    }
    fn utime(&self, _: &str) -> FsResult<()> {
        Ok(())
    }
    /// Empty: a read transaction is one call, not one per 4 KB.
    fn read(&self, _: Fd, _: u64, _: usize) -> FsResult<Vec<u8>> {
        Ok(Vec::new())
    }
    fn write(&self, _: Fd, _: u64, data: &[u8]) -> FsResult<usize> {
        Ok(data.len())
    }
    fn fsync(&self, _: Fd) -> FsResult<()> {
        Ok(())
    }
    fn statfs(&self) -> FsResult<StatFs> {
        Err(crate::pinned::FsError::NotFound)
    }
}

fn generators(rows: &mut Rows) {
    const TXNS: usize = 50_000;
    let cfg = PostmarkConfig {
        file_count: 1000,
        transactions: TXNS,
        ..PostmarkConfig::default()
    };
    let fs = NullFs;
    let mut session = PostmarkSession::new(&fs, "/postmark", cfg);
    session.setup().expect("null fs");
    drive(
        rows,
        "workloads.postmark.gen_ns_per_txn",
        TXNS as u64,
        1,
        false,
        |_| {
            session.step().expect("null fs");
        },
    );

    let trace = traces_generate(200_000, 17);
    let t0 = Instant::now();
    black_box(traces_analyze(&trace));
    rows.push((
        "traces.analyze_ns_per_record".to_string(),
        t0.elapsed().as_nanos() as f64 / trace.len() as f64,
        "ns",
    ));
}

/// Runs every driver.
pub fn run_all() -> Rows {
    let mut rows = Rows::new();
    memdisk(&mut rows);
    raid5(&mut rows);
    ext3(&mut rows);
    wire(&mut rows);
    net_models(&mut rows);
    engine(&mut rows);
    core_pieces(&mut rows);
    generators(&mut rows);
    rows
}
