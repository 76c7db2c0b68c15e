//! Allocation budgets for the block path (tier 1).
//!
//! A 4 KB block crosses every boundary under `vfs` by reference; the
//! only heap traffic a warm data operation may cause is the buffer it
//! hands back to its caller. These budgets hold that in place with
//! exact, host-independent counts: an allocation that creeps back into
//! `DiskModel::service`, `Raid5::write_one`, `ext3::fs::bread` or
//! `nfs::PageCache::get` fails here before any stopwatch notices. The
//! same goes for the two per-cell overheads of big topologies: a gauge
//! tick allocates nothing and a LOOKUP is sized without being encoded.
//! And for the load generator above it all: a PostMark transaction
//! borrows its payload and reuses its path buffer. Above `vfs` the
//! caller-buffer `read_into` hands nothing back, so a warm read and a
//! warm path resolution allocate nothing at all, and a second testbed
//! on a thread takes its 4 KiB block images from the first one's, and
//! a second file system its journal's gather buffer. A CPU account
//! that nobody samples stops growing once it holds the samples a
//! window could still count. On the meta-data path, a cold or stale
//! LOOKUP keeps its dentry name inside the map key, a warm `fsync`
//! takes its block list and gather buffer from the thread's pools, and
//! a second RPC client files a known procedure under its static name.
//! Through the whole testbed, an NFSv3 `chmod` round trip allocates
//! nothing and a cold iSCSI 4 KiB read only its result; a counter add,
//! by handle or by name, allocates nothing, and registering a series
//! allocates only the registry's amortized growth.
//!
//! The allocator counts per thread, so the tests stay independent
//! under the harness's parallel runner.

#![expect(
    unsafe_code,
    reason = "a counting GlobalAlloc implements an unsafe trait"
)]

use blockdev::{
    BlockDevice, DiskModel, DiskParams, MemDisk, Raid5, Raid5Geometry, WriteCache, BLOCK_SIZE,
};
use cpu::{CostModel, CpuAccount};
use ext3::{BufferCache, DirtyKind, Ext3, Options};
use ipstorage_core::{Protocol, Testbed};
use net::{Fabric, LinkParams};
use nfs::{NfsClient, NfsConfig, NfsServer, Version};
use rpc::{RpcClient, RpcConfig};
use simkit::units::Bytes;
use simkit::{Counters, Daemon, GaugeSampler, HostId, Sim, SimDuration, StatKey};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use vfs::{Fd, FileSystem, LocalMount, NfsMount};
use workloads::postmark::{PostmarkConfig, Session};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested in allocations of exactly one block.
    static BLOCK_BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested in all allocations.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested in allocations of two or more whole blocks: the
    /// buffers merged device commands are gathered in.
    static MULTI_BLOCK_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(size: usize) {
    // A thread that is tearing down its locals no longer counts.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
    if size == BLOCK_SIZE {
        let _ = BLOCK_BYTES.try_with(|c| c.set(c.get() + size as u64));
    }
    if size > BLOCK_SIZE && size.is_multiple_of(BLOCK_SIZE) {
        let _ = MULTI_BLOCK_BYTES.try_with(|c| c.set(c.get() + size as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// const-initialised thread-local `Cell`s (no lazy initialiser and no
// destructor, so they never allocate) and never the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` was allocated by `System` with `layout` (all
        // allocation goes through this type), as the caller vouches.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What a cold `NfsClient::lookup` allocates once the cache maps have
/// their nodes: nothing. 3ac4b8b measured 4: it also built the encoded
/// LOOKUP arguments (a `Vec` grown twice) only to take their length.
/// 91aa698 measured 1, the owned `String` its dentry was keyed by; a
/// name of up to 23 bytes is now kept inside the key.
const COLD_LOOKUP_ALLOCS: u64 = 0;

/// Heap allocations (including reallocations) this thread makes in `f`.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

fn instrumented_member(sim: &Rc<Sim>, name: &str) -> Rc<DiskModel<MemDisk>> {
    let d = Rc::new(DiskModel::new(
        MemDisk::new(name, 4096),
        DiskParams::ultra160_10k(),
    ));
    d.instrument(Rc::clone(sim));
    d
}

fn instrumented_raid(sim: &Rc<Sim>) -> Raid5 {
    let members = (0..5)
        .map(|i| instrumented_member(sim, &format!("sd{i}")) as Rc<dyn BlockDevice>)
        .collect();
    let r5 = Raid5::new("raid5", members, Raid5Geometry::default());
    r5.instrument(Rc::clone(sim));
    r5
}

#[test]
fn instrumented_disk_io_allocates_nothing() {
    let sim = Sim::new(1);
    let d = instrumented_member(&sim, "sd0");
    let block = [7u8; BLOCK_SIZE];
    let mut buf = [0u8; BLOCK_SIZE];
    d.write(5, &block).unwrap(); // the store takes ownership of block 5
    let (n, ()) = allocs_in(|| {
        d.read(5, 1, &mut buf).unwrap();
        d.write(5, &block).unwrap();
    });
    assert_eq!(
        n, 0,
        "one-block read + overwrite through DiskModel<MemDisk>"
    );
    assert_eq!(buf, block);
    let h = sim.metrics().histogram("disk.sd0.service").unwrap();
    assert_eq!(h.count(), 3, "every request is still recorded");
}

#[test]
fn raid5_small_write_over_existing_blocks_allocates_nothing() {
    let sim = Sim::new(1);
    let r5 = instrumented_raid(&sim);
    r5.write(9, &[1u8; BLOCK_SIZE]).unwrap(); // data + parity now exist
    let (n, ()) = allocs_in(|| {
        r5.write(9, &[2u8; BLOCK_SIZE]).unwrap();
    });
    assert_eq!(n, 0, "read-modify-write of one block");
    let h = sim
        .metrics()
        .histogram("raid5.raid5.parity_update")
        .unwrap();
    assert_eq!(h.count(), 2);
}

/// The array over members that can show what they store (a
/// `DiskModel` over a shared `MemDisk`): a one-block write stores one
/// block in the array's store and none at the members, and once the
/// store's map and the thread's free list of block images are warm it
/// asks the allocator for nothing.
#[test]
fn raid5_small_write_stores_one_member_block_and_allocates_nothing() {
    let sim = Sim::new(1);
    let stores: Vec<Rc<MemDisk>> = (0..5)
        .map(|i| Rc::new(MemDisk::new(format!("sd{i}"), 4096)))
        .collect();
    let members = stores
        .iter()
        .map(|store| {
            let d = Rc::new(DiskModel::new(Rc::clone(store), DiskParams::ultra160_10k()));
            d.instrument(Rc::clone(&sim));
            d as Rc<dyn BlockDevice>
        })
        .collect();
    let array_store = Rc::new(MemDisk::new("raid5", 4 * 4096));
    let r5 = Raid5::with_store(
        "raid5",
        members,
        Raid5Geometry::default(),
        Rc::clone(&array_store),
    );
    r5.instrument(Rc::clone(&sim));
    // Warm-up: the store's map holds five blocks, and two dropped
    // images wait on this thread's free list.
    for lb in (0..5 * 16).step_by(16) {
        r5.write(lb, &[1u8; BLOCK_SIZE]).unwrap();
    }
    let warm = MemDisk::new("warm", 2);
    warm.write(0, &[0u8; 2 * BLOCK_SIZE]).unwrap();
    drop(warm);
    let before = (array_store.diverged_blocks(), BYTES.with(Cell::get));
    r5.write(1, &[2u8; BLOCK_SIZE]).unwrap();
    assert_eq!(
        array_store.diverged_blocks() - before.0,
        1,
        "the data block"
    );
    let at_members: usize = stores.iter().map(|m| m.diverged_blocks()).sum();
    assert_eq!(at_members, 0, "no member stores a block");
    assert_eq!(BYTES.with(Cell::get) - before.1, 0, "bytes requested");
    let h = sim
        .metrics()
        .histogram("raid5.raid5.parity_update")
        .unwrap();
    assert_eq!(h.count(), 6, "the parity update is still charged");
}

#[test]
fn warm_ext3_read_past_single_indirect_allocates_only_its_result() {
    let sim = Sim::new(1);
    let fs = Ext3::mkfs(
        Rc::clone(&sim),
        Rc::new(MemDisk::new("d0", 300_000)),
        Options::default(),
    )
    .unwrap();
    let f = fs.create(fs.root(), "big", 0o644).unwrap();
    // Direct blocks map 48 KB and the single-indirect block 4 MB more:
    // this offset is mapped through the double-indirect tree.
    let off = 5 * 1024 * 1024;
    fs.write(f, off, &[3u8; 2 * BLOCK_SIZE]).unwrap();
    fs.read(f, off, BLOCK_SIZE).unwrap(); // read-ahead state, atime in the transaction
    let (n, got) = allocs_in(|| fs.read(f, off, BLOCK_SIZE).unwrap());
    assert!(n <= 1, "{n} allocations; only the returned Vec is allowed");
    assert_eq!(got, [3u8; BLOCK_SIZE]);
}

/// An NFSv3 client on a one-host fabric over an instrumented RAID-5
/// server, mounted.
fn mounted_nfs_client(sim: &Rc<Sim>) -> (NfsClient, nfs::Fh) {
    let cpu_at = |host| {
        let cpu = Rc::new(CpuAccount::new());
        cpu.instrument(Rc::clone(sim), host);
        cpu
    };
    let cost = CostModel::p3_933();
    let raid = Rc::new(WriteCache::new(
        instrumented_raid(sim),
        SimDuration::from_micros(250),
    ));
    let fs = Ext3::mkfs(Rc::clone(sim), raid, Options::default()).unwrap();
    let server = Rc::new(NfsServer::new(fs, cpu_at(HostId::SERVER), cost));
    let cfg = NfsConfig::for_version(Version::V3);
    let fabric = Fabric::new(Rc::clone(sim), LinkParams::gigabit_lan());
    let rpc = RpcClient::new(
        fabric
            .host("c0")
            .channel_flows("nfs", Version::V3.transport(), Some(cfg.nconnect)),
        RpcConfig::default(),
    );
    let client = NfsClient::new(
        Rc::clone(sim),
        rpc,
        server,
        cfg,
        cpu_at(HostId::client(0)),
        cost,
    );
    let root = client.mount();
    (client, root)
}

#[test]
fn warm_nfs_read_of_a_cached_page_allocates_only_its_result() {
    let sim = Sim::new(1);
    let (client, root) = mounted_nfs_client(&sim);
    let fh = client.create(root, "f", 0o644).unwrap();
    client.write(fh, 0, &[4u8; 2 * BLOCK_SIZE]).unwrap();
    client.close(fh);
    client.read(fh, 0, BLOCK_SIZE).unwrap(); // page resident, stream state set up
    let msgs = sim.counters().get("net.nfs.msgs");
    assert!(msgs > 0, "set-up went over the wire");
    let (n, got) = allocs_in(|| client.read(fh, 0, BLOCK_SIZE).unwrap());
    assert!(n <= 1, "{n} allocations; only the returned Vec is allowed");
    assert_eq!(got, [4u8; BLOCK_SIZE]);
    assert_eq!(
        sim.counters().get("net.nfs.msgs"),
        msgs,
        "the read was served from the page cache"
    );
}

/// A local mount of ext3 straight over a `MemDisk`.
fn local_mount(sim: &Rc<Sim>) -> LocalMount {
    let disk = Rc::new(MemDisk::new("d0", 300_000));
    let fs = Ext3::mkfs(Rc::clone(sim), disk, Options::default()).unwrap();
    LocalMount::new(Rc::new(fs), Rc::new(CpuAccount::new()), CostModel::p3_933())
}

/// `/d/f` holding two blocks of `fill`, read once so that the pages,
/// the stream state and the atime update's journal entry all exist.
fn warmed_file(fs: &dyn FileSystem, fill: u8) -> Fd {
    fs.mkdir("/d").unwrap();
    fs.creat("/d/f").unwrap();
    let fd = fs.open("/d/f").unwrap();
    fs.write(fd, 0, &[fill; 2 * BLOCK_SIZE]).unwrap();
    fs.close(fd).unwrap();
    let fd = fs.open("/d/f").unwrap();
    let mut buf = [0u8; BLOCK_SIZE];
    fs.read_into(fd, 0, &mut buf).unwrap();
    fd
}

#[test]
fn warm_read_into_allocates_nothing_on_either_mount() {
    let sim = Sim::new(1);
    let (client, _) = mounted_nfs_client(&sim);
    let mounts: [(&str, Box<dyn FileSystem>); 2] = [
        ("nfs", Box::new(NfsMount::new(Rc::new(client)))),
        ("local", Box::new(local_mount(&Sim::new(1)))),
    ];
    for (name, fs) in mounts {
        let fd = warmed_file(fs.as_ref(), 6);
        let mut buf = [0u8; BLOCK_SIZE];
        let (n, got) = allocs_in(|| fs.read_into(fd, 0, &mut buf).unwrap());
        assert_eq!(n, 0, "{name}: the caller owns the only buffer");
        assert_eq!((got, buf), (BLOCK_SIZE, [6u8; BLOCK_SIZE]), "{name}");
    }
}

#[test]
fn absolute_path_resolution_allocates_nothing() {
    let sim = Sim::new(1);
    let (client, _) = mounted_nfs_client(&sim);
    let mounts: [(&str, Box<dyn FileSystem>); 2] = [
        ("nfs", Box::new(NfsMount::new(Rc::new(client)))),
        ("local", Box::new(local_mount(&Sim::new(1)))),
    ];
    for (name, fs) in mounts {
        warmed_file(fs.as_ref(), 6);
        let (n, attr) = allocs_in(|| fs.stat("/d/f"));
        assert_eq!(n, 0, "{name}: stat walks the path in place");
        assert_eq!(attr.unwrap().size, 2 * BLOCK_SIZE as u64, "{name}");
        let (n, fd) = allocs_in(|| fs.open("/d/f"));
        assert_eq!(n, 0, "{name}: open walks the path in place");
        fd.unwrap();
    }
}

#[test]
fn second_disk_and_cache_on_a_thread_reuse_the_first_ones_images() {
    // Few enough blocks that no map, ring or table growth step is
    // itself a 4 KiB request: only block images are counted.
    fn build_write_drop() {
        let disk = MemDisk::new("d0", 4096);
        let mut cache = BufferCache::new(1024);
        let block = [5u8; BLOCK_SIZE];
        for bno in 0..150 {
            cache.insert(bno, &block, DirtyKind::Data);
            disk.write(bno, &block).unwrap();
        }
        for bno in 100..200 {
            let img = cache
                .get_or_load(bno, |img| disk.read(bno, 1, img).map(drop))
                .unwrap();
            assert_eq!(img[0], if bno < 150 { 5 } else { 0 });
        }
    }
    let block_bytes_in = |f: fn()| {
        let before = BLOCK_BYTES.with(Cell::get);
        f();
        BLOCK_BYTES.with(Cell::get) - before
    };
    let images = 150 + 150 + 50;
    assert!(
        block_bytes_in(build_write_drop) >= images * BLOCK_SIZE as u64,
        "the first cycle allocates every image"
    );
    assert_eq!(block_bytes_in(build_write_drop), 0, "the second none");
}

/// A file system's journal commit gathers its descriptor, images and
/// commit record in a buffer from the thread's pool, not in one of its
/// own: on a second file system, the buffer the first one grew is
/// reused.
#[test]
fn journal_commit_on_a_second_ext3_on_a_thread_allocates_no_gather_buffer() {
    fn mkdirs_then_commit() -> u64 {
        let sim = Sim::new(1);
        let disk = Rc::new(MemDisk::new("d0", 300_000));
        let fs = Ext3::mkfs(sim, disk, Options::default()).unwrap();
        for i in 0..40 {
            fs.mkdir(fs.root(), &format!("d{i}"), 0o755).unwrap();
        }
        let before = MULTI_BLOCK_BYTES.with(Cell::get);
        fs.sync().unwrap();
        MULTI_BLOCK_BYTES.with(Cell::get) - before
    }
    assert!(
        mkdirs_then_commit() > 40 * BLOCK_SIZE as u64,
        "the first commit grows the thread's buffer"
    );
    assert_eq!(mkdirs_then_commit(), 0, "the second reuses it");
}

/// An account that nobody samples keeps only the samples a window
/// could still count: the future chunks of spread charges and the
/// latest instant's charges. Once its list has grown to hold them, a
/// steady load of charges and spread charges allocates nothing.
#[test]
fn unsampled_cpu_account_allocates_nothing_in_steady_state() {
    let cpu = CpuAccount::new();
    let step = SimDuration::from_millis(30);
    let mut now = simkit::SimTime::ZERO;
    let mut load = |ops: u32| {
        for i in 0..ops {
            now += step;
            cpu.charge_tagged(now, SimDuration::from_micros(250), "iscsi.target");
            cpu.charge_tagged(now, SimDuration::from_micros(100), "vfs.local");
            if i % 3 == 0 {
                let busy = SimDuration::from_micros(400);
                let span = SimDuration::from_secs(5);
                cpu.charge_spread_tagged(now, busy, span, "iscsi.target");
            }
        }
    };
    load(3_000);
    let (n, ()) = allocs_in(|| load(9_000));
    assert_eq!(n, 0, "9 000 instants, 3 000 spread charges");
    assert_eq!(
        cpu.total_busy(),
        SimDuration::from_micros(12_000 * 350 + 4_000 * 400)
    );
}

#[test]
fn cold_nfs_lookup_does_not_allocate_to_size_its_call() {
    let sim = Sim::new(1);
    let (client, root) = mounted_nfs_client(&sim);
    for name in ["f", "g"] {
        client.create(root, name, 0o644).unwrap();
    }
    client.drop_caches();
    client.lookup(root, "g").unwrap(); // the dentry and attribute maps have their nodes
    let msgs = sim.counters().get("net.nfs.msgs");
    let (n, fh) = allocs_in(|| client.lookup(root, "f"));
    fh.unwrap();
    assert_eq!(
        sim.counters().get("net.nfs.msgs"),
        msgs + 2,
        "the lookup went to the server"
    );
    assert_eq!(n, COLD_LOOKUP_ALLOCS, "LOOKUP call + reply, dentry primed");
}

/// Past the meta-data timeout a cached entry is stale: the lookup
/// goes to the server again and refreshes the entry in place. It asks
/// the allocator for nothing, for a name kept in place and for a boxed
/// one alike; 91aa698 gave every refreshed entry a fresh `String` key.
#[test]
fn stale_nfs_lookup_refreshes_its_dentry_without_allocating() {
    let sim = Sim::new(1);
    let (client, root) = mounted_nfs_client(&sim);
    let names = ["f", "a-name-past-the-inline-limit"];
    for name in names {
        client.create(root, name, 0o644).unwrap();
    }
    let timeout = NfsConfig::for_version(Version::V3).metadata_timeout;
    sim.advance(timeout + SimDuration::from_millis(500));
    for name in names {
        let msgs = sim.counters().get("net.nfs.msgs");
        let dentries = client.cached_dentry_count();
        let (n, fh) = allocs_in(|| client.lookup(root, name));
        fh.unwrap();
        assert_eq!(
            sim.counters().get("net.nfs.msgs"),
            msgs + 2,
            "{name}: the stale entry sent a LOOKUP"
        );
        assert_eq!(
            client.cached_dentry_count(),
            dentries,
            "{name}: refreshed, not added"
        );
        assert_eq!(n, 0, "{name}: LOOKUP call + reply, dentry refreshed");
    }
}

/// `fsync` gathers the file's dirty blocks in a list from the thread's
/// pool and merges them into runs as it writes them back, so on a
/// thread whose pools are warm, an fsync of a file with dirty data and
/// a pending journal commit asks the allocator for nothing. 91aa698
/// built two `Vec`s per call: the block list and the run list.
#[test]
fn warm_ext3_fsync_of_dirty_data_allocates_nothing() {
    let sim = Sim::new(1);
    let fs = Ext3::mkfs(
        Rc::clone(&sim),
        Rc::new(MemDisk::new("d0", 300_000)),
        Options::default(),
    )
    .unwrap();
    let f = fs.create(fs.root(), "f", 0o644).unwrap();
    // Two runs: blocks 0-2 and 5-6 of the file.
    let dirty = |fill: u8| {
        fs.write(f, 0, &[fill; 3 * BLOCK_SIZE]).unwrap();
        fs.write(f, 5 * BLOCK_SIZE as u64, &[fill; 2 * BLOCK_SIZE])
            .unwrap();
    };
    dirty(1);
    fs.fsync(f).unwrap(); // blocks mapped, pools and journal maps warm
                          // The next commit's journal slots are blocks the disk has not
                          // stored yet: stock the thread's free list of block images.
    let warm = MemDisk::new("warm", 8);
    warm.write(0, &[0u8; 8 * BLOCK_SIZE]).unwrap();
    drop(warm);
    dirty(2);
    let writebacks = sim.counters().get("ext3.writeback.blocks");
    let (n, done) = allocs_in(|| fs.fsync(f));
    done.unwrap();
    assert_eq!(n, 0, "commit + write-back of two runs");
    assert_eq!(
        sim.counters().get("ext3.writeback.blocks"),
        writebacks,
        "fsync wrote the runs itself, not the write-back daemon"
    );
    assert_eq!(fs.read(f, 5 * BLOCK_SIZE as u64, 1).unwrap(), [2]);
}

/// What the first call of a procedure costs a second `RpcClient` on
/// the same label, whose counter and histogram the first client
/// already registered: nothing, because both are looked up by a typed
/// `StatKey` and the handles are filed under the caller's static name.
/// 91aa698 measured 4: two formatted names, one of them grown once,
/// and the owned key; 02b24bd measured 1, the buffer both names were
/// formatted into.
const SECOND_CLIENT_FIRST_CALL_ALLOCS: u64 = 0;

#[test]
fn second_rpc_client_keys_a_known_procedure_by_its_static_name() {
    let sim = Sim::new(1);
    let fabric = Fabric::new(Rc::clone(&sim), LinkParams::gigabit_lan());
    let transport = Version::V3.transport();
    let client = |host| {
        let chan = fabric.host(host).channel_flows("nfs", transport, Some(1));
        RpcClient::new(chan, RpcConfig::default())
    };
    let call = |c: &RpcClient, proc_name| {
        c.call(
            proc_name,
            Bytes::new(128),
            Bytes::new(128),
            SimDuration::ZERO,
        )
    };
    let (first, second) = (client("c0"), client("c1"));
    call(&first, "lookup");
    call(&first, "getattr");
    call(&second, "getattr"); // the second client's map has its node
    let (n, _) = allocs_in(|| call(&second, "lookup"));
    assert_eq!(n, SECOND_CLIENT_FIRST_CALL_ALLOCS, "no name buffer");
    let (n, _) = allocs_in(|| call(&second, "lookup"));
    assert_eq!(n, 0, "a later call bumps the handles only");
    assert_eq!(sim.counters().get("proto.nfs.call.lookup"), 3);
}

#[test]
fn gauge_tick_allocates_nothing() {
    let g = GaugeSampler::new(SimDuration::from_millis(100));
    for name in [
        "link.util_pct",
        "disk.busy_pct",
        "disk.s0.busy_pct",
        "disk.s1.busy_pct",
        "disk.s2.busy_pct",
        "disk.s3.busy_pct",
        "cache.pagecache_blocks",
        "cache.dentries",
    ] {
        g.register(name, || 7);
    }
    let tick = g.next_wake().unwrap();
    let (n, next) = allocs_in(|| g.fire(tick));
    assert_eq!(n, 0, "one sample of 8 gauges");
    assert!(next.unwrap() > tick);
    let stats = g.stats();
    assert_eq!(stats.len(), 8);
    assert!(stats.values().all(|s| (s.samples, s.sum) == (1, 7)));
}

/// The per-request counter paths: an add through a `CounterHandle`
/// bumps a shared cell, and a named add on a registered name looks the
/// slot up in place. Under the string-keyed map the symbol table
/// replaced, every add allocated its key.
#[test]
fn counter_adds_allocate_nothing() {
    let c = Counters::new();
    let handle = c.handle("proto.nfs.txns");
    c.add("net.total.bytes", 0);
    let (n, ()) = allocs_in(|| {
        for _ in 0..1_000 {
            handle.incr();
            c.add("net.total.bytes", 4096);
        }
    });
    assert_eq!(n, 0, "1 000 handle adds and 1 000 named adds");
    let got = (c.get("proto.nfs.txns"), c.get("net.total.bytes"));
    assert_eq!(got, (1_000, 1_000 * 4096));
}

/// Registering a thousand per-host series (`net.c<i>.nfs.msgs`, one
/// per client of a frontier cell) allocates no block per key: only the
/// registry's amortized growth, O(log n) slot chunks and index tables.
/// 02b24bd made 3–4 allocations per name: the formatted `String`, the
/// symbol table's two copies of it and an `Rc` per slot.
#[test]
fn registering_per_host_keys_allocates_only_amortized_growth() {
    let c = Counters::new();
    let keys: Vec<StatKey> = (0..1_000)
        .map(|i| {
            StatKey::new("net")
                .host(HostId::client(i))
                .push("nfs")
                .push("msgs")
        })
        .collect();
    let (n, ()) = allocs_in(|| {
        for &k in &keys {
            c.incr(k);
        }
    });
    // 2·⌈log2 1000⌉: each of the two growing structures doubles at
    // most once per power of two.
    assert!(n <= 20, "1 000 keys took {n} allocations");
    assert_eq!(c.get("net.c731.nfs.msgs"), 1);
}

/// A `chmod` on the full NFSv3 testbed goes to the server every time
/// (a GETATTR and a SETATTR, with their CPU and wire accounting) and
/// asks the allocator for nothing once its maps have their nodes.
#[test]
fn nfs3_chmod_round_trip_allocates_nothing() {
    let tb = Testbed::with_protocol(Protocol::NfsV3);
    let fs = tb.fs();
    fs.creat("/probe").unwrap();
    tb.settle();
    let mut mode = 0o600u16;
    let mut chmod = || {
        mode ^= 0o011;
        fs.chmod("/probe", mode).unwrap();
    };
    chmod();
    let setattrs = tb.sim().counters().get("proto.nfs.call.setattr");
    let (n, ()) = allocs_in(|| (0..200).for_each(|_| chmod()));
    assert_eq!(
        tb.sim().counters().get("proto.nfs.call.setattr"),
        setattrs + 200,
        "every chmod went to the server"
    );
    assert_eq!(n, 0, "200 chmod round trips");
}

/// A 4 KiB `read` of a file the iSCSI client has not cached sends a
/// READ command through the initiator to the target; it allocates
/// exactly the `Vec` it returns.
#[test]
fn iscsi_cold_4k_read_allocates_only_its_result() {
    let tb = Testbed::with_protocol(Protocol::Iscsi);
    let fs = tb.fs();
    fs.creat("/probe").unwrap();
    let fd = fs.open("/probe").unwrap();
    for i in 0..256u64 {
        fs.write(fd, i * BLOCK_SIZE as u64, &[5u8; BLOCK_SIZE])
            .unwrap();
    }
    fs.fsync(fd).unwrap();
    tb.settle();
    tb.cold_caches();
    let fd = fs.open("/probe").unwrap();
    fs.read(fd, 0, BLOCK_SIZE).unwrap();
    let reads = tb.sim().counters().get("proto.iscsi.cmd.read");
    for i in 1..128u64 {
        let (n, got) = allocs_in(|| fs.read(fd, i * BLOCK_SIZE as u64, BLOCK_SIZE).unwrap());
        assert_eq!(n, 1, "read {i}: only the returned Vec is allowed");
        assert_eq!(got, [5u8; BLOCK_SIZE]);
    }
    assert!(
        tb.sim().counters().get("proto.iscsi.cmd.read") >= reads + 127,
        "every read missed the client cache"
    );
}

/// Accepts the calls PostMark makes and does nothing; reads come back
/// empty (an unallocated `Vec`), so whatever is counted around it is
/// the generator's own.
struct NullFs;

impl FileSystem for NullFs {
    fn mkdir(&self, _: &str) -> ext3::FsResult<()> {
        Ok(())
    }
    fn creat(&self, _: &str) -> ext3::FsResult<()> {
        Ok(())
    }
    fn open(&self, _: &str) -> ext3::FsResult<Fd> {
        Ok(Fd(3))
    }
    fn close(&self, _: Fd) -> ext3::FsResult<()> {
        Ok(())
    }
    fn unlink(&self, _: &str) -> ext3::FsResult<()> {
        Ok(())
    }
    fn read(&self, _: Fd, _: u64, _: usize) -> ext3::FsResult<Vec<u8>> {
        Ok(Vec::new())
    }
    fn write(&self, _: Fd, _: u64, data: &[u8]) -> ext3::FsResult<usize> {
        Ok(data.len())
    }
    fn chdir(&self, _: &str) -> ext3::FsResult<()> {
        unimplemented!()
    }
    fn readdir(&self, _: &str) -> ext3::FsResult<Vec<String>> {
        unimplemented!()
    }
    fn rmdir(&self, _: &str) -> ext3::FsResult<()> {
        unimplemented!()
    }
    fn symlink(&self, _: &str, _: &str) -> ext3::FsResult<()> {
        unimplemented!()
    }
    fn readlink(&self, _: &str) -> ext3::FsResult<String> {
        unimplemented!()
    }
    fn link(&self, _: &str, _: &str) -> ext3::FsResult<()> {
        unimplemented!()
    }
    fn rename(&self, _: &str, _: &str) -> ext3::FsResult<()> {
        unimplemented!()
    }
    fn truncate(&self, _: &str, _: u64) -> ext3::FsResult<()> {
        unimplemented!()
    }
    fn chmod(&self, _: &str, _: u16) -> ext3::FsResult<()> {
        unimplemented!()
    }
    fn chown(&self, _: &str, _: u32, _: u32) -> ext3::FsResult<()> {
        unimplemented!()
    }
    fn access(&self, _: &str) -> ext3::FsResult<()> {
        unimplemented!()
    }
    fn stat(&self, _: &str) -> ext3::FsResult<ext3::Attr> {
        unimplemented!()
    }
    fn utime(&self, _: &str) -> ext3::FsResult<()> {
        unimplemented!()
    }
    fn fsync(&self, _: Fd) -> ext3::FsResult<()> {
        unimplemented!()
    }
    fn statfs(&self) -> ext3::FsResult<ext3::StatFs> {
        unimplemented!()
    }
}

#[test]
fn postmark_generator_allocates_nothing_per_transaction() {
    let cfg = PostmarkConfig {
        file_count: 120,
        transactions: 2_200,
        ..PostmarkConfig::default()
    };
    let mut session = Session::new(&NullFs, "/pm", cfg);
    session.setup().unwrap();
    // Warm-up: the path buffer has its capacity, and the live-file
    // list, sized for the initial pool, has doubled on its first net
    // create (the only growth a run this long sees).
    for _ in 0..200 {
        session.step().unwrap();
    }
    let (n, ()) = allocs_in(|| while session.step().unwrap() {});
    let report = session.report();
    assert!(
        report.created > 120 + 400 && report.appends > 400,
        "the transactions wrote: {report:?}"
    );
    assert_eq!(n, 0, "2 000 transactions: payloads borrowed, path reused");
}
