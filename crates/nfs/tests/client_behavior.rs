//! Behavioural tests for the NFS client: message counts, cache
//! semantics, and version differences that the paper's tables rest on.

use blockdev::MemDisk;
use cpu::{CostModel, CpuAccount};
use ext3::{Ext3, FsError, SetAttr};
use net::{LinkParams, Network};
use nfs::{Enhancements, NfsClient, NfsConfig, NfsServer, Version};
use rpc::{RpcClient, RpcConfig};
use simkit::{Sim, SimDuration};
use std::rc::Rc;

fn setup_with(version: Version, enh: Enhancements) -> (Rc<Sim>, NfsClient) {
    let sim = Sim::new(5);
    let netw = Network::new(sim.clone(), LinkParams::gigabit_lan());
    let disk = Rc::new(MemDisk::new("srv", 300_000));
    let fs = Ext3::mkfs(sim.clone(), disk, ext3::Options::default()).unwrap();
    let server = Rc::new(NfsServer::new(
        fs,
        Rc::new(CpuAccount::new()),
        CostModel::p3_933(),
    ));
    let rpcc = RpcClient::new(
        netw.channel("nfs", version.transport()),
        RpcConfig::default(),
    );
    let mut cfg = NfsConfig::for_version(version);
    cfg.enhancements = enh;
    let client = NfsClient::new(
        sim.clone(),
        rpcc,
        server,
        cfg,
        Rc::new(CpuAccount::new()),
        CostModel::p3_933(),
    );
    (sim, client)
}

fn setup(version: Version) -> (Rc<Sim>, NfsClient) {
    setup_with(version, Enhancements::default())
}

fn msgs(sim: &Sim) -> u64 {
    sim.counters().get("proto.nfs.txns")
}

#[test]
fn basic_tree_operations_work_across_versions() {
    for v in [Version::V2, Version::V3, Version::V4] {
        let (_sim, c) = setup(v);
        let root = c.root();
        let d = c.mkdir(root, "dir", 0o755).unwrap();
        let f = c.create(d, "file", 0o644).unwrap();
        assert_eq!(c.lookup(d, "file").unwrap(), f);
        c.write(f, 0, b"hello").unwrap();
        assert_eq!(c.read(f, 0, 5).unwrap(), b"hello", "{v:?}");
        c.unlink(d, "file").unwrap();
        assert_eq!(c.lookup(d, "file"), Err(FsError::NotFound));
        c.rmdir(root, "dir").unwrap();
    }
}

#[test]
fn cold_mkdir_v3_is_two_messages() {
    // Paper Table 2: mkdir at depth 0 = LOOKUP (fails) + MKDIR = 2.
    let (sim, c) = setup(Version::V3);
    let before = msgs(&sim);
    c.mkdir(c.root(), "d", 0o755).unwrap();
    assert_eq!(msgs(&sim) - before, 2);
}

#[test]
fn cold_mkdir_v4_has_access_overhead() {
    // Paper Table 2: v4 mkdir at depth 0 = 4 (extra ACCESS checks).
    let (sim, c) = setup(Version::V4);
    let before = msgs(&sim);
    c.mkdir(c.root(), "d", 0o755).unwrap();
    assert_eq!(msgs(&sim) - before, 4);
}

#[test]
fn warm_lookup_hits_dentry_cache() {
    let (sim, c) = setup(Version::V3);
    let d = c.mkdir(c.root(), "d", 0o755).unwrap();
    let _ = d;
    let before = msgs(&sim);
    // Within the 3s window the dentry is served locally.
    c.lookup(c.root(), "d").unwrap();
    assert_eq!(msgs(&sim) - before, 0);
}

#[test]
fn stale_dentry_revalidates_after_timeout() {
    let (sim, c) = setup(Version::V3);
    c.mkdir(c.root(), "d", 0o755).unwrap();
    sim.advance(SimDuration::from_secs(4)); // > 3s metadata timeout
    let before = msgs(&sim);
    c.lookup(c.root(), "d").unwrap();
    assert_eq!(msgs(&sim) - before, 1, "one LOOKUP to revalidate");
}

#[test]
fn consistent_metadata_cache_eliminates_revalidation() {
    let (sim, c) = setup_with(
        Version::V3,
        Enhancements {
            consistent_metadata_cache: true,
            ..Enhancements::default()
        },
    );
    c.mkdir(c.root(), "d", 0o755).unwrap();
    sim.advance(SimDuration::from_secs(60));
    let before = msgs(&sim);
    c.lookup(c.root(), "d").unwrap();
    assert_eq!(msgs(&sim) - before, 0, "server invalidates; no polling");
}

#[test]
fn directory_delegation_batches_updates() {
    let (sim, plain) = setup(Version::V4);
    for i in 0..64 {
        plain.mkdir(plain.root(), &format!("d{i}"), 0o755).unwrap();
    }
    let plain_msgs = msgs(&sim);

    let (sim2, enhanced) = setup_with(
        Version::V4,
        Enhancements {
            consistent_metadata_cache: true,
            directory_delegation: true,
        },
    );
    for i in 0..64 {
        enhanced
            .mkdir(enhanced.root(), &format!("d{i}"), 0o755)
            .unwrap();
    }
    enhanced.flush_delegated_updates();
    let enhanced_msgs = msgs(&sim2);
    assert!(
        enhanced_msgs * 4 < plain_msgs,
        "delegation should cut meta-data messages 4x+: {enhanced_msgs} vs {plain_msgs}"
    );
}

#[test]
fn v2_writes_are_synchronous_and_slower() {
    let data = vec![0u8; 256 * 1024];
    let (sim2, c2) = setup(Version::V2);
    let f2 = c2.create(c2.root(), "f", 0o644).unwrap();
    let t0 = sim2.now();
    c2.write(f2, 0, &data).unwrap();
    let v2_time = sim2.now().since(t0);

    let (sim3, c3) = setup(Version::V3);
    let f3 = c3.create(c3.root(), "f", 0o644).unwrap();
    let t0 = sim3.now();
    c3.write(f3, 0, &data).unwrap();
    let v3_time = sim3.now().since(t0);

    assert!(
        v2_time > v3_time * 2,
        "sync v2 writes must be much slower: {v2_time} vs {v3_time}"
    );
}

#[test]
fn async_window_fills_to_pseudo_synchronous() {
    // A long stream of writes must eventually advance the clock
    // (write-through degeneration), not complete instantly.
    let (sim, c) = setup(Version::V3);
    let f = c.create(c.root(), "f", 0o644).unwrap();
    let t0 = sim.now();
    let chunk = vec![0u8; 64 * 1024];
    for i in 0..256u64 {
        c.write(f, i * chunk.len() as u64, &chunk).unwrap(); // 16 MB
    }
    let elapsed = sim.now().since(t0);
    assert!(
        elapsed > SimDuration::from_millis(50),
        "pending-write limit must throttle: {elapsed}"
    );
}

#[test]
fn read_consistency_check_after_30s() {
    let (sim, c) = setup(Version::V3);
    let f = c.create(c.root(), "f", 0o644).unwrap();
    c.write(f, 0, &vec![7u8; 8192]).unwrap();
    c.read(f, 0, 8192).unwrap(); // populate + validate
    let before = msgs(&sim);
    c.read(f, 0, 4096).unwrap(); // within 30s: free
    assert_eq!(msgs(&sim) - before, 0);
    sim.advance(SimDuration::from_secs(31));
    let before = msgs(&sim);
    c.read(f, 0, 4096).unwrap();
    assert_eq!(msgs(&sim) - before, 1, "one GETATTR consistency check");
}

#[test]
fn cached_reads_serve_locally() {
    let (sim, c) = setup(Version::V3);
    let f = c.create(c.root(), "f", 0o644).unwrap();
    let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    c.write(f, 0, &data).unwrap();
    let got = c.read(f, 0, data.len()).unwrap();
    assert_eq!(got, data);
    let before = msgs(&sim);
    let again = c.read(f, 1000, 50_000).unwrap();
    assert_eq!(again, &data[1000..51_000]);
    assert_eq!(msgs(&sim) - before, 0, "fully cached within 30s");
}

#[test]
fn cold_read_messages_scale_with_transfer_size() {
    // 64 KB cold read: v3 uses 8 KB transfers → 8 READ messages;
    // v4 uses 32 KB → 2.
    for (v, expected) in [(Version::V3, 8u64), (Version::V4, 2u64)] {
        let (sim, c) = setup(v);
        let f = c.create(c.root(), "f", 0o644).unwrap();
        c.write(f, 0, &vec![1u8; 64 * 1024]).unwrap();
        c.drop_caches();
        // Re-resolve so only READs are counted afterwards.
        let f2 = c.lookup(c.root(), "f").unwrap();
        let _ = c.open(f2).unwrap();
        let before = sim.counters().get("proto.nfs.call.read");
        c.read(f2, 0, 64 * 1024).unwrap();
        let reads = sim.counters().get("proto.nfs.call.read") - before;
        assert_eq!(reads, expected, "{v:?}");
    }
}

#[test]
fn unlink_invalidates_client_state() {
    let (_sim, c) = setup(Version::V3);
    let f = c.create(c.root(), "f", 0o644).unwrap();
    c.write(f, 0, b"gone").unwrap();
    c.unlink(c.root(), "f").unwrap();
    assert_eq!(c.lookup(c.root(), "f"), Err(FsError::NotFound));
}

#[test]
fn setattr_truncate_drops_pages() {
    let (_sim, c) = setup(Version::V3);
    let f = c.create(c.root(), "f", 0o644).unwrap();
    c.write(f, 0, &vec![9u8; 8192]).unwrap();
    c.setattr(
        f,
        SetAttr {
            size: Some(10),
            ..SetAttr::default()
        },
        "trunc",
    )
    .unwrap();
    let data = c.read(f, 0, 8192).unwrap();
    assert_eq!(data.len(), 10);
}

#[test]
fn commit_drains_and_forces_stability() {
    let (sim, c) = setup(Version::V3);
    let f = c.create(c.root(), "f", 0o644).unwrap();
    c.write(f, 0, &vec![1u8; 1 << 20]).unwrap();
    let before = sim.counters().get("proto.nfs.call.commit");
    c.commit(f).unwrap();
    assert_eq!(sim.counters().get("proto.nfs.call.commit") - before, 1);
}

#[test]
fn server_cpu_accumulates_per_rpc() {
    let (_sim, c) = setup(Version::V3);
    let cpu_before = c.server().cpu().total_busy();
    for i in 0..10 {
        c.mkdir(c.root(), &format!("d{i}"), 0o755).unwrap();
    }
    assert!(c.server().cpu().total_busy() > cpu_before);
}

/// A server-side meta-data miss re-traverses the stack three times
/// (paper §5.4): a cold lookup charges the server exactly three layer
/// traversals per buffer-cache miss more than the same lookup warm.
#[test]
fn metadata_revisits_scale_the_cold_lookup_charge() {
    const METADATA_REVISITS: u64 = 3;
    let (_sim, c) = setup(Version::V3);
    let d = c.mkdir(c.root(), "d", 0o755).unwrap();
    c.create(d, "f", 0o644).unwrap();
    // Returns the server CPU and the server buffer-cache misses of one
    // lookup the client cannot answer from its own cache.
    let lookup = |drop_server_cache: bool| {
        c.drop_caches();
        if drop_server_cache {
            c.server().drop_caches();
        }
        let cpu = c.server().cpu().total_busy();
        let misses = c.server().fs().cache_stats().1;
        c.lookup(d, "f").unwrap();
        (
            c.server().cpu().total_busy().as_nanos() - cpu.as_nanos(),
            c.server().fs().cache_stats().1 - misses,
        )
    };
    let (cold_cpu, cold_misses) = lookup(true);
    let (warm_cpu, warm_misses) = lookup(false);
    assert!(cold_misses > 0, "a cold lookup misses the server cache");
    assert_eq!(warm_misses, 0);
    let layer = CostModel::p3_933().layer.as_nanos();
    assert_eq!(cold_cpu - warm_cpu, layer * METADATA_REVISITS * cold_misses);
}

#[test]
fn rename_moves_dentries() {
    let (_sim, c) = setup(Version::V3);
    let f = c.create(c.root(), "a", 0o644).unwrap();
    c.write(f, 0, b"x").unwrap();
    c.rename(c.root(), "a", c.root(), "b").unwrap();
    assert_eq!(c.lookup(c.root(), "a"), Err(FsError::NotFound));
    assert_eq!(c.lookup(c.root(), "b").unwrap(), f);
}

#[test]
fn symlink_and_readlink() {
    let (sim, c) = setup(Version::V3);
    let s = c.symlink(c.root(), "l", "target/path").unwrap();
    let before = msgs(&sim);
    assert_eq!(c.readlink(s).unwrap(), "target/path");
    assert_eq!(msgs(&sim) - before, 1, "READLINK always issued");
}

#[test]
fn v4_read_after_the_data_timeout_pays_one_getattr() {
    let (sim, plain) = setup(Version::V4);
    let f = plain.create(plain.root(), "f", 0o644).unwrap();
    plain.write(f, 0, &vec![1u8; 8192]).unwrap();
    plain.open(f).unwrap();
    plain.read(f, 0, 4096).unwrap();
    sim.advance(SimDuration::from_secs(31));
    let before = msgs(&sim);
    plain.read(f, 0, 4096).unwrap();
    assert_eq!(msgs(&sim) - before, 1, "consistency GETATTR expected");
}

#[test]
fn mount_handshake_messages_by_version() {
    // v2/v3: MOUNT + FSINFO (2 messages); v4: one PUTROOTFH compound.
    for (v, expected) in [(Version::V2, 2u64), (Version::V3, 2), (Version::V4, 1)] {
        let (sim, c) = setup(v);
        let before = msgs(&sim);
        c.mount();
        assert_eq!(msgs(&sim) - before, expected, "{v:?}");
    }
}
