//! Setup-phase snapshot cache: copy-on-write testbed prefixes shared
//! across sweep cells.
//!
//! Most cells of a full-factorial sweep differ only in the *measured*
//! phase — the cold prologue (RAID initialization, ext3 mkfs, NFS or
//! iSCSI session establishment, the workload's file-pool or table
//! load) is identical across them. This module amortizes that prefix:
//!
//! 1. a [`SetupKey`] names the setup-relevant slice of the
//!    configuration (everything except the per-cell measure seed) plus
//!    the workload's setup parameters, printed by one hand-written
//!    template rather than derived from the config's Rust shape;
//! 2. the first cell needing a key runs the setup once and
//!    [`Snapshot::capture`]s the quiesced testbed — cleanly unmounted
//!    file systems over immutable, `Arc`-shared
//!    [`DiskImage`]s plus the virtual-time epoch
//!    and counter totals the setup consumed;
//! 3. every cell (including the one that built it) then
//!    [`Snapshot::fork`]s: a fresh single-threaded engine is advanced
//!    to the recorded epoch and the full device/filesystem/protocol
//!    stack is rebuilt over copy-on-write forks of the images, so
//!    cells never share mutable state.
//!
//! **The invariant:** snapshotting is a wall-clock optimization, never
//! a semantic one. Every cell — cold or cache-hit — goes through the
//! identical capture→fork path; disabling the cache (the
//! `--no-snapshot` flag, i.e.
//! [`RunOptions::share_setups`](crate::sweep::RunOptions)) only stops
//! *sharing* across cells, so reports, counters, and histograms are
//! byte-identical either way. CI diffs both modes on every push.

use crate::testbed::{Protocol, Testbed, TestbedConfig, TopologyConfig};
use blockdev::DiskImage;
use net::TransportModel;
use simkit::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Identity of a setup prefix: the configuration, the client and
/// server counts, and a workload tag naming the setup-phase parameters
/// (file counts, database pages, prepared directory depth, ...).
///
/// The per-cell seed is deliberately excluded — the setup phase runs
/// under a seed derived from the key itself ([`SetupKey::setup_seed`]),
/// which is what makes one setup valid for every cell that shares the
/// key. Anything that *does* influence the bytes a setup writes or the
/// messages it sends must be part of the key. The key is an explicit
/// schema, not a `Debug` rendering: renaming or deleting a config
/// field re-seeds nothing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SetupKey(String);

impl SetupKey {
    /// Key for a (possibly multi-client) topology plus a workload tag.
    ///
    /// Each field prints in the text keys have always had: a knob at
    /// its default is `None`, a `Pipe` link omits its transport, the
    /// fields that are no longer fields (the CPU cost model, link loss
    /// and v4 file delegation) are literals, and one server omits
    /// `;servers=`.
    pub(crate) fn new(topo: &TopologyConfig, workload: &str) -> SetupKey {
        fn knob<T: PartialEq + std::fmt::Display>(v: T, default: T) -> String {
            match v == default {
                true => "None".to_owned(),
                false => format!("Some({v})"),
            }
        }
        let (c, e) = (&topo.base, topo.base.enhancements);
        let d = TestbedConfig::new(c.protocol);
        let nanos = |t: SimDuration| format!("SimDuration({})", t.as_nanos());
        let protocol = match c.protocol {
            Protocol::NfsV2 => "NfsV2",
            Protocol::NfsV3 => "NfsV3",
            Protocol::NfsV4 => "NfsV4",
            Protocol::Iscsi => "Iscsi",
        };
        let mut transport = String::new();
        if let TransportModel::Tcp { connections } = c.link.transport {
            transport = format!(", transport: Tcp {{ connections: {connections} }}");
        }
        let mut key = format!(
            "clients={};cfg=TestbedConfig {{ protocol: {protocol}, seed: 0, \
             link: LinkParams {{ rtt: {}, bandwidth_bps: {}, loss: 0.0{transport} }}, \
             volume_blocks: {}, enhancements: Enhancements {{ consistent_metadata_cache: {}, \
             directory_delegation: {}, file_delegation: false }}, readahead_max: {}, \
             commit_interval: {}, nfs_max_dirty_pages: {}, nfs_metadata_timeout: {}, \
             cost: CostModel {{ layer: SimDuration(50000), per_kib: SimDuration(8000), \
             metadata_revisits: 3 }} }};workload={workload}",
            topo.clients,
            nanos(c.link.rtt),
            c.link.bandwidth_bps.get(),
            c.volume_blocks,
            e.consistent_metadata_cache,
            e.directory_delegation,
            knob(c.readahead_max, d.readahead_max),
            knob(nanos(c.commit_interval), nanos(d.commit_interval)),
            knob(c.nfs_max_dirty_pages, d.nfs_max_dirty_pages),
            knob(nanos(c.nfs_metadata_timeout), nanos(d.nfs_metadata_timeout)),
        );
        if topo.servers > 1 {
            key.push_str(&format!(";servers={}", topo.servers));
        }
        SetupKey(key)
    }

    /// Key for a single-client configuration plus a workload tag.
    pub fn for_config(config: &TestbedConfig, workload: &str) -> SetupKey {
        SetupKey::new(&TopologyConfig::from_base(config.clone()), workload)
    }

    /// The full key string (cache identity; collision-free because it
    /// is the identity, not a digest of it).
    pub(crate) fn as_str(&self) -> &str {
        &self.0
    }

    /// The RNG seed the setup phase runs under: a pure function of the
    /// key (FNV-1a over the key string), so a setup is reproducible
    /// from its key alone and never depends on which cell built it.
    pub fn setup_seed(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in self.0.as_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

/// Provenance a forked testbed carries about the setup phase it
/// resumed from: what the setup cost in virtual time and protocol
/// messages, so runners reporting whole-workload totals (Table 5's
/// PostMark times include file-pool creation) can add it back in.
/// A snapshot and its forks share one, read-only.
#[derive(Debug)]
pub struct SetupInfo {
    /// Seed the setup phase ran under ([`SetupKey::setup_seed`]).
    pub setup_seed: u64,
    /// Virtual time consumed by the setup, through quiesce.
    pub elapsed: SimDuration,
    /// Counter totals at capture (setup-phase traffic).
    counters: Vec<(String, u64)>,
}

impl SetupInfo {
    /// Value of a named counter at capture time (0 if absent).
    pub(crate) fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// An immutable snapshot of a quiesced post-setup testbed, shareable
/// across worker threads. Hold one in an `Arc` and [`fork`](Self::fork)
/// a private testbed per cell.
pub struct Snapshot {
    key: SetupKey,
    topo: TopologyConfig,
    /// One image of each server's RAID-5 store.
    images: Vec<Arc<DiskImage>>,
    epoch: SimTime,
    /// Shared with every fork, which only reads it.
    info: Arc<SetupInfo>,
}

impl Snapshot {
    /// Quiesces and captures a testbed: lands deferred write-back,
    /// drops every cache (the paper's cold-cache protocol), cleanly
    /// unmounts the file system(s) so a forked mount replays nothing,
    /// and exports each server's RAID-5 store as a shared image.
    ///
    /// # Panics
    ///
    /// Panics if an unmount fails (the testbed was left in a broken
    /// state by the setup closure).
    pub fn capture(tb: Testbed, key: SetupKey) -> Snapshot {
        let setup_seed = key.setup_seed();
        let parts = tb.capture_parts();
        Snapshot {
            key,
            topo: parts.topo,
            images: parts.images,
            epoch: parts.epoch,
            info: Arc::new(SetupInfo {
                setup_seed,
                elapsed: parts.epoch.since(SimTime::ZERO),
                counters: parts.counters,
            }),
        }
    }

    /// Builds a private testbed resuming from this snapshot: a fresh
    /// engine seeded with `seed` (the cell's measure-phase stream),
    /// advanced to the captured epoch, with the full device and
    /// protocol stack reconstructed over copy-on-write forks of the
    /// images — mounts instead of mkfs, a fresh session login, clean
    /// books.
    pub fn fork(&self, seed: u64) -> Testbed {
        self.fork_with(seed, |_| {})
    }

    /// Like [`fork`](Self::fork), but lets the caller override
    /// measure-phase configuration knobs (link RTT, commit interval,
    /// dirty-page limits, cache-consistency enhancements, read-ahead)
    /// that are consumed at fork-time construction — so one setup
    /// serves a whole sweep over such a knob. The edit is not in the
    /// [`SetupKey`], which printed the configuration the setup ran under.
    ///
    /// Setup-relevant fields (protocol, volume size) must not be
    /// changed here; the forked mount would not match the images.
    pub(crate) fn fork_with(&self, seed: u64, tweak: impl FnOnce(&mut TestbedConfig)) -> Testbed {
        let mut topo = self.topo.clone();
        topo.base.seed = seed;
        tweak(&mut topo.base);
        Testbed::resume(topo, &self.images, self.epoch, Arc::clone(&self.info))
    }

    /// Forks this *single-server* snapshot into an M-server sharded
    /// topology: every shard resumes from copy-on-write forks of the
    /// same captured images, so one k-client setup serves a k×M-client
    /// sharded cell. Client `i` lands on shard `i % M` with local
    /// identity `i / M` — exactly the client the captured shard
    /// prepared state for.
    ///
    /// # Panics
    ///
    /// Panics if this snapshot was captured from a sharded topology.
    pub(crate) fn fork_sharded(&self, seed: u64, servers: usize) -> Testbed {
        assert!(servers >= 1, "need at least one server");
        assert_eq!(
            self.topo.servers, 1,
            "shard replication needs a single-shard snapshot"
        );
        let mut topo = self.topo.clone();
        topo.base.seed = seed;
        topo.servers = servers;
        topo.clients = self.topo.clients * servers;
        let images = vec![Arc::clone(&self.images[0]); servers];
        Testbed::resume(topo, &images, self.epoch, Arc::clone(&self.info))
    }

    /// Total blocks with captured content across the RAID-5 stores —
    /// the state a fork shares instead of rebuilding.
    pub fn touched_blocks(&self) -> usize {
        self.images.iter().map(|i| i.touched_blocks()).sum()
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("key", &self.key.as_str())
            .field("clients", &self.topo.clients)
            .field("epoch", &self.epoch)
            .field("touched_blocks", &self.touched_blocks())
            .finish()
    }
}

/// A per-sweep cache of setups: one [`Snapshot`] per unique
/// [`SetupKey`], built by whichever worker first needs it and shared
/// read-only with the rest.
pub struct SnapshotCache {
    entries: Mutex<HashMap<String, Arc<OnceLock<Arc<Snapshot>>>>>,
    builds: AtomicUsize,
    share: bool,
}

impl SnapshotCache {
    /// An empty cache with sharing enabled.
    pub fn new() -> SnapshotCache {
        SnapshotCache::sharing(true)
    }

    /// An empty cache that shares setups, or (`share: false`) never
    /// does: every `get_or_build` runs the setup. The capture→fork
    /// path still runs, so results are byte-identical to a sharing
    /// cache — this is `--no-snapshot`, the cold baseline for
    /// benchmarks and the isolation property tests.
    pub(crate) fn sharing(share: bool) -> SnapshotCache {
        SnapshotCache {
            entries: Mutex::new(HashMap::new()),
            builds: AtomicUsize::new(0),
            share,
        }
    }

    /// Returns the snapshot for `key`, running `build` (which receives
    /// [`SetupKey::setup_seed`]) at most once per key while sharing is
    /// enabled. Concurrent requests for the same key block until the
    /// first builder finishes; requests for different keys proceed in
    /// parallel.
    pub(crate) fn get_or_build(
        &self,
        key: &SetupKey,
        build: impl FnOnce(u64) -> Snapshot,
    ) -> Arc<Snapshot> {
        if !self.share {
            self.builds.fetch_add(1, Ordering::Relaxed);
            return Arc::new(build(key.setup_seed()));
        }
        let slot = {
            let mut entries = self.entries.lock().unwrap();
            Arc::clone(entries.entry(key.as_str().to_owned()).or_default())
        };
        slot.get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(build(key.setup_seed()))
        })
        .clone()
    }

    /// How many setups have actually been built (cache misses, or
    /// every request when sharing is off).
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// Number of distinct keys seen while sharing was enabled.
    pub(crate) fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }
}

impl Default for SnapshotCache {
    fn default() -> Self {
        SnapshotCache::new()
    }
}

impl std::fmt::Debug for SnapshotCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCache")
            .field("keys", &self.len())
            .field("builds", &self.builds())
            .field("share", &self.share)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_seed_independent_but_config_sensitive() {
        let mut a = TestbedConfig::new(Protocol::NfsV3);
        let mut b = TestbedConfig::new(Protocol::NfsV3);
        a.seed = 1;
        b.seed = 999;
        assert_eq!(
            SetupKey::for_config(&a, "w"),
            SetupKey::for_config(&b, "w"),
            "per-cell seed must not split the cache"
        );
        assert_ne!(
            SetupKey::for_config(&a, "w"),
            SetupKey::for_config(&TestbedConfig::new(Protocol::Iscsi), "w")
        );
        assert_ne!(
            SetupKey::for_config(&a, "w"),
            SetupKey::for_config(&a, "w2"),
            "workload tag is part of the identity"
        );
        let topo = TopologyConfig::new(Protocol::NfsV3).with_clients(4);
        assert_ne!(SetupKey::new(&topo, "w"), SetupKey::for_config(&a, "w"));

        // Every knob, a WAN link and the TCP transport each name a
        // setup of their own.
        let edits: [fn(&mut TestbedConfig); 6] = [
            |c| c.readahead_max = 64,
            |c| c.commit_interval = SimDuration::from_secs(30),
            |c| c.nfs_max_dirty_pages = 16,
            |c| c.nfs_metadata_timeout = SimDuration::ZERO,
            |c| c.link = net::LinkParams::wan(SimDuration::from_millis(10)),
            |c| {
                c.link = c
                    .link
                    .with_transport(TransportModel::Tcp { connections: 1 })
            },
        ];
        let mut keys = vec![SetupKey::for_config(&a, "w")];
        for edit in edits {
            let mut c = a.clone();
            edit(&mut c);
            keys.push(SetupKey::for_config(&c, "w"));
        }
        let distinct: std::collections::HashSet<&SetupKey> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len(), "{keys:#?}");
    }

    /// The literal text and seed of three keys, recorded from the
    /// `{:?}` rendering of the whole configuration that keys were
    /// built from before the template: any change here re-seeds the
    /// setups these keys name.
    #[test]
    fn key_text_and_seeds_are_pinned() {
        let nfs = TestbedConfig::new(Protocol::NfsV3);
        let key = SetupKey::for_config(&nfs, "ablation:blank");
        assert_eq!(
            key.as_str(),
            "clients=1;cfg=TestbedConfig { protocol: NfsV3, seed: 0, link: LinkParams { \
             rtt: SimDuration(200000), bandwidth_bps: 1000000000, loss: 0.0 }, \
             volume_blocks: 1048576, enhancements: Enhancements { \
             consistent_metadata_cache: false, directory_delegation: false, \
             file_delegation: false }, readahead_max: None, commit_interval: None, \
             nfs_max_dirty_pages: None, nfs_metadata_timeout: None, cost: CostModel { \
             layer: SimDuration(50000), per_kib: SimDuration(8000), metadata_revisits: 3 } \
             };workload=ablation:blank"
        );
        assert_eq!(key.setup_seed(), 15_271_779_658_317_274_967);

        let sharded = TopologyConfig::new(Protocol::Iscsi)
            .with_clients(4)
            .with_servers(2);
        let key = SetupKey::new(&sharded, "scale:files200");
        assert_eq!(
            key.as_str(),
            "clients=4;cfg=TestbedConfig { protocol: Iscsi, seed: 0, link: LinkParams { \
             rtt: SimDuration(200000), bandwidth_bps: 1000000000, loss: 0.0 }, \
             volume_blocks: 1048576, enhancements: Enhancements { \
             consistent_metadata_cache: false, directory_delegation: false, \
             file_delegation: false }, readahead_max: None, commit_interval: None, \
             nfs_max_dirty_pages: None, nfs_metadata_timeout: None, cost: CostModel { \
             layer: SimDuration(50000), per_kib: SimDuration(8000), metadata_revisits: 3 } \
             };workload=scale:files200;servers=2"
        );
        assert_eq!(key.setup_seed(), 584_248_118_149_617_622);

        let mut tcp = nfs.clone();
        tcp.link = tcp
            .link
            .with_transport(TransportModel::Tcp { connections: 2 });
        let key = SetupKey::for_config(&tcp, "data:blank");
        assert_eq!(
            key.as_str(),
            "clients=1;cfg=TestbedConfig { protocol: NfsV3, seed: 0, link: LinkParams { \
             rtt: SimDuration(200000), bandwidth_bps: 1000000000, loss: 0.0, \
             transport: Tcp { connections: 2 } }, \
             volume_blocks: 1048576, enhancements: Enhancements { \
             consistent_metadata_cache: false, directory_delegation: false, \
             file_delegation: false }, readahead_max: None, commit_interval: None, \
             nfs_max_dirty_pages: None, nfs_metadata_timeout: None, cost: CostModel { \
             layer: SimDuration(50000), per_kib: SimDuration(8000), metadata_revisits: 3 } \
             };workload=data:blank"
        );
        assert_eq!(key.setup_seed(), 3_873_317_287_592_947_076);
    }

    #[test]
    fn shard_defaults_leave_keys_byte_identical() {
        let flat = TopologyConfig::new(Protocol::NfsV3).with_clients(4);
        let explicit = flat.clone().with_servers(1);
        assert_eq!(
            SetupKey::new(&flat, "w"),
            SetupKey::new(&explicit, "w"),
            "default shard parameters must not change existing keys"
        );
        assert!(!SetupKey::new(&flat, "w").as_str().contains("servers="));
        let sharded = flat.clone().with_servers(4);
        assert_ne!(SetupKey::new(&flat, "w"), SetupKey::new(&sharded, "w"));
    }

    #[test]
    fn setup_seed_is_a_pure_function_of_the_key() {
        let cfg = TestbedConfig::new(Protocol::Iscsi);
        let k1 = SetupKey::for_config(&cfg, "pm");
        let k2 = SetupKey::for_config(&cfg, "pm");
        assert_eq!(k1.setup_seed(), k2.setup_seed());
        assert_ne!(
            k1.setup_seed(),
            SetupKey::for_config(&cfg, "pm2").setup_seed()
        );
    }

    #[test]
    fn capture_fork_preserves_file_system_contents() {
        for proto in [Protocol::NfsV3, Protocol::Iscsi] {
            let key = SetupKey::for_config(&TestbedConfig::new(proto), "roundtrip");
            let tb = Testbed::with_protocol_seeded(proto, key.setup_seed());
            tb.fs().mkdir("/d").unwrap();
            tb.fs().creat("/d/f").unwrap();
            let fd = tb.fs().open("/d/f").unwrap();
            tb.fs().write(fd, 0, &[7u8; 8192]).unwrap();
            let snap = Snapshot::capture(tb, key);
            assert!(snap.touched_blocks() > 0);

            let fork = snap.fork(12345);
            assert!(fork.setup_info().is_some());
            let fd = fork.fs().open("/d/f").unwrap();
            let data = fork.fs().read(fd, 0, 8192).unwrap();
            assert_eq!(data.len(), 8192);
            assert!(data.iter().all(|&b| b == 7), "content survives the fork");
            assert!(
                fork.now() > snap.epoch,
                "fork resumes after the captured epoch"
            );
        }
    }

    /// Forks read the setup's provenance and never change it, so they
    /// share the snapshot's one copy, a sharded fork included.
    #[test]
    fn forks_share_one_setup_info() {
        let key = SetupKey::for_config(&TestbedConfig::new(Protocol::NfsV3), "shared-info");
        let tb = Testbed::with_protocol_seeded(Protocol::NfsV3, key.setup_seed());
        tb.fs().creat("/f").unwrap();
        let snap = Snapshot::capture(tb, key);
        let (a, b) = (snap.fork(1), snap.fork_sharded(2, 2));
        let (a, b) = (a.setup_info().unwrap(), b.setup_info().unwrap());
        assert!(Arc::ptr_eq(a, b), "two forks, one SetupInfo");
        assert!(Arc::ptr_eq(a, &snap.info), "and it is the snapshot's");
    }

    #[test]
    fn forked_writes_never_leak_into_the_snapshot() {
        let key = SetupKey::for_config(&TestbedConfig::new(Protocol::Iscsi), "isolation");
        let tb = Testbed::with_protocol_seeded(Protocol::Iscsi, key.setup_seed());
        tb.fs().creat("/f").unwrap();
        let snap = Snapshot::capture(tb, key);

        // Mounting marks the superblock, so even an untouched fork
        // diverges by a few metadata blocks; use that as the baseline.
        let baseline = snap.fork(99).diverged_blocks();

        let a = snap.fork(1);
        a.fs().creat("/only-in-a").unwrap();
        let fd = a.fs().open("/only-in-a").unwrap();
        a.fs().write(fd, 0, &[1u8; 65536]).unwrap();
        a.settle();
        assert!(
            a.diverged_blocks() > baseline,
            "writes land in the fork overlay"
        );

        let b = snap.fork(2);
        assert_eq!(
            b.diverged_blocks(),
            baseline,
            "sibling fork starts clean apart from mount metadata"
        );
        assert!(
            b.fs().open("/only-in-a").is_err(),
            "sibling fork must not see the other's writes"
        );
        assert!(b.fs().open("/f").is_ok());
    }

    #[test]
    fn sharded_fork_replicates_a_single_shard_setup() {
        for proto in [Protocol::NfsV3, Protocol::Iscsi] {
            let mut topo = TopologyConfig::new(proto).with_clients(2);
            let key = SetupKey::new(&topo, "shardrt");
            topo.base.seed = key.setup_seed();
            let tb = Testbed::build_topology(topo);
            for l in 0..2 {
                tb.client_fs(l).mkdir(&format!("/d{l}")).unwrap();
                tb.client_fs(l).creat(&format!("/d{l}/f")).unwrap();
            }
            let snap = Snapshot::capture(tb, key);
            assert_eq!(snap.topo.servers, 1);

            let fork = snap.fork_sharded(7, 3);
            assert_eq!(fork.client_count(), 6);
            assert_eq!(fork.server_count(), 3);
            for i in 0..6 {
                // Static: global client i is local i/M on shard i%M,
                // so it sees the state captured for that local client.
                let l = i / 3;
                assert!(
                    fork.client_fs(i).open(&format!("/d{l}/f")).is_ok(),
                    "{proto:?} client {i} missing its shard state"
                );
                assert_eq!(fork.client_port(i), (i % 3) as u32);
            }
            // Shards are independent copies: a write on one shard is
            // invisible to its neighbors.
            fork.client_fs(0).creat("/d0/only-shard0").unwrap();
            if proto == Protocol::NfsV3 {
                assert!(
                    fork.client_fs(1).open("/d0/only-shard0").is_err(),
                    "shard 1 must not see shard 0's writes"
                );
            }
        }
    }

    #[test]
    fn cache_builds_once_per_key_and_rebuilds_when_disabled() {
        let cfg = TestbedConfig::new(Protocol::Iscsi);
        let key = SetupKey::for_config(&cfg, "cache");
        let setup = |seed: u64| {
            let tb = Testbed::with_protocol_seeded(Protocol::Iscsi, seed);
            tb.fs().creat("/f").unwrap();
            tb
        };
        let cache = SnapshotCache::new();
        let s1 = cache.get_or_build(&key, |s| Snapshot::capture(setup(s), key.clone()));
        let s2 = cache.get_or_build(&key, |s| Snapshot::capture(setup(s), key.clone()));
        assert_eq!(cache.builds(), 1, "second request hits the cache");
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(cache.len(), 1);

        let cold = SnapshotCache::sharing(false);
        let _ = cold.get_or_build(&key, |s| Snapshot::capture(setup(s), key.clone()));
        let _ = cold.get_or_build(&key, |s| Snapshot::capture(setup(s), key.clone()));
        assert_eq!(cold.builds(), 2, "disabled cache never shares");
        assert_eq!(cold.len(), 0);
    }
}
