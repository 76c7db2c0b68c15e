//! The testbed builder: N clients, M servers, a Gigabit LAN, and a
//! RAID-5 array per server — wired either as NFS (file system at the
//! server) or as iSCSI (file system at the client over a remote disk),
//! exactly as in the paper's Figure 2.
//!
//! There is one construction path, [`Testbed::construct`], and the
//! paper's single-client pair is its (N = 1, M = 1) case:
//! [`Testbed::build`] is [`Testbed::build_topology`] on a default
//! [`TopologyConfig`]. With more clients, hosts `c0..c<N-1>` on a
//! [`net::Fabric`] share the server link (and contend for its
//! bandwidth), NFS clients share one server file system with per-client
//! RPC channels and CPU accounts, and iSCSI initiators run private
//! sessions against disjoint LUN partitions of the same RAID volume —
//! the sharing contrast at the heart of the paper's discussion. With
//! more servers, each shard is an independent machine behind its own
//! edge link, and client `i` mounts shard `i % M`.
//!
//! What the counts change is data, not code path: (1, 1) talks over
//! its fabric's unnamed endpoint (no `net.c0.*` counters) and exports
//! the whole volume as its one LUN; the per-shard `disk.s<j>.busy_pct`
//! gauges and the ×M link capacity exist only when M > 1.

use crate::calibration;
use crate::snapshot::SetupInfo;
use blockdev::{
    BlockDevice, BlockNo, DiskImage, DiskModel, IoCost, MemDisk, Partition, Raid5, Raid5Geometry,
};
use cpu::{CostModel, CpuAccount};
use ext3::Ext3;
use iscsi::{Initiator, SessionParams, Target};
use net::{Fabric, LinkParams};
use nfs::{Enhancements, NfsClient, NfsConfig, NfsServer, Version};
use rpc::{RpcClient, RpcConfig};
use simkit::units::Bytes;
use simkit::{GaugeSampler, HostId, Sim, SimDuration, SimTime};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use vfs::{FileSystem, LocalMount, NfsMount};

/// Which protocol the testbed runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// NFS version 2 over UDP.
    NfsV2,
    /// NFS version 3 over TCP.
    NfsV3,
    /// NFS version 4 over TCP.
    NfsV4,
    /// iSCSI with client-side ext3.
    Iscsi,
}

impl Protocol {
    /// All protocols, in the paper's table order.
    pub const ALL: [Protocol; 4] = [
        Protocol::NfsV2,
        Protocol::NfsV3,
        Protocol::NfsV4,
        Protocol::Iscsi,
    ];

    /// Short label used in table headers.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::NfsV2 => "v2",
            Protocol::NfsV3 => "v3",
            Protocol::NfsV4 => "v4",
            Protocol::Iscsi => "iSCSI",
        }
    }

    /// The transaction counter this protocol's messages land in.
    pub(crate) fn txn_counter(self) -> &'static str {
        match self {
            Protocol::Iscsi => "proto.iscsi.txns",
            _ => "proto.nfs.txns",
        }
    }

    /// NFS version, when applicable.
    pub(crate) fn nfs_version(self) -> Option<Version> {
        match self {
            Protocol::NfsV2 => Some(Version::V2),
            Protocol::NfsV3 => Some(Version::V3),
            Protocol::NfsV4 => Some(Version::V4),
            Protocol::Iscsi => None,
        }
    }
}

/// Decorates the iSCSI target's volume so each command also charges
/// the server CPU its (short) iSCSI processing path.
struct CpuChargedDevice {
    inner: Rc<dyn BlockDevice>,
    sim: Rc<Sim>,
    cpu: Rc<CpuAccount>,
    cost: CostModel,
}

impl BlockDevice for CpuChargedDevice {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }
    fn read(&self, start: BlockNo, nblocks: u32, buf: &mut [u8]) -> blockdev::Result<IoCost> {
        let cpu = self.cost.iscsi_request(Bytes::new(nblocks as u64 * 4096));
        self.cpu.charge_tagged(self.sim.now(), cpu, "iscsi.target");
        // Target processing extends the command's service time.
        Ok(self.inner.read(start, nblocks, buf)?.then(IoCost::new(cpu)))
    }
    fn write(&self, start: BlockNo, data: &[u8]) -> blockdev::Result<IoCost> {
        let cpu = self.cost.iscsi_request(Bytes::new(data.len() as u64));
        // Writes arrive in write-back bursts; vmstat sees the target's
        // processing as sustained background load across the client's
        // write-back interval.
        self.cpu.charge_spread_tagged(
            self.sim.now(),
            cpu,
            ext3::WRITEBACK_INTERVAL,
            "iscsi.target",
        );
        Ok(self.inner.write(start, data)?.then(IoCost::new(cpu)))
    }
    fn flush(&self) -> blockdev::Result<IoCost> {
        self.inner.flush()
    }
}

/// The seed of a [`TestbedConfig`] nobody reseeded: what a run outside
/// any sweep measures under.
pub(crate) const DEFAULT_SEED: u64 = 42;

/// Configuration of a testbed instance.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Protocol under test.
    pub protocol: Protocol,
    /// RNG seed (determinism).
    pub seed: u64,
    /// Network parameters (default: the paper's isolated Gigabit LAN).
    pub link: LinkParams,
    /// Volume size in blocks.
    pub volume_blocks: u64,
    /// §7 enhancements (NFS protocols only).
    pub enhancements: Enhancements,
    /// The client ext3 read-ahead window (blocks) — the read-ahead
    /// ablation.
    pub readahead_max: u32,
    /// The client ext3 journal commit interval (iSCSI side) — the
    /// update-aggregation window ablation.
    pub commit_interval: SimDuration,
    /// The NFS client's dirty-page limit — the
    /// pseudo-synchronous-write ablation.
    pub nfs_max_dirty_pages: usize,
    /// The NFS meta-data cache timeout (Linux default 3 s) — the
    /// consistency-check-traffic ablation.
    pub nfs_metadata_timeout: SimDuration,
}

impl TestbedConfig {
    /// The paper's default setup for the given protocol.
    pub fn new(protocol: Protocol) -> TestbedConfig {
        let ext3 = calibration::client_ext3_options();
        // The NFS client defaults are the same for every version.
        let nfs = NfsConfig::for_version(Version::V3);
        TestbedConfig {
            protocol,
            seed: DEFAULT_SEED,
            link: LinkParams::gigabit_lan(),
            volume_blocks: calibration::VOLUME_BLOCKS,
            enhancements: Enhancements::default(),
            readahead_max: ext3.readahead_max,
            commit_interval: ext3.commit_interval,
            nfs_max_dirty_pages: nfs.max_dirty_pages,
            nfs_metadata_timeout: nfs.metadata_timeout,
        }
    }
}

/// A multi-client topology: the shared single-pair configuration plus
/// how many client hosts to instantiate.
///
/// With `clients: 1` and `servers: 1` this *is* [`Testbed::build`]'s
/// pair; with more clients, hosts `c0..c<N-1>` are named endpoints of
/// the [`net::Fabric`] (per-host counters under `net.<host>.<label>.*`,
/// shared server-link bandwidth) and each gets its own CPU account and
/// mount — N `NfsClient`s against one `NfsServer`, or N iSCSI sessions
/// against one `Target` with a private LUN partition per session.
///
/// With `servers: M > 1` the topology is *sharded*: M independent
/// server machines (each with its own RAID array, CPU account, and
/// file system or iSCSI target) each sit behind a private edge link of
/// the fabric, and client `i` mounts server `i % M`, where it is local
/// client `i / M`.
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// The per-pair configuration shared by every client.
    pub base: TestbedConfig,
    /// Number of client hosts.
    pub clients: usize,
    /// Number of server shards (default 1: the paper's single server).
    pub servers: usize,
}

impl TopologyConfig {
    /// The paper's defaults for `protocol`: one client, one server.
    pub fn new(protocol: Protocol) -> TopologyConfig {
        TopologyConfig::from_base(TestbedConfig::new(protocol))
    }

    /// Wraps an existing per-pair configuration (single client/server).
    pub fn from_base(base: TestbedConfig) -> TopologyConfig {
        TopologyConfig {
            base,
            clients: 1,
            servers: 1,
        }
    }

    /// Sets the client count.
    #[must_use]
    pub fn with_clients(mut self, clients: usize) -> TopologyConfig {
        self.clients = clients;
        self
    }

    /// Sets the server-shard count.
    #[must_use]
    pub fn with_servers(mut self, servers: usize) -> TopologyConfig {
        self.servers = servers;
        self
    }
}

/// One client host of the topology: its name, CPU account and mount.
struct ClientHost {
    name: String,
    cpu: Rc<CpuAccount>,
    kind: MountKind,
}

/// A built testbed: the workload-facing [`FileSystem`] plus the
/// instrumentation handles every experiment reads.
pub struct Testbed {
    sim: Rc<Sim>,
    /// The fabric the client links hang off: one port per server.
    fabric: Rc<Fabric>,
    config: TestbedConfig,
    clients: Vec<ClientHost>,
    /// The server shard (fabric port) each client is attached to.
    ports: Vec<u32>,
    /// One CPU account per server shard (exactly one in the paper's
    /// single-server topologies).
    server_cpus: Vec<Rc<CpuAccount>>,
    /// Each server's RAID-5 content store, at the array's logical
    /// addresses (server 0's first), kept so a snapshot capture can
    /// export them as shared images.
    stores: Vec<Rc<MemDisk>>,
    /// Virtual-clock gauge sampler (link/disk utilization, cache
    /// occupancy); registered as a daemon, reset after construction.
    gauges: Rc<GaugeSampler>,
    /// Setup-phase provenance when resumed from a snapshot.
    setup: Option<Arc<SetupInfo>>,
}

/// Snapshot state a resumed construction starts from.
struct Resume {
    images: Vec<Arc<DiskImage>>,
    epoch: SimTime,
    info: Arc<SetupInfo>,
}

/// What a snapshot capture extracts from a quiesced testbed.
pub(crate) struct CapturedParts {
    pub topo: TopologyConfig,
    /// One image of each server's RAID-5 store (server 0's first).
    pub images: Vec<Arc<DiskImage>>,
    pub epoch: SimTime,
    pub counters: Vec<(String, u64)>,
}

enum MountKind {
    Nfs { mount: NfsMount },
    Iscsi { mount: LocalMount },
}

impl MountKind {
    fn fs(&self) -> &dyn FileSystem {
        match self {
            MountKind::Nfs { mount } => mount,
            MountKind::Iscsi { mount } => mount,
        }
    }
}

impl std::fmt::Debug for Testbed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Testbed")
            .field("protocol", &self.config.protocol)
            .field("now", &self.sim.now())
            .finish()
    }
}

/// The timed RAID members of one server, as the gauge sampler watches
/// them.
type MemberDisks = Vec<Rc<DiskModel<MemDisk>>>;

impl Testbed {
    /// Builds the paper's single-client, single-server testbed for
    /// `config`: the (1, 1) case of [`Testbed::build_topology`].
    ///
    /// # Panics
    ///
    /// Panics if the underlying mkfs fails (volume too small).
    pub fn build(config: TestbedConfig) -> Testbed {
        Self::construct(TopologyConfig::from_base(config), None)
    }

    /// Builds a topology of `clients` hosts `c0..c<N-1>` over `servers`
    /// shards.
    ///
    /// # Panics
    ///
    /// Panics if `clients` or `servers` is zero, if there are fewer
    /// clients than servers, or if the underlying mkfs fails (for
    /// iSCSI, each client's LUN partition must still hold a file
    /// system: keep `volume_blocks / clients` comfortably above
    /// [`ext3::MIN_VOLUME_BLOCKS`]).
    pub fn build_topology(topo: TopologyConfig) -> Testbed {
        Self::construct(topo, None)
    }

    /// The construction path, cold or resumed: the only difference a
    /// snapshot makes is mounts instead of mkfs, RAID-5 stores forked
    /// from images instead of blank ones, and the clock starting at the
    /// captured epoch. M server machines — RAID array, CPU account
    /// ([`HostId::server`]) and file system or iSCSI target each — and
    /// N clients, client `i` on server `i % M`.
    fn construct(topo: TopologyConfig, resume: Option<Resume>) -> Testbed {
        let config = topo.base;
        let (n, m) = (topo.clients, topo.servers);
        assert!(n >= 1, "a topology needs at least one client");
        assert!(m >= 1, "a topology needs at least one server");
        assert!(n >= m, "need at least one client per server shard");
        let version = config.protocol.nfs_version();
        let cost = CostModel::p3_933();
        let sim = Sim::new(config.seed);
        if let Some(r) = &resume {
            // Restore the captured epoch before any component exists:
            // daemons registered below align their cadence to it
            // exactly as the captured testbed's did.
            sim.advance_to(r.epoch);
            assert_eq!(r.images.len(), m, "resume images must cover every shard");
        }
        // One fabric port per server.
        let fabric = Fabric::new(sim.clone(), config.link);
        for _ in 1..m {
            fabric.add_port();
        }

        let remount = resume.is_some();
        let mut server_cpus: Vec<Rc<CpuAccount>> = Vec::with_capacity(m);
        let mut stores: Vec<Rc<MemDisk>> = Vec::with_capacity(m);
        let mut raids: Vec<Rc<dyn BlockDevice>> = Vec::with_capacity(m);
        let mut disk_groups: Vec<MemberDisks> = Vec::with_capacity(m);
        for j in 0..m {
            let cpu = Rc::new(CpuAccount::new());
            cpu.instrument(sim.clone(), HostId::server(j as u32));
            let image = resume.as_ref().map(|r| &r.images[j]);
            let (raid, store, disks) = Self::build_raid(&sim, &config, image);
            server_cpus.push(cpu);
            stores.push(store);
            raids.push(raid);
            disk_groups.push(disks);
        }

        // Client i mounts shard i % M as that shard's local client
        // i / M (its LUN slot / file-pool identity there).
        let ports: Vec<u32> = (0..n).map(|i| (i % m) as u32).collect();
        let shard_clients = |j: usize| (n - j).div_ceil(m) as u64;

        // The server side of the protocol. NFS: one independent file
        // system and server per shard, shared by the shard's clients —
        // cache consistency between them flows through the shared
        // server mtimes, exactly as on a real shared export.
        let mut nfs_servers: Vec<Rc<NfsServer>> = Vec::new();
        // iSCSI: one target per shard over its (CPU-charged) volume,
        // exporting a private LUN per attached client — iSCSI's
        // "private volume" sharing model.
        let mut targets: Vec<Option<Rc<Target>>> = vec![None; m];
        if version.is_some() {
            for (raid, cpu) in raids.iter().zip(&server_cpus) {
                let fs = Self::server_fs(&sim, Rc::clone(raid), remount);
                nfs_servers.push(Rc::new(NfsServer::new(fs, Rc::clone(cpu), cost)));
            }
        } else {
            let charged: Vec<Rc<dyn BlockDevice>> = raids
                .iter()
                .zip(&server_cpus)
                .map(|(raid, cpu)| {
                    Rc::new(CpuChargedDevice {
                        inner: Rc::clone(raid),
                        sim: sim.clone(),
                        cpu: Rc::clone(cpu),
                        cost,
                    }) as Rc<dyn BlockDevice>
                })
                .collect();
            for i in 0..n {
                let (j, local) = (i % m, (i / m) as u64);
                let lun: Rc<dyn BlockDevice> = if n == 1 {
                    // The lone initiator gets the array whole, spare
                    // blocks past `volume_blocks` included.
                    Rc::clone(&charged[j])
                } else {
                    // Server j's volume is split among the clients
                    // assigned to it, the layout a single-shard capture
                    // produces (so a replicated fork mounts the same
                    // partitions it captured).
                    let lun_blocks = config.volume_blocks / shard_clients(j);
                    Rc::new(Partition::new(
                        format!("lun{local}"),
                        Rc::clone(&charged[j]),
                        local * lun_blocks,
                        lun_blocks,
                    ))
                };
                match &targets[j] {
                    None => targets[j] = Some(Rc::new(Target::new(lun))),
                    Some(t) => {
                        t.add_lun(lun);
                    }
                }
            }
        }

        let clients: Vec<ClientHost> = (0..n)
            .map(|i| {
                let name = format!("c{i}");
                let host = HostId::client(i as u32);
                let port = ports[i];
                let cpu = Rc::new(CpuAccount::new());
                cpu.instrument(sim.clone(), host);
                // The pair's endpoint is unnamed, so it has no per-host
                // `net.c0.*` counters.
                let link = fabric.host_on((n > 1).then_some(name.as_str()), port as usize);
                let kind = match version {
                    Some(version) => {
                        let cfg = Self::nfs_config(&config, version, i as u32);
                        let rpcc = RpcClient::new(
                            link.channel_flows("nfs", version.transport(), Some(cfg.nconnect)),
                            RpcConfig::default(),
                        );
                        let client = Rc::new(NfsClient::new(
                            sim.clone(),
                            rpcc,
                            Rc::clone(&nfs_servers[port as usize]),
                            cfg,
                            cpu.clone(),
                            cost,
                        ));
                        // The mount handshake (mountd for v2/v3,
                        // PUTROOTFH for v4) happens during setup,
                        // before the books open.
                        client.mount();
                        MountKind::Nfs {
                            mount: NfsMount::new(client),
                        }
                    }
                    None => {
                        let target = targets[port as usize].as_ref().expect("target");
                        let initiator = Initiator::new(
                            link.channel("iscsi", net::Transport::Tcp),
                            Rc::clone(target),
                        );
                        let disk = Rc::new(
                            initiator
                                .login_lun(Self::session_params(&config), (i / m) as u32)
                                .expect("login"),
                        );
                        let fs = Rc::new(Self::client_fs_init(&sim, disk, &config, remount, host));
                        MountKind::Iscsi {
                            mount: LocalMount::new(fs, cpu.clone(), cost),
                        }
                    }
                };
                ClientHost { name, cpu, kind }
            })
            .collect();

        let gauges = Self::register_gauges(&sim, &config.link, disk_groups, &clients);
        // Formatting/mounting and login traffic is setup, not
        // workload: start the experiment's books clean.
        sim.counters().reset();
        sim.metrics().reset();
        sim.tracer().clear();
        gauges.reset(sim.now());
        Self::arm_gauges(&sim, &gauges);
        Testbed {
            sim,
            fabric,
            config,
            clients,
            ports,
            server_cpus,
            stores,
            gauges,
            setup: resume.map(|r| r.info),
        }
    }

    /// The server-side RAID-5 array (4+p) used by both protocols. Its
    /// content store starts blank on a cold build, or as a
    /// copy-on-write fork of the given snapshot image, and is returned
    /// alongside so a capture can image it later; so are the timed
    /// members, which store nothing, so the gauge sampler can watch
    /// their busy time.
    fn build_raid(
        sim: &Rc<Sim>,
        config: &TestbedConfig,
        image: Option<&Arc<DiskImage>>,
    ) -> (Rc<dyn BlockDevice>, Rc<MemDisk>, MemberDisks) {
        let data_members = calibration::RAID_MEMBERS as u64 - 1;
        let member_blocks = config.volume_blocks / data_members + 1024;
        let models: MemberDisks = (0..calibration::RAID_MEMBERS)
            .map(|i| {
                let m = Rc::new(DiskModel::new(
                    MemDisk::new(format!("sd{i}"), member_blocks),
                    calibration::raid_member_params(),
                ));
                m.instrument(sim.clone());
                m
            })
            .collect();
        let store = Rc::new(match image {
            Some(image) => MemDisk::from_image(Arc::clone(image)),
            None => MemDisk::new("raid5", member_blocks * data_members),
        });
        let members: Vec<Rc<dyn BlockDevice>> = models
            .iter()
            .map(|m| Rc::clone(m) as Rc<dyn BlockDevice>)
            .collect();
        let r5 = Raid5::with_store(
            "raid5",
            members,
            Raid5Geometry {
                stripe_unit: calibration::RAID_STRIPE_UNIT,
            },
            Rc::clone(&store),
        );
        r5.instrument(sim.clone());
        // The ServeRAID adapter's battery-backed write cache absorbs
        // synchronous writes (journal commits, v2 stable writes).
        let raid = Rc::new(blockdev::WriteCache::new(
            r5,
            calibration::controller_cache_hit(),
        ));
        (raid, store, models)
    }

    /// Builds the virtual-clock gauge sampler and registers its
    /// read-only probes: link utilization against the aggregate edge
    /// capacity (one edge per server), RAID-member busy time (100 per
    /// fully busy member, so `/100` reads as mean in-service depth) —
    /// in aggregate and, when there are several servers, per shard as
    /// `disk.s<j>.busy_pct` (M is small; the per-host zero-row rule in
    /// [`simkit::gauge`] keeps unsampled rows out of reports) — and
    /// client-cache occupancy (pagecache blocks and, for NFS, cached
    /// dentries — iSCSI keeps a stable zero row). Delta-based probes
    /// seed their baseline at registration so setup-phase traffic never
    /// leaks into the first sample; [`GaugeSampler::reset`] afterwards
    /// aligns the cadence to absolute multiples of the period.
    fn register_gauges(
        sim: &Rc<Sim>,
        link: &LinkParams,
        disk_groups: Vec<MemberDisks>,
        clients: &[ClientHost],
    ) -> Rc<GaugeSampler> {
        let period = SimDuration::from_millis(100);
        let g = Rc::new(GaugeSampler::new(period));
        {
            let sim2 = Rc::clone(sim);
            let last = Cell::new(sim2.counters().get("net.total.bytes"));
            // Bits the server links can carry per sampling period.
            let cap_bits = link
                .bandwidth_bps
                .get()
                .saturating_mul(disk_groups.len() as u64)
                .saturating_mul(period.as_nanos())
                / 1_000_000_000;
            g.register("link.util_pct", move || {
                let total = sim2.counters().get("net.total.bytes");
                let delta = total.saturating_sub(last.get());
                last.set(total);
                if cap_bits == 0 {
                    return 0;
                }
                delta.saturating_mul(8).saturating_mul(100) / cap_bits
            });
        }
        let busy_pct = |name: String, disks: MemberDisks| {
            let busy_ns = move || disks.iter().map(|d| d.stats().busy.as_nanos()).sum::<u64>();
            let last = Cell::new(busy_ns());
            g.register(name, move || {
                let busy = busy_ns();
                let delta = busy.saturating_sub(last.get());
                last.set(busy);
                delta.saturating_mul(100) / period.as_nanos()
            });
        };
        if disk_groups.len() > 1 {
            for (j, disks) in disk_groups.iter().enumerate() {
                busy_pct(format!("disk.s{j}.busy_pct"), disks.clone());
            }
        }
        busy_pct(
            "disk.busy_pct".to_string(),
            disk_groups.into_iter().flatten().collect(),
        );
        let mut nfs_clients: Vec<Rc<NfsClient>> = Vec::new();
        let mut client_fss: Vec<Rc<Ext3>> = Vec::new();
        for host in clients {
            match &host.kind {
                MountKind::Nfs { mount } => nfs_clients.push(Rc::clone(mount.inner())),
                MountKind::Iscsi { mount } => client_fss.push(Rc::clone(mount.inner())),
            }
        }
        {
            let nfs = nfs_clients.clone();
            g.register("cache.pagecache_blocks", move || {
                nfs.iter().map(|c| c.cached_pages() as u64).sum::<u64>()
                    + client_fss
                        .iter()
                        .map(|f| f.cached_blocks() as u64)
                        .sum::<u64>()
            });
        }
        g.register("cache.dentries", move || {
            nfs_clients
                .iter()
                .map(|c| c.cached_dentry_count() as u64)
                .sum()
        });
        g
    }

    /// Arms the sampler's first wakeup in the event calendar. Runs
    /// after [`GaugeSampler::reset`] so the armed instant is the first
    /// period multiple past the settle epoch. The sampler lives on the
    /// background sentinel host: at equal-time ties every machine-owned
    /// timer (journal commit, write-back) fires before the sampler
    /// reads its gauges.
    fn arm_gauges(sim: &Rc<Sim>, g: &Rc<GaugeSampler>) {
        if let Some(at) = g.next_wake() {
            sim.schedule_daemon(
                at,
                HostId::BACKGROUND,
                Rc::downgrade(g) as std::rc::Weak<dyn simkit::Daemon>,
            );
        }
    }

    /// The server-side ext3: fresh mkfs on a cold build, a clean mount
    /// when resuming from a snapshot image.
    fn server_fs(sim: &Rc<Sim>, dev: Rc<dyn BlockDevice>, remount: bool) -> Ext3 {
        if remount {
            Ext3::mount(sim.clone(), dev, calibration::server_ext3_options()).expect("server mount")
        } else {
            Ext3::mkfs(sim.clone(), dev, calibration::server_ext3_options()).expect("server mkfs")
        }
    }

    /// The client-side ext3 (iSCSI): mkfs cold, mount on resume. The
    /// trace host pins its daemon-rooted journal spans, and the system
    /// calls of the mount over it, to the owning client's track.
    fn client_fs_init(
        sim: &Rc<Sim>,
        dev: Rc<dyn BlockDevice>,
        config: &TestbedConfig,
        remount: bool,
        host: HostId,
    ) -> Ext3 {
        let opts = ext3::Options {
            readahead_max: config.readahead_max,
            commit_interval: config.commit_interval,
            trace_host: host,
            ..calibration::client_ext3_options()
        };
        if remount {
            Ext3::mount(sim.clone(), dev, opts).expect("client mount")
        } else {
            Ext3::mkfs(sim.clone(), dev, opts).expect("client mkfs")
        }
    }

    /// Rebuilds a testbed from captured snapshot state: the same
    /// construction path as a cold build, with mounts instead of mkfs
    /// and copy-on-write forks of the captured RAID-5 images instead of
    /// blank stores.
    pub(crate) fn resume(
        topo: TopologyConfig,
        images: &[Arc<DiskImage>],
        epoch: SimTime,
        info: Arc<SetupInfo>,
    ) -> Testbed {
        Self::construct(
            topo,
            Some(Resume {
                images: images.to_vec(),
                epoch,
                info,
            }),
        )
    }

    /// Quiesces this testbed and extracts the parts a
    /// [`Snapshot`](crate::snapshot::Snapshot) needs: deferred
    /// write-back landed, caches dropped (the cold-cache protocol),
    /// file systems cleanly unmounted, each server's RAID-5 store
    /// exported as a shared image.
    pub(crate) fn capture_parts(self) -> CapturedParts {
        self.settle();
        self.cold_caches();
        // NFS: one server file system per shard, however many clients
        // mount it — unmount each exactly once. iSCSI: one per client.
        let mut done = vec![false; self.server_cpus.len()];
        for (host, &port) in self.clients.iter().zip(&self.ports) {
            match &host.kind {
                MountKind::Nfs { mount } => {
                    if !std::mem::replace(&mut done[port as usize], true) {
                        let server = mount.inner().server();
                        server.fs().unmount().expect("server unmount");
                    }
                }
                MountKind::Iscsi { mount } => mount.inner().unmount().expect("client unmount"),
            }
        }
        let epoch = self.sim.now();
        let counters = self.sim.counters().to_vec();
        let images = self.stores.iter().map(|s| Arc::new(s.image())).collect();
        let clients = self.clients.len();
        let servers = self.server_cpus.len();
        CapturedParts {
            topo: TopologyConfig {
                base: self.config,
                clients,
                servers,
            },
            images,
            epoch,
            counters,
        }
    }

    /// NFS client configuration for one host of the topology. Under
    /// the modeled TCP transport the mount opens one flow per
    /// link-level connection (nconnect); the pipe model reports 1,
    /// leaving the paper-era single-connection mount untouched.
    fn nfs_config(config: &TestbedConfig, version: Version, client_id: u32) -> NfsConfig {
        NfsConfig {
            version,
            metadata_timeout: config.nfs_metadata_timeout,
            max_dirty_pages: config.nfs_max_dirty_pages,
            enhancements: config.enhancements,
            client_id,
            nconnect: config.link.transport.connections(),
        }
    }

    /// iSCSI session parameters for the configured link: under the TCP
    /// transport model MC/S opens one connection per modeled flow, so
    /// the session's connection count follows the link's.
    fn session_params(config: &TestbedConfig) -> SessionParams {
        SessionParams {
            connections: config.link.transport.connections(),
        }
    }

    /// Convenience: build the default testbed for a protocol.
    pub fn with_protocol(protocol: Protocol) -> Testbed {
        Testbed::build(TestbedConfig::new(protocol))
    }

    /// Convenience: the default testbed for a protocol with an
    /// explicit RNG seed (parallel sweep cells pass their derived
    /// per-cell seed here).
    pub fn with_protocol_seeded(protocol: Protocol, seed: u64) -> Testbed {
        let mut cfg = TestbedConfig::new(protocol);
        cfg.seed = seed;
        Testbed::build(cfg)
    }

    /// The workload-facing file system (client 0's in a multi-client
    /// topology).
    pub fn fs(&self) -> &dyn FileSystem {
        self.clients[0].kind.fs()
    }

    /// Client `i`'s file system.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn client_fs(&self, i: usize) -> &dyn FileSystem {
        self.clients[i].kind.fs()
    }

    /// Number of client hosts in the topology.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Host name of client `i` (`c<i>`): the prefix of its per-host
    /// counters (`net.<host>.<label>.*`) in multi-client topologies.
    pub(crate) fn host_name(&self, i: usize) -> &str {
        &self.clients[i].name
    }

    /// The simulation context.
    pub fn sim(&self) -> &Rc<Sim> {
        &self.sim
    }

    /// The virtual-clock gauge sampler (link/disk utilization, cache
    /// occupancy); its summaries fold into reports on absorb.
    pub(crate) fn gauges(&self) -> &Rc<GaugeSampler> {
        &self.gauges
    }

    /// Marks the first `n` clients as actively contending for the
    /// server link(s): each edge is shared among those of them attached
    /// to it, and an edge none of them uses is left whole.
    pub fn set_active_clients(&self, n: u32) {
        let mut per_port = vec![0u32; self.server_cpus.len()];
        for &port in self.ports.iter().take(n as usize) {
            per_port[port as usize] += 1;
        }
        for (j, &k) in per_port.iter().enumerate() {
            self.fabric.set_port_active(j, k);
        }
    }

    /// The protocol under test.
    pub(crate) fn protocol(&self) -> Protocol {
        self.config.protocol
    }

    /// Setup-phase provenance, present when this testbed was forked
    /// from a [`Snapshot`](crate::snapshot::Snapshot): what the setup
    /// cost in virtual time and messages before the fork's books
    /// opened.
    pub(crate) fn setup_info(&self) -> Option<&Arc<SetupInfo>> {
        self.setup.as_ref()
    }

    /// Blocks this testbed has written to its backing stores since
    /// construction. For a snapshot fork, how far it has diverged from
    /// the shared images (its private copy-on-write footprint).
    pub fn diverged_blocks(&self) -> usize {
        self.stores.iter().map(|s| s.diverged_blocks()).sum()
    }

    /// Client CPU account (Table 10); client 0's in a multi-client
    /// topology.
    pub(crate) fn client_cpu(&self) -> &Rc<CpuAccount> {
        &self.clients[0].cpu
    }

    /// Client `i`'s CPU account.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn client_cpu_at(&self, i: usize) -> &Rc<CpuAccount> {
        &self.clients[i].cpu
    }

    /// Server CPU account (Table 9); shard 0's in a sharded topology.
    pub fn server_cpu(&self) -> &Rc<CpuAccount> {
        &self.server_cpus[0]
    }

    /// Number of server shards (1 in the paper's topologies).
    pub fn server_count(&self) -> usize {
        self.server_cpus.len()
    }

    /// Server shard `j`'s CPU account.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub(crate) fn server_cpu_at(&self, j: usize) -> &Rc<CpuAccount> {
        &self.server_cpus[j]
    }

    /// Fabric port (= server shard) client `i` is attached to.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn client_port(&self, i: usize) -> u32 {
        self.ports[i]
    }

    /// Total protocol transactions so far (the paper's "messages").
    pub fn messages(&self) -> u64 {
        self.sim.counters().get(self.config.protocol.txn_counter())
    }

    /// Total bytes on the wire so far.
    pub fn bytes(&self) -> Bytes {
        Bytes::new(self.sim.counters().get("net.total.bytes"))
    }

    /// Empties every client-side cache — the paper's cold-cache
    /// protocol ("unmounting and remounting the file system at the
    /// client and restarting the NFS server or the iSCSI server").
    /// The mount traffic itself is excluded by snapshotting counters
    /// *after* this call.
    pub fn cold_caches(&self) {
        for host in &self.clients {
            match &host.kind {
                MountKind::Nfs { mount } => {
                    mount.inner().drop_caches();
                    // "Restarting the NFS server": its caches go too.
                    mount.inner().server().drop_caches();
                }
                MountKind::Iscsi { mount } => {
                    let _ = mount.inner().sync();
                    let _ = mount.inner().drop_caches();
                }
            }
        }
    }

    /// Lets background daemons run long enough that deferred journal
    /// commits and write-back land in the message counts.
    pub fn settle(&self) {
        // §7: queued delegated updates flush with the same cadence as
        // the journal.
        for host in &self.clients {
            if let MountKind::Nfs { mount } = &host.kind {
                mount.inner().flush_delegated_updates();
            }
        }
        self.sim.advance(calibration::settle_time());
    }

    /// Advances virtual time (workload think time etc.).
    pub fn advance(&self, d: SimDuration) {
        self.sim.advance(d);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Attaches an Ethereal-style packet monitor to every client's
    /// link and returns it.
    pub fn attach_sniffer(&self) -> Rc<net::Sniffer> {
        let s = net::Sniffer::new();
        self.fabric.attach_sniffer(Some(s.clone()));
        s
    }
}
