//! The testbed builder: N clients, one server, a Gigabit LAN, and a
//! RAID-5 array — wired either as NFS (file system at the server) or
//! as iSCSI (file system at the client over a remote disk), exactly as
//! in the paper's Figure 2.
//!
//! The default [`Testbed::build`] is the paper's single-client pair.
//! [`Testbed::build_topology`] generalizes it: N client hosts on a
//! [`net::Fabric`] share the server link (and contend for its
//! bandwidth), NFS clients share one server file system with per-client
//! RPC channels and CPU accounts, and iSCSI initiators run private
//! sessions against disjoint LUN partitions of the same RAID volume —
//! the sharing contrast at the heart of the paper's discussion.
//! `clients: 1` is the degenerate topology and stays byte-identical to
//! the point-to-point build.

use crate::calibration;
use crate::snapshot::SetupInfo;
use blockdev::{
    BlockDevice, BlockNo, DiskImage, DiskModel, IoCost, MemDisk, Partition, Raid5, Raid5Geometry,
    Stripe,
};
use cpu::{CostModel, CpuAccount};
use ext3::Ext3;
use iscsi::{Initiator, SessionParams, Target};
use net::{Fabric, LinkParams, Network};
use nfs::{Enhancements, NfsClient, NfsConfig, NfsServer, Version};
use rpc::{RpcClient, RpcConfig};
use simkit::units::{Bps, Bytes};
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
    pub fn txn_counter(self) -> &'static str {
        match self {
            Protocol::Iscsi => "proto.iscsi.txns",
            _ => "proto.nfs.txns",
        }
    }

    /// NFS version, when applicable.
    pub fn nfs_version(self) -> Option<Version> {
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
        // processing as sustained background load across the flush
        // interval.
        self.cpu.charge_spread_tagged(
            self.sim.now(),
            cpu,
            simkit::SimDuration::from_secs(5),
            "iscsi.target",
        );
        Ok(self.inner.write(start, data)?.then(IoCost::new(cpu)))
    }
    fn flush(&self) -> blockdev::Result<IoCost> {
        self.inner.flush()
    }
}

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
    /// Override for the client ext3 read-ahead window (blocks).
    pub readahead_max: Option<u32>,
    /// Override for the ext3 journal commit interval (iSCSI side) —
    /// the update-aggregation window ablation.
    pub commit_interval: Option<SimDuration>,
    /// Override for the NFS client's dirty-page limit — the
    /// pseudo-synchronous-write ablation.
    pub nfs_max_dirty_pages: Option<usize>,
    /// Override for the NFS meta-data cache timeout (Linux default
    /// 3 s) — the consistency-check-traffic ablation.
    pub nfs_metadata_timeout: Option<SimDuration>,
    /// CPU cost model for both machines.
    pub cost: CostModel,
}

impl TestbedConfig {
    /// The paper's default setup for the given protocol.
    pub fn new(protocol: Protocol) -> TestbedConfig {
        TestbedConfig {
            protocol,
            seed: 42,
            link: LinkParams::gigabit_lan(),
            volume_blocks: calibration::VOLUME_BLOCKS,
            enhancements: Enhancements::default(),
            readahead_max: None,
            commit_interval: None,
            nfs_max_dirty_pages: None,
            nfs_metadata_timeout: None,
            cost: CostModel::p3_933(),
        }
    }
}

/// How clients of a sharded topology are assigned to server shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardPolicy {
    /// Static mount sharding: client `i` mounts server `i % M` (its
    /// local identity on that shard is `i / M`). The only policy a
    /// per-shard snapshot can be replicated under.
    Static,
    /// Hash sharding: client `i` mounts server `fnv1a(host name) % M`.
    /// Cold-build only (shard populations are unequal, so no snapshot
    /// replication).
    HashByFile,
    /// iSCSI only: each client's LUN is a RAID-0 [`Stripe`] over one
    /// slice per server volume, so every request spreads its disk and
    /// target-CPU load across all M shards; the session itself rides
    /// the client's primary port. Cold-build only.
    StripedLuns,
}

impl ShardPolicy {
    /// Shard index for client `i` (named `name`) among `servers`.
    fn assign(self, i: usize, name: &str, servers: usize) -> u32 {
        match self {
            // Striped clients still need a primary port for their
            // session; round-robin keeps the edges balanced.
            ShardPolicy::Static | ShardPolicy::StripedLuns => (i % servers) as u32,
            ShardPolicy::HashByFile => {
                let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
                for &b in name.as_bytes() {
                    hash ^= u64::from(b);
                    hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
                }
                (hash % servers as u64) as u32
            }
        }
    }
}

/// A multi-client topology: the shared single-pair configuration plus
/// how many client hosts to instantiate.
///
/// With `clients: 1` the build is byte-identical to
/// [`Testbed::build`]; with more, hosts `c0..c<N-1>` are placed on a
/// [`net::Fabric`] (per-host counters under `net.<host>.<label>.*`,
/// shared server-link bandwidth) and each gets its own CPU account and
/// mount — N `NfsClient`s against one `NfsServer`, or N iSCSI sessions
/// against one `Target` with a private LUN partition per session.
///
/// With `servers: M > 1` the topology is *sharded*: M independent
/// server machines (each with its own RAID array, CPU account, and
/// file system or iSCSI target) sit behind a two-level fabric — a
/// private edge link per server, all capped by a shared core switch —
/// and clients are distributed across them per [`ShardPolicy`].
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// The per-pair configuration shared by every client.
    pub base: TestbedConfig,
    /// Number of client hosts.
    pub clients: usize,
    /// Number of server shards (default 1: the paper's single server).
    pub servers: usize,
    /// Client→shard assignment (default [`ShardPolicy::Static`]).
    pub policy: ShardPolicy,
    /// Core-switch bandwidth capping the sum of the server edges.
    /// `None` (default) sizes the core at `servers ×` the edge rate —
    /// non-binding, so a sharded topology scales until edges saturate.
    pub core_bandwidth_bps: Option<Bps>,
}

impl TopologyConfig {
    /// The paper's defaults for `protocol` with `clients` hosts.
    pub fn new(protocol: Protocol) -> TopologyConfig {
        TopologyConfig {
            base: TestbedConfig::new(protocol),
            clients: 1,
            servers: 1,
            policy: ShardPolicy::Static,
            core_bandwidth_bps: None,
        }
    }

    /// Wraps an existing per-pair configuration (single client/server).
    pub fn from_base(base: TestbedConfig) -> TopologyConfig {
        TopologyConfig {
            base,
            clients: 1,
            servers: 1,
            policy: ShardPolicy::Static,
            core_bandwidth_bps: None,
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

    /// Sets the client→shard assignment policy.
    #[must_use]
    pub fn with_policy(mut self, policy: ShardPolicy) -> TopologyConfig {
        self.policy = policy;
        self
    }

    /// Caps the core switch at `bps` (see `core_bandwidth_bps`).
    #[must_use]
    pub fn with_core_bandwidth(mut self, bps: Bps) -> TopologyConfig {
        self.core_bandwidth_bps = Some(bps);
        self
    }
}

/// One client host of the topology: its name, CPU account, and mount.
struct ClientHost {
    name: String,
    cpu: Rc<CpuAccount>,
    kind: MountKind,
}

/// A built testbed: the workload-facing [`FileSystem`] plus the
/// instrumentation handles every experiment reads.
pub struct Testbed {
    sim: Rc<Sim>,
    /// Client 0's link endpoint (the whole link in the single-client
    /// topology).
    network: Rc<Network>,
    /// The multi-host fabric, present when `clients > 1`.
    fabric: Option<Rc<Fabric>>,
    config: TestbedConfig,
    clients: Vec<ClientHost>,
    /// One CPU account per server shard (exactly one in the paper's
    /// single-server topologies).
    server_cpus: Vec<Rc<CpuAccount>>,
    /// Shard assignment of this topology (Static in unsharded builds).
    policy: ShardPolicy,
    /// Core-switch override the topology was built with.
    core_bandwidth_bps: Option<Bps>,
    /// Fabric port (= server shard) each client is attached to; empty
    /// in the single-client build.
    client_ports: Vec<u32>,
    /// Backing stores of the RAID members (shard-major: server 0's
    /// members first), kept so a snapshot capture can export them as
    /// shared images.
    members: Vec<Rc<MemDisk>>,
    /// Virtual-clock gauge sampler (link/disk utilization, cache
    /// occupancy); registered as a daemon, reset after construction.
    gauges: Rc<GaugeSampler>,
    /// Setup-phase provenance when resumed from a snapshot.
    setup: Option<SetupInfo>,
}

/// Snapshot state a resumed construction starts from.
struct Resume {
    images: Vec<Arc<DiskImage>>,
    epoch: SimTime,
    info: SetupInfo,
}

/// What a snapshot capture extracts from a quiesced testbed.
pub(crate) struct CapturedParts {
    pub topo: TopologyConfig,
    /// Shard-major member images (server 0's RAID members first).
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

impl Testbed {
    /// Builds a testbed for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the underlying mkfs fails (volume too small).
    pub fn build(config: TestbedConfig) -> Testbed {
        Self::construct_single(config, None)
    }

    /// The single-client construction path, cold or resumed: the only
    /// difference a snapshot makes is mounts instead of mkfs, disks
    /// forked from images instead of blank ones, and the clock
    /// starting at the captured epoch.
    fn construct_single(config: TestbedConfig, resume: Option<Resume>) -> Testbed {
        let sim = Sim::new(config.seed);
        if let Some(r) = &resume {
            // Restore the captured epoch before any component exists:
            // daemons registered below align their cadence to it
            // exactly as the captured testbed's did.
            sim.advance_to(r.epoch);
        }
        let network = Network::new(sim.clone(), config.link);
        let client_cpu = Rc::new(CpuAccount::new());
        let server_cpu = Rc::new(CpuAccount::new());
        client_cpu.instrument(sim.clone(), HostId::client(0));
        server_cpu.instrument(sim.clone(), HostId::SERVER);

        let remount = resume.is_some();
        let (raid, members, disks) =
            Self::build_raid(&sim, &config, resume.as_ref().map(|r| r.images.as_slice()));

        let kind = match config.protocol.nfs_version() {
            Some(version) => {
                let fs = Self::server_fs(&sim, raid, remount);
                let server = Rc::new(NfsServer::new(fs, server_cpu.clone(), config.cost));
                let cfg = Self::nfs_config(&config, version, 0);
                let rpcc = RpcClient::new(
                    network.channel_flows("nfs", version.transport(), Some(cfg.nconnect)),
                    RpcConfig::default(),
                );
                let client = Rc::new(NfsClient::new(
                    sim.clone(),
                    rpcc,
                    server,
                    cfg,
                    client_cpu.clone(),
                    config.cost,
                ));
                // The mount handshake (mountd for v2/v3, PUTROOTFH for
                // v4) happens during setup, before the books open.
                client.mount();
                MountKind::Nfs {
                    mount: NfsMount::new(client),
                }
            }
            None => {
                let charged = Rc::new(CpuChargedDevice {
                    inner: raid,
                    sim: sim.clone(),
                    cpu: server_cpu.clone(),
                    cost: config.cost,
                });
                let target = Rc::new(Target::new(charged));
                let initiator =
                    Initiator::new(network.channel("iscsi", net::Transport::Tcp), target);
                let disk = Rc::new(
                    initiator
                        .login(Self::session_params(&config))
                        .expect("login"),
                );
                let fs = Rc::new(Self::client_fs_init(
                    &sim,
                    disk,
                    &config,
                    remount,
                    HostId::client(0),
                ));
                MountKind::Iscsi {
                    mount: LocalMount::new(fs, client_cpu.clone(), config.cost),
                }
            }
        };

        let clients = vec![ClientHost {
            name: "c0".to_string(),
            cpu: client_cpu,
            kind,
        }];
        let gauges = Self::register_gauges(&sim, &config.link, disks, &clients);

        // Formatting/mounting and login traffic is setup, not
        // workload: start the experiment's books clean.
        sim.counters().reset();
        sim.metrics().reset();
        sim.tracer().clear();
        gauges.reset(sim.now());
        Self::arm_gauges(&sim, &gauges);
        if crate::attribution::attribution_enabled() {
            sim.tracer().set_enabled(true);
        }
        Testbed {
            sim,
            network,
            fabric: None,
            config,
            clients,
            server_cpus: vec![server_cpu],
            policy: ShardPolicy::Static,
            core_bandwidth_bps: None,
            client_ports: Vec::new(),
            members,
            gauges,
            setup: resume.map(|r| r.info),
        }
    }

    /// Builds a multi-client topology. `clients: 1` delegates to
    /// [`Testbed::build`] and is byte-identical to it; larger counts
    /// place hosts `c0..c<N-1>` on a [`net::Fabric`].
    ///
    /// # Panics
    ///
    /// Panics if `clients` is zero or the underlying mkfs fails (for
    /// iSCSI, each client's LUN partition must still hold a file
    /// system: keep `volume_blocks / clients` comfortably above
    /// [`ext3::min_volume_blocks`]).
    pub fn build_topology(topo: TopologyConfig) -> Testbed {
        Self::construct_topology(topo, None)
    }

    fn construct_topology(topo: TopologyConfig, resume: Option<Resume>) -> Testbed {
        assert!(topo.clients >= 1, "a topology needs at least one client");
        assert!(topo.servers >= 1, "a topology needs at least one server");
        if topo.servers > 1 {
            return Testbed::construct_sharded(topo, resume);
        }
        if topo.clients == 1 {
            return Testbed::construct_single(topo.base, resume);
        }
        let config = topo.base;
        let n = topo.clients;
        let sim = Sim::new(config.seed);
        if let Some(r) = &resume {
            sim.advance_to(r.epoch);
        }
        let fabric = Fabric::new(sim.clone(), config.link);
        let server_cpu = Rc::new(CpuAccount::new());
        server_cpu.instrument(sim.clone(), HostId::SERVER);

        let remount = resume.is_some();
        let (raid, members, disks) =
            Self::build_raid(&sim, &config, resume.as_ref().map(|r| r.images.as_slice()));

        let clients: Vec<ClientHost> = match config.protocol.nfs_version() {
            Some(version) => {
                // One server file system, N clients with private RPC
                // channels and CPU accounts. Cache consistency between
                // them flows through the shared server mtimes, exactly
                // as on a real shared NFS export.
                let fs = Self::server_fs(&sim, raid, remount);
                let server = Rc::new(NfsServer::new(fs, server_cpu.clone(), config.cost));
                (0..n)
                    .map(|i| {
                        let name = format!("c{i}");
                        let cpu = Rc::new(CpuAccount::new());
                        cpu.instrument(sim.clone(), HostId::client(i as u32));
                        let cfg = Self::nfs_config(&config, version, i as u32);
                        let rpcc = RpcClient::new(
                            fabric.host(&name).channel_flows(
                                "nfs",
                                version.transport(),
                                Some(cfg.nconnect),
                            ),
                            RpcConfig::default(),
                        );
                        let client = Rc::new(NfsClient::new(
                            sim.clone(),
                            rpcc,
                            Rc::clone(&server),
                            cfg,
                            cpu.clone(),
                            config.cost,
                        ));
                        client.mount();
                        ClientHost {
                            name,
                            cpu,
                            kind: MountKind::Nfs {
                                mount: NfsMount::new(client),
                            },
                        }
                    })
                    .collect()
            }
            None => {
                // One target over the shared (CPU-charged) RAID volume,
                // one private LUN partition and session per initiator —
                // iSCSI's "private volume" sharing model.
                let charged: Rc<dyn BlockDevice> = Rc::new(CpuChargedDevice {
                    inner: raid,
                    sim: sim.clone(),
                    cpu: server_cpu.clone(),
                    cost: config.cost,
                });
                let lun_blocks = config.volume_blocks / n as u64;
                let target = Rc::new(Target::new(Rc::new(Partition::new(
                    "lun0",
                    Rc::clone(&charged),
                    0,
                    lun_blocks,
                ))));
                for i in 1..n {
                    target.add_lun(Rc::new(Partition::new(
                        format!("lun{i}"),
                        Rc::clone(&charged),
                        i as u64 * lun_blocks,
                        lun_blocks,
                    )));
                }
                (0..n)
                    .map(|i| {
                        let name = format!("c{i}");
                        let cpu = Rc::new(CpuAccount::new());
                        cpu.instrument(sim.clone(), HostId::client(i as u32));
                        let initiator = Initiator::new(
                            fabric.host(&name).channel("iscsi", net::Transport::Tcp),
                            Rc::clone(&target),
                        );
                        let disk = Rc::new(
                            initiator
                                .login_lun(Self::session_params(&config), i as u32)
                                .expect("login"),
                        );
                        let fs = Rc::new(Self::client_fs_init(
                            &sim,
                            disk,
                            &config,
                            remount,
                            HostId::client(i as u32),
                        ));
                        let mount = LocalMount::new(fs, cpu.clone(), config.cost);
                        mount.set_trace_host(HostId::client(i as u32));
                        ClientHost {
                            name,
                            cpu,
                            kind: MountKind::Iscsi { mount },
                        }
                    })
                    .collect()
            }
        };

        let network = fabric.host("c0");
        let gauges = Self::register_gauges(&sim, &config.link, disks, &clients);
        sim.counters().reset();
        sim.metrics().reset();
        sim.tracer().clear();
        gauges.reset(sim.now());
        Self::arm_gauges(&sim, &gauges);
        if crate::attribution::attribution_enabled() {
            sim.tracer().set_enabled(true);
        }
        Testbed {
            sim,
            network,
            fabric: Some(fabric),
            config,
            clients,
            server_cpus: vec![server_cpu],
            policy: ShardPolicy::Static,
            core_bandwidth_bps: None,
            client_ports: vec![0; n],
            members,
            gauges,
            setup: resume.map(|r| r.info),
        }
    }

    /// The sharded construction path: M server machines, each with its
    /// own RAID array, CPU account ([`HostId::server`]), and protocol
    /// endpoint, behind a two-level fabric (a private edge per server
    /// capped by a shared core switch). Clients are distributed per
    /// the topology's [`ShardPolicy`].
    fn construct_sharded(topo: TopologyConfig, resume: Option<Resume>) -> Testbed {
        let config = topo.base;
        let n = topo.clients;
        let m = topo.servers;
        assert!(n >= m, "need at least one client per server shard");
        let sim = Sim::new(config.seed);
        if let Some(r) = &resume {
            sim.advance_to(r.epoch);
            assert_eq!(
                r.images.len(),
                m * calibration::RAID_MEMBERS,
                "resume images must cover every shard"
            );
        }
        let core_bps = topo
            .core_bandwidth_bps
            .unwrap_or_else(|| config.link.bandwidth_bps.saturating_mul(m as u64));
        let fabric = Fabric::with_core(sim.clone(), config.link, core_bps);
        for _ in 0..m {
            fabric.add_port();
        }

        let remount = resume.is_some();
        let mut server_cpus: Vec<Rc<CpuAccount>> = Vec::with_capacity(m);
        let mut members: Vec<Rc<MemDisk>> = Vec::new();
        let mut raids: Vec<Rc<dyn BlockDevice>> = Vec::with_capacity(m);
        let mut disk_groups: Vec<Vec<Rc<DiskModel<Rc<MemDisk>>>>> = Vec::with_capacity(m);
        for j in 0..m {
            let cpu = Rc::new(CpuAccount::new());
            cpu.instrument(sim.clone(), HostId::server(j as u32));
            let rm = calibration::RAID_MEMBERS;
            let shard_images = resume.as_ref().map(|r| &r.images[j * rm..(j + 1) * rm]);
            let (raid, stores, disks) = Self::build_raid(&sim, &config, shard_images);
            server_cpus.push(cpu);
            members.extend(stores);
            raids.push(raid);
            disk_groups.push(disks);
        }

        // Shard assignment, plus each client's local index on its
        // shard (its LUN slot / file-pool identity there).
        let ports: Vec<u32> = (0..n)
            .map(|i| topo.policy.assign(i, &format!("c{i}"), m))
            .collect();
        let mut shard_clients = vec![0u64; m];
        let locals: Vec<u64> = ports
            .iter()
            .map(|&j| {
                let l = shard_clients[j as usize];
                shard_clients[j as usize] += 1;
                l
            })
            .collect();
        assert!(
            shard_clients.iter().all(|&k| k > 0),
            "policy {:?} left a server shard with no clients",
            topo.policy
        );

        let clients: Vec<ClientHost> = match config.protocol.nfs_version() {
            Some(version) => {
                // One independent file system and NFS server per
                // shard; cache consistency flows only within a shard,
                // exactly as on statically partitioned mounts.
                let servers: Vec<Rc<NfsServer>> = raids
                    .iter()
                    .zip(&server_cpus)
                    .map(|(raid, cpu)| {
                        let fs = Self::server_fs(&sim, Rc::clone(raid), remount);
                        Rc::new(NfsServer::new(fs, Rc::clone(cpu), config.cost))
                    })
                    .collect();
                (0..n)
                    .map(|i| {
                        let name = format!("c{i}");
                        let port = ports[i];
                        let cpu = Rc::new(CpuAccount::new());
                        cpu.instrument(sim.clone(), HostId::client(i as u32));
                        let cfg = Self::nfs_config(&config, version, i as u32);
                        let rpcc = RpcClient::new(
                            fabric.host_on(&name, port as usize).channel_flows(
                                "nfs",
                                version.transport(),
                                Some(cfg.nconnect),
                            ),
                            RpcConfig::default(),
                        );
                        let client = Rc::new(NfsClient::new(
                            sim.clone(),
                            rpcc,
                            Rc::clone(&servers[port as usize]),
                            cfg,
                            cpu.clone(),
                            config.cost,
                        ));
                        client.mount();
                        ClientHost {
                            name,
                            cpu,
                            kind: MountKind::Nfs {
                                mount: NfsMount::new(client),
                            },
                        }
                    })
                    .collect()
            }
            None => {
                let charged: Vec<Rc<dyn BlockDevice>> = raids
                    .iter()
                    .zip(&server_cpus)
                    .map(|(raid, cpu)| {
                        Rc::new(CpuChargedDevice {
                            inner: Rc::clone(raid),
                            sim: sim.clone(),
                            cpu: Rc::clone(cpu),
                            cost: config.cost,
                        }) as Rc<dyn BlockDevice>
                    })
                    .collect();
                // Per-shard targets: server j's volume is split among
                // the clients assigned to it, mirroring the layout a
                // single-shard capture produces (so a replicated fork
                // mounts the same partitions it captured).
                let mut targets: Vec<Option<Rc<Target>>> = vec![None; m];
                let mut luns: Vec<Rc<dyn BlockDevice>> = Vec::with_capacity(n);
                for i in 0..n {
                    let j = ports[i] as usize;
                    let lun: Rc<dyn BlockDevice> = match topo.policy {
                        ShardPolicy::StripedLuns => {
                            // One slice per server volume, striped: disk
                            // and target-CPU load spread across shards.
                            let slice = config.volume_blocks / n as u64;
                            let parts: Vec<Rc<dyn BlockDevice>> = (0..m)
                                .map(|s| {
                                    Rc::new(Partition::new(
                                        format!("c{i}.s{s}"),
                                        Rc::clone(&charged[s]),
                                        i as u64 * slice,
                                        slice,
                                    )) as Rc<dyn BlockDevice>
                                })
                                .collect();
                            Rc::new(Stripe::new(&format!("stripe{i}"), parts))
                        }
                        _ => {
                            let lun_blocks = config.volume_blocks / shard_clients[j];
                            Rc::new(Partition::new(
                                format!("lun{}", locals[i]),
                                Rc::clone(&charged[j]),
                                locals[i] * lun_blocks,
                                lun_blocks,
                            ))
                        }
                    };
                    match &targets[j] {
                        None => targets[j] = Some(Rc::new(Target::new(Rc::clone(&lun)))),
                        Some(t) => {
                            t.add_lun(Rc::clone(&lun));
                        }
                    }
                    luns.push(lun);
                }
                (0..n)
                    .map(|i| {
                        let name = format!("c{i}");
                        let port = ports[i];
                        let cpu = Rc::new(CpuAccount::new());
                        cpu.instrument(sim.clone(), HostId::client(i as u32));
                        let target = targets[port as usize].as_ref().expect("target");
                        let initiator = Initiator::new(
                            fabric
                                .host_on(&name, port as usize)
                                .channel("iscsi", net::Transport::Tcp),
                            Rc::clone(target),
                        );
                        let disk = Rc::new(
                            initiator
                                .login_lun(Self::session_params(&config), locals[i] as u32)
                                .expect("login"),
                        );
                        let fs = Rc::new(Self::client_fs_init(
                            &sim,
                            disk,
                            &config,
                            remount,
                            HostId::client(i as u32),
                        ));
                        let mount = LocalMount::new(fs, cpu.clone(), config.cost);
                        mount.set_trace_host(HostId::client(i as u32));
                        ClientHost {
                            name,
                            cpu,
                            kind: MountKind::Iscsi { mount },
                        }
                    })
                    .collect()
            }
        };

        let network = fabric.endpoint(fabric.endpoint_id("c0"));
        let gauges = Self::register_gauges_sharded(&sim, &config.link, m, disk_groups, &clients);
        sim.counters().reset();
        sim.metrics().reset();
        sim.tracer().clear();
        gauges.reset(sim.now());
        Self::arm_gauges(&sim, &gauges);
        if crate::attribution::attribution_enabled() {
            sim.tracer().set_enabled(true);
        }
        Testbed {
            sim,
            network,
            fabric: Some(fabric),
            config,
            clients,
            server_cpus,
            policy: topo.policy,
            core_bandwidth_bps: topo.core_bandwidth_bps,
            client_ports: ports,
            members,
            gauges,
            setup: resume.map(|r| r.info),
        }
    }

    /// The server-side RAID-5 array (4+p) used by both protocols.
    /// Members start blank on a cold build, or as copy-on-write forks
    /// of the given snapshot images; the raw backing stores are
    /// returned alongside so a capture can image them later, and the
    /// timed member models so the gauge sampler can watch their busy
    /// time.
    #[allow(clippy::type_complexity)]
    fn build_raid(
        sim: &Rc<Sim>,
        config: &TestbedConfig,
        images: Option<&[Arc<DiskImage>]>,
    ) -> (
        Rc<dyn BlockDevice>,
        Vec<Rc<MemDisk>>,
        Vec<Rc<DiskModel<Rc<MemDisk>>>>,
    ) {
        let member_blocks = (config.volume_blocks / (calibration::RAID_MEMBERS as u64 - 1)) + 1024;
        let stores: Vec<Rc<MemDisk>> = (0..calibration::RAID_MEMBERS)
            .map(|i| {
                Rc::new(match images {
                    Some(imgs) => MemDisk::from_image(Arc::clone(&imgs[i])),
                    None => MemDisk::new(format!("sd{i}"), member_blocks),
                })
            })
            .collect();
        let models: Vec<Rc<DiskModel<Rc<MemDisk>>>> = stores
            .iter()
            .map(|store| {
                let m = Rc::new(DiskModel::new(
                    Rc::clone(store),
                    calibration::raid_member_params(),
                ));
                m.instrument(sim.clone());
                m
            })
            .collect();
        let members: Vec<Rc<dyn BlockDevice>> = models
            .iter()
            .map(|m| Rc::clone(m) as Rc<dyn BlockDevice>)
            .collect();
        let r5 = Raid5::new(
            "raid5",
            members,
            Raid5Geometry {
                stripe_unit: calibration::RAID_STRIPE_UNIT,
            },
        );
        r5.instrument(sim.clone());
        // The ServeRAID adapter's battery-backed write cache absorbs
        // synchronous writes (journal commits, v2 stable writes).
        let raid = Rc::new(blockdev::WriteCache::new(
            r5,
            calibration::controller_cache_hit(),
        ));
        (raid, stores, models)
    }

    /// Builds the virtual-clock gauge sampler and registers its
    /// read-only probes: link utilization against the configured base
    /// bandwidth, aggregate RAID-member busy time (100 per fully busy
    /// member, so `/100` reads as mean in-service depth), and
    /// client-cache occupancy (pagecache blocks and, for NFS, cached
    /// dentries — iSCSI keeps a stable zero row). Delta-based probes
    /// seed their baseline at registration so setup-phase traffic never
    /// leaks into the first sample; [`GaugeSampler::reset`] afterwards
    /// aligns the cadence to absolute multiples of the period.
    fn register_gauges(
        sim: &Rc<Sim>,
        link: &LinkParams,
        disks: Vec<Rc<DiskModel<Rc<MemDisk>>>>,
        clients: &[ClientHost],
    ) -> Rc<GaugeSampler> {
        let period = SimDuration::from_millis(100);
        let g = Rc::new(GaugeSampler::new(period));
        {
            let sim2 = Rc::clone(sim);
            let last = Cell::new(sim2.counters().get("net.total.bytes"));
            // Bits the link can carry per sampling period.
            let cap_bits =
                link.bandwidth_bps.get().saturating_mul(period.as_nanos()) / 1_000_000_000;
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
        {
            let last = Cell::new(disks.iter().map(|d| d.stats().busy.as_nanos()).sum::<u64>());
            let period_ns = period.as_nanos();
            g.register("disk.busy_pct", move || {
                let busy: u64 = disks.iter().map(|d| d.stats().busy.as_nanos()).sum();
                let delta = busy.saturating_sub(last.get());
                last.set(busy);
                delta.saturating_mul(100) / period_ns
            });
        }
        let mut nfs_clients: Vec<Rc<NfsClient>> = Vec::new();
        let mut client_fss: Vec<Rc<Ext3>> = Vec::new();
        for host in clients {
            match &host.kind {
                MountKind::Nfs { mount } => nfs_clients.push(Rc::clone(mount.client())),
                MountKind::Iscsi { mount } => client_fss.push(Rc::clone(mount.fs())),
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

    /// Gauges for a sharded topology: link utilization against the
    /// *aggregate* edge capacity (M edges), one `disk.s<j>.busy_pct`
    /// per server shard (M is small — the per-host zero-row rule in
    /// [`simkit::gauge`] keeps unsampled rows out of reports), plus the
    /// aggregate `disk.busy_pct` and cache gauges of the flat topology.
    fn register_gauges_sharded(
        sim: &Rc<Sim>,
        link: &LinkParams,
        servers: usize,
        disk_groups: Vec<Vec<Rc<DiskModel<Rc<MemDisk>>>>>,
        clients: &[ClientHost],
    ) -> Rc<GaugeSampler> {
        let period = SimDuration::from_millis(100);
        let g = Rc::new(GaugeSampler::new(period));
        {
            let sim2 = Rc::clone(sim);
            let last = Cell::new(sim2.counters().get("net.total.bytes"));
            let cap_bits = link
                .bandwidth_bps
                .get()
                .saturating_mul(servers as u64)
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
        let period_ns = period.as_nanos();
        for (j, disks) in disk_groups.iter().enumerate() {
            let disks = disks.clone();
            let last = Cell::new(disks.iter().map(|d| d.stats().busy.as_nanos()).sum::<u64>());
            g.register(format!("disk.s{j}.busy_pct"), move || {
                let busy: u64 = disks.iter().map(|d| d.stats().busy.as_nanos()).sum();
                let delta = busy.saturating_sub(last.get());
                last.set(busy);
                delta.saturating_mul(100) / period_ns
            });
        }
        {
            let all: Vec<Rc<DiskModel<Rc<MemDisk>>>> = disk_groups.into_iter().flatten().collect();
            let last = Cell::new(all.iter().map(|d| d.stats().busy.as_nanos()).sum::<u64>());
            g.register("disk.busy_pct", move || {
                let busy: u64 = all.iter().map(|d| d.stats().busy.as_nanos()).sum();
                let delta = busy.saturating_sub(last.get());
                last.set(busy);
                delta.saturating_mul(100) / period_ns
            });
        }
        let mut nfs_clients: Vec<Rc<NfsClient>> = Vec::new();
        let mut client_fss: Vec<Rc<Ext3>> = Vec::new();
        for host in clients {
            match &host.kind {
                MountKind::Nfs { mount } => nfs_clients.push(Rc::clone(mount.client())),
                MountKind::Iscsi { mount } => client_fss.push(Rc::clone(mount.fs())),
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
    /// trace host pins its daemon-rooted journal spans to the owning
    /// client's track.
    fn client_fs_init(
        sim: &Rc<Sim>,
        dev: Rc<dyn BlockDevice>,
        config: &TestbedConfig,
        remount: bool,
        host: HostId,
    ) -> Ext3 {
        let mut opts = Self::client_ext3_options(config);
        opts.trace_host = host;
        if remount {
            Ext3::mount(sim.clone(), dev, opts).expect("client mount")
        } else {
            Ext3::mkfs(sim.clone(), dev, opts).expect("client mkfs")
        }
    }

    /// Rebuilds a testbed from captured snapshot state: the same
    /// construction path as a cold build, with mounts instead of mkfs
    /// and copy-on-write forks of the captured member images instead
    /// of blank disks.
    pub(crate) fn resume(
        topo: TopologyConfig,
        images: &[Arc<DiskImage>],
        epoch: SimTime,
        info: SetupInfo,
    ) -> Testbed {
        Self::construct_topology(
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
    /// file systems cleanly unmounted, RAID members exported as
    /// shared images.
    pub(crate) fn capture_parts(self) -> CapturedParts {
        self.settle();
        self.cold_caches();
        match &self.clients[0].kind {
            MountKind::Nfs { .. } => {
                // One server file system per shard, however many
                // clients; unmount each exactly once.
                let mut done = vec![false; self.server_cpus.len()];
                for (i, host) in self.clients.iter().enumerate() {
                    let j = self.client_ports.get(i).copied().unwrap_or(0) as usize;
                    if done[j] {
                        continue;
                    }
                    if let MountKind::Nfs { mount } = &host.kind {
                        mount
                            .client()
                            .server()
                            .fs()
                            .unmount()
                            .expect("server unmount");
                        done[j] = true;
                    }
                }
            }
            MountKind::Iscsi { .. } => {
                for host in &self.clients {
                    if let MountKind::Iscsi { mount } = &host.kind {
                        mount.fs().unmount().expect("client unmount");
                    }
                }
            }
        }
        let epoch = self.sim.now();
        let counters = self.sim.counters().to_vec();
        let images = self.members.iter().map(|m| Arc::new(m.image())).collect();
        let clients = self.clients.len();
        let servers = self.server_cpus.len();
        CapturedParts {
            topo: TopologyConfig {
                base: self.config,
                clients,
                servers,
                policy: self.policy,
                core_bandwidth_bps: self.core_bandwidth_bps,
            },
            images,
            epoch,
            counters,
        }
    }

    /// NFS client configuration for one host of the topology.
    fn nfs_config(config: &TestbedConfig, version: Version, client_id: u32) -> NfsConfig {
        let mut cfg = NfsConfig::for_version(version);
        cfg.enhancements = config.enhancements;
        if let Some(limit) = config.nfs_max_dirty_pages {
            cfg.max_dirty_pages = limit;
        }
        if let Some(t) = config.nfs_metadata_timeout {
            cfg.timeouts.metadata = t;
        }
        cfg.client_id = client_id;
        // Under the modeled TCP transport the mount opens one flow per
        // link-level connection (nconnect); the pipe model reports 1,
        // leaving the paper-era single-connection mount untouched.
        cfg.nconnect = config.link.transport.connections();
        cfg
    }

    /// iSCSI session parameters for the configured link: under the TCP
    /// transport model MC/S opens one connection per modeled flow, so
    /// the session's connection count follows the link's.
    fn session_params(config: &TestbedConfig) -> SessionParams {
        SessionParams {
            connections: config.link.transport.connections(),
            ..SessionParams::default()
        }
    }

    /// Client-side ext3 options with the config's overrides applied.
    fn client_ext3_options(config: &TestbedConfig) -> ext3::Options {
        let mut opts = calibration::client_ext3_options();
        if let Some(ra) = config.readahead_max {
            opts.readahead_max = ra;
        }
        if let Some(ci) = config.commit_interval {
            opts.commit_interval = ci;
        }
        opts
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
    pub fn host_name(&self, i: usize) -> &str {
        &self.clients[i].name
    }

    /// The simulation context.
    pub fn sim(&self) -> &Rc<Sim> {
        &self.sim
    }

    /// The network link (client 0's endpoint; the whole link in the
    /// single-client topology) — for the Figure 6 RTT sweeps.
    pub fn network(&self) -> &Rc<Network> {
        &self.network
    }

    /// The multi-host fabric, when `clients > 1`.
    pub fn fabric(&self) -> Option<&Rc<Fabric>> {
        self.fabric.as_ref()
    }

    /// The virtual-clock gauge sampler (link/disk utilization, cache
    /// occupancy); its summaries fold into reports on absorb.
    pub fn gauges(&self) -> &Rc<GaugeSampler> {
        &self.gauges
    }

    /// Marks `n` clients as actively contending for the server link(s)
    /// (no-op on the dedicated single-client link). In a sharded
    /// topology the contenders split across the edges the way the
    /// shard policy spread the first `n` clients.
    pub fn set_active_clients(&self, n: u32) {
        if let Some(f) = &self.fabric {
            let m = self.server_cpus.len();
            if m <= 1 {
                f.set_active(n);
            } else {
                let mut per_port = vec![0u32; m];
                for i in 0..(n as usize).min(self.client_ports.len()) {
                    per_port[self.client_ports[i] as usize] += 1;
                }
                for (j, &k) in per_port.iter().enumerate() {
                    f.set_port_active(j, k);
                }
            }
        }
    }

    /// The protocol under test.
    pub fn protocol(&self) -> Protocol {
        self.config.protocol
    }

    /// Setup-phase provenance, present when this testbed was forked
    /// from a [`Snapshot`](crate::snapshot::Snapshot): what the setup
    /// cost in virtual time and messages before the fork's books
    /// opened.
    pub fn setup_info(&self) -> Option<&SetupInfo> {
        self.setup.as_ref()
    }

    /// Blocks this testbed has written to its backing stores since
    /// construction. For a snapshot fork, how far it has diverged from
    /// the shared images (its private copy-on-write footprint).
    pub fn diverged_blocks(&self) -> usize {
        self.members.iter().map(|m| m.diverged_blocks()).sum()
    }

    /// Client CPU account (Table 10); client 0's in a multi-client
    /// topology.
    pub fn client_cpu(&self) -> &Rc<CpuAccount> {
        &self.clients[0].cpu
    }

    /// Client `i`'s CPU account.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn client_cpu_at(&self, i: usize) -> &Rc<CpuAccount> {
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
    pub fn server_cpu_at(&self, j: usize) -> &Rc<CpuAccount> {
        &self.server_cpus[j]
    }

    /// Fabric port (= server shard) client `i` is attached to.
    pub fn client_port(&self, i: usize) -> u32 {
        self.client_ports.get(i).copied().unwrap_or(0)
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
                    mount.client().drop_caches();
                    // "Restarting the NFS server": its caches go too.
                    mount.client().server().drop_caches();
                }
                MountKind::Iscsi { mount } => {
                    let _ = mount.fs().sync();
                    let _ = mount.fs().drop_caches();
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
                mount.client().flush_delegated_updates();
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

    /// Reconfigures the link RTT (the NISTNet knob of §4.6) — on every
    /// host endpoint in a multi-client topology.
    pub fn set_rtt(&self, rtt: SimDuration) {
        match &self.fabric {
            Some(f) => f.set_rtt(rtt),
            None => self.network.set_rtt(rtt),
        }
    }

    /// Attaches an Ethereal-style packet monitor to the link (every
    /// host endpoint in a multi-client topology) and returns it;
    /// detach with [`net::Network::attach_sniffer`].
    pub fn attach_sniffer(&self) -> Rc<net::Sniffer> {
        let s = net::Sniffer::new();
        match &self.fabric {
            Some(f) => f.attach_sniffer(Some(s.clone())),
            None => self.network.attach_sniffer(Some(s.clone())),
        }
        s
    }
}
