//! The pinned surface: every product item the benchmark touches, and
//! nothing else in this package names a product crate.
//!
//! Whatever is re-exported or called here is frozen for every later
//! non-benchmark PR: a change that must remove or re-sign one of these
//! keeps a thin wrapper with the old signature until a `benchmark`
//! issue retargets this file (see README, "The pinned surface").
//!
//! Deliberately absent: the `experiments::*_report*` families,
//! `net::Network` by name (channels come from a one-host `Fabric`),
//! `core::stepcore`, and the process-wide `set_*` switches — ROADMAP
//! item 2 deletes them.

use crate::workloads::Bed;

// -- the system-call seam and the two stacks under it -----------------
pub use blockdev::{
    BlockDevice, BlockError, BlockNo, DiskModel, IoCost, MemDisk, Raid5, Raid5Geometry, WriteCache,
    BLOCK_SIZE,
};
pub use cpu::{CostModel, CpuAccount};
pub use ext3::{Attr, Ext3, FsError, FsResult, StatFs};
pub use ipstorage_core::calibration;
pub use iscsi::{Initiator, SessionParams, Target};
pub use net::{Fabric, LinkParams, Transport, TransportModel};
pub use nfs::{NfsClient, NfsConfig, NfsServer, Version};
pub use rpc::{RpcClient, RpcConfig};
pub use vfs::{Fd, FileSystem, LocalMount, NfsMount};

// -- the product's own testbed, its sharded runner, its reports -------
pub use ipstorage_core::experiments::frontier::{frontier_run_cached, FrontierRun};
pub use ipstorage_core::{
    Protocol, ReportBuilder, SetupKey, Snapshot, SnapshotCache, Testbed, TestbedConfig,
    TopologyConfig,
};

// -- engine pieces the single-layer drivers loop over -----------------
pub use simkit::sweep::run_indexed;
pub use simkit::units::Bytes;
pub use simkit::{EventQueue, EventQueueStats, HostId, Sim, SimDuration, SimTime};
pub use workloads::{PostmarkConfig, PostmarkSession};

/// The `tables` CLI: the flags and selection names `sweep_tables` runs.
pub const TABLES_BIN: &str = "tables";
pub const TABLES_FLAGS: [&str; 2] = ["--quick", "--json"];
pub const TABLES_JOBS_FLAG: &str = "--jobs";
pub const TABLES_ATTRIBUTION_FLAG: &str = "--attribution";
/// In the order the binary prints them, so per-selection outputs
/// concatenate to the whole run's.
pub const TABLES_NAMES: [&str; 16] = [
    "table2",
    "table3",
    "figure3",
    "figure4",
    "figure5",
    "table4",
    "figure6",
    "table5",
    "table6",
    "table7",
    "table8",
    "scale",
    "section7",
    "tcp",
    "frontier",
    "ablations",
];

/// `Testbed::build` with the benchmark's seed: the product's own
/// single-client stack for `protocol`.
pub fn build_testbed(protocol: Protocol, seed: u64) -> Testbed {
    let mut cfg = TestbedConfig::new(protocol);
    cfg.seed = seed;
    Testbed::build(cfg)
}

/// The 1 000-client × 4-shard NFSv3 topology of `fanout_sharded`.
pub fn build_fanout_topology(seed: u64) -> Testbed {
    let mut topo = TopologyConfig::new(Protocol::NfsV3)
        .with_clients(1000)
        .with_servers(4);
    topo.base.seed = seed;
    Testbed::build_topology(topo)
}

impl Bed for Testbed {
    fn fs(&self) -> &dyn FileSystem {
        Testbed::fs(self)
    }
    fn settle(&self) {
        Testbed::settle(self);
    }
    fn cold_caches(&self) {
        Testbed::cold_caches(self);
    }
    fn now_ns(&self) -> u64 {
        self.now().as_nanos()
    }
    fn messages(&self) -> u64 {
        Testbed::messages(self)
    }
    fn wire_bytes(&self) -> u64 {
        self.bytes().get()
    }
}

/// One codec entry point per wire crate: encode then decode one
/// representative message, returning a byte so the work cannot be
/// optimised away.
pub mod codec {
    pub fn rpc_wire(xid: u32) -> u32 {
        let call = rpc::wire::CallHeader {
            xid,
            prog: rpc::wire::NFS_PROGRAM,
            vers: 3,
            proc_num: 3,
            auth: rpc::wire::AuthFlavor::Unix,
        };
        let (back, _) = rpc::wire::CallHeader::decode(&call.encode()).expect("own encoding");
        back.xid
    }

    pub fn nfs_xdr(fh: u32) -> u32 {
        let args = nfs::xdr::encode_lookup_args(nfs::Fh(fh), "pm12345");
        let (back, _) = nfs::xdr::decode_lookup_args(&args).expect("own encoding");
        back.0
    }

    pub fn iscsi_pdu(tag: u32) -> u32 {
        let header = iscsi::BasicHeader {
            opcode: iscsi::Opcode::ScsiCommand,
            final_bit: true,
            data_segment_len: 4096,
            task_tag: tag,
            sequence: tag,
        };
        iscsi::BasicHeader::decode(&header.encode())
            .expect("own encoding")
            .task_tag
    }

    pub fn scsi_cdb(lba: u32) -> u32 {
        let cdb = scsi::Cdb::Read10 { lba, blocks: 8 };
        match scsi::Cdb::decode(&cdb.encode()).expect("own encoding") {
            scsi::Cdb::Read10 { lba, .. } => lba,
            other => panic!("decoded {other:?}"),
        }
    }
}

/// Input of the `traces` driver: `events` synthetic trace records.
pub fn traces_generate(events: usize, seed: u64) -> Vec<traces::TraceEvent> {
    traces::generate(traces::TraceConfig {
        events,
        seed,
        ..traces::TraceConfig::day(traces::Profile::Eecs)
    })
}

/// The `traces` driver: the sharing analysis of the paper's §6 over
/// `trace`; returns the number of points so the work is observable.
pub fn traces_analyze(trace: &[traces::TraceEvent]) -> usize {
    traces::sharing_analysis(trace, &[60, 600]).len()
}
