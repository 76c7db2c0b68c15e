//! `ipstorage-core`: the testbed builder and one experiment runner for
//! every table and figure in *A Performance Comparison of NFS and
//! iSCSI for IP-Networked Storage* (FAST 2004).
//!
//! # Quickstart
//!
//! ```
//! use ipstorage_core::{Protocol, Testbed};
//!
//! let tb = Testbed::with_protocol(Protocol::Iscsi);
//! tb.fs().mkdir("/data").unwrap();
//! tb.settle(); // let the journal commit so its messages are counted
//! assert!(tb.messages() > 0);
//! ```
//!
//! [`Testbed::build`] is the one-client, one-server case of
//! [`Testbed::build_topology`]: a single construction path builds every
//! shape, from the paper's pair to N clients over M server shards
//! ([`TopologyConfig`]; client `i` mounts shard `i % M`).
//!
//! The [`experiments`] module regenerates every result. A runner takes
//! the run's [`RunOptions`] plus its own scale parameters; the
//! paper-scale and `--quick` parameters, and the names the `tables`
//! binary selects by, are [`experiments::REGISTRY`].
//!
//! | Paper result | Runner |
//! |---|---|
//! | Table 2/3 (syscall messages, cold/warm) | [`experiments::micro::table2`], `experiments::micro::table3` |
//! | Figure 3 (iSCSI update aggregation) | `experiments::micro::figure3` |
//! | Figure 4 (directory depth) | `experiments::micro::figure4` |
//! | Figure 5 (read/write sizes) | `experiments::micro::figure5` |
//! | Table 4 (128 MB transfers) | [`experiments::data::table4`] |
//! | Figure 6 (RTT sweep; under modeled TCP) | [`experiments::data::figure6`], [`experiments::data::figure6_tcp`] |
//! | Table 5 (PostMark) | [`experiments::macrob::table5`] |
//! | Table 6/7 (TPC-C / TPC-H) | [`experiments::macrob::table6`], [`experiments::macrob::table7`] |
//! | Table 8 (shell workloads) | `experiments::macrob::table8` |
//! | Table 9/10 (CPU utilization) | [`experiments::macrob::table9_10`] |
//! | Figure 7 + §7 (traces, enhancements) | `experiments::enhance::figure7`, `experiments::enhance::section7_traces`, [`experiments::enhance::section7_postmark`] |
//! | Beyond the paper: N clients, M shards, ablations | [`experiments::scale::scale`], [`experiments::frontier::frontier`], [`experiments::ablation::all`] |

pub mod attribution;
pub mod calibration;
pub mod experiments;
mod plot;
pub mod report;
pub mod snapshot;
pub mod sweep;
pub mod table;
mod testbed;

pub use attribution::{attribution_table, gauge_table};
pub(crate) use plot::Plot;
pub use report::{ChannelStats, ReportBuilder, RunReport};
pub use snapshot::{SetupInfo, SetupKey, Snapshot, SnapshotCache};
pub use sweep::RunOptions;
pub use table::Table;
pub use testbed::{Protocol, Testbed, TestbedConfig, TopologyConfig};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbeds_build_for_all_protocols() {
        for p in Protocol::ALL {
            let tb = Testbed::with_protocol(p);
            tb.fs().mkdir("/x").unwrap();
            assert!(tb.fs().stat("/x").is_ok(), "{p:?}");
        }
    }

    #[test]
    fn messages_accumulate_per_protocol() {
        let tb = Testbed::with_protocol(Protocol::NfsV3);
        let m0 = tb.messages();
        tb.fs().mkdir("/a").unwrap();
        assert!(tb.messages() > m0);

        let ti = Testbed::with_protocol(Protocol::Iscsi);
        let m0 = ti.messages();
        ti.fs().mkdir("/a").unwrap();
        ti.settle();
        assert!(ti.messages() > m0);
    }

    #[test]
    fn cold_caches_forces_refetch() {
        let tb = Testbed::with_protocol(Protocol::Iscsi);
        tb.fs().mkdir("/a").unwrap();
        tb.settle();
        tb.cold_caches();
        let m0 = tb.messages();
        tb.fs().stat("/a").unwrap();
        assert!(tb.messages() > m0, "cold stat must touch the wire");
        let m1 = tb.messages();
        tb.fs().stat("/a").unwrap();
        assert_eq!(tb.messages(), m1, "warm stat is free for iSCSI");
    }
}
