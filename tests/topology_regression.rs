//! Byte-identity anchors for the testbed builder.
//!
//! The golden fixtures under `tests/golden/` were captured from the
//! pre-refactor tree by running the release `tables` binary:
//!
//! ```text
//! tables --json --quick table2 > tests/golden/table2_quick.stdout
//! tables --json --quick table5 > tests/golden/table5_quick.stdout
//! tables --json --quick scale > tests/golden/scale_quick.stdout
//! tables --json --quick frontier > tests/golden/frontier_quick.stdout
//! ```
//!
//! The first two anchor the paper's pair — the (1, 1) case of the one
//! builder must be the old point-to-point testbed: same construction
//! order, same RNG draws, same counter registry, same report bytes. The
//! last two (captured at d0c5cc5, the last tree with a constructor per
//! shape) anchor N > 1 and M > 1. These tests rebuild the exact stdout
//! of those runner invocations in-process and compare byte-for-byte
//! against the committed fixtures.
//!
//! The fixtures were re-captured (same commands) when the setup
//! snapshot cache landed: every cell now runs its setup under a
//! key-derived seed, captures through a clean unmount, and reports
//! measured-phase traffic only (setup totals move to `SetupInfo`), so
//! the JSON counter sections shrank. Table 2's cells were unchanged;
//! Table 5's times/messages moved a few percent (the capture's
//! unmount lands the pool's deferred write-back, which the old
//! mid-run accounting deferred past the snapshot point) while keeping
//! every ratio the paper reports.
//!
//! Re-captured again (same commands) when the causal-tracing PR grew
//! the report schema: `RunReport::to_json` now always emits
//! `"attribution"` (empty unless the run traced with attribution mode
//! on) and `"gauges"` (virtual-clock gauge samples) after
//! `cpu_busy_ns`. Every byte before those sections — tables,
//! counters, histograms, CPU accounting — was verified unchanged.

use ipstorage::core::experiments::{frontier, macrob, micro, scale};
use ipstorage::core::{
    Protocol, ReportBuilder, RunOptions, RunReport, ShardPolicy, Table, Testbed, TestbedConfig,
    TopologyConfig,
};
use ipstorage::simkit::SimDuration;

/// Reconstruct the bytes `tables --json` writes for one runner: the
/// rendered table, a blank line, then the report as one JSON line.
fn runner_stdout(t: &Table, r: &RunReport) -> String {
    format!("{}\n\n{}\n", t.render(), r.to_json())
}

#[test]
fn table2_matches_pre_refactor_golden() {
    let golden = include_str!("golden/table2_quick.stdout");
    let (t, r) = micro::table2(RunOptions::default());
    assert_eq!(
        runner_stdout(&t, &r),
        golden,
        "single-client table2 output drifted from the pre-refactor golden"
    );
}

/// N > 1 anchor: `tables --json --quick scale`, captured at d0c5cc5
/// before the three testbed constructors were merged. Its (1)-client
/// cells cover the degenerate pair, the rest the flat fabric, for both
/// protocols.
#[test]
fn scale_matches_pre_merge_golden() {
    let golden = include_str!("golden/scale_quick.stdout");
    let (runs, r) = scale::scale(RunOptions::default(), &[1, 2, 4, 8], 200, 500, None);
    let t = scale::scale_table(&runs, 500);
    assert_eq!(
        runner_stdout(&t, &r),
        golden,
        "scale output drifted from the pre-merge golden"
    );
}

/// M > 1 anchor: `tables --json --quick frontier`, captured at d0c5cc5.
/// (4,1) is the flat path, (4,2)/(8,2)/(8,4) the sharded one, for both
/// protocols.
#[test]
fn frontier_matches_pre_merge_golden() {
    let golden = include_str!("golden/frontier_quick.stdout");
    let grid = [(4, 1), (4, 2), (8, 2), (8, 4)];
    let (t, r) = frontier::frontier(RunOptions::default(), &grid, 100, 2_000);
    assert_eq!(
        runner_stdout(&t, &r),
        golden,
        "frontier output drifted from the pre-merge golden"
    );
}

#[test]
fn table5_matches_pre_refactor_golden() {
    let golden = include_str!("golden/table5_quick.stdout");
    let (t, r) = macrob::table5(RunOptions::default(), &[1000, 5000], 10_000);
    assert_eq!(
        runner_stdout(&t, &r),
        golden,
        "single-client table5 (PostMark) output drifted from the pre-refactor golden"
    );
}

/// The pair is the (1, 1) topology, not a sibling of it: both entry
/// points yield the same report bytes after the same short workload,
/// and neither grows the per-host counters or per-shard gauges that
/// only larger topologies have.
#[test]
fn degenerate_topology_is_the_pair() {
    for protocol in Protocol::ALL {
        let report = |tb: Testbed| {
            let fs = tb.fs();
            fs.mkdir("/d").unwrap();
            fs.creat("/d/f").unwrap();
            let fd = fs.open("/d/f").unwrap();
            fs.write(fd, 0, &[7u8; 16_384]).unwrap();
            fs.close(fd).unwrap();
            fs.stat("/d/f").unwrap();
            tb.settle();
            let mut rb = ReportBuilder::new("pair");
            rb.absorb(&tb);
            rb.finish().to_json()
        };
        let cfg = TestbedConfig::new(protocol);
        let pair = report(Testbed::build(cfg.clone()));
        let topo = report(Testbed::build_topology(TopologyConfig::from_base(cfg)));
        assert_eq!(pair, topo, "{protocol:?}");
        assert!(pair.contains("\"net.total.bytes\""), "{protocol:?}");
        assert!(!pair.contains("net.c0."), "{protocol:?}: per-host counter");
        assert!(!pair.contains("disk.s0."), "{protocol:?}: per-shard gauge");
    }
}

/// `ShardPolicy` is nameable from outside the crate, so the policies
/// `TopologyConfig::with_policy` takes can actually be selected.
#[test]
fn shard_policies_are_selectable_through_the_public_api() {
    for (protocol, policy) in [
        (Protocol::NfsV3, ShardPolicy::HashByFile),
        (Protocol::Iscsi, ShardPolicy::StripedLuns),
    ] {
        let tb = Testbed::build_topology(
            TopologyConfig::new(protocol)
                .with_clients(4)
                .with_servers(2)
                .with_policy(policy),
        );
        assert_eq!(tb.server_count(), 2);
        let ports: Vec<u32> = (0..4).map(|i| tb.client_port(i)).collect();
        assert!(
            ports.contains(&0) && ports.contains(&1),
            "{policy:?}: {ports:?}"
        );
        tb.client_fs(3).mkdir("/d").unwrap();
        assert!(tb.client_fs(3).stat("/d").is_ok(), "{policy:?}");
    }
}

/// Virtual time client `i` takes to write 64 KiB through to its server.
fn write_through(tb: &Testbed, i: usize) -> SimDuration {
    let fs = tb.client_fs(i);
    let t0 = tb.now();
    fs.creat("/f").unwrap();
    let fd = fs.open("/f").unwrap();
    fs.write(fd, 0, &[7; 64 << 10]).unwrap();
    fs.fsync(fd).unwrap();
    fs.close(fd).unwrap();
    tb.now().since(t0)
}

/// Activating fewer clients than the topology has leaves some server
/// edges with no active host. Such an edge keeps its whole link: a
/// client on it writes exactly as fast as on a fresh topology, where
/// every edge starts with one contender, and strictly faster than when
/// its edge is shared. The pair with nobody active keeps its link too.
#[test]
fn idle_edges_keep_their_whole_link() {
    for protocol in [Protocol::NfsV3, Protocol::Iscsi] {
        let build = || {
            Testbed::build_topology(
                TopologyConfig::new(protocol)
                    .with_clients(4)
                    .with_servers(2),
            )
        };
        let tb = build();
        let idle = (1..tb.client_count())
            .find(|&i| tb.client_port(i) != tb.client_port(0))
            .expect("a client on another port than client 0's");
        let whole = write_through(&build(), idle);
        tb.set_active_clients(1);
        assert_eq!(write_through(&tb, idle), whole, "{protocol:?}");
        let shared = build();
        shared.set_active_clients(4);
        assert!(write_through(&shared, idle) > whole, "{protocol:?}");

        let pair_whole = write_through(&Testbed::with_protocol(protocol), 0);
        let pair = Testbed::with_protocol(protocol);
        pair.set_active_clients(0);
        assert_eq!(write_through(&pair, 0), pair_whole, "{protocol:?}");
    }
}

/// NFS exports no LUNs: asking to stripe them is a configuration error,
/// not a silent fallback to static assignment.
#[test]
#[should_panic(expected = "StripedLuns stripes iSCSI LUNs")]
fn striped_luns_on_nfs_is_rejected() {
    let _ = Testbed::build_topology(
        TopologyConfig::new(Protocol::NfsV3)
            .with_clients(4)
            .with_servers(2)
            .with_policy(ShardPolicy::StripedLuns),
    );
}
