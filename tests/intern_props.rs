//! Properties of typed counter keys and the sharded frontier (tier 1):
//! report bytes must never depend on registration order, worker count,
//! or snapshot sharing, and a thousand-client sharded cell must stay
//! cheap enough for every `cargo test`. CI additionally diffs full
//! `tables --json frontier` output across `--jobs` and `--no-snapshot`.

use ipstorage_core::experiments::frontier::{frontier, frontier_run};
use ipstorage_core::report::{ReportBuilder, RunReport};
use ipstorage_core::{Protocol, RunOptions};
use simkit::Counters;

/// A small frontier grid — shard forks, two protocols, a reused
/// k = 2 snapshot — must emit the same table and report bytes
/// regardless of the sweep worker count.
#[test]
fn frontier_sweep_is_byte_identical_across_jobs() {
    let grid = [(4, 1), (4, 2), (6, 3)];
    let jobs = |jobs| RunOptions {
        jobs,
        ..RunOptions::default()
    };
    let (t1, r1) = frontier(jobs(1), &grid, 30, 300);
    let (t3, r3) = frontier(jobs(3), &grid, 30, 300);
    assert_eq!(
        t1.render(),
        t3.render(),
        "table bytes independent of --jobs"
    );
    assert_eq!(
        r1.to_json(),
        r3.to_json(),
        "report bytes independent of --jobs"
    );
}

/// Per-shard snapshot reuse is a pure performance trade: forking M
/// replicas of a captured shard must produce the bytes a cold build
/// produces.
#[test]
fn frontier_is_transparent_to_snapshot_sharing() {
    let run = |share_setups| {
        let options = RunOptions {
            jobs: 2,
            share_setups,
            ..RunOptions::default()
        };
        frontier(options, &[(4, 2), (8, 4)], 20, 200).1.to_json()
    };
    let (shared, cold) = (run(true), run(false));
    assert_eq!(
        shared, cold,
        "snapshot sharing changed frontier report bytes"
    );
}

/// Registering names in different orders fills different slots, but
/// slots never reach the observable surface: snapshots, deltas, and
/// the sorted dump read identically.
#[test]
fn counter_bytes_are_independent_of_intern_order() {
    let ab = Counters::new();
    ab.add("rpc.calls", 7);
    ab.add("net.bytes", 9);
    let ba = Counters::new();
    ba.add("net.bytes", 4);
    ba.add("rpc.calls", 7);
    ba.add("net.bytes", 5);
    assert_eq!(ab.to_vec(), ba.to_vec());
    assert_eq!(ab.get("net.bytes"), 9);
}

/// Merging report fragments folds counters by name; the finished
/// report must not remember the merge order.
#[test]
fn report_merge_is_order_independent() {
    let frag = |pairs: &[(&str, u64)]| {
        let mut r = RunReport {
            name: "frag".into(),
            runs: 1,
            ..RunReport::default()
        };
        for &(k, v) in pairs {
            r.counters.insert(k.into(), v);
        }
        r
    };
    let a = frag(&[("iscsi.pdus", 3), ("nfs.rpc_calls", 10)]);
    let b = frag(&[("nfs.rpc_calls", 2), ("net.msgs", 8)]);
    let merge = |frags: &[&RunReport]| {
        let mut rb = ReportBuilder::new("merged");
        for f in frags {
            rb.merge_report(f);
        }
        rb.finish().to_json()
    };
    assert_eq!(merge(&[&a, &b]), merge(&[&b, &a]));
}

/// The acceptance bar for the sharding work: a (1000 clients, 4
/// shards) frontier cell — a 1004-host topology behind four edge
/// links — builds, runs, and tears down inside the tier-1 suite.
/// The per-shard snapshot machinery makes this one k = 250 setup plus
/// four forked replicas, not 1000 cold mounts.
#[test]
fn thousand_client_cell_completes_in_tier1() {
    let r = frontier_run(Protocol::NfsV3, 1000, 4, 10, 1000);
    assert_eq!(r.clients, 1000);
    assert_eq!(r.servers, 4);
    assert_eq!(r.transactions, 1000);
    assert!(r.ops_per_sec > 0.0, "cell made progress");
    assert!(r.msgs_per_client > 0);
}

/// iSCSI shards past k = 237 clients used to carve LUNs below the ext3
/// minimum and die in mkfs ("volume too small"); the per-LUN floor now
/// comes from ext3 itself. k = 240 here.
#[test]
fn large_iscsi_shard_gets_luns_ext3_can_format() {
    let r = frontier_run(Protocol::Iscsi, 480, 2, 10, 480);
    assert_eq!((r.clients, r.servers), (480, 2));
    assert_eq!(r.transactions, 480);
    assert!(r.ops_per_sec > 0.0, "cell made progress");
}
