//! The iso-throughput frontier: sharded topologies at fixed aggregate
//! offered load.
//!
//! The scaling experiment ([`super::scale`]) drives N clients into one
//! server until the shared link or server CPU saturates. This runner
//! asks the follow-on capacity-planning question: holding the
//! *aggregate* offered load fixed (a total transaction budget split
//! evenly across N clients), how does completion time move as the
//! same load is spread over M server shards? Each (N, M) cell builds
//! a [`TopologyConfig`] with `servers: M`: M independent server
//! machines — private RAID array, CPU account, file system or iSCSI
//! target each — each behind a private edge link of the fabric, with
//! client `i` on server `i % M`.
//!
//! # Per-shard snapshot reuse
//!
//! Under this static sharding, an (N, M) topology is M replicas of one
//! k-client shard (k = N/M). The runner exploits that: the setup
//! snapshot is captured once for the *single-shard* k-client topology
//! and `Snapshot::fork_sharded`
//! replicates its images M times — so
//! a whole frontier sweep builds one setup per distinct shard size k
//! and forks everything else. The cells (4, 1), (8, 2), (16, 4) all
//! fork the same k = 4 capture. Cold cost is O(distinct k), not
//! O(cells), which is what makes thousand-client grids tractable.
//!
//! Because every shard resumes from the same images with the same
//! client-local seeds, shards evolve identically under the overlap
//! model — global client `i` is local `i / M` on shard `i % M` and
//! replays that local client's stream. The completion bound below is
//! therefore the single-shard bound evaluated at k clients, with the
//! server-busy term taken as the max over shards.
//!
//! # The completion bound
//!
//! As in [`super::scale`]: per-client demand `T_i` already embeds the
//! fair share of the client's edge link (M edges now, each split
//! among its k attached clients), so
//!
//! ```text
//! T(N, M) = max( max_i T_i , max_j server_j CPU busy )
//! aggregate ops/s = total transactions / T(N, M)
//! ```
//!
//! Spreading a fixed load over more shards shortens the per-shard
//! demand and divides the server CPU term by M — until the
//! per-client protocol overheads floor the curve.

use super::closedloop::{build_pools, client_pm, run_clients};
use crate::report::RunReport;
use crate::snapshot::{SetupKey, SnapshotCache};
use crate::sweep::{CellCtx, RunOptions, Sweep};
use crate::table::{fmt_f, Table};
use crate::{calibration, Protocol, TopologyConfig};
use simkit::SimDuration;

/// One (protocol, clients, servers) cell of the frontier.
#[derive(Debug, Clone, Copy)]
pub struct FrontierRun {
    /// Protocol measured.
    pub protocol: Protocol,
    /// Total client hosts N.
    pub clients: usize,
    /// Server shards M.
    pub servers: usize,
    /// Transactions completed across all clients (the fixed budget).
    pub transactions: u64,
    /// Overlap-model completion time `T(N, M)`.
    pub completion: SimDuration,
    /// Slowest single client's demand.
    pub slowest_client: SimDuration,
    /// Busiest shard's server CPU time over the transaction phase.
    pub server_busy: SimDuration,
    /// Aggregate throughput, transactions per second.
    pub ops_per_sec: f64,
    /// Busiest shard's CPU utilization at `T(N, M)`, percent.
    pub server_cpu_pct: f64,
    /// Protocol messages per client over the transaction phase.
    pub msgs_per_client: u64,
}

/// The shard-sized topology a cell's snapshot is captured for: k
/// clients on one server, the volume grown past the calibrated size
/// when k clients need more (the growth is part of the snapshot key).
/// NFS clients share one file system, 4096 blocks each. An iSCSI
/// client formats its own `volume / k` LUN, so its share is what ext3
/// needs before it holds a file, plus the directory tree and twice the
/// pool at its largest file size (transactions create as often as they
/// delete).
fn shard_topology(protocol: Protocol, shard_clients: usize, files: usize) -> TopologyConfig {
    let per_client = match protocol {
        Protocol::Iscsi => {
            let pm = client_pm(files, 0, 0, 0);
            let file_blocks = pm.max_size.div_ceil(blockdev::BLOCK_SIZE) as u64;
            ext3::min_volume_blocks(calibration::JOURNAL_BLOCKS)
                + 2 * files as u64 * file_blocks
                + pm.subdirs as u64
        }
        _ => 4096,
    };
    let mut topo = TopologyConfig::new(protocol).with_clients(shard_clients);
    topo.base.volume_blocks = calibration::VOLUME_BLOCKS.max(shard_clients as u64 * per_client);
    topo
}

/// Runs one frontier cell. `transactions` is the *aggregate* budget:
/// each client runs `max(1, transactions / clients)` of it.
///
/// # Panics
///
/// Panics if `clients` is not a positive multiple of `servers` (static
/// shard replication needs equal shards).
pub fn frontier_run(
    protocol: Protocol,
    clients: usize,
    servers: usize,
    files: usize,
    transactions: usize,
) -> FrontierRun {
    frontier_run_cached(
        protocol,
        clients,
        servers,
        files,
        transactions,
        &SnapshotCache::new(),
    )
}

/// [`frontier_run`] against a caller-owned snapshot cache, so a
/// sequence of cells can share per-shard setups (benchmarks use this
/// to separate cold-build from fork-and-run cost).
pub fn frontier_run_cached(
    protocol: Protocol,
    clients: usize,
    servers: usize,
    files: usize,
    transactions: usize,
    cache: &SnapshotCache,
) -> FrontierRun {
    let ctx = &mut CellCtx::standalone(cache);
    frontier_cell(protocol, clients, servers, files, transactions, ctx)
}

fn frontier_cell(
    protocol: Protocol,
    clients: usize,
    servers: usize,
    files: usize,
    transactions: usize,
    ctx: &mut CellCtx<'_>,
) -> FrontierRun {
    assert!(servers >= 1, "need at least one server shard");
    assert!(
        clients >= servers && clients.is_multiple_of(servers),
        "static sharding needs clients ({clients}) to be a multiple of servers ({servers})"
    );
    let shard = shard_topology(protocol, clients / servers, files);
    let per_client = (transactions / clients).max(1);

    // The snapshot is the single k-client shard; every (k·M, M) cell
    // forks M replicas of it. Setup is scale's: per-client pool plus
    // the shared file.
    let key = SetupKey::new(&shard, &format!("frontier:files{files}"));
    let tb = ctx.fork_sharded(key, servers, |setup_seed| {
        build_pools(shard, files, setup_seed)
    });
    let run = run_clients(&tb, files, per_client, |_, _| {});
    ctx.absorb(&tb);
    FrontierRun {
        protocol,
        clients,
        servers,
        transactions: run.transactions,
        completion: run.completion,
        slowest_client: run.slowest_client,
        server_busy: run.server_busy,
        ops_per_sec: run.ops_per_sec,
        server_cpu_pct: run.server_cpu_pct,
        msgs_per_client: run.msgs_per_client,
    }
}

/// The frontier over `(clients, servers)` cells, both protocols, as a
/// rendered table plus the machine-readable report. The default grid
/// spreads N ∈ {4, 8, 16} over 1, 2 and 4 shards at 200 files and an
/// aggregate 16 000 transactions.
pub fn frontier(
    options: RunOptions,
    grid: &[(usize, usize)],
    files: usize,
    transactions: usize,
) -> (Table, RunReport) {
    let mut cells: Vec<(usize, usize, Protocol)> = Vec::new();
    for &(n, m) in grid {
        for proto in [Protocol::NfsV3, Protocol::Iscsi] {
            cells.push((n, m, proto));
        }
    }
    let (runs, report) = Sweep::new(options).run_cells(
        "frontier",
        &cells,
        Some(|&(n, _, _)| n as u64),
        |&(n, m, proto), ctx| frontier_cell(proto, n, m, files, transactions, ctx),
    );
    let mut t = Table::new(
        format!("Frontier: {transactions} transactions spread over N clients x M shards"),
        &[
            "clients",
            "servers",
            "NFSv3 ops/s",
            "iSCSI ops/s",
            "NFSv3 srvCPU%",
            "iSCSI srvCPU%",
            "NFSv3 msgs/cl",
            "iSCSI msgs/cl",
        ],
    );
    for pair in runs.chunks(2) {
        let (nf, is) = (pair[0], pair[1]);
        t.row(&[
            nf.clients.to_string(),
            nf.servers.to_string(),
            fmt_f(nf.ops_per_sec),
            fmt_f(is.ops_per_sec),
            fmt_f(nf.server_cpu_pct),
            fmt_f(is.server_cpu_pct),
            nf.msgs_per_client.to_string(),
            is.msgs_per_client.to_string(),
        ]);
    }
    (t, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_cell_runs_both_protocols_sharded() {
        for proto in [Protocol::NfsV3, Protocol::Iscsi] {
            let r = frontier_run(proto, 4, 2, 40, 400);
            assert_eq!(r.clients, 4);
            assert_eq!(r.servers, 2);
            assert_eq!(r.transactions, 400);
            assert!(r.ops_per_sec > 0.0, "{proto:?} made progress");
            assert!(r.msgs_per_client > 0);
            assert_eq!(r.completion, r.slowest_client.max(r.server_busy));
        }
    }

    #[test]
    fn equal_shard_sizes_share_one_snapshot() {
        let cache = SnapshotCache::new();
        // (4, 2) and (6, 3) both need a k = 2 shard: one build.
        frontier_run_cached(Protocol::NfsV3, 4, 2, 30, 200, &cache);
        frontier_run_cached(Protocol::NfsV3, 6, 3, 30, 200, &cache);
        assert_eq!(
            cache.builds(),
            1,
            "per-shard snapshot is reused across cells"
        );
        // A different shard size is a different setup.
        frontier_run_cached(Protocol::NfsV3, 4, 1, 30, 200, &cache);
        assert_eq!(cache.builds(), 2);
    }

    #[test]
    fn sharding_divides_the_server_cpu_term() {
        let cache = SnapshotCache::new();
        let one = frontier_run_cached(Protocol::NfsV3, 8, 1, 40, 800, &cache);
        let four = frontier_run_cached(Protocol::NfsV3, 8, 4, 40, 800, &cache);
        assert!(
            four.server_busy < one.server_busy,
            "busiest shard does a fraction of the single server's work: {:?} vs {:?}",
            four.server_busy,
            one.server_busy
        );
        assert!(four.completion <= one.completion);
    }
}
