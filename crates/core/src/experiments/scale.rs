//! The client-scaling experiment: N PostMark clients against one
//! server.
//!
//! The paper measures a single client against a single server and
//! notes (§6) that the protocols' sharing models differ radically: NFS
//! clients share one file-system namespace and pay cross-client cache
//! consistency traffic, while iSCSI gives each initiator a private
//! volume and cannot share at all. This runner quantifies that
//! difference. For each client count N it builds a
//! [`TopologyConfig`]-based testbed (N NFS clients on one export, or N
//! iSCSI sessions with one LUN partition each), runs one PostMark
//! session per client interleaved on the shared simulated clock (the
//! `closedloop` driver next door), and layers a small shared-file
//! pattern on top: client `c0` periodically appends to
//! `/shared/config` while every other client stats and reads it — the
//! classic "one writer, N−1 pollers" configuration-file pattern. On
//! NFS the pollers' attribute caches go stale against the writer's
//! mtime updates and revalidation GETATTRs appear on the wire; on iSCSI
//! each client only ever sees its own private copy and no consistency
//! traffic exists.
//!
//! # The overlap model
//!
//! The simulator is single-threaded: client steps are serialized on
//! one virtual clock, so wall-clock completion cannot be read off the
//! clock directly. Instead the runner computes the standard
//! bottleneck bound. Each client's *demand* `T_i` is the virtual time
//! consumed by its own steps — which already includes its fair share
//! of the server link, because the topology splits link bandwidth
//! across the N active hosts (see [`net::Fabric`]). The server's CPU
//! demand is its busy-time delta over the run. Concurrent clients
//! overlap everything except the shared bottlenecks, so
//!
//! ```text
//! T(N) = max( max_i T_i , server CPU busy )
//! aggregate ops/s = total transactions / T(N)
//! server CPU %    = 100 · server CPU busy / T(N)
//! ```
//!
//! Throughput therefore rises with N until the shared link (inside
//! `T_i`) or the server CPU (the second term) saturates, and then
//! flattens — the curve `BENCH_scale.json` records.

use super::closedloop::{build_pools, run_clients};
use crate::report::RunReport;
use crate::snapshot::SetupKey;
use crate::sweep::{CellCtx, RunOptions, Sweep};
use crate::table::{fmt_f, Table};
use crate::{Protocol, TopologyConfig};
use simkit::{Histogram, SimDuration};

/// One (protocol, client-count) cell of the scaling experiment.
#[derive(Debug, Clone, Copy)]
pub struct ScaleRun {
    /// Protocol measured.
    pub protocol: Protocol,
    /// Number of client hosts.
    pub clients: usize,
    /// Transactions completed across all clients.
    pub transactions: u64,
    /// Overlap-model completion time `T(N)`.
    pub completion: SimDuration,
    /// Slowest single client's demand `max_i T_i`.
    pub slowest_client: SimDuration,
    /// Server CPU busy time over the transaction phase.
    pub server_busy: SimDuration,
    /// Aggregate throughput, transactions per second.
    pub ops_per_sec: f64,
    /// Server CPU utilization at `T(N)`, percent.
    pub server_cpu_pct: f64,
    /// Protocol messages per client over the transaction phase.
    pub msgs_per_client: u64,
    /// Worst per-client p95 transaction latency, microseconds.
    pub p95_us: u64,
    /// Cross-client consistency traffic: server GETATTRs (NFS; always
    /// zero for iSCSI, whose LUNs are private).
    pub getattrs: u64,
    /// TCP segments retransmitted over the transaction phase — always
    /// zero under the pipe transport, nonzero once the modeled flows
    /// contend hard enough to overflow the bottleneck queue.
    pub tcp_retx_segs: u64,
}

fn scale_cell(
    protocol: Protocol,
    clients: usize,
    files: usize,
    transactions: usize,
    link: Option<net::LinkParams>,
    ctx: &mut CellCtx<'_>,
) -> ScaleRun {
    let topo = TopologyConfig::new(protocol).with_clients(clients);
    // Phase 1 is the snapshot: every client's pool plus the shared
    // file, identical for every transaction count — all scales fork
    // the same captured topology.
    let key = SetupKey::new(&topo, &format!("scale:files{files}"));
    let tweak = move |c: &mut crate::TestbedConfig| {
        if let Some(l) = link {
            c.link = l;
        }
    };
    let tb = ctx.fork_with(key, tweak, |setup_seed| {
        build_pools(topo, files, setup_seed)
    });

    let mut latency = vec![Histogram::new(); clients];
    // Per-client latency series, interned once — the per-transaction
    // path must not format a key per step.
    let txn_metric: Vec<simkit::MetricHandle> = (0..clients)
        .map(|i| {
            tb.sim()
                .metrics()
                .handle(&format!("scale.{}.txn", tb.host_name(i)))
        })
        .collect();
    let run = run_clients(&tb, files, transactions, |i, d| {
        latency[i].record(d.as_nanos() / 1_000);
        txn_metric[i].record_duration(d);
    });
    let counters = tb.sim().counters();
    let getattrs = counters.delta_since(&run.before, "nfs.server.proc.getattr");
    let tcp_retx_segs = counters.delta_since(&run.before, "net.tcp.retx_segs");
    ctx.absorb(&tb);
    ScaleRun {
        protocol,
        clients,
        transactions: run.transactions,
        completion: run.completion,
        slowest_client: run.slowest_client,
        server_busy: run.server_busy,
        ops_per_sec: run.ops_per_sec,
        server_cpu_pct: run.server_cpu_pct,
        msgs_per_client: run.msgs_per_client,
        p95_us: latency.iter().map(|h| h.quantile(0.95)).max().unwrap_or(0),
        getattrs,
        tcp_retx_segs,
    }
}

/// The scaling experiment over `client_counts` × both protocols (NFS
/// v3 then iSCSI per count; the default grid is N ∈ {1, 2, 4, 8, 12,
/// 16}, 500 files and 2 000 transactions per client): the per-cell
/// runs plus the machine-readable report. `link` overrides the server
/// link at fork time: a constrained link under
/// [`net::TransportModel::Tcp`] makes the N clients' flows contend for
/// one modeled bottleneck queue. Render the runs with [`scale_table`].
pub fn scale(
    options: RunOptions,
    client_counts: &[usize],
    files: usize,
    transactions: usize,
    link: Option<net::LinkParams>,
) -> (Vec<ScaleRun>, RunReport) {
    let mut cells: Vec<(usize, Protocol)> = Vec::new();
    for &n in client_counts {
        for proto in [Protocol::NfsV3, Protocol::Iscsi] {
            cells.push((n, proto));
        }
    }
    // Cost hint: a cell's work scales with its client count, so
    // workers claim the big topologies first.
    Sweep::new(options).run_cells(
        "scale",
        &cells,
        Some(|&(n, _)| n as u64),
        |&(n, proto), ctx| scale_cell(proto, n, files, transactions, link, ctx),
    )
}

/// Renders [`scale`]'s runs: one row per client count.
pub fn scale_table(runs: &[ScaleRun], transactions: usize) -> Table {
    let mut t = Table::new(
        format!("Scale: PostMark x N clients, {transactions} transactions each"),
        &[
            "clients",
            "NFSv3 ops/s",
            "iSCSI ops/s",
            "NFSv3 srvCPU%",
            "iSCSI srvCPU%",
            "NFSv3 msgs/cl",
            "iSCSI msgs/cl",
            "NFSv3 p95(us)",
            "iSCSI p95(us)",
            "NFSv3 getattrs",
        ],
    );
    for pair in runs.chunks(2) {
        let (nf, is) = (pair[0], pair[1]);
        t.row(&[
            nf.clients.to_string(),
            fmt_f(nf.ops_per_sec),
            fmt_f(is.ops_per_sec),
            fmt_f(nf.server_cpu_pct),
            fmt_f(is.server_cpu_pct),
            nf.msgs_per_client.to_string(),
            is.msgs_per_client.to_string(),
            nf.p95_us.to_string(),
            is.p95_us.to_string(),
            nf.getattrs.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotCache;

    /// One cell outside any sweep, with an optional fork-time link.
    fn run(
        protocol: Protocol,
        clients: usize,
        files: usize,
        transactions: usize,
        link: Option<net::LinkParams>,
    ) -> ScaleRun {
        let cache = SnapshotCache::new();
        let ctx = &mut CellCtx::standalone(&cache);
        scale_cell(protocol, clients, files, transactions, link, ctx)
    }

    #[test]
    fn single_cell_runs_both_protocols() {
        for proto in [Protocol::NfsV3, Protocol::Iscsi] {
            let r = run(proto, 2, 50, 100, None);
            assert_eq!(r.clients, 2);
            assert_eq!(r.transactions, 200);
            assert!(r.ops_per_sec > 0.0, "{proto:?} made progress");
            assert!(r.server_cpu_pct > 0.0 && r.server_cpu_pct <= 100.0);
            assert!(r.msgs_per_client > 0);
        }
    }

    #[test]
    fn nfs_shows_consistency_traffic_and_iscsi_does_not() {
        let nfs = run(Protocol::NfsV3, 3, 50, 150, None);
        let iscsi = run(Protocol::Iscsi, 3, 50, 150, None);
        assert!(nfs.getattrs > 0, "shared-file pollers revalidate on NFS");
        assert_eq!(iscsi.getattrs, 0, "private LUNs have no NFS server");
    }

    #[test]
    fn completion_is_the_bottleneck_bound() {
        let r = run(Protocol::NfsV3, 2, 40, 80, None);
        assert_eq!(r.completion, r.slowest_client.max(r.server_busy));
        assert!(r.completion >= r.slowest_client);
        assert!(r.completion >= r.server_busy);
    }

    #[test]
    fn congested_scale_runs_and_mcs_changes_iscsi_throughput() {
        let link = |conns| {
            net::LinkParams::wan(SimDuration::from_millis(20))
                .with_transport(net::TransportModel::Tcp { connections: conns })
        };
        let plain = run(Protocol::Iscsi, 2, 50, 100, None);
        let one = run(Protocol::Iscsi, 2, 50, 100, Some(link(1)));
        let four = run(Protocol::Iscsi, 2, 50, 100, Some(link(4)));
        assert_eq!(plain.tcp_retx_segs, 0, "the pipe model never drops");
        assert!(one.ops_per_sec > 0.0 && four.ops_per_sec > 0.0);
        assert!(
            one.tcp_retx_segs > 0,
            "contending flows must overflow the bottleneck queue"
        );
        assert_ne!(
            one.tcp_retx_segs, four.tcp_retx_segs,
            "MC/S allegiance must change the congestion response"
        );
        assert!(one.completion > plain.completion, "congestion costs time");
    }

    #[test]
    fn report_carries_per_host_latency_histograms() {
        let (_, rep) = scale(RunOptions::default(), &[2], 40, 80, None);
        assert!(rep.histograms.contains_key("scale.c0.txn"));
        assert!(rep.histograms.contains_key("scale.c1.txn"));
        assert!(rep.counters.keys().any(|k| k.starts_with("net.c1.")));
    }
}
