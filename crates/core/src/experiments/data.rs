//! Data-path experiments: Table 4 (128 MB sequential/random transfers)
//! and Figure 6 (wide-area latency sweep).

use crate::report::RunReport;
use crate::snapshot::SetupKey;
use crate::sweep::{RunOptions, Sweep};
use crate::table::{fmt_f, fmt_secs, Table};
use crate::{Protocol, Testbed, TestbedConfig};
use simkit::{SimDuration, SplitMix64};

/// File size used by the paper: 128 MB in 4 KB chunks.
pub(crate) const FILE_MB: u64 = 128;
const CHUNK: usize = 4096;

/// Access pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Ascending offsets.
    Sequential,
    /// A random permutation of the file's blocks.
    Random,
}

/// Result of one transfer benchmark.
#[derive(Debug, Clone, Copy)]
pub struct TransferResult {
    /// Protocol measured.
    pub protocol: Protocol,
    /// Completion time.
    pub time: SimDuration,
    /// Protocol messages.
    pub messages: u64,
    /// Bytes on the wire.
    pub bytes: simkit::units::Bytes,
}

fn block_order(nblocks: u64, pattern: Pattern, seed: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (0..nblocks).collect();
    if pattern == Pattern::Random {
        SplitMix64::new(seed).shuffle(&mut v);
    }
    v
}

/// Writes a `mb`-megabyte file in 4 KB chunks with the given pattern,
/// measuring completion time of the writing process (as the paper
/// does — dirty data may remain cached afterwards).
pub fn write_file(tb: &Testbed, path: &str, mb: u64, pattern: Pattern) -> TransferResult {
    let fs = tb.fs();
    let nblocks = mb * 256;
    fs.creat(path).unwrap();
    let fd = fs.open(path).unwrap();
    let data = vec![0xABu8; CHUNK];
    let order = block_order(nblocks, pattern, 99);
    let m0 = tb.messages();
    let b0 = tb.bytes();
    let t0 = tb.now();
    for b in order {
        fs.write(fd, b * CHUNK as u64, &data).unwrap();
    }
    // Completion time is when the writer finishes (write-back may
    // still be outstanding, as in the paper); the packet capture runs
    // on until the deferred write-back drains, so messages include it.
    let time = tb.now().since(t0);
    fs.close(fd).unwrap();
    tb.settle();
    TransferResult {
        protocol: tb.protocol(),
        time,
        messages: tb.messages() - m0,
        bytes: tb.bytes() - b0,
    }
}

/// Reads the file back in 4 KB chunks after emptying all caches.
pub fn read_file(tb: &Testbed, path: &str, mb: u64, pattern: Pattern) -> TransferResult {
    // Make sure the file is fully on "disk", then chill the caches.
    let fs = tb.fs();
    let fd = fs.open(path).unwrap();
    fs.fsync(fd).unwrap();
    tb.settle();
    tb.cold_caches();
    let nblocks = mb * 256;
    let order = block_order(nblocks, pattern, 101);
    let fd = fs.open(path).unwrap();
    let m0 = tb.messages();
    let b0 = tb.bytes();
    let t0 = tb.now();
    let mut buf = vec![0u8; CHUNK];
    for b in order {
        fs.read_into(fd, b * CHUNK as u64, &mut buf).unwrap();
    }
    let time = tb.now().since(t0);
    fs.close(fd).unwrap();
    TransferResult {
        protocol: tb.protocol(),
        time,
        messages: tb.messages() - m0,
        bytes: tb.bytes() - b0,
    }
}

/// **Table 4**: completion time, messages, and bytes for `mb`-megabyte
/// sequential/random reads and writes, NFS v3 vs iSCSI (the paper uses
/// `FILE_MB`).
pub fn table4(options: RunOptions, mb: u64) -> (Table, RunReport) {
    const BENCHES: [&str; 4] = [
        "Sequential reads",
        "Random reads",
        "Sequential writes",
        "Random writes",
    ];
    // One sweep per protocol, so the first one's captured setups are
    // gone before the second one's are built; one cell per benchmark
    // row. Both read rows fork one setup holding the sequentially
    // written source file; both write rows fork the shared blank
    // (freshly formatted) volume.
    let rows = |protocol: Protocol| {
        Sweep::new(options).run_cells("", &BENCHES, None, |&bench, ctx| {
            let is_read = bench.ends_with("reads");
            let cfg = TestbedConfig::new(protocol);
            let key = if is_read {
                SetupKey::for_config(&cfg, &format!("data:table4:read:{mb}"))
            } else {
                SetupKey::for_config(&cfg, "data:blank")
            };
            let tb = ctx.fork(key, |setup_seed| {
                let tb = Testbed::with_protocol_seeded(protocol, setup_seed);
                if is_read {
                    let _ = write_file(&tb, "/f", mb, Pattern::Sequential);
                }
                tb
            });
            let r = match bench {
                "Sequential reads" => read_file(&tb, "/f", mb, Pattern::Sequential),
                "Random reads" => read_file(&tb, "/f", mb, Pattern::Random),
                "Sequential writes" => write_file(&tb, "/w", mb, Pattern::Sequential),
                // The paper writes a random permutation of the 32K
                // blocks of a new file.
                _ => write_file(&tb, "/w", mb, Pattern::Random),
            };
            ctx.absorb(&tb);
            r
        })
    };
    let (nfs, nfs_report) = rows(Protocol::NfsV3);
    let (iscsi, iscsi_report) = rows(Protocol::Iscsi);
    let mut t = Table::new(
        format!("Table 4: {mb} MB transfers (NFS v3 vs iSCSI)"),
        &[
            "benchmark",
            "NFSv3 time(s)",
            "iSCSI time(s)",
            "NFSv3 msgs",
            "iSCSI msgs",
            "NFSv3 MB",
            "iSCSI MB",
        ],
    );
    for (name, (n, s)) in BENCHES.iter().zip(nfs.iter().zip(&iscsi)) {
        t.row(&[
            name.to_string(),
            fmt_secs(n.time),
            fmt_secs(s.time),
            n.messages.to_string(),
            s.messages.to_string(),
            fmt_f(simkit::units::to_f64(n.bytes.get()) / 1e6),
            fmt_f(simkit::units::to_f64(s.bytes.get()) / 1e6),
        ]);
    }
    (t, RunReport::merged("table4", &[nfs_report, iscsi_report]))
}

/// One Figure 6 sample: completion time at a given RTT.
#[derive(Debug, Clone, Copy)]
pub struct LatencyPoint {
    /// Protocol measured.
    pub protocol: Protocol,
    /// Pattern measured.
    pub pattern: Pattern,
    /// Whether this is the read or the write benchmark.
    pub is_read: bool,
    /// Configured round-trip time (ms).
    pub rtt_ms: u64,
    /// Completion time.
    pub time: SimDuration,
}

/// **Figure 6** data: completion time vs RTT for sequential/random
/// reads and writes, NFS v3 vs iSCSI (the paper sweeps 10..=90 ms over
/// a `FILE_MB` file). Render it with [`figure6_table`] and
/// `figure6_plots`.
pub fn figure6(options: RunOptions, rtts_ms: &[u64], mb: u64) -> (Vec<LatencyPoint>, RunReport) {
    let mut cells = Vec::new();
    for (rtt, proto) in super::both_protocols(rtts_ms) {
        for pattern in [Pattern::Sequential, Pattern::Random] {
            cells.push((rtt, proto, pattern, true)); // read
            cells.push((rtt, proto, pattern, false)); // write
        }
    }
    // Setup (file creation, mkfs) runs once per protocol under the
    // canonical LAN; the WAN RTT is a measure-phase knob applied when
    // each cell forks, so one setup serves the whole RTT sweep.
    Sweep::new(options).run_cells(
        "figure6",
        &cells,
        None,
        |&(rtt_ms, protocol, pattern, is_read), ctx| {
            let cfg = TestbedConfig::new(protocol);
            let key = if is_read {
                SetupKey::for_config(&cfg, &format!("data:fig6:read:{mb}"))
            } else {
                SetupKey::for_config(&cfg, "data:blank")
            };
            let tb = ctx.fork_with(
                key,
                |c| c.link = net::LinkParams::wan(SimDuration::from_millis(rtt_ms)),
                |setup_seed| {
                    let tb = Testbed::with_protocol_seeded(protocol, setup_seed);
                    if is_read {
                        let _ = write_file(&tb, "/f", mb, Pattern::Sequential);
                    }
                    tb
                },
            );
            let r = if is_read {
                read_file(&tb, "/f", mb, pattern)
            } else {
                write_file(&tb, "/w", mb, pattern)
            };
            ctx.absorb(&tb);
            LatencyPoint {
                protocol,
                pattern,
                is_read,
                rtt_ms,
                time: r.time,
            }
        },
    )
}

/// Renders [`figure6`]'s points as a table: one row per RTT.
pub fn figure6_table(data: &[LatencyPoint], mb: u64) -> Table {
    let mut t = Table::new(
        format!("Figure 6: completion time (s) vs RTT, {mb} MB file"),
        &[
            "RTT(ms)",
            "NFS seq read",
            "NFS rand read",
            "iSCSI seq read",
            "iSCSI rand read",
            "NFS seq write",
            "NFS rand write",
            "iSCSI seq write",
            "iSCSI rand write",
        ],
    );
    // Each RTT's eight points run NFS then iSCSI, sequential then
    // random, read then write; the table lists the reads first.
    for points in data.chunks(8) {
        let mut row = vec![points[0].rtt_ms.to_string()];
        row.extend([0, 2, 4, 6, 1, 3, 5, 7].map(|i| fmt_secs(points[i].time)));
        t.row(&row);
    }
    t
}

/// Renders the Figure 6 series as terminal plots (reads and writes),
/// from already-collected data.
pub(crate) fn figure6_plots(data: &[LatencyPoint]) -> (crate::Plot, crate::Plot) {
    let series = |proto, pattern, is_read: bool| -> Vec<(f64, f64)> {
        data.iter()
            .filter(|p| p.protocol == proto && p.pattern == pattern && p.is_read == is_read)
            .map(|p| (simkit::units::to_f64(p.rtt_ms), p.time.as_secs_f64()))
            .collect()
    };
    let mut reads = crate::Plot::new("Figure 6(a): reads vs RTT", "RTT ms", "seconds");
    let mut writes = crate::Plot::new("Figure 6(b): writes vs RTT", "RTT ms", "seconds");
    for (label, proto, pattern) in [
        ("NFS seq", Protocol::NfsV3, Pattern::Sequential),
        ("NFS rand", Protocol::NfsV3, Pattern::Random),
        ("iSCSI seq", Protocol::Iscsi, Pattern::Sequential),
        ("iSCSI rand", Protocol::Iscsi, Pattern::Random),
    ] {
        reads.series(label, series(proto, pattern, true));
        writes.series(label, series(proto, pattern, false));
    }
    (reads, writes)
}

/// One Figure-6-under-TCP sample: completion time plus the
/// retransmission evidence the flow model produces on its own.
#[derive(Debug, Clone, Copy)]
pub struct TcpLatencyPoint {
    /// Protocol measured.
    pub protocol: Protocol,
    /// Configured round-trip time (ms).
    pub rtt_ms: u64,
    /// Sequential-write completion time.
    pub time: SimDuration,
    /// RPC-layer duplicate requests (`proto.nfs.retrans`) — the §4.6
    /// premature-retransmission cliff, emerging here from modeled
    /// queueing delay rather than an injected jitter parameter.
    pub rpc_retransmits: u64,
    /// TCP segments the modeled flows retransmitted after tail drops
    /// or timeouts (`net.tcp.retx_segs`).
    pub tcp_retx_segs: u64,
}

/// **Figure 6 under the modeled TCP transport**: sequential-write
/// completion vs RTT with [`net::TransportModel::Tcp`] selected, for
/// NFS v3 and iSCSI. Writes are the interesting direction: the async
/// write-back pipeline issues bursts back-to-back, so at wide-area
/// RTTs the bottleneck queue overflows, flows stall in RTO, and the
/// RPC layer re-sends requests whose replies are merely late — the
/// paper's §4.6 behaviour, reproduced without any loss parameter.
/// Render the data with [`figure6_tcp_table`].
pub fn figure6_tcp(
    options: RunOptions,
    rtts_ms: &[u64],
    mb: u64,
) -> (Vec<TcpLatencyPoint>, RunReport) {
    let cells = super::both_protocols(rtts_ms);
    // Setup is shared with the pipe-model Figure 6: the key tags the
    // *default* config, and both the WAN RTT and the transport model
    // are measure-phase knobs applied when the cell forks.
    Sweep::new(options).run_cells("figure6_tcp", &cells, None, |&(rtt_ms, protocol), ctx| {
        let cfg = TestbedConfig::new(protocol);
        let key = SetupKey::for_config(&cfg, "data:blank");
        let tb = ctx.fork_with(
            key,
            |c| {
                c.link = net::LinkParams::wan(SimDuration::from_millis(rtt_ms))
                    .with_transport(net::TransportModel::Tcp { connections: 1 });
            },
            |setup_seed| Testbed::with_protocol_seeded(protocol, setup_seed),
        );
        let c = tb.sim().counters();
        let rpc0 = c.get("proto.nfs.retrans");
        let tcp0 = c.get("net.tcp.retx_segs");
        let r = write_file(&tb, "/w", mb, Pattern::Sequential);
        let point = TcpLatencyPoint {
            protocol,
            rtt_ms,
            time: r.time,
            rpc_retransmits: c.get("proto.nfs.retrans") - rpc0,
            tcp_retx_segs: c.get("net.tcp.retx_segs") - tcp0,
        };
        ctx.absorb(&tb);
        point
    })
}

/// Renders [`figure6_tcp`]'s points as a table: one row per RTT.
pub fn figure6_tcp_table(data: &[TcpLatencyPoint], mb: u64) -> Table {
    let mut t = Table::new(
        format!("Figure 6 under TCP: {mb} MB sequential write vs RTT (modeled flows)"),
        &[
            "RTT(ms)",
            "NFS write",
            "NFS rpc retrans",
            "NFS tcp retx",
            "iSCSI write",
            "iSCSI tcp retx",
        ],
    );
    for pair in data.chunks(2) {
        let (nfs, scsi) = (pair[0], pair[1]);
        t.row(&[
            nfs.rtt_ms.to_string(),
            fmt_secs(nfs.time),
            nfs.rpc_retransmits.to_string(),
            nfs.tcp_retx_segs.to_string(),
            fmt_secs(scsi.time),
            scsi.tcp_retx_segs.to_string(),
        ]);
    }
    t
}

/// The iSCSI MC/S comparison (Kumar et al.): the `(write, read)` times
/// of an `mb`-megabyte sequential transfer over a `rtt_ms` modeled-TCP
/// link, logged in with 1 and then 4 connections (the link sets the
/// count; see `Testbed::session_params`).
pub(crate) fn mcs_pair(mb: u64, rtt_ms: u64) -> [(SimDuration, SimDuration); 2] {
    [1, 4].map(|connections| {
        let mut cfg = TestbedConfig::new(Protocol::Iscsi);
        cfg.link = net::LinkParams::wan(SimDuration::from_millis(rtt_ms))
            .with_transport(net::TransportModel::Tcp { connections });
        let tb = Testbed::build(cfg);
        let w = write_file(&tb, "/f", mb, Pattern::Sequential);
        let r = read_file(&tb, "/f", mb, Pattern::Sequential);
        (w.time, r.time)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mcs_connections_change_iscsi_sequential_transfer_on_a_congested_link() {
        let [one, four] = mcs_pair(4, 20);
        assert_ne!(
            one, four,
            "MC/S 1 -> 4 connections left the (write, read) times unchanged"
        );
    }

    #[test]
    fn tcp_sweep_retransmits_emerge_at_wide_area_rtt() {
        // No loss parameter, no injected jitter: at 90 ms the write
        // bursts overflow the modeled bottleneck queue on their own.
        let (data, _) = figure6_tcp(RunOptions::default(), &[90], 8);
        let nfs = data
            .iter()
            .find(|p| p.protocol == Protocol::NfsV3)
            .expect("nfs cell");
        assert!(
            nfs.tcp_retx_segs > 0,
            "queue overflow must force TCP retransmits at 90 ms"
        );
        assert!(
            nfs.rpc_retransmits > 0,
            "late replies must trip the RPC timer (§4.6 cliff)"
        );
        let scsi = data
            .iter()
            .find(|p| p.protocol == Protocol::Iscsi)
            .expect("iscsi cell");
        assert!(scsi.time > SimDuration::ZERO);
    }

    #[test]
    fn pipe_and_tcp_figure6_share_setup_snapshots() {
        // Both sweeps key setup off the default config, so the blank
        // write testbed is captured once; the transport is purely a
        // fork-time knob.
        let cfg = TestbedConfig::new(Protocol::NfsV3);
        let key = SetupKey::for_config(&cfg, "data:blank");
        let mut tcp_cfg = cfg;
        tcp_cfg.link = net::LinkParams::wan(SimDuration::from_millis(50))
            .with_transport(net::TransportModel::Tcp { connections: 4 });
        let tcp_key = SetupKey::for_config(&tcp_cfg, "data:blank");
        assert_ne!(
            key, tcp_key,
            "a TCP-transport config is a different setup identity"
        );
    }
}
