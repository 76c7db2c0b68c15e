//! Congestion benchmark for the modeled TCP transport: the Figure-6
//! WAN sweep with [`net::TransportModel::Tcp`] selected, the iSCSI
//! MC/S connection comparison on a congested link, and a small
//! client-scaling curve under congestion. Writes `BENCH_tcp.json`
//! (and stdout).
//!
//! ```text
//! tcp_bench [--quick] [--out PATH]
//! ```
//!
//! Two contracts are asserted in-binary and recorded as flags for CI:
//!
//! * `emergent_retransmits` — at the widest RTT the NFS sweep cell
//!   shows RPC-layer retransmits *and* TCP segment retransmits with
//!   no loss parameter and no injected jitter: the write-back bursts
//!   overflow the modeled bottleneck queue, flows stall in RTO, and
//!   replies outlive the RPC timer (the paper's §4.6 cliff).
//! * `mcs_throughput_changes` — logging in with 4 connections (MC/S)
//!   instead of 1 changes iSCSI sequential transfer times on the
//!   congested link, because data PDUs stripe across flows with
//!   per-connection allegiance.
//!
//! Everything recorded is virtual-time data from the deterministic
//! simulation, so the committed file is reproducible bit-for-bit on
//! any host and CI diffs the regenerated copy against it.

use ipstorage_core::experiments::{data, scale};
use ipstorage_core::{Protocol, RunOptions, Testbed, TestbedConfig};
use simkit::{json, Json, SimDuration};

fn main() {
    let quick = bench::flag("--quick");

    // Figure 6 under TCP: sequential write vs RTT, single connection.
    let (rtts, mb): (&[u64], u64) = if quick {
        (&[10, 90], 4)
    } else {
        (&[10, 30, 50, 70, 90], 8)
    };
    eprintln!("tcp_bench: figure6 sweep rtts={rtts:?} x {{NFSv3, iSCSI}}, {mb} MB writes");
    let (sweep, _) = data::figure6_tcp(RunOptions::default(), rtts, mb, 1);
    let max_rtt = *rtts.iter().max().expect("nonempty sweep");
    let cliff = sweep
        .iter()
        .find(|p| p.protocol == Protocol::NfsV3 && p.rtt_ms == max_rtt)
        .expect("nfs cell at the widest RTT");
    let emergent = cliff.rpc_retransmits > 0 && cliff.tcp_retx_segs > 0;
    assert!(
        emergent,
        "expected emergent retransmits at {max_rtt} ms: rpc={} tcp={}",
        cliff.rpc_retransmits, cliff.tcp_retx_segs
    );

    // MC/S: one congested-link iSCSI transfer pair per connection
    // count. The link carries the transport model, so the testbed's
    // session logs in with matching connections (see
    // `Testbed::session_params`).
    let mcs_mb = if quick { 4 } else { 8 };
    let mcs = |conns: u32| {
        let mut cfg = TestbedConfig::new(Protocol::Iscsi);
        cfg.link = net::LinkParams::wan(SimDuration::from_millis(20))
            .with_transport(net::TransportModel::Tcp { connections: conns });
        let tb = Testbed::build(cfg);
        let w = data::write_file(&tb, "/f", mcs_mb, data::Pattern::Sequential);
        let r = data::read_file(&tb, "/f", mcs_mb, data::Pattern::Sequential);
        (w.time, r.time)
    };
    eprintln!("tcp_bench: iSCSI MC/S comparison, {mcs_mb} MB sequential at 20 ms");
    let (w1, r1) = mcs(1);
    let (w4, r4) = mcs(4);
    let mcs_changes = w1 != w4 || r1 != r4;
    assert!(
        mcs_changes,
        "MC/S 1 -> 4 connections left transfer times unchanged: write {w1:?}, read {r1:?}"
    );

    // Scale under congestion: both protocols' flows contending for
    // one shallow bottleneck queue.
    let (counts, files, txns): (&[usize], usize, usize) = if quick {
        (&[1, 2], 100, 200)
    } else {
        (&[1, 2, 4], 200, 500)
    };
    let congested = net::LinkParams::wan(SimDuration::from_millis(20))
        .with_transport(net::TransportModel::Tcp { connections: 1 });
    eprintln!("tcp_bench: congested scale N={counts:?} x {{NFSv3, iSCSI}}");
    let (runs, _) = scale::scale(RunOptions::default(), counts, files, txns, Some(congested));

    let sweep_cells = sweep.iter().map(|p| {
        json!({
            "protocol": format!("{:?}", p.protocol).to_lowercase(),
            "rtt_ms": p.rtt_ms,
            "write_ns": p.time.as_nanos(),
            "rpc_retransmits": p.rpc_retransmits,
            "tcp_retx_segs": p.tcp_retx_segs,
        })
    });
    let scale_cells = runs.iter().map(|r| {
        json!({
            "protocol": format!("{:?}", r.protocol).to_lowercase(),
            "clients": r.clients,
            "ops_per_sec": Json::Num(format!("{:.2}", r.ops_per_sec)),
            "completion_ns": r.completion.as_nanos(),
            "tcp_retx_segs": r.tcp_retx_segs,
        })
    });
    let doc = json!({
        "bench": "tcp",
        "quick": quick,
        "emergent_retransmits": emergent,
        "mcs_throughput_changes": mcs_changes,
        "mcs": {
            "mb": mcs_mb,
            "rtt_ms": 20u64,
            "conn1": { "write_ns": w1.as_nanos(), "read_ns": r1.as_nanos() },
            "conn4": { "write_ns": w4.as_nanos(), "read_ns": r4.as_nanos() },
        },
        "figure6": { "mb": mb, "connections": 1u64, "cells": sweep_cells.collect::<Json>() },
        "scale": { "files": files, "transactions": txns, "cells": scale_cells.collect::<Json>() },
    });
    bench::publish("BENCH_tcp.json", &doc);
}
