//! Client-scaling benchmark: runs the `scale` experiment's N = 1..16
//! grid for both protocols and writes the curve to `BENCH_scale.json`
//! (and stdout).
//!
//! ```text
//! scale_bench [--quick] [--out PATH]
//! ```
//!
//! Everything recorded is *virtual*-time data from the deterministic
//! simulation (aggregate transactions/sec under the overlap model,
//! server CPU utilization, messages per client, worst per-client p95),
//! so the committed file is reproducible bit-for-bit on any host and
//! needs no host section.

use ipstorage_core::experiments::scale;
use ipstorage_core::RunOptions;
use simkit::{json, Json};

fn main() {
    let quick = bench::flag("--quick");
    let (counts, files, txns): (&[usize], usize, usize) = if quick {
        (&[1, 2, 4], 200, 500)
    } else {
        (&[1, 2, 4, 8, 12, 16], 500, 2000)
    };
    eprintln!(
        "scale_bench: sweeping N={counts:?} x {{NFSv3, iSCSI}}, \
         {files} files / {txns} transactions per client"
    );
    let (runs, _) = scale::scale(RunOptions::default(), counts, files, txns, None);

    let cells = runs.iter().map(|r| {
        json!({
            "protocol": format!("{:?}", r.protocol).to_lowercase(),
            "clients": r.clients,
            "ops_per_sec": Json::Num(format!("{:.2}", r.ops_per_sec)),
            "server_cpu_pct": Json::Num(format!("{:.2}", r.server_cpu_pct)),
            "completion_ns": r.completion.as_nanos(),
            "msgs_per_client": r.msgs_per_client,
            "p95_us": r.p95_us,
            "getattrs": r.getattrs,
        })
    });
    let doc = json!({
        "bench": "scale",
        "files": files,
        "transactions": txns,
        "quick": quick,
        "cells": cells.collect::<Json>(),
    });
    bench::publish("BENCH_scale.json", &doc);
}
