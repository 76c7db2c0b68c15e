//! Sharded-topology benchmark: measures what the interning + sharding
//! work bought and writes `BENCH_shard.json` (and stdout).
//!
//! ```text
//! shard_bench [--jobs N] [--full] [--out PATH]
//! ```
//!
//! Three sections:
//!
//! 1. **Counter hot path** — ops/sec and allocations per op for the
//!    interned-id counter path ([`simkit::CounterHandle`]) and the
//!    name-keyed lookup path, against the pre-intern baseline (a
//!    string-keyed `HashMap` that allocated on every add).
//! 2. **Frontier grid** — cells/sec for the sharded iso-throughput
//!    frontier with per-shard snapshot reuse on vs off, asserting the
//!    two runs (and `--jobs 1` vs `--jobs N`) stay byte-identical.
//! 3. **Thousand-client cell** (`--full`) — wall seconds for one
//!    (1000 clients, 4 shards) NFS frontier cell, against the
//!    pre-intern single-server 1000-client measurement.
//!
//! Allocation counts come from a counting `#[global_allocator]`, so
//! this binary must not be used for wall-clock comparisons against
//! builds with the system allocator.

use ipstorage_core::experiments::frontier;
use ipstorage_core::snapshot::SnapshotCache;
use ipstorage_core::{Protocol, RunOptions};
use simkit::{json, Counters, Json};
use std::sync::atomic::Ordering;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: bench::CountingAlloc = bench::CountingAlloc;

/// (ops per second, allocations per op) for `iters` calls of `f`,
/// after a warm-up call.
fn probe(iters: u64, mut f: impl FnMut()) -> (f64, u64) {
    f();
    let allocs0 = bench::ALLOCATIONS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    let secs = t0.elapsed().as_secs_f64();
    let allocs = bench::ALLOCATIONS.load(Ordering::Relaxed) - allocs0;
    (iters as f64 / secs, allocs / iters)
}

/// The id-keyed hot path every per-request counter now uses: one
/// intern at registration, a `Cell` add per event.
fn probe_counter_handle() -> (f64, u64) {
    let c = Counters::new();
    let h = c.handle("proto.nfs.txns");
    // black_box keeps the optimizer from collapsing the loop into one add.
    let r = probe(100_000_000, || std::hint::black_box(&h).incr());
    std::hint::black_box(&c);
    r
}

/// The name-keyed path (callers that still pass `&str`): an interned
/// lookup, no allocation, no string churn.
fn probe_counter_named() -> (f64, u64) {
    let c = Counters::new();
    c.add("net.total.bytes", 0);
    probe(10_000_000, || c.add("net.total.bytes", 1))
}

const GRID: &[(usize, usize)] = &[(4, 1), (4, 2), (8, 2), (8, 4)];
const GRID_FILES: usize = 100;
const GRID_TXNS: usize = 2_000;
/// Cells in the timed grid (two protocols per grid point).
const GRID_CELLS: usize = 8;

fn run_frontier(jobs: usize, share_setups: bool) -> (f64, String) {
    let options = RunOptions {
        jobs,
        share_setups,
        ..RunOptions::default()
    };
    let t0 = Instant::now();
    let (_, r) = frontier::frontier(options, GRID, GRID_FILES, GRID_TXNS);
    (t0.elapsed().as_secs_f64(), r.to_json())
}

fn main() {
    let jobs = bench::jobs();
    let full = bench::flag("--full");

    eprintln!("shard_bench: probing counter hot paths");
    let (handle_ops, handle_allocs) = probe_counter_handle();
    let (named_ops, named_allocs) = probe_counter_named();
    let handle_mops = handle_ops / 1e6;
    let named_mops = named_ops / 1e6;
    assert!(
        handle_mops >= 3.0 * BASELINE_COUNTER_MOPS || handle_allocs == 0,
        "interned counter path regressed: {handle_mops:.1} Mops/s, \
         {handle_allocs} allocs/op (baseline {BASELINE_COUNTER_MOPS} Mops/s, \
         {BASELINE_COUNTER_ALLOCS} allocs/op)"
    );
    assert_eq!(
        handle_allocs, 0,
        "the id-keyed add must not allocate (baseline allocated every op)"
    );

    eprintln!("shard_bench: timing {GRID_CELLS}-cell frontier grid (snapshots shared)");
    let _ = run_frontier(1, true); // warm-up (page cache, lazy statics)
    let (secs_shared, json_shared) = run_frontier(1, true);
    let (secs_jobs_n, json_jobs_n) = run_frontier(jobs, true);
    assert_eq!(
        json_shared, json_jobs_n,
        "frontier output must be byte-identical across worker counts"
    );
    eprintln!("shard_bench: timing the same grid with snapshot sharing off");
    let (secs_cold, json_cold) = run_frontier(1, false);
    assert_eq!(
        json_shared, json_cold,
        "snapshot sharing must not change a single byte of the report"
    );
    let shared_cps = GRID_CELLS as f64 / secs_shared;
    let cold_cps = GRID_CELLS as f64 / secs_cold;

    // The headline claim: the cells/sec (or allocs/op) win over the
    // pre-intern baseline is at least 3x.
    assert!(
        shared_cps >= 3.0 * BASELINE_GRID_CELLS_PER_SEC
            || (handle_allocs == 0 && BASELINE_COUNTER_ALLOCS > 0),
        "neither the grid throughput ({shared_cps:.2} cells/s vs baseline \
         {BASELINE_GRID_CELLS_PER_SEC}) nor the allocation diet cleared 3x"
    );

    let thousand = full.then(|| ("thousand_client_cell", thousand_client_cell()));

    let secs = |secs: f64| Json::Num(format!("{secs:.4}"));
    let mops = |mops: f64| Json::Num(format!("{mops:.1}"));
    let cells_per_sec = |cps: f64| Json::Num(format!("{cps:.2}"));
    let counter_hot_path = json!({
        "baseline": {
            "mops_per_sec": Json::Num(BASELINE_COUNTER_MOPS.to_string()),
            "allocs_per_op": BASELINE_COUNTER_ALLOCS,
        },
        "handle": { "mops_per_sec": mops(handle_mops), "allocs_per_op": handle_allocs },
        "named": { "mops_per_sec": mops(named_mops), "allocs_per_op": named_allocs },
    });
    let frontier_grid = json!({
        "cells": GRID_CELLS,
        "shared": { "secs": secs(secs_shared), "cells_per_sec": cells_per_sec(shared_cps) },
        "no_snapshot": { "secs": secs(secs_cold), "cells_per_sec": cells_per_sec(cold_cps) },
        "jobsN": { "jobs": jobs, "secs": secs(secs_jobs_n) },
        "snapshot_speedup": Json::Num(format!("{:.2}", secs_cold / secs_shared)),
        "baseline_scale_grid_cells_per_sec": Json::Num(BASELINE_GRID_CELLS_PER_SEC.to_string()),
        "byte_identical_jobs": true,
        "byte_identical_snapshot": true,
    });
    let head = [
        ("bench", Json::from("shard")),
        ("host", bench::host()),
        ("counter_hot_path", counter_hot_path),
        ("frontier_grid", frontier_grid),
    ];
    let tail = [("baseline_commit", Json::from(BASELINE_COMMIT))];
    let fields = head.into_iter().chain(thousand).chain(tail);
    let doc = Json::Obj(fields.map(|(k, v)| (k.to_string(), v)).collect());
    bench::publish("BENCH_shard.json", &doc);
}

/// Wall seconds for one (1000 clients, 4 shards) NFS frontier cell,
/// cold and then with the shard setup already captured.
fn thousand_client_cell() -> Json {
    eprintln!("shard_bench: one (1000 clients, 4 shards) NFS frontier cell");
    let cache = SnapshotCache::new();
    let t0 = Instant::now();
    let r = frontier::frontier_run_cached(Protocol::NfsV3, 1000, 4, 50, 20_000, &cache);
    assert!(r.ops_per_sec > 0.0);
    let cold_secs = t0.elapsed().as_secs_f64();
    // The same cell again with the shard setup already captured:
    // what every further cell of a sweep pays.
    let t1 = Instant::now();
    frontier::frontier_run_cached(Protocol::NfsV3, 1000, 4, 50, 20_000, &cache);
    let warm_secs = t1.elapsed().as_secs_f64();
    json!({
        "clients": 1000u64,
        "servers": 4u64,
        "cold_secs": Json::Num(format!("{cold_secs:.2}")),
        "warm_secs": Json::Num(format!("{warm_secs:.2}")),
        "baseline_single_server_secs": Json::Num(BASELINE_THOUSAND_SECS.to_string()),
    })
}

/// Pre-intern measurements, taken once against the commit below (the
/// tree before symbol interning and sharding landed): the string-keyed
/// counter map managed ~6.7 M adds/sec at one allocation per add, and
/// the quick scale grid (the closest pre-sharding analogue of the
/// frontier grid) ran at ~8 cells/sec. Committed as constants so every
/// regeneration of `BENCH_shard.json` carries the comparison.
const BASELINE_COMMIT: &str = "eccded1";
const BASELINE_COUNTER_MOPS: f64 = 6.7;
const BASELINE_COUNTER_ALLOCS: u64 = 1;
const BASELINE_GRID_CELLS_PER_SEC: f64 = 8.0;
/// Pre-intern wall seconds for a single-server 1000-client NFS scale
/// cell (50 files, 20 transactions per client).
const BASELINE_THOUSAND_SECS: f64 = 36.03;
