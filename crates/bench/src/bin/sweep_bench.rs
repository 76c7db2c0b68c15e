//! Sweep-engine benchmark: measures the parallel sweep's throughput
//! (cells/sec at `--jobs 1` vs `--jobs N`) and the hot-path allocation
//! counts the PR 2 diet targets, then writes both to
//! `BENCH_sweep.json` (and stdout).
//!
//! ```text
//! sweep_bench [--jobs N] [--out PATH]
//! ```
//!
//! `N` defaults to the host's available parallelism. The committed
//! `BENCH_sweep.json` records whatever host it was generated on (see
//! its `host` section); CI regenerates it on the runner and uploads it
//! as an artifact.
//!
//! Allocation counts come from a counting `#[global_allocator]`, so
//! this binary must not be used for wall-clock comparisons against
//! builds with the system allocator.

use ipstorage_core::experiments::micro::{matrix, CacheState};
use ipstorage_core::{Protocol, RunOptions, Testbed};
use simkit::{json, Json};
use std::sync::atomic::Ordering;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: bench::CountingAlloc = bench::CountingAlloc;

/// Allocations per iteration of `f`, after one warm-up call.
fn allocs_per_op(iters: u64, mut f: impl FnMut()) -> u64 {
    f();
    let before = bench::ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..iters {
        f();
    }
    (bench::ALLOCATIONS.load(Ordering::Relaxed) - before) / iters
}

/// NFS v3 setattr path: every call crosses the wire, exercising the
/// RPC per-procedure counter/latency handles and channel accounting.
fn probe_nfs3_setattr() -> u64 {
    let tb = Testbed::with_protocol(Protocol::NfsV3);
    let fs = tb.fs();
    fs.creat("/probe").unwrap();
    tb.settle();
    let mut mode = 0o600u16;
    allocs_per_op(2000, || {
        mode ^= 0o011;
        fs.chmod("/probe", mode).unwrap();
    })
}

/// NFS v3 warm lookup/stat path: served from the client's attribute
/// and dentry caches, exercising the interned dentry map.
fn probe_nfs3_warm_stat() -> u64 {
    let tb = Testbed::with_protocol(Protocol::NfsV3);
    let fs = tb.fs();
    fs.creat("/probe").unwrap();
    tb.settle();
    allocs_per_op(2000, || {
        fs.stat("/probe").unwrap();
    })
}

/// iSCSI cold sequential read: each 4 KB chunk misses the client
/// cache and flows through the initiator's transact/read-into path.
fn probe_iscsi_cold_read() -> u64 {
    let tb = Testbed::with_protocol(Protocol::Iscsi);
    let fs = tb.fs();
    fs.creat("/probe").unwrap();
    let fd = fs.open("/probe").unwrap();
    for i in 0..2048u64 {
        fs.write(fd, i * 4096, &[5u8; 4096]).unwrap();
    }
    fs.fsync(fd).unwrap();
    tb.settle();
    tb.cold_caches();
    let fd = fs.open("/probe").unwrap();
    let mut off = 0u64;
    allocs_per_op(1024, || {
        fs.read(fd, off, 4096).unwrap();
        off += 4096;
    })
}

/// The timed sweep: a 40-cell cold micro-benchmark matrix.
fn run_sweep(jobs: usize) -> (f64, String) {
    let ops = ["mkdir", "stat", "creat", "open", "unlink"];
    let depths = [0, 2];
    let t0 = Instant::now();
    let options = RunOptions {
        jobs,
        ..RunOptions::default()
    };
    let (_, report) = matrix("micro", options, CacheState::Cold, &ops, &depths);
    (t0.elapsed().as_secs_f64(), report.to_json())
}

const SWEEP_CELLS: usize = 40;

fn main() {
    let jobs = bench::jobs();

    eprintln!("sweep_bench: timing {SWEEP_CELLS}-cell sweep at jobs=1 and jobs={jobs}");
    run_sweep(1); // warm-up (page cache, lazy statics)
    let (secs_1, json_1) = run_sweep(1);
    let (secs_n, json_n) = run_sweep(jobs);
    assert_eq!(
        json_1, json_n,
        "sweep output must be byte-identical across worker counts"
    );

    eprintln!("sweep_bench: probing hot-path allocations");
    let setattr = probe_nfs3_setattr();
    let warm_stat = probe_nfs3_warm_stat();
    let cold_read = probe_iscsi_cold_read();

    let cells_per_sec = |secs: f64| Json::Num(format!("{:.2}", SWEEP_CELLS as f64 / secs));
    let doc = json!({
        "bench": "sweep",
        "host": bench::host(),
        "cells": SWEEP_CELLS,
        "jobs1": {
            "secs": Json::Num(format!("{secs_1:.4}")),
            "cells_per_sec": cells_per_sec(secs_1),
        },
        "jobsN": {
            "jobs": jobs,
            "secs": Json::Num(format!("{secs_n:.4}")),
            "cells_per_sec": cells_per_sec(secs_n),
        },
        "speedup": Json::Num(format!("{:.2}", secs_1 / secs_n)),
        "byte_identical": true,
        "allocs_per_op": {
            "nfs3_setattr": { "before": BASELINE_NFS3_SETATTR, "after": setattr },
            "nfs3_warm_stat": { "before": BASELINE_NFS3_WARM_STAT, "after": warm_stat },
            "iscsi_cold_read_4k": { "before": BASELINE_ISCSI_COLD_READ, "after": cold_read },
        },
        "baseline_commit": BASELINE_COMMIT,
    });
    bench::publish("BENCH_sweep.json", &doc);
}

/// Pre-diet allocation counts, measured once by running these same
/// probes against the commit below (the tree before the allocation
/// diet landed). Committed as constants so every regeneration of
/// `BENCH_sweep.json` carries the before/after comparison.
const BASELINE_COMMIT: &str = "3ff09d8";
const BASELINE_NFS3_SETATTR: u64 = 21;
const BASELINE_NFS3_WARM_STAT: u64 = 12;
const BASELINE_ISCSI_COLD_READ: u64 = 10;
