//! Snapshot-cache benchmark: measures how much the setup-phase
//! snapshot cache saves on a setup-heavy sweep, and verifies the hard
//! invariant — snapshotting changes wall-clock only, never output —
//! then writes the results to `BENCH_snapshot.json` (and stdout).
//!
//! ```text
//! snapshot_bench [--jobs N] [--out PATH]
//! ```
//!
//! The workload is the worst honest case for cold setup: a PostMark
//! sweep over the *transaction count* with a large fixed file pool, so
//! every cell's setup (testbed construction + pool creation) is
//! identical and only the measured phase differs. With sharing off,
//! every cell rebuilds the pool; with sharing on, one snapshot per
//! protocol serves the whole sweep.
//!
//! Three sections land in the JSON:
//!
//! - `cold` / `shared`: wall-clock and setup-build counts for the
//!   sweep with snapshot sharing off and on, plus their ratio.
//! - `setup`: the per-cell prefix cost — a cold setup+capture vs a
//!   fork of the captured snapshot (the `fork_speedup` the cache
//!   converts cache hits into).
//! - `byte_identical`: shared-vs-cold and jobs-N-vs-jobs-1 sweeps
//!   produced the same results (also asserted, so a regression aborts
//!   the benchmark instead of publishing a lie).

use ipstorage_core::snapshot::{SetupKey, Snapshot};
use ipstorage_core::sweep::{CellCtx, Sweep};
use ipstorage_core::{Protocol, RunOptions, Testbed, TestbedConfig};
use simkit::{json, Json};
use std::time::Instant;
use workloads::{postmark, PostmarkConfig};

/// Pool size: big enough that setup dominates a short measured phase.
const FILES: usize = 2000;

/// The sweep axis: transaction counts, all sharing one pool per
/// protocol (the snapshot key excludes the transaction count).
const TXN_COUNTS: [usize; 6] = [250, 500, 750, 1000, 1250, 1500];

fn pm_cfg(transactions: usize) -> PostmarkConfig {
    PostmarkConfig {
        file_count: FILES,
        transactions,
        subdirs: (FILES / 500).clamp(10, 100),
        ..PostmarkConfig::default()
    }
}

/// Same identity Table 5 uses: everything that shapes the pool, minus
/// the transaction count.
fn pm_key(config: &TestbedConfig, pm: &PostmarkConfig) -> SetupKey {
    SetupKey::for_config(
        config,
        &format!(
            "pm:files{}:sub{}:sz{}-{}:seed{}",
            pm.file_count, pm.subdirs, pm.min_size, pm.max_size, pm.seed
        ),
    )
}

/// The setup half of a cell: a testbed with the PostMark pool built.
fn setup(protocol: Protocol, pm: PostmarkConfig, setup_seed: u64) -> Testbed {
    let tb = Testbed::with_protocol_seeded(protocol, setup_seed);
    let mut session = postmark::Session::new(tb.fs(), "/postmark", pm);
    session.setup().expect("postmark setup");
    tb
}

/// One cell: fork (or cold-build) the pool, run the transactions.
/// Returns the measured phase's virtual nanoseconds and messages —
/// the data whose bytes must not depend on snapshot sharing.
fn run_cell(protocol: Protocol, transactions: usize, ctx: &CellCtx<'_>) -> (u64, u64) {
    let config = TestbedConfig::new(protocol);
    let pm = pm_cfg(transactions);
    let tb = ctx.fork(pm_key(&config, &pm), move |s| setup(protocol, pm, s));
    let mut session = postmark::Session::new(tb.fs(), "/postmark", pm);
    session.resume_setup();
    let m0 = tb.messages();
    let t0 = tb.now();
    while session.step().expect("postmark") {}
    session.teardown().expect("postmark");
    let nanos = tb.now().since(t0).as_nanos();
    tb.settle();
    (nanos, tb.messages() - m0)
}

/// Runs the whole sweep; returns (wall secs, result bytes, setups
/// actually built).
fn run_sweep(jobs: usize, share: bool) -> (f64, String, usize) {
    let mut cells: Vec<(usize, Protocol)> = Vec::new();
    for &t in &TXN_COUNTS {
        for proto in [Protocol::NfsV3, Protocol::Iscsi] {
            cells.push((t, proto));
        }
    }
    let sweep = Sweep::new(RunOptions {
        jobs,
        share_setups: share,
        ..RunOptions::default()
    });
    let t0 = Instant::now();
    let (results, _) = sweep.run_cells("snapshot_bench", &cells, None, |&(txns, proto), ctx| {
        run_cell(proto, txns, ctx)
    });
    let secs = t0.elapsed().as_secs_f64();
    (secs, format!("{results:?}"), sweep.snapshots().builds())
}

fn main() {
    let jobs = bench::jobs();
    let cells = TXN_COUNTS.len() * 2;

    eprintln!("snapshot_bench: {cells}-cell PostMark sweep ({FILES} files), cold vs shared");
    let _ = run_sweep(1, true); // warm-up (page cache, lazy statics)
    let (cold_secs, cold_bytes, cold_setups) = run_sweep(1, false);
    let (shared_secs, shared_bytes, shared_setups) = run_sweep(1, true);
    let (jobsn_secs, jobsn_bytes, _) = run_sweep(jobs, true);
    let modes_identical = cold_bytes == shared_bytes;
    let jobs_identical = shared_bytes == jobsn_bytes;
    assert!(
        modes_identical,
        "snapshot sharing must not change sweep results"
    );
    assert!(jobs_identical, "worker count must not change sweep results");

    eprintln!("snapshot_bench: timing one cold setup+capture vs forks");
    let config = TestbedConfig::new(Protocol::NfsV3);
    let pm = pm_cfg(TXN_COUNTS[0]);
    let key = pm_key(&config, &pm);
    let t0 = Instant::now();
    let snap = Snapshot::capture(setup(Protocol::NfsV3, pm, key.setup_seed()), key);
    let cold_setup_secs = t0.elapsed().as_secs_f64();
    const FORKS: u64 = 20;
    let mut diverged = 0usize;
    let t0 = Instant::now();
    for i in 0..FORKS {
        let tb = snap.fork(1000 + i);
        diverged = tb.diverged_blocks();
    }
    let fork_secs = t0.elapsed().as_secs_f64() / FORKS as f64;

    let doc = json!({
        "bench": "snapshot",
        "host": bench::host(),
        "workload": {
            "files": FILES,
            "txn_counts": TXN_COUNTS.map(Json::from).into_iter().collect::<Json>(),
            "cells": cells,
        },
        "cold": { "secs": Json::Num(format!("{cold_secs:.4}")), "setups_built": cold_setups },
        "shared": { "secs": Json::Num(format!("{shared_secs:.4}")), "setups_built": shared_setups },
        "sweep_speedup": Json::Num(format!("{:.2}", cold_secs / shared_secs)),
        "setup": {
            "cold_capture_secs": Json::Num(format!("{cold_setup_secs:.5}")),
            "fork_secs": Json::Num(format!("{fork_secs:.5}")),
            "fork_speedup": Json::Num(format!("{:.1}", cold_setup_secs / fork_secs)),
        },
        "snapshot": {
            "touched_blocks": snap.touched_blocks(),
            "diverged_blocks_per_fork": diverged,
        },
        "jobsN": { "jobs": jobs, "secs": Json::Num(format!("{jobsn_secs:.4}")) },
        "byte_identical": { "snapshot_vs_cold": modes_identical, "jobsN_vs_jobs1": jobs_identical },
    });
    bench::publish("BENCH_snapshot.json", &doc);
}
