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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let jobs: usize = arg_after("--jobs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(cores)
        .max(1);
    let out_path = arg_after("--out").unwrap_or_else(|| "BENCH_snapshot.json".into());
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

    let json = format!(
        concat!(
            "{{\"bench\":\"snapshot\",",
            "\"host\":{{\"cores\":{cores},\"os\":\"{os}\",\"arch\":\"{arch}\"}},",
            "\"workload\":{{\"files\":{files},\"txn_counts\":{txns:?},\"cells\":{cells}}},",
            "\"cold\":{{\"secs\":{cs:.4},\"setups_built\":{cb}}},",
            "\"shared\":{{\"secs\":{ss:.4},\"setups_built\":{sb}}},",
            "\"sweep_speedup\":{sp:.2},",
            "\"setup\":{{\"cold_capture_secs\":{scs:.5},\"fork_secs\":{sfs:.5},",
            "\"fork_speedup\":{sfp:.1}}},",
            "\"snapshot\":{{\"touched_blocks\":{tblk},\"diverged_blocks_per_fork\":{dblk}}},",
            "\"jobsN\":{{\"jobs\":{jobs},\"secs\":{js:.4}}},",
            "\"byte_identical\":{{\"snapshot_vs_cold\":{bi_m},\"jobsN_vs_jobs1\":{bi_j}}}}}"
        ),
        cores = cores,
        os = std::env::consts::OS,
        arch = std::env::consts::ARCH,
        files = FILES,
        txns = TXN_COUNTS,
        cells = cells,
        cs = cold_secs,
        cb = cold_setups,
        ss = shared_secs,
        sb = shared_setups,
        sp = cold_secs / shared_secs,
        scs = cold_setup_secs,
        sfs = fork_secs,
        sfp = cold_setup_secs / fork_secs,
        tblk = snap.touched_blocks(),
        dblk = diverged,
        jobs = jobs,
        js = jobsn_secs,
        bi_m = modes_identical,
        bi_j = jobs_identical,
    );
    std::fs::write(&out_path, format!("{json}\n")).expect("write BENCH_snapshot.json");
    println!("{json}");
    eprintln!("snapshot_bench: wrote {out_path}");
}
