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
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations per iteration of `f`, after one warm-up call.
fn allocs_per_op(iters: u64, mut f: impl FnMut()) -> u64 {
    f();
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..iters {
        f();
    }
    (ALLOCS.load(Ordering::Relaxed) - before) / iters
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let jobs: usize = arg_after("--jobs")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1);
    let out_path = arg_after("--out").unwrap_or_else(|| "BENCH_sweep.json".into());

    eprintln!("sweep_bench: timing {SWEEP_CELLS}-cell sweep at jobs=1 and jobs={jobs}");
    let (warm_secs, _) = run_sweep(1); // warm-up (page cache, lazy statics)
    let (secs_1, json_1) = run_sweep(1);
    let (secs_n, json_n) = run_sweep(jobs);
    assert_eq!(
        json_1, json_n,
        "sweep output must be byte-identical across worker counts"
    );
    let _ = warm_secs;

    eprintln!("sweep_bench: probing hot-path allocations");
    let setattr = probe_nfs3_setattr();
    let warm_stat = probe_nfs3_warm_stat();
    let cold_read = probe_iscsi_cold_read();

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        concat!(
            "{{\"bench\":\"sweep\",",
            "\"host\":{{\"cores\":{cores},\"os\":\"{os}\",\"arch\":\"{arch}\"}},",
            "\"cells\":{cells},",
            "\"jobs1\":{{\"secs\":{s1:.4},\"cells_per_sec\":{c1:.2}}},",
            "\"jobsN\":{{\"jobs\":{jobs},\"secs\":{sn:.4},\"cells_per_sec\":{cn:.2}}},",
            "\"speedup\":{sp:.2},",
            "\"byte_identical\":true,",
            "\"allocs_per_op\":{{",
            "\"nfs3_setattr\":{{\"before\":{sa_b},\"after\":{sa}}},",
            "\"nfs3_warm_stat\":{{\"before\":{ws_b},\"after\":{ws}}},",
            "\"iscsi_cold_read_4k\":{{\"before\":{cr_b},\"after\":{cr}}}}},",
            "\"baseline_commit\":\"{base}\"}}"
        ),
        cores = cores,
        os = std::env::consts::OS,
        arch = std::env::consts::ARCH,
        cells = SWEEP_CELLS,
        s1 = secs_1,
        c1 = SWEEP_CELLS as f64 / secs_1,
        jobs = jobs,
        sn = secs_n,
        cn = SWEEP_CELLS as f64 / secs_n,
        sp = secs_1 / secs_n,
        sa_b = BASELINE_NFS3_SETATTR,
        sa = setattr,
        ws_b = BASELINE_NFS3_WARM_STAT,
        ws = warm_stat,
        cr_b = BASELINE_ISCSI_COLD_READ,
        cr = cold_read,
        base = BASELINE_COMMIT,
    );
    std::fs::write(&out_path, format!("{json}\n")).expect("write BENCH_sweep.json");
    println!("{json}");
    eprintln!("sweep_bench: wrote {out_path}");
}

/// Pre-diet allocation counts, measured once by running these same
/// probes against the commit below (the tree before the allocation
/// diet landed). Committed as constants so every regeneration of
/// `BENCH_sweep.json` carries the before/after comparison.
const BASELINE_COMMIT: &str = "3ff09d8";
const BASELINE_NFS3_SETATTR: u64 = 21;
const BASELINE_NFS3_WARM_STAT: u64 = 12;
const BASELINE_ISCSI_COLD_READ: u64 = 10;
