//! Micro-benchmarks (paper §4): per-syscall network message counts.
//!
//! Methodology, after §3.2/§4.1: a *cold* measurement unmounts and
//! remounts the client between invocations; a *warm* measurement first
//! runs the call once, then measures a second invocation with similar
//! (but not identical) parameters — a different name in the same
//! directory. Every measurement window includes a settle period so the
//! ext3 journal's deferred commit lands in the count, as it does in
//! the paper's Ethereal traces.

use crate::report::RunReport;
use crate::snapshot::{SetupKey, SnapshotCache};
use crate::sweep::{CellCtx, RunOptions, Sweep};
use crate::table::Table;
use crate::{Protocol, Testbed, TestbedConfig};
use std::collections::BTreeMap;
use vfs::FileSystem;

/// The sixteen system calls of the paper's Table 1 (plus `rename`,
/// which Table 2 reports as well), in table order.
pub const SYSCALLS: [&str; 17] = [
    "mkdir", "chdir", "readdir", "symlink", "readlink", "unlink", "rmdir", "creat", "open", "link",
    "rename", "trunc", "chmod", "chown", "access", "stat", "utime",
];

/// Cache state of a measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheState {
    /// Fresh mount before the call.
    Cold,
    /// A similar call warmed the caches moments before.
    Warm,
}

/// Result matrix: `(syscall, depth, protocol) → messages`.
pub(crate) type MicroMatrix = BTreeMap<(String, u32, &'static str), u64>;

fn depth_prefix(depth: u32) -> String {
    let mut p = String::new();
    for i in 1..=depth {
        p.push_str(&format!("/d{i}"));
    }
    p
}

/// Builds the nested directories and per-op target objects at `depth`.
fn prepare(tb: &Testbed, depth: u32) {
    let fs = tb.fs();
    let mut cur = String::new();
    for i in 1..=depth {
        cur.push_str(&format!("/d{i}"));
        fs.mkdir(&cur).unwrap();
    }
    let p = depth_prefix(depth);
    for x in ["a", "b"] {
        fs.mkdir(&format!("{p}/somedir_{x}")).unwrap();
        fs.mkdir(&format!("{p}/listdir_{x}")).unwrap();
        fs.creat(&format!("{p}/listdir_{x}/entry")).unwrap();
        fs.mkdir(&format!("{p}/emptydir_{x}")).unwrap();
        fs.symlink("sometarget", &format!("{p}/slink_{x}")).unwrap();
        for f in [
            "unlinkme",
            "openme",
            "src",
            "ren",
            "tfile",
            "file_chmod",
            "file_chown",
            "file_access",
            "file_stat",
            "file_utime",
        ] {
            let path = format!("{p}/{f}_{x}");
            fs.creat(&path).unwrap();
            let fd = fs.open(&path).unwrap();
            fs.write(fd, 0, &[7u8; 2048]).unwrap();
            fs.close(fd).unwrap();
        }
    }
    tb.settle();
}

/// Runs one instance of `op` using the `x` ∈ {"a","b"} object set.
fn run_op(fs: &dyn FileSystem, op: &str, depth: u32, x: &str) {
    let p = depth_prefix(depth);
    match op {
        "mkdir" => fs.mkdir(&format!("{p}/newdir_{x}")).unwrap(),
        "chdir" => {
            fs.chdir(&format!("{p}/somedir_{x}")).unwrap();
            fs.chdir("/").unwrap();
        }
        "readdir" => {
            fs.readdir(&format!("{p}/listdir_{x}")).unwrap();
        }
        "symlink" => fs.symlink("t", &format!("{p}/newlink_{x}")).unwrap(),
        "readlink" => {
            fs.readlink(&format!("{p}/slink_{x}")).unwrap();
        }
        "unlink" => fs.unlink(&format!("{p}/unlinkme_{x}")).unwrap(),
        "rmdir" => fs.rmdir(&format!("{p}/emptydir_{x}")).unwrap(),
        "creat" => fs.creat(&format!("{p}/newfile_{x}")).unwrap(),
        "open" => {
            let fd = fs.open(&format!("{p}/openme_{x}")).unwrap();
            fs.close(fd).unwrap();
        }
        "link" => fs
            .link(&format!("{p}/src_{x}"), &format!("{p}/newhard_{x}"))
            .unwrap(),
        "rename" => fs
            .rename(&format!("{p}/ren_{x}"), &format!("{p}/renamed_{x}"))
            .unwrap(),
        "trunc" => fs.truncate(&format!("{p}/tfile_{x}"), 100).unwrap(),
        "chmod" => fs.chmod(&format!("{p}/file_chmod_{x}"), 0o600).unwrap(),
        "chown" => fs.chown(&format!("{p}/file_chown_{x}"), 1, 1).unwrap(),
        "access" => fs.access(&format!("{p}/file_access_{x}")).unwrap(),
        "stat" => {
            fs.stat(&format!("{p}/file_stat_{x}")).unwrap();
        }
        "utime" => fs.utime(&format!("{p}/file_utime_{x}")).unwrap(),
        other => panic!("unknown op {other}"),
    }
}

/// Measures the message count of one syscall invocation on the
/// default (seed-42) testbed.
pub fn measure_op(protocol: Protocol, op: &str, depth: u32, state: CacheState) -> u64 {
    let cache = SnapshotCache::new();
    measure_cell(protocol, op, depth, state, &mut CellCtx::standalone(&cache))
}

/// [`measure_op`] as a sweep cell: forked from the sweep's setup for
/// `(protocol, depth)` under the cell's seed, absorbed into its report.
fn measure_cell(
    protocol: Protocol,
    op: &str,
    depth: u32,
    state: CacheState,
    ctx: &mut CellCtx<'_>,
) -> u64 {
    // The prepared tree depends only on (protocol, depth): all
    // seventeen syscall cells at a depth fork one captured setup.
    let cfg = TestbedConfig::new(protocol);
    let key = SetupKey::for_config(&cfg, &format!("micro:prepare:d{depth}"));
    let tb = ctx.fork(key, |setup_seed| {
        let tb = Testbed::with_protocol_seeded(protocol, setup_seed);
        prepare(&tb, depth);
        tb
    });
    tb.cold_caches();
    let msgs = match state {
        CacheState::Cold => {
            let before = tb.messages();
            run_op(tb.fs(), op, depth, "a");
            tb.settle();
            tb.messages() - before
        }
        CacheState::Warm => {
            run_op(tb.fs(), op, depth, "a");
            let before = tb.messages();
            run_op(tb.fs(), op, depth, "b");
            tb.settle();
            tb.messages() - before
        }
    };
    ctx.absorb(&tb);
    msgs
}

/// The matrix over `ops` × all protocols × `depths`, plus the merged
/// run report under `name`: one sweep cell per (depth, protocol, op).
/// Tables 2 and 3 are this over all of [`SYSCALLS`]; the parallel-sweep
/// determinism tests drive it with a trimmed op set so `jobs = 1` vs
/// `jobs = N` byte-comparisons stay fast.
pub fn matrix(
    name: &str,
    options: RunOptions,
    state: CacheState,
    ops: &[&'static str],
    depths: &[u32],
) -> (MicroMatrix, RunReport) {
    let mut cells: Vec<(u32, Protocol, &'static str)> = Vec::new();
    for &depth in depths {
        for proto in Protocol::ALL {
            for &op in ops {
                cells.push((depth, proto, op));
            }
        }
    }
    let (msgs, report) =
        Sweep::new(options).run_cells(name, &cells, None, |&(depth, proto, op), ctx| {
            measure_cell(proto, op, depth, state, ctx)
        });
    let m = cells
        .iter()
        .zip(msgs)
        .map(|(&(depth, proto, op), v)| ((op.to_string(), depth, proto.label()), v))
        .collect();
    (m, report)
}

/// Tables 2 and 3: the full syscall matrix at depths 0 and 3.
fn table_micro(
    name: &str,
    title: &str,
    options: RunOptions,
    state: CacheState,
) -> (Table, RunReport) {
    let depths = [0, 3];
    let (m, report) = matrix(name, options, state, &SYSCALLS, &depths);
    let mut headers: Vec<String> = vec!["op".into()];
    for d in depths {
        for p in Protocol::ALL {
            headers.push(format!("{}(d{d})", p.label()));
        }
    }
    let hdr: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(title, &hdr);
    for op in SYSCALLS {
        let mut row = vec![op.to_string()];
        for d in depths {
            for p in Protocol::ALL {
                row.push(m[&(op.to_string(), d, p.label())].to_string());
            }
        }
        t.row(&row);
    }
    (t, report)
}

/// **Table 2**: cold-cache network message overheads at directory
/// depths 0 and 3.
pub fn table2(options: RunOptions) -> (Table, RunReport) {
    table_micro(
        "table2",
        "Table 2: network messages per system call (cold cache)",
        options,
        CacheState::Cold,
    )
}

/// **Table 3**: warm-cache network message overheads.
pub(crate) fn table3(options: RunOptions) -> (Table, RunReport) {
    table_micro(
        "table3",
        "Table 3: network messages per system call (warm cache)",
        options,
        CacheState::Warm,
    )
}

/// **Figure 3**: iSCSI meta-data update aggregation — amortized
/// messages per operation for batch sizes 1..=1024 (rows = batch
/// size, columns = op).
pub(crate) fn figure3(options: RunOptions) -> (Table, RunReport) {
    const OPS: [&str; 8] = [
        "creat", "link", "rename", "chmod", "stat", "access", "write", "mkdir",
    ];
    let batches: Vec<u32> = (0..=10).map(|e| 1 << e).collect();
    let mut cells: Vec<(&'static str, u32)> = Vec::new();
    for op in OPS {
        for &batch in &batches {
            cells.push((op, batch));
        }
    }
    // A cell's work scales with its batch size: claim the big ones
    // first so the 1024-op cells never anchor the tail of the sweep.
    let (msgs, report) = Sweep::new(options).run_cells(
        "figure3",
        &cells,
        Some(|&(_, batch)| u64::from(batch)),
        |&(op, batch), ctx| {
            // Ops that mutate pre-existing files share a pre-file-pool
            // setup keyed only by the pool size; creat/mkdir share the
            // empty pool.
            let pre = match op {
                "link" | "rename" | "chmod" | "stat" | "access" | "write" => batch,
                _ => 0,
            };
            let cfg = TestbedConfig::new(Protocol::Iscsi);
            let key = SetupKey::for_config(&cfg, &format!("micro:fig3:pre{pre}"));
            let tb = ctx.fork(key, |setup_seed| {
                let tb = Testbed::with_protocol_seeded(Protocol::Iscsi, setup_seed);
                let fs = tb.fs();
                for i in 0..pre {
                    fs.creat(&format!("/pre{i}")).unwrap();
                }
                tb.settle();
                tb
            });
            let fs = tb.fs();
            tb.cold_caches();
            let before = tb.messages();
            for i in 0..batch {
                match op {
                    "creat" => fs.creat(&format!("/n{i}")).unwrap(),
                    "mkdir" => fs.mkdir(&format!("/m{i}")).unwrap(),
                    "link" => fs.link(&format!("/pre{i}"), &format!("/h{i}")).unwrap(),
                    "rename" => fs.rename(&format!("/pre{i}"), &format!("/r{i}")).unwrap(),
                    "chmod" => fs.chmod(&format!("/pre{i}"), 0o600).unwrap(),
                    "stat" => {
                        fs.stat(&format!("/pre{i}")).unwrap();
                    }
                    "access" => fs.access(&format!("/pre{i}")).unwrap(),
                    "write" => {
                        let fd = fs.open(&format!("/pre{i}")).unwrap();
                        fs.write(fd, 0, &[1u8; 512]).unwrap();
                        fs.close(fd).unwrap();
                    }
                    other => panic!("unknown op {other}"),
                }
            }
            tb.settle();
            ctx.absorb(&tb);
            tb.messages() - before
        },
    );
    let mut hdr = vec!["batch"];
    hdr.extend(OPS);
    let mut t = Table::new("Figure 3: iSCSI amortized messages/op vs batch size", &hdr);
    for (row, &batch) in batches.iter().enumerate() {
        let mut cols = vec![batch.to_string()];
        for col in 0..OPS.len() {
            let per_op = simkit::units::ratio(msgs[col * batches.len() + row], u64::from(batch));
            cols.push(crate::table::fmt_f(per_op));
        }
        t.row(&cols);
    }
    (t, report)
}

/// **Figure 4**: messages vs directory depth (0..=16) for mkdir,
/// chdir, readdir; cold and warm (one row per op/state/protocol).
pub(crate) fn figure4(options: RunOptions) -> (Table, RunReport) {
    const DEPTHS: [u32; 6] = [0, 2, 4, 8, 12, 16];
    let mut cells: Vec<(&'static str, CacheState, Protocol, u32)> = Vec::new();
    for op in ["mkdir", "chdir", "readdir"] {
        for state in [CacheState::Cold, CacheState::Warm] {
            for proto in Protocol::ALL {
                for d in DEPTHS {
                    cells.push((op, state, proto, d));
                }
            }
        }
    }
    let (msgs, report) =
        Sweep::new(options).run_cells("figure4", &cells, None, |&(op, state, proto, d), ctx| {
            measure_cell(proto, op, d, state, ctx)
        });
    let mut t = Table::new(
        "Figure 4: messages vs directory depth (mkdir/chdir/readdir)",
        &["op", "cache", "proto", "d0", "d2", "d4", "d8", "d12", "d16"],
    );
    // Depth is the innermost axis of the cell list: one row per chunk.
    for (row, msgs) in cells.chunks(DEPTHS.len()).zip(msgs.chunks(DEPTHS.len())) {
        let (op, state, proto, _) = row[0];
        let mut cols = vec![
            op.to_string(),
            format!("{state:?}"),
            proto.label().to_string(),
        ];
        cols.extend(msgs.iter().map(u64::to_string));
        t.row(&cols);
    }
    (t, report)
}

/// **Figure 5**: messages for read/write calls of 128 B .. 64 KB.
/// Modes: cold reads, warm reads, cold writes.
pub(crate) fn figure5(options: RunOptions) -> (Table, RunReport) {
    let sizes: Vec<u64> = (7..=16).map(|e| 1u64 << e).collect(); // 128 B .. 64 KB
    let mut cells: Vec<(Protocol, u64)> = Vec::new();
    for proto in Protocol::ALL {
        for &size in &sizes {
            cells.push((proto, size));
        }
    }
    // One cell = one (proto, size): a read testbed (cold + warm read)
    // then a write testbed. All ten sizes of a protocol fork the same
    // pair of setups — the 64 KB source file and the empty target.
    let (msgs, report) =
        Sweep::new(options).run_cells("figure5", &cells, None, |&(proto, size), ctx| {
            let cfg = TestbedConfig::new(proto);

            // Cold read.
            let read_key = SetupKey::for_config(&cfg, "micro:fig5:read");
            let tb = ctx.fork(read_key, |setup_seed| {
                let tb = Testbed::with_protocol_seeded(proto, setup_seed);
                let fs = tb.fs();
                fs.creat("/f").unwrap();
                let fd = fs.open("/f").unwrap();
                fs.write(fd, 0, &vec![9u8; 65_536]).unwrap();
                fs.close(fd).unwrap();
                tb.settle();
                tb
            });
            let fs = tb.fs();
            tb.cold_caches();
            let fd = fs.open("/f").unwrap();
            let before = tb.messages();
            fs.read(fd, 0, size as usize).unwrap();
            tb.settle();
            let cold_read = tb.messages() - before;

            // Warm read: file fully cached first.
            let mut buf = [0u8; 8192];
            let mut off = 0u64;
            while off < 65_536 {
                fs.read_into(fd, off, &mut buf).unwrap();
                off += 8192;
            }
            let before = tb.messages();
            fs.read(fd, 0, size as usize).unwrap();
            tb.settle();
            let warm_read = tb.messages() - before;
            fs.close(fd).unwrap();
            ctx.absorb(&tb);

            // Cold write into a fresh file.
            let write_key = SetupKey::for_config(&cfg, "micro:fig5:write");
            let tb = ctx.fork(write_key, |setup_seed| {
                let tb = Testbed::with_protocol_seeded(proto, setup_seed);
                tb.fs().creat("/w").unwrap();
                tb.settle();
                tb
            });
            let fs = tb.fs();
            tb.cold_caches();
            let fd = fs.open("/w").unwrap();
            let before = tb.messages();
            fs.write(fd, 0, &vec![3u8; size as usize]).unwrap();
            tb.settle();
            let cold_write = tb.messages() - before;
            ctx.absorb(&tb);

            [cold_read, warm_read, cold_write]
        });
    let mut t = Table::new(
        "Figure 5: messages for reads/writes of varying size",
        &["mode", "size", "v2", "v3", "v4", "iSCSI"],
    );
    for (mode, name) in ["cold_read", "warm_read", "cold_write"].iter().enumerate() {
        for (i, size) in sizes.iter().enumerate() {
            let mut row = vec![name.to_string(), size.to_string()];
            for p in 0..Protocol::ALL.len() {
                row.push(msgs[p * sizes.len() + i][mode].to_string());
            }
            t.row(&row);
        }
    }
    (t, report)
}
