//! Micro-benchmarks (paper §4): per-syscall network message counts.
//!
//! Methodology, after §3.2/§4.1: a *cold* measurement unmounts and
//! remounts the client between invocations; a *warm* measurement first
//! runs the call once, then measures a second invocation with similar
//! (but not identical) parameters — a different name in the same
//! directory. Every measurement window includes a settle period so the
//! ext3 journal's deferred commit lands in the count, as it does in
//! the paper's Ethereal traces.

use crate::report::{ReportBuilder, RunReport};
use crate::snapshot::{snapshot_cell, SetupKey, SnapshotCache};
use crate::sweep::Sweep;
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
pub type MicroMatrix = BTreeMap<(String, u32, &'static str), u64>;

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
    measure_op_seeded(
        protocol,
        op,
        depth,
        state,
        None,
        None,
        &SnapshotCache::new(),
    )
}

/// [`measure_op`] with an optional per-cell seed (sweep cells pass
/// their derived seed; the public path keeps the testbed default), an
/// optional report to fold the testbed's observability state into
/// before it is dropped, and the sweep's snapshot cache.
fn measure_op_seeded(
    protocol: Protocol,
    op: &str,
    depth: u32,
    state: CacheState,
    seed: Option<u64>,
    rb: Option<&mut ReportBuilder>,
    cache: &SnapshotCache,
) -> u64 {
    // The prepared tree depends only on (protocol, depth): all
    // seventeen syscall cells at a depth fork one captured setup.
    let cfg = TestbedConfig::new(protocol);
    let seed = seed.unwrap_or(cfg.seed);
    let key = SetupKey::for_config(&cfg, &format!("micro:prepare:d{depth}"));
    let tb = snapshot_cell(cache, key, seed, |setup_seed| {
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
    if let Some(rb) = rb {
        rb.absorb(&tb);
    }
    msgs
}

/// Full matrix over all syscalls, protocols, and the given depths.
pub fn matrix(state: CacheState, depths: &[u32]) -> MicroMatrix {
    matrix_into(state, depths, None)
}

fn matrix_into(state: CacheState, depths: &[u32], rb: Option<&mut ReportBuilder>) -> MicroMatrix {
    matrix_sweep(state, &SYSCALLS, depths, Sweep::new(), rb)
}

/// Matrix over an explicit syscall subset with an explicit worker
/// count, plus the merged run report. The parallel-sweep determinism
/// tests drive this directly with a trimmed op set so `jobs = 1` vs
/// `jobs = N` byte-comparisons stay fast.
pub fn matrix_report_ops(
    state: CacheState,
    ops: &[&'static str],
    depths: &[u32],
    jobs: usize,
) -> (MicroMatrix, RunReport) {
    let mut rb = ReportBuilder::new("micro");
    let m = matrix_sweep(state, ops, depths, Sweep::with_jobs(jobs), Some(&mut rb));
    (m, rb.finish())
}

/// One sweep cell per (depth, protocol, op); results and report
/// fragments merge in cell-index order, so output is independent of
/// the worker count.
fn matrix_sweep(
    state: CacheState,
    ops: &[&'static str],
    depths: &[u32],
    sweep: Sweep,
    mut rb: Option<&mut ReportBuilder>,
) -> MicroMatrix {
    let mut cells: Vec<(u32, Protocol, &'static str)> = Vec::new();
    for &depth in depths {
        for proto in Protocol::ALL {
            for &op in ops {
                cells.push((depth, proto, op));
            }
        }
    }
    let snaps = sweep.snapshots();
    let results = sweep.run(cells.len(), |cell| {
        let (depth, proto, op) = cells[cell.index];
        let mut frag = ReportBuilder::new("");
        let v = measure_op_seeded(
            proto,
            op,
            depth,
            state,
            Some(cell.seed),
            Some(&mut frag),
            snaps,
        );
        (v, frag.finish())
    });
    let mut m = MicroMatrix::new();
    for (&(depth, proto, op), (v, frag)) in cells.iter().zip(results) {
        m.insert((op.to_string(), depth, proto.label()), v);
        if let Some(rb) = rb.as_deref_mut() {
            rb.merge_report(&frag);
        }
    }
    m
}

fn render_micro(title: &str, m: &MicroMatrix, depths: &[u32]) -> Table {
    let mut headers: Vec<String> = vec!["op".into()];
    for &d in depths {
        for p in Protocol::ALL {
            headers.push(format!("{}(d{d})", p.label()));
        }
    }
    let hdr: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(title, &hdr);
    for op in SYSCALLS {
        let mut row = vec![op.to_string()];
        for &d in depths {
            for p in Protocol::ALL {
                row.push(m[&(op.to_string(), d, p.label())].to_string());
            }
        }
        t.row(&row);
    }
    t
}

/// **Table 2**: cold-cache network message overheads at directory
/// depths 0 and 3.
pub fn table2() -> Table {
    table2_report().0
}

/// [`table2`] plus its machine-readable run report.
pub fn table2_report() -> (Table, RunReport) {
    let mut rb = ReportBuilder::new("table2");
    let m = matrix_into(CacheState::Cold, &[0, 3], Some(&mut rb));
    let t = render_micro(
        "Table 2: network messages per system call (cold cache)",
        &m,
        &[0, 3],
    );
    (t, rb.finish())
}

/// **Table 3**: warm-cache network message overheads.
pub fn table3() -> Table {
    table3_report().0
}

/// [`table3`] plus its machine-readable run report.
pub fn table3_report() -> (Table, RunReport) {
    let mut rb = ReportBuilder::new("table3");
    let m = matrix_into(CacheState::Warm, &[0, 3], Some(&mut rb));
    let t = render_micro(
        "Table 3: network messages per system call (warm cache)",
        &m,
        &[0, 3],
    );
    (t, rb.finish())
}

/// **Figure 3**: iSCSI meta-data update aggregation — amortized
/// messages per operation for batch sizes 1..=1024. Returns
/// `(op, batch, messages/op)` points.
pub fn figure3_data() -> Vec<(String, u32, f64)> {
    figure3_data_into(None)
}

fn figure3_data_into(mut rb: Option<&mut ReportBuilder>) -> Vec<(String, u32, f64)> {
    let ops = [
        "creat", "link", "rename", "chmod", "stat", "access", "write", "mkdir",
    ];
    let mut cells: Vec<(&'static str, u32)> = Vec::new();
    for op in ops {
        let mut batch = 1u32;
        while batch <= 1024 {
            cells.push((op, batch));
            batch *= 2;
        }
    }
    // Ops that mutate pre-existing files share a pre-file-pool setup
    // keyed only by the pool size; creat/mkdir share the empty pool.
    let prefiles = |op: &str, batch: u32| match op {
        "link" | "rename" | "chmod" | "stat" | "access" | "write" => batch,
        _ => 0,
    };
    let sweep = Sweep::new();
    let snaps = sweep.snapshots();
    // A cell's work scales with its batch size: claim the big ones
    // first so the 1024-op cells never anchor the tail of the sweep.
    let costs: Vec<u64> = cells.iter().map(|&(_, b)| u64::from(b)).collect();
    let results = sweep.run_with_costs(cells.len(), &costs, |cell| {
        let (op, batch) = cells[cell.index];
        let pre = prefiles(op, batch);
        let cfg = TestbedConfig::new(Protocol::Iscsi);
        let key = SetupKey::for_config(&cfg, &format!("micro:fig3:pre{pre}"));
        let tb = snapshot_cell(snaps, key, cell.seed, |setup_seed| {
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
        let msgs = tb.messages() - before;
        let mut frag = ReportBuilder::new("");
        frag.absorb(&tb);
        (msgs, frag.finish())
    });
    let mut out = Vec::new();
    for (&(op, batch), (msgs, frag)) in cells.iter().zip(results) {
        if let Some(rb) = rb.as_deref_mut() {
            rb.merge_report(&frag);
        }
        out.push((
            op.to_string(),
            batch,
            simkit::units::ratio(msgs, batch as u64),
        ));
    }
    out
}

/// **Figure 3** rendered as a table (rows = batch size, columns = op).
pub fn figure3() -> Table {
    figure3_report().0
}

/// [`figure3`] plus its machine-readable run report.
pub fn figure3_report() -> (Table, RunReport) {
    let mut rb = ReportBuilder::new("figure3");
    let data = figure3_data_into(Some(&mut rb));
    (render_figure3(&data), rb.finish())
}

fn render_figure3(data: &[(String, u32, f64)]) -> Table {
    let ops = [
        "creat", "link", "rename", "chmod", "stat", "access", "write", "mkdir",
    ];
    let mut hdr = vec!["batch"];
    hdr.extend(ops);
    let mut t = Table::new("Figure 3: iSCSI amortized messages/op vs batch size", &hdr);
    let mut batch = 1u32;
    while batch <= 1024 {
        let mut row = vec![batch.to_string()];
        for op in ops {
            let v = data
                .iter()
                .find(|(o, b, _)| o == op && *b == batch)
                .map(|(_, _, v)| *v)
                .unwrap_or(0.0);
            row.push(crate::table::fmt_f(v));
        }
        t.row(&row);
        batch *= 2;
    }
    t
}

/// **Figure 4**: messages vs directory depth (0..=16) for mkdir,
/// chdir, readdir; cold and warm. Returns `(op, state, proto, depth,
/// messages)` points.
pub fn figure4_data(depths: &[u32]) -> Vec<(String, CacheState, &'static str, u32, u64)> {
    figure4_data_into(depths, None)
}

fn figure4_data_into(
    depths: &[u32],
    mut rb: Option<&mut ReportBuilder>,
) -> Vec<(String, CacheState, &'static str, u32, u64)> {
    let mut cells: Vec<(&'static str, CacheState, Protocol, u32)> = Vec::new();
    for op in ["mkdir", "chdir", "readdir"] {
        for state in [CacheState::Cold, CacheState::Warm] {
            for proto in Protocol::ALL {
                for &d in depths {
                    cells.push((op, state, proto, d));
                }
            }
        }
    }
    let sweep = Sweep::new();
    let snaps = sweep.snapshots();
    let results = sweep.run(cells.len(), |cell| {
        let (op, state, proto, d) = cells[cell.index];
        let mut frag = ReportBuilder::new("");
        let v = measure_op_seeded(proto, op, d, state, Some(cell.seed), Some(&mut frag), snaps);
        (v, frag.finish())
    });
    let mut out = Vec::new();
    for (&(op, state, proto, d), (v, frag)) in cells.iter().zip(results) {
        if let Some(rb) = rb.as_deref_mut() {
            rb.merge_report(&frag);
        }
        out.push((op.to_string(), state, proto.label(), d, v));
    }
    out
}

/// **Figure 4** rendered (one block per op/state).
pub fn figure4() -> Table {
    figure4_report().0
}

/// [`figure4`] plus its machine-readable run report.
pub fn figure4_report() -> (Table, RunReport) {
    let depths: Vec<u32> = vec![0, 2, 4, 8, 12, 16];
    let mut rb = ReportBuilder::new("figure4");
    let data = figure4_data_into(&depths, Some(&mut rb));
    let mut t = Table::new(
        "Figure 4: messages vs directory depth (mkdir/chdir/readdir)",
        &["op", "cache", "proto", "d0", "d2", "d4", "d8", "d12", "d16"],
    );
    for op in ["mkdir", "chdir", "readdir"] {
        for state in [CacheState::Cold, CacheState::Warm] {
            for proto in Protocol::ALL {
                let mut row = vec![
                    op.to_string(),
                    format!("{state:?}"),
                    proto.label().to_string(),
                ];
                for &d in &depths {
                    let v = data
                        .iter()
                        .find(|(o, s, p, dd, _)| {
                            o == op && *s == state && *p == proto.label() && *dd == d
                        })
                        .map(|(_, _, _, _, v)| *v)
                        .unwrap();
                    row.push(v.to_string());
                }
                t.row(&row);
            }
        }
    }
    (t, rb.finish())
}

/// **Figure 5**: messages for read/write calls of 128 B .. 64 KB.
/// Modes: cold reads, warm reads, cold writes. Returns `(mode, proto,
/// size, messages)`.
pub fn figure5_data() -> Vec<(String, &'static str, u64, u64)> {
    figure5_data_into(None)
}

fn figure5_data_into(mut rb: Option<&mut ReportBuilder>) -> Vec<(String, &'static str, u64, u64)> {
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
    let sweep = Sweep::new();
    let snaps = sweep.snapshots();
    let results = sweep.run(cells.len(), |cell| {
        let (proto, size) = cells[cell.index];
        let mut frag = ReportBuilder::new("");
        let cfg = TestbedConfig::new(proto);

        // Cold read.
        let read_key = SetupKey::for_config(&cfg, "micro:fig5:read");
        let tb = snapshot_cell(snaps, read_key, cell.seed, |setup_seed| {
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
        frag.absorb(&tb);

        // Cold write into a fresh file.
        let write_key = SetupKey::for_config(&cfg, "micro:fig5:write");
        let tb = snapshot_cell(snaps, write_key, cell.seed, |setup_seed| {
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
        frag.absorb(&tb);

        (cold_read, warm_read, cold_write, frag.finish())
    });
    let mut out = Vec::new();
    for (&(proto, size), (cold_read, warm_read, cold_write, frag)) in cells.iter().zip(results) {
        if let Some(rb) = rb.as_deref_mut() {
            rb.merge_report(&frag);
        }
        out.push(("cold_read".into(), proto.label(), size, cold_read));
        out.push(("warm_read".into(), proto.label(), size, warm_read));
        out.push(("cold_write".into(), proto.label(), size, cold_write));
    }
    out
}

/// **Figure 5** rendered.
pub fn figure5() -> Table {
    figure5_report().0
}

/// [`figure5`] plus its machine-readable run report.
pub fn figure5_report() -> (Table, RunReport) {
    let mut rb = ReportBuilder::new("figure5");
    let data = figure5_data_into(Some(&mut rb));
    let mut t = Table::new(
        "Figure 5: messages for reads/writes of varying size",
        &["mode", "size", "v2", "v3", "v4", "iSCSI"],
    );
    for mode in ["cold_read", "warm_read", "cold_write"] {
        let mut size = 128u64;
        while size <= 65_536 {
            let mut row = vec![mode.to_string(), size.to_string()];
            for proto in Protocol::ALL {
                let v = data
                    .iter()
                    .find(|(m, p, s, _)| m == mode && *p == proto.label() && *s == size)
                    .map(|(_, _, _, v)| *v)
                    .unwrap();
                row.push(v.to_string());
            }
            t.row(&row);
            size *= 2;
        }
    }
    (t, rb.finish())
}
