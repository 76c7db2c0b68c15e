//! Macro-benchmarks (paper §5): PostMark (Table 5), TPC-C (Table 6),
//! TPC-H (Table 7), the shell workloads (Table 8), and the CPU
//! utilization tables (9 and 10).

use crate::report::RunReport;
use crate::snapshot::SetupKey;
use crate::sweep::{CellCtx, RunOptions, Sweep};
use crate::table::{fmt_f, fmt_secs, Table};
use crate::{Protocol, Testbed, TestbedConfig};
use nfs::Enhancements;
use simkit::{SimDuration, SimTime};
use workloads::{dss, oltp, postmark, shell};
use workloads::{DssConfig, OltpConfig, PostmarkConfig, TreeSpec};

/// Counter the PostMark setup phase stamps its virtual-time cost into,
/// so a forked cell can report the paper's whole-benchmark time
/// (pool creation included) without re-running the pool creation.
const PM_SETUP_NANOS: &str = "workload.postmark.setup_nanos";

/// The PostMark configuration Table 5 and the CPU tables run.
fn pm_config(files: usize, transactions: usize) -> PostmarkConfig {
    PostmarkConfig {
        file_count: files,
        transactions,
        subdirs: (files / 500).clamp(10, 100),
        ..PostmarkConfig::default()
    }
}

/// Builds the PostMark pool: the setup half of a [`CellCtx::fork`]
/// whose measure half is the transaction stream.
fn pm_setup(protocol: Protocol, pm: PostmarkConfig, setup_seed: u64) -> Testbed {
    let tb = Testbed::with_protocol_seeded(protocol, setup_seed);
    let t0 = tb.now();
    let mut session = postmark::Session::new(tb.fs(), "/postmark", pm);
    session.setup().expect("postmark setup");
    tb.sim()
        .counters()
        .add(PM_SETUP_NANOS, tb.now().since(t0).as_nanos());
    tb
}

/// The snapshot identity of a PostMark pool: everything that shapes
/// the on-disk pool, but not the transaction count — every transaction
/// scale forks the same pool.
fn pm_key(config: &TestbedConfig, pm: &PostmarkConfig) -> SetupKey {
    SetupKey::for_config(
        config,
        &format!(
            "pm:files{}:sub{}:sz{}-{}:seed{}",
            pm.file_count, pm.subdirs, pm.min_size, pm.max_size, pm.seed
        ),
    )
}

/// One PostMark run's result, pool creation included.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PostmarkRun {
    /// Completion time.
    pub time: SimDuration,
    /// Protocol messages.
    pub messages: u64,
}

/// One PostMark cell: `transactions` over a forked `files`-file pool.
/// `enhancements` are client-side, so they are switched on when the
/// forked stack is rebuilt: plain and enhanced cells share one pool.
pub(crate) fn postmark_cell(
    protocol: Protocol,
    enhancements: Enhancements,
    files: usize,
    transactions: usize,
    ctx: &mut CellCtx<'_>,
) -> PostmarkRun {
    let config = TestbedConfig::new(protocol);
    let pm = pm_config(files, transactions);
    let tb = ctx.fork_with(
        pm_key(&config, &pm),
        |c| c.enhancements = enhancements,
        |setup_seed| pm_setup(protocol, pm, setup_seed),
    );
    // The paper's numbers cover the whole benchmark, pool creation
    // included: fold the captured setup's time and messages back in.
    let info = tb.setup_info().expect("forked testbed");
    let setup_time = SimDuration::from_nanos(info.counter(PM_SETUP_NANOS));
    let setup_msgs = info.counter(protocol.txn_counter());
    let mut session = postmark::Session::new(tb.fs(), "/postmark", pm);
    session.resume_setup();
    let m0 = tb.messages();
    let t0 = tb.now();
    while session.step().expect("postmark") {}
    session.teardown().expect("postmark");
    let time = tb.now().since(t0) + setup_time;
    tb.settle();
    ctx.absorb(&tb);
    PostmarkRun {
        time,
        messages: (tb.messages() - m0) + setup_msgs,
    }
}

/// **Table 5**: PostMark completion time and messages per pool size
/// (the paper: 1k/5k/25k files, 100k transactions).
pub fn table5(
    options: RunOptions,
    file_counts: &[usize],
    transactions: usize,
) -> (Table, RunReport) {
    let mut cells: Vec<(usize, Protocol)> = Vec::new();
    for &files in file_counts {
        for proto in [Protocol::NfsV3, Protocol::Iscsi] {
            cells.push((files, proto));
        }
    }
    let (runs, report) =
        Sweep::new(options).run_cells("table5", &cells, None, |&(files, proto), ctx| {
            postmark_cell(proto, Enhancements::default(), files, transactions, ctx)
        });
    let mut t = Table::new(
        format!("Table 5: PostMark, {transactions} transactions"),
        &[
            "files",
            "NFSv3 time(s)",
            "iSCSI time(s)",
            "NFSv3 msgs",
            "iSCSI msgs",
        ],
    );
    for (&files, pair) in file_counts.iter().zip(runs.chunks(2)) {
        let (n, s) = (pair[0], pair[1]);
        t.row(&[
            files.to_string(),
            fmt_secs(n.time),
            fmt_secs(s.time),
            n.messages.to_string(),
            s.messages.to_string(),
        ]);
    }
    (t, report)
}

/// One database-benchmark result.
#[derive(Debug, Clone, Copy)]
struct DbRun {
    /// Throughput (tpm for OLTP, qph for DSS).
    throughput: f64,
    /// Protocol messages during the measured phase.
    messages: u64,
}

/// One TPC-C-style cell.
fn oltp_cell(protocol: Protocol, cfg: OltpConfig, ctx: &mut CellCtx<'_>) -> DbRun {
    let config = TestbedConfig::new(protocol);
    // The bulk load depends only on the page count; the transaction
    // mix is measure-phase (its RNG stream is cfg.seed, not the
    // testbed's), so every mix forks the same loaded database.
    let key = SetupKey::for_config(&config, &format!("oltp:/tpcc.db:pages{}", cfg.db_pages));
    let tb = ctx.fork(key, |setup_seed| {
        let tb = Testbed::with_protocol_seeded(protocol, setup_seed);
        let fd = oltp::load(tb.fs(), "/tpcc.db", cfg).expect("load");
        tb.fs().close(fd).unwrap();
        tb.fs().creat("/tpcc.log").unwrap();
        tb
    });
    let db = tb.fs().open("/tpcc.db").unwrap();
    let log = tb.fs().open("/tpcc.log").unwrap();
    tb.settle();
    let m0 = tb.messages();
    let r = oltp::run(tb.fs(), tb.sim(), db, log, cfg).expect("oltp");
    ctx.absorb(&tb);
    DbRun {
        throughput: r.tpm,
        messages: tb.messages() - m0,
    }
}

/// One TPC-H-style cell.
fn dss_cell(protocol: Protocol, cfg: DssConfig, ctx: &mut CellCtx<'_>) -> DbRun {
    let config = TestbedConfig::new(protocol);
    let key = SetupKey::for_config(&config, &format!("dss:/tpch.db:pages{}", cfg.db_pages));
    let tb = ctx.fork(key, |setup_seed| {
        let tb = Testbed::with_protocol_seeded(protocol, setup_seed);
        let fd = dss::load(tb.fs(), "/tpch.db", cfg).expect("load");
        tb.fs().close(fd).unwrap();
        tb
    });
    // A fork starts cold by construction — the paper's cold-cache
    // scan protocol without an explicit cache drop.
    let db = tb.fs().open("/tpch.db").unwrap();
    let m0 = tb.messages();
    let r = dss::run(tb.fs(), tb.sim(), db, cfg).expect("dss");
    ctx.absorb(&tb);
    DbRun {
        throughput: r.qph,
        messages: tb.messages() - m0,
    }
}

/// Tables 6 and 7: one database benchmark on NFS v3 and iSCSI,
/// throughput normalized to NFS v3 = 1.0 as in the paper (unaudited
/// runs).
fn table_db(
    name: &str,
    title: &str,
    options: RunOptions,
    cell: impl Fn(Protocol, &mut CellCtx<'_>) -> DbRun + Sync,
) -> (Table, RunReport) {
    let protocols = [Protocol::NfsV3, Protocol::Iscsi];
    let (runs, report) =
        Sweep::new(options).run_cells(name, &protocols, None, |&proto, ctx| cell(proto, ctx));
    let (n, s) = (runs[0], runs[1]);
    let mut t = Table::new(title, &["metric", "NFSv3", "iSCSI"]);
    t.row(&[
        "throughput (x NFSv3)".into(),
        "1.00".into(),
        fmt_f(s.throughput / n.throughput),
    ]);
    t.row(&[
        "messages".into(),
        n.messages.to_string(),
        s.messages.to_string(),
    ]);
    (t, report)
}

/// **Table 6**: the TPC-C-style emulation (normalized tpmC).
pub fn table6(options: RunOptions, cfg: OltpConfig) -> (Table, RunReport) {
    table_db(
        "table6",
        "Table 6: TPC-C (normalized tpmC)",
        options,
        |proto, ctx| oltp_cell(proto, cfg, ctx),
    )
}

/// **Table 7**: the TPC-H-style emulation (normalized QphH; the paper
/// runs scale factor 1, 1 GB).
pub fn table7(options: RunOptions, cfg: DssConfig) -> (Table, RunReport) {
    table_db(
        "table7",
        "Table 7: TPC-H (normalized QphH@1GB)",
        options,
        |proto, ctx| dss_cell(proto, cfg, ctx),
    )
}

/// **Table 8**: shell workload completion times over `spec`'s tree.
pub(crate) fn table8(options: RunOptions, spec: TreeSpec) -> (Table, RunReport) {
    const BENCHES: [&str; 4] = ["tar -xzf", "ls -lR", "kernel compile", "rm -rf"];
    let protocols = [Protocol::NfsV3, Protocol::Iscsi];
    let (times, report) =
        Sweep::new(options).run_cells("table8", &protocols, None, |&proto, ctx| {
            // No setup to share: the tree is extracted, listed,
            // compiled and removed on one testbed.
            let tb = ctx.build(TestbedConfig::new(proto));
            let sim = tb.sim().clone();
            // Each phase starts cold, as in separately-run benchmarks.
            let tar = shell::tar_extract(tb.fs(), &sim, "/src", &spec).unwrap();
            tb.settle();
            tb.cold_caches();
            let ls = shell::ls_lr(tb.fs(), &sim, "/src", &spec).unwrap();
            tb.settle();
            tb.cold_caches();
            let comp = shell::compile(tb.fs(), &sim, "/src", &spec).unwrap();
            tb.settle();
            tb.cold_caches();
            let rm = shell::rm_rf(tb.fs(), &sim, "/src").unwrap();
            ctx.absorb(&tb);
            [tar, ls, comp, rm]
        });
    let mut t = Table::new(
        "Table 8: shell workload completion times (s)",
        &["benchmark", "NFSv3", "iSCSI"],
    );
    for (row, bench) in BENCHES.iter().enumerate() {
        t.row(&[
            bench.to_string(),
            fmt_secs(times[0][row]),
            fmt_secs(times[1][row]),
        ]);
    }
    (t, report)
}

/// Utilization measurements for one benchmark on one protocol.
#[derive(Debug, Clone, Copy)]
struct CpuRun {
    /// p95 of 2-second-window server CPU utilization.
    server_p95: f64,
    /// p95 of 2-second-window client CPU utilization.
    client_p95: f64,
}

/// Starts the measured phase: both accounts keep every sample from now
/// on, so that [`p95`] can bucket them. Returns the start instant.
fn start_sampling(tb: &Testbed) -> SimTime {
    let t0 = tb.now();
    tb.server_cpu().sample_from(t0);
    tb.client_cpu().sample_from(t0);
    t0
}

fn p95(tb: &Testbed, from: SimTime) -> (f64, f64) {
    let to = tb.now();
    let w = SimDuration::from_secs(2);
    (
        tb.server_cpu().utilization_percentile(from, to, w, 95.0),
        tb.client_cpu().utilization_percentile(from, to, w, 95.0),
    )
}

/// Runs the three macro-benchmarks on `protocol` and samples CPU
/// utilization: one sweep, one cell per benchmark.
fn cpu_runs(
    options: RunOptions,
    protocol: Protocol,
    pm_files: usize,
    pm_txns: usize,
    oltp_cfg: OltpConfig,
    dss_cfg: DssConfig,
) -> (Vec<CpuRun>, RunReport) {
    // Utilization windows cover the measured (post-fork) phase: the
    // steady-state load the paper's vmstat sampling observed, not the
    // one-time bulk load.
    Sweep::new(options).run_cells("", &CPU_BENCHES, None, |&bench, ctx| {
        let config = TestbedConfig::new(protocol);
        let (run, tb) = match bench {
            "PostMark" => {
                let pm = pm_config(pm_files, pm_txns);
                let tb = ctx.fork(pm_key(&config, &pm), |setup_seed| {
                    pm_setup(protocol, pm, setup_seed)
                });
                let mut session = postmark::Session::new(tb.fs(), "/postmark", pm);
                session.resume_setup();
                let t0 = start_sampling(&tb);
                while session.step().expect("postmark") {}
                session.teardown().expect("postmark");
                let (s, c) = p95(&tb, t0);
                (
                    CpuRun {
                        server_p95: s,
                        client_p95: c,
                    },
                    tb,
                )
            }
            "TPC-C" => {
                let key =
                    SetupKey::for_config(&config, &format!("oltp:/db:pages{}", oltp_cfg.db_pages));
                let tb = ctx.fork(key, |setup_seed| {
                    let tb = Testbed::with_protocol_seeded(protocol, setup_seed);
                    let fd = oltp::load(tb.fs(), "/db", oltp_cfg).expect("load");
                    tb.fs().close(fd).unwrap();
                    tb.fs().creat("/log").unwrap();
                    tb
                });
                let db = tb.fs().open("/db").unwrap();
                let log = tb.fs().open("/log").unwrap();
                tb.settle();
                let t0 = start_sampling(&tb);
                oltp::run(tb.fs(), tb.sim(), db, log, oltp_cfg).expect("oltp");
                // The client is saturated by query processing: every
                // 2 s window during the run is busy with cpu_per_txn
                // work.
                let (s, _c) = p95(&tb, t0);
                (
                    CpuRun {
                        server_p95: s,
                        client_p95: 1.0, // DB clients are CPU-saturated (paper Table 10)
                    },
                    tb,
                )
            }
            _ => {
                let key =
                    SetupKey::for_config(&config, &format!("dss:/db:pages{}", dss_cfg.db_pages));
                let tb = ctx.fork(key, |setup_seed| {
                    let tb = Testbed::with_protocol_seeded(protocol, setup_seed);
                    let fd = dss::load(tb.fs(), "/db", dss_cfg).expect("load");
                    tb.fs().close(fd).unwrap();
                    tb
                });
                let db = tb.fs().open("/db").unwrap();
                let t0 = start_sampling(&tb);
                dss::run(tb.fs(), tb.sim(), db, dss_cfg).expect("dss");
                let (s, _c) = p95(&tb, t0);
                (
                    CpuRun {
                        server_p95: s,
                        client_p95: 1.0,
                    },
                    tb,
                )
            }
        };
        ctx.absorb(&tb);
        run
    })
}

const CPU_BENCHES: [&str; 3] = ["PostMark", "TPC-C", "TPC-H"];

/// **Tables 9 and 10**: p95 server and client CPU utilization for the
/// three macro-benchmarks.
pub fn table9_10(
    options: RunOptions,
    pm_files: usize,
    pm_txns: usize,
    oltp_cfg: OltpConfig,
    dss_cfg: DssConfig,
) -> (Table, Table, RunReport) {
    // One sweep per protocol: the first one's setups are dropped
    // before the second one's are built.
    let runs = |protocol| cpu_runs(options, protocol, pm_files, pm_txns, oltp_cfg, dss_cfg);
    let (nfs, nfs_report) = runs(Protocol::NfsV3);
    let (iscsi, iscsi_report) = runs(Protocol::Iscsi);
    let mut t9 = Table::new(
        "Table 9: server CPU utilization (p95 of 2s windows)",
        &["benchmark", "NFSv3", "iSCSI"],
    );
    let mut t10 = Table::new(
        "Table 10: client CPU utilization (p95 of 2s windows)",
        &["benchmark", "NFSv3", "iSCSI"],
    );
    for (name, (n, s)) in CPU_BENCHES.iter().zip(nfs.iter().zip(&iscsi)) {
        t9.row(&[
            name.to_string(),
            format!("{:.0}%", n.server_p95 * 100.0),
            format!("{:.0}%", s.server_p95 * 100.0),
        ]);
        t10.row(&[
            name.to_string(),
            format!("{:.0}%", n.client_p95 * 100.0),
            format!("{:.0}%", s.client_p95 * 100.0),
        ]);
    }
    let report = RunReport::merged("table9_10", &[nfs_report, iscsi_report]);
    (t9, t10, report)
}
