//! Ablations of the design choices DESIGN.md calls out: each sweep
//! varies one mechanism the paper identifies as load-bearing and shows
//! its effect in isolation.

//! Every sweep here varies a knob consumed at testbed construction
//! (commit interval, dirty-page limit, cache timeout, read-ahead), so
//! all its cells share one canonical-config setup snapshot and apply
//! the knob as a fork-time override.

use crate::snapshot::{snapshot_cell_with, SetupKey};
use crate::sweep::Sweep;
use crate::table::{fmt_f, fmt_secs, Table};
use crate::{Protocol, ReportBuilder, RunReport, Testbed, TestbedConfig};
use simkit::SimDuration;

/// **Ablation A — the update-aggregation window.** The ext3 journal's
/// commit interval is the mechanism behind Figure 3: a longer window
/// batches more meta-data updates per commit. Sweeping it shows iSCSI
/// PostMark messages falling as the window grows.
pub fn commit_interval_sweep() -> Table {
    commit_interval_sweep_report().0
}

/// [`commit_interval_sweep`] plus the machine-readable run report.
pub fn commit_interval_sweep_report() -> (Table, RunReport) {
    let mut rb = ReportBuilder::new("ablation_commit_interval");
    let mut t = Table::new(
        "Ablation A: ext3 commit interval vs iSCSI meta-data traffic \
         (500 mkdirs spread over 60s)",
        &["commit interval (s)", "messages", "msgs/op"],
    );
    const INTERVALS: [u64; 5] = [1, 2, 5, 15, 30];
    let sweep = Sweep::new();
    let snaps = sweep.snapshots();
    let results = sweep.run(INTERVALS.len(), |cell| {
        let cfg = TestbedConfig::new(Protocol::Iscsi);
        let key = SetupKey::for_config(&cfg, "ablation:blank");
        let tb = snapshot_cell_with(
            snaps,
            key,
            cell.seed,
            |c| c.commit_interval = Some(SimDuration::from_secs(INTERVALS[cell.index])),
            |setup_seed| Testbed::with_protocol_seeded(Protocol::Iscsi, setup_seed),
        );
        let m0 = tb.messages();
        // An application trickling meta-data updates: the commit
        // window determines how many land in each journal commit.
        for i in 0..500 {
            tb.fs().mkdir(&format!("/d{i}")).unwrap();
            tb.sim().advance(SimDuration::from_millis(120));
        }
        tb.sim().advance(SimDuration::from_secs(60));
        let msgs = tb.messages() - m0;
        let mut frag = ReportBuilder::new("");
        frag.absorb(&tb);
        (msgs, frag.finish())
    });
    for (secs, (msgs, frag)) in INTERVALS.iter().zip(results) {
        rb.merge_report(&frag);
        t.row(&[
            secs.to_string(),
            msgs.to_string(),
            fmt_f(simkit::units::to_f64(msgs) / 500.0),
        ]);
    }
    (t, rb.finish())
}

/// **Ablation B — the Linux pending-write limit.** §4.5's
/// pseudo-synchronous write behaviour comes from the bounded dirty-page
/// window. Sweeping the limit shows NFS v3 write completion moving
/// from write-through-like to iSCSI-like.
pub fn write_window_sweep() -> Table {
    write_window_sweep_report().0
}

/// [`write_window_sweep`] plus the machine-readable run report.
pub fn write_window_sweep_report() -> (Table, RunReport) {
    let mut rb = ReportBuilder::new("ablation_write_window");
    let mut t = Table::new(
        "Ablation B: NFS dirty-page limit vs 32 MB write completion",
        &["limit (pages)", "time (s)"],
    );
    const LIMITS: [usize; 5] = [16, 64, 256, 1024, 16_384];
    let sweep = Sweep::new();
    let snaps = sweep.snapshots();
    let results = sweep.run(LIMITS.len(), |cell| {
        let cfg = TestbedConfig::new(Protocol::NfsV3);
        let key = SetupKey::for_config(&cfg, "ablation:blank");
        let tb = snapshot_cell_with(
            snaps,
            key,
            cell.seed,
            |c| c.nfs_max_dirty_pages = Some(LIMITS[cell.index]),
            |setup_seed| Testbed::with_protocol_seeded(Protocol::NfsV3, setup_seed),
        );
        let r = crate::experiments::data::write_file(
            &tb,
            "/w",
            32,
            crate::experiments::data::Pattern::Sequential,
        );
        let mut frag = ReportBuilder::new("");
        frag.absorb(&tb);
        (r.time, frag.finish())
    });
    for (limit, (time, frag)) in LIMITS.iter().zip(results) {
        rb.merge_report(&frag);
        t.row(&[limit.to_string(), fmt_secs(time)]);
    }
    (t, rb.finish())
}

/// **Ablation C — the meta-data cache timeout.** Linux revalidates
/// cached meta-data after 3 s; shrinking the timeout multiplies
/// consistency-check messages, stretching it risks staleness but
/// approaches the §7 consistent cache. Measured as messages for 100
/// stats of the same file spread over 60 s.
pub fn attr_timeout_sweep() -> Table {
    attr_timeout_sweep_report().0
}

/// [`attr_timeout_sweep`] plus the machine-readable run report.
pub fn attr_timeout_sweep_report() -> (Table, RunReport) {
    let mut rb = ReportBuilder::new("ablation_attr_timeout");
    let mut t = Table::new(
        "Ablation C: NFS meta-data timeout vs consistency-check traffic",
        &["timeout (s)", "messages for 100 spread stats"],
    );
    const TIMEOUTS: [u64; 5] = [0, 1, 3, 10, 60];
    let sweep = Sweep::new();
    let snaps = sweep.snapshots();
    let results = sweep.run(TIMEOUTS.len(), |cell| {
        let cfg = TestbedConfig::new(Protocol::NfsV3);
        let key = SetupKey::for_config(&cfg, "ablation:statfile");
        let tb = snapshot_cell_with(
            snaps,
            key,
            cell.seed,
            |c| c.nfs_metadata_timeout = Some(SimDuration::from_secs(TIMEOUTS[cell.index])),
            |setup_seed| {
                let tb = Testbed::with_protocol_seeded(Protocol::NfsV3, setup_seed);
                tb.fs().creat("/f").unwrap();
                tb
            },
        );
        let m0 = tb.messages();
        for _ in 0..100 {
            tb.fs().stat("/f").unwrap();
            tb.sim().advance(SimDuration::from_millis(600));
        }
        let msgs = tb.messages() - m0;
        let mut frag = ReportBuilder::new("");
        frag.absorb(&tb);
        (msgs, frag.finish())
    });
    for (secs, (msgs, frag)) in TIMEOUTS.iter().zip(results) {
        rb.merge_report(&frag);
        t.row(&[secs.to_string(), msgs.to_string()]);
    }
    (t, rb.finish())
}

/// **Ablation D — the read-ahead window.** Merging adjacent blocks
/// into larger iSCSI commands trades message count against request
/// latency; this sweep shows both for an 8 MB sequential read.
pub fn readahead_sweep() -> Table {
    readahead_sweep_report().0
}

/// [`readahead_sweep`] plus the machine-readable run report.
pub fn readahead_sweep_report() -> (Table, RunReport) {
    let mut rb = ReportBuilder::new("ablation_readahead");
    let mut t = Table::new(
        "Ablation D: command merging vs 8 MB sequential read (256 KB app reads)",
        &["merge limit (blocks)", "messages", "time (s)"],
    );
    const WINDOWS: [u32; 4] = [1, 4, 16, 64];
    let sweep = Sweep::new();
    let snaps = sweep.snapshots();
    let results = sweep.run(WINDOWS.len(), |cell| {
        let cfg = TestbedConfig::new(Protocol::Iscsi);
        let key = SetupKey::for_config(&cfg, "ablation:seqfile8");
        let tb = snapshot_cell_with(
            snaps,
            key,
            cell.seed,
            |c| c.readahead_max = Some(WINDOWS[cell.index]),
            |setup_seed| {
                let tb = Testbed::with_protocol_seeded(Protocol::Iscsi, setup_seed);
                let _ = crate::experiments::data::write_file(
                    &tb,
                    "/f",
                    8,
                    crate::experiments::data::Pattern::Sequential,
                );
                tb
            },
        );
        tb.cold_caches();
        let fs = tb.fs();
        let fd = fs.open("/f").unwrap();
        let m0 = tb.messages();
        let t0 = tb.now();
        let mut chunk = vec![0u8; 256 * 1024];
        for i in 0..(8 * 1024 * 1024 / chunk.len()) {
            fs.read_into(fd, (i * chunk.len()) as u64, &mut chunk)
                .unwrap();
        }
        let elapsed = tb.now().since(t0);
        let msgs = tb.messages() - m0;
        let mut frag = ReportBuilder::new("");
        frag.absorb(&tb);
        ((msgs, elapsed), frag.finish())
    });
    for (window, ((msgs, elapsed), frag)) in WINDOWS.iter().zip(results) {
        rb.merge_report(&frag);
        t.row(&[window.to_string(), msgs.to_string(), fmt_secs(elapsed)]);
    }
    (t, rb.finish())
}

/// **Ablation E — the §7 delegation batch size.** How aggressively
/// directory delegation aggregates determines how close enhanced NFS
/// gets to iSCSI on meta-data updates.
pub fn delegation_batch_sweep() -> Table {
    use traces::{generate, simulate_delegation, Profile, TraceConfig};
    let events = generate(TraceConfig {
        events: 100_000,
        ..TraceConfig::day(Profile::Eecs)
    });
    let mut t = Table::new(
        "Ablation E: delegation batch size vs update-message reduction",
        &["batch", "reduction"],
    );
    for batch in [1u64, 4, 16, 32, 128] {
        let r = simulate_delegation(&events, batch);
        t.row(&[
            batch.to_string(),
            format!("{}%", fmt_f(r.reduction * 100.0)),
        ]);
    }
    t
}

/// All ablations.
pub fn all() -> Vec<Table> {
    all_reports().into_iter().map(|(t, _)| t).collect()
}

/// All ablations, each paired with its machine-readable run report.
///
/// Ablation E is trace-driven (no testbed), so its report carries the
/// runner name only — zero runs, empty sections.
pub fn all_reports() -> Vec<(Table, RunReport)> {
    vec![
        commit_interval_sweep_report(),
        write_window_sweep_report(),
        attr_timeout_sweep_report(),
        readahead_sweep_report(),
        (
            delegation_batch_sweep(),
            ReportBuilder::new("ablation_delegation_batch").finish(),
        ),
    ]
}
