//! Ablations of the design choices DESIGN.md calls out: each sweep
//! varies one mechanism the paper identifies as load-bearing and shows
//! its effect in isolation.
//!
//! Every testbed sweep here varies a knob consumed at testbed
//! construction (commit interval, dirty-page limit, cache timeout,
//! read-ahead), so all its cells share one canonical-config setup
//! snapshot and apply the knob as a fork-time override.

use crate::experiments::data::{write_file, Pattern};
use crate::snapshot::SetupKey;
use crate::sweep::{RunOptions, Sweep};
use crate::table::{fmt_f, fmt_secs, Table};
use crate::{Protocol, RunReport, Testbed, TestbedConfig};
use simkit::SimDuration;

/// **Ablation A — the update-aggregation window.** The ext3 journal's
/// commit interval is the mechanism behind Figure 3: a longer window
/// batches more meta-data updates per commit. Sweeping it shows iSCSI
/// PostMark messages falling as the window grows.
fn commit_interval_sweep(options: RunOptions) -> (Table, RunReport) {
    const INTERVALS: [u64; 5] = [1, 2, 5, 15, 30];
    let (msgs, report) = Sweep::new(options).run_cells(
        "ablation_commit_interval",
        &INTERVALS,
        None,
        |&secs, ctx| {
            let cfg = TestbedConfig::new(Protocol::Iscsi);
            let tb = ctx.fork_with(
                SetupKey::for_config(&cfg, "ablation:blank"),
                |c| c.commit_interval = Some(SimDuration::from_secs(secs)),
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
            ctx.absorb(&tb);
            tb.messages() - m0
        },
    );
    let mut t = Table::new(
        "Ablation A: ext3 commit interval vs iSCSI meta-data traffic \
         (500 mkdirs spread over 60s)",
        &["commit interval (s)", "messages", "msgs/op"],
    );
    for (secs, msgs) in INTERVALS.iter().zip(msgs) {
        t.row(&[
            secs.to_string(),
            msgs.to_string(),
            fmt_f(simkit::units::to_f64(msgs) / 500.0),
        ]);
    }
    (t, report)
}

/// **Ablation B — the Linux pending-write limit.** §4.5's
/// pseudo-synchronous write behaviour comes from the bounded dirty-page
/// window. Sweeping the limit shows NFS v3 write completion moving
/// from write-through-like to iSCSI-like.
fn write_window_sweep(options: RunOptions) -> (Table, RunReport) {
    const LIMITS: [usize; 5] = [16, 64, 256, 1024, 16_384];
    let (times, report) =
        Sweep::new(options).run_cells("ablation_write_window", &LIMITS, None, |&limit, ctx| {
            let cfg = TestbedConfig::new(Protocol::NfsV3);
            let tb = ctx.fork_with(
                SetupKey::for_config(&cfg, "ablation:blank"),
                |c| c.nfs_max_dirty_pages = Some(limit),
                |setup_seed| Testbed::with_protocol_seeded(Protocol::NfsV3, setup_seed),
            );
            let r = write_file(&tb, "/w", 32, Pattern::Sequential);
            ctx.absorb(&tb);
            r.time
        });
    let mut t = Table::new(
        "Ablation B: NFS dirty-page limit vs 32 MB write completion",
        &["limit (pages)", "time (s)"],
    );
    for (limit, time) in LIMITS.iter().zip(times) {
        t.row(&[limit.to_string(), fmt_secs(time)]);
    }
    (t, report)
}

/// **Ablation C — the meta-data cache timeout.** Linux revalidates
/// cached meta-data after 3 s; shrinking the timeout multiplies
/// consistency-check messages, stretching it risks staleness but
/// approaches the §7 consistent cache. Measured as messages for 100
/// stats of the same file spread over 60 s.
fn attr_timeout_sweep(options: RunOptions) -> (Table, RunReport) {
    const TIMEOUTS: [u64; 5] = [0, 1, 3, 10, 60];
    let (msgs, report) =
        Sweep::new(options).run_cells("ablation_attr_timeout", &TIMEOUTS, None, |&secs, ctx| {
            let cfg = TestbedConfig::new(Protocol::NfsV3);
            let tb = ctx.fork_with(
                SetupKey::for_config(&cfg, "ablation:statfile"),
                |c| c.nfs_metadata_timeout = Some(SimDuration::from_secs(secs)),
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
            ctx.absorb(&tb);
            tb.messages() - m0
        });
    let mut t = Table::new(
        "Ablation C: NFS meta-data timeout vs consistency-check traffic",
        &["timeout (s)", "messages for 100 spread stats"],
    );
    for (secs, msgs) in TIMEOUTS.iter().zip(msgs) {
        t.row(&[secs.to_string(), msgs.to_string()]);
    }
    (t, report)
}

/// **Ablation D — the read-ahead window.** Merging adjacent blocks
/// into larger iSCSI commands trades message count against request
/// latency; this sweep shows both for an 8 MB sequential read.
fn readahead_sweep(options: RunOptions) -> (Table, RunReport) {
    const WINDOWS: [u32; 4] = [1, 4, 16, 64];
    let (runs, report) =
        Sweep::new(options).run_cells("ablation_readahead", &WINDOWS, None, |&window, ctx| {
            let cfg = TestbedConfig::new(Protocol::Iscsi);
            let tb = ctx.fork_with(
                SetupKey::for_config(&cfg, "ablation:seqfile8"),
                |c| c.readahead_max = Some(window),
                |setup_seed| {
                    let tb = Testbed::with_protocol_seeded(Protocol::Iscsi, setup_seed);
                    let _ = write_file(&tb, "/f", 8, Pattern::Sequential);
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
            ctx.absorb(&tb);
            (tb.messages() - m0, elapsed)
        });
    let mut t = Table::new(
        "Ablation D: command merging vs 8 MB sequential read (256 KB app reads)",
        &["merge limit (blocks)", "messages", "time (s)"],
    );
    for (window, (msgs, elapsed)) in WINDOWS.iter().zip(runs) {
        t.row(&[window.to_string(), msgs.to_string(), fmt_secs(elapsed)]);
    }
    (t, report)
}

/// **Ablation E — the §7 delegation batch size.** How aggressively
/// directory delegation aggregates determines how close enhanced NFS
/// gets to iSCSI on meta-data updates.
fn delegation_batch_sweep() -> Table {
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

/// All ablations, each paired with its machine-readable run report.
///
/// Ablation E is trace-driven (no testbed), so its report carries the
/// runner name only — zero runs, empty sections.
pub fn all(options: RunOptions) -> Vec<(Table, RunReport)> {
    vec![
        commit_interval_sweep(options),
        write_window_sweep(options),
        attr_timeout_sweep(options),
        readahead_sweep(options),
        (
            delegation_batch_sweep(),
            RunReport {
                name: "ablation_delegation_batch".into(),
                ..RunReport::default()
            },
        ),
    ]
}
