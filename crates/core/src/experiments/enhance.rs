//! Figure 7 (directory sharing in day-long traces) and the §7
//! enhancement evaluation: the strongly-consistent read-only meta-data
//! cache and directory delegation, both trace-driven and end-to-end
//! (an enhanced-NFS PostMark run against iSCSI).

use crate::experiments::macrob::postmark_cell;
use crate::sweep::{RunOptions, Sweep};
use crate::table::{fmt_f, fmt_secs, Table};
use crate::{Protocol, RunReport};
use nfs::Enhancements;
use traces::{
    generate, rw_shared_fraction, sharing_analysis, simulate_delegation, simulate_metadata_cache,
    Profile, TraceConfig,
};

/// **Figure 7**: sharing characteristics of directories for the
/// EECS-like and Campus-like synthetic traces.
pub(crate) fn figure7() -> Table {
    let intervals = [50u64, 100, 200, 400, 600, 800, 1000, 1200];
    let mut t = Table::new(
        "Figure 7: directory sharing vs interval T (normalized)",
        &[
            "trace",
            "T(s)",
            "read-by-1",
            "written-by-1",
            "read-by-N",
            "written-by-N",
        ],
    );
    for profile in [Profile::Eecs, Profile::Campus] {
        let events = generate(TraceConfig::day(profile));
        for p in sharing_analysis(&events, &intervals) {
            t.row(&[
                format!("{profile:?}"),
                p.interval_s.to_string(),
                fmt_f(p.read_by_one),
                fmt_f(p.written_by_one),
                fmt_f(p.read_by_multiple),
                fmt_f(p.written_by_multiple),
            ]);
        }
    }
    t
}

/// **§7, trace-driven**: message reduction from the read-only
/// meta-data cache (across cache sizes) and from directory delegation,
/// plus the callback ratio and the read-write sharing level that makes
/// both feasible.
pub(crate) fn section7_traces() -> Table {
    let mut t = Table::new(
        "Section 7: enhancement evaluation on day-long traces",
        &["trace", "metric", "value"],
    );
    for profile in [Profile::Eecs, Profile::Campus] {
        let events = generate(TraceConfig::day(profile));
        let rw = rw_shared_fraction(&events, 1000);
        t.row(&[
            format!("{profile:?}"),
            "rw-shared dirs @T=1000s".into(),
            format!("{:.1}%", rw * 100.0),
        ]);
        for size in [64usize, 256, 1024, 4096] {
            let r = simulate_metadata_cache(&events, size);
            t.row(&[
                format!("{profile:?}"),
                format!("meta-cache({size}): message reduction"),
                format!("{:.1}%", r.reduction * 100.0),
            ]);
            t.row(&[
                format!("{profile:?}"),
                format!("meta-cache({size}): callback ratio"),
                format!("{:.3}", r.callback_ratio),
            ]);
        }
        let d = simulate_delegation(&events, 32);
        t.row(&[
            format!("{profile:?}"),
            "delegation: update-message reduction".into(),
            format!("{:.1}%", d.reduction * 100.0),
        ]);
        t.row(&[
            format!("{profile:?}"),
            "delegation: recalls / update".into(),
            format!("{:.3}", simkit::units::ratio(d.recalls, d.updates.max(1))),
        ]);
    }
    t
}

/// **§7, end-to-end**: PostMark over plain NFS v4, enhanced NFS v4
/// (consistent meta-data cache + directory delegation), and iSCSI —
/// the enhancements should close most of the meta-data gap.
pub fn section7_postmark(
    options: RunOptions,
    files: usize,
    transactions: usize,
) -> (Table, RunReport) {
    // Both NFS v4 cells fork the same captured pool; the baseline
    // (pool creation) is identical, isolating the enhancements' effect
    // on the transaction stream.
    let enhanced = Enhancements {
        consistent_metadata_cache: true,
        directory_delegation: true,
    };
    let cells = [
        ("NFS v4", Protocol::NfsV4, Enhancements::default()),
        ("NFS v4 + enhancements", Protocol::NfsV4, enhanced),
        ("iSCSI", Protocol::Iscsi, Enhancements::default()),
    ];
    let (runs, report) = Sweep::new(options).run_cells(
        "section7_postmark",
        &cells,
        None,
        |&(_, proto, enh), ctx| postmark_cell(proto, enh, files, transactions, ctx),
    );
    let mut t = Table::new(
        format!("Section 7: PostMark ({files} files, {transactions} txns)"),
        &["system", "time(s)", "messages"],
    );
    for ((system, ..), run) in cells.iter().zip(runs) {
        t.row(&[
            system.to_string(),
            fmt_secs(run.time),
            run.messages.to_string(),
        ]);
    }
    (t, report)
}
