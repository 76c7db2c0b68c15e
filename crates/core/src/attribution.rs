//! Critical-path attribution: the table renderers for the
//! `tables --attribution` view.
//!
//! Under [`RunOptions::attribution`](crate::sweep::RunOptions) every
//! measured testbed has its span tracer switched on as its cell obtains
//! it (see [`CellCtx`](crate::sweep::CellCtx)), and
//! [`ReportBuilder::absorb`](crate::ReportBuilder) folds
//! [`simkit::critpath::analyze`] over the buffered spans into the
//! report's flat `attribution` map. The map is additive (counts and
//! nanoseconds only, no span IDs), so per-cell fragments merge in cell
//! order to output byte-identical with a sequential run — the same
//! invariant the rest of the report already holds.
//!
//! [`attribution_table`] renders that map the way the paper talks about
//! latency: one row per operation type, the serial critical path split
//! across the layer buckets of [`simkit::critpath::BUCKETS`], shown as
//! percent of total. [`gauge_table`] summarizes the virtual-clock gauge
//! series (link utilization, disk busy, cache occupancy) absorbed from
//! the testbed's [`simkit::GaugeSampler`].

use crate::{RunReport, Table};
use simkit::critpath::BUCKETS;
use std::collections::BTreeMap;

/// One operation type's decoded attribution row.
#[derive(Debug, Clone, Default)]
struct OpRow {
    ops: u64,
    total_ns: u64,
    bucket_ns: BTreeMap<&'static str, u64>,
}

/// Decodes the flat `attribution` map back into per-op rows. Keys are
/// `<op>.ops`, `<op>.total_ns`, and `<op>.<bucket>_ns` where `<op>`
/// itself may contain dots (`nfs.read`, `rpc.lookup`); decoding is by
/// known suffix, so it is unambiguous.
fn decode(attr: &BTreeMap<String, u64>) -> BTreeMap<String, OpRow> {
    let mut rows: BTreeMap<String, OpRow> = BTreeMap::new();
    for (key, &v) in attr {
        if let Some(op) = key.strip_suffix(".ops") {
            rows.entry(op.to_string()).or_default().ops = v;
        } else if let Some(op) = key.strip_suffix(".total_ns") {
            rows.entry(op.to_string()).or_default().total_ns = v;
        } else {
            for bucket in BUCKETS {
                let suffix = format!(".{bucket}_ns");
                if let Some(op) = key.strip_suffix(suffix.as_str()) {
                    rows.entry(op.to_string())
                        .or_default()
                        .bucket_ns
                        .insert(bucket, v);
                    break;
                }
            }
        }
    }
    rows
}

/// Integer milliseconds with microsecond remainder, e.g. `12.345`.
fn millis(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000_000, (ns % 1_000_000) / 1_000)
}

/// Integer percent with one decimal, computed in permille so equal
/// inputs render identically on every platform.
fn percent(part: u64, whole: u64) -> String {
    if whole == 0 {
        return "-".to_string();
    }
    let permille = (part.saturating_mul(1000) + whole / 2) / whole;
    format!("{}.{}", permille / 10, permille % 10)
}

/// Renders the per-op critical-path attribution table: one row per
/// operation type, total wall time on the serial critical path, and
/// the percentage each layer bucket contributed to it.
pub fn attribution_table(report: &RunReport) -> Table {
    let mut header = vec!["op", "ops", "total ms"];
    let pct_headers: Vec<String> = BUCKETS.iter().map(|b| format!("{b}%")).collect();
    header.extend(pct_headers.iter().map(|s| s.as_str()));
    let mut t = Table::new(
        format!("Critical-path attribution ({})", report.name),
        &header,
    );
    for (op, row) in decode(&report.attribution) {
        let mut cells = vec![op, row.ops.to_string(), millis(row.total_ns)];
        for bucket in BUCKETS {
            let ns = row.bucket_ns.get(bucket).copied().unwrap_or(0);
            cells.push(percent(ns, row.total_ns));
        }
        t.row(&cells);
    }
    t
}

/// Renders the gauge summaries absorbed from the testbeds' samplers:
/// sample count, min, max, and integer mean per gauge.
pub fn gauge_table(report: &RunReport) -> Table {
    let mut t = Table::new(
        format!("Gauges ({})", report.name),
        &["gauge", "samples", "min", "max", "mean"],
    );
    for (name, g) in &report.gauges {
        let mean = g.sum.checked_div(g.samples).unwrap_or(0);
        t.row(&[
            name.clone(),
            g.samples.to_string(),
            g.min.to_string(),
            g.max.to_string(),
            mean.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::GaugeStats;

    fn report_with(entries: &[(&str, u64)]) -> RunReport {
        let mut r = RunReport {
            name: "t".to_string(),
            ..RunReport::default()
        };
        for (k, v) in entries {
            r.attribution.insert(k.to_string(), *v);
        }
        r
    }

    #[test]
    fn decodes_dotted_op_names_by_suffix() {
        let r = report_with(&[
            ("nfs.read.ops", 10),
            ("nfs.read.total_ns", 2_000_000),
            ("nfs.read.rpc_ns", 1_500_000),
            ("nfs.read.net_ns", 500_000),
        ]);
        let rows = decode(&r.attribution);
        let row = &rows["nfs.read"];
        assert_eq!(row.ops, 10);
        assert_eq!(row.total_ns, 2_000_000);
        assert_eq!(row.bucket_ns["rpc"], 1_500_000);
        assert_eq!(row.bucket_ns["net"], 500_000);
    }

    #[test]
    fn table_shows_percentages_of_total() {
        let r = report_with(&[
            ("iscsi.write.ops", 4),
            ("iscsi.write.total_ns", 1_000_000),
            ("iscsi.write.disk_ns", 250_000),
            ("iscsi.write.client_ns", 750_000),
        ]);
        let t = attribution_table(&r);
        let rendered = t.render();
        assert!(rendered.contains("iscsi.write"), "{rendered}");
        assert!(rendered.contains("25.0"), "{rendered}");
        assert!(rendered.contains("75.0"), "{rendered}");
        assert!(rendered.contains("1.000"), "total ms: {rendered}");
    }

    #[test]
    fn zero_total_renders_dashes_not_divide_by_zero() {
        let r = report_with(&[("x.ops", 1), ("x.total_ns", 0)]);
        let t = attribution_table(&r);
        assert!(t.render().contains('-'));
    }

    #[test]
    fn percent_rounds_to_nearest_permille() {
        assert_eq!(percent(1, 3), "33.3");
        assert_eq!(percent(2, 3), "66.7");
        assert_eq!(percent(1, 1), "100.0");
        assert_eq!(percent(0, 5), "0.0");
    }

    #[test]
    fn gauge_table_reports_zero_rows_and_means() {
        let mut r = RunReport {
            name: "g".to_string(),
            ..RunReport::default()
        };
        r.gauges
            .insert("never.sampled".into(), GaugeStats::default());
        let mut s = GaugeStats::default();
        s.observe(10);
        s.observe(20);
        r.gauges.insert("link.util_pct".into(), s);
        let rendered = gauge_table(&r).render();
        assert!(rendered.contains("never.sampled"), "{rendered}");
        assert!(rendered.contains("15"), "mean of 10,20: {rendered}");
    }
}
