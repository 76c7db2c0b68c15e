//! One runner per table and figure of the paper's evaluation, and the
//! [`REGISTRY`] the `tables` binary dispatches them from.
//!
//! Each runner takes the [`RunOptions`] of the run plus its own scale
//! parameters and returns its rendered [`Table`]s (or the data behind
//! them) with a [`RunReport`]. Integration tests call
//! the runners directly with small parameters; the paper-scale and
//! `--quick` parameter sets live here, in the registry, and nowhere
//! else.

pub mod ablation;
pub(crate) mod closedloop;
pub mod data;
pub mod enhance;
pub mod frontier;
pub mod macrob;
pub mod micro;
pub mod scale;

use crate::sweep::RunOptions;
use crate::{Protocol, RunReport, Table};
use simkit::{json, Json, SimDuration};
use workloads::{DssConfig, OltpConfig, TreeSpec};

/// One thing a registered experiment hands the CLI to print.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// A rendered table or plot; printed followed by a blank line.
    Text(String),
    /// The run report of the artifacts before it; printed as the
    /// attribution and gauge tables (`--attribution`) and as one JSON
    /// line (`--json`).
    Report(RunReport),
    /// A document of the committed record: its path from the checkout
    /// root and its content. Only a paper-scale run yields one, and
    /// only `tables --record DIR` writes it (to `DIR/<path>`).
    Record(&'static str, Json),
}

/// One entry of the [`REGISTRY`].
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The name `tables` selects it by; `a|b` answers to both.
    pub name: &'static str,
    /// Whether it runs only when named (the default run skips it).
    pub opt_in: bool,
    /// Runs it at paper scale, or at the reduced `--quick` scale.
    pub run: fn(RunOptions, bool) -> Vec<Artifact>,
}

impl Experiment {
    /// Whether `selection` names this experiment.
    pub fn answers_to(&self, selection: &str) -> bool {
        self.name.split('|').any(|n| n == selection)
    }
}

/// A two-protocol sweep's cells: each of `params` with NFS v3, then
/// with iSCSI.
fn both_protocols<T: Copy>(params: &[T]) -> Vec<(T, Protocol)> {
    let both = |&p: &T| [(p, Protocol::NfsV3), (p, Protocol::Iscsi)];
    params.iter().flat_map(both).collect()
}

fn table_and_report((table, report): (Table, RunReport)) -> Vec<Artifact> {
    vec![Artifact::Text(table.render()), Artifact::Report(report)]
}

const fn default(name: &'static str, run: fn(RunOptions, bool) -> Vec<Artifact>) -> Experiment {
    Experiment {
        name,
        opt_in: false,
        run,
    }
}

const fn opt_in(name: &'static str, run: fn(RunOptions, bool) -> Vec<Artifact>) -> Experiment {
    Experiment {
        name,
        opt_in: true,
        run,
    }
}

const PAPER_RTTS_MS: [u64; 5] = [10, 30, 50, 70, 90];

/// Every experiment `tables` can run, in the order it prints them, with
/// the paper-scale and `--quick` parameters of each.
pub const REGISTRY: [Experiment; 18] = [
    default("table2", |o, _| table_and_report(micro::table2(o))),
    default("table3", |o, _| table_and_report(micro::table3(o))),
    default("figure3", |o, _| table_and_report(micro::figure3(o))),
    default("figure4", |o, _| table_and_report(micro::figure4(o))),
    default("figure5", |o, _| table_and_report(micro::figure5(o))),
    default("table4", |o, quick| {
        table_and_report(data::table4(o, if quick { 16 } else { data::FILE_MB }))
    }),
    default("figure6", |o, quick| {
        let (rtts, mb): (&[u64], u64) = if quick {
            (&[10, 50, 90], 16)
        } else {
            (&PAPER_RTTS_MS, data::FILE_MB)
        };
        let (points, report) = data::figure6(o, rtts, mb);
        let (reads, writes) = data::figure6_plots(&points);
        vec![
            Artifact::Text(data::figure6_table(&points, mb).render()),
            Artifact::Text(format!("{}\n{}", reads.render(), writes.render())),
            Artifact::Report(report),
        ]
    }),
    default("table5", |o, quick| {
        table_and_report(if quick {
            macrob::table5(o, &[1000, 5000], 10_000)
        } else {
            macrob::table5(o, &[1000, 5000, 25_000], 100_000)
        })
    }),
    default("table6", |o, _| {
        table_and_report(macrob::table6(o, OltpConfig::default()))
    }),
    default("table7", |o, quick| {
        // The default is the paper's scale factor 1 (1 GB).
        let mut dss = DssConfig::default();
        if quick {
            dss.db_pages = 32_768;
        }
        table_and_report(macrob::table7(o, dss))
    }),
    default("table8", |o, _| {
        table_and_report(macrob::table8(o, TreeSpec::default()))
    }),
    default("table9|table10", |o, _| {
        let dss = DssConfig {
            db_pages: 65_536, // 256 MB keeps the CPU sweep affordable
            ..DssConfig::default()
        };
        let (t9, t10, report) = macrob::table9_10(o, 5000, 20_000, OltpConfig::default(), dss);
        vec![
            Artifact::Text(t9.render()),
            Artifact::Text(t10.render()),
            Artifact::Report(report),
        ]
    }),
    default("scale", |o, quick| {
        let (counts, files, txns): (&[usize], _, _) = if quick {
            (&[1, 2, 4, 8], 200, 500)
        } else {
            (&[1, 2, 4, 8, 12, 16], 500, 2000)
        };
        let (runs, report) = scale::scale(o, counts, files, txns, None);
        let mut out = table_and_report((scale::scale_table(&runs, txns), report));
        if !quick {
            let cells = runs.iter().map(|r| {
                json!({
                    "protocol": protocol_name(r.protocol), "clients": r.clients,
                    "ops_per_sec": two_places(r.ops_per_sec),
                    "server_cpu_pct": two_places(r.server_cpu_pct),
                    "completion_ns": r.completion.as_nanos(), "msgs_per_client": r.msgs_per_client,
                    "p95_us": r.p95_us, "getattrs": r.getattrs,
                })
            });
            let doc = json!({ "bench": "scale", "files": files, "transactions": txns,
                "quick": false, "cells": cells.collect::<Json>() });
            out.push(Artifact::Record("BENCH_scale.json", doc));
        }
        out
    }),
    default("figure7", |_, _| {
        vec![Artifact::Text(enhance::figure7().render())]
    }),
    default("section7", |o, _| {
        let mut out = vec![Artifact::Text(enhance::section7_traces().render())];
        out.extend(table_and_report(enhance::section7_postmark(
            o, 1000, 10_000,
        )));
        out
    }),
    // Opt-in: the default run stays byte-identical to the pipe-only
    // goldens even with the TCP model compiled in. At paper scale it
    // also yields `BENCH_tcp.json`: its sweep, the iSCSI MC/S pair (8 MB
    // at 20 ms, 1 vs 4 connections; Kumar et al.) and the congested
    // N = 1, 2, 4 scale grid.
    opt_in("tcp", |o, quick| {
        let (rtts, mb): (&[u64], u64) = if quick {
            (&[10, 90], 4)
        } else {
            (&PAPER_RTTS_MS, 8)
        };
        let (points, report) = data::figure6_tcp(o, rtts, mb);
        let table = data::figure6_tcp_table(&points, mb);
        let mut out = table_and_report((table, report));
        if !quick {
            let (mcs_mb, rtt_ms, files, txns) = (8, 20, 200, 500);
            let [conn1, conn4] = data::mcs_pair(mcs_mb, rtt_ms);
            let congested = net::LinkParams::wan(SimDuration::from_millis(rtt_ms))
                .with_transport(net::TransportModel::Tcp { connections: 1 });
            let (grid, _) = scale::scale(o, &[1, 2, 4], files, txns, Some(congested));
            // The NFS cell at the widest (last) RTT retransmits at the RPC
            // and TCP layers with no loss parameter: the paper's §4.6 cliff.
            let cliff = points[points.len() - 2];
            let emergent = cliff.rpc_retransmits > 0 && cliff.tcp_retx_segs > 0;
            let sweep = points.iter().map(|p| {
                json!({
                    "protocol": protocol_name(p.protocol), "rtt_ms": p.rtt_ms,
                    "write_ns": p.time.as_nanos(), "rpc_retransmits": p.rpc_retransmits,
                    "tcp_retx_segs": p.tcp_retx_segs,
                })
            });
            let grid = grid.iter().map(|r| {
                json!({
                    "protocol": protocol_name(r.protocol), "clients": r.clients,
                    "ops_per_sec": two_places(r.ops_per_sec),
                    "completion_ns": r.completion.as_nanos(), "tcp_retx_segs": r.tcp_retx_segs,
                })
            });
            let doc = json!({
                "bench": "tcp", "quick": false, "emergent_retransmits": emergent,
                "mcs_throughput_changes": conn1 != conn4,
                "mcs": { "mb": mcs_mb, "rtt_ms": rtt_ms,
                    "conn1": { "write_ns": conn1.0.as_nanos(), "read_ns": conn1.1.as_nanos() },
                    "conn4": { "write_ns": conn4.0.as_nanos(), "read_ns": conn4.1.as_nanos() } },
                "figure6": { "mb": mb, "connections": 1u64, "cells": sweep.collect::<Json>() },
                "scale": { "files": files, "transactions": txns, "cells": grid.collect::<Json>() },
            });
            out.push(Artifact::Record("BENCH_tcp.json", doc));
        }
        out
    }),
    // Opt-in: the sharded iso-throughput frontier (N clients over M
    // server shards at a fixed aggregate transaction budget).
    opt_in("frontier", |o, quick| {
        table_and_report(if quick {
            frontier::frontier(o, &[(4, 1), (4, 2), (8, 2), (8, 4)], 100, 2_000)
        } else {
            // The same N spread over 1, 2 and 4 shards.
            let grid = [4, 8, 16].map(|n| [1, 2, 4].map(|m| (n, m)));
            frontier::frontier(o, grid.as_flattened(), 200, 16_000)
        })
    }),
    opt_in("ablations", |o, _| {
        ablation::all(o)
            .into_iter()
            .flat_map(table_and_report)
            .collect()
    }),
];

// The record documents keep the keys and decimal places their files
// have always had.
fn protocol_name(protocol: Protocol) -> String {
    format!("{protocol:?}").to_lowercase()
}

fn two_places(x: f64) -> Json {
    Json::Num(format!("{x:.2}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CLI contract: `tables` prints in registry order, and
    /// hostbench concatenates per-selection outputs by these names.
    #[test]
    fn registry_names_order_and_opt_ins_are_the_cli_contract() {
        let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        assert_eq!(
            names.join(" "),
            "table2 table3 figure3 figure4 figure5 table4 figure6 table5 table6 table7 \
             table8 table9|table10 scale figure7 section7 tcp frontier ablations"
        );
        let opt_ins: Vec<&str> = REGISTRY
            .iter()
            .filter(|e| e.opt_in)
            .map(|e| e.name)
            .collect();
        assert_eq!(opt_ins, ["tcp", "frontier", "ablations"]);
    }

    #[test]
    fn every_selection_names_exactly_one_experiment() {
        let selections: Vec<&str> = REGISTRY.iter().flat_map(|e| e.name.split('|')).collect();
        assert_eq!(selections.len(), 19, "table9 and table10 share an entry");
        for s in &selections {
            let hits = REGISTRY.iter().filter(|e| e.answers_to(s)).count();
            assert_eq!(hits, 1, "`{s}` must name exactly one experiment");
        }
        assert!(!REGISTRY.iter().any(|e| e.answers_to("table9|table10")));
        assert!(!REGISTRY.iter().any(|e| e.answers_to("")));
    }
}
