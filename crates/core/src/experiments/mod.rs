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
use crate::{RunReport, Table};
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
            Artifact::Text(data::figure6_table(&points, rtts, mb).render()),
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
        table_and_report((scale::scale_table(&runs, txns), report))
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
    // goldens even with the TCP model compiled in.
    opt_in("tcp", |o, quick| {
        let (rtts, mb): (&[u64], u64) = if quick {
            (&[10, 90], 4)
        } else {
            (&PAPER_RTTS_MS, data::FILE_MB)
        };
        let (points, report) = data::figure6_tcp(o, rtts, mb, 1);
        let table = data::figure6_tcp_table(&points, rtts, mb);
        table_and_report((table, report))
    }),
    // Opt-in: the sharded iso-throughput frontier (N clients over M
    // server shards at a fixed aggregate transaction budget).
    opt_in("frontier", |o, quick| {
        table_and_report(if quick {
            frontier::frontier(o, &[(4, 1), (4, 2), (8, 2), (8, 4)], 100, 2_000)
        } else {
            // The same N spread over 1, 2 and 4 shards.
            let grid = [
                (4, 1),
                (4, 2),
                (4, 4),
                (8, 1),
                (8, 2),
                (8, 4),
                (16, 1),
                (16, 2),
                (16, 4),
            ];
            frontier::frontier(o, &grid, 200, 16_000)
        })
    }),
    opt_in("ablations", |o, _| {
        ablation::all(o)
            .into_iter()
            .flat_map(table_and_report)
            .collect()
    }),
];

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
