//! The experiment runners at test scale: one list, shared by the two
//! option-transparency properties — `sweep_determinism` (worker count)
//! and `snapshot_props` (setup sharing) — so that a runner added here
//! is held to both.
//!
//! Every runner covers all its protocols internally; each is exercised
//! at two or more configurations (depths, sizes, file counts, client
//! counts), scaled down to keep the suite affordable.

use ipstorage_core::experiments::micro::CacheState;
use ipstorage_core::experiments::{ablation, data, enhance, frontier, macrob, micro, scale};
use ipstorage_core::{RunOptions, RunReport, Table};
use workloads::{DssConfig, OltpConfig};

/// A runner's name and everything it prints, as one string.
pub type Runner = (&'static str, fn(RunOptions) -> String);

fn printed((table, report): (Table, RunReport)) -> String {
    format!("{}{}", table.render(), report.to_json())
}

pub const MICRO_AND_DATA: &[Runner] = &[
    ("micro matrix, cold", |o| {
        let (_, r) = micro::matrix(
            "micro",
            o,
            CacheState::Cold,
            &["mkdir", "creat", "stat"],
            &[0, 2],
        );
        r.to_json()
    }),
    ("micro matrix, warm", |o| {
        let (_, r) = micro::matrix(
            "micro",
            o,
            CacheState::Warm,
            &["mkdir", "creat", "stat"],
            &[0, 2],
        );
        r.to_json()
    }),
    ("table4", |o| printed(data::table4(o, 8))),
    ("figure6", |o| {
        let (points, r) = data::figure6(o, &[10, 50], 8);
        printed((data::figure6_table(&points, 8), r))
    }),
    ("tcp", |o| {
        let (points, r) = data::figure6_tcp(o, &[10, 90], 2);
        printed((data::figure6_tcp_table(&points, 2), r))
    }),
];

pub const MACRO: &[Runner] = &[
    ("table5", |o| printed(macrob::table5(o, &[400, 800], 500))),
    ("table6", |o| {
        let cfg = OltpConfig {
            db_pages: 2048,
            transactions: 300,
            ..OltpConfig::default()
        };
        printed(macrob::table6(o, cfg))
    }),
    ("table7", |o| {
        let cfg = DssConfig {
            db_pages: 4096,
            ..DssConfig::default()
        };
        printed(macrob::table7(o, cfg))
    }),
    ("table9_10", |o| {
        let oltp = OltpConfig {
            db_pages: 1024,
            transactions: 200,
            ..OltpConfig::default()
        };
        let dss = DssConfig {
            db_pages: 2048,
            ..DssConfig::default()
        };
        let (t9, t10, r) = macrob::table9_10(o, 300, 500, oltp, dss);
        format!("{}{}{}", t9.render(), t10.render(), r.to_json())
    }),
];

pub const ABLATION_ENHANCE_SCALE: &[Runner] = &[
    ("ablations", |o| {
        let all: Vec<String> = ablation::all(o).into_iter().map(printed).collect();
        all.join("\n")
    }),
    ("section7 postmark", |o| {
        printed(enhance::section7_postmark(o, 500, 800))
    }),
    ("scale", |o| {
        let (runs, r) = scale::scale(o, &[1, 2], 100, 200, None);
        printed((scale::scale_table(&runs, 200), r))
    }),
    ("frontier", |o| {
        printed(frontier::frontier(o, &[(4, 2), (8, 4)], 20, 200))
    }),
];
