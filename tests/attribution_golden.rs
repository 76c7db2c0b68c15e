//! Golden regression for the critical-path attribution pipeline: a
//! small deterministic workload per protocol, traced with attribution
//! mode on, folded through `simkit::critpath`, and rendered exactly as
//! `tables --attribution` would print it.
//!
//! The fixture is `tests/golden/attribution_smoke.stdout`. To
//! re-capture after an intentional schema or model change:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test attribution_golden
//! ```
//!
//! Attribution is a property of the testbed being measured (its
//! tracer is on or off), so the tests here are independent and run on
//! parallel threads like any others.

use ipstorage::core::{
    attribution_table, gauge_table, Protocol, ReportBuilder, RunReport, Testbed,
};

/// The workload: metadata ops, a 64 KB write, settle (journal commit
/// lands), cold caches (the paper's unmount/remount protocol), then a
/// 64 KB read that must go over the wire.
fn traced_run(protocol: Protocol) -> RunReport {
    let tb = Testbed::with_protocol(protocol);
    // What a sweep cell does under `RunOptions::attribution`.
    tb.sim().tracer().set_enabled(true);
    let fs = tb.fs();
    fs.mkdir("/dir").unwrap();
    fs.creat("/dir/file").unwrap();
    let fd = fs.open("/dir/file").unwrap();
    fs.write(fd, 0, &vec![0x42u8; 64 * 1024]).unwrap();
    fs.close(fd).unwrap();
    tb.settle();
    tb.cold_caches();
    let fd = fs.open("/dir/file").unwrap();
    fs.read(fd, 0, 64 * 1024).unwrap();
    fs.close(fd).unwrap();
    tb.settle();
    let mut rb = ReportBuilder::new(format!("attribution_smoke.{protocol:?}"));
    rb.absorb(&tb);
    rb.finish()
}

fn rpc_ns(r: &RunReport, op: &str) -> u64 {
    r.attribution
        .get(&format!("{op}.rpc_ns"))
        .copied()
        .unwrap_or(0)
}

/// The paper's central asymmetry (§5, §6): every NFS data and
/// meta-data operation pays an RPC; iSCSI has no RPC layer at all, so
/// nothing can land in its rpc bucket.
#[test]
fn protocol_contrast_holds() {
    let nfs = traced_run(Protocol::NfsV3);
    let iscsi = traced_run(Protocol::Iscsi);
    assert!(
        rpc_ns(&nfs, "nfs.read") > 0,
        "NFS cold read must attribute time to the RPC layer: {:?}",
        nfs.attribution
    );
    assert!(
        rpc_ns(&nfs, "nfs.mkdir") > 0 && rpc_ns(&nfs, "nfs.creat") > 0,
        "NFS meta-data ops must attribute time to the RPC layer"
    );
    let iscsi_rpc: u64 = iscsi
        .attribution
        .iter()
        .filter(|(k, _)| k.ends_with(".rpc_ns"))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(iscsi_rpc, 0, "iSCSI must never touch the RPC bucket");
    // The iSCSI read's time goes to the wire and the platters instead.
    // (CDB spans delegate their whole budget to net/cpu/disk children,
    // so the residual `iscsi` bucket itself can legitimately be zero.)
    let get = |k: &str| iscsi.attribution.get(k).copied().unwrap_or(0);
    assert!(
        get("iscsi.read.net_ns") > 0 && get("iscsi.read.disk_ns") > 0,
        "iSCSI cold read must attribute time to net and disk: {:?}",
        iscsi.attribution
    );
}

/// An untraced testbed reports no attribution at all: the section is
/// filled by the tracer alone.
#[test]
fn untraced_run_attributes_nothing() {
    let tb = Testbed::with_protocol(Protocol::NfsV3);
    tb.fs().mkdir("/dir").unwrap();
    tb.settle();
    let mut rb = ReportBuilder::new("untraced");
    rb.absorb(&tb);
    assert!(rb.finish().attribution.is_empty());
}

#[test]
fn attribution_tables_match_golden() {
    let nfs = traced_run(Protocol::NfsV3);
    let iscsi = traced_run(Protocol::Iscsi);
    let mut actual = String::new();
    for (name, r) in [("NfsV3", &nfs), ("Iscsi", &iscsi)] {
        actual.push_str(&format!(
            "== {name} ==\n{}\n\n{}\n\n",
            attribution_table(r).render(),
            gauge_table(r).render()
        ));
    }

    let path = format!(
        "{}/tests/golden/attribution_smoke.stdout",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var("REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let golden = include_str!("golden/attribution_smoke.stdout");
    assert_eq!(
        actual, golden,
        "attribution output drifted from the golden; if intentional, \
         re-capture with REGEN_GOLDEN=1 cargo test --test attribution_golden"
    );
}
