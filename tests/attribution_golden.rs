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
    attribution_table, gauge_table, Protocol, ReportBuilder, RunReport, Testbed, TopologyConfig,
};
use ipstorage::simkit::HostId;

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

/// Every system call on client 1 of a traced two-client testbed is one
/// `vfs` root span, labelled `<protocol>.<call>` after the method and
/// attributed to client 1's machine — for every `FileSystem` method,
/// not only the golden workload's.
#[test]
fn every_syscall_is_one_root_span_on_its_client() {
    for (protocol, family) in [(Protocol::NfsV3, "nfs"), (Protocol::Iscsi, "iscsi")] {
        let tb = Testbed::build_topology(TopologyConfig::new(protocol).with_clients(2));
        let tracer = tb.sim().tracer();
        tracer.set_enabled(true);
        let fs = tb.client_fs(1);
        // Runs one call with a fresh span buffer and checks its root span.
        let call = |op: &str, f: &dyn Fn()| {
            tracer.clear();
            f();
            let roots: Vec<_> = tracer
                .spans()
                .into_iter()
                .filter(|s| s.layer == "vfs")
                .collect();
            assert_eq!(roots.len(), 1, "{family}.{op}: {roots:?}");
            assert_eq!(roots[0].op, format!("{family}.{op}"));
            assert_eq!(roots[0].parent, None, "{family}.{op}");
            assert_eq!(roots[0].host, HostId::client(1), "{family}.{op}");
        };
        call("mkdir", &|| fs.mkdir("/t").unwrap());
        call("chdir", &|| fs.chdir("/t").unwrap());
        call("creat", &|| fs.creat("f").unwrap());
        let fd = fs.open("f").unwrap();
        call("open", &|| assert_eq!(fs.open("f").unwrap(), fd));
        call("write", &|| {
            assert_eq!(fs.write(fd, 0, b"data").unwrap(), 4)
        });
        call("read", &|| assert_eq!(fs.read(fd, 0, 4).unwrap(), b"data"));
        call("read", &|| {
            assert_eq!(fs.read_into(fd, 0, &mut [0u8; 4]).unwrap(), 4);
        });
        call("fsync", &|| fs.fsync(fd).unwrap());
        call("close", &|| fs.close(fd).unwrap());
        call("link", &|| fs.link("f", "h").unwrap());
        call("symlink", &|| fs.symlink("f", "s").unwrap());
        call("readlink", &|| assert_eq!(fs.readlink("s").unwrap(), "f"));
        call("rename", &|| fs.rename("h", "h2").unwrap());
        call("truncate", &|| fs.truncate("f", 0).unwrap());
        call("chmod", &|| fs.chmod("f", 0o600).unwrap());
        call("chown", &|| fs.chown("f", 1, 1).unwrap());
        call("access", &|| fs.access("f").unwrap());
        call("stat", &|| assert_eq!(fs.stat("f").unwrap().perm, 0o600));
        call("utime", &|| fs.utime("f").unwrap());
        call("readdir", &|| assert_eq!(fs.readdir(".").unwrap().len(), 5));
        call("unlink", &|| fs.unlink("h2").unwrap());
        call("unlink", &|| fs.unlink("s").unwrap());
        call("unlink", &|| fs.unlink("f").unwrap());
        call("chdir", &|| fs.chdir("/").unwrap());
        call("rmdir", &|| fs.rmdir("/t").unwrap());
        call("statfs", &|| assert!(fs.statfs().unwrap().blocks_total > 0));
    }
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
