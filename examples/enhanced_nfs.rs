//! The paper's §7 proposal, end to end: give NFS v4 a
//! strongly-consistent read-only meta-data cache and directory
//! delegation, and watch the meta-data gap to iSCSI close.
//!
//! ```sh
//! cargo run --release --example enhanced_nfs
//! ```

use ipstorage::core::{Protocol, Testbed, TestbedConfig};
use ipstorage::nfs::Enhancements;
use ipstorage::workloads::{postmark, PostmarkConfig};

fn run(label: &str, tb: Testbed) {
    let cfg = PostmarkConfig {
        file_count: 1000,
        transactions: 5_000,
        subdirs: 10,
        ..PostmarkConfig::default()
    };
    let m0 = tb.messages();
    let t0 = tb.now();
    postmark::run(tb.fs(), "/pm", cfg).expect("postmark");
    let elapsed = tb.now().since(t0);
    tb.settle();
    println!(
        "{:<24} {:>9.2}s {:>12} msgs",
        label,
        elapsed.as_secs_f64(),
        tb.messages() - m0
    );
}

fn main() {
    println!("PostMark (1000 files, 5000 transactions)\n");
    run("NFS v4 (plain)", Testbed::with_protocol(Protocol::NfsV4));

    let mut cfg = TestbedConfig::new(Protocol::NfsV4);
    cfg.enhancements = Enhancements {
        consistent_metadata_cache: true,
        directory_delegation: false,
    };
    run("NFS v4 + meta cache", Testbed::build(cfg));

    let mut cfg = TestbedConfig::new(Protocol::NfsV4);
    cfg.enhancements = Enhancements {
        consistent_metadata_cache: true,
        directory_delegation: true,
    };
    run("NFS v4 + cache + deleg.", Testbed::build(cfg));

    run("iSCSI", Testbed::with_protocol(Protocol::Iscsi));

    println!("\nThe read-only cache removes revalidation traffic; directory");
    println!("delegation batches meta-data updates like the ext3 journal does");
    println!("for iSCSI (paper §7).");
}
