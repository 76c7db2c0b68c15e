//! Properties of the setup-snapshot cache (the PR's hard invariant):
//! forking a cell from a cached snapshot must be observationally
//! identical to cold-building it, for every experiment runner, and
//! forks must be isolated from the snapshot and from each other.

mod common;

use common::Runner;
use ipstorage_core::snapshot::{SetupKey, Snapshot};
use ipstorage_core::{Protocol, RunOptions, Testbed, TestbedConfig};
use std::sync::Barrier;

/// Asserts each runner emits the same bytes with setup sharing on and
/// off.
fn transparent(runners: &[Runner]) {
    for (name, run) in runners {
        let with_sharing = |share_setups| {
            run(RunOptions {
                share_setups,
                ..RunOptions::default()
            })
        };
        assert!(
            with_sharing(true) == with_sharing(false),
            "runner `{name}` output differs when snapshot sharing is disabled"
        );
    }
}

#[test]
fn snapshot_transparency_micro_and_data_runners() {
    transparent(common::MICRO_AND_DATA);
}

#[test]
fn snapshot_transparency_macro_runners() {
    transparent(common::MACRO);
}

#[test]
fn snapshot_transparency_ablation_enhance_scale_runners() {
    transparent(common::ABLATION_ENHANCE_SCALE);
}

/// How a run behaves is a value the runner is handed, not a property
/// of the process: two runs with opposite options, forced to overlap,
/// each print exactly what they print alone. (Attribution fills a
/// report section of its own, so the two outputs differ from each
/// other; neither may differ from its solo run.)
#[test]
fn concurrent_runs_with_different_options_do_not_interfere() {
    let (_, run) = common::MICRO_AND_DATA[0];
    let traced_cold = RunOptions {
        jobs: 1,
        share_setups: false,
        attribution: true,
    };
    let plain_shared = RunOptions {
        jobs: 1,
        share_setups: true,
        attribution: false,
    };
    let alone = [run(traced_cold), run(plain_shared)];
    assert_ne!(alone[0], alone[1], "attribution must show in the report");

    let start = Barrier::new(2);
    let together = std::thread::scope(|s| {
        let spawn = |options| {
            let start = &start;
            s.spawn(move || {
                start.wait();
                run(options)
            })
        };
        let handles = [spawn(traced_cold), spawn(plain_shared)];
        handles.map(|h| h.join().expect("runner thread"))
    });
    assert!(
        alone == together,
        "a concurrent run changed a runner's bytes"
    );
}

/// Builds a small-pool snapshot for the isolation properties.
fn pool_snapshot(protocol: Protocol) -> Snapshot {
    let key = SetupKey::for_config(&TestbedConfig::new(protocol), "props:pool");
    let tb = Testbed::with_protocol_seeded(protocol, key.setup_seed());
    tb.fs().mkdir("/pool").unwrap();
    for i in 0..20 {
        let path = format!("/pool/f{i}");
        tb.fs().creat(&path).unwrap();
        let fd = tb.fs().open(&path).unwrap();
        tb.fs().write(fd, 0, &[i as u8; 4096]).unwrap();
        tb.fs().close(fd).unwrap();
    }
    Snapshot::capture(tb, key)
}

/// A fork's writes stay in its overlay: siblings (and the snapshot)
/// never observe them, on either protocol stack.
#[test]
fn fork_writes_are_isolated() {
    for proto in [Protocol::NfsV3, Protocol::Iscsi] {
        let snap = pool_snapshot(proto);
        let baseline = snap.fork(99).diverged_blocks();

        let a = snap.fork(1);
        a.fs().creat("/pool/only-in-a").unwrap();
        let fd = a.fs().open("/pool/only-in-a").unwrap();
        a.fs().write(fd, 0, &[0xAA; 32_768]).unwrap();
        a.settle();
        assert!(a.diverged_blocks() > baseline, "{proto:?}: writes diverge");

        let b = snap.fork(2);
        assert_eq!(
            b.diverged_blocks(),
            baseline,
            "{proto:?}: sibling fork starts clean"
        );
        assert!(
            b.fs().open("/pool/only-in-a").is_err(),
            "{proto:?}: sibling fork must not see a's file"
        );
        let fd = b.fs().open("/pool/f3").unwrap();
        let data = b.fs().read(fd, 0, 4096).unwrap();
        assert!(
            data.iter().all(|&x| x == 3),
            "{proto:?}: snapshot content intact in sibling"
        );
    }
}

/// The measured phase of a fork is a pure function of its seed:
/// concurrent forks on worker threads reproduce the sequential
/// results exactly (the property the parallel sweep relies on).
#[test]
fn concurrent_forks_match_sequential_forks() {
    let snap = pool_snapshot(Protocol::NfsV3);
    let measure = |seed: u64| {
        let tb = snap.fork(seed);
        let m0 = tb.messages();
        let t0 = tb.now();
        for i in 0..20 {
            tb.fs().stat(&format!("/pool/f{i}")).unwrap();
        }
        tb.fs().creat("/pool/extra").unwrap();
        tb.settle();
        (tb.now().since(t0), tb.messages() - m0)
    };
    let sequential: Vec<_> = (0..4).map(measure).collect();
    let concurrent: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4).map(|seed| s.spawn(move || measure(seed))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(sequential, concurrent);
}
