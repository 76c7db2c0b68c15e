//! The parallel-sweep guarantee (tier 1): running the experiment
//! sweeps across N workers produces output byte-identical to a
//! sequential run. CI additionally diffs full `tables --json` output
//! at `--jobs 1` vs `--jobs 2`; this test guards the same property
//! in-process at a scale small enough for every `cargo test`.

mod common;

use ipstorage::core::experiments::micro::{matrix, CacheState};
use ipstorage::core::sweep::{cell_seed, RunOptions, Sweep, MASTER_SEED};

fn jobs(jobs: usize) -> RunOptions {
    RunOptions {
        jobs,
        ..RunOptions::default()
    }
}

/// A trimmed micro-benchmark matrix — every syscall cell builds its
/// own testbed from a seed derived from `(master_seed, cell_index)` —
/// must emit the same values and the same RunReport bytes regardless
/// of the worker count.
#[test]
fn micro_sweep_is_byte_identical_across_jobs() {
    let ops = ["mkdir", "stat", "creat"];
    let depths = [0, 2];
    let (m1, r1) = matrix("micro", jobs(1), CacheState::Cold, &ops, &depths);
    let (m4, r4) = matrix("micro", jobs(4), CacheState::Cold, &ops, &depths);
    assert_eq!(m1, m4, "matrix values must not depend on --jobs");
    assert_eq!(
        r1.to_json(),
        r4.to_json(),
        "merged RunReport must be byte-identical across worker counts"
    );
}

/// Warm-cache variant with a worker count that does not divide the
/// cell count, so work-stealing interleaves across protocols.
#[test]
fn warm_sweep_is_byte_identical_with_ragged_workers() {
    let ops = ["chdir", "utime"];
    let depths = [1];
    let (m1, r1) = matrix("micro", jobs(1), CacheState::Warm, &ops, &depths);
    let (m3, r3) = matrix("micro", jobs(3), CacheState::Warm, &ops, &depths);
    assert_eq!(m1, m3);
    assert_eq!(r1.to_json(), r3.to_json());
}

/// Cell seeds are pure functions of `(master_seed, index)`: the same
/// schedule-independent streams every run, distinct across cells.
#[test]
fn cell_seeds_are_schedule_independent() {
    let (seeds, _) = Sweep::new(jobs(4)).run_cells("seeds", &[(); 32], None, |_, ctx| ctx.seed);
    for (i, &s) in seeds.iter().enumerate() {
        assert_eq!(s, cell_seed(MASTER_SEED, i));
    }
}

/// The multi-client scaling experiment rides the same engine: its
/// (clients × protocol) grid must produce the same runs and report
/// bytes whether the cells run sequentially or across workers.
#[test]
fn scale_sweep_is_byte_identical_across_jobs() {
    use ipstorage::core::experiments::scale::scale;
    let (runs1, r1) = scale(jobs(1), &[1, 2], 40, 80, None);
    let (runs3, r3) = scale(jobs(3), &[1, 2], 40, 80, None);
    assert_eq!(
        format!("{runs1:?}"),
        format!("{runs3:?}"),
        "runs independent of --jobs"
    );
    assert_eq!(
        r1.to_json(),
        r3.to_json(),
        "report bytes independent of --jobs"
    );
}

/// Every runner `snapshot_props` holds to "sharing on ≡ off" is held
/// to "jobs 1 ≡ jobs 3" here, from the same list at the same small
/// scale. CI additionally diffs the full `tables --json` output of
/// every registered selection at `--jobs 1` vs `--jobs 2`.
#[test]
fn every_listed_runner_is_byte_identical_across_jobs() {
    let groups = [
        common::MICRO_AND_DATA,
        common::MACRO,
        common::ABLATION_ENHANCE_SCALE,
    ];
    for (name, run) in groups.into_iter().flatten() {
        assert!(
            run(jobs(1)) == run(jobs(3)),
            "runner `{name}` output depends on the worker count"
        );
    }
}
