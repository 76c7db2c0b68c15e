//! Deterministic parallel sweep driver for the experiment runners.
//!
//! The paper's results are full-factorial sweeps — protocol × workload
//! × parameter — and the cells are independent: each one obtains its
//! own [`Testbed`] from its [`CellCtx`], runs to completion, and
//! reduces to plain data. This module fans those cells across a worker
//! pool (the [`simkit::sweep`] executor) while keeping output
//! *byte-identical* to a sequential run:
//!
//! 1. every cell's RNG seed is a pure function of
//!    `(master_seed, cell_index)` — see [`cell_seed`] — so no cell's
//!    randomness depends on scheduling,
//! 2. cell results come back in cell-index order regardless of which
//!    worker finished first, and
//! 3. per-cell report fragments merge in that order via operations
//!    (counter addition, bucket-wise histogram merge) whose results
//!    are order-independent anyway.
//!
//! Consequently `--jobs N` and `--jobs 1` emit the same bytes for the
//! same master seed, which CI verifies on every push.
//!
//! How a run behaves is one plain value, [`RunOptions`], handed to the
//! runner and from there to its [`Sweep`]; nothing in this crate reads
//! a process-wide switch.

use crate::report::{ReportBuilder, RunReport};
use crate::snapshot::{SetupKey, Snapshot, SnapshotCache};
use crate::testbed::DEFAULT_SEED;
use crate::{Testbed, TestbedConfig};
use simkit::{sweep as engine, SplitMix64};
use std::sync::Arc;

pub use simkit::sweep::{default_jobs, JOBS_ENV};

/// Master seed all experiment sweeps derive their cell streams from.
pub const MASTER_SEED: u64 = 42;

/// How an experiment runs — the three things `tables`' `--jobs`,
/// `--no-snapshot` and `--attribution` flags set. None of them changes
/// a byte of a runner's tables or of its report outside the
/// `attribution` section; CI diffs every combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Sweep worker threads (the executor clamps them to between 1 and
    /// the machine's available parallelism).
    pub jobs: usize,
    /// Whether the cells of a sweep that ask for the same [`SetupKey`]
    /// share one captured setup. Off, every cell rebuilds its setup
    /// cold and still goes through the same capture→fork path.
    pub share_setups: bool,
    /// Whether every measured testbed traces its requests, so that
    /// absorbing it folds the critical paths into the report's
    /// `attribution` section (see [`crate::attribution`]).
    pub attribution: bool,
}

impl Default for RunOptions {
    /// [`default_jobs`] workers (`IPSTORAGE_JOBS`, else every core),
    /// setups shared, no attribution.
    fn default() -> RunOptions {
        RunOptions {
            jobs: default_jobs(),
            share_setups: true,
            attribution: false,
        }
    }
}

/// The RNG seed for cell `index` of a sweep under `master_seed`:
/// stream `index` forked from the master generator. Pure, so a cell's
/// randomness never depends on which worker runs it or when.
pub fn cell_seed(master_seed: u64, index: usize) -> u64 {
    SplitMix64::new(master_seed).fork(index as u64).next_u64()
}

/// What a sweep hands each of its cells: the cell's seed, its report
/// fragment, and the only way to a measured [`Testbed`].
pub struct CellCtx<'a> {
    /// The cell's measure-phase seed, `cell_seed(master, index)`.
    pub seed: u64,
    /// `None` outside a sweep: nobody reads a stand-alone cell's report,
    /// so its testbed is not absorbed.
    report: Option<ReportBuilder>,
    cache: &'a SnapshotCache,
    attribution: bool,
}

impl<'a> CellCtx<'a> {
    /// A cell run outside any sweep: the testbed's default seed, no
    /// attribution, no report.
    pub(crate) fn standalone(cache: &'a SnapshotCache) -> CellCtx<'a> {
        CellCtx {
            seed: DEFAULT_SEED,
            report: None,
            cache,
            attribution: false,
        }
    }

    /// Every measured testbed passes through here, which makes it the
    /// one place attribution is switched on: after construction, so a
    /// setup-phase testbed (built inside a `setup` closure and dropped
    /// at capture) is never traced.
    fn measured(&self, tb: Testbed) -> Testbed {
        if self.attribution {
            tb.sim().tracer().set_enabled(true);
        }
        tb
    }

    fn snapshot(&self, key: SetupKey, setup: impl FnOnce(u64) -> Testbed) -> Arc<Snapshot> {
        self.cache.get_or_build(&key, |setup_seed| {
            Snapshot::capture(setup(setup_seed), key.clone())
        })
    }

    /// Forks the cell's testbed from the sweep's cached snapshot for
    /// `key`, running `setup` (under the key's setup seed) if no cell
    /// has yet.
    pub fn fork(&self, key: SetupKey, setup: impl FnOnce(u64) -> Testbed) -> Testbed {
        self.fork_with(key, |_| {}, setup)
    }

    /// [`fork`](Self::fork) with a measure-phase config override
    /// applied at fork time (see [`Snapshot::fork_with`]), so one
    /// setup serves a whole sweep over such a knob.
    pub(crate) fn fork_with(
        &self,
        key: SetupKey,
        tweak: impl FnOnce(&mut TestbedConfig),
        setup: impl FnOnce(u64) -> Testbed,
    ) -> Testbed {
        self.measured(self.snapshot(key, setup).fork_with(self.seed, tweak))
    }

    /// [`fork`](Self::fork) replicated over `servers` shards (see
    /// [`Snapshot::fork_sharded`]): `key` names the single-shard setup.
    pub(crate) fn fork_sharded(
        &self,
        key: SetupKey,
        servers: usize,
        setup: impl FnOnce(u64) -> Testbed,
    ) -> Testbed {
        self.measured(self.snapshot(key, setup).fork_sharded(self.seed, servers))
    }

    /// Builds the cell's testbed directly under the cell's seed, for a
    /// workload with no setup phase worth sharing (Table 8 extracts,
    /// lists, compiles and removes one tree on one testbed).
    pub(crate) fn build(&self, mut config: TestbedConfig) -> Testbed {
        config.seed = self.seed;
        self.measured(Testbed::build(config))
    }

    /// Folds a finished testbed into the cell's report fragment.
    pub(crate) fn absorb(&mut self, tb: &Testbed) {
        if let Some(report) = &mut self.report {
            report.absorb(tb);
        }
    }
}

/// One run of a cell list: its options, master seed, and the
/// [`SnapshotCache`] its cells share setups through (dropped with the
/// sweep, so a runner's captured setups never outlive it).
///
/// # Example
///
/// ```
/// use ipstorage_core::sweep::{RunOptions, Sweep};
/// let squares = |jobs| {
///     let options = RunOptions { jobs, ..RunOptions::default() };
///     Sweep::new(options).run_cells("squares", &[1u64, 2, 3], None, |n, _| n * n).0
/// };
/// assert_eq!(squares(4), squares(1));
/// ```
#[derive(Debug)]
pub struct Sweep {
    options: RunOptions,
    snapshots: SnapshotCache,
}

impl Sweep {
    /// A sweep under `options` and [`MASTER_SEED`], with an empty
    /// setup cache.
    pub fn new(options: RunOptions) -> Sweep {
        Sweep {
            options,
            snapshots: SnapshotCache::sharing(options.share_setups),
        }
    }

    /// The setup-snapshot cache this sweep's cells share: built once
    /// per unique [`SetupKey`], handed read-only to every worker.
    pub fn snapshots(&self) -> &SnapshotCache {
        &self.snapshots
    }

    /// Runs `body` once per cell and returns the results in cell order
    /// plus the cells' report fragments merged, in cell order, into one
    /// report named `name`.
    ///
    /// The body must be a pure function of its cell and [`CellCtx`]
    /// (get a testbed from the context, run, absorb it, return plain
    /// data): that plus index-ordered collection is exactly what makes
    /// a parallel sweep reproduce the sequential bytes. (Snapshot reuse
    /// preserves this: a snapshot is a pure function of its key, so a
    /// cell's result does not depend on which worker built the setup.)
    ///
    /// `cost` is an optional per-cell estimate (any monotone proxy) so
    /// workers claim expensive cells first; it changes the schedule,
    /// never the output.
    pub fn run_cells<C, R, F>(
        &self,
        name: &str,
        cells: &[C],
        cost: Option<fn(&C) -> u64>,
        body: F,
    ) -> (Vec<R>, RunReport)
    where
        C: Sync,
        R: Send,
        F: Fn(&C, &mut CellCtx<'_>) -> R + Sync,
    {
        let cell = |index: usize| {
            let mut ctx = CellCtx {
                seed: cell_seed(MASTER_SEED, index),
                report: Some(ReportBuilder::new("")),
                cache: &self.snapshots,
                attribution: self.options.attribution,
            };
            let result = body(&cells[index], &mut ctx);
            let fragment = ctx.report.expect("a sweep cell has a report").finish();
            (result, fragment)
        };
        let (jobs, n) = (self.options.jobs, cells.len());
        let out = match cost {
            Some(cost) => {
                let costs: Vec<u64> = cells.iter().map(cost).collect();
                engine::run_indexed_hinted(jobs, n, &costs, cell)
            }
            None => engine::run_indexed(jobs, n, cell),
        };
        let (results, fragments): (Vec<R>, Vec<RunReport>) = out.into_iter().unzip();
        (results, RunReport::merged(name, &fragments))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(jobs: usize) -> Sweep {
        Sweep::new(RunOptions {
            jobs,
            ..RunOptions::default()
        })
    }

    #[test]
    fn cell_seeds_are_stable_and_distinct() {
        let s0 = cell_seed(MASTER_SEED, 0);
        assert_eq!(s0, cell_seed(MASTER_SEED, 0), "pure function of inputs");
        let seeds: std::collections::HashSet<u64> =
            (0..1000).map(|i| cell_seed(MASTER_SEED, i)).collect();
        assert_eq!(seeds.len(), 1000, "distinct per cell index");
        assert_ne!(cell_seed(1, 0), cell_seed(2, 0), "master seed matters");
    }

    #[test]
    fn jobs_and_cost_hints_do_not_change_results() {
        let cells: Vec<u64> = (0..40).collect();
        let work = |c: &u64, ctx: &mut CellCtx<'_>| (*c, ctx.seed, ctx.seed % 17);
        let seq = sweep(1).run_cells("t", &cells, None, work);
        assert_eq!(seq.0, sweep(4).run_cells("t", &cells, None, work).0);
        let hinted = sweep(4).run_cells("t", &cells, Some(|c| (c * 37) % 5), work);
        assert_eq!(seq.0, hinted.0);
        assert_eq!(seq.1.name, "t");
        assert_eq!(seq.1.runs, 0, "no cell absorbed a testbed");
    }

    #[test]
    fn only_a_measured_testbed_is_traced_and_only_under_attribution() {
        let traced = |attribution| {
            let options = RunOptions {
                jobs: 1,
                attribution,
                ..RunOptions::default()
            };
            let protocols = [crate::Protocol::NfsV3];
            let (flags, _) = Sweep::new(options).run_cells("t", &protocols, None, |&p, ctx| {
                let cfg = TestbedConfig::new(p);
                let key = SetupKey::for_config(&cfg, "sweep:traced");
                let mut setup_traced = false;
                let tb = ctx.fork(key, |seed| {
                    let tb = Testbed::with_protocol_seeded(p, seed);
                    setup_traced = tb.sim().tracer().enabled();
                    tb
                });
                let built = ctx.build(cfg);
                (
                    setup_traced,
                    tb.sim().tracer().enabled(),
                    built.sim().tracer().enabled(),
                )
            });
            flags[0]
        };
        assert_eq!(traced(true), (false, true, true));
        assert_eq!(traced(false), (false, false, false));
    }
}
