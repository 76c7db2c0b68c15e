//! Deterministic fan-out of independent work items across threads.
//!
//! The simulation engine itself is single-threaded (`Sim` is built on
//! `Rc`/`Cell`), so parallelism lives one level up: a *sweep* is a set
//! of independent cells — (protocol, config, seed) points — each of
//! which builds its own engine, runs to completion, and returns a
//! plain-data result. This module provides the executor: it claims
//! cell indices from a shared atomic counter (work-stealing, so uneven
//! cell costs balance out), runs each cell on one of `jobs` worker
//! threads, and returns the results **in cell-index order** regardless
//! of which worker finished when. Determinism therefore reduces to the
//! cells themselves being functions of their index, which the callers
//! guarantee by deriving per-cell RNG streams with
//! [`SplitMix64::fork`](crate::SplitMix64::fork).
//!
//! Worker counts are clamped to the machine's available parallelism:
//! the cells are CPU-bound with no blocking I/O, so threads beyond the
//! core count only add scheduler churn (an oversubscribed sweep on a
//! small host used to run *slower* than sequential).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable consulted by [`default_jobs`].
pub const JOBS_ENV: &str = "IPSTORAGE_JOBS";

/// The machine's available parallelism — the most workers a sweep can
/// usefully run, and the cap applied to every requested worker count.
pub(crate) fn max_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The worker count of a sweep nobody gave one: the `IPSTORAGE_JOBS`
/// environment variable, else the machine's available parallelism.
/// Always at least 1 and never more than the available parallelism —
/// CPU-bound cells gain nothing from oversubscription. This is the
/// only place the variable is read.
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var(JOBS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n.min(max_jobs());
            }
        }
    }
    max_jobs()
}

/// Runs `f(0) .. f(n - 1)` on up to `jobs` worker threads and returns
/// the results in index order.
///
/// With `jobs <= 1` (or a single cell) the closure is invoked inline
/// on the caller's thread in ascending index order — the exact
/// sequential execution a non-sweep caller would have written. With
/// more workers, indices are claimed from a shared counter so threads
/// steal whatever cell is next; each worker hands its `(index,
/// result)` pairs back through its join handle and the caller places
/// them by index, so the returned `Vec` ordering is independent of
/// scheduling. The worker count is clamped to the machine's available
/// parallelism. A panic in any cell propagates to the caller, with
/// the cell's own payload, once all workers stop.
pub fn run_indexed<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_threaded(jobs.clamp(1, max_jobs()), n, None, f)
}

/// Like [`run_indexed`], but callers supply a per-cell cost estimate
/// (any monotone proxy: virtual seconds, transaction counts, file
/// counts) and workers claim the most expensive cells first.
///
/// Starting the long poles early shrinks the tail of the sweep — the
/// worst case for naive index order is the most expensive cell being
/// claimed last and running alone while every other worker idles.
/// Results still return in index order and each cell still sees only
/// its own index, so output is byte-identical to the unhinted run;
/// the estimates influence scheduling only.
///
/// # Panics
///
/// Panics if `costs.len() != n`.
pub fn run_indexed_hinted<T, F>(jobs: usize, n: usize, costs: &[u64], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert_eq!(costs.len(), n, "one cost estimate per cell");
    run_threaded(jobs.clamp(1, max_jobs()), n, Some(costs), f)
}

#[expect(
    clippy::disallowed_methods,
    reason = "D4: the one sanctioned home of threads; results return in index order"
)]
fn run_threaded<T, F>(jobs: usize, n: usize, costs: Option<&[u64]>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let order: Option<Vec<usize>> = costs.map(claim_order);
    let workers = jobs.min(n);
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let pos = next.fetch_add(1, Ordering::Relaxed);
                        if pos >= n {
                            return done;
                        }
                        let i = order.as_ref().map_or(pos, |o| o[pos]);
                        done.push((i, f(i)));
                    }
                })
            })
            .collect();
        for handle in handles {
            let done = handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (i, result) in done {
                results[i] = Some(result);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every cell index was claimed exactly once"))
        .collect()
}

/// Claim-order permutation for a hinted run: most expensive first.
/// The sort is stable, so equal costs keep index order and the
/// schedule is a pure function of the cost vector.
fn claim_order(costs: &[u64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..costs.len()).collect();
    idx.sort_by_key(|&i| std::cmp::Reverse(costs[i]));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_index_order() {
        let out = run_indexed(4, 64, |i| i * 3);
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        // Under Miri each interpreted instruction is ~4 orders of
        // magnitude slower; shrink the busy-work, not the protocol.
        let spin = if cfg!(miri) { 10 } else { 1000 };
        let f = move |i: usize| {
            // A cell whose cost varies with its index, so workers
            // finish out of order.
            let mut acc = i as u64;
            for k in 0..(i % 7) * spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k as u64);
            }
            acc
        };
        assert_eq!(run_indexed(1, 40, f), run_indexed(4, 40, f));
        assert_eq!(run_indexed(1, 40, f), run_indexed(9, 40, f));
        // Exercise the threaded path even on a single-core host,
        // where the public entry points clamp to one worker.
        assert_eq!(run_indexed(1, 40, f), run_threaded(4, 40, None, f));
    }

    #[test]
    fn a_cell_panic_reaches_the_caller_with_its_own_message() {
        let caught = std::panic::catch_unwind(|| {
            run_threaded(2, 8, None, |i| {
                if i == 5 {
                    panic!("cell 5 failed");
                }
                i
            })
        });
        let payload = caught.expect_err("the cell's panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"cell 5 failed"));
    }

    #[test]
    fn zero_cells_is_empty() {
        let out: Vec<u32> = run_indexed(4, 0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_cells() {
        let out = run_indexed(16, 3, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn cost_hints_do_not_change_results() {
        let f = |i: usize| (i, i as u64 * 7);
        let costs: Vec<u64> = (0..40).map(|i| (40 - i) as u64 % 11).collect();
        assert_eq!(run_indexed(4, 40, f), run_indexed_hinted(4, 40, &costs, f));
        assert_eq!(
            run_indexed(1, 40, f),
            run_threaded(4, 40, Some(&costs), f),
            "threaded hinted run matches sequential"
        );
    }

    #[test]
    fn cost_hints_claim_expensive_cells_first() {
        // Expensive first; the stable sort keeps index order on ties.
        assert_eq!(claim_order(&[5, 9, 9, 1]), vec![1, 2, 0, 3]);
        assert_eq!(claim_order(&[0, 0, 0]), vec![0, 1, 2]);
        assert_eq!(claim_order(&[]), Vec::<usize>::new());
    }

    #[test]
    #[should_panic(expected = "one cost estimate per cell")]
    fn cost_hints_must_cover_every_cell() {
        let _ = run_indexed_hinted(2, 3, &[1, 2], |i| i);
    }

    #[test]
    fn default_jobs_is_positive_and_within_the_machine() {
        assert!(default_jobs() >= 1);
        assert!(default_jobs() <= max_jobs());
    }

    #[test]
    fn requested_jobs_are_clamped_to_the_machine() {
        // A grossly oversubscribed request must still complete and
        // stay byte-identical — the clamp makes it cheap, too.
        let out = run_indexed(1 << 20, 8, |i| i * i);
        assert_eq!(out, (0..8).map(|i| i * i).collect::<Vec<_>>());
    }
}
