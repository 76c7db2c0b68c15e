//! Criterion benches for the parallel sweep engine: cells/sec at one
//! vs several workers, over the same 40-cell micro-benchmark matrix
//! that `sweep_bench` times (that binary is the offline-friendly path
//! and also reports allocation counts; these benches add Criterion's
//! statistics when the registry crate is available).
//!
//! Gated behind the non-default `criterion` feature like
//! `benches/paper.rs`; see `crates/bench/Cargo.toml`.

#[cfg(not(feature = "criterion"))]
fn main() {
    eprintln!("criterion benches disabled; see crates/bench/Cargo.toml to enable");
}

#[cfg(feature = "criterion")]
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
#[cfg(feature = "criterion")]
use ipstorage_core::experiments::micro::{matrix, CacheState};
#[cfg(feature = "criterion")]
use ipstorage_core::RunOptions;

#[cfg(feature = "criterion")]
fn bench_sweep_scaling(c: &mut Criterion) {
    let ops = ["mkdir", "stat", "creat", "open", "unlink"];
    let depths = [0, 2];
    let mut g = c.benchmark_group("sweep_scaling");
    g.sample_size(10);
    for jobs in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::new("micro_40_cells", jobs), &jobs, |b, &j| {
            let options = RunOptions {
                jobs: j,
                ..RunOptions::default()
            };
            b.iter(|| matrix("micro", options, CacheState::Cold, &ops, &depths))
        });
    }
    g.finish();
}

#[cfg(feature = "criterion")]
criterion_group!(benches, bench_sweep_scaling);
#[cfg(feature = "criterion")]
criterion_main!(benches);
