#!/usr/bin/env bash
# hostbench: builds the product's `tables` binary and this package in
# release mode, then runs the benchmark. See README.md beside this file.
#
#   run.sh [--seed N] [--workload W] [--seconds S] [--selfcheck] [--trace-out FILE]
#       the whole benchmark (or one workload): timed pass, then traced
#       pass, one JSON document on stdout, a table on stderr
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       one pass of one workload; the last stdout line is
#       {"correct", "attempted", "failed", "metrics"}
#   run.sh --describe
#       prints BENCHMARK.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../.." && pwd)"
cd "$root"

# A relative CARGO_TARGET_DIR is relative to the checkout root; both
# builds share it, and every file the benchmark writes lands in it.
CARGO_TARGET_DIR="$(realpath -m "${CARGO_TARGET_DIR:-target}")"
export CARGO_TARGET_DIR

cargo build --release --offline --quiet -p bench --bin tables
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"

HOSTBENCH_CLK_TCK="$(getconf CLK_TCK 2>/dev/null || echo 100)"
HOSTBENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
HOSTBENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export HOSTBENCH_CLK_TCK HOSTBENCH_RUSTC HOSTBENCH_COMMIT

# Back the heap with transparent huge pages where the kernel offers
# them on madvise (glibc >= 2.35; ignored elsewhere). A benchmark
# setting, the same for every commit measured: with 4 KB pages a unit
# on an already-resident heap still takes 40 000-100 000 page faults,
# and on the recording VM a fault costs 10-140 us depending on the
# hour, which buried the program's own time (README, "Steadiness").
export GLIBC_TUNABLES="${GLIBC_TUNABLES:+$GLIBC_TUNABLES:}glibc.malloc.hugetlb=1"

exec "$CARGO_TARGET_DIR/release/hostbench" "$@"
