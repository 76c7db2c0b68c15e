#!/usr/bin/env bash
# Proves clippy rejects what the determinism rules D1-D4 forbid.
#
# Compiles each D1-D4 fixture under tests/fixtures with clippy-driver,
# reading the root clippy.toml and denying the lints the workspace
# denies, and checks that the lines it rejects are exactly the
# expected ones. A fixture expected clean must compile.
#
# Usage: crates/detlint/clippy_fixtures.sh  (needs the clippy component)
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
fixtures=$root/crates/detlint/tests/fixtures
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
command -v clippy-driver > /dev/null || { echo "clippy-driver not found"; exit 1; }

status=0
# check <fixture> "<rejected lines, ascending>" ("" = must compile)
check() {
    local name=$1 want=$2 log=$out/$1.log got rc=0
    CLIPPY_CONF_DIR=$root clippy-driver --edition 2021 --crate-type lib \
        --emit=metadata -o "$out/$name.rmeta" --error-format=short \
        -D warnings -D clippy::disallowed_methods -D clippy::disallowed_types \
        -D clippy::iter_over_hash_type -D clippy::allow_attributes_without_reason \
        "$fixtures/$name" > "$log" 2>&1 || rc=$?
    got=$(sed -nE "s|^.*/$name:([0-9]+):[0-9]+: error.*|\1|p" "$log" | sort -nu | xargs)
    if [ "$got" = "$want" ] && { [ -n "$want" ] || [ "$rc" -eq 0 ]; }; then
        echo "ok    $name [$want]"
    else
        echo "FAIL  $name: rejected at [$got] (exit $rc), want [$want]"
        cat "$log"
        status=1
    fi
}

check d1_wall_clock.rs "5 9 10"
check d2_hash_iteration.rs "8 13 26"
check d2_trace_id_map.rs "10 17"
check d2_through_boundary.rs "16 21"
check d3_ambient_randomness.rs "6 10 14 15"
check d4_thread_spawn.rs "10 11"
check clean.rs ""
check expect_with_reason.rs ""
check expect_without_reason.rs "4"
check expect_stale.rs "6"
exit $status
