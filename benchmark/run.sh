#!/usr/bin/env bash
# Builds the benchmark package and runs it.
#
#   benchmark/run.sh [--seed S] [--aa] [--seconds T]
#       every workload in its own process, then the traced pass; prints
#       every metric and writes benchmark/out/{results,trace}.json.
#       --aa does it twice on the same build and compares the two sets.
#
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#       one run of one workload; the last line of stdout is its result.
#
# Paths stay relative to the caller's directory so that a relative
# CARGO_TARGET_DIR means the same to cargo and to this script.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/ooc-benchmark" --bench-dir "$here" "$@"
