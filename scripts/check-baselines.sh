#!/usr/bin/env bash
# The counter-baseline gate: re-runs the producer of every committed
# BENCH_*.json and diffs its deterministic counters against the
# baseline with bench-compare. Any hard difference (regression OR
# unrecorded improvement) makes the script exit non-zero, after every
# selected row has run.
#
#   scripts/check-baselines.sh              # all six rows
#   scripts/check-baselines.sh ledger seed  # only the named rows
#
# To refresh a baseline when a change is intended, run the row's
# producer with `--metrics <its BENCH file>`.
set -u
cd "$(dirname "$0")/.."

# name | producer and its arguments | committed baseline
ROWS=(
  "recovery|figure5 mxm 3|BENCH_recovery_seed.json"
  "table3|table3 4 --workers 4|BENCH_table3_seed.json"
  "analyze|analyze 8 --kernels trans|BENCH_analyze_seed.json"
  "ledger|table2 32 4 --ledger|BENCH_ledger_seed.json"
  "degraded|table3 --kill-node all|BENCH_degraded_seed.json"
  "seed|table2 32 4|BENCH_seed.json"
)

cargo build --release -p ooc-bench --bins || exit 2
bin="${CARGO_TARGET_DIR:-target}/release"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

failed=()
for row in "${ROWS[@]}"; do
  IFS='|' read -r name producer baseline <<<"$row"
  if [ "$#" -gt 0 ] && [[ " $* " != *" $name "* ]]; then
    continue
  fi
  fresh="$out/$name.json"
  echo "== $name: $producer -> $baseline"
  # shellcheck disable=SC2086  # the producer's arguments split on purpose
  "$bin"/$producer --metrics "$fresh" >"$out/$name.log" 2>&1 \
    && "$bin/bench-compare" --validate "$fresh" \
    && "$bin/bench-compare" "$baseline" "$fresh" \
    || { failed+=("$name"); tail -n 20 "$out/$name.log"; }
done

if [ "${#failed[@]}" -gt 0 ]; then
  echo "baseline check FAILED: ${failed[*]}"
  exit 1
fi
echo "baseline check passed"
