#!/usr/bin/env bash
# Parent-against-change comparison of `benchmark/` workloads by the
# rule every performance claim in this repo is held to (choosing-
# metrics section 8): N pairs of runs, the side that goes first
# alternating, each side's median and quartiles, the ratio with its
# base, and how many pairs the change won.
#
#   scripts/ab-bench.sh <parent-checkout> <workload|all> [pairs=10] [first-seed=1]
#
# <parent-checkout> is a checkout of the parent commit (`git clone` or
# `git archive`); the change is the checkout this script lives in.
# `all` runs every workload BENCHMARK.json declares, one after the
# other, from the same two builds. Pair k runs `benchmark/run.sh
# --workload W --seed first-seed+k --trace 0` once from each checkout,
# so each side measures its own benchmark sources against its own
# crates; both build into `.bench_build/ab/` here. A gain may be
# claimed when the change wins at least nine tenths of the pairs (ties
# count for neither side) and the medians differ by more than the
# distance between the parent's quartiles; a regression is a median
# worse than the parent's by more than the metric's bound in
# BENCHMARK.json. One table per workload; the exit status is 1 when any
# end-to-end metric of any workload is worse than its bound or the
# change fails more operations than the parent, so the script is a
# gate. Reads `benchmark/`, edits nothing.
set -euo pipefail

if [ "$#" -lt 2 ] || [ "$#" -gt 4 ]; then
  echo "usage: scripts/ab-bench.sh <parent-checkout> <workload|all> [pairs=10] [first-seed=1]" >&2
  exit 2
fi
parent="$(cd "$1" && pwd)"
workload="$2"
pairs="${3:-10}"
first_seed="${4:-1}"
change="$(cd "$(dirname "$0")/.." && pwd)"
build="$change/.bench_build/ab"

declared="$change/BENCHMARK.json"
if [ "$workload" = all ]; then
  workloads="$(python3 -c 'import json, sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$declared")"
else
  workloads="$workload"
fi

side_dir() { if [ "$1" = parent ]; then echo "$parent"; else echo "$change"; fi; }

mkdir -p "$build"
for side in parent change; do
  cargo build --release --offline --quiet \
    --manifest-path "$(side_dir "$side")/benchmark/Cargo.toml" \
    --target-dir "$build/$side"
done

# One run of one side of workload $1; its result line joins the
# workload's file for that side.
run_side() {
  CARGO_TARGET_DIR="$build/$2" "$(side_dir "$2")/benchmark/run.sh" \
    --workload "$1" --seed "$3" --trace 0 | tail -n 1 >>"$build/$1.$2.jsonl"
}

for w in $workloads; do
  : >"$build/$w.parent.jsonl"
  : >"$build/$w.change.jsonl"
  for ((k = 0; k < pairs; k++)); do
    seed=$((first_seed + k))
    if ((k % 2 == 0)); then order="parent change"; else order="change parent"; fi
    echo "$w pair $((k + 1))/$pairs: seed $seed, $order" >&2
    for side in $order; do
      run_side "$w" "$side" "$seed"
    done
  done
done

# shellcheck disable=SC2086  # workload names hold no spaces
python3 - "$build" "$declared" $workloads <<'EOF'
import json, sys

build, declared, *workloads = sys.argv[1:]

def quartiles(xs):
    xs = sorted(xs)
    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return at(0.25), at(0.5), at(0.75)

def compare(workload):
    """Prints the workload's table; returns whether it fails the gate."""
    runs = {side: [json.loads(line) for line in open(f"{build}/{workload}.{side}.jsonl")]
            for side in ("parent", "change")}
    pairs = len(runs["parent"])
    assert pairs == len(runs["change"]) and pairs > 0, "unpaired runs"
    print(f"{workload}: {pairs} pairs, runs in {build}/{workload}.{{parent,change}}.jsonl")
    failed = {}
    for side, rs in runs.items():
        failed[side] = sum(r["failed"] for r in rs)
        attempted = sum(r["attempted"] for r in rs)
        wrong = sum(not r["correct"] for r in rs)
        print(f"  {side}: {failed[side]} of {attempted} operations failed, {wrong} incorrect runs")
    gate = failed["change"] > failed["parent"]
    print(f"  {'metric':<12} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} "
          f"{'change/parent':<14} {'wins':<7} verdict")
    for metric in json.load(open(declared))["end_to_end"]:
        name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        pq1, pm, pq3 = quartiles(p)
        cq1, cm, cq3 = quartiles(c)
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        ratio = cm / pm if pm else float("nan")
        worse = (ratio - 1) if lower else (1 - ratio)
        better = (pm - cm) if lower else (cm - pm)
        if wins * 10 >= pairs * 9 and better > pq3 - pq1:
            verdict = "gain"
        elif worse > bound:
            verdict = f"WORSE than bound {bound:.1%}"
            gate = True
        else:
            verdict = f"within bound {bound:.1%}"
        fmt = lambda m, lo, hi: f"{m:.6g} [{lo:.6g}, {hi:.6g}]"
        print(f"  {name:<12} {fmt(pm, pq1, pq3):<34} {fmt(cm, cq1, cq3):<34} "
              f"{ratio:<14.4f} {f'{wins}/{pairs}':<7} {verdict}")
    print("  change/parent is the ratio of medians, base = the parent median in the same row's unit")
    return gate

failing = [w for w in workloads if compare(w)]
if failing:
    print(f"gate failed: {' '.join(failing)}")
    sys.exit(1)
print("gate passed")
EOF
