#!/usr/bin/env bash
# Alternating parent/change pairs of the serving benchmark on one workload, the
# protocol every performance change is measured with:
#
#   scripts/bench_pairs.sh <parent-rev> <workload> <seed> <pairs>
#
# Builds the benchmark once from <parent-rev> (an exported copy of that commit) and
# once from the working tree, each into its own CARGO_TARGET_DIR, then runs <pairs>
# pairs of `--seconds 20 --trace 0` from a scratch directory holding a copy of
# BENCHMARK.json (the binary reads it from its working directory), the parent first
# on odd pairs and the change first on even ones. Each side appends its result lines
# with the benchmark's own `--out`. Prints, per end-to-end metric of BENCHMARK.json,
# each side's median [Q1, Q3] (the benchmark's quartiles) and the pairs the change
# won. The result lines and each side's printed output (per-pass notes included) are
# kept; everything else in the scratch directory (which honours TMPDIR) is removed,
# and examples/benchmark/Cargo.lock, which building the benchmark rewrites, is
# restored.
set -euo pipefail
usage="usage: scripts/bench_pairs.sh <parent-rev> <workload> <seed> <pairs>"
parent=${1:?$usage}
workload=${2:?$usage}
seed=${3:?$usage}
pairs=${4:?$usage}
root=$(git rev-parse --show-toplevel)
lock="$root/examples/benchmark/Cargo.lock"
work=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
cp "$lock" "$work/Cargo.lock.saved"
cleanup() {
    cp "$work/Cargo.lock.saved" "$lock"
    rm -rf "$work/parent-src" "$work/target-parent" "$work/target-change" \
        "$work/run" "$work/Cargo.lock.saved" "$work/bin"
}
trap cleanup EXIT

build() { # <source root> <target dir> <binary out>
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path "$1/examples/benchmark/Cargo.toml"
    cp "$2/release/benchmark" "$3"
}
mkdir -p "$work/parent-src" "$work/run" "$work/bin"
git -C "$root" archive "$parent" | tar -x -C "$work/parent-src"
echo "building $parent and the working tree" >&2
build "$work/parent-src" "$work/target-parent" "$work/bin/parent"
build "$root" "$work/target-change" "$work/bin/change"
cp "$root/BENCHMARK.json" "$work/run/"

run() { # <side>
    (cd "$work/run" && "$work/bin/$1" --workload "$workload" --seed "$seed" \
        --seconds 20 --trace 0 --out "$work/$1.jsonl" >> "$work/$1.log") ||
        echo "  $1 run failed (see its result line)" >&2
}
for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2 == 1)); then order=(parent change); else order=(change parent); fi
    echo "pair $pair/$pairs: ${order[*]}" >&2
    run "${order[0]}"
    run "${order[1]}"
done

python3 - "$root/BENCHMARK.json" "$work/parent.jsonl" "$work/change.jsonl" <<'EOF'
import json, statistics, sys

declared = json.load(open(sys.argv[1]))["end_to_end"]
sides = [[json.loads(line)["result"] for line in open(path)] for path in sys.argv[2:]]

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3

for name, runs in zip(("parent", "change"), sides):
    bad = sum(1 for r in runs if not r["correct"] or r["failed"])
    print(f"{name}: {len(runs)} runs, {bad} not correct or with failed queries")
print(f"{'metric':<30} {'parent median [Q1, Q3]':>36} {'change median [Q1, Q3]':>36} "
      f"{'ratio':>7} {'won':>7}")
for metric in declared:
    name, higher = metric["name"], metric["better"] == "higher"
    parent, change = ([r["metrics"][name]["value"] for r in runs] for runs in sides)
    won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    cells = []
    for values in (parent, change):
        q1, q3 = quartiles(values)
        cells.append(f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]")
    ratio = statistics.median(change) / statistics.median(parent)
    print(f"{name:<30} {cells[0]:>36} {cells[1]:>36} {ratio:>7.3f} "
          f"{won:>3}/{min(len(parent), len(change))}")
EOF
echo "results and outputs: $work/{parent,change}.{jsonl,log}" >&2
