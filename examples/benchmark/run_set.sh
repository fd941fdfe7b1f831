#!/usr/bin/env bash
# One complete set of runs into a result file: every workload at ten seeds with
# --trace 0 (the end-to-end metrics) and at the first seed with --trace 1 (the
# per-layer metrics). Two sets of the same commit, compared with
#   cargo run --release --manifest-path examples/benchmark/Cargo.toml -- --compare a.jsonl b.jsonl
# are the benchmark's repeatability check. Run from the repository root.
#
#   examples/benchmark/run_set.sh <out.jsonl> [first-seed, default 11] [seconds, default 20]
set -euo pipefail
out=${1:?usage: run_set.sh <out.jsonl> [first-seed] [seconds]}
first=${2:-11}
seconds=${3:-20}
run=(cargo run --release --offline --quiet --manifest-path examples/benchmark/Cargo.toml --)
: > "$out"
for workload in nns-bound mlp-bound pool-hit fetch-uds; do
    for ((seed = first; seed < first + 10; seed++)); do
        "${run[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 --out "$out" | tail -n 1
    done
    "${run[@]}" --workload "$workload" --seed "$first" --seconds "$seconds" --trace 1 --out "$out" | tail -n 1
done
