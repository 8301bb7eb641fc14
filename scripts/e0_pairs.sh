#!/usr/bin/env bash
# Parent-vs-change table for a PR: run every e0 workload on both commits,
# in alternating pairs, and gate the two result sets with `e0 --compare`.
#
#   scripts/e0_pairs.sh <parent-ref> [pairs=10] [workdir=.bench_build/e0_pairs] [workloads]
#
# The parent is `git archive <parent-ref>`, the change is the working tree.
# Each side is built once into its own target directory; pair N runs the
# workloads (a quoted, space-separated list; default: all of BENCHMARK.json)
# untraced for its run_seconds with seed N, the parent first on odd pairs
# and the change first on even ones. The table a PR reports covers every
# workload; name one to iterate on it without 7 x 12 s per side. Results land
# in <workdir>/parent.jsonl and <workdir>/change.jsonl; the exit status is
# the comparison's (1 when a bound is exceeded).
set -euo pipefail

parent_ref=${1:?usage: scripts/e0_pairs.sh <parent-ref> [pairs=10] [workdir] [workloads]}
pairs=${2:-10}
root=$(git rev-parse --show-toplevel)
work=${3:-$root/.bench_build/e0_pairs}

seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$root/BENCHMARK.json")
workloads=${4:-$(grep -o '"name": "[a-z0-9_]*", "why"' "$root/BENCHMARK.json" | cut -d'"' -f4)}

mkdir -p "$work"
rm -rf "$work/parent-src"
mkdir "$work/parent-src"
git -C "$root" archive "$parent_ref" | tar -x -C "$work/parent-src"

build() { # <source dir> <side>
    CARGO_TARGET_DIR="$work/target-$2" cargo build --release --offline --quiet \
        --manifest-path "$1/e0/Cargo.toml"
}
build "$work/parent-src" parent
build "$root" change

: > "$work/parent.jsonl"
: > "$work/change.jsonl"
for pair in $(seq 1 "$pairs"); do
    if ((pair % 2)); then order="parent change"; else order="change parent"; fi
    for workload in $workloads; do
        for side in $order; do
            echo "pair $pair/$pairs: $workload on $side" >&2
            "$work/target-$side/release/e0" --workload "$workload" --seed "$pair" \
                --seconds "$seconds" --trace 0 >> "$work/$side.jsonl"
        done
    done
done

"$work/target-change/release/e0" --compare "$work/parent.jsonl" "$work/change.jsonl"
