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
#
# After the comparison it prints the two gates of the benchmark driver that
# `e0 --compare` does not check: per workload, the change's wins over the
# pairs on iter_p50_ms (with the median shift against the parent's
# quartile spread, what a claimed gain must clear); and per end-to-end
# metric, each side's quartile spread against bound x the parent's median,
# flagging the spreads the driver would refuse.
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

status=0
"$work/target-change/release/e0" --compare "$work/parent.jsonl" "$work/change.jsonl" || status=$?

python3 - "$root/BENCHMARK.json" "$work/parent.jsonl" "$work/change.jsonl" <<'EOF'
import json, statistics, sys

bench = json.load(open(sys.argv[1]))
metrics = [m for m in bench["end_to_end"] if "bound" in m]

def runs(path):
    """workload -> [metrics of each run, in pair order]"""
    out, workload = {}, None
    for line in open(path):
        if not line.startswith("{"):
            continue
        v = json.loads(line)
        if "e0" in v:
            workload = v["e0"]["workload"]
        elif "metrics" in v and workload is not None:
            out.setdefault(workload, []).append(
                {k: m["value"] for k, m in v["metrics"].items() if "value" in m})
            workload = None
    return out

def quartiles(xs):
    # Linear interpolation between order statistics (type 7).
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3

parent, change = runs(sys.argv[2]), runs(sys.argv[3])
print("\n== gate: change wins on iter_p50_ms (a claimed gain needs >= 9 of 10 and |dmedian| > parent IQR) ==")
print(f"{'workload':<15} {'wins':>7} {'parent p50':>11} {'change p50':>11} {'dmedian':>9} {'parent IQR':>11}")
for w in parent:
    pairs = [(p["iter_p50_ms"], c["iter_p50_ms"]) for p, c in zip(parent[w], change.get(w, []))
             if "iter_p50_ms" in p and "iter_p50_ms" in c]
    if len(pairs) < 2:
        continue
    wins = sum(c < p for p, c in pairs)
    pm = statistics.median(p for p, _ in pairs)
    cm = statistics.median(c for _, c in pairs)
    q1, q3 = quartiles([p for p, _ in pairs])
    print(f"{w:<15} {wins:>3}/{len(pairs):<3} {pm:>11.3f} {cm:>11.3f} {cm - pm:>+9.3f} {q3 - q1:>11.3f}")

print("\n== gate: run-to-run spread (quartile to quartile) against bound x parent median ==")
print(f"{'workload':<15} {'metric':<18} {'limit':>10} {'parent IQR':>11} {'change IQR':>11}  verdict")
refused = 0
for w in parent:
    for m in metrics:
        a = [r[m["name"]] for r in parent[w] if m["name"] in r]
        b = [r[m["name"]] for r in change.get(w, []) if m["name"] in r]
        if len(a) < 2 or len(b) < 2:
            continue
        limit = m["bound"] * abs(statistics.median(a))
        (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
        verdict = "REFUSED" if b3 - b1 > limit else "ok"
        refused += verdict == "REFUSED"
        print(f"{w:<15} {m['name']:<18} {limit:>10.3f} {a3 - a1:>11.3f} {b3 - b1:>11.3f}  {verdict}")
print(f"\n{refused} spread(s) the driver would refuse")
EOF
exit "$status"
