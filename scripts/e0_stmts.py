#!/usr/bin/env python3
"""Per-statement timings from traced e0 runs.

    scripts/e0_stmts.py <spans.jsonl> [<spans.jsonl> ...]

A traced run (`e0 --workload W --trace 1`) writes one span per line to
`<target dir>/e0/W.spans.jsonl`. For each file this prints, per statement
id (`S1`, `J2`, ...):

  * p25 and p50 over iterations of the `stmt` span and of the `gdh.query`
    spans (a statement's `gdh.query` spans summed per iteration), in ms;
  * the counts (`tuples_shipped`, `coord_recv_kb`, ...) of the
    statement's last `gdh.query` span.

Given two files (a parent's and a change's run of one workload), it ends
with the p50 of each statement's `stmt` span on both sides. It reads the
files only.
"""
import json
import statistics
import sys
from collections import defaultdict


def quartiles(xs):
    """(p25, p50) of a non-empty list."""
    if len(xs) == 1:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[1]


def load(path):
    """stmt id -> {"stmt": [ms per iteration], "gdh.query": [...], "counts": {...}}"""
    per_iter = defaultdict(lambda: defaultdict(float))  # (stmt, name) -> iter -> ms
    last_counts = {}
    order = []
    for line in open(path):
        s = json.loads(line)
        stmt, name = s["stmt"], s["name"]
        if not stmt or name not in ("stmt", "gdh.query"):
            continue
        if stmt not in order:
            order.append(stmt)
        per_iter[(stmt, name)][s["iter"]] += (s["end_ns"] - s["start_ns"]) / 1e6
        if name == "gdh.query":
            last_counts[stmt] = s["counts"]
    out = {}
    for stmt in order:
        out[stmt] = {
            name: sorted(per_iter[(stmt, name)].values())
            for name in ("stmt", "gdh.query")
        }
        out[stmt]["counts"] = last_counts.get(stmt, {})
    return out


def fmt(xs):
    if not xs:
        return f"{'-':>8} {'-':>8}"
    p25, p50 = quartiles(xs)
    return f"{p25:8.3f} {p50:8.3f}"


def main(paths):
    runs = [load(p) for p in paths]
    for path, run in zip(paths, runs):
        print(f"== {path}")
        print(f"{'stmt':<6} {'n':>5} {'stmt p25':>8} {'p50':>8} {'query p25':>9} {'p50':>8}")
        for stmt, v in run.items():
            print(f"{stmt:<6} {len(v['stmt']):>5} {fmt(v['stmt'])}  {fmt(v['gdh.query'])}")
        for stmt, v in run.items():
            if v["counts"]:
                counts = ", ".join(f"{k}={c:g}" for k, c in v["counts"].items())
                print(f"  {stmt} last gdh.query: {counts}")
    if len(runs) == 2:
        a, b = runs
        print(f"== stmt p50 (ms): {paths[0]} -> {paths[1]}")
        for stmt in a:
            if stmt in b and a[stmt]["stmt"] and b[stmt]["stmt"]:
                pa = quartiles(a[stmt]["stmt"])[1]
                pb = quartiles(b[stmt]["stmt"])[1]
                print(f"{stmt:<6} {pa:8.3f} -> {pb:8.3f}  ({(pb / pa - 1) * 100:+.1f} %)")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    main(sys.argv[1:])
