"""Compare two sets of benchmark runs: ``python3 bench/compare.py A.jsonl B.jsonl``.

A set is the file ``run.py --out`` appends to (one JSON record per
workload run; run several seeds for quartiles).  A is the parent, B the
change.  Per (workload, end-to-end metric) row: both medians and
quartiles, the bound from ``BENCHMARK.json`` and a verdict —

* ``ok``          B's median is not worse than A's by more than the bound;
* ``worse``       it is;
* ``unresolved``  the run-to-run spread of a set is wider than the bound
                  and the two sets' runs interleave, so the row shows
                  neither a regression nor its absence.

Simulated numbers are deterministic given the seed, so for every
(workload, seed) present in both sets they are compared exactly; any
difference is ``worse``.  Exit status 1 on any ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> list:
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return [r for r in records if not r["trace"]]


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile); a single run is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list, b: list, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    spread = max((a3 - a1) / am, (b3 - b1) / bm)
    if spread > bound:
        # Too noisy to read a median shift; only a clean separation counts.
        b_all_better = max(sign * v for v in b) < min(sign * v for v in a)
        return "ok" if b_all_better else "unresolved"
    return "worse" if sign * (bm - am) / am > bound else "ok"


def compare(a_records: list, b_records: list, spec: list) -> tuple:
    """(table rows, simulated-difference rows)."""
    def by_metric(records):
        out = defaultdict(list)
        for r in records:
            for name, m in r["metrics"].items():
                out[r["workload"], name].append(m["value"])
        return out

    a_vals, b_vals = by_metric(a_records), by_metric(b_records)
    rows = []
    for workload in dict.fromkeys(r["workload"] for r in a_records):
        for m in spec:
            a, b = a_vals.get((workload, m["name"])), b_vals.get((workload, m["name"]))
            if a and b:
                rows.append((workload, m, quartiles(a), quartiles(b),
                             verdict(a, b, m["better"], m["bound"])))

    def key(r):
        return r["workload"], r["seed"], r["quick"]

    b_sim = {key(r): r["sim"] for r in b_records}
    sim_rows = [
        (*key(r)[:2], r["sim"] == b_sim[key(r)]) for r in a_records if key(r) in b_sim
    ]
    return rows, sim_rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["end_to_end"]
    rows, sim_rows = compare(load(argv[0]), load(argv[1]), spec)
    print(f"{'workload':<14} {'metric':<12} {'unit':<6} {'A q1/median/q3':<36} "
          f"{'B q1/median/q3':<36} {'bound':>5}  verdict")
    for workload, m, a, b, v in rows:
        fa = "/".join(f"{x:.5g}" for x in a)
        fb = "/".join(f"{x:.5g}" for x in b)
        print(f"{workload:<14} {m['name']:<12} {m['unit']:<6} {fa:<36} {fb:<36} "
              f"{m['bound']:>5}  {v}")
    differ = [(w, s) for w, s, same in sim_rows if not same]
    print(f"simulated metrics: {len(sim_rows) - len(differ)} of {len(sim_rows)} "
          f"(workload, seed) pairs identical")
    for w, s in differ:
        print(f"{w:<14} seed {s}: simulated metrics DIFFER  worse")
    return 1 if differ or any(v == "worse" for *_, v in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
