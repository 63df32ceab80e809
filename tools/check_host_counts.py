"""Host-work gate: did a change add Python calls the wall clock is too noisy to show?

For each benchmark workload at ``--quick`` size (``bench/workloads.py``,
imported read-only), and for :class:`PointerSweep` — the §3.5.2
directory-pointer read of Fig. 10(b), which no benchmark workload runs —
this runs two untimed warm-up repeats, then one repeat under cProfile,
and counts the Python function calls each ``src/repro`` module made in
that repeat.  Those counts are
deterministic given the seed — the same run to run, and across
processes — so unlike host time they can gate a change in one run:

    python tools/check_host_counts.py            # compare (CI does)
    python tools/check_host_counts.py --update   # re-record

The committed counts live in ``results/bench_quick_counts.json``.  Exit
status 1 when a module's count rises by more than 10 %, when a count
falls at all (a saving is re-recorded with ``--update`` so the next
change is measured from it), or when a workload or module appears or
disappears.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
COUNTS = ROOT / "results" / "bench_quick_counts.json"
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

#: A module may grow this much before the gate fails.
RISE_TOLERANCE = 0.10
#: The benchmark's default seed (``bench/run.py``).
SEED = 19980724
WARM_UPS = 2


def module_of(filename: str):
    """``core/publish`` for a file under ``src/repro``, else None."""
    try:
        rel = Path(filename).resolve().relative_to(SRC)
    except ValueError:
        return None
    return rel.with_suffix("").as_posix()


def count_workload(cls) -> dict:
    """``{module: calls}`` for one profiled ``--quick`` repeat of ``cls``."""
    workload = cls(SEED, quick=True)
    for _ in range(WARM_UPS):
        workload.prepare()
        workload.run()
    workload.prepare()
    profile = cProfile.Profile()
    profile.enable()
    workload.run()
    profile.disable()
    counts: dict = {}
    for (filename, _line, _name), row in pstats.Stats(profile).stats.items():
        module = module_of(filename)
        if module is not None:
            counts[module] = counts.get(module, 0) + row[1]
    return dict(sorted(counts.items()))


class PointerSweep:
    """``run_fig10b``'s read at a fifth of its default scale: 4 000
    items on 200 nodes at capacity 8c, directory pointers on, and the
    figure's six first-hop retrieves (k = 8 … 256) of the most popular
    keyword from one origin.  The ring is built and published once; a
    repeat is the six retrieves, which leave it unchanged."""

    K_VALUES = (8, 16, 32, 64, 128, 256)

    def __init__(self, seed: int, *, quick: bool = True) -> None:
        import numpy as np

        from repro.experiments.common import default_trace
        from repro.experiments.similar import _build_populated
        from repro.workload import keyword_ground_truth, keyword_query, nth_popular_keyword

        del seed, quick  # the figure's own seeds, one size
        n_nodes = 200
        trace = default_trace(scale=0.2)
        rng = np.random.default_rng(1011)
        self.system = _build_populated(
            trace, n_nodes, rng, directory_pointers=True, capacity_multiple=8.0
        )
        cap = max(8, min(n_nodes, trace.corpus.n_items // 20))
        keyword = nth_popular_keyword(trace.corpus, 1, max_matches=cap)
        self.query = keyword_query(trace, [keyword])
        self.total = keyword_ground_truth(trace.corpus, [keyword]).total
        self.keyword = keyword
        self.patience = max(16, n_nodes // 20)
        self.origin = self.system.random_origin(rng)

    def prepare(self) -> None:
        """Nothing: a repeat is read-only."""

    def run(self) -> list:
        return [
            self.system.retrieve(
                self.origin, self.query, min(k, self.total),
                require_all=[self.keyword], use_first_hop=True, patience=self.patience,
            )
            for k in self.K_VALUES
        ]


def count_all() -> dict:
    from bench.workloads import WORKLOADS

    scenarios = {**WORKLOADS, "fig10b-pointers": PointerSweep}
    return {name: count_workload(cls) for name, cls in scenarios.items()}


def differences(want: dict, got: dict) -> list[str]:
    lines = []
    for workload in sorted(want.keys() | got.keys()):
        if workload not in want or workload not in got:
            side = "the run" if workload not in got else COUNTS.name
            lines.append(f"{workload}: missing from {side}")
            continue
        a, b = want[workload], got[workload]
        for module in sorted(a.keys() | b.keys()):
            old, new = a.get(module), b.get(module)
            if old is None or new is None:
                lines.append(f"{workload}: {module}  committed {old}  now {new}")
            elif new > old * (1 + RISE_TOLERANCE):
                lines.append(
                    f"{workload}: {module}  {old} -> {new} calls "
                    f"(+{(new - old) / old:.1%}, over {RISE_TOLERANCE:.0%})"
                )
            elif new < old:
                lines.append(
                    f"{workload}: {module}  {old} -> {new} calls "
                    f"({new - old:+d}; record the saving with --update)"
                )
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--update", action="store_true",
                    help=f"write the fresh counts to {COUNTS.relative_to(ROOT)} and exit")
    args = ap.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    got = count_all()
    for workload, counts in got.items():
        print(f"{workload}: {sum(counts.values())} calls in {len(counts)} modules")
    if args.update:
        COUNTS.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {COUNTS.relative_to(ROOT)} ({len(got)} workloads)")
        return 0
    lines = differences(json.loads(COUNTS.read_text()), got)
    for line in lines:
        print(line)
    if lines:
        print(f"FAIL: {len(lines)} module count(s) moved against "
              f"{COUNTS.relative_to(ROOT)}")
        return 1
    print(f"OK: host call counts of {len(got)} workloads match "
          f"{COUNTS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
