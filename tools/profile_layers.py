"""Where does a benchmark repeat spend its host time, module by module?

For each benchmark workload (``bench/workloads.py``, imported read-only)
this takes ``ITIMER_PROF`` samples every millisecond of process CPU time
while the workload's timed ``run()`` executes — set-up and ``prepare()``
are not sampled — and credits each sample to the innermost stack frame
whose code lives under ``src/repro`` (time in numpy or the standard
library goes to the ``src/repro`` code that called it; a sample with no
such frame goes to ``(outside)``).  Modules roll up into layers through
:data:`LAYERS`, whose rows ``tools/check_docs.py`` keeps complete.

    python tools/profile_layers.py --workload write-cascade
    python tools/profile_layers.py --workload all --quick --out shares.json

Shares are printed with 95 % Wilson intervals (each sample a Bernoulli
draw) and written to ``results/bench_layer_shares.json`` unless ``--out``
names another file.  This is a report, not a gate: compare two trees by
running it in each, not against the committed file.

Sampling caveat: CPython runs a signal handler between bytecodes, so a
long C call (a numpy kernel) is credited when it returns, and timer
expirations during it coalesce into one sample; such calls are
under-counted against Python-heavy code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
OUT = ROOT / "results" / "bench_layer_shares.json"
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

#: The benchmark's default seed (``bench/run.py``).
SEED = 19980724
#: Sampling interval, seconds of process CPU time.
INTERVAL_S = 0.001
OUTSIDE = "(outside)"
#: Rows printed per table (the JSON report keeps every row).
TOP = 8

#: ``src/repro`` module path, or package directory ending in ``/``, →
#: layer; a module's own row wins over its package's.  Layers are the
#: benchmark tracer's (``bench/tracing.LAYERS``), plus ``harness`` for
#: experiment and CLI code and ``obs`` for the instrumentation the
#: tracer reports only as ``obs.overhead_ratio``.  Every module must
#: match a row and every row a module (``tools/check_docs.py``).
LAYERS = {
    "__init__": "facade",
    "__main__": "harness",
    "analysis": "harness",
    "cli": "harness",
    "gates": "harness",
    "io": "harness",
    "core/__init__": "facade",
    "core/meteorograph": "facade",
    "core/angles": "naming",
    "core/knees": "naming",
    "core/loadbalance": "naming",
    "core/naming": "naming",
    "core/ranges": "naming",
    "core/firsthop": "search",
    "core/search": "search",
    "core/search_batch": "search_batch",
    "core/publish": "publish",
    "core/notify": "publish",
    "core/softstate": "publish",
    "core/cascade": "cascade",
    "core/replication": "replication",
    "experiments/": "harness",
    "lsh/": "lsh",
    "maint/": "maint",
    "obs/": "obs",
    "overlay/": "overlay",
    "overload/": "network",
    "sim/": "sim",
    "sim/network": "network",
    "unstructured/": "harness",
    "vsm/": "index",
    "workload/": "harness",
}


def modules() -> list[str]:
    """Every module under ``src/repro``, as ``core/publish``."""
    return sorted(p.relative_to(SRC).with_suffix("").as_posix() for p in SRC.rglob("*.py"))


def layer_of(module: str) -> str | None:
    if module in LAYERS:
        return LAYERS[module]
    package = module.rpartition("/")[0]
    return LAYERS.get(package + "/") if package else None


class Sampler:
    """``SIGPROF`` every :data:`INTERVAL_S` of CPU time while enabled,
    counting samples by innermost ``src/repro`` module."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self._module_of: dict[str, str | None] = {}
        self._src = str(SRC) + os.sep

    def _module(self, filename: str) -> str | None:
        try:
            return self._module_of[filename]
        except KeyError:
            path = str(Path(filename).resolve())
            module = None
            if path.startswith(self._src):
                module = Path(path[len(self._src):]).with_suffix("").as_posix()
            self._module_of[filename] = module
            return module

    def _on_sample(self, signum, frame) -> None:
        module = None
        while frame is not None and module is None:
            module = self._module(frame.f_code.co_filename)
            frame = frame.f_back
        key = module or OUTSIDE
        self.counts[key] = self.counts.get(key, 0) + 1

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def wilson(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """95 % Wilson score interval of a binomial share ``k / n``."""
    if n == 0:
        return 0.0, 0.0
    p = k / n
    centre = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)
    return max(0.0, centre - half), min(1.0, centre + half)


def shares(counts: dict[str, int]) -> dict:
    n = sum(counts.values())
    return {
        key: {"samples": k, "share": k / n, "ci95": list(wilson(k, n))}
        for key, k in sorted(counts.items(), key=lambda kv: -kv[1])
    }


def profile(cls, *, quick: bool, repeats: int) -> dict:
    """Sample ``repeats`` timed repeats of one workload."""
    workload = cls(SEED, quick=quick)
    sampler = Sampler()
    for _ in range(repeats):
        workload.prepare()
        with sampler:
            workload.run()
    by_layer: dict[str, int] = {}
    for module, k in sampler.counts.items():
        layer = OUTSIDE if module == OUTSIDE else layer_of(module) or "(unmapped)"
        by_layer[layer] = by_layer.get(layer, 0) + k
    return {
        "repeats": repeats,
        "samples": sum(sampler.counts.values()),
        "layers": shares(by_layer),
        "modules": shares(sampler.counts),
    }


def report(name: str, record: dict) -> None:
    print(f"{name}: {record['samples']} samples over {record['repeats']} repeats")
    for title in ("layers", "modules"):
        for key, row in list(record[title].items())[:TOP]:
            lo, hi = row["ci95"]
            print(f"  {title[:-1]:6s} {key:22s} {row['share']:6.1%}  [{lo:5.1%}, {hi:5.1%}]")


def main(argv=None) -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    from bench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", help="a workload name or 'all'")
    ap.add_argument("--quick", action="store_true", help="the benchmark's --quick sizes")
    ap.add_argument("--repeats", type=int, default=None,
                    help="sampled repeats per workload (default 3, or 30 with --quick)")
    ap.add_argument("--out", type=Path, default=OUT, help="JSON report path")
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        ap.error(f"unknown workload {unknown[0]!r}; one of {', '.join(WORKLOADS)}")
    repeats = args.repeats or (30 if args.quick else 3)
    records = {}
    for name in names:
        records[name] = profile(WORKLOADS[name], quick=args.quick, repeats=repeats)
        report(name, records[name])
    out = {
        "interval_s": INTERVAL_S,
        "seed": SEED,
        "quick": args.quick,
        "workloads": records,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
