"""Run the benchmark: one command prints every metric by name with its unit
and checks that the outputs are correct.

    python3 bench/run.py --workload NAME|all [--seed S] [--seconds T] [--trace 0|1]
                         [--quick] [--out FILE] [--spans-out FILE]
                         [--append-history] [--trend]

``--trace 0`` (default) measures the end-to-end metrics with nothing
wrapped.  ``--trace 1`` is the separate traced run: an untraced pass, a
pass with every layer's public callables wrapped (``bench/tracing.py``),
and a pass with ``observability=True``; it reports the per-layer metrics,
and the ratios between the passes are the tracing and obs overheads.

Host numbers (wall time of our code; noisy) are medians over repeats;
simulated numbers (messages, hops, recall) are exact and must repeat
bit-identically across repeats — that is asserted.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys

# One compute thread, pinned before numpy is imported: the box has two
# cores and a BLAS/OpenMP pool would measure the scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [_ROOT, os.path.join(_ROOT, "src")]

import argparse  # noqa: E402
import datetime  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402

from bench import tracing  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 19980724
HISTORY = os.path.join(_ROOT, "bench", "history.jsonl")
#: Set-up is repeated and its median reported, so ``setup_s`` is steady.
SETUP_REPEATS = 3
#: At least two repeats, so "simulated metrics repeat exactly" is checked.
MIN_REPEATS = 2
#: How a traced run's ``--seconds`` is split: untraced, traced, obs-on.
TRACE_SPLIT = (0.3, 0.4, 0.3)

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_wall_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "msgs_per_op": "msgs",
    "quality": "ratio",
    "peak_rss_mb": "MiB",
}

_now = time.perf_counter


def measure(workload, seconds: float, tracer=None) -> list:
    """Closed-loop repeats of the timed phase for about ``seconds``."""
    reps, spent = [], []
    deadline = _now() + seconds
    while len(reps) < MIN_REPEATS or _now() + median(spent) <= deadline:
        t_iter = _now()
        gc.collect()  # between repeats; GC stays on while timing (users pay it)
        workload.prepare()
        sink = workload.system.network.sink
        before = sink.snapshot()
        if tracer is not None:
            tracer.enabled = True
        t0 = _now()
        rep = workload.run()
        rep.wall_s = _now() - t0
        if tracer is not None:
            tracer.enabled = False
        rep.sink = sink.diff(before)
        if reps:
            reps[-1].out = None  # only the last repeat's outputs are verified
        reps.append(rep)
        spent.append(_now() - t_iter)
    return reps


def simulated(rep) -> dict:
    """Everything about a repeat that must not depend on the host."""
    return {"ops": rep.ops, "msgs": rep.msgs, "sink": rep.sink, **rep.sim}


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool,
                 spans_out: str | None = None) -> dict:
    cls = WORKLOADS[name]
    workload, setups = None, []
    for _ in range(1 if trace else SETUP_REPEATS):
        workload = None  # drop the previous set-up before building the next
        gc.collect()
        t0 = _now()
        workload = cls(seed, quick=quick)
        setups.append(_now() - t0)

    samples = {}
    if not trace:
        reps = measure(workload, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        verdict = workload.verify(reps[-1])
        passes = [reps]
        lat = [s for r in reps for s in r.latencies_s]
        values = {
            "setup_s": median(setups),
            "run_wall_s": median(r.wall_s for r in reps),
            "ops_per_s": median(r.ops / (r.ops_wall_s or r.wall_s) for r in reps),
            "op_p50_ms": median(lat) * 1e3,
            "msgs_per_op": reps[0].msgs / reps[0].ops,
            "quality": verdict.quality,
            "peak_rss_mb": peak_rss_mb,
        }
        samples = {"setup_s": len(setups), "run_wall_s": len(reps),
                   "ops_per_s": len(reps), "op_p50_ms": len(lat)}
        metrics = {k: {"value": float(v), "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        untraced = measure(workload, seconds * TRACE_SPLIT[0])
        tracer = tracing.Tracer()
        tracer.install(tracing.targets())
        try:
            traced = measure(workload, seconds * TRACE_SPLIT[1], tracer)
        finally:
            tracer.uninstall()
        verdict = workload.verify(traced[-1])
        obs_on = measure(cls(seed, quick=quick, observability=True), seconds * TRACE_SPLIT[2])
        passes = [untraced, traced, obs_on]
        metrics = tracing.layer_metrics(tracer, workload, traced, untraced, obs_on, verdict)
        if spans_out:
            tracer.write_spans(spans_out)

    problems = list(verdict.problems)
    reference = simulated(passes[0][0])
    if any(simulated(r) != reference for reps in passes for r in reps):
        problems.append("simulated metrics differ between repeats or passes of one run")
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "quick": quick,
        "correct": not problems,
        "problems": problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "repeats": [len(p) for p in passes],
        "metrics": metrics,
        "samples": samples,
        "walls_s": [[r.wall_s for r in reps] for reps in passes],
        "setups_s": setups,
        "sim": {**reference, "quality": verdict.quality, **verdict.extra},
    }


def report(record: dict) -> None:
    head = "per-layer (traced run)" if record["trace"] else "end-to-end (untraced run)"
    print(f"== {record['workload']}  seed {record['seed']}  {head}  "
          f"repeats {record['repeats']} ==")
    for name, m in record["metrics"].items():
        n = record["samples"].get(name)
        count = f"  n={n}" if n else ""
        print(f"  {name:<34} {m['value']:>16.6f} {m['unit']}{count}")
    verdict = "ok" if record["correct"] else "FAILED"
    print(f"  outputs {verdict}: attempted {record['attempted']}, failed {record['failed']}")
    for p in record["problems"]:
        print(f"  check failed (seed {record['seed']}): {p}", file=sys.stderr)


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": os.getloadavg()[0],
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def append_history(records: list) -> None:
    """One ledger row per run: the committed trajectory of every number."""
    git = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=_ROOT, capture_output=True, text=True
    )
    row_env = {"commit": git.stdout.strip() if git.returncode == 0 else "unknown", **environment()}
    with open(HISTORY, "a") as fh:
        for r in records:
            fh.write(json.dumps({
                **row_env, "workload": r["workload"], "seed": r["seed"],
                "seconds": r["seconds"], "trace": r["trace"], "quick": r["quick"],
                "metrics": {k: m["value"] for k, m in r["metrics"].items()},
            }) + "\n")


def trend() -> None:
    """Print each end-to-end metric's history, oldest first."""
    with open(HISTORY) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    rows = [r for r in rows if not r["trace"] and not r["quick"]]
    for workload in WORKLOADS:
        mine = [r for r in rows if r["workload"] == workload]
        if not mine:
            continue
        print(f"== {workload} ==")
        for name, unit in END_TO_END_UNITS.items():
            series = "  ".join(f"{r['commit']}:{r['metrics'][name]:.4g}" for r in mine)
            print(f"  {name:<14} [{unit}]  {series}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=14.0,
                    help="how long the timed repeats of one workload run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes, each workload under 2 s (for the tests)")
    ap.add_argument("--out", help="append one JSON record per workload run to FILE")
    ap.add_argument("--spans-out", help="write the traced run's spans to FILE (JSON lines)")
    ap.add_argument("--append-history", action="store_true",
                    help="append a ledger row per run to bench/history.jsonl")
    ap.add_argument("--trend", action="store_true",
                    help="print bench/history.jsonl per metric and exit")
    args = ap.parse_args(argv)
    if args.trend:
        trend()
        return 0
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(
            name, args.seed, 0.0 if args.quick else args.seconds, bool(args.trace),
            args.quick, args.spans_out,
        )
        report(record)
        records.append(record)
    if args.out:
        env = environment()
        with open(args.out, "a") as fh:
            for r in records:
                fh.write(json.dumps({**r, "env": env}) + "\n")
    if args.append_history:
        append_history(records)

    prefix = len(records) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}.{k}" if prefix else k): m
            for r in records for k, m in r["metrics"].items()
        },
    }))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
