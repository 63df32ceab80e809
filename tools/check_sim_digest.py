"""Simulated-facts gate: did a change move anything the host cannot explain?

Runs ``python3 bench/run.py --quick --workload all`` (~4 s) and compares
each workload record's ``sim`` object — ops, messages, the per-kind
``MetricSink`` bill, items found, fault-plane snapshot, quality … —
exactly against the committed ``results/bench_quick_sim.json``.  Those
numbers are deterministic given the seed, so a host-side optimisation
must leave every one of them bit-identical; a differing key means a
query missed a hit, a message was not billed, or a tie broke the other
way, whatever ``"correct": true`` says.

    python tools/check_sim_digest.py            # compare (CI does)
    python tools/check_sim_digest.py --update   # re-record after a PR
                                                # that moves a simulated
                                                # fact on purpose

Exit status 1 when any key differs (each is printed with both values)
or a workload is missing on either side.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = ROOT / "results" / "bench_quick_sim.json"


def run_quick() -> dict:
    """``{workload: sim}`` from one fresh ``--quick`` run of every workload."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "quick.jsonl"
        subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--quick",
             "--workload", "all", "--out", str(out)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        records = [json.loads(line) for line in out.read_text().splitlines() if line]
    return {r["workload"]: {"seed": r["seed"], **r["sim"]} for r in records}


def flatten(obj, prefix: str = "") -> dict:
    """Nested dicts as ``{"a.b": leaf}`` so a diff names the exact key."""
    if not isinstance(obj, dict):
        return {prefix: obj}
    out = {}
    for k, v in obj.items():
        out.update(flatten(v, f"{prefix}.{k}" if prefix else k))
    return out


def differences(want: dict, got: dict) -> list[str]:
    lines = []
    for workload in sorted(want.keys() | got.keys()):
        if workload not in want or workload not in got:
            side = "the run" if workload not in got else "the digest"
            lines.append(f"{workload}: missing from {side}")
            continue
        a, b = flatten(want[workload]), flatten(got[workload])
        for key in sorted(a.keys() | b.keys()):
            if a.get(key) != b.get(key):
                lines.append(
                    f"{workload}: {key}  committed {a.get(key)!r}  now {b.get(key)!r}"
                )
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--update", action="store_true",
                    help=f"write the fresh run to {DIGEST.relative_to(ROOT)} and exit")
    args = ap.parse_args(argv)
    got = run_quick()
    if args.update:
        DIGEST.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {DIGEST.relative_to(ROOT)} ({len(got)} workloads)")
        return 0
    lines = differences(json.loads(DIGEST.read_text()), got)
    for line in lines:
        print(line)
    if lines:
        print(f"FAIL: {len(lines)} simulated value(s) differ from "
              f"{DIGEST.relative_to(ROOT)}")
        return 1
    print(f"OK: simulated facts of {len(got)} workloads match "
          f"{DIGEST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
