"""Command-line entry point: ``meteorograph`` / ``python -m repro``.

Runs any experiment from DESIGN.md's index and prints its table, or
runs gate rows (``src/repro/gates.py``) and checks their facts, e.g.::

    meteorograph run fig7 --scale 1.0
    meteorograph run all
    meteorograph list
    meteorograph check qps fig7
    meteorograph check all
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .experiments import ALL_EXPERIMENTS, format_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meteorograph",
        description="Meteorograph (ICPP 2003) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument(
        "experiment",
        help="experiment id from DESIGN.md (e.g. fig7), or 'all'",
    )
    run.add_argument(
        "--scale",
        type=float,
        default=None,
        help="global scale factor (sets REPRO_SCALE; 1.0 = bench default)",
    )
    run.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="also write each experiment's rows to DIR as CSV+JSON "
        "(plus a manifest.json)",
    )

    sub.add_parser("list", help="list available experiments")

    trace = sub.add_parser(
        "trace",
        help="run a small instrumented session and print its span trees",
    )
    trace.add_argument(
        "experiment",
        nargs="?",
        default="fig7",
        help="experiment id shaping the session's queries (default: fig7)",
    )
    trace.add_argument("--scale", type=float, default=1.0, help="session size factor")
    trace.add_argument("--seed", type=int, default=7, help="session RNG seed")
    trace.add_argument(
        "--roots", type=int, default=3, help="how many span trees to print"
    )
    trace.add_argument(
        "--sample-every",
        type=int,
        default=1,
        metavar="K",
        help="record only every K-th publish span tree (1 = record all)",
    )
    trace.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="also export every recorded span tree to DIR as "
        "<experiment>.spans.json (next to rowset CSVs)",
    )

    stats = sub.add_parser(
        "stats",
        help="run a small instrumented session and print its metric tables",
    )
    stats.add_argument(
        "experiment",
        nargs="?",
        default="fig7",
        help="experiment id shaping the session's queries (default: fig7)",
    )
    stats.add_argument("--scale", type=float, default=1.0, help="session size factor")
    stats.add_argument("--seed", type=int, default=7, help="session RNG seed")
    stats.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="also write the registry snapshot to DIR as metrics.json + metrics.csv",
    )

    check = sub.add_parser(
        "check",
        help="run gate rows (DESIGN.md §4): print their facts, exit 1 if "
        "any predicate fails",
    )
    check.add_argument(
        "ids", nargs="+", metavar="id", help="gate row ids (see src/repro/gates.py), or 'all'"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in sorted(ALL_EXPERIMENTS):
            print(name)
        return 0
    if args.command == "run":
        if args.scale is not None:
            os.environ["REPRO_SCALE"] = str(args.scale)
        names = sorted(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
        unknown = [n for n in names if n not in ALL_EXPERIMENTS]
        if unknown:
            print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
            print("use 'meteorograph list'", file=sys.stderr)
            return 2
        done = {}
        for name in names:
            rs = ALL_EXPERIMENTS[name]()
            done[name] = rs
            print(format_table(rs))
            print(f"[{name} finished in {rs.elapsed_s:.2f}s]\n")
        if args.out is not None:
            from .io import update_manifest, write_rowset

            for name, rs in done.items():
                write_rowset(rs, args.out, name)
            manifest = update_manifest(args.out, done)
            print(f"results written to {manifest.parent}/")
        return 0
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "check":
        return _cmd_check(args.ids)
    raise AssertionError("unreachable")  # pragma: no cover


def _check_experiment(name: str) -> bool:
    if name in ALL_EXPERIMENTS:
        return True
    print(f"unknown experiment(s): {name}", file=sys.stderr)
    print("use 'meteorograph list'", file=sys.stderr)
    return False


def _cmd_trace(args) -> int:
    from .obs import Observability
    from .obs.demo import interesting_roots, traced_session
    from .obs.trace import TraceBus, render_trace_tree

    if not _check_experiment(args.experiment):
        return 2
    obs = None
    if args.sample_every != 1:
        if args.sample_every < 1:
            print("--sample-every must be >= 1", file=sys.stderr)
            return 2
        obs = Observability(tracer=TraceBus(sample_every=args.sample_every))
    session = traced_session(
        args.experiment, scale=args.scale, seed=args.seed, obs=obs
    )
    total = len(session.obs.tracer.roots)
    if total == 0:
        print("no spans recorded", file=sys.stderr)
        return 1
    roots = interesting_roots(session, limit=args.roots)
    print(
        f"[{session.experiment}] published {session.n_published} items, "
        f"{session.n_finds} finds, {session.n_retrieves} retrieves; "
        f"{'; '.join(session.notes)}"
    )
    if args.sample_every != 1:
        print(f"(publish spans sampled 1-in-{args.sample_every})")
    print(f"showing {len(roots)} of {total} recorded root spans:\n")
    for root in roots:
        print(render_trace_tree(root))
        print()
    if args.out is not None:
        from .io import write_spans

        path = write_spans(session.obs.tracer, args.out, session.experiment)
        print(f"span trees written to {path}")
    return 0


def _cmd_stats(args) -> int:
    from .obs.demo import traced_session

    if not _check_experiment(args.experiment):
        return 2
    session = traced_session(args.experiment, scale=args.scale, seed=args.seed)
    metrics = session.obs.metrics
    print(metrics.render_tables())
    if args.out is not None:
        out = os.path.join(args.out, "")
        os.makedirs(out, exist_ok=True)
        metrics.to_json(os.path.join(out, "metrics.json"))
        metrics.to_csv(os.path.join(out, "metrics.csv"))
        print(f"\nsnapshot written to {out}metrics.json / metrics.csv")
    return 0


def _cmd_check(ids: Sequence[str]) -> int:
    from .gates import GATES, Scaled, failures, run_gate

    names = list(GATES) if "all" in ids else list(dict.fromkeys(ids))
    unknown = [n for n in names if n not in GATES]
    if unknown:
        print(f"unknown gate(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"gates: {', '.join(GATES)}", file=sys.stderr)
        return 2
    failed_rows = []
    for name in names:
        gate = GATES[name]
        facts, tables, elapsed = run_gate(gate)
        print(f"== check {name} ==")
        print("knobs: " + ", ".join(
            f"{k}={v.name if isinstance(v, Scaled) else v}" for k, v in gate.knobs.items()
        ))
        for table in tables:
            print(format_table(table))
        for fact, value in facts.items():
            print(f"  {fact}: {value:.6g}" if isinstance(value, float) else f"  {fact}: {value}")
        failed = failures(gate, facts, elapsed)
        if failed:
            failed_rows.append(name)
            print(f"{name} FAILED in {elapsed:.2f}s: " + "; ".join(failed), file=sys.stderr)
        else:
            print(f"{name} OK in {elapsed:.2f}s")
        print()
    if len(names) > 1:
        print(f"check: {len(names) - len(failed_rows)}/{len(names)} rows OK"
              + (f"; failed: {', '.join(failed_rows)}" if failed_rows else ""))
    return 1 if failed_rows else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
