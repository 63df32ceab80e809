"""Command-line entry point: ``meteorograph`` / ``python -m repro``.

Runs any experiment from DESIGN.md's index and prints its table, e.g.::

    meteorograph run fig7 --scale 1.0
    meteorograph run all
    meteorograph list
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
        "--check",
        action="store_true",
        help="exit non-zero unless the expected instruments populated "
        "(CI smoke test)",
    )
    stats.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="also write the registry snapshot to DIR as metrics.json + metrics.csv",
    )

    faults = sub.add_parser(
        "faults",
        help="run a seeded churn scenario with repair + retry and report "
        "availability",
    )
    faults.add_argument(
        "--scenario",
        default="poisson",
        choices=sorted(_SCENARIO_NAMES),
        help="failure shape (default: poisson)",
    )
    faults.add_argument("--nodes", type=int, default=300, help="overlay size")
    faults.add_argument("--items", type=int, default=2000, help="published items")
    faults.add_argument("--replicas", type=int, default=4, help="copies per item")
    faults.add_argument(
        "--fraction",
        type=float,
        default=0.5,
        help="batch-kill kill fraction / region key-space span / partition "
        "side fraction / lossy drop probability",
    )
    faults.add_argument(
        "--rate", type=float, default=2.0, help="poisson departure rate"
    )
    faults.add_argument(
        "--count", type=int, default=4, help="flapping: how many nodes flap"
    )
    faults.add_argument(
        "--period", type=float, default=10.0, help="flapping: full cycle length"
    )
    faults.add_argument(
        "--horizon", type=float, default=50.0, help="simulated time to run"
    )
    faults.add_argument(
        "--repair-interval",
        type=float,
        default=5.0,
        help="incremental repair tick period (0 disables repair)",
    )
    faults.add_argument(
        "--full-scan",
        action="store_true",
        help="use full-scan repair instead of the incremental engine",
    )
    faults.add_argument(
        "--no-retry",
        action="store_true",
        help="disable retry/backoff home delivery",
    )
    faults.add_argument(
        "--queries", type=int, default=200, help="availability probes at the end"
    )
    faults.add_argument("--seed", type=int, default=7, help="run RNG seed")
    faults.add_argument(
        "--check",
        type=float,
        default=None,
        metavar="MIN_AVAIL",
        help="exit non-zero unless availability >= MIN_AVAIL (CI smoke)",
    )
    faults.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="with --check: also fail if the run took longer than this",
    )

    chaos = sub.add_parser(
        "chaos",
        help="run one seeded fault mix (loss x dup x partition x churn) "
        "and machine-check the invariants after quiescence",
    )
    chaos.add_argument("--nodes", type=int, default=300, help="overlay size")
    chaos.add_argument("--items", type=int, default=2000, help="published items")
    chaos.add_argument("--replicas", type=int, default=3, help="copies per item")
    chaos.add_argument(
        "--drop", type=float, default=0.05, help="per-link drop probability"
    )
    chaos.add_argument(
        "--dup", type=float, default=0.0, help="per-link duplication probability"
    )
    chaos.add_argument(
        "--jitter", type=float, default=0.0, help="async delay jitter bound"
    )
    chaos.add_argument(
        "--no-split",
        action="store_true",
        help="skip the partition split/heal (default: one split at 0.2h, "
        "heal at 0.7h)",
    )
    chaos.add_argument(
        "--split-fraction",
        type=float,
        default=0.4,
        help="fraction of live nodes cut off by the partition",
    )
    chaos.add_argument(
        "--churn",
        type=float,
        default=0.0,
        help="batch-kill fraction at mid-horizon (0 disables churn)",
    )
    chaos.add_argument(
        "--horizon", type=float, default=30.0, help="simulated fault window"
    )
    chaos.add_argument(
        "--quiesce",
        type=float,
        default=20.0,
        help="simulated maintenance time after faults stop",
    )
    chaos.add_argument(
        "--repair-interval", type=float, default=2.0, help="repair tick period"
    )
    chaos.add_argument(
        "--antientropy-interval",
        type=float,
        default=2.0,
        help="anti-entropy tick period",
    )
    chaos.add_argument(
        "--queries", type=int, default=300, help="availability probes at the end"
    )
    chaos.add_argument("--seed", type=int, default=47, help="run RNG seed")
    chaos.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless every invariant holds and availability "
        ">= --min-avail (CI smoke)",
    )
    chaos.add_argument(
        "--min-avail",
        type=float,
        default=0.85,
        help="availability floor for --check (default: 0.85)",
    )
    chaos.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="with --check: also fail if the run took longer than this",
    )

    overload = sub.add_parser(
        "overload",
        help="replay a seeded Zipf query storm against protected and "
        "unprotected builds; report shed rate / recall / availability",
    )
    overload.add_argument("--nodes", type=int, default=400, help="overlay size")
    overload.add_argument("--items", type=int, default=6000, help="published items")
    overload.add_argument(
        "--queries", type=int, default=300, help="storm query count"
    )
    overload.add_argument(
        "--skew", type=float, default=1.2, help="Zipf exponent of the storm"
    )
    overload.add_argument(
        "--top-keywords",
        type=int,
        default=12,
        help="popular-keyword pool the storm draws from",
    )
    overload.add_argument(
        "--amount", type=int, default=24, help="items requested per query"
    )
    overload.add_argument(
        "--service-rate",
        type=float,
        default=None,
        help="per-node drain rate as a fraction of global traffic "
        "(default: the experiment's storm policy)",
    )
    overload.add_argument(
        "--queue-cap",
        type=int,
        default=None,
        help="per-node inbox burst bound (default: storm policy)",
    )
    overload.add_argument("--seed", type=int, default=417, help="run RNG seed")
    overload.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless the protected cell keeps shed rate "
        "<= --max-shed, availability >= --min-avail, and inbox depth "
        "bounded by the queue cap (CI smoke)",
    )
    overload.add_argument(
        "--max-shed",
        type=float,
        default=0.35,
        help="with --check: maximum tolerated shed rate (default 0.35)",
    )
    overload.add_argument(
        "--min-avail",
        type=float,
        default=0.9,
        help="with --check: minimum availability vs the unprotected "
        "baseline (default 0.9)",
    )
    overload.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="with --check: also fail if the run took longer than this",
    )

    build = sub.add_parser(
        "build",
        help="time one build-path cell (keys + tight-capacity publish) and "
        "verify the chunked pipeline and cascade placement against their "
        "reference paths",
    )
    build.add_argument("--items", type=int, default=4000, help="corpus size")
    build.add_argument("--nodes", type=int, default=250, help="overlay size")
    build.add_argument(
        "--chunk-rows",
        type=int,
        default=512,
        help="row-chunk size for the streaming angle pass",
    )
    build.add_argument("--seed", type=int, default=19980724, help="run RNG seed")
    build.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless chunked keys are bit-identical and the "
        "cascade engine's placements/accounting match the sequential "
        "displacement chains (CI smoke)",
    )
    build.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="with --check: also fail unless cascade/chain speedup >= this",
    )
    build.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="with --check: also fail if the run took longer than this",
    )

    qps = sub.add_parser(
        "qps",
        help="replay a sustained Zipf query storm through the sequential "
        "retrieve loop and the batch engine; report throughput, latency "
        "percentiles, and the batch speedup",
    )
    qps.add_argument("--items", type=int, default=6000, help="published items")
    qps.add_argument("--nodes", type=int, default=400, help="overlay size")
    qps.add_argument(
        "--queries", type=int, default=1000, help="storm query count"
    )
    qps.add_argument(
        "--skew", type=float, default=1.2, help="Zipf exponent of the storm"
    )
    qps.add_argument(
        "--top-keywords",
        type=int,
        default=8,
        help="popular-keyword pool the storm draws from",
    )
    qps.add_argument(
        "--amount",
        type=int,
        default=None,
        help="items requested per query (default: exhaustive walk)",
    )
    qps.add_argument(
        "--window",
        type=int,
        default=512,
        help="arrival window drained per retrieve_many call",
    )
    qps.add_argument("--seed", type=int, default=702, help="run RNG seed")
    qps.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless the engines found identical items with "
        "an identical message bill (CI smoke)",
    )
    qps.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="with --check: also fail unless batch/sequential speedup >= this",
    )
    qps.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="with --check: also fail if the run took longer than this",
    )

    lsh = sub.add_parser(
        "lsh",
        help="compare cosine-LSH naming against the equal-storage "
        "absolute-angle baseline on one frontier cell; verify scalar and "
        "batch multi-probe agree",
    )
    lsh.add_argument("--items", type=int, default=4000, help="corpus size")
    lsh.add_argument("--nodes", type=int, default=200, help="overlay size")
    lsh.add_argument(
        "--queries", type=int, default=60, help="sampled query count"
    )
    lsh.add_argument("--k", type=int, default=10, help="recall@k cutoff")
    lsh.add_argument("--bands", type=int, default=4, help="LSH bands (L)")
    lsh.add_argument(
        "--band-bits", type=int, default=7, help="hyperplanes per band (k)"
    )
    lsh.add_argument(
        "--probe-width",
        type=int,
        default=2,
        help="ring-adjacent buckets probed per band",
    )
    lsh.add_argument("--seed", type=int, default=624, help="run RNG seed")
    lsh.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless scalar and batch multi-probe return "
        "identical items and messages with at most k discoveries each, "
        "and LSH recall@k >= the equal-storage baseline (CI smoke)",
    )
    lsh.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="with --check: also fail if the run took longer than this",
    )

    bench = sub.add_parser(
        "bench",
        help="time the micro-kernels; write or compare BENCH_*.json snapshots",
    )
    bench.add_argument(
        "--scale", type=float, default=1.0, help="kernel workload size factor"
    )
    bench.add_argument("--repeats", type=int, default=5, help="timing repeats")
    bench.add_argument(
        "--kernels",
        default=None,
        metavar="NAME[,NAME...]",
        help="comma-separated subset of kernels to run (default: all)",
    )
    bench.add_argument(
        "--out", default=None, metavar="FILE", help="write the snapshot JSON to FILE"
    )
    bench.add_argument(
        "--against",
        default=None,
        metavar="FILE",
        help="compare against a snapshot (e.g. BENCH_baseline.json); "
        "exit non-zero on a best-of regression past --threshold, or when a "
        "full run (no --kernels) and the snapshot name different kernels",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="fractional regression tolerance for --against (default 0.05; "
        "widen on noisy machines — sub-ms kernels jitter ~10%%)",
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
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "overload":
        return _cmd_overload(args)
    if args.command == "build":
        return _cmd_build(args)
    if args.command == "qps":
        return _cmd_qps(args)
    if args.command == "lsh":
        return _cmd_lsh(args)
    if args.command == "bench":
        return _cmd_bench(args)
    raise AssertionError("unreachable")  # pragma: no cover


#: ``faults --scenario`` choices; kept as a literal so building the
#: parser does not import the maint subsystem (startup stays light).
_SCENARIO_NAMES = ("batch-kill", "poisson", "flapping", "region", "partition", "lossy")


#: Instruments ``stats --check`` requires after a demo session; chosen
#: so that breaking any instrumented layer (network counters, routing,
#: kernels, the simulator profiler) trips the check.
_REQUIRED_COUNTERS = ("net.sent.publish", "routing.rows_built")
_REQUIRED_TIMERS = ("kernel.angles", "publish.displace_chain", "sim.step")


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
    if args.check:
        snap = metrics.snapshot()
        missing = [c for c in _REQUIRED_COUNTERS if not snap["counters"].get(c)]
        missing += [
            t for t in _REQUIRED_TIMERS
            if snap["timers"].get(t, {}).get("wall_s", {}).get("count", 0) == 0
        ]
        if missing:
            print(f"\nstats --check FAILED; missing: {', '.join(missing)}",
                  file=sys.stderr)
            return 1
        print("\nstats --check OK")
    return 0


def _cmd_faults(args) -> int:
    import time

    import numpy as np

    from .core import Meteorograph, MeteorographConfig, PlacementScheme
    from .experiments.common import sample_of
    from .maint import RepairEngine, RetryPolicy, make_scenario, run_scenarios
    from .sim.engine import Simulator
    from .workload import WorldCupParams, generate_trace

    t0 = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    trace = generate_trace(
        WorldCupParams(
            n_items=args.items, n_keywords=max(100, args.items // 5)
        ),
        seed=args.seed,
    )
    sim = Simulator()
    config = MeteorographConfig(
        scheme=PlacementScheme.UNUSED_HASH_HOT,
        replication_factor=args.replicas,
        observability=True,
        retry_policy=None if args.no_retry else RetryPolicy(seed=args.seed),
    )
    system = Meteorograph.build(
        args.nodes,
        trace.corpus.dim,
        rng=rng,
        sample=sample_of(trace.corpus, rng),
        config=config,
        simulator=sim,
    )
    system.publish_corpus(trace.corpus, rng)
    engine = None
    if args.repair_interval > 0 and system.replication is not None:
        if args.full_scan:
            system.replication.schedule(args.repair_interval)
        else:
            engine = RepairEngine(system).attach()
            engine.schedule(args.repair_interval)
    if args.scenario == "batch-kill":
        scenario = make_scenario("batch-kill", fraction=args.fraction)
    elif args.scenario == "poisson":
        scenario = make_scenario("poisson", depart_rate=args.rate)
    elif args.scenario == "flapping":
        scenario = make_scenario("flapping", count=args.count, period=args.period)
    elif args.scenario == "partition":
        scenario = make_scenario(
            "partition",
            fraction=args.fraction,
            at=0.2 * args.horizon,
            heal_at=0.7 * args.horizon,
        )
    elif args.scenario == "lossy":
        scenario = make_scenario(
            "lossy", drop=args.fraction, stop=args.horizon
        )
    else:
        scenario = make_scenario("region", span=args.fraction)
    stats = run_scenarios(system, [scenario], rng, horizon=args.horizon)
    ok = 0
    for _ in range(args.queries):
        if system.network.alive_count() == 0:
            break  # total wipeout: availability is whatever succeeded so far
        item = int(rng.integers(0, trace.corpus.n_items))
        origin = system.random_origin(rng)
        if system.find(origin, item, max_walk=args.replicas * 4).found:
            ok += 1
    availability = ok / args.queries
    elapsed = time.perf_counter() - t0
    alive = system.network.alive_count()
    print(
        f"[faults:{args.scenario}] nodes {alive}/{args.nodes} alive, "
        f"items {trace.corpus.n_items}, replicas {args.replicas}, "
        f"horizon {args.horizon:g}"
    )
    print(
        f"scenario: {stats.failed} failures, {stats.recovered} recoveries, "
        f"{stats.arrivals} arrivals"
    )
    if engine is not None:
        print(
            f"repair: {engine.ticks} incremental ticks, "
            f"{engine.total_placed} replicas placed, "
            f"{engine.dirty_size} items still dirty"
        )
    counters = system.obs.metrics.snapshot().get("counters", {})
    maint = {k: v for k, v in sorted(counters.items()) if k.startswith("maint.")}
    if maint:
        print("maint counters: " + ", ".join(f"{k}={v}" for k, v in maint.items()))
    print(f"availability: {availability:.3f} ({ok}/{args.queries}) in {elapsed:.2f}s")
    if args.check is not None:
        failed = []
        if availability < args.check:
            failed.append(f"availability {availability:.3f} < {args.check}")
        if args.max_seconds is not None and elapsed > args.max_seconds:
            failed.append(f"runtime {elapsed:.2f}s > {args.max_seconds}s")
        if failed:
            print("faults --check FAILED: " + "; ".join(failed), file=sys.stderr)
            return 1
        print("faults --check OK")
    return 0


def _cmd_chaos(args) -> int:
    import time

    from .experiments.chaos import chaos_cell
    from .workload import WorldCupParams, generate_trace

    t0 = time.perf_counter()
    trace = generate_trace(
        WorldCupParams(
            n_items=args.items, n_keywords=max(100, args.items // 5)
        ),
        seed=args.seed,
    )
    cell = chaos_cell(
        trace,
        n_nodes=args.nodes,
        replicas=args.replicas,
        drop=args.drop,
        dup=args.dup,
        jitter=args.jitter,
        split=not args.no_split,
        split_fraction=args.split_fraction,
        churn=args.churn,
        horizon=args.horizon,
        quiesce=args.quiesce,
        repair_interval=args.repair_interval,
        antientropy_interval=args.antientropy_interval,
        queries=args.queries,
        seed=args.seed,
    )
    elapsed = time.perf_counter() - t0
    plane = cell["plane"]
    stats = cell["stats"]
    print(
        f"[chaos] nodes {args.nodes}, items {cell['published']}, replicas "
        f"{args.replicas}, drop {args.drop:g}, dup {args.dup:g}, "
        f"jitter {args.jitter:g}, split {'off' if args.no_split else 'on'}, "
        f"churn {args.churn:g}, horizon {args.horizon:g}+{args.quiesce:g}"
    )
    print(
        f"plane: {plane['charged']} charged = {plane['delivered']} delivered "
        f"+ {plane['dropped']} dropped + {plane['duplicated']} duplicated "
        f"({plane['partition_dropped']} at the cut, {plane['delayed']} "
        f"delayed, {plane['splits']} splits / {plane['heals']} heals)"
    )
    print(
        f"scenario: {stats['failed']} failures, {stats['recovered']} "
        f"recoveries; anti-entropy re-placed {cell['replaced']} copies"
    )
    bad = []
    for name, report in cell["reports"].items():
        status = "ok" if report.ok else f"FAILED ({report.violations} violations)"
        print(f"invariant {name}: {status} [{report.checked} checked]")
        if not report.ok:
            bad.append(name)
            for sample in report.samples[:3]:
                print(f"  e.g. {sample}")
    print(
        f"availability: {cell['availability']:.3f} "
        f"({cell['lost']} items lost all copies) in {elapsed:.2f}s"
    )
    if args.check:
        failed = list(bad)
        if cell["availability"] < args.min_avail:
            failed.append(
                f"availability {cell['availability']:.3f} < {args.min_avail}"
            )
        if args.max_seconds is not None and elapsed > args.max_seconds:
            failed.append(f"runtime {elapsed:.2f}s > {args.max_seconds}s")
        if failed:
            print("chaos --check FAILED: " + "; ".join(failed), file=sys.stderr)
            return 1
        print("chaos --check OK")
    return 0


def _cmd_overload(args) -> int:
    import time
    from dataclasses import replace

    from .experiments.overload import STORM_POLICY, storm_cell
    from .workload import WorldCupParams, generate_trace

    t0 = time.perf_counter()
    trace = generate_trace(
        WorldCupParams(
            n_items=args.items, n_keywords=max(100, args.items // 5)
        ),
        seed=args.seed,
    )
    pol = STORM_POLICY
    if args.service_rate is not None:
        pol = replace(pol, service_rate=args.service_rate)
    if args.queue_cap is not None:
        pol = replace(pol, queue_cap=args.queue_cap)
    cell = dict(
        n_nodes=args.nodes,
        queries=args.queries,
        skew=args.skew,
        amount=args.amount,
        top_keywords=args.top_keywords,
        seed=args.seed,
    )
    off = storm_cell(trace, policy=None, monitor_rate=pol.service_rate, **cell)
    on = storm_cell(trace, policy=pol, baseline_sets=off["result_sets"], **cell)
    elapsed = time.perf_counter() - t0
    print(
        f"[overload] nodes {args.nodes}, items {args.items}, "
        f"{args.queries} queries ~ Zipf({args.skew:g}) over top "
        f"{args.top_keywords} keywords"
    )
    print(f"unprotected: max inbox depth {off['max_inbox']}")
    print(
        f"protected:   max inbox depth {on['max_inbox']} "
        f"(cap {pol.queue_cap}, rate {pol.service_rate:g}), "
        f"shed rate {on['shed_rate']:.3f}, recall {on['recall']:.3f}, "
        f"availability {on['availability']:.3f}"
    )
    print(
        f"degradation: {on['degraded']} diverted queries, "
        f"{on['breaker_transitions']} breaker transitions, in {elapsed:.2f}s"
    )
    if args.check:
        failed = []
        if on["shed_rate"] > args.max_shed:
            failed.append(f"shed rate {on['shed_rate']:.3f} > {args.max_shed}")
        if on["availability"] < args.min_avail:
            failed.append(
                f"availability {on['availability']:.3f} < {args.min_avail}"
            )
        if on["max_inbox"] > pol.queue_cap:
            failed.append(
                f"inbox depth {on['max_inbox']} > queue cap {pol.queue_cap}"
            )
        if args.max_seconds is not None and elapsed > args.max_seconds:
            failed.append(f"runtime {elapsed:.2f}s > {args.max_seconds}s")
        if failed:
            print("overload --check FAILED: " + "; ".join(failed), file=sys.stderr)
            return 1
        print("overload --check OK")
    return 0


def _cmd_build(args) -> int:
    import time

    import numpy as np

    from .core import Meteorograph, MeteorographConfig, PlacementScheme
    from .core.angles import absolute_angles
    from .experiments.common import sample_of
    from .workload import WorldCupParams, generate_trace

    t0 = time.perf_counter()
    trace = generate_trace(
        WorldCupParams(n_items=args.items, n_keywords=max(100, args.items // 5)),
        seed=args.seed,
    )
    corpus = trace.corpus
    t1 = time.perf_counter()
    whole = absolute_angles(corpus)
    t2 = time.perf_counter()
    chunked = absolute_angles(corpus, chunk_rows=args.chunk_rows)
    t3 = time.perf_counter()
    keys_identical = bool(np.array_equal(whole, chunked))

    capacity = max(4, int(round((args.items / args.nodes) * 4 / 3)))

    def build_sys() -> Meteorograph:
        rng = np.random.default_rng(args.seed + 1)
        return Meteorograph.build(
            args.nodes,
            corpus.dim,
            rng=rng,
            sample=sample_of(corpus, rng),
            config=MeteorographConfig(
                scheme=PlacementScheme.UNUSED_HASH, node_capacity=capacity
            ),
        )

    def placements(system):
        return {
            n.node_id: frozenset(n.item_ids())
            for n in system.network.nodes()
            if len(n)
        }

    cas = build_sys()
    t4 = time.perf_counter()
    cas.publish_corpus(corpus, np.random.default_rng(args.seed + 2), batch=True,
                       cascade=True)
    cascade_s = time.perf_counter() - t4
    seq = build_sys()
    t5 = time.perf_counter()
    seq.publish_corpus(corpus, np.random.default_rng(args.seed + 2), batch=True,
                       cascade=False)
    chain_s = time.perf_counter() - t5
    placement_identical = placements(cas) == placements(seq)
    accounting_identical = (
        cas.network.sink.snapshot() == seq.network.sink.snapshot()
    )
    speedup = chain_s / cascade_s if cascade_s > 0 else float("inf")
    elapsed = time.perf_counter() - t0
    print(
        f"[build] items {args.items}, nodes {args.nodes}, cap {capacity} "
        f"(~4c/3), chunk_rows {args.chunk_rows}"
    )
    print(
        f"keys:    whole {1e3 * (t2 - t1):.1f} ms, chunked "
        f"{1e3 * (t3 - t2):.1f} ms, bit-identical: {keys_identical}"
    )
    print(
        f"publish: cascade {1e3 * cascade_s:.1f} ms, chain branch "
        f"{1e3 * chain_s:.1f} ms, speedup {speedup:.1f}x"
    )
    print(
        f"equivalence: placements {placement_identical}, accounting "
        f"{accounting_identical} ({cas.network.sink.count('displace')} "
        f"displacements), in {elapsed:.2f}s"
    )
    if args.check:
        failed = []
        if not keys_identical:
            failed.append("chunked keys differ from the whole-corpus pass")
        if not placement_identical:
            failed.append("cascade placements differ from sequential chains")
        if not accounting_identical:
            failed.append("cascade message accounting differs")
        if args.min_speedup is not None and speedup < args.min_speedup:
            failed.append(f"speedup {speedup:.1f}x < {args.min_speedup}x")
        if args.max_seconds is not None and elapsed > args.max_seconds:
            failed.append(f"runtime {elapsed:.2f}s > {args.max_seconds}s")
        if failed:
            print("build --check FAILED: " + "; ".join(failed), file=sys.stderr)
            return 1
        print("build --check OK")
    return 0


def _cmd_qps(args) -> int:
    import time

    import numpy as np

    from .core import PlacementScheme
    from .experiments.common import build_system, publish_all
    from .experiments.qps import qps_cell, qps_storm
    from .workload import WorldCupParams, generate_trace

    t0 = time.perf_counter()
    trace = generate_trace(
        WorldCupParams(n_items=args.items, n_keywords=max(100, args.items // 5)),
        seed=19980724,
    )
    rng = np.random.default_rng(args.seed)
    system = build_system(trace, args.nodes, PlacementScheme.UNUSED_HASH, rng=rng)
    publish_all(system, trace, rng)
    origins, storm = qps_storm(
        trace, system, n_nodes=args.nodes, queries=args.queries,
        skew=args.skew, top_keywords=args.top_keywords, seed=args.seed,
    )
    patience = max(16, args.nodes // 20)
    window = max(2, min(args.window, len(storm)))
    cell = dict(amount=args.amount, patience=patience)
    seq = qps_cell(system, origins, storm, window=1, **cell)
    bat = qps_cell(system, origins, storm, window=window, **cell)
    speedup = seq["elapsed_s"] / bat["elapsed_s"]
    elapsed = time.perf_counter() - t0
    print(
        f"[qps] nodes {args.nodes}, items {args.items}, {args.queries} "
        f"queries ~ Zipf({args.skew:g}) over top {args.top_keywords} "
        f"keywords, window {window}"
    )
    print(
        f"sequential: {seq['qps']:.0f} q/s, p50 {seq['p50_ms']:.2f} ms, "
        f"p95 {seq['p95_ms']:.2f} ms, {seq['found']} found, "
        f"{seq['messages']} messages"
    )
    print(
        f"batch:      {bat['qps']:.0f} q/s, p50 {bat['p50_ms']:.2f} ms, "
        f"p95 {bat['p95_ms']:.2f} ms, {bat['found']} found, "
        f"{bat['messages']} messages"
    )
    print(f"speedup:    {speedup:.1f}x, in {elapsed:.2f}s")
    if args.check:
        failed = []
        if bat["found"] != seq["found"]:
            failed.append(
                f"batch found {bat['found']} items != sequential {seq['found']}"
            )
        if bat["messages"] != seq["messages"]:
            failed.append(
                f"batch sent {bat['messages']} messages != sequential "
                f"{seq['messages']}"
            )
        if args.min_speedup is not None and speedup < args.min_speedup:
            failed.append(f"speedup {speedup:.1f}x < {args.min_speedup}x")
        if args.max_seconds is not None and elapsed > args.max_seconds:
            failed.append(f"runtime {elapsed:.2f}s > {args.max_seconds}s")
        if failed:
            print("qps --check FAILED: " + "; ".join(failed), file=sys.stderr)
            return 1
        print("qps --check OK")
    return 0


def _cmd_lsh(args) -> int:
    import time

    import numpy as np

    from .core import PlacementScheme
    from .experiments.common import build_system, publish_all
    from .experiments.lshfrontier import exact_top_k, frontier_cell
    from .lsh.probe import multi_probe_retrieve, multi_probe_retrieve_many
    from .workload import WorldCupParams, generate_trace

    t0 = time.perf_counter()
    trace = generate_trace(
        WorldCupParams(n_items=args.items, n_keywords=max(100, args.items // 5)),
        seed=19980724,
    )
    corpus = trace.corpus
    L, width = args.bands, args.probe_width
    budget = L * (1 + width)
    qrng = np.random.default_rng(args.seed)
    qids = qrng.choice(corpus.n_items, size=min(args.queries, corpus.n_items),
                       replace=False)
    storm = [corpus.vector(int(i)) for i in np.sort(qids)]
    truths = [exact_top_k(corpus, q, args.k) for q in storm]

    base = build_system(
        trace, args.nodes, PlacementScheme.UNUSED_HASH,
        rng=np.random.default_rng(args.seed), replication_factor=L,
    )
    publish_all(base, trace, np.random.default_rng(args.seed + 1))
    orng = np.random.default_rng(args.seed + 2)
    base_origins = [base.random_origin(orng) for _ in storm]
    b = frontier_cell(base, storm, truths, base_origins, args.k,
                      lsh=False, visit_budget=budget)

    lsh_sys = build_system(
        trace, args.nodes, PlacementScheme.NONE,
        rng=np.random.default_rng(args.seed),
        naming_scheme="cosine-lsh", lsh_bands=L, lsh_band_bits=args.band_bits,
        lsh_seed=args.seed, lsh_probe_width=width,
    )
    publish_all(lsh_sys, trace, np.random.default_rng(args.seed + 1))
    orng = np.random.default_rng(args.seed + 2)
    lsh_origins = [lsh_sys.random_origin(orng) for _ in storm]
    c = frontier_cell(lsh_sys, storm, truths, lsh_origins, args.k,
                      lsh=True, visit_budget=budget)

    # Scalar vs batch multi-probe: the equivalence contract, end to end.
    scalar = [
        multi_probe_retrieve(lsh_sys, o, q, args.k)
        for o, q in zip(lsh_origins, storm)
    ]
    batch = multi_probe_retrieve_many(lsh_sys, lsh_origins, storm, args.k)
    items_identical = all(
        s.item_ids() == r.item_ids() for s, r in zip(scalar, batch)
    )
    messages_identical = all(
        s.messages == r.messages for s, r in zip(scalar, batch)
    )
    elapsed = time.perf_counter() - t0
    print(
        f"[lsh] nodes {args.nodes}, items {args.items}, {len(storm)} queries, "
        f"L={L}, k_bits={args.band_bits}, W={width} "
        f"(budget: {L}x storage, {budget} visits/query)"
    )
    print(
        f"absolute-angle: recall@{args.k} {b['recall']:.3f}, "
        f"{b['messages']:.1f} msgs/query, {b['stored']} stored"
    )
    print(
        f"cosine-lsh:     recall@{args.k} {c['recall']:.3f}, "
        f"{c['messages']:.1f} msgs/query, {c['stored']} stored"
    )
    print(
        f"multi-probe scalar==batch: items {items_identical}, "
        f"messages {messages_identical}, in {elapsed:.2f}s"
    )
    if args.check:
        failed = []
        if not items_identical:
            failed.append("batch multi-probe items differ from scalar")
        if not messages_identical:
            failed.append("batch multi-probe message bill differs from scalar")
        if any(r.found > args.k for r in scalar + batch):
            failed.append(
                f"a multi-probe result holds more than k={args.k} discoveries"
            )
        if c["recall"] < b["recall"]:
            failed.append(
                f"LSH recall {c['recall']:.3f} < baseline {b['recall']:.3f} "
                "at equal storage"
            )
        if args.max_seconds is not None and elapsed > args.max_seconds:
            failed.append(f"runtime {elapsed:.2f}s > {args.max_seconds}s")
        if failed:
            print("lsh --check FAILED: " + "; ".join(failed), file=sys.stderr)
            return 1
        print("lsh --check OK")
    return 0


def _cmd_bench(args) -> int:
    from .obs import bench

    kernels = None
    if args.kernels is not None:
        kernels = [k.strip() for k in args.kernels.split(",") if k.strip()]
    try:
        results = bench.run_benchmarks(
            scale=args.scale, repeats=args.repeats, kernels=kernels
        )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(bench.format_results(results))
    if args.out is not None:
        path = bench.write_results(results, args.out)
        print(f"\nsnapshot written to {path}")
    if args.against is not None:
        try:
            baseline = bench.load_results(args.against)
        except (OSError, ValueError) as exc:
            print(f"cannot read baseline {args.against}: {exc}", file=sys.stderr)
            return 2
        rows = bench.compare_results(baseline, results)
        print(f"\nvs {args.against}:")
        print(bench.format_comparison(rows, threshold=args.threshold))
        if any(r["delta"] is not None and r["delta"] > args.threshold for r in rows):
            return 1
        if kernels is None:
            # A full run must time exactly the baseline's kernels: one
            # that was deleted, renamed or silently not built has no
            # delta to regress and would otherwise pass the gate.
            gone = [r["kernel"] for r in rows if r["current_us"] is None]
            new = [r["kernel"] for r in rows if r["baseline_us"] is None]
            if gone or new:
                print(
                    "bench --against FAILED: kernel sets differ"
                    + (f"; only in {args.against}: {', '.join(gone)}" if gone else "")
                    + (f"; only in this run: {', '.join(new)}" if new else ""),
                    file=sys.stderr,
                )
                return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
