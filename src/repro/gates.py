"""The gate table: every claim and contract this repository checks.

One row per gate: the runner it calls, the knobs it runs at (data, not
options), the predicates its facts must satisfy and an optional
wall-time bound. ``meteorograph check <id> [<id> …] | all`` runs rows;
no other code path evaluates a gate predicate.

* **Smoke rows** (``stats``, ``faults``, ``chaos``, ``overload``,
  ``build``, ``qps``, ``lsh``) re-verify an engine contract (scalar ≡
  batch, chunked ≡ whole, the invariants after chaos) or a robustness
  floor at the size CI runs them; the runner returns the facts.
* **Figure rows** re-run one paper figure or extension on the bench
  trace, 6 000 items over 1 500 keywords (floors 500 and 200) at seed
  19980724, with single-deployment rows on ``max(100, 400·s)`` nodes,
  ``s`` being ``REPRO_SCALE`` (default 1.0). The thresholds were tuned
  on it. The runner returns the table(s) and ``derive`` reads the facts
  off them.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple, Optional

import numpy as np

from . import analysis
from . import experiments as ex
from .core import Meteorograph, MeteorographConfig, PlacementScheme
from .experiments.common import RowSet, publish_all, scale_factor, shared_trace

__all__ = ["Pred", "Gate", "Scaled", "GATES", "run_gate", "failures"]

_OPS = {">=": operator.ge, "<=": operator.le, ">": operator.gt, "<": operator.lt,
        "==": operator.eq}


class Pred(NamedTuple):
    """``facts[fact] <op> rhs``; ``rhs`` is a constant or the name of
    another fact. A fact of ``None`` (undefined at this size) leaves the
    predicate unchecked."""

    fact: str
    op: str
    rhs: Any = True

    @property
    def label(self) -> str:
        if self.op == "==" and self.rhs is True:
            return self.fact
        return f"{self.fact} {self.op} {self.rhs}"

    def holds(self, facts: Mapping[str, Any]) -> bool:
        lhs = facts[self.fact]
        rhs = facts[self.rhs] if isinstance(self.rhs, str) else self.rhs
        return lhs is None or rhs is None or bool(_OPS[self.op](lhs, rhs))


@dataclass(frozen=True)
class Gate:
    """``runner(**knobs)`` gives the facts or, with ``derive``, the
    table(s) ``derive`` reads them off."""

    id: str
    runner: Callable[..., Any]
    knobs: Mapping[str, Any]
    predicates: tuple[Pred, ...]
    derive: Optional[Callable[..., dict]] = None
    max_seconds: Optional[float] = None


class Scaled(NamedTuple):
    """A knob resolved from ``REPRO_SCALE`` when its row runs."""

    name: str
    make: Callable[[], Any]


TRACE = Scaled("bench trace", lambda: shared_trace(
    max(500, int(6000 * scale_factor())), max(200, int(1500 * scale_factor())), 19980724
))
NODES = Scaled("bench nodes", lambda: max(100, int(400 * scale_factor())))


def run_gate(gate: Gate) -> tuple[dict, tuple[RowSet, ...], float]:
    """Run one row: its facts, its tables (figure rows) and wall time."""
    knobs = {k: v.make() if isinstance(v, Scaled) else v for k, v in gate.knobs.items()}
    t0 = time.perf_counter()
    out = gate.runner(**knobs)
    elapsed = time.perf_counter() - t0
    if gate.derive is None:
        return out, (), elapsed
    tables = out if isinstance(out, tuple) else (out,)
    return gate.derive(*tables), tables, elapsed


def failures(gate: Gate, facts: Mapping[str, Any], elapsed: float = 0.0) -> list[str]:
    """Labels of the row's predicates the facts break, in table order."""
    failed = [p.label for p in gate.predicates if not p.holds(facts)]
    if gate.max_seconds is not None and elapsed > gate.max_seconds:
        failed.append(f"wall time <= {gate.max_seconds:g}s")
    return failed


def _trace(items: int, seed: int):
    """A smoke row's own trace: ``n_keywords = max(100, items // 5)``."""
    return shared_trace(items, max(100, items // 5), seed)


# -- smoke runners -----------------------------------------------------------

#: Breaking any instrumented layer (network counters, routing, kernels,
#: the simulator profiler) leaves one of these at zero.
_STATS_COUNTERS = ("net.sent.publish", "routing.rows_built")
_STATS_TIMERS = ("kernel.angles", "publish.displace_chain", "sim.step")


def _stats(*, experiment: str, scale: float, seed: int) -> dict:
    from .obs.demo import traced_session

    snap = traced_session(experiment, scale=scale, seed=seed).obs.metrics.snapshot()
    facts = {c: snap["counters"].get(c, 0) for c in _STATS_COUNTERS}
    for t in _STATS_TIMERS:
        facts[f"{t} calls"] = snap["timers"].get(t, {}).get("wall_s", {}).get("count", 0)
    return facts


def _faults(
    *, nodes: int, items: int, replicas: int, fraction: float, horizon: float,
    repair_interval: float, queries: int, seed: int,
) -> dict:
    """Kill ``fraction`` of the ring at once under incremental repair and
    retry delivery, then probe availability with ``find``."""
    from .maint import RepairEngine, RetryPolicy, make_scenario, run_scenarios
    from .sim.engine import Simulator

    config = MeteorographConfig(
        scheme=PlacementScheme.UNUSED_HASH_HOT, replication_factor=replicas,
        observability=True, retry_policy=RetryPolicy(seed=seed),
    )
    rng = np.random.default_rng(seed)
    corpus = _trace(items, seed).corpus
    system = Meteorograph.build(
        nodes, corpus.dim, rng=rng, sample=ex.sample_of(corpus, rng), config=config,
        simulator=Simulator(),
    )
    system.publish_corpus(corpus, rng)
    engine = None
    if repair_interval > 0 and replicas > 1:
        engine = RepairEngine(system).attach()
        engine.schedule(repair_interval)
    stats = run_scenarios(
        system, [make_scenario("batch-kill", fraction=fraction)], rng, horizon=horizon
    )
    found = 0
    for _ in range(queries):
        if system.network.alive_count() == 0:
            break  # total wipeout: availability is whatever succeeded so far
        item = int(rng.integers(0, corpus.n_items))
        found += system.find(system.random_origin(rng), item, max_walk=replicas * 4).found
    facts = {"nodes alive": system.network.alive_count(), "failures": stats.failed,
             "recoveries": stats.recovered, "arrivals": stats.arrivals}
    if engine is not None:
        facts.update({"repair ticks": engine.ticks, "replicas placed": engine.total_placed,
                      "items still dirty": engine.dirty_size})
    counters = system.obs.metrics.snapshot().get("counters", {})
    facts.update((k, v) for k, v in sorted(counters.items()) if k.startswith("maint."))
    return {**facts, "found": found, "availability": found / queries}


_INVARIANTS = ("reachability", "replica_counts", "accounting", "holder_index")


def _chaos(*, items: int, seed: int, **cell) -> dict:
    """``chaos_cell`` (whose keywords the other knobs are) on the row's trace."""
    from .experiments.chaos import chaos_cell

    out = chaos_cell(_trace(items, seed), seed=seed, **cell)
    facts = {f"plane {k}": out["plane"][k] for k in (
        "charged", "delivered", "dropped", "duplicated", "partition_dropped", "delayed",
        "splits", "heals",
    )}
    facts.update({"failures": out["stats"]["failed"], "recoveries": out["stats"]["recovered"],
                  "anti-entropy re-placed": out["replaced"]})
    for name, report in out["reports"].items():
        facts[f"invariant {name} holds"] = report.ok
        facts[f"invariant {name} checked"] = report.checked
        if not report.ok:
            facts[f"invariant {name} violations"] = report.violations
            facts[f"invariant {name} e.g."] = "; ".join(map(str, report.samples[:3]))
    return {**facts, "items lost all copies": out["lost"], "availability": out["availability"]}


def _overload(*, items: int, service_rate: float, queue_cap: int, seed: int, **cell) -> dict:
    """The storm against an unprotected and a protected twin."""
    from dataclasses import replace

    from .experiments.overload import STORM_POLICY

    trace = _trace(items, seed)
    pol = replace(STORM_POLICY, service_rate=service_rate, queue_cap=queue_cap)
    off = ex.storm_cell(trace, policy=None, monitor_rate=service_rate, seed=seed, **cell)
    on = ex.storm_cell(trace, policy=pol, baseline_sets=off["result_sets"], seed=seed, **cell)
    return {
        "unprotected max inbox": off["max_inbox"], "protected max inbox": on["max_inbox"],
        "queue cap": queue_cap, "shed rate": on["shed_rate"], "recall": on["recall"],
        "availability": on["availability"], "diverted queries": on["degraded"],
        "breaker transitions": on["breaker_transitions"],
    }


def _build(*, items: int, nodes: int, chunk_rows: int, seed: int) -> dict:
    """Chunked keys vs the whole-corpus pass, and the corpus publish vs
    the same rows in batches of one, at capacity ≈ 4c/3."""
    from .core.angles import absolute_angles
    from .experiments.buildscale import build_cell, cascade_engaged, placements, publish_singly

    corpus = _trace(items, seed).corpus
    t1 = time.perf_counter()
    whole = absolute_angles(corpus)
    t2 = time.perf_counter()
    chunked = absolute_angles(corpus, chunk_rows=chunk_rows)
    t3 = time.perf_counter()
    capacity = max(4, int(round((items / nodes) * 4 / 3)))
    cas = build_cell(corpus, nodes, capacity, seed + 1)
    t4 = time.perf_counter()
    cas.publish_corpus(corpus, np.random.default_rng(seed + 2))
    cascade_s = time.perf_counter() - t4
    one = build_cell(corpus, nodes, capacity, seed + 1)
    t5 = time.perf_counter()
    publish_singly(one, corpus, np.random.default_rng(seed + 2))
    singly_s = time.perf_counter() - t5
    spills = cas.network.sink.count("displace")
    return {
        "capacity": capacity, "keys whole ms": 1e3 * (t2 - t1),
        "keys chunked ms": 1e3 * (t3 - t2),
        "chunked keys bit-identical": bool(np.array_equal(whole, chunked)),
        "corpus publish ms": 1e3 * cascade_s, "batches of one ms": 1e3 * singly_s,
        "speedup": singly_s / cascade_s if cascade_s > 0 else float("inf"),
        "placements match batches of one": placements(cas) == placements(one),
        "displacements": spills,
        "displace bill matches batches of one": one.network.sink.count("displace") == spills,
        "cascade placed every item": cascade_engaged(corpus, nodes, capacity, seed + 1),
    }


def _qps(
    *, items: int, nodes: int, queries: int, skew: float, top_keywords: int,
    amount: Optional[int], window: int, seed: int,
) -> dict:
    """The storm through the read engine query by query, then in windows."""
    trace = _trace(items, 19980724)
    rng = np.random.default_rng(seed)
    system = ex.build_system(trace, nodes, PlacementScheme.UNUSED_HASH, rng=rng)
    publish_all(system, trace, rng)
    origins, storm = ex.qps_storm(trace, system, n_nodes=nodes, queries=queries, skew=skew,
                                  top_keywords=top_keywords, seed=seed)
    cell = dict(amount=amount, patience=max(16, nodes // 20))
    seq = ex.qps_cell(system, origins, storm, window=1, **cell)
    window = max(2, min(window, len(storm)))
    bat = ex.qps_cell(system, origins, storm, window=window, **cell)
    facts = {"window": window}
    for name, out in (("sequential", seq), ("batch", bat)):
        for key, fact in (("qps", "q/s"), ("p50_ms", "p50 ms"), ("p95_ms", "p95 ms"),
                          ("found", "found"), ("messages", "messages")):
            facts[f"{name} {fact}"] = out[key]
    return {**facts, "speedup": seq["elapsed_s"] / bat["elapsed_s"]}


def _lsh(
    *, items: int, nodes: int, queries: int, k: int, bands: int, band_bits: int,
    probe_width: int, seed: int,
) -> dict:
    """Cosine-LSH vs the absolute-angle baseline at equal storage, then
    the multi-probe loop of batches of one vs the storm form."""
    from .experiments.lshfrontier import frontier_pair, frontier_queries
    from .lsh import probe

    trace = _trace(items, 19980724)
    storm, truths = frontier_queries(trace.corpus, queries, k, seed)
    base, banded, system, origins = frontier_pair(
        trace, storm, truths, n_nodes=nodes, k=k, bands=bands, band_bits=band_bits,
        probe_width=probe_width, seed=seed,
    )
    scalar = [probe.multi_probe_retrieve(system, o, q, k) for o, q in zip(origins, storm)]
    batch = probe.multi_probe_retrieve_many(system, origins, storm, k)
    facts = {"queries": len(storm), "visit budget": bands * (1 + probe_width)}
    for name, cell in (("absolute-angle", base), ("cosine-lsh", banded)):
        facts.update({f"{name} recall": cell["recall"],
                      f"{name} msgs/query": cell["messages"], f"{name} stored": cell["stored"]})
    return {
        **facts,
        "scalar == batch items": all(s.item_ids() == r.item_ids() for s, r in zip(scalar, batch)),
        "scalar == batch messages": all(s.messages == r.messages for s, r in zip(scalar, batch)),
        "results holding more than k discoveries": sum(r.found > k for r in scalar + batch),
    }


# -- figure runners without an experiment of their own -----------------------


def _range_query(*, n_nodes: int) -> dict:
    """The paper's "memory between 1G and 8G" query over 2 000 machines."""
    from .core import RangeDirectory

    rng = np.random.default_rng(0)
    system = Meteorograph.build(
        n_nodes, 64, rng=rng, config=MeteorographConfig(scheme=PlacementScheme.NONE)
    )
    ranges = RangeDirectory(system)
    ranges.register_attribute(
        "memory-gb", 0.25, 1024, key_lo=0, key_hi=system.space.modulus, log_scale=True
    )
    origin = system.random_origin(rng)
    values = {}
    for machine in range(2000):
        values[machine] = float(2.0 ** int(rng.integers(-1, 9)))
        ranges.advertise(origin, machine, "memory-gb", values[machine])
    res = ranges.query(origin, "memory-gb", 1, 8)
    expected = {m for m, gb in values.items() if 1 <= gb <= 8}
    return {"matches": len(res.matches), "exact match set": {m for m, _ in res.matches} == expected,
            "walk hops": res.walk_hops, "0.6 × nodes": n_nodes * 0.6}


def _notification(*, n_nodes: int) -> dict:
    """One matching publish against one subscription."""
    from .core import NotificationService
    from .vsm import SparseVector

    rng = np.random.default_rng(1)
    system = Meteorograph.build(
        n_nodes, 64, rng=rng, config=MeteorographConfig(scheme=PlacementScheme.NONE)
    )
    svc = NotificationService(system).attach()
    interest = SparseVector.binary([3, 5], 64)
    svc.subscribe(system.random_origin(rng), interest, require_all=[3, 5], home_radius=4)
    publisher = system.random_origin(rng)
    notes, msgs = len(svc.delivered), system.network.sink.count("notify")
    system.publish(publisher, 0, [3, 5, 7], [1.0, 1.0, 1.0])
    return {"delivered": len(svc.delivered) - notes,
            "notify messages": system.network.sink.count("notify") - msgs}


# -- figure facts that need more than a lookup -------------------------------


def _by(rs: RowSet) -> dict:
    return {row[0]: row for row in rs.rows}


def _fig7(rs):
    schemes = [[r for r in rs.rows if r[0] == s] for s in set(rs.column("scheme"))]
    return {
        "least hop growth, smallest to largest N": min(r[-1][2] - r[0][2] for r in schemes),
        "least slack under 3·log4(N) + 2": min(
            (3 * math.log(r[1], 4) + 2) - r[2] for r in rs.rows
        ),
    }


def _fig10b(rs):
    ks = np.array(rs.column("found"), dtype=float)
    msgs = np.array(rs.column("messages"), dtype=float)
    facts = {"least step in messages": float(np.diff(msgs).min()), "R²": None, "slope": None}
    # Small k sits in the k/c grouping plateau (one fetched node answers
    # with ~c matches), so the fit spans the sweep into the multi-node
    # regime; with fewer than three distinct k it is undefined.
    if len(set(ks)) > 2:
        slope, intercept = np.polyfit(ks, msgs, 1)
        ss_res = float(((msgs - (slope * ks + intercept)) ** 2).sum())
        ss_tot = float(((msgs - msgs.mean()) ** 2).sum())
        facts.update({"R²": 1 - ss_res / max(ss_tot, 1e-9), "slope": float(slope)})
    return facts


def _failures(rs):
    cells = {(r[0], r[1]): r[2] for r in rs.rows}
    return {
        "least slack of k-replica ≤ 2k-replica + 0.05": min(
            cells[(hi, f)] + 0.05 - cells[(lo, f)]
            for f in (10, 50, 90) for lo, hi in ((1, 2), (2, 4), (4, 8))
        ),
        **{f"{k} replicas @{f}%": cells[(k, f)] for k, f in ((2, 50), (4, 50), (8, 50), (8, 90))},
    }


def _row(id, runner, knobs, *preds, derive=None, max_seconds=None) -> Gate:
    return Gate(id, runner, knobs, tuple(Pred(*p) for p in preds), derive, max_seconds)


_HOT = "Unused Hash Space + Hot Regions"

#: Each smoke row's knobs are the values CI has always run it at.
_SMOKE = (
    _row("stats", _stats, dict(experiment="fig7", scale=0.1, seed=7),
         *((c, ">", 0) for c in _STATS_COUNTERS),
         *((f"{t} calls", ">", 0) for t in _STATS_TIMERS)),
    # Seeded 50% batch kill over 10^4 items with incremental repair and
    # retry delivery: availability 0.910 in ~3 s locally. A broken repair
    # engine collapses toward the 1-p^k floor; a full scan per event
    # blows the time bound.
    _row("faults", _faults,
         dict(nodes=300, items=10_000, replicas=4, fraction=0.5, horizon=30.0,
              repair_interval=5.0, queries=200, seed=7),
         ("availability", ">=", 0.85), max_seconds=120),
    # 5% link loss plus one 40% partition split/heal over 10^4 items with
    # retry, repair and anti-entropy; 30% of the corpus publishes
    # mid-split. After quiescence all four invariants must hold and
    # availability clear 0.85 (locally 1.000 in ~2.4 s): catches a plane
    # that leaks accounting, a heal that strands mid-split publishes, a
    # pass that stops converging, or a store write that bypasses the
    # replica ledger (credited <=> stored).
    _row("chaos", _chaos,
         dict(n_nodes=200, items=10_000, replicas=3, drop=0.05, dup=0.0, jitter=0.0,
              split=True, split_fraction=0.4, churn=0.0, horizon=30.0, quiesce=20.0,
              repair_interval=2.0, antientropy_interval=2.0, queries=300, seed=47),
         *((f"invariant {name} holds", "==", True) for name in _INVARIANTS),
         ("availability", ">=", 0.85), max_seconds=120),
    # Zipf(1.2) storm at 10^3 nodes under a policy tight enough to shed
    # (locally 0.3%, recall 0.99, availability 1.0, depth 24 = cap):
    # catches admission that stops bounding the inbox, diversion that
    # stops preserving availability, or shedding that runs away.
    _row("overload", _overload,
         dict(n_nodes=1000, items=6000, queries=400, skew=1.2, top_keywords=12, amount=24,
              service_rate=0.06, queue_cap=24, seed=417),
         ("shed rate", "<=", 0.35), ("availability", ">=", 0.9),
         ("protected max inbox", "<=", "queue cap"), max_seconds=120),
    # The write engine's contracts: chunked keys bit-identical to the
    # whole pass; the corpus publish equal to the same rows in batches of
    # one (placements, displace bill); an observability-on twin shows the
    # cascade placed every item, which fails a silently disabled cascade
    # even though the shared route alone clears the speedup floor. The
    # floor sits well under the local ~6x.
    _row("build", _build, dict(items=4000, nodes=250, chunk_rows=512, seed=19980724),
         ("chunked keys bit-identical", "==", True),
         ("placements match batches of one", "==", True),
         ("displace bill matches batches of one", "==", True),
         ("cascade placed every item", "==", True),
         ("speedup", ">=", 1.5), max_seconds=120),
    # One storm through the read engine query by query (nothing shared)
    # and in windows: identical items and bill. Sharing one walk per
    # (home, content) measures ~45x locally; walking once per (origin,
    # content) group measured 7.6-8.9x, so 12x fails a disabled walk
    # share as well as a disabled route/walk replay (~1x) and leaves a
    # noisy runner a 4x margin.
    _row("qps", _qps,
         dict(items=6000, nodes=400, queries=1000, skew=1.2, top_keywords=8, amount=None,
              window=512, seed=702),
         ("batch found", "==", "sequential found"),
         ("batch messages", "==", "sequential messages"),
         ("speedup", ">=", 12.0), max_seconds=120),
    # One banded corpus: the multi-probe loop and the storm form return
    # identical items and bills, no result holds more than k (the
    # columnar merge's cut), and cosine-LSH recall@k beats the
    # equal-storage baseline (locally 0.457 vs 0.240 at L=4; a broken
    # band layout or probe path collapses the gap).
    _row("lsh", _lsh,
         dict(items=4000, nodes=200, queries=60, k=10, bands=4, band_bits=7, probe_width=2,
              seed=624),
         ("scalar == batch items", "==", True), ("scalar == batch messages", "==", True),
         ("results holding more than k discoveries", "==", 0),
         ("cosine-lsh recall", ">=", "absolute-angle recall"), max_seconds=120),
)

#: Paper figures, §4.3 and the extensions, on the bench trace.
_FIGURES = (
    # Table 1: mean basket near the paper's 43.
    _row("table1", ex.run_table1, dict(trace=TRACE),
         ("first row counts clients", "==", True),
         ("mean basket", ">=", 30), ("mean basket", "<=", 55),
         derive=lambda rs: {
             "first row counts clients": rs.rows[0][0].startswith("Number of clients"),
             "mean basket": float(next(r for r in rs.rows if "Average" in r[0])[1]),
         }),
    # Fig. 6: decreasing and heavy-tailed (the ratio shrinks with the
    # keyword-space cap at bench scale but must stay clearly above 1).
    _row("fig6", ex.run_fig6, dict(trace=TRACE, points=15),
         ("sizes decreasing", "==", True), ("heavy-tail ratio", ">=", 4),
         derive=lambda rs: {
             "sizes decreasing": rs.column("objects accessed")
             == sorted(rs.column("objects accessed"), reverse=True),
             "heavy-tail ratio": rs.notes["heavy_tail_ratio"],
         }),
    # Fig. 3: ~85% of items in a few percent of the hash space.
    _row("fig3", ex.run_fig3, dict(trace=TRACE),
         ("85% span", "<", 0.06), ("keys sorted", "==", True),
         derive=lambda rs: {"85% span": rs.notes["space_fraction_for_85pct"],
                            "keys sorted": rs.column("key") == sorted(rs.column("key"))}),
    # Fig. 4: Eq. 6 widens Fig. 3's 85% span by an order of magnitude,
    # and the CDF is near-linear.
    _row("fig4", lambda trace: (ex.run_fig4(trace), ex.run_fig3(trace)), dict(trace=TRACE),
         ("85% span", ">", "10 × raw 85% span"), ("max CDF deviation from linear", "<", 0.2),
         derive=lambda bal, raw: {
             "85% span": bal.notes["space_fraction_for_85pct"],
             "10 × raw 85% span": 10 * raw.notes["space_fraction_for_85pct"],
             "max CDF deviation from linear": bal.notes["max_cdf_deviation_from_linear"],
         }),
    # Fig. 7: O(log N) hops for every scheme, growing with N.
    _row("fig7", ex.run_fig7, dict(trace=TRACE, node_counts=(125, 250, 500, 1000), queries=250),
         ("least hop growth, smallest to largest N", ">=", 0),
         ("least slack under 3·log4(N) + 2", ">=", 0), derive=_fig7),
    # Fig. 8 (paper: 75% / 98.7% of nodes within 2c / 8c; "None" piles
    # most items on a handful of nodes).
    _row("fig8", ex.run_fig8, dict(trace=TRACE, n_nodes=NODES),
         ("optimized ≤2c", ">=", 0.6), ("optimized ≤8c", ">=", 0.95),
         ("None max load/c", ">=", "10 × optimized max load/c"),
         derive=lambda rs: {
             "optimized ≤2c": _by(rs)[_HOT][3], "optimized ≤8c": _by(rs)[_HOT][5],
             "None max load/c": _by(rs)["None"][-1],
             "10 × optimized max load/c": 10 * _by(rs)[_HOT][-1],
         }),
    # Fig. 9 at 8c: balanced, the walk barely adds to the route; without
    # balancing the walk dominates.
    _row("fig9", ex.run_fig9, dict(trace=TRACE, n_nodes=NODES, queries=250),
         ("optimized walk overhead hops", "<", 2.0), ("optimized home hit rate", ">", 0.5),
         ("None total hops", ">", "3 × None closest hops"),
         ("None total hops", ">", "3 × optimized total hops"),
         derive=lambda rs: {
             "optimized walk overhead hops": _by(rs)[_HOT][2] - _by(rs)[_HOT][1],
             "optimized home hit rate": _by(rs)[_HOT][4],
             "None total hops": _by(rs)["None"][2],
             "3 × None closest hops": 3 * _by(rs)["None"][1],
             "3 × optimized total hops": 3 * _by(rs)[_HOT][2],
         }),
    # Fig. 10(a): complete discovery; p97 within ~3×(2·log4 N) plus slack.
    _row("fig10a", ex.run_fig10a, dict(trace=TRACE, n_nodes=NODES, ranks=(1, 2, 4, 8)),
         ("least recall", ">=", 0.95), ("largest p97 hops", "<=", "6·log4(N) + 8"),
         derive=lambda rs: {
             "least recall": min(r[3] for r in rs.rows),
             "largest p97 hops": max(r[5] for r in rs.rows),
             "6·log4(N) + 8": 6 * math.log(rs.notes["N"], 4) + 8,
         }),
    # Fig. 10(b): messages grow linearly in k.
    _row("fig10b", ex.run_fig10b,
         dict(trace=TRACE, n_nodes=NODES, k_values=(8, 32, 64, 128, 256)),
         ("least step in messages", ">=", 0), ("R²", ">", 0.8), ("slope", ">", 0),
         derive=_fig10b),
    # §4.3: monotone in replicas; the paper's 50%-failure targets with
    # simulation slack; usable even at 90% failures.
    _row("failures", ex.run_failures,
         dict(trace=TRACE, n_nodes=NODES, replica_counts=(1, 2, 4, 8),
              fail_fractions=(0.1, 0.5, 0.9), queries=200),
         ("least slack of k-replica ≤ 2k-replica + 0.05", ">=", 0),
         ("2 replicas @50%", ">=", 0.65), ("4 replicas @50%", ">=", 0.85),
         ("8 replicas @50%", ">=", 0.95), ("8 replicas @90%", ">=", 0.25),
         derive=_failures),
    # Footnotes 1–2: an idealised early-stop flood can win at tiny k by
    # luck; from k = 16 Meteorograph wins, and decisively against N−1.
    _row("crossover", ex.run_crossover, dict(trace=TRACE, n_nodes=NODES, k_values=(4, 16, 64)),
         ("least slack of 5 × meteorograph < N−1", ">", 0),
         ("least slack of meteorograph < flood, k ≥ 16", ">", 0),
         derive=lambda rs: {
             "least slack of 5 × meteorograph < N−1": min(r[5] - r[1] * 5 for r in rs.rows),
             "least slack of meteorograph < flood, k ≥ 16": min(
                 r[2] - r[1] for r in rs.rows if r[0] >= 16
             ),
         }),
    # §6 portability: same recall, routing within 3× (same asymptotics).
    _row("overlays", ex.run_overlay_ablation, dict(trace=TRACE, n_nodes=300, queries=150),
         ("overlays are tornado and chord", "==", True), ("least recall", ">", 0.8),
         ("more hops", "<=", "3 × fewer hops"),
         derive=lambda rs: {
             "overlays are tornado and chord": set(_by(rs)) == {"tornado", "chord"},
             "least recall": min(r[2] for r in rs.rows),
             "more hops": max(_by(rs)["tornado"][1], _by(rs)["chord"][1]),
             "3 × fewer hops": 3 * min(_by(rs)["tornado"][1], _by(rs)["chord"][1]),
         }),
    # Design ablations: a wider radix routes in fewer hops, the angle
    # proxy matches exact cosine on recall, every variant stays correct.
    _row("ablation", ex.run_design_ablation, dict(trace=TRACE, n_nodes=250, queries=120),
         ("16-way tree hops", "<", "baseline hops"),
         ("|cosine − angle replacement recall|", "<", 0.1), ("least recall", ">", 0.8),
         derive=lambda rs: {
             "16-way tree hops": _by(rs)["digit_bits=4 (16-way tree)"][1],
             "baseline hops": _by(rs)["baseline (b=2, leaf=4, angle policy)"][1],
             "|cosine − angle replacement recall|": abs(
                 _by(rs)["cosine replacement"][2] - _by(rs)["angle replacement"][2]
             ),
             "least recall": min(r[2] for r in rs.rows),
         }),
    # Walk mode at a tight patience is where §3.5.1 earns its keep.
    _row("firsthop", ex.run_firsthop_ablation, dict(trace=TRACE, n_nodes=250),
         ("rows", "==", 8),
         ("walk rank 1, first-hop on", ">=", "walk rank 1, first-hop off"),
         ("walk rank 4, first-hop on", ">=", "walk rank 4, first-hop off"),
         derive=lambda rs: {
             "rows": len(rs.rows),
             **{f"walk rank {r[2]}, first-hop {r[1]}": r[3] for r in rs.rows if r[0] == "walk"},
         }),
    # §1 self-administration: 2 bootstrap messages plus a route.
    _row("joincost", ex.run_join_cost, dict(trace=TRACE, node_counts=(64, 256, 1024)),
         ("least slack under 2 + 1.5·log4(N) + 1", ">=", 0), ("cost monotone in N", "==", True),
         derive=lambda rs: {
             "least slack under 2 + 1.5·log4(N) + 1": min(
                 (2 + 1.5 * log4n + 1) - cost for _, cost, _, log4n in rs.rows
             ),
             "cost monotone in N": rs.column("mean join msgs (last half)")
             == sorted(rs.column("mean join msgs (last half)")),
         }),
    # ≥25% mean-stretch improvement, hops within 30%.
    _row("proximity", ex.run_proximity, dict(n_nodes=500, queries=300),
         ("proximity-aware stretch", "<=", "0.75 × prefix-first stretch"),
         ("proximity-aware hops", "<=", "1.3 × prefix-first hops"),
         derive=lambda rs: {
             "proximity-aware stretch": _by(rs)["proximity-aware"][2],
             "0.75 × prefix-first stretch": 0.75 * _by(rs)["prefix-first"][2],
             "proximity-aware hops": _by(rs)["proximity-aware"][1],
             "1.3 × prefix-first hops": 1.3 * _by(rs)["prefix-first"][1],
         }),
    # Pointer mode concentrates query handling on the pointer band.
    _row("queryload", ex.run_query_load,
         dict(trace=TRACE, n_nodes=NODES, keyword_queries=40, item_queries=80),
         ("pointer top-1% share", ">=", "walk top-1% share − 0.05"), ("largest gini", "<=", 1.0),
         derive=lambda rs: {
             "pointer top-1% share": _by(rs)["pointers"][2],
             "walk top-1% share − 0.05": _by(rs)["walk"][2] - 0.05,
             "largest gini": max(r[1] for r in rs.rows),
         }),
    # Republishing never hurts availability; traffic is ordered by frequency.
    _row("softstate", ex.run_softstate,
         dict(trace=TRACE, n_nodes=250, n_items=300, replicas=2, depart_rate=1.5,
              horizon=50.0, republish_intervals=(5.0, 15.0, 1e9), queries=120),
         ("availability, republish every 5", ">=", "availability, republish off − 0.02"),
         ("messages, every 5", ">", "messages, every 15"),
         ("messages, every 15", ">", "messages, off"),
         derive=lambda rs: {
             "availability, republish every 5": _by(rs)["5"][1],
             "availability, republish off − 0.02": _by(rs)["off"][1] - 0.02,
             "messages, every 5": _by(rs)["5"][2],
             "messages, every 15": _by(rs)["15"][2],
             "messages, off": _by(rs)["off"][2],
         }),
    # Load tracks Pareto capacity; capacity is never exceeded.
    _row("heterogeneous", ex.run_heterogeneous,
         dict(trace=TRACE, n_nodes=300, capacity_multiple=2.0),
         ("pareto load-capacity corr", ">", 0.5), ("largest p99 utilisation", "<=", 1.0 + 1e-9),
         derive=lambda rs: {"pareto load-capacity corr": _by(rs)["pareto"][1],
                            "largest p99 utilisation": max(r[3] for r in rs.rows)}),
    # Full recall at every conjunction size; cost shrinks with the
    # matching set, not with query complexity.
    _row("conjunctions", ex.run_conjunctions,
         dict(trace=TRACE, n_nodes=300, sizes=(1, 2, 4), queries_per_size=6),
         ("least recall", ">=", 0.9),
         ("matching items, 1 keyword", ">", "matching items, most keywords"),
         ("messages, 1 keyword", ">", "messages, most keywords"),
         derive=lambda rs: {
             "least recall": min(r[1] for r in rs.rows),
             "matching items, 1 keyword": rs.column("mean matching items")[0],
             "matching items, most keywords": rs.column("mean matching items")[-1],
             "messages, 1 keyword": rs.column("mean messages")[0],
             "messages, most keywords": rs.column("mean messages")[-1],
         }),
    # Range search: the exact match set, a span-proportional walk.
    _row("range", _range_query, dict(n_nodes=NODES),
         ("exact match set", "==", True), ("walk hops", "<", "0.6 × nodes")),
    # Notification: one message per matching subscriber, no broadcast.
    _row("notify", _notification, dict(n_nodes=NODES),
         ("delivered", ">=", 1), ("notify messages", "==", "delivered")),
    # Greedy prefix routing with leaf-set shortcuts beats the
    # log_{2^b} N model; it must never exceed ~1.5× of it.
    _row("model-routing", ex.run_fig7,
         dict(trace=TRACE, node_counts=(256, 1024), queries=200,
              schemes=(PlacementScheme.UNUSED_HASH_HOT,)),
         ("least slack under 1.5 × log4(N) model", ">=", 0),
         derive=lambda rs: {"least slack under 1.5 × log4(N) model": min(
             1.5 * analysis.expected_route_hops(n, digit_bits=2) - hops
             for _, n, hops, _, _ in rs.rows
         )}),
    # §4.3 availability against the 1 − p^k model.
    _row("model-availability", ex.run_failures,
         dict(trace=TRACE, n_nodes=300, replica_counts=(2, 4), fail_fractions=(0.3, 0.7),
              queries=200),
         ("bound column is 1 − p^k", "==", True), ("largest |measured − 1 + p^k|", "<", 0.15),
         derive=lambda rs: {
             "bound column is 1 − p^k": all(
                 bound == round(analysis.availability(f / 100, k), 3) for k, f, _, bound in rs.rows
             ),
             "largest |measured − 1 + p^k|": max(
                 abs(m - analysis.availability(f / 100, k)) for k, f, m, _ in rs.rows
             ),
         }),
    # Availability stays high while departures mount under §3.6 repair.
    _row("churn", ex.run_churn,
         dict(trace=TRACE, n_nodes=300, replicas=4, depart_rate=2.0, repair_interval=8.0,
              horizon=60.0, sample_every=20.0, queries_per_sample=100),
         ("final availability", ">=", 0.85), ("final departed %", ">=", 20),
         derive=lambda rs: {"final availability": rs.rows[-1][2],
                            "final departed %": rs.rows[-1][1]}),
)

GATES: dict[str, Gate] = {g.id: g for g in _SMOKE + _FIGURES}
