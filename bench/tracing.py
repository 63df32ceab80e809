"""Span tracing from outside the program, for the ``--trace 1`` run.

The tracer wraps the public callables of each layer (this repo's
modules) — class attributes in place, module-level functions in every
``repro`` module that bound them by name (``from .search import
retrieve`` binds a copy) — and records one span per call in memory:
``(layer, name, start, end, parent, op)``.  Spans of one request share
the ``op`` of their root span.  A span's *self time* is its duration
minus the time its direct children cover; a layer's self time is the sum
over its spans, so nesting inside the same layer is not double-counted.

Counts are taken at the same boundaries (the ``count`` hook of a target
sees the call's arguments and result), so ratios such as
``index.hit_ratio`` are measured where the work happens.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array
from collections import defaultdict
from statistics import median

import numpy as np

__all__ = ["Tracer", "targets", "layer_metrics", "per_layer_units", "LAYERS"]

#: The repo's layers, in the order the README lists them.  ``facade`` is
#: ``core.meteorograph`` itself (key batching, StoredItem construction,
#: dispatch) — without it that time would sit in ``unattributed``.
LAYERS = (
    "facade", "naming", "lsh", "overlay", "publish", "cascade", "index",
    "search", "search_batch", "network", "replication", "maint", "sim",
)
#: Spans of the benchmark's own code; counted as unattributed.
HARNESS = "harness"
_MARK = "__bench_original__"


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.enabled = False
        #: name id -> (layer, name); aggregates are indexed the same way.
        self.names: list = []
        self.calls: list = []
        self.self_s: list = []
        self.total_s: list = []
        self.counters: defaultdict = defaultdict(float)
        # Span columns (compact and invisible to the cyclic GC).
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self._stack: list = []  # frames: [span index, seconds covered by children]
        self._patches: list = []  # (owner, attribute, original)

    # -- recording ----------------------------------------------------------

    def name_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self.names:
            self.names.append(key)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return self.names.index(key)

    def wrap(self, fn, layer: str, name: str, count=None):
        """``fn`` recorded as a ``layer`` span named ``name``; ``count(c,
        args, kwargs, result)`` may add to the counters after a call that
        returned."""
        nid = self.name_id(layer, name)
        clock, stack, counters = self.clock, self._stack, self.counters
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(names)
            parent = stack[-1][0] if stack else -1
            names.append(nid)
            parents.append(parent)
            ops.append(ops[parent] if parent >= 0 else idx)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                calls[nid] += 1
                total_s[nid] += dur
                self_s[nid] += dur - frame[1]
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self, target_list) -> None:
        for layer, owner, attr, count in target_list:
            if isinstance(owner, types.ModuleType):
                original = getattr(owner, attr)
                wrapper = self.wrap(original, layer, attr, count)
                for mod in _repro_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)
            else:
                original = owner.__dict__[attr]
                wrapper = self.wrap(original, layer, f"{owner.__name__}.{attr}", count)
                self._patch(owner, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        # A module first imported while the wrappers were in place bound
        # a wrapper by name; give it the original too.
        for mod in _repro_modules():
            for key, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and hasattr(value, _MARK):
                    setattr(mod, key, getattr(value, _MARK))

    # -- reading ------------------------------------------------------------

    def layer_total(self, column: list, layer: str) -> float:
        return sum(v for (lay, _), v in zip(self.names, column) if lay == layer)

    def named(self, column: list, name: str) -> float:
        return sum(v for (_, n), v in zip(self.names, column) if n == name)

    def nested_calls(self, child: str, parent: str) -> int:
        """Spans named ``child`` whose direct parent span is named ``parent``."""
        if not len(self.span_name):
            return 0
        name = np.frombuffer(self.span_name, dtype=np.int_)
        par = np.frombuffer(self.span_parent, dtype=np.int_)
        child_ids = [i for i, (_, n) in enumerate(self.names) if n == child]
        parent_ids = [i for i, (_, n) in enumerate(self.names) if n == parent]
        is_child = np.isin(name, child_ids) & (par >= 0)
        return int(np.count_nonzero(np.isin(name[par[is_child]], parent_ids)))

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, nid in enumerate(self.span_name):
                layer, name = self.names[nid]
                fh.write(json.dumps({
                    "layer": layer, "name": name, "start": self.span_start[i],
                    "end": self.span_end[i], "parent": self.span_parent[i],
                    "op": self.span_op[i],
                }) + "\n")


def _repro_modules():
    return [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "repro" or n.startswith("repro."))
    ]


# -- what is wrapped --------------------------------------------------------


def _add(key: str, value=lambda a, r: 1):
    def count(c, args, kwargs, result) -> None:
        c[key] += value(args, result)
    return count


def _all(*counts):
    def count(c, args, kwargs, result) -> None:
        for fn in counts:
            fn(c, args, kwargs, result)
    return count


def _storm_groups(args, result) -> int:
    _, origin, queries = args[:3]
    origins = [origin] * len(queries) if isinstance(origin, (int, np.integer)) else origin
    return len({(o, q.indices.tobytes(), q.values.tobytes()) for o, q in zip(origins, queries)})


def targets() -> list:
    """``(layer, owner, attribute, count hook)`` for every wrapped callable."""
    from repro.core import cascade, publish, search, search_batch
    from repro.core.meteorograph import Meteorograph
    from repro.core.replication import ReplicationManager
    from repro.lsh import probe
    from repro.lsh.bands import CosineLshScheme
    from repro.maint import retry
    from repro.maint.antientropy import AntiEntropyEngine
    from repro.maint.repair import RepairEngine
    from repro.overlay.base import Overlay
    from repro.overlay.tornado import TornadoOverlay
    from repro.sim.engine import Simulator
    from repro.sim.linkfaults import LinkFaultPlane
    from repro.sim.network import Network
    from repro.vsm.index import LocalVsmIndex

    from .workloads import HostileMix

    visited = _all(
        _add("search.queries"),
        _add("search.visited", lambda a, r: len(r.visited)),
        _add("search.useful", lambda a, r: r.reply_messages),
        _add("search.discoveries", lambda a, r: len(r.discoveries)),
    )
    probed = _all(
        _add("lsh.queries"), _add("lsh.probes", lambda a, r: len(r.visited))
    )
    return [
        ("facade", Meteorograph, "publish_corpus", None),
        ("facade", Meteorograph, "publish", None),
        ("facade", Meteorograph, "retrieve", None),
        ("facade", Meteorograph, "retrieve_many", None),
        ("facade", Meteorograph, "find", None),
        ("naming", Meteorograph, "corpus_keys_multi", _add("naming.items", lambda a, r: a[1].n_items)),
        ("naming", Meteorograph, "query_key", _add("naming.items")),
        ("naming", Meteorograph, "item_keys", _add("naming.items")),
        ("lsh", CosineLshScheme, "corpus_to_keys", None),
        ("lsh", CosineLshScheme, "probe_keys_for", None),
        ("lsh", probe, "multi_probe_retrieve", probed),
        ("lsh", probe, "multi_probe_retrieve_many", _all(
            _add("lsh.queries", lambda a, r: len(r)),
            _add("lsh.probes", lambda a, r: sum(len(x.visited) for x in r)),
        )),
        ("overlay", TornadoOverlay, "route", _all(
            _add("overlay.routes"), _add("overlay.hops", lambda a, r: r.hops),
        )),
        ("overlay", Overlay, "live_home", None),
        ("overlay", Overlay, "walk_order", None),
        ("overlay", TornadoOverlay, "leaf_set", None),
        ("overlay", TornadoOverlay, "stabilize", None),
        ("publish", publish, "batch_publish", _add("publish.items", lambda a, r: len(r))),
        ("publish", publish, "publish_item", _all(
            _add("publish.items"), _add("publish.sequential"),
        )),
        ("cascade", cascade, "cascade_placement", None),
        ("index", LocalVsmIndex, "add", _add("index.added")),
        ("index", LocalVsmIndex, "add_many", _add("index.added", lambda a, r: len(a[1]))),
        ("index", LocalVsmIndex, "remove", None),
        ("index", LocalVsmIndex, "remove_many", None),
        ("index", LocalVsmIndex, "query", _all(
            _add("index.queries"), _add("index.hits", lambda a, r: bool(r)),
        )),
        ("index", LocalVsmIndex, "query_many", _all(
            _add("index.queries", lambda a, r: len(r)),
            _add("index.hits", lambda a, r: sum(1 for x in r if x)),
        )),
        ("index", LocalVsmIndex, "score_many", None),
        ("search", search, "retrieve", visited),
        ("search", search, "retrieve_with_pointers", visited),
        ("search", search, "find_item", _all(
            _add("search.queries"),
            _add("search.visited", lambda a, r: r.total_hops - r.closest_hops + 1),
            _add("search.useful", lambda a, r: r.found),
        )),
        ("search_batch", search_batch, "retrieve_many", _all(
            _add("search_batch.queries", lambda a, r: len(r)),
            _add("search_batch.groups", _storm_groups),
        )),
        ("network", Network, "send", None),
        ("network", Network, "try_send", None),
        ("network", Network, "send_after", None),
        ("network", Network, "charge_bulk", None),
        ("replication", ReplicationManager, "replicate", _add("replication.copies", lambda a, r: r)),
        ("replication", ReplicationManager, "repair", None),
        ("replication", ReplicationManager, "repair_record", _all(
            _add("replication.copies", lambda a, r: r[0]), _add("maint.dirty"),
        )),
        ("maint", RepairEngine, "tick", None),
        ("maint", AntiEntropyEngine, "tick", _add("maint.replaced", lambda a, r: r)),
        ("maint", retry, "route_with_retry", None),
        ("sim", Simulator, "run", None),
        ("sim", Simulator, "step", _add("sim.events", lambda a, r: bool(r))),
        ("sim", LinkFaultPlane, "sync_send", _add("sim.sync_delivered")),
        ("sim", LinkFaultPlane, "async_verdict", _add("sim.async_dropped", lambda a, r: not r[0])),
        (HARNESS, HostileMix, "probe", None),
    ]


# -- per-layer metrics ------------------------------------------------------

_EXTRA_UNITS = {
    "naming.items_per_s": "items/s",
    "lsh.probes_per_query": "count",
    "lsh.discoveries_per_probe": "count",
    "lsh.merge_self_s": "s",
    "overlay.hops_per_route": "hops",
    "overlay.us_per_hop": "us",
    "overlay.stabilize_self_s": "s",
    "publish.us_per_item": "us",
    "publish.sequential_share": "ratio",
    "cascade.spills": "count",
    "cascade.us_per_spill": "us",
    "index.add_us_per_item": "us",
    "index.query_us_per_call": "us",
    "index.hit_ratio": "ratio",
    "search.nodes_per_query": "count",
    "search.useful_visit_ratio": "ratio",
    "search_batch.groups_per_query": "ratio",
    "search_batch.fallback_share": "ratio",
    "network.sends": "count",
    "network.us_per_send": "us",
    "network.host_us_per_msg": "us",
    "replication.copies_placed": "count",
    "maint.repair_ticks": "count",
    "maint.repair_us_per_dirty": "us",
    "maint.retry_attempts_per_route": "ratio",
    "maint.replaced": "count",
    "sim.events": "count",
    "sim.us_per_event": "us",
    "sim.dropped_share": "ratio",
    "obs.overhead_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "unattributed.share": "ratio",
    "workload.op_tail_ms": "ms",
    "workload.op_tail_pct": "%",
    "workload.msgs_per_publish": "msgs",
    "workload.msgs_per_query": "msgs",
    "workload.recall_at_10": "ratio",
    "workload.availability": "ratio",
    "workload.failed_op_share": "ratio",
}


def per_layer_units() -> dict:
    """Every per-layer metric name -> unit, in reporting order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    units.update(_EXTRA_UNITS)
    return units


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def tail_latency_ms(latencies_s) -> tuple:
    """The highest percentile with at least ten samples beyond it."""
    n = len(latencies_s)
    pct = 99 if n >= 1000 else 90 if n >= 100 else 50
    return float(np.percentile(latencies_s, pct)) * 1e3, pct


def layer_metrics(tracer: Tracer, workload, traced, untraced, obs_on, verdict) -> dict:
    """The per-layer table of one workload.

    ``traced`` / ``untraced`` / ``obs_on`` are the repeats of the three
    measurement passes; counts and self times are reported per repeat
    (every repeat does identical simulated work)."""
    n = len(traced)
    c = tracer.counters
    traced_wall = sum(r.wall_s for r in traced)
    untraced_wall = median(r.wall_s for r in untraced)
    sink = traced[0].sink
    out = {}
    attributed = 0.0
    for layer in LAYERS:
        self_s = tracer.layer_total(tracer.self_s, layer)
        attributed += self_s
        out[f"{layer}.calls"] = tracer.layer_total(tracer.calls, layer) / n
        out[f"{layer}.self_s"] = self_s / n
        out[f"{layer}.share"] = _div(self_s, traced_wall)

    def self_of(*names: str) -> float:
        return sum(tracer.named(tracer.self_s, nm) for nm in names)

    def calls_of(*names: str) -> float:
        return sum(tracer.named(tracer.calls, nm) for nm in names)

    def layer_self(layer: str) -> float:
        return tracer.layer_total(tracer.self_s, layer)

    out["naming.items_per_s"] = _div(c["naming.items"], layer_self("naming"))
    out["lsh.probes_per_query"] = _div(c["lsh.probes"], c["lsh.queries"])
    # Under LSH naming every scalar retrieve is one band's probe.
    out["lsh.discoveries_per_probe"] = (
        _div(c["search.discoveries"], c["search.visited"]) if c["lsh.queries"] else 0.0
    )
    out["lsh.merge_self_s"] = self_of("multi_probe_retrieve", "multi_probe_retrieve_many") / n
    out["overlay.hops_per_route"] = _div(c["overlay.hops"], c["overlay.routes"])
    out["overlay.us_per_hop"] = _div(self_of("TornadoOverlay.route") * 1e6, c["overlay.hops"])
    out["overlay.stabilize_self_s"] = self_of("TornadoOverlay.stabilize") / n
    out["publish.us_per_item"] = _div(layer_self("publish") * 1e6, c["publish.items"])
    out["publish.sequential_share"] = _div(c["publish.sequential"], c["publish.items"])
    out["cascade.spills"] = float(sink.get("displace", 0))
    out["cascade.us_per_spill"] = _div(layer_self("cascade") * 1e6, sink.get("displace", 0) * n)
    out["index.add_us_per_item"] = _div(
        self_of("LocalVsmIndex.add", "LocalVsmIndex.add_many") * 1e6, c["index.added"]
    )
    out["index.query_us_per_call"] = _div(
        self_of("LocalVsmIndex.query", "LocalVsmIndex.query_many") * 1e6,
        calls_of("LocalVsmIndex.query", "LocalVsmIndex.query_many"),
    )
    out["index.hit_ratio"] = _div(c["index.hits"], c["index.queries"])
    out["search.nodes_per_query"] = _div(c["search.visited"], c["search.queries"])
    out["search.useful_visit_ratio"] = _div(c["search.useful"], c["search.visited"])
    out["search_batch.groups_per_query"] = _div(c["search_batch.groups"], c["search_batch.queries"])
    out["search_batch.fallback_share"] = _div(
        tracer.nested_calls("retrieve", "retrieve_many")
        + tracer.nested_calls("retrieve_with_pointers", "retrieve_many"),
        c["search_batch.queries"],
    )
    sends = calls_of("Network.send", "Network.send_after")
    out["network.sends"] = sends / n
    out["network.us_per_send"] = _div(layer_self("network") * 1e6, sends)
    out["network.host_us_per_msg"] = _div(untraced_wall * 1e6, sum(sink.values()))
    out["replication.copies_placed"] = c["replication.copies"] / n
    out["maint.repair_ticks"] = calls_of("RepairEngine.tick") / n
    out["maint.repair_us_per_dirty"] = _div(
        tracer.named(tracer.total_s, "RepairEngine.tick") * 1e6, c["maint.dirty"]
    )
    out["maint.retry_attempts_per_route"] = _div(
        tracer.nested_calls("TornadoOverlay.route", "route_with_retry"),
        calls_of("route_with_retry"),
    )
    out["maint.replaced"] = c["maint.replaced"] / n
    out["sim.events"] = c["sim.events"] / n
    out["sim.us_per_event"] = _div(
        self_of("Simulator.run", "Simulator.step") * 1e6, c["sim.events"]
    )
    sync_calls = calls_of("LinkFaultPlane.sync_send")
    out["sim.dropped_share"] = _div(
        sync_calls - c["sim.sync_delivered"] + c["sim.async_dropped"],
        sync_calls + calls_of("LinkFaultPlane.async_verdict"),
    )
    out["obs.overhead_ratio"] = median(r.wall_s for r in obs_on) / untraced_wall
    out["trace.overhead_ratio"] = (traced_wall / n) / untraced_wall
    out["unattributed.share"] = 1.0 - _div(attributed, traced_wall)
    tail_ms, pct = tail_latency_ms([s for r in untraced for s in r.latencies_s])
    out["workload.op_tail_ms"] = tail_ms
    out["workload.op_tail_pct"] = float(pct)
    published = c["publish.items"] / n
    out["workload.msgs_per_publish"] = _div(
        sum(sink.get(k, 0) for k in ("publish", "displace", "replicate")), published
    )
    queried = traced[0].ops if workload.ops_are_queries else 0
    out["workload.msgs_per_query"] = _div(traced[0].msgs, queried)
    out["workload.recall_at_10"] = verdict.extra.get("recall_at_10", 0.0)
    out["workload.availability"] = verdict.extra.get("availability", 0.0)
    out["workload.failed_op_share"] = verdict.failed / verdict.attempted
    units = per_layer_units()
    assert out.keys() == units.keys()
    return {name: {"value": float(out[name]), "unit": units[name]} for name in units}
