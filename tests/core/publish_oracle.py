"""``oracle_publish``: the reference semantics of ``publish_corpus``.

The engine behind ``Meteorograph.publish_corpus``
(:func:`repro.core.publish.run`) shares one route and one ring sweep
across a batch and replays displacement chains in the cascade engine.
This is what it must equal: each row's L items in list order, every one
through the Fig. 2 protocol on its own.

* ``sweep=False`` (the default) is the unshared loop: each row is
  published from its own random live origin (one ``size=n`` draw), its
  items routed and placed by ``publish_row``.
* ``sweep=True`` shares the route the way the engine does — one scalar
  origin draw, one route to the smallest key's home, then one clockwise
  step per live node from where the route landed until the last home is
  reached — and then runs each item's chain at its live home with
  ``run_displacement_chain``, one item at a time, a republished row
  superseding and withdrawing as ``publish_row`` does.  It is the reference
  wherever per-item routes would not reach the live homes (a lossy
  plane stalls them), and it sends the engine's messages in the
  engine's order, so a fault plane's verdicts line up.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.publish import publish_row, run_displacement_chain
from repro.overload.admission import BackpressureError
from repro.sim.linkfaults import MessageLossError
from repro.sim.node import StoredItem


def oracle_publish(system, corpus, rng, *, item_ids=None, origin=None, sweep=False):
    angle_keys, key_mat = system.corpus_keys_multi(corpus)
    n, n_keys = key_mat.shape
    ids = np.arange(n) if item_ids is None else np.asarray(item_ids, dtype=np.int64)
    network = system.network
    live = [nid for nid in system.overlay.ring if network.is_alive(nid)]
    items = [
        StoredItem(
            item_id=int(ids[i]),
            publish_key=int(pk),
            angle_key=int(angle_keys[i]),
            keyword_ids=kw,
            weights=np.asarray(w, dtype=np.float64),
        )
        for i, kw, w in corpus.row_slices()
        for pk in key_mat[i]
    ]
    if n_keys > 1:
        network.obs.metrics.counter("lsh.publish.items", n)
        network.obs.metrics.counter("lsh.publish.copies", n * n_keys)
    if sweep:
        if origin is None:
            origin = live[int(rng.integers(0, len(live)))]
        results = _swept(system, live, origin, items, n_keys)
    else:
        if origin is None:
            origins = [live[int(d)] for d in rng.integers(0, len(live), size=n)]
        else:
            origins = [origin] * n
        results = []
        for i in range(n):
            results += publish_row(system, origins[i], items[i * n_keys:(i + 1) * n_keys])
    system.replication.register(ids, angle_keys, key_mat)
    return results[::n_keys]


def _swept(system, live, origin, items, n_keys):
    network = system.network
    config = system.config
    first_key = min(it.publish_key for it in items)
    try:
        route = system.deliver_home(origin, first_key, kind="publish")
        start, start_hops = route.home, route.hops
    except BackpressureError:
        start, start_hops = system.overlay.live_home(first_key), 0
    m = len(live)
    at = live.index(start)
    homes = [system.overlay.live_home(it.publish_key) for it in items]
    # Key order walks the homes clockwise from the first one, a lap at
    # most; the sweep takes them from the landing node on, then wraps
    # round to the ones the route overshot.
    by_key = sorted(range(len(items)), key=lambda k: items[k].publish_key)
    landed = (at - live.index(homes[by_key[0]])) % m  # steps past the first home
    offset = [0] * len(items)
    lap = 0
    for prev, k in zip([by_key[0], *by_key], by_key):
        lap += (live.index(homes[k]) - live.index(homes[prev])) % m
        offset[k] = lap - landed if lap >= landed else lap - landed + m
    route_hops = [0] * len(items)
    reached = 0
    delivery = sorted(by_key, key=lambda k: offset[k])
    for k in delivery:
        route_hops[k] = offset[k] - reached
        reached = offset[k]
    route_hops[delivery[0]] += start_hops
    for step in range(reached):
        try:
            network.send(live[(at + step) % m], live[(at + step + 1) % m], kind="publish")
        except (BackpressureError, MessageLossError):
            pass
    ledger = system.replication
    results = []
    for k, (item, home, hops) in enumerate(zip(items, homes, route_hops)):
        if k % n_keys == 0:
            prior = ledger.supersede(item.item_id) if item.item_id in ledger.holders else None
        res = run_displacement_chain(
            system, home, item,
            hop_budget=config.hop_budget, policy=config.replacement_policy,
        )
        res.route_hops = hops
        results.append(res)
        if k % n_keys == n_keys - 1 and prior is not None:
            ledger.withdraw(item.item_id, *prior, src=results[k - n_keys + 1].home)
    return results


def dot_norms(corpus):
    """Each corpus row's norm as the scalar store computes it,
    ``sqrt(w·w)``, by row: what the unshared loop indexes."""
    return [float(np.sqrt(w.dot(w))) for _, _, w in corpus.row_slices()]


def stored_rows(system, norms=None):
    """node id → ({item id → stored row}, angle ladder) for every
    non-empty node, where a row is what the store holds of a copy:
    publish key, angle key, keyword ids, weights (as bytes),
    ``replica_of`` and payload.

    The indexed norm is checked, not returned: the engine indexes
    ``Corpus.norms`` and the scalar store ``sqrt(w·w)``, which DESIGN.md
    ("Columnar node state") lets differ in the last ulp.  Every norm must
    agree with its own stored weights to that tolerance, and with
    ``norms[item id]`` bit for bit when ``norms`` is given.
    """
    out = {}
    for node in system.network.nodes():
        index = node.index
        if index is None or not len(index):
            continue
        rows = {}
        for item_id in sorted(node.item_ids()):
            item = index.item(item_id)
            norm = index.norm_of(item_id)
            w = item.weights
            assert norm == pytest.approx(float(np.sqrt(w.dot(w))), rel=1e-12, abs=1e-15)
            if norms is not None:
                assert norm == norms[item_id], (node.node_id, item_id)
            rows[item_id] = (
                item.publish_key,
                item.angle_key,
                item.keyword_ids.tolist(),
                w.tobytes(),
                item.replica_of,
                item.payload,
            )
        out[node.node_id] = (rows, list(index.angle_ladder()))
    return out
