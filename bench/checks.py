"""Output verification, run outside every timer.

Each ``check_*`` returns a :class:`Verdict`: operations attempted and
failed (a failed, refused, dropped or raised operation counts as failed),
the workload's result quality, and ``problems`` — broken checks, any of
which makes the whole run incorrect (non-zero exit, seed printed).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.core.search import retrieve
from repro.maint import check_all
from repro.workload import keyword_ground_truth

__all__ = ["Verdict", "exact_top_k", "recall"]

#: hostile-mix must keep at least this share of finds answered.
MIN_AVAILABILITY = 0.95


@dataclass
class Verdict:
    attempted: int
    failed: int
    #: Share of the ideal result the operations returned (recall@10,
    #: found share, stored share — per workload, see README.md).
    quality: float
    problems: list = field(default_factory=list)
    #: Workload-specific simulated diagnostics (``recall_at_10``, ``availability``).
    extra: dict = field(default_factory=dict)


def exact_top_k(corpus, queries, k: int) -> list:
    """Ground truth: per query, ids of the k highest-cosine corpus rows
    (score desc, id asc; zero-score rows excluded — the ranked-view
    contract of ``LocalVsmIndex``).  Same answer as
    ``repro.experiments.lshfrontier.exact_top_k`` per query, but from one
    sparse product: that one takes ~10 ms a query, and read-topk has 3 000."""
    norms = corpus.norms()
    q_mat = sp.csr_matrix(
        (
            np.concatenate([q.values for q in queries]),
            np.concatenate([q.indices for q in queries]),
            np.cumsum([0] + [q.nnz for q in queries]),
        ),
        shape=(len(queries), corpus.dim),
    )
    dots = (q_mat @ corpus.matrix.T).tocsr()
    out = []
    for row, q in enumerate(queries):
        lo, hi = dots.indptr[row], dots.indptr[row + 1]
        ids = dots.indices[lo:hi].astype(np.int64)
        scores = dots.data[lo:hi] / (norms[ids] * q.norm())
        order = np.lexsort((ids, -scores))[:k]
        out.append(ids[order].tolist())
    return out


def recall(found_ids, truth) -> float:
    return len(set(found_ids) & set(truth)) / len(truth) if truth else 1.0


def _top10(corpus, queries, results, problems: list) -> tuple:
    """(results over the limit, mean recall@10 against the exact top-10)."""
    over = sum(1 for r in results if r.found > 10)
    if over:
        problems.append(f"{over} results hold more than 10 discoveries")
    truths = exact_top_k(corpus, queries, 10)
    return over, float(np.mean([recall(r.item_ids(), t) for r, t in zip(results, truths)]))


def check_write_cascade(system, n_items: int, results) -> Verdict:
    problems = []
    stored: Counter = Counter()
    for node in system.network.nodes():
        if node.capacity is not None and len(node) > node.capacity:
            problems.append(f"node {node.node_id} holds {len(node)} > capacity {node.capacity}")
        stored.update(node.item_ids())
    dropped = {r.dropped_item_id for r in results if not r.success}
    once = sum(1 for i in range(n_items) if stored[i] == 1)
    lost = [i for i in range(n_items) if stored[i] != 1 and i not in dropped]
    if lost:
        problems.append(f"{len(lost)} items neither stored exactly once nor reported dropped")
    return Verdict(n_items, len(dropped) + len(lost), once / n_items, problems)


def check_read_topk(corpus, queries, results, seed: int) -> Verdict:
    problems: list = []
    over, rec = _top10(corpus, queries, results, problems)
    # A 1% sample re-scored against the corpus: a discovery's score must
    # be the true cosine of the item it names.
    rng = np.random.default_rng(seed + 7)
    sample = rng.choice(len(results), size=max(1, len(results) // 100), replace=False)
    wrong = 0
    for i in sample.tolist():
        cos = corpus.cosine_against(queries[i])
        wrong += sum(1 for d in results[i].discoveries if abs(cos[d.item_id] - d.score) > 1e-9)
    if wrong:
        problems.append(f"{wrong} discoveries carry a score that is not their cosine")
    return Verdict(len(results), over + wrong, rec, problems, {"recall_at_10": rec})


def check_read_storm(system, corpus, origins, queries, results, *, window: int, seed: int) -> Verdict:
    problems = []
    # One window (>= 2% of them) replayed through the scalar path: the
    # batch engine's contract is identical items and identical messages.
    n_windows = (len(queries) + window - 1) // window
    w = int(np.random.default_rng(seed + 7).integers(0, n_windows))
    differ = 0
    for i in range(w * window, min(len(queries), (w + 1) * window)):
        ref = retrieve(system, origins[i], queries[i], None, patience=20)
        got = results[i]
        if ref.item_ids() != got.item_ids() or ref.messages != got.messages:
            differ += 1
    if differ:
        problems.append(f"window {w}: {differ} batch results differ from scalar retrieve")
    # amount=None asks for everything: recall against all items holding the keyword.
    truth: dict = {}
    recs = []
    for q, r in zip(queries, results):
        key = q.indices.tobytes()
        if key not in truth:
            truth[key] = set(keyword_ground_truth(corpus, q.indices).matching_items.tolist())
        recs.append(recall(r.item_ids(), truth[key]))
    return Verdict(len(results), differ, float(np.mean(recs)), problems)


def check_lookup_exact(system, items, results) -> Verdict:
    problems = []
    missed = sum(1 for r in results if not r.found)
    misplaced = sum(
        1 for item, r in zip(items, results)
        if r.found and not system.network.node(r.node_id).has_item(item)
    )
    if missed:
        problems.append(f"{missed} of {len(results)} lookups did not find their item")
    if misplaced:
        problems.append(f"{misplaced} lookups name a node that does not hold the item")
    return Verdict(len(results), missed + misplaced, 1.0 - missed / len(results), problems)


def check_hostile_mix(system, repair, plane, tally: dict) -> Verdict:
    problems = []
    for name, report in check_all(system, repair=repair, plane=plane).items():
        if not report.ok:
            problems.append(f"invariant {name}: {report.violations} violations {report.samples[:2]}")
    availability = tally["found"] / tally["finds"]
    if availability < MIN_AVAILABILITY:
        problems.append(f"availability {availability:.4f} < {MIN_AVAILABILITY}")
    attempted = tally["finds"] + tally["retrieves"]
    failed = tally["finds"] - tally["found"]
    return Verdict(attempted, failed, availability, problems, {"availability": availability})


def check_lsh_probe(corpus, queries, results) -> Verdict:
    problems: list = []
    over, rec = _top10(corpus, queries, results, problems)
    return Verdict(len(results), over, rec, problems, {"recall_at_10": rec})
