"""Shared experiment plumbing.

Every experiment module follows one pattern: a ``run(...)`` function
taking explicit scale knobs (defaults sized for seconds-long laptop
runs; the paper's scale is reachable by raising them) and returning a
:class:`RowSet` — the table/series the corresponding paper figure
plots.  Benchmarks and the CLI both consume these.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core import Meteorograph, MeteorographConfig, PlacementScheme
from ..vsm.sparse import Corpus
from ..workload import WorldCupParams, WorldCupTrace, generate_trace

__all__ = [
    "RowSet",
    "format_table",
    "scale_factor",
    "default_trace",
    "shared_trace",
    "sample_of",
    "build_system",
    "publish_all",
    "SCHEME_LABELS",
]

#: The paper's legend strings, keyed by scheme.
SCHEME_LABELS = {
    PlacementScheme.NONE: "None",
    PlacementScheme.UNUSED_HASH: "Unused Hash Space",
    PlacementScheme.UNUSED_HASH_HOT: "Unused Hash Space + Hot Regions",
}


@dataclass
class RowSet:
    """One reproduced table/figure: labelled rows plus provenance."""

    experiment: str
    headers: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)
    elapsed_s: float = 0.0

    def add(self, *values) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"row width {len(values)} != header width {len(self.headers)}"
            )
        self.rows.append(tuple(values))

    def column(self, name: str) -> list:
        i = self.headers.index(name)
        return [r[i] for r in self.rows]

    def __str__(self) -> str:
        return format_table(self)


def format_table(rs: RowSet) -> str:
    """Plain-text rendering of a row set (what the benches print)."""

    def fmt(v) -> str:
        if isinstance(v, float):
            return f"{v:.3f}"
        return str(v)

    cells = [tuple(fmt(v) for v in row) for row in rs.rows]
    widths = [
        max(len(h), *(len(c[i]) for c in cells)) if cells else len(h)
        for i, h in enumerate(rs.headers)
    ]
    lines = [f"== {rs.experiment} =="]
    lines.append("  ".join(h.ljust(w) for h, w in zip(rs.headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for c in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(c, widths)))
    if rs.notes:
        lines.append("notes: " + ", ".join(f"{k}={v}" for k, v in sorted(rs.notes.items())))
    return "\n".join(lines)


def scale_factor(default: float = 1.0) -> float:
    """Global experiment scale from ``REPRO_SCALE`` (1.0 = bench default).

    Raising it grows node counts, corpus sizes and query counts toward
    the paper's scale; the benches stay CI-sized at 1.0.
    """
    return float(os.environ.get("REPRO_SCALE", default))


@functools.lru_cache(maxsize=None)
def shared_trace(n_items: int, n_keywords: int, seed: int) -> WorldCupTrace:
    """One generated trace per parameter set, shared by every caller.

    Its numpy arrays are read-only: a caller that writes into the shared
    corpus fails loudly instead of corrupting the next experiment.
    """
    trace = generate_trace(
        WorldCupParams(n_items=n_items, n_keywords=n_keywords), seed=seed
    )
    m = trace.corpus.matrix
    for arr in (
        m.data, m.indices, m.indptr, trace.keyword_weights,
        *(v for v in vars(trace.popularity).values() if isinstance(v, np.ndarray)),
    ):
        arr.flags.writeable = False
    return trace


def default_trace(
    *,
    n_items: int = 20_000,
    n_keywords: int = 4_000,
    seed: int = 19980724,
    scale: Optional[float] = None,
) -> WorldCupTrace:
    """The experiments' shared synthetic trace (scaled Table 1 shape),
    generated once per resolved parameter set (see :func:`shared_trace`)."""
    s = scale_factor() if scale is None else scale
    return shared_trace(
        max(200, int(n_items * s)), max(100, int(n_keywords * s)), seed
    )


def sample_of(
    corpus: Corpus, rng: np.random.Generator, fraction: float = 0.005, minimum: int = 64
) -> Corpus:
    """The §3.4 sampled data set: ``fraction`` of items, at least ``minimum``."""
    n = max(minimum, int(round(fraction * corpus.n_items)))
    n = min(n, corpus.n_items)
    ids = rng.choice(corpus.n_items, size=n, replace=False)
    return corpus.subsample(np.sort(ids))


def build_system(
    trace: WorldCupTrace,
    n_nodes: int,
    scheme: PlacementScheme,
    *,
    rng: np.random.Generator,
    capacity_multiple: Optional[float] = None,
    sample_fraction: float = 0.005,
    simulator=None,
    **config_overrides,
) -> Meteorograph:
    """Build a system for one experiment cell.

    ``capacity_multiple`` expresses capacity in units of the ideal load
    c = items/nodes (the paper's "8c" setting); None keeps storage
    infinite (Figs. 7–8).
    """
    capacity = None
    if capacity_multiple is not None:
        c_ideal = trace.corpus.n_items / n_nodes
        capacity = max(1, int(round(capacity_multiple * c_ideal)))
    cfg = MeteorographConfig(
        scheme=scheme, node_capacity=capacity, **config_overrides
    )
    # Every scheme gets the sample: the equalizer needs it for
    # UNUSED_HASH(+HOT), and first-hop selection (§3.5.1) uses it even
    # under NONE.
    sample = sample_of(trace.corpus, rng, sample_fraction)
    return Meteorograph.build(
        n_nodes, trace.corpus.dim, rng=rng, sample=sample, config=cfg,
        simulator=simulator,
    )


def publish_all(
    system: Meteorograph, trace: WorldCupTrace, rng: np.random.Generator
) -> int:
    """Publish the whole trace; returns the count of failed publishes."""
    results = system.publish_corpus(trace.corpus, rng)
    return sum(1 for r in results if not r.success)


class timer:
    """Tiny context manager stamping ``RowSet.elapsed_s``."""

    def __init__(self, rs: RowSet) -> None:
        self.rs = rs

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self.rs

    def __exit__(self, *exc):
        self.rs.elapsed_s = time.perf_counter() - self._t0
        return False
