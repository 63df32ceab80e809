"""Loading real market-basket traces, and its unit tests.

The paper builds its workload from the World Cup '98 access log by
treating clients as items and Web objects as keywords.  Two text
formats reach a :class:`~repro.vsm.sparse.Corpus` with densely
re-indexed ids plus the id maps:

* **pairs CSV** — one ``client_id,object_id`` access per line
  (duplicates collapse to set membership, like the paper's matrix);
* **basket lines** — one client per line: ``client_id: obj obj obj``.

No experiment, example or tool loads a real trace (every run uses the
synthetic ``generate_trace``), so the loader lives here, beside the
only code that exercises it.
"""

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, TextIO

import pytest

from repro.vsm.sparse import Corpus


@dataclass
class LoadedTrace:
    """A corpus plus the original-id ↔ dense-id maps."""

    corpus: Corpus
    client_ids: list  # dense item id → original client id
    object_ids: list  # dense keyword id → original object id

    @property
    def n_clients(self) -> int:
        return self.corpus.n_items

    @property
    def n_objects(self) -> int:
        return self.corpus.dim


def baskets_to_corpus(baskets: dict) -> LoadedTrace:
    """Build a dense corpus from {client id: iterable of object ids}."""
    if not baskets:
        raise ValueError("no clients in trace")
    client_ids = sorted(baskets)
    object_set: set = set()
    for objs in baskets.values():
        object_set.update(objs)
    if not object_set:
        raise ValueError("no objects in trace")
    object_ids = sorted(object_set)
    obj_dense = {o: i for i, o in enumerate(object_ids)}
    rows = [
        sorted(obj_dense[o] for o in set(baskets[c])) for c in client_ids
    ]
    corpus = Corpus.from_baskets(rows, len(object_ids))
    return LoadedTrace(corpus=corpus, client_ids=client_ids, object_ids=object_ids)


def load_pairs_csv(
    source: str | Path | TextIO,
    *,
    delimiter: str = ",",
    skip_header: bool = False,
    max_rows: Optional[int] = None,
) -> LoadedTrace:
    """Load ``client,object`` access pairs (the flattened-log format).

    Blank lines and lines starting with ``#`` are skipped; duplicate
    accesses collapse (the paper's matrix is binary membership).
    ``max_rows`` caps ingestion for sampling very large logs.
    """
    own = isinstance(source, (str, Path))
    fh: TextIO = open(source, newline="") if own else source  # type: ignore[arg-type]
    try:
        reader = csv.reader(fh, delimiter=delimiter)
        baskets: dict = {}
        seen = 0
        for lineno, row in enumerate(reader, start=1):
            if skip_header and lineno == 1:
                continue
            if not row or (row[0].startswith("#")):
                continue
            if len(row) < 2:
                raise ValueError(f"line {lineno}: expected 2 fields, got {row!r}")
            client, obj = row[0].strip(), row[1].strip()
            if not client or not obj:
                raise ValueError(f"line {lineno}: empty field in {row!r}")
            baskets.setdefault(client, set()).add(obj)
            seen += 1
            if max_rows is not None and seen >= max_rows:
                break
    finally:
        if own:
            fh.close()
    return baskets_to_corpus(baskets)


def load_basket_lines(source: str | Path | TextIO) -> LoadedTrace:
    """Load ``client: obj obj obj`` basket lines."""
    own = isinstance(source, (str, Path))
    fh: TextIO = open(source) if own else source  # type: ignore[arg-type]
    try:
        baskets: dict = {}
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise ValueError(f"line {lineno}: missing ':' separator")
            client, _, rest = line.partition(":")
            client = client.strip()
            objs = rest.split()
            if not client or not objs:
                raise ValueError(f"line {lineno}: empty client or basket")
            baskets.setdefault(client, set()).update(objs)
    finally:
        if own:
            fh.close()
    return baskets_to_corpus(baskets)


class TestPairsCsv:
    def test_basic_load(self):
        data = io.StringIO("c1,o1\nc1,o2\nc2,o1\n")
        trace = load_pairs_csv(data)
        assert trace.n_clients == 2
        assert trace.n_objects == 2
        assert trace.client_ids == ["c1", "c2"]
        assert list(trace.corpus.nnz_per_item()) == [2, 1]

    def test_duplicates_collapse(self):
        data = io.StringIO("c1,o1\nc1,o1\nc1,o1\n")
        trace = load_pairs_csv(data)
        assert list(trace.corpus.nnz_per_item()) == [1]

    def test_comments_and_blanks_skipped(self):
        data = io.StringIO("# log\n\nc1,o1\n")
        assert load_pairs_csv(data).n_clients == 1

    def test_header_skip(self):
        data = io.StringIO("client,object\nc1,o1\n")
        trace = load_pairs_csv(data, skip_header=True)
        assert trace.n_clients == 1

    def test_max_rows(self):
        data = io.StringIO("c1,o1\nc2,o2\nc3,o3\n")
        assert load_pairs_csv(data, max_rows=2).n_clients == 2

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            load_pairs_csv(io.StringIO("justonefield\n"))
        with pytest.raises(ValueError):
            load_pairs_csv(io.StringIO("c1,\n"))

    def test_custom_delimiter(self):
        data = io.StringIO("c1\to1\n")
        assert load_pairs_csv(data, delimiter="\t").n_objects == 1

    def test_file_path(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("c1,o1\nc2,o2\n")
        assert load_pairs_csv(p).n_clients == 2


class TestBasketLines:
    def test_basic_load(self):
        data = io.StringIO("c1: o1 o2 o3\nc2: o1\n")
        trace = load_basket_lines(data)
        assert trace.n_clients == 2
        assert list(trace.corpus.nnz_per_item()) == [3, 1]

    def test_repeated_client_merges(self):
        data = io.StringIO("c1: o1\nc1: o2\n")
        trace = load_basket_lines(data)
        assert trace.n_clients == 1
        assert list(trace.corpus.nnz_per_item()) == [2]

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            load_basket_lines(io.StringIO("no separator here\n"))
        with pytest.raises(ValueError):
            load_basket_lines(io.StringIO("c1:\n"))


class TestBasketsToCorpus:
    def test_dense_reindexing_sorted(self):
        trace = baskets_to_corpus({"z": {"o9"}, "a": {"o1", "o9"}})
        assert trace.client_ids == ["a", "z"]
        assert trace.object_ids == ["o1", "o9"]
        v = trace.corpus.vector(0)
        assert list(v.indices) == [0, 1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            baskets_to_corpus({})

    def test_loaded_trace_feeds_stats(self):
        from repro.workload.stats import trace_statistics

        trace = baskets_to_corpus({"c1": {"a", "b"}, "c2": {"a"}})
        stats = trace_statistics(trace.corpus)
        assert stats.n_items == 2
        assert stats.mean_basket == pytest.approx(1.5)

    def test_loaded_trace_publishable(self):
        import numpy as np

        from repro.core import Meteorograph, MeteorographConfig, PlacementScheme

        trace = baskets_to_corpus(
            {f"c{i}": {f"o{i % 5}", f"o{(i + 1) % 5}"} for i in range(40)}
        )
        rng = np.random.default_rng(0)
        system = Meteorograph.build(
            16, trace.corpus.dim, rng=rng,
            config=MeteorographConfig(scheme=PlacementScheme.NONE),
        )
        system.publish_corpus(trace.corpus, rng)
        assert system.network.total_items() == 40
