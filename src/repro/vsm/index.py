"""Per-node local indexes (Fig. 2: "adopt VSM or LSI for local indexing").

When a retrieve reaches a node, the node must answer "which of my
stored items are most relevant to this query?"  :class:`LocalVsmIndex`
implements the plain vector-space answer: cosine ranking, optional
exact keyword filtering, and the *least-similar* selection that drives
the publish-side replacement policy.

The store is **columnar** (structure-of-arrays): item ids, publish
keys, angle keys and norms live in parallel numpy arrays, and every
item's keyword/weight pairs are appended to shared flat arrays in CSR
fashion — the scoring layout *is* the store, not a cache rebuilt after
each mutation, and no per-row object is kept: a :class:`StoredItem` is
built from a row when a caller reads one, and writes arrive as a
:class:`RowBlock` of columns.  The
bulk operations :meth:`LocalVsmIndex.add_many` /
:meth:`~LocalVsmIndex.remove_many` / :meth:`~LocalVsmIndex.score_many`
are the primitives; the scalar :meth:`~LocalVsmIndex.add` /
:meth:`~LocalVsmIndex.remove` / :meth:`~LocalVsmIndex.query` are thin
per-item specialisations with identical end states.  Removal tombstones
a row (O(1)); the arrays compact once dead rows outnumber live ones, so
every operation is amortised O(changed data), never O(index).

Scoring scatters the query into a dense scratch sized by the query's
dictionary ``dim`` (the index itself needs no ``dim``), gathers it
along the flat keyword array and segment-sums per row with
``np.add.reduceat`` — items sharing no keyword with the query score an
exact 0 and are filtered out, which is exactly what the old
per-candidate inverted-map walk produced.  The same kernel serves
single queries, :meth:`LocalVsmIndex.query_many` (the bulk entry point
of the batch read path) **and** :meth:`LocalVsmIndex.least_similar`
(the replacement-victim rule): scalar and batch rankings — and scalar
and batch victim picks — are identical by construction because they are
the same computation.  The scoring-tolerance contract (last-ulp
agreement with the reference per-candidate dot product) is documented
once, in DESIGN.md under "Columnar node state".

Derived views — the keyword→row postings (exact multi-keyword
filtering), the scoring view and the (angle key, item id) ladder
(replacement extremes) — are built lazily from the columns and
invalidated by mutation; the ladder is additionally maintained
incrementally across scalar add/remove so displacement chains never pay
a re-sort per hop.

Most visits of a neighbour walk are *dry* — the node shares no keyword
with the query — so the scoring view can carry a keyword-presence
summary (one byte per dictionary id) that answers those in O(|q|),
before any numpy call.  It marks a superset of the scorable keywords,
which is exact because the kernel stays the judge of everything it does
not rule out; it is built at the first query the full kernel answers
with no hit (an index that is never dry never pays for it) and lives
inside the view tuple, so whatever invalidates the view invalidates it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .sparse import SparseVector

__all__ = ["LocalVsmIndex", "Ranking", "RowBlock", "ScoredItem", "StoredItem"]

#: Initial row / flat-entry capacities (grown by doubling).
_MIN_ROWS = 16
_MIN_NNZ = 256
_NO_IDS = np.empty(0, dtype=np.int64)
_NO_SCORES = np.empty(0, dtype=np.float64)


@dataclass(frozen=True)
class StoredItem:
    """One published item as held by a node.

    ``item_id`` is the corpus row.  ``publish_key`` is the key the item
    was routed with (Eq. 5 angle key, or Eq. 6 balanced key when the
    unused-hash-space scheme is on).  ``angle_key`` is always the raw
    Eq. 5 key — replacement ranking and the similarity walk reason in
    angle space regardless of where the body physically lives.  The
    keyword vector travels with the item so nodes can run a local VSM
    index (Fig. 2: "adopt VSM or LSI for local indexing").

    A store keeps rows as columns, not as these objects: one is built
    when a caller reads a row (see :class:`RowBlock`), so two reads of a
    row are equal, not identical — equality compares every field, the
    keyword and weight arrays by value.
    """

    item_id: int
    publish_key: int
    angle_key: int
    keyword_ids: np.ndarray
    weights: np.ndarray
    payload: object = None
    replica_of: Optional[int] = None  # primary node id when this is a replica

    def __post_init__(self) -> None:
        if len(self.keyword_ids) != len(self.weights):
            raise ValueError("keyword_ids and weights must have equal length")

    def __eq__(self, other) -> bool:
        if not isinstance(other, StoredItem):
            return NotImplemented
        return (
            self.item_id == other.item_id
            and self.publish_key == other.publish_key
            and self.angle_key == other.angle_key
            and np.array_equal(self.keyword_ids, other.keyword_ids)
            and np.array_equal(self.weights, other.weights)
            and (self.payload is other.payload or self.payload == other.payload)
            and self.replica_of == other.replica_of
        )

    @property
    def is_replica(self) -> bool:
        return self.replica_of is not None


class RowBlock:
    """Item rows as columns — what a store is written from and read as.

    Row ``j`` is ``ids[j]``, ``publish_keys[j]``, ``angle_keys[j]``,
    ``norms[j]`` (the Euclidean norm the store indexes) and the keyword /
    weight run ``[starts[j], starts[j] + lengths[j])`` of the shared
    ``keywords`` / ``weights`` flats; ``payloads`` and ``replica_of`` map
    a row to its value only where one is set.  Rows of one block may
    share a run (an item's L band copies do).  Flats are read-only here:
    a block gathers (:meth:`take`) or slices its rows without copying a
    run, so a batch's copies and a node's stored rows travel as blocks.

    As a sequence (``len``, indexing, iteration, ``==``) the rows appear
    as :class:`StoredItem` views, built only when asked for — as
    :class:`Ranking` shows its hits as :class:`ScoredItem`.
    """

    __slots__ = (
        "ids", "publish_keys", "angle_keys", "norms", "starts", "lengths",
        "keywords", "weights", "payloads", "replica_of",
    )

    def __init__(
        self, ids, publish_keys, angle_keys, norms, starts, lengths, keywords,
        weights, payloads=None, replica_of=None,
    ) -> None:
        self.ids, self.publish_keys, self.angle_keys = ids, publish_keys, angle_keys
        self.norms, self.starts, self.lengths = norms, starts, lengths
        self.keywords, self.weights = keywords, weights
        self.payloads: dict[int, object] = {} if payloads is None else payloads
        self.replica_of: dict[int, int] = {} if replica_of is None else replica_of

    @classmethod
    def from_items(cls, items: Sequence[StoredItem]) -> "RowBlock":
        """The rows of ``items``, each norm its item's ``sqrt(w·w)`` (as
        :meth:`LocalVsmIndex.add` computes it)."""
        n = len(items)
        lengths = np.fromiter((it.keyword_ids.size for it in items), np.int64, count=n)
        return cls(
            np.fromiter((it.item_id for it in items), np.int64, count=n),
            np.fromiter((it.publish_key for it in items), np.int64, count=n),
            np.fromiter((it.angle_key for it in items), np.int64, count=n),
            np.fromiter(
                (math.sqrt(it.weights.dot(it.weights)) for it in items),
                np.float64,
                count=n,
            ),
            np.cumsum(lengths) - lengths,
            lengths,
            np.concatenate([it.keyword_ids for it in items]) if n else _NO_IDS,
            np.concatenate([it.weights for it in items]) if n else _NO_SCORES,
            {j: it.payload for j, it in enumerate(items) if it.payload is not None},
            {j: it.replica_of for j, it in enumerate(items) if it.replica_of is not None},
        )

    @classmethod
    def concat(cls, blocks: Sequence["RowBlock"]) -> "RowBlock":
        """One block of every row of ``blocks``, in order.  Its flats hold
        only those rows' runs (a run several rows share is copied once per
        row), so joining gathers from large blocks copies no more."""
        gathers = [_range_gather(b.starts, b.lengths) for b in blocks]
        lengths = np.concatenate([b.lengths for b in blocks])
        base = 0
        payloads: dict[int, object] = {}
        replica_of: dict[int, int] = {}
        for b in blocks:
            payloads.update((base + j, v) for j, v in b.payloads.items())
            replica_of.update((base + j, v) for j, v in b.replica_of.items())
            base += len(b)
        return cls(
            np.concatenate([b.ids for b in blocks]),
            np.concatenate([b.publish_keys for b in blocks]),
            np.concatenate([b.angle_keys for b in blocks]),
            np.concatenate([b.norms for b in blocks]),
            np.cumsum(lengths) - lengths,
            lengths,
            np.concatenate([b.keywords[g] for b, g in zip(blocks, gathers)]),
            np.concatenate([b.weights[g] for b, g in zip(blocks, gathers)]),
            payloads,
            replica_of,
        )

    def take(self, rows) -> "RowBlock":
        """The block of ``rows`` (positions into this one), in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        return RowBlock(
            self.ids[rows], self.publish_keys[rows], self.angle_keys[rows],
            self.norms[rows], self.starts[rows], self.lengths[rows],
            self.keywords, self.weights,
            *self._remap(rows),
        )

    def _remap(self, rows) -> tuple[dict, dict]:
        """``payloads`` and ``replica_of`` re-keyed by position in ``rows``."""
        if not (self.payloads or self.replica_of):
            return {}, {}
        rows = list(rows)
        return tuple(
            {j: d[r] for j, r in enumerate(rows) if r in d} if d else {}
            for d in (self.payloads, self.replica_of)
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, j):
        if isinstance(j, slice):  # column views, nothing gathered
            return RowBlock(
                self.ids[j], self.publish_keys[j], self.angle_keys[j],
                self.norms[j], self.starts[j], self.lengths[j],
                self.keywords, self.weights,
                *self._remap(range(len(self.ids))[j]),
            )
        return self.item(j)

    def item(self, j: int) -> StoredItem:
        """Row ``j`` as a :class:`StoredItem` (its arrays view the flats)."""
        start = int(self.starts[j])
        end = start + int(self.lengths[j])
        return StoredItem(
            int(self.ids[j]),
            int(self.publish_keys[j]),
            int(self.angle_keys[j]),
            self.keywords[start:end],
            self.weights[start:end],
            self.payloads.get(j),
            self.replica_of.get(j),
        )

    def __iter__(self):
        return map(self.item, range(len(self.ids)))

    def __eq__(self, other) -> bool:
        return list(self) == list(other)


#: The rows of an empty result.
_NO_ROWS = RowBlock(_NO_IDS, _NO_IDS, _NO_IDS, _NO_SCORES, _NO_IDS, _NO_IDS, _NO_IDS, _NO_SCORES)


class ScoredItem:
    """A (stored item, cosine score) pair returned by index queries."""

    __slots__ = ("item", "score")

    def __init__(self, item: StoredItem, score: float) -> None:
        self.item = item
        self.score = score

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScoredItem(id={self.item.item_id}, score={self.score:.4f})"


class Ranking:
    """One query's ranked hits as columns — what index queries return.

    The rank-ordered ``ids`` (int64) and ``scores`` (float64) columns
    *are* the result; as a sequence (``len``, indexing, slicing,
    iteration, ``== list``) the same hits appear as :class:`ScoredItem`
    views, built only when asked for.  A ranking is a snapshot: it
    resolves its row slots through the index's columns as they stood
    (a slot's row is never rewritten, and growth and compaction install
    new arrays), so later removals and compactions do not change what it
    yields.
    """

    __slots__ = ("ids", "scores", "_slots", "_rows")

    def __init__(self, ids=_NO_IDS, scores=_NO_SCORES, slots=_NO_IDS, rows=_NO_ROWS) -> None:
        self.ids, self.scores, self._slots, self._rows = ids, scores, slots, rows

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Ranking(self.ids[i], self.scores[i], self._slots[i], self._rows)
        return ScoredItem(self._rows.item(int(self._slots[i])), float(self.scores[i]))

    def __iter__(self):
        items = map(self._rows.item, self._slots.tolist())
        return map(ScoredItem, items, self.scores.tolist())

    def __eq__(self, other) -> bool:
        return list(self) == (list(other) if isinstance(other, Ranking) else other)


#: What every dry query returns (rankings are immutable, so one will do).
_NO_HITS = Ranking()


def _range_gather(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start+length)`` per row, vectorised."""
    nz = lengths > 0
    ss = starts[nz]
    ls = lengths[nz]
    total = int(ls.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    gi = np.ones(total, dtype=np.int64)
    gi[0] = ss[0]
    if ss.size > 1:
        cs = np.cumsum(ls[:-1])
        gi[cs] = ss[1:] - ss[:-1] - ls[:-1] + 1
    return np.cumsum(gi)


class LocalVsmIndex:
    """Columnar VSM index over one node's stored items."""

    def __init__(self) -> None:
        #: live item id → row slot.
        self._slots: dict[int, int] = {}
        # -- row columns (parallel, capacity-grown, slots never reused:
        # a slot's row is never rewritten until compaction installs new
        # arrays, which is what lets a RowBlock over them be a snapshot) --
        self._ids = np.empty(_MIN_ROWS, dtype=np.int64)
        self._publish_keys = np.empty(_MIN_ROWS, dtype=np.int64)
        self._angle_keys = np.empty(_MIN_ROWS, dtype=np.int64)
        self._norms = np.empty(_MIN_ROWS, dtype=np.float64)
        self._alive = np.zeros(_MIN_ROWS, dtype=np.bool_)
        self._starts = np.empty(_MIN_ROWS, dtype=np.int64)
        self._lengths = np.empty(_MIN_ROWS, dtype=np.int64)
        # -- CSR flats: each row's keyword/weight run, append-ordered --
        self._kw_flat = np.empty(_MIN_NNZ, dtype=np.int64)
        self._wt_flat = np.empty(_MIN_NNZ, dtype=np.float64)
        #: slot → payload / primary node id, only where one is set.
        self._payloads: dict[int, object] = {}
        self._replica_of: dict[int, int] = {}
        self._rows = 0  # used slots, dead included
        self._nnz = 0  # used flat entries, garbage included
        self._dead_rows = 0
        self._dead_nnz = 0
        #: Reusable dense scratch for query scatter/gather, sized from
        #: the query's dictionary ``dim``.
        self._scratch: Optional[np.ndarray] = None
        # -- lazy derived views (None = rebuild on next use) --
        #: (scorable slots, their ids, norms, reduceat offsets, contiguous
        #: end, keyword-presence summary) — see :meth:`_scoring_view`.
        self._view: Optional[tuple] = None
        #: (keyword-sorted flat keywords, parallel row slots).
        self._postings: Optional[tuple] = None
        #: sorted [(angle_key, item_id)] — the replacement ladder.
        self._ladder: Optional[list[tuple[int, int]]] = None
        #: The columns as one slot-indexed RowBlock; None after an array
        #: was replaced (growth, compaction).
        self._cols: Optional[RowBlock] = None

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, item_id: int) -> bool:
        return item_id in self._slots

    # -- maintenance --------------------------------------------------------

    def _grow_rows(self, need: int) -> None:
        cap = self._ids.size
        new = max(need, cap * 2)
        used = self._rows
        for name in ("_ids", "_publish_keys", "_angle_keys", "_norms", "_starts", "_lengths"):
            arr = getattr(self, name)
            grown = np.empty(new, dtype=arr.dtype)
            grown[:used] = arr[:used]
            setattr(self, name, grown)
        alive = np.zeros(new, dtype=np.bool_)
        alive[:used] = self._alive[:used]
        self._alive = alive
        self._cols = None

    def _grow_nnz(self, need: int) -> None:
        new = max(need, self._kw_flat.size * 2)
        used = self._nnz
        for name in ("_kw_flat", "_wt_flat"):
            arr = getattr(self, name)
            grown = np.empty(new, dtype=arr.dtype)
            grown[:used] = arr[:used]
            setattr(self, name, grown)
        self._cols = None

    def _kill(self, slot: int) -> None:
        """Tombstone one row; the caller owns ``_slots`` and the caches."""
        self._alive[slot] = False
        self._dead_rows += 1
        self._dead_nnz += int(self._lengths[slot])
        ladder = self._ladder
        if ladder is not None:
            entry = (int(self._angle_keys[slot]), int(self._ids[slot]))
            j = bisect_left(ladder, entry)
            if j < len(ladder) and ladder[j] == entry:
                del ladder[j]

    def add(self, item: StoredItem) -> None:
        """Index an item (idempotent per item id; re-add replaces).

        The scalar specialisation of :meth:`add_many` — one row append
        on the columnar store, no per-keyword Python work; the indexed
        norm is ``sqrt(w·w)``.
        """
        iid = item.item_id
        slots = self._slots
        old = slots.get(iid)
        if old is not None:
            self._kill(old)
        kws = item.keyword_ids
        weights = item.weights
        length = kws.size
        s = self._rows
        if s == self._ids.size:
            self._grow_rows(s + 1)
        p = self._nnz
        if p + length > self._kw_flat.size:
            self._grow_nnz(p + length)
        self._ids[s] = iid
        self._publish_keys[s] = item.publish_key
        self._angle_keys[s] = item.angle_key
        self._norms[s] = math.sqrt(weights.dot(weights))
        self._alive[s] = True
        self._starts[s] = p
        self._lengths[s] = length
        self._kw_flat[p : p + length] = kws
        self._wt_flat[p : p + length] = weights
        if item.payload is not None:
            self._payloads[s] = item.payload
        if item.replica_of is not None:
            self._replica_of[s] = item.replica_of
        self._rows = s + 1
        self._nnz = p + length
        slots[iid] = s
        self._view = None
        self._postings = None
        ladder = self._ladder
        if ladder is not None:
            insort(ladder, (item.angle_key, iid))
        if old is not None:
            # Replacement tombstoned a row; only kill paths can push the
            # store over the compaction threshold.
            self._maybe_compact()

    def add_many(self, rows: RowBlock | Sequence[StoredItem]) -> None:
        """Bulk add — the primitive mutation of the columnar store.

        ``rows`` is a :class:`RowBlock` (the write engine's form: every
        column is filled with one gather from the block's columns, no
        per-row object) or a sequence of :class:`StoredItem`
        (:meth:`RowBlock.from_items`).  End state is identical to
        scalar-adding the rows in order (later duplicates replace earlier
        ones and any stored copy); the indexed norm is the block's (``Corpus.norms`` on the write engine; DESIGN.md
        "Columnar node state" has the last-ulp tolerance contract).
        """
        if not isinstance(rows, RowBlock):
            rows = RowBlock.from_items(rows)
        n = len(rows)
        if n == 0:
            return
        self._view = None
        self._postings = None
        self._ladder = None
        base = self._rows
        end = base + n
        if end > self._ids.size:
            self._grow_rows(end)
        lens = rows.lengths
        gi = _range_gather(rows.starts, lens)
        total = gi.size
        p = self._nnz
        if p + total > self._kw_flat.size:
            self._grow_nnz(p + total)
        self._ids[base:end] = rows.ids
        self._publish_keys[base:end] = rows.publish_keys
        self._angle_keys[base:end] = rows.angle_keys
        self._norms[base:end] = rows.norms
        self._alive[base:end] = True
        ends = p + np.cumsum(lens)
        self._starts[base:end] = ends - lens
        self._lengths[base:end] = lens
        if total:
            self._kw_flat[p : p + total] = rows.keywords[gi]
            self._wt_flat[p : p + total] = rows.weights[gi]
        for j, v in rows.payloads.items():
            self._payloads[base + j] = v
        for j, v in rows.replica_of.items():
            self._replica_of[base + j] = v
        self._rows = end
        self._nnz = p + total
        # Replacement pass after the block is live: an id already stored
        # (or repeated within the block) keeps only its last row.
        slots = self._slots
        for j, iid in enumerate(rows.ids.tolist(), base):
            old = slots.get(iid)
            if old is not None:
                self._kill(old)
            slots[iid] = j
        self._maybe_compact()

    def remove(self, item_id: int) -> StoredItem:
        """Scalar :meth:`remove_many`: tombstone one row, O(1)."""
        try:
            slot = self._slots.pop(item_id)
        except KeyError:
            raise KeyError(f"item {item_id} not indexed") from None
        item = self._columns().item(slot)
        self._kill(slot)
        self._view = None
        self._postings = None
        self._maybe_compact()
        return item

    def remove_many(self, item_ids: Sequence[int]) -> RowBlock:
        """Bulk remove; returns the removed rows in (deduplicated) request
        order — a :class:`RowBlock`, so nothing is built unless read.

        Duplicate ids are removed once, and *every* id is resolved
        before any row is touched — an unknown id raises ``KeyError``
        with the store unchanged, never mid-sweep.
        """
        slots_map = self._slots
        seen: set[int] = set()
        order: list[int] = []
        slots: list[int] = []
        for iid in item_ids:
            if iid in seen:
                continue
            seen.add(iid)
            slot = slots_map.get(iid)
            if slot is None:
                raise KeyError(f"item {iid} not indexed")
            order.append(iid)
            slots.append(slot)
        out = self._columns().take(slots)
        if not order:
            return out
        self._view = None
        self._postings = None
        for iid, slot in zip(order, slots):
            del slots_map[iid]
            self._kill(slot)
        self._maybe_compact()
        return out

    def rebuild(self, items: Iterable[StoredItem]) -> None:
        """Reset the index to exactly the given items."""
        self.__init__()
        self.add_many(list(items))

    def _maybe_compact(self) -> None:
        """Compact once dead rows (or garbage flat entries) outnumber live
        ones — keeps every scan O(live data) with amortised O(1) upkeep."""
        live = len(self._slots)
        if self._dead_rows > 32 and self._dead_rows > live:
            self._compact()
            return
        if self._dead_nnz > 1024 and self._dead_nnz > self._nnz - self._dead_nnz:
            self._compact()

    def _compact(self) -> None:
        rows = self._rows
        sel = np.nonzero(self._alive[:rows])[0]
        n = sel.size
        ls = self._lengths[sel]
        gi = _range_gather(self._starts[sel], ls)
        total = gi.size
        row_cap = max(_MIN_ROWS, 2 * n)
        nnz_cap = max(_MIN_NNZ, 2 * total)
        ids = np.empty(row_cap, dtype=np.int64)
        ids[:n] = self._ids[sel]
        pks = np.empty(row_cap, dtype=np.int64)
        pks[:n] = self._publish_keys[sel]
        angles = np.empty(row_cap, dtype=np.int64)
        angles[:n] = self._angle_keys[sel]
        norms = np.empty(row_cap, dtype=np.float64)
        norms[:n] = self._norms[sel]
        alive = np.zeros(row_cap, dtype=np.bool_)
        alive[:n] = True
        lengths = np.empty(row_cap, dtype=np.int64)
        lengths[:n] = ls
        starts = np.empty(row_cap, dtype=np.int64)
        ends = np.cumsum(ls)
        starts[:n] = ends - ls
        kw = np.empty(nnz_cap, dtype=np.int64)
        kw[:total] = self._kw_flat[gi]
        wt = np.empty(nnz_cap, dtype=np.float64)
        wt[:total] = self._wt_flat[gi]
        # Fresh maps even when empty: a Ranking or block taken before
        # holds the old ones, and renumbered slots must not write into them.
        payloads: dict[int, object] = {}
        replica_of: dict[int, int] = {}
        if self._payloads or self._replica_of:
            new_slot = dict(zip(sel.tolist(), range(n)))
            payloads = {new_slot[s]: v for s, v in self._payloads.items() if s in new_slot}
            replica_of = {
                new_slot[s]: v for s, v in self._replica_of.items() if s in new_slot
            }
        self._payloads, self._replica_of = payloads, replica_of
        self._slots = {int(i): j for j, i in enumerate(ids[:n].tolist())}
        self._ids, self._publish_keys = ids, pks
        self._angle_keys, self._norms = angles, norms
        self._alive, self._starts, self._lengths = alive, starts, lengths
        self._kw_flat, self._wt_flat = kw, wt
        self._rows, self._nnz = n, total
        self._dead_rows = self._dead_nnz = 0
        self._view = None
        self._postings = None
        self._cols = None
        # The ladder holds (angle key, item id) pairs — slot renumbering
        # does not invalidate it.

    # -- accessors ----------------------------------------------------------

    def _columns(self) -> RowBlock:
        """The columns as one slot-indexed :class:`RowBlock` (cached until
        growth or compaction replaces an array)."""
        cols = self._cols
        if cols is None:
            cols = self._cols = RowBlock(
                self._ids, self._publish_keys, self._angle_keys, self._norms,
                self._starts, self._lengths, self._kw_flat, self._wt_flat,
                self._payloads, self._replica_of,
            )
        return cols

    def item(self, item_id: int) -> StoredItem:
        """The stored item for ``item_id``, built from its row (KeyError
        if absent)."""
        cols = self._cols
        if cols is None:
            cols = self._columns()
        return cols.item(self._slots[item_id])

    def items_by_id(self) -> dict[int, StoredItem]:
        """The id → item map, built from the rows (node iteration)."""
        row = self._columns().item
        return {iid: row(slot) for iid, slot in self._slots.items()}

    def rows(self) -> RowBlock:
        """Every live row, in id-map order, as a block of the columns
        (nothing copied, nothing built) — the cascade seeds its shadows
        from it."""
        slots = np.fromiter(self._slots.values(), np.int64, count=len(self._slots))
        return self._columns().take(slots)

    def publish_keys_of(self, item_ids: Sequence[int]) -> list[int]:
        """The publish keys of stored items, in the order given — one
        gather over the column (a pointer row's key names its body's
        home)."""
        slots_map = self._slots
        return self._publish_keys[[slots_map[iid] for iid in item_ids]].tolist()

    def norm_of(self, item_id: int) -> float:
        """The indexed Euclidean norm of a stored item (KeyError if absent)."""
        return float(self._norms[self._slots[item_id]])

    def angle_ladder(self) -> list[tuple[int, int]]:
        """The sorted (angle key, item id) ladder — a cached view over the
        angle-key column, maintained incrementally across scalar
        add/remove and rebuilt lazily after bulk mutations."""
        ladder = self._ladder
        if ladder is None:
            sel = np.nonzero(self._alive[: self._rows])[0]
            aks = self._angle_keys[sel]
            ids = self._ids[sel]
            order = np.lexsort((ids, aks))
            ladder = self._ladder = list(
                zip(aks[order].tolist(), ids[order].tolist())
            )
        return ladder

    # -- scoring ------------------------------------------------------------

    def _scoring_view(self) -> tuple:
        """(slots, ids, norms, offsets, contiguous end, presence), cached.

        Scorable slots = alive with a positive norm and at least one
        keyword (anything else can never score > 0, and zero-length
        segments would corrupt the reduceat); their id and norm columns
        are gathered once per view, not per query.  In the common state
        — no tombstone garbage between live runs — the segments are
        contiguous and ``offsets`` is just the start column (one
        reduceat segment per row, ending at the contiguous end).  With
        garbage gaps, ``offsets`` interleaves each row's [start, end) so
        the gaps fall into discarded odd segments (``end`` is None to
        mark the mode).  ``presence`` is the keyword-presence summary,
        None until :meth:`_ranked` attaches one to this very view — it
        lives in the tuple so that it dies with it.
        """
        view = self._view
        if view is None:
            rows = self._rows
            m = (
                self._alive[:rows]
                & (self._norms[:rows] > 0.0)
                & (self._lengths[:rows] > 0)
            )
            sel = np.nonzero(m)[0]
            if sel.size == 0:
                view = (None, None, None, None, None, None)
            else:
                starts = self._starts[sel]
                ends = starts + self._lengths[sel]
                ids_sel = self._ids[sel]
                norms_sel = self._norms[sel]
                if bool((starts[1:] == ends[:-1]).all()):
                    view = (sel, ids_sel, norms_sel, starts, int(ends[-1]), None)
                else:
                    offsets = np.empty(2 * sel.size, dtype=np.int64)
                    offsets[0::2] = starts
                    offsets[1::2] = ends
                    view = (sel, ids_sel, norms_sel, offsets, None, None)
            self._view = view
        return view

    def _kernel_scores(
        self, query: SparseVector, qnorm: float
    ) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """One vectorised scoring pass — the shared scalar/batch kernel.

        Scatters the query into the dense scratch, gathers it
        along the flat keyword column, and segment-sums per row with
        ``np.add.reduceat``.  Returns (scorable slots, their cosine
        scores); rows outside the view score an exact 0 by construction.
        Both offset modes sum each row's products in the same sequential
        order, so scores are bit-identical across compactions.  The
        scatter is always undone (``try/finally``), so a scoring failure
        mid-gather cannot leave the shared scratch dirty and corrupt
        every later score on this node.
        """
        sel, _ids_sel, norms_sel, offsets, end, _presence = self._scoring_view()
        if sel is None:
            return None, None
        scratch = self._scratch
        if scratch is None or scratch.size != query.dim:
            scratch = self._scratch = np.zeros(query.dim, dtype=np.float64)
        p = self._nnz if end is None else end
        # One guard element keeps end offsets == p legal for reduceat.
        prods = np.empty(p + 1, dtype=np.float64)
        try:
            scratch[query.indices] = query.values
            np.multiply(
                self._wt_flat[:p], scratch[self._kw_flat[:p]], out=prods[:p]
            )
        finally:
            scratch[query.indices] = 0.0
        if end is None:
            prods[p] = 0.0
            sums = np.add.reduceat(prods, offsets)[0::2]
        else:
            sums = np.add.reduceat(prods[:end], offsets)
        return sel, sums / (norms_sel * qnorm)

    def _ranked(
        self,
        query: SparseVector,
        limit: Optional[int],
        require_all: Optional[Sequence[int]],
        min_score: float,
    ) -> Ranking:
        # A dry visit — the common case of a neighbour walk — is answered
        # here in O(|q|), before any numpy call: nothing scorable, or a
        # presence summary naming none of the query's keywords.
        view = self._view
        if view is not None:
            if view[0] is None:
                return _NO_HITS
            present = view[5]
            if present is not None:
                for k in query.keyword_tuple:
                    if present[k]:
                        break
                else:
                    return _NO_HITS
        qnorm = query.norm()
        if qnorm == 0.0:
            return _NO_HITS
        sel, scores = self._kernel_scores(query, qnorm)
        if sel is None:
            return _NO_HITS
        keep = scores > 0.0
        if min_score != 0.0:
            keep &= scores >= min_score
        if require_all:
            hit = self._slots_with_all(require_all)
            if hit.size == 0:
                return _NO_HITS
            mask = np.zeros(self._rows, dtype=np.bool_)
            mask[hit] = True
            keep &= mask[sel]
        ksel = np.nonzero(keep)[0]
        if ksel.size == 0:
            # The full kernel found nothing: this node is worth a summary
            # (built here, not at the first query, so an index that is
            # never dry never pays the scatter).
            view = self._view
            if view[5] is None:
                self._view = (*view[:5], self._presence_summary(query.dim))
            return _NO_HITS
        ids_sel = self._view[1]
        if ksel.size > 1:
            ksel = ksel[np.lexsort((ids_sel[ksel], -scores[ksel]))]
        if limit is not None:
            ksel = ksel[:limit]
        cols = self._cols
        if cols is None:
            cols = self._columns()
        return Ranking(ids_sel[ksel], scores[ksel], sel[ksel], cols)

    def _presence_summary(self, dim: int) -> bytes:
        """One byte per id of the ``dim``-sized dictionary: non-zero iff
        some stored row — tombstoned and unscorable ones included — names
        the keyword.

        A superset of the scorable keywords is exact for its one use: a
        query naming no present keyword shares none with any scorable
        row, so the kernel would score every row 0; anything else still
        goes to the kernel.  One O(nnz) scatter over the flat keyword
        column, no sort.
        """
        mask = np.zeros(dim, dtype=np.bool_)
        mask[self._kw_flat[: self._nnz]] = True
        return mask.tobytes()

    def query(
        self,
        query: SparseVector,
        limit: Optional[int] = None,
        *,
        require_all: Optional[Sequence[int]] = None,
        min_score: float = 0.0,
    ) -> Ranking:
        """Items ranked by descending cosine; deterministic tie-break on id.

        ``require_all`` additionally filters to items containing every
        listed keyword (exact multi-keyword matching); ``min_score``
        drops weak matches (a cosine-space τ threshold).  Runs through
        the same vectorised kernel as :meth:`query_many` and
        :meth:`least_similar`, so scalar and batch calls rank (and pick
        victims) identically; the score-tolerance contract lives in
        DESIGN.md, "Columnar node state".
        """
        return self._ranked(query, limit, require_all, min_score)

    def query_many(
        self,
        queries: Sequence[SparseVector],
        limit: Optional[int] = None,
        *,
        require_all: Optional[Sequence[int]] = None,
        min_score: float = 0.0,
    ) -> list[Ranking]:
        """Rank many queries in one pass; element i equals ``query(queries[i])``.

        The scoring view and the dense scratch are shared across the
        batch, and queries with identical content are ranked once — each
        duplicate gets its own :class:`Ranking` over the same columns —
        the bulk-scoring half of the batch read path (a thousand
        co-located queries must not cost a thousand
        ``local_index_query`` calls).
        """
        memo: dict[tuple[bytes, bytes], Ranking] = {}
        out: list[Ranking] = []
        for q in queries:
            ckey = (q.indices.tobytes(), q.values.tobytes())
            cached = memo.get(ckey)
            if cached is None:
                cached = memo[ckey] = self._ranked(q, limit, require_all, min_score)
                out.append(cached)
            else:
                out.append(cached[:])
        return out

    def score_many(
        self, queries: Sequence[SparseVector]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bulk scoring primitive: every query against every stored item.

        Returns ``(item_ids, scores)`` where ``item_ids`` is the live
        ids ascending and ``scores[i, j]`` is the cosine of
        ``queries[i]`` against ``item_ids[j]`` — zero-norm items,
        zero-norm queries and no-overlap pairs score an exact 0.  The
        per-query rows come from the same kernel as :meth:`query` /
        :meth:`least_similar`, so downstream consumers (bench kernels,
        LSH-style multi-probe layers) see exactly the scores the
        retrieval and replacement paths act on.
        """
        rows = self._rows
        alive_slots = np.nonzero(self._alive[:rows])[0]
        order = np.argsort(self._ids[alive_slots])
        slots_sorted = alive_slots[order]
        ids_sorted = self._ids[slots_sorted].copy()
        scores = np.zeros((len(queries), slots_sorted.size), dtype=np.float64)
        if slots_sorted.size == 0:
            return ids_sorted, scores
        col_of = np.empty(rows, dtype=np.int64)
        col_of[slots_sorted] = np.arange(slots_sorted.size, dtype=np.int64)
        for i, q in enumerate(queries):
            qnorm = q.norm()
            if qnorm == 0.0:
                continue
            sel, row_scores = self._kernel_scores(q, qnorm)
            if sel is not None:
                scores[i, col_of[sel]] = row_scores
        return ids_sorted, scores

    def least_similar(self, query: SparseVector) -> Optional[StoredItem]:
        """The stored item *least* similar to ``query`` — the replacement
        victim of the Fig. 2 publish algorithm.

        Scores every stored item through the **same kernel** as
        :meth:`query` / :meth:`query_many` (items sharing no keyword
        score an exact 0 and are the most eligible victims), so scalar
        and batch paths agree on the victim bit-for-bit; ties break on
        ascending item id.
        """
        if not self._slots:
            return None
        rows = self._rows
        alive_slots = np.nonzero(self._alive[:rows])[0]
        scores_full = np.zeros(rows, dtype=np.float64)
        qnorm = query.norm()
        if qnorm != 0.0:
            sel, scores = self._kernel_scores(query, qnorm)
            if sel is not None:
                scores_full[sel] = scores
        pick = np.lexsort((self._ids[alive_slots], scores_full[alive_slots]))[0]
        return self._columns().item(int(alive_slots[pick]))

    # -- postings (exact keyword filtering) ---------------------------------

    def _postings_view(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Lazy CSR postings: flat keywords of live rows sorted by keyword,
        with the parallel row slots — keyword lookups are searchsorted
        ranges, rebuilt only after a mutation actually happened."""
        postings = self._postings
        if postings is None:
            if not self._slots:
                postings = (None, None)
            else:
                rows = self._rows
                sel = np.nonzero(self._alive[:rows])[0]
                ls = self._lengths[sel]
                gi = _range_gather(self._starts[sel], ls)
                kwv = self._kw_flat[gi]
                rwv = np.repeat(sel, ls)
                order = np.argsort(kwv, kind="stable")
                postings = (kwv[order], rwv[order])
            self._postings = postings
        return postings

    def _slots_with_all(self, keyword_ids: Sequence[int]) -> np.ndarray:
        """Row slots whose items contain every listed keyword."""
        kwv, rwv = self._postings_view()
        if kwv is None:
            return np.empty(0, dtype=np.int64)
        out: Optional[np.ndarray] = None
        for k in keyword_ids:
            lo, hi = np.searchsorted(kwv, [k, k + 1])
            hit = rwv[lo:hi]
            out = np.unique(hit) if out is None else np.intersect1d(out, hit)
            if out.size == 0:
                break
        return out if out is not None else np.empty(0, dtype=np.int64)

    def items_with_all_keywords(self, keyword_ids: Sequence[int]) -> list[StoredItem]:
        """All stored items matching every keyword, by ascending id."""
        if not keyword_ids:
            return []
        hit = self._slots_with_all(keyword_ids)
        if hit.size == 0:
            return []
        row = self._columns().item
        order = np.argsort(self._ids[hit])
        return [row(s) for s in hit[order].tolist()]
