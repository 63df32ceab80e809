"""Sparse keyword vectors and corpus matrices (the vector space model, §2).

Items and queries are vectors in an ``m``-dimensional keyword space.
With the §3.7 universal-dictionary convention ``m`` is large (every
word in the dictionary) and vectors are very sparse, so the
representation is (sorted keyword ids, positive weights, m).

Two granularities:

* :class:`SparseVector` — one item/query; cheap scalar ops.
* :class:`Corpus` — a whole item collection as a SciPy CSR matrix, for
  the vectorised corpus-scale math (angle computation over millions of
  items, batch cosine ranking) that the hpc guides call for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = ["SparseVector", "Corpus"]


@dataclass(frozen=True)
class SparseVector:
    """An immutable sparse vector with strictly positive weights.

    ``indices`` are sorted, unique keyword ids; ``dim`` is the ambient
    dimension ``m`` (the dictionary size), which matters to the absolute
    angle: zero components contribute to Eq. 1 even though they carry no
    weight.
    """

    indices: np.ndarray
    values: np.ndarray
    dim: int

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        if idx.ndim != 1 or val.ndim != 1 or idx.shape != val.shape:
            raise ValueError("indices and values must be 1-D arrays of equal length")
        if idx.size and (np.any(idx[:-1] >= idx[1:])):
            raise ValueError("indices must be strictly increasing (sorted, unique)")
        if idx.size and (idx[0] < 0 or idx[-1] >= self.dim):
            raise ValueError(f"indices out of range [0,{self.dim})")
        if np.any(val <= 0):
            raise ValueError("weights must be strictly positive")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[int, float]], dim: int
    ) -> "SparseVector":
        """Build from (keyword id, weight) pairs; duplicate ids summed."""
        acc: dict[int, float] = {}
        for k, w in pairs:
            acc[k] = acc.get(k, 0.0) + float(w)
        if not acc:
            return cls(np.empty(0, dtype=np.int64), np.empty(0), dim)
        idx = np.array(sorted(acc), dtype=np.int64)
        val = np.array([acc[int(i)] for i in idx], dtype=np.float64)
        return cls(idx, val, dim)

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, float], dim: int) -> "SparseVector":
        return cls.from_pairs(mapping.items(), dim)

    @classmethod
    def binary(cls, keyword_ids: Sequence[int], dim: int) -> "SparseVector":
        """Unit-weight vector over a keyword set (the paper's default)."""
        return cls.from_pairs(((int(k), 1.0) for k in keyword_ids), dim)

    # -- basic properties ------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def is_zero(self) -> bool:
        return self.indices.size == 0

    # The vector is immutable, so its norm and its keyword ids as Python
    # ints are computed once: a walk asks every visited node's index for
    # both (``cached_property`` writes the instance ``__dict__`` directly,
    # which the frozen dataclass allows).

    @cached_property
    def _norm(self) -> float:
        return float(np.sqrt(np.dot(self.values, self.values)))

    @cached_property
    def keyword_tuple(self) -> tuple[int, ...]:
        """The keyword ids as a tuple of Python ints, ascending."""
        return tuple(self.indices.tolist())

    def norm(self) -> float:
        """Euclidean norm |d|."""
        return self._norm

    def keyword_set(self) -> frozenset[int]:
        return frozenset(self.keyword_tuple)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self.indices] = self.values
        return out

    def weight_of(self, keyword_id: int) -> float:
        """Weight of one keyword (0 when absent)."""
        pos = np.searchsorted(self.indices, keyword_id)
        if pos < self.indices.size and self.indices[pos] == keyword_id:
            return float(self.values[pos])
        return 0.0

    # -- algebra --------------------------------------------------------------

    def dot(self, other: "SparseVector") -> float:
        """Sparse dot product via sorted-index intersection."""
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} != {other.dim}")
        common, ia, ib = np.intersect1d(
            self.indices, other.indices, assume_unique=True, return_indices=True
        )
        if common.size == 0:
            return 0.0
        return float(np.dot(self.values[ia], other.values[ib]))

    def cosine(self, other: "SparseVector") -> float:
        """Cosine similarity; zero vectors have similarity 0 by convention."""
        na, nb = self.norm(), other.norm()
        if na == 0.0 or nb == 0.0:
            return 0.0
        return self.dot(other) / (na * nb)

    def contains_all(self, keyword_ids: Iterable[int]) -> bool:
        """Exact multi-keyword match: every queried keyword is present."""
        have = self.keyword_set()
        return all(int(k) in have for k in keyword_ids)

    def scaled(self, factor: float) -> "SparseVector":
        if factor <= 0:
            raise ValueError(f"scale factor must be > 0, got {factor}")
        return SparseVector(self.indices.copy(), self.values * factor, self.dim)


class Corpus:
    """An item collection as a CSR matrix (items × keywords).

    The canonical corpus-scale container: workload generators produce
    one, the publisher iterates its rows, and the angle/naming code
    computes over it with vectorised NumPy.
    """

    def __init__(self, matrix: sp.spmatrix) -> None:
        csr = sp.csr_matrix(matrix, dtype=np.float64)
        csr.sum_duplicates()
        csr.sort_indices()
        if (csr.data <= 0).any():
            raise ValueError("corpus weights must be strictly positive")
        self.matrix = csr

    # -- constructors -------------------------------------------------------------

    @classmethod
    def from_baskets(
        cls,
        baskets: Sequence[Sequence[int]],
        dim: int,
        weights: Optional[Sequence[Sequence[float]]] = None,
    ) -> "Corpus":
        """Build from per-item keyword-id lists (market-basket form)."""
        indptr = np.zeros(len(baskets) + 1, dtype=np.int64)
        sizes = np.fromiter((len(b) for b in baskets), dtype=np.int64, count=len(baskets))
        np.cumsum(sizes, out=indptr[1:])
        indices = np.concatenate(
            [np.asarray(b, dtype=np.int64) for b in baskets]
        ) if len(baskets) else np.empty(0, dtype=np.int64)
        if weights is None:
            data = np.ones(indices.shape[0])
        else:
            if len(weights) != len(baskets):
                raise ValueError("weights must parallel baskets")
            data = np.concatenate(
                [np.asarray(w, dtype=np.float64) for w in weights]
            ) if len(weights) else np.empty(0)
        mat = sp.csr_matrix((data, indices, indptr), shape=(len(baskets), dim))
        return cls(mat)

    @classmethod
    def from_vectors(cls, vectors: Sequence[SparseVector]) -> "Corpus":
        if not vectors:
            raise ValueError("cannot build a corpus from zero vectors")
        dim = vectors[0].dim
        if any(v.dim != dim for v in vectors):
            raise ValueError("all vectors must share one dimension")
        return cls.from_baskets(
            [v.indices for v in vectors], dim, [v.values for v in vectors]
        )

    # -- properties --------------------------------------------------------------

    @property
    def n_items(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return self.n_items

    def nnz_per_item(self) -> np.ndarray:
        """Keywords per item (the Fig. 6 / Table 1 'objects per client')."""
        return np.diff(self.matrix.indptr)

    def keyword_frequencies(self) -> np.ndarray:
        """Number of items containing each keyword (popularity)."""
        return np.asarray((self.matrix > 0).sum(axis=0)).ravel()

    def norms(self) -> np.ndarray:
        """Per-item Euclidean norms, vectorised."""
        sq = self.matrix.multiply(self.matrix)
        return np.sqrt(np.asarray(sq.sum(axis=1)).ravel())

    # -- access ------------------------------------------------------------------

    def vector(self, item_id: int) -> SparseVector:
        """Row ``item_id`` as a :class:`SparseVector`."""
        if not 0 <= item_id < self.n_items:
            raise IndexError(f"item {item_id} out of range [0,{self.n_items})")
        lo, hi = self.matrix.indptr[item_id], self.matrix.indptr[item_id + 1]
        return SparseVector(
            self.matrix.indices[lo:hi].astype(np.int64),
            self.matrix.data[lo:hi].copy(),
            self.dim,
        )

    def row_slices(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield (item_id, keyword_ids, weights) without materialising vectors.

        The keyword arrays are views into one shared int64 copy of the
        CSR indices (cast once, not per row) — treat them as read-only.
        """
        indices = self.matrix.indices.astype(np.int64)
        data = self.matrix.data
        lo = 0
        for i, hi in enumerate(self.matrix.indptr.tolist()[1:]):
            yield i, indices[lo:hi], data[lo:hi]
            lo = hi

    def items_with_keyword(self, keyword_id: int) -> np.ndarray:
        """Item ids whose basket contains ``keyword_id``."""
        if not 0 <= keyword_id < self.dim:
            raise IndexError(f"keyword {keyword_id} out of range [0,{self.dim})")
        col = self.matrix.getcol(keyword_id).tocoo()
        return np.sort(col.row.astype(np.int64))

    def cosine_against(self, query: SparseVector) -> np.ndarray:
        """Cosine similarity of every item against ``query`` (vectorised)."""
        if query.dim != self.dim:
            raise ValueError(f"dimension mismatch: {query.dim} != {self.dim}")
        qn = query.norm()
        if qn == 0.0:
            return np.zeros(self.n_items)
        q = sp.csr_matrix(
            (query.values, query.indices, [0, query.nnz]), shape=(1, self.dim)
        )
        dots = np.asarray(self.matrix.dot(q.T).todense()).ravel()
        norms = self.norms()
        out = np.zeros(self.n_items)
        nz = norms > 0
        out[nz] = dots[nz] / (norms[nz] * qn)
        return out

    def subsample(self, item_ids: Sequence[int]) -> "Corpus":
        """A corpus restricted to the given items (the §3.4 sample set)."""
        ids = np.asarray(item_ids, dtype=np.int64)
        return Corpus(self.matrix[ids])
