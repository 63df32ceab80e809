"""The naming-scheme seam: vectors → ring keys, pluggably.

Everything downstream of naming — publish, displacement, the retrieval
walks — only ever consumes *keys*, so the mapping from vectors to keys
is a clean seam.  A :class:`NamingScheme` answers three questions:

* ``keys_for(keyword_ids, weights)`` — one item's Eq. 5 angle key plus
  its **one or more** publish keys (``n_keys`` of them);
* ``corpus_to_keys(corpus)`` — the vectorised counterpart over a whole
  corpus, returning the angle-key vector and an ``(n_items, n_keys)``
  publish-key matrix (chunk-streamable, bit-identical across chunk
  sizes and worker counts, like the Eq. 5 pipeline it wraps);
* ``probe_keys_for(query)`` — the ordered list of keys a retrieve
  should probe for this query.

:class:`AbsoluteAngleScheme` is the paper's path carved out of the
facade: Eq. 5 absolute-angle key, optionally pushed through the Eq. 6
CDF equalizer.  It is **bit-identical** to the pre-seam code — same
functions, same call order, same observability timers — pinned by the
twin-system test in ``tests/core/test_naming_seam.py``.

The angle key is always the raw Eq. 5 key regardless of scheme: the
displacement ladder, the ANGLE replacement policy, and ``StoredItem``
accounting all reason in angle space, and multi-key schemes keep that
invariant (each copy of an item carries the same angle key under a
different publish key).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Protocol, runtime_checkable

import numpy as np

from ..core import naming as _naming
from ..core.angles import absolute_angle_from_arrays
from ..core.naming import CdfEqualizer, angle_to_key
from ..obs import NULL_OBS
from ..overlay.idspace import KeySpace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..vsm.sparse import Corpus, SparseVector

__all__ = ["NamingScheme", "AbsoluteAngleScheme"]


@runtime_checkable
class NamingScheme(Protocol):
    """What the facade needs from a naming family (see module docstring).

    ``n_keys`` is the publish fan-out: 1 keeps every existing code path
    (single-key publish, single-probe retrieve); > 1 switches the
    facade to multi-key publish (storage budget = ``n_keys``× per item,
    accounted explicitly) and multi-probe retrieve
    (:mod:`repro.lsh.probe`).
    """

    @property
    def n_keys(self) -> int:
        """Publish keys per item (1 for the paper's absolute angle)."""
        ...  # pragma: no cover - protocol

    def keys_for(
        self, keyword_ids: np.ndarray, weights: np.ndarray
    ) -> tuple[int, list[int]]:
        """(Eq. 5 angle key, the item's ``n_keys`` publish keys)."""
        ...  # pragma: no cover - protocol

    def corpus_to_keys(
        self, corpus: "Corpus", *, chunk_rows: Optional[int] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`keys_for`: (angle keys ``(n,)``, publish
        keys ``(n, n_keys)``), both int64."""
        ...  # pragma: no cover - protocol

    def probe_keys_for(self, query: "SparseVector") -> list[int]:
        """Ordered probe keys for a query (length ``n_keys``)."""
        ...  # pragma: no cover - protocol


class AbsoluteAngleScheme:
    """Eq. 5 + optional Eq. 6 — the paper's naming behind the seam.

    Every operation calls exactly the functions the pre-seam facade
    called (``absolute_angle_from_arrays`` → ``angle_to_key`` →
    ``CdfEqualizer.remap``/``remap_many``), so keys are bit-identical
    to the old inline code; the ``kernel.angles`` / ``kernel.remap``
    timers fire from here now, keeping the ``stats --check`` instrument
    contract intact.
    """

    n_keys = 1

    def __init__(
        self,
        space: KeySpace,
        dim: int,
        *,
        equalizer: Optional[CdfEqualizer] = None,
        metrics=None,
    ) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.space = space
        self.dim = dim
        self.equalizer = equalizer
        self.metrics = metrics if metrics is not None else NULL_OBS.metrics

    def keys_for(
        self, keyword_ids: np.ndarray, weights: np.ndarray
    ) -> tuple[int, list[int]]:
        theta = absolute_angle_from_arrays(
            np.asarray(weights, dtype=np.float64), self.dim
        )
        angle_key = angle_to_key(theta, self.space)
        if self.equalizer is not None:
            return angle_key, [self.equalizer.remap(angle_key)]
        return angle_key, [angle_key]

    def corpus_to_keys(
        self, corpus: "Corpus", *, chunk_rows: Optional[int] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        with self.metrics.timer("kernel.angles"):
            angle_keys = _naming.corpus_to_keys(
                corpus, self.space, chunk_rows=chunk_rows
            )
        if self.equalizer is not None:
            with self.metrics.timer("kernel.remap"):
                publish_keys = self.equalizer.remap_many(angle_keys)
        else:
            publish_keys = angle_keys.copy()
        return angle_keys, publish_keys[:, np.newaxis]

    def probe_keys_for(self, query: "SparseVector") -> list[int]:
        theta = absolute_angle_from_arrays(query.values, self.dim)
        key = angle_to_key(theta, self.space)
        if self.equalizer is not None:
            key = self.equalizer.remap(key)
        return [key]
