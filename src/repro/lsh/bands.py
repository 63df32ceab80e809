"""Cosine-LSH banding: L × k signed random hyperplanes → L ring keys.

The classic random-hyperplane sketch for cosine similarity: for a
Gaussian hyperplane ``h``, ``P[sign(h·u) = sign(h·v)] = 1 − θ(u,v)/π``.
A *band* of ``k`` such signs is a k-bit signature; two vectors share a
band's bucket with probability ``(1 − θ/π)^k``, and with ``L``
independent bands the chance that *some* band collides is
``1 − (1 − p^k)^L`` — the standard LSH quality dial (PAPERS.md:
*NearBucket-LSH*, *Efficient Distributed LSH*).

Everything still lives on the **one** ring: band ``b``'s signatures map
into the key range ``[b·region, (b+1)·region)`` with
``region = modulus // L``, each signature owning a bucket of
``region // 2^k`` consecutive keys.  Bits pack MSB-first (hyperplane 0
is the most significant bit), so numerically adjacent buckets agree on
the *leading* hyperplanes — the §3.3 closest-neighbor walk over ring
neighbors is then exactly the NearBucket probe of overlay-adjacent
buckets.

Determinism: hyperplanes derive from ``splitmix64``-mixed per-band
seeds feeding ``PCG64`` generators, so the same ``seed`` reproduces
the same planes (and therefore the same keys) across processes; the
signature pass is row-local, so chunked runs are **bit-identical** to
the whole-corpus pass (the `core/angles.py`
row-chunk contract, pinned by ``tests/lsh/test_bands.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ..core import naming as _naming
from ..core.angles import DEFAULT_CHUNK_ROWS, absolute_angle_from_arrays
from ..core.naming import angle_to_key
from ..maint.retry import splitmix64
from ..obs import NULL_OBS
from ..overlay.idspace import KeySpace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..vsm.sparse import Corpus, SparseVector

__all__ = ["CosineLshScheme"]


def _signature_kernel(
    data: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    dim: int,
    hyperplanes: np.ndarray,
    bit_weights: np.ndarray,
) -> np.ndarray:
    """Band signatures for one CSR row block (row-local, so chunked and
    whole-corpus passes are bit-identical — the ``_angles_kernel``
    contract)."""
    from scipy.sparse import csr_matrix

    n = indptr.shape[0] - 1
    k = bit_weights.shape[0]
    bands = hyperplanes.shape[0] // k
    mat = csr_matrix((data, indices, indptr), shape=(n, dim))
    proj = mat @ hyperplanes.T  # (n, bands*k); row-local dot products
    bits = proj > 0.0
    return (bits.reshape(n, bands, k) * bit_weights).sum(axis=2, dtype=np.int64)


class CosineLshScheme:
    """L-band cosine LSH behind the :class:`~repro.lsh.scheme.NamingScheme` seam.

    Parameters
    ----------
    bands:
        L — publish keys per item (``n_keys``).  Storage budget is L×.
    band_bits:
        k — hyperplanes (signature bits) per band; ``2^k`` buckets per
        band region, so ``modulus // bands`` must be ≥ ``2^k``.
    seed:
        Hyperplane seed; the same seed reproduces the same planes/keys
        across processes.

    The **angle key** is still the raw Eq. 5 key — the displacement
    ladder and the ANGLE victim rule reason in angle space regardless
    of where publish keys land, and every one of an item's L copies
    carries the same angle key.
    """

    def __init__(
        self,
        space: KeySpace,
        dim: int,
        *,
        bands: int = 4,
        band_bits: int = 8,
        seed: int = 0,
        metrics=None,
    ) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if bands < 1:
            raise ValueError(f"bands must be >= 1, got {bands}")
        if band_bits < 1:
            raise ValueError(f"band_bits must be >= 1, got {band_bits}")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        region = space.modulus // bands
        if region < (1 << band_bits):
            raise ValueError(
                f"key space region {region} (modulus {space.modulus} / "
                f"{bands} bands) cannot hold 2^{band_bits} buckets"
            )
        self.space = space
        self.dim = dim
        self.bands = bands
        self.band_bits = band_bits
        self.seed = seed
        self.region = region
        self.bucket_width = region >> band_bits
        self.metrics = metrics if metrics is not None else NULL_OBS.metrics
        # Per-band generators from a double splitmix64 mix: mixing the
        # seed first decorrelates (seed, band) pairs like (0, 1) and
        # (1, 0) that a plain ``seed + band`` stream would alias.
        mixed = splitmix64(seed)
        self.hyperplanes = np.vstack(
            [
                np.random.Generator(
                    np.random.PCG64(splitmix64(mixed ^ b))
                ).standard_normal((band_bits, dim))
                for b in range(bands)
            ]
        )  # (bands * band_bits, dim) float64
        self._band_offsets = np.arange(bands, dtype=np.int64) * region
        # MSB-first: hyperplane 0 is the signature's most significant
        # bit, giving numerically adjacent buckets a shared plane prefix.
        self._bit_weights = np.int64(1) << np.arange(
            band_bits - 1, -1, -1, dtype=np.int64
        )

    @property
    def n_keys(self) -> int:
        return self.bands

    # ----------------------------------------------------------- signatures

    def signatures(
        self, corpus: "Corpus", *, chunk_rows: Optional[int] = None
    ) -> np.ndarray:
        """``(n_items, bands)`` int64 signatures, chunk-invariant.

        Mirrors :func:`repro.core.angles.absolute_angles`: ``chunk_rows``
        streams the projection in row blocks (bounded temporaries) and
        the output is bit-identical because the kernel is row-local.
        Corpora past :data:`~repro.core.angles.DEFAULT_CHUNK_ROWS` rows
        chunk automatically.
        """
        if corpus.dim != self.dim:
            raise ValueError(f"corpus dim {corpus.dim} != scheme dim {self.dim}")
        if chunk_rows is not None and chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        n = corpus.n_items
        if chunk_rows is None and n > DEFAULT_CHUNK_ROWS:
            chunk_rows = DEFAULT_CHUNK_ROWS
        mat = corpus.matrix
        with self.metrics.timer("lsh.signatures"):
            if chunk_rows is None or chunk_rows >= n:
                return _signature_kernel(
                    mat.data, mat.indices, mat.indptr, self.dim,
                    self.hyperplanes, self._bit_weights,
                )
            data, indices, indptr = mat.data, mat.indices, mat.indptr
            out = np.empty((n, self.bands), dtype=np.int64)
            for lo in range(0, n, chunk_rows):
                hi = min(lo + chunk_rows, n)
                out[lo:hi] = _signature_kernel(
                    data[indptr[lo] : indptr[hi]],
                    indices[indptr[lo] : indptr[hi]],
                    indptr[lo : hi + 1] - indptr[lo],
                    self.dim,
                    self.hyperplanes,
                    self._bit_weights,
                )
            return out

    def _keys_of(self, signatures: np.ndarray) -> np.ndarray:
        """Band signatures → ring keys (disjoint region per band)."""
        return signatures * self.bucket_width + self._band_offsets

    # --------------------------------------------------------- scheme seam

    def keys_for(
        self, keyword_ids: np.ndarray, weights: np.ndarray
    ) -> tuple[int, list[int]]:
        w = np.asarray(weights, dtype=np.float64)
        kw = np.asarray(keyword_ids, dtype=np.int64)
        theta = absolute_angle_from_arrays(w, self.dim)
        return angle_to_key(theta, self.space), self._vector_keys(kw, w)

    def _vector_keys(self, keyword_ids: np.ndarray, weights: np.ndarray) -> list[int]:
        if keyword_ids.size:
            proj = self.hyperplanes[:, keyword_ids] @ weights
        else:
            proj = np.zeros(self.hyperplanes.shape[0])
        bits = (proj > 0.0).reshape(self.bands, self.band_bits)
        sigs = (bits * self._bit_weights).sum(axis=1, dtype=np.int64)
        return self._keys_of(sigs).tolist()

    def corpus_to_keys(
        self, corpus: "Corpus", *, chunk_rows: Optional[int] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        with self.metrics.timer("kernel.angles"):
            angle_keys = _naming.corpus_to_keys(
                corpus, self.space, chunk_rows=chunk_rows
            )
        sigs = self.signatures(corpus, chunk_rows=chunk_rows)
        return angle_keys, self._keys_of(sigs)

    def probe_keys_for(self, query: "SparseVector") -> list[int]:
        return self._vector_keys(
            np.asarray(query.indices, dtype=np.int64),
            np.asarray(query.values, dtype=np.float64),
        )
