"""Absolute angles — Equations 1–5 of the paper.

Given a vector ``d`` in an m-dimensional keyword space, the *absolute
angle* is the quadratic mean of the angles between ``d`` and each
coordinate axis:

    θ = sqrt( (θ₁² + θ₂² + ... + θ_m²) / m )          (Eq. 1)

where θᵢ is the angle between ``d`` and its projection onto axis i
(Eq. 2–3).  Because the projection is ``vᵢ·eᵢ``, the angle collapses to

    θᵢ = arccos( |vᵢ| / |d| )

(Eq. 5 writes ``vᵢ²/(√A·vᵢ)`` which equals ``vᵢ/√A``; we take the
magnitude so the formula is total for signed weights — for the paper's
non-negative weights the two agree, and θᵢ ∈ [0, π/2] always.)

Zero components contribute exactly arccos(0) = π/2, so with nnz nonzero
entries:

    θ² = ( (m − nnz)·(π/2)² + Σ_nonzero θᵢ² ) / m

— only the nonzeros need computing.  This identity is both what makes
the §3.7 universal-dictionary mode cheap (m may be huge) and why the
raw key distribution is so skewed (Fig. 3): every sparse item's θ sits
in a narrow band just below π/2, the keys crowd just below ℜ/2, and the
§3.4 load-balancing machinery exists to undo exactly that.

Similar vectors have nearly identical absolute angles (the map is
continuous in each |vᵢ|/|d|), which is the property Meteorograph uses
to cluster similar items onto nearby nodes.  The converse fails — the
map is a many-to-one projection to one scalar — which is why nodes
still run a local VSM index over what they store.
"""

from __future__ import annotations

import math

import numpy as np

from ..vsm.sparse import Corpus, SparseVector

__all__ = [
    "RIGHT_ANGLE",
    "DEFAULT_CHUNK_ROWS",
    "axis_angles",
    "absolute_angle",
    "absolute_angle_from_arrays",
    "absolute_angles",
    "angle_bounds",
]

#: π/2 — the contribution of every zero component, and the absolute
#: angle of the zero vector.
RIGHT_ANGLE = math.pi / 2.0


def axis_angles(vector: SparseVector) -> np.ndarray:
    """θᵢ for the *nonzero* components of ``vector`` (radians).

    The angles for zero components are all π/2 and are not materialised
    (there may be millions of them in universal-dictionary mode).
    """
    norm = vector.norm()
    if norm == 0.0:
        return np.empty(0)
    ratios = np.abs(vector.values) / norm
    # Guard the domain against floating-point overshoot (|v|/|d| can
    # exceed 1 by an ulp when the vector has a single component).
    return np.arccos(np.clip(ratios, -1.0, 1.0))


def absolute_angle_from_arrays(
    values: np.ndarray, dim: int, *, norm: float | None = None
) -> float:
    """Absolute angle from a raw nonzero-weight array (Eq. 1 + Eq. 5).

    ``values`` are the nonzero weights, ``dim`` the ambient m.  Passing
    a precomputed ``norm`` avoids recomputing it in hot loops.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    vals = np.asarray(values, dtype=np.float64)
    nnz = vals.size
    if nnz > dim:
        raise ValueError(f"more nonzeros ({nnz}) than dimensions ({dim})")
    if nnz == 0:
        return RIGHT_ANGLE
    n = float(np.sqrt(np.dot(vals, vals))) if norm is None else float(norm)
    if n == 0.0:
        return RIGHT_ANGLE
    angles = np.arccos(np.clip(np.abs(vals) / n, -1.0, 1.0))
    theta_sq = ((dim - nnz) * RIGHT_ANGLE**2 + float(np.dot(angles, angles))) / dim
    return math.sqrt(theta_sq)


def absolute_angle(vector: SparseVector) -> float:
    """Absolute angle θ of one vector (radians, ∈ [0, π/2])."""
    return absolute_angle_from_arrays(vector.values, vector.dim)


#: Default row-chunk size for the streaming angle pass.  Chosen so the
#: per-chunk O(nnz) temporaries stay a few MB even at bench sparsity —
#: large enough that the numpy kernels amortise the Python chunk loop.
DEFAULT_CHUNK_ROWS = 65536


def _angles_kernel(data: np.ndarray, indptr: np.ndarray, dim: int) -> np.ndarray:
    """The Eq. 1–5 angle pass over raw CSR arrays (row-local).

    Every quantity is computed per row (squared norm, θᵢ² sum), so the
    kernel applied to a row slice ``data[indptr[lo]:indptr[hi]]`` with
    the rebased ``indptr[lo:hi+1] - indptr[lo]`` produces bit-identical
    float64 results to the same rows of a whole-corpus pass — the
    invariant the chunked path of :func:`absolute_angles` relies on
    (pinned by ``tests/core/test_chunked_keys.py``).
    """
    n = indptr.shape[0] - 1
    nnz = np.diff(indptr)
    # Per-row norms.
    sq_sums = np.zeros(n)
    starts = indptr[:-1]
    data_sq = data * data
    nonempty = nnz > 0
    if data.size:
        row_sums = np.add.reduceat(data_sq, starts[nonempty])
        sq_sums[nonempty] = row_sums
    norms = np.sqrt(sq_sums)
    # θᵢ² for every stored entry, normalised by its row's norm.
    theta_sq_sum = np.zeros(n)
    if data.size:
        row_norm_per_entry = np.repeat(norms, nnz)
        ratios = np.abs(data) / np.where(row_norm_per_entry > 0, row_norm_per_entry, 1.0)
        ang = np.arccos(np.clip(ratios, -1.0, 1.0))
        theta_sq_sum[nonempty] = np.add.reduceat(ang * ang, starts[nonempty])
    out = ((dim - nnz) * RIGHT_ANGLE**2 + theta_sq_sum) / dim
    # Zero rows degrade to the zero-vector convention.
    out[~nonempty] = RIGHT_ANGLE**2
    return np.sqrt(out)


def absolute_angles(corpus: Corpus, *, chunk_rows: int | None = None) -> np.ndarray:
    """Vectorised absolute angles for every item of a corpus.

    One pass over the CSR structure: per-row squared norms via a
    self-multiply, per-row Σθᵢ² via ``np.add.reduceat`` on the data
    array — no Python loop over items.

    ``chunk_rows`` streams the pass in row chunks: peak extra memory
    drops from O(total nnz) temporaries to O(chunk nnz) — at the
    paper's 2.76M-item scale the difference between gigabytes and a few
    megabytes — with **bit-identical** float64 output (the kernel is
    row-local; see :func:`_angles_kernel`).
    """
    mat = corpus.matrix
    n = corpus.n_items
    if chunk_rows is not None and chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    if chunk_rows is None or chunk_rows >= n:
        return _angles_kernel(mat.data, mat.indptr, corpus.dim)
    data = mat.data
    indptr = mat.indptr
    dim = corpus.dim
    out = np.empty(n)
    for lo in range(0, n, chunk_rows):
        hi = min(lo + chunk_rows, n)
        # Row-slicing by hand: data views plus rebased indptr — no CSR
        # matrix slicing (which would copy indices too).
        out[lo:hi] = _angles_kernel(
            data[indptr[lo] : indptr[hi]], indptr[lo : hi + 1] - indptr[lo], dim
        )
    return out


def angle_bounds(nnz: int, dim: int) -> tuple[float, float]:
    """Tight [min, max] of the absolute angle for a vector with ``nnz``
    nonzero components in dimension ``dim``.

    * The maximum is approached as weights concentrate: all-but-one
      angle → π/2 and one → 0, giving ``π/2·sqrt((m−1)/m)``; with equal
      weights every θᵢ = arccos(1/√nnz).  The true max over weight
      choices is the concentrated case.
    * The minimum is the equal-weight configuration (by symmetry and
      convexity of arccos² on [0,1] this minimises the quadratic mean).

    Used by property tests to sanity-check the closed form, and by the
    docs to explain the Fig. 3 skew quantitatively.
    """
    if not 1 <= nnz <= dim:
        raise ValueError(f"need 1 <= nnz <= dim, got nnz={nnz}, dim={dim}")
    zeros_term = (dim - nnz) * RIGHT_ANGLE**2
    # Equal weights: every nonzero angle is arccos(1/sqrt(nnz)).
    eq = math.acos(1.0 / math.sqrt(nnz))
    lo = math.sqrt((zeros_term + nnz * eq * eq) / dim)
    # Concentrated: one component carries all weight.
    hi = math.sqrt((zeros_term + (nnz - 1) * RIGHT_ANGLE**2) / dim)
    return (min(lo, hi), max(lo, hi))
