"""CosineLshScheme — determinism and key-layout contracts.

The subsystem's load-bearing promises (ISSUE 8, satellite c):

* same seed → same hyperplanes and same keys, across independently
  constructed instances (i.e. across processes — construction has no
  hidden global state);
* the signature pass is bit-identical across chunk sizes and worker
  counts (the ``core/angles.py`` row-chunk contract, extended);
* every band's keys land inside that band's disjoint key-space region;
* the scalar ``keys_for`` path agrees with the vectorised
  ``corpus_to_keys`` path on the buckets that matter.
"""

import numpy as np
import pytest

from repro.lsh import CosineLshScheme
from repro.overlay.idspace import KeySpace
from repro.workload import WorldCupParams, generate_trace

N_ITEMS = 400
SPACE = KeySpace()


@pytest.fixture(scope="module")
def corpus():
    return generate_trace(
        WorldCupParams(n_items=N_ITEMS, n_keywords=200), seed=77
    ).corpus


def make_scheme(corpus, **kwargs):
    kwargs.setdefault("bands", 4)
    kwargs.setdefault("band_bits", 6)
    kwargs.setdefault("seed", 9)
    return CosineLshScheme(SPACE, corpus.dim, **kwargs)


class TestDeterminism:
    def test_same_seed_same_hyperplanes(self, corpus):
        a = make_scheme(corpus)
        b = make_scheme(corpus)
        assert np.array_equal(a.hyperplanes, b.hyperplanes)

    def test_same_seed_same_keys(self, corpus):
        a = make_scheme(corpus)
        b = make_scheme(corpus)
        _, ka = a.corpus_to_keys(corpus)
        _, kb = b.corpus_to_keys(corpus)
        assert np.array_equal(ka, kb)

    def test_different_seeds_differ(self, corpus):
        a = make_scheme(corpus, seed=9)
        b = make_scheme(corpus, seed=10)
        assert not np.array_equal(a.hyperplanes, b.hyperplanes)
        _, ka = a.corpus_to_keys(corpus)
        _, kb = b.corpus_to_keys(corpus)
        assert not np.array_equal(ka, kb)

    def test_band_streams_independent(self, corpus):
        # The double-splitmix mix must not alias (seed, band) pairs:
        # no two bands of one scheme may share a hyperplane block.
        s = make_scheme(corpus)
        k = s.band_bits
        blocks = [s.hyperplanes[b * k : (b + 1) * k] for b in range(s.bands)]
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                assert not np.array_equal(blocks[i], blocks[j])


class TestChunkInvariance:
    def test_signatures_chunk_sweep(self, corpus):
        s = make_scheme(corpus)
        whole = s.signatures(corpus)
        assert whole.shape == (N_ITEMS, s.bands)
        assert whole.dtype == np.int64
        for chunk in (1, 7, 64, 100, N_ITEMS, N_ITEMS + 1, 10**6):
            chunked = s.signatures(corpus, chunk_rows=chunk)
            assert np.array_equal(whole, chunked), f"chunk_rows={chunk}"

    def test_corpus_to_keys_chunk_invariant(self, corpus):
        s = make_scheme(corpus)
        a_whole, k_whole = s.corpus_to_keys(corpus)
        a_chunk, k_chunk = s.corpus_to_keys(corpus, chunk_rows=33)
        assert np.array_equal(a_whole, a_chunk)
        assert np.array_equal(k_whole, k_chunk)

    def test_invalid_chunk_rows(self, corpus):
        with pytest.raises(ValueError, match="chunk_rows"):
            make_scheme(corpus).signatures(corpus, chunk_rows=0)

    def test_dim_mismatch_rejected(self, corpus):
        s = CosineLshScheme(SPACE, corpus.dim + 1, bands=2, band_bits=4)
        with pytest.raises(ValueError, match="dim"):
            s.signatures(corpus)


class TestKeyLayout:
    def test_keys_within_band_regions(self, corpus):
        s = make_scheme(corpus)
        _, keys = s.corpus_to_keys(corpus)
        for b in range(s.bands):
            lo, hi = b * s.region, (b + 1) * s.region
            assert keys[:, b].min() >= lo
            assert keys[:, b].max() < hi

    def test_bucket_alignment(self, corpus):
        s = make_scheme(corpus)
        _, keys = s.corpus_to_keys(corpus)
        assert np.all((keys - s._band_offsets) % s.bucket_width == 0)

    def test_scalar_matches_vectorised(self, corpus):
        # keys_for (per-item scalar path) must bucket identically to the
        # corpus kernel.  Float reduction order differs between the two
        # dot products, so compare buckets, not raw projections — and
        # assert the angle key exactly (same scalar pipeline).
        s = make_scheme(corpus)
        angle_keys, key_mat = s.corpus_to_keys(corpus)
        mat = corpus.matrix
        for i in range(0, N_ITEMS, 37):
            kw = mat.indices[mat.indptr[i] : mat.indptr[i + 1]]
            w = mat.data[mat.indptr[i] : mat.indptr[i + 1]]
            angle_key, pkeys = s.keys_for(kw, w)
            assert angle_key == angle_keys[i]
            assert pkeys == key_mat[i].tolist()

    def test_probe_keys_match_publish_keys(self, corpus):
        # A corpus row used as a query must probe its own buckets.
        s = make_scheme(corpus)
        _, key_mat = s.corpus_to_keys(corpus)
        for i in (0, N_ITEMS // 2, N_ITEMS - 1):
            assert s.probe_keys_for(corpus.vector(i)) == key_mat[i].tolist()

    def test_empty_vector_gets_zero_signature(self, corpus):
        s = make_scheme(corpus)
        angle_key, pkeys = s.keys_for(
            np.array([], dtype=np.int64), np.array([], dtype=np.float64)
        )
        assert pkeys == s._band_offsets.tolist()

    def test_n_keys_is_bands(self, corpus):
        assert make_scheme(corpus, bands=5).n_keys == 5


class TestValidation:
    def test_bad_params_rejected(self, corpus):
        for kwargs in (
            {"bands": 0},
            {"band_bits": 0},
            {"seed": -1},
        ):
            with pytest.raises(ValueError):
                make_scheme(corpus, **kwargs)
        with pytest.raises(ValueError, match="dim"):
            CosineLshScheme(SPACE, 0)

    def test_region_must_hold_buckets(self):
        # modulus 1024 / 4 bands = 256-key regions: 8 bits fit, 9 don't.
        small = KeySpace(1024)
        CosineLshScheme(small, 16, bands=4, band_bits=8)
        with pytest.raises(ValueError, match="region"):
            CosineLshScheme(small, 16, bands=4, band_bits=9)
