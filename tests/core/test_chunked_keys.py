"""Chunked/streaming key pipeline — bit-identity contract.

The whole point of the chunked angle pass is that it changes *nothing*
but peak memory: float64 angles and int64 keys must be bit-identical to
the whole-corpus pass for every chunk size, and the system-level
wrappers must plumb the knob through without perturbing placements.
"""

import numpy as np
import pytest

from repro.core.angles import DEFAULT_CHUNK_ROWS, absolute_angle, absolute_angles
from repro.core.meteorograph import Meteorograph, MeteorographConfig, PlacementScheme
from repro.core.naming import corpus_to_keys
from repro.overlay.idspace import KeySpace
from repro.workload import WorldCupParams, generate_trace

N_ITEMS = 500


@pytest.fixture(scope="module")
def corpus():
    return generate_trace(
        WorldCupParams(n_items=N_ITEMS, n_keywords=250), seed=77
    ).corpus


class TestBitIdentity:
    def test_chunked_matches_whole_exactly(self, corpus):
        whole = absolute_angles(corpus)
        for chunk in (1, 7, 64, 100, N_ITEMS, N_ITEMS + 1, 10**6):
            chunked = absolute_angles(corpus, chunk_rows=chunk)
            assert chunked.dtype == np.float64
            assert np.array_equal(whole, chunked), f"chunk_rows={chunk}"

    def test_keys_identical(self, corpus):
        space = KeySpace(10**8)
        whole = corpus_to_keys(corpus, space)
        chunked = corpus_to_keys(corpus, space, chunk_rows=33)
        assert whole.dtype == np.int64
        assert np.array_equal(whole, chunked)

    def test_matches_scalar_reference(self, corpus):
        chunked = absolute_angles(corpus, chunk_rows=13)
        for row in (0, 1, N_ITEMS // 2, N_ITEMS - 1):
            assert chunked[row] == pytest.approx(
                absolute_angle(corpus.vector(row)), abs=1e-12
            )

    def test_chunk_boundary_straddles_empty_rows(self):
        """Zero rows (θ = π/2) at chunk edges must not shift segments."""
        from repro.vsm.sparse import Corpus
        from scipy.sparse import csr_matrix

        rng = np.random.default_rng(5)
        dense = rng.random((20, 30)) * (rng.random((20, 30)) < 0.3)
        dense[0] = 0.0
        dense[7] = 0.0  # straddled by chunk_rows=7 boundaries
        dense[19] = 0.0
        corpus = Corpus(csr_matrix(dense))
        whole = absolute_angles(corpus)
        for chunk in (1, 7, 8):
            assert np.array_equal(whole, absolute_angles(corpus, chunk_rows=chunk))

    def test_invalid_chunk_rows(self, corpus):
        with pytest.raises(ValueError, match="chunk_rows"):
            absolute_angles(corpus, chunk_rows=0)


def build_system(corpus, **kwargs):
    rng = np.random.default_rng(5)
    sample_ids = np.sort(rng.choice(corpus.n_items, 50, replace=False))
    cfg = MeteorographConfig(scheme=PlacementScheme.UNUSED_HASH)
    return Meteorograph.build(
        60,
        corpus.dim,
        rng=np.random.default_rng(9),
        sample=corpus.subsample(sample_ids),
        config=cfg,
    )


class TestSystemWiring:
    def test_corpus_keys_chunk_knob(self, corpus):
        system = build_system(corpus)
        a_whole, p_whole = system.corpus_keys_multi(corpus)
        a_chunk, p_chunk = system.corpus_keys_multi(corpus, chunk_rows=19)
        assert np.array_equal(a_whole, a_chunk)
        assert np.array_equal(p_whole, p_chunk)

    def test_auto_chunk_threshold(self, corpus, monkeypatch):
        """Corpora above DEFAULT_CHUNK_ROWS rows auto-chunk; small ones
        take the whole-corpus pass.  Observed via the chunk_rows that
        reaches corpus_to_keys (now called through the naming-scheme
        seam, so the spy sits on repro.core.naming)."""
        import repro.core.meteorograph as mg
        import repro.core.naming as naming_mod

        system = build_system(corpus)  # before the spy: build keys the sample
        seen = []
        real = naming_mod.corpus_to_keys

        def spy(c, space, *, chunk_rows=None):
            seen.append(chunk_rows)
            return real(c, space, chunk_rows=chunk_rows)

        monkeypatch.setattr(naming_mod, "corpus_to_keys", spy)
        system.corpus_keys_multi(corpus)  # small: no chunking
        monkeypatch.setattr(mg, "DEFAULT_CHUNK_ROWS", 100)
        system.corpus_keys_multi(corpus)  # now "large": auto-chunks at 100
        system.corpus_keys_multi(corpus, chunk_rows=7)  # explicit wins
        assert seen == [None, 100, 7]

    def test_publish_corpus_chunked_same_placements(self, corpus):
        whole_sys = build_system(corpus)
        chunk_sys = build_system(corpus)
        whole_sys.publish_corpus(corpus, np.random.default_rng(3))
        chunk_sys.publish_corpus(corpus, np.random.default_rng(3), chunk_rows=37)
        whole = {
            n.node_id: frozenset(n.item_ids())
            for n in whole_sys.network.nodes()
            if len(n)
        }
        chunk = {
            n.node_id: frozenset(n.item_ids())
            for n in chunk_sys.network.nodes()
            if len(n)
        }
        assert whole == chunk

    def test_default_threshold_is_sane(self):
        assert DEFAULT_CHUNK_ROWS >= 1024
