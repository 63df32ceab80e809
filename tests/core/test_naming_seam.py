"""Twin-system regression: the naming seam changed *nothing* for the
paper's scheme.

``AbsoluteAngleScheme`` is the pre-seam inline code carved out behind
the :class:`repro.lsh.scheme.NamingScheme` protocol.  The carve-out's
contract is bit-identity: every key the facade hands out must equal the
raw-function reference pipeline (``absolute_angle_from_arrays`` →
``angle_to_key`` → ``CdfEqualizer.remap``/``remap_many``) that the old
facade methods inlined, and therefore placements and retrieve results
must be byte-for-byte what they were before the refactor.
"""

import numpy as np
import pytest
from publish_oracle import oracle_publish

from repro.core.angles import absolute_angle_from_arrays
from repro.core.meteorograph import Meteorograph, MeteorographConfig, PlacementScheme
from repro.core.naming import angle_to_key, corpus_to_keys
from repro.lsh import AbsoluteAngleScheme, NamingScheme
from repro.workload import WorldCupParams, generate_trace

N_ITEMS = 300


@pytest.fixture(scope="module")
def corpus():
    return generate_trace(
        WorldCupParams(n_items=N_ITEMS, n_keywords=150), seed=23
    ).corpus


def build(corpus, scheme=PlacementScheme.UNUSED_HASH_HOT):
    rng = np.random.default_rng(5)
    sample_ids = np.sort(rng.choice(corpus.n_items, 60, replace=False))
    return Meteorograph.build(
        50,
        corpus.dim,
        rng=np.random.default_rng(9),
        sample=corpus.subsample(sample_ids),
        config=MeteorographConfig(scheme=scheme),
    )


class TestSchemeWiring:
    def test_default_is_absolute_angle(self, corpus):
        system = build(corpus)
        assert isinstance(system.naming, AbsoluteAngleScheme)
        assert isinstance(system.naming, NamingScheme)
        assert system.naming.n_keys == 1

    def test_equalizer_only_under_remap_scheme(self, corpus):
        assert build(corpus).naming.equalizer is not None
        assert build(corpus, PlacementScheme.NONE).naming.equalizer is None


class TestKeyBitIdentity:
    def test_item_keys_match_reference(self, corpus):
        # The scalar publish path: facade vs the raw pre-seam pipeline.
        system = build(corpus)
        eq = system.equalizer
        mat = corpus.matrix
        for i in range(0, N_ITEMS, 29):
            kw = mat.indices[mat.indptr[i] : mat.indptr[i + 1]]
            w = mat.data[mat.indptr[i] : mat.indptr[i + 1]]
            theta = absolute_angle_from_arrays(
                np.asarray(w, dtype=np.float64), corpus.dim
            )
            ref_angle = angle_to_key(theta, system.space)
            ref_publish = eq.remap(ref_angle)
            assert system.item_keys(kw, w) == (ref_angle, ref_publish)
            assert system.naming.keys_for(kw, w) == (ref_angle, [ref_publish])

    def test_corpus_keys_match_reference(self, corpus):
        system = build(corpus)
        angle_keys, key_mat = system.corpus_keys_multi(corpus)
        ref_angles = corpus_to_keys(corpus, system.space)
        assert np.array_equal(angle_keys, ref_angles)
        assert np.array_equal(
            key_mat[:, 0], system.equalizer.remap_many(ref_angles)
        )

    def test_corpus_keys_no_equalizer_is_identity(self, corpus):
        system = build(corpus, PlacementScheme.NONE)
        angle_keys, key_mat = system.corpus_keys_multi(corpus)
        assert np.array_equal(angle_keys, key_mat[:, 0])

    def test_query_key_matches_item_key(self, corpus):
        # Queries and items with identical content must name the same
        # key — the §3.3 "publish and search share Eq. 5" invariant.
        system = build(corpus)
        for i in (0, N_ITEMS // 2, N_ITEMS - 1):
            v = corpus.vector(i)
            _, publish_key = system.item_keys(v.indices, v.values)
            assert system.query_key(v) == publish_key
            assert system.naming.probe_keys_for(v) == [publish_key]


class TestEndToEndIdentity:
    def test_scalar_and_batch_publish_agree(self, corpus):
        # Placements must be independent of the publish path taken —
        # which also pins them against the pre-seam snapshot, since the
        # batch path is exercised by the committed experiment results.
        a = build(corpus)
        b = build(corpus)
        a.publish_corpus(corpus, np.random.default_rng(3))
        oracle_publish(b, corpus, np.random.default_rng(3))
        pa = {n.node_id: frozenset(n.item_ids())
              for n in a.network.nodes() if len(n)}
        pb = {n.node_id: frozenset(n.item_ids())
              for n in b.network.nodes() if len(n)}
        assert pa == pb

    def test_retrieve_unchanged(self, corpus):
        system = build(corpus)
        system.publish_corpus(corpus, np.random.default_rng(3))
        twin = build(corpus)
        twin.publish_corpus(corpus, np.random.default_rng(3))
        orng = np.random.default_rng(7)
        for i in (5, 50, 150):
            origin = system.random_origin(orng)
            q = corpus.vector(i)
            r1 = system.retrieve(origin, q, 5)
            r2 = twin.retrieve(origin, q, 5)
            assert r1.item_ids() == r2.item_ids()
            assert r1.messages == r2.messages
            assert r1.visited == r2.visited
