"""Unit tests for the brute-force cosine oracle and its vector primitives."""

import math

import numpy as np
import pytest

from cosine_oracle import angle_between, is_similar, rank_by_cosine, top_k_items

from repro.vsm.sparse import Corpus, SparseVector

DIM = 10


def vec(mapping):
    return SparseVector.from_mapping(mapping, DIM)


class TestAngles:
    def test_identical_vectors_zero_angle(self):
        v = vec({1: 2.0, 3: 1.0})
        assert angle_between(v, v) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_vectors_right_angle(self):
        assert angle_between(vec({0: 1.0}), vec({1: 1.0})) == pytest.approx(math.pi / 2)

    def test_zero_vector_convention(self):
        assert angle_between(vec({}), vec({1: 1.0})) == pytest.approx(math.pi / 2)

    def test_is_similar_threshold(self):
        a, b = vec({0: 1.0, 1: 1.0}), vec({0: 1.0, 1: 0.9})
        assert is_similar(a, b, tau=0.5)
        assert not is_similar(a, vec({5: 1.0}), tau=0.5)

    def test_is_similar_tau_validated(self):
        with pytest.raises(ValueError):
            is_similar(vec({0: 1.0}), vec({0: 1.0}), tau=0.0)
        with pytest.raises(ValueError):
            is_similar(vec({0: 1.0}), vec({0: 1.0}), tau=4.0)

    def test_cosine_similarity_alias(self):
        a, b = vec({0: 1.0}), vec({0: 2.0})
        assert a.cosine(b) == pytest.approx(1.0)


class TestRanking:
    def make_corpus(self):
        return Corpus.from_vectors(
            [
                vec({0: 1.0, 1: 1.0}),  # item 0
                vec({0: 1.0}),  # item 1: identical direction to query
                vec({5: 1.0}),  # item 2: orthogonal
                vec({0: 1.0, 9: 3.0}),  # item 3: partial
            ]
        )

    def test_rank_by_cosine_order(self):
        order = rank_by_cosine(self.make_corpus(), vec({0: 1.0}))
        assert order[0] == 1
        assert order[-1] == 2

    def test_rank_deterministic_ties(self):
        c = Corpus.from_vectors([vec({0: 1.0}), vec({0: 2.0}), vec({1: 1.0})])
        order = rank_by_cosine(c, vec({0: 1.0}))
        assert list(order) == [0, 1, 2]  # tie between 0,1 breaks by id

    def test_top_k_matches_full_ranking(self):
        c = self.make_corpus()
        q = vec({0: 1.0})
        full = rank_by_cosine(c, q)
        top2 = top_k_items(c, q, 2)
        assert [i for i, _ in top2] == list(full[:2])

    def test_top_k_clipped_to_corpus(self):
        c = self.make_corpus()
        assert len(top_k_items(c, vec({0: 1.0}), 100)) == 4

    def test_top_k_k_validated(self):
        with pytest.raises(ValueError):
            top_k_items(self.make_corpus(), vec({0: 1.0}), 0)

    def test_top_k_scores_descending(self):
        scores = [s for _, s in top_k_items(self.make_corpus(), vec({0: 1.0, 1: 0.5}), 4)]
        assert scores == sorted(scores, reverse=True)


class TestExactMatch:
    def test_matches_all_keywords(self):
        v = vec({1: 1.0, 2: 1.0, 3: 1.0})
        assert v.contains_all([1, 2])
        assert not v.contains_all([1, 7])
