"""Unit tests for Table 1 statistics and the Fig. 6 profile."""

import numpy as np
import pytest

from repro.vsm.sparse import Corpus
from repro.workload.stats import basket_size_profile, trace_statistics


def corpus():
    return Corpus.from_baskets([[0, 1, 2], [0], [1, 2], [3, 4, 5, 6]], 10)


class TestTraceStatistics:
    def test_fields(self):
        s = trace_statistics(corpus())
        assert s.n_items == 4
        assert s.n_keywords_used == 7
        assert s.n_keywords_space == 10
        assert s.mean_basket == pytest.approx(2.5)
        assert s.max_basket == 4
        assert s.min_basket == 1

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            trace_statistics(Corpus.from_baskets([], 10))

    def test_rows_formatting(self):
        rows = trace_statistics(corpus()).as_rows()
        assert len(rows) == 5
        assert rows[0] == ("Number of clients", "4")


class TestBasketProfile:
    def test_sorted_descending(self):
        profile = basket_size_profile(corpus())
        assert list(profile) == [4, 3, 2, 1]

    def test_matches_nnz(self):
        assert basket_size_profile(corpus()).sum() == corpus().matrix.nnz
