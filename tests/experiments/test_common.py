"""Unit tests for shared experiment plumbing."""

import numpy as np
import pytest

from repro.core import PlacementScheme
from repro.experiments.common import (
    SCHEME_LABELS,
    RowSet,
    build_system,
    default_trace,
    sample_of,
    scale_factor,
    timer,
)
from repro.workload import WorldCupParams, generate_trace


@pytest.fixture(scope="module")
def trace():
    return generate_trace(WorldCupParams(n_items=400, n_keywords=150), seed=3)


class TestScaleFactor:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scale_factor() == 1.0
        assert scale_factor(0.5) == 0.5

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.5")
        assert scale_factor() == 2.5


class TestDefaultTrace:
    def test_scaled_size(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        tr = default_trace()
        assert tr.corpus.n_items == 1000

    def test_floor_applied(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.0001")
        tr = default_trace()
        assert tr.corpus.n_items >= 200

    def test_one_trace_per_parameter_set(self):
        tr = default_trace(n_items=300, n_keywords=120, scale=1.0)
        assert default_trace(n_items=300, n_keywords=120, scale=1.0) is tr
        assert default_trace(n_items=300, n_keywords=120, scale=1.0, seed=5) is not tr
        fresh = generate_trace(WorldCupParams(n_items=300, n_keywords=120), seed=19980724)
        assert (tr.corpus.matrix != fresh.corpus.matrix).nnz == 0

    def test_shared_arrays_are_read_only(self):
        tr = default_trace(n_items=300, n_keywords=120, scale=1.0)
        with pytest.raises(ValueError, match="read-only"):
            tr.corpus.matrix.data[0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            tr.keyword_weights[0] = 0.0


class TestSampleOf:
    def test_fraction(self, trace, rng):
        s = sample_of(trace.corpus, rng, fraction=0.5, minimum=1)
        assert s.n_items == 200

    def test_minimum_floor(self, trace, rng):
        s = sample_of(trace.corpus, rng, fraction=0.001, minimum=64)
        assert s.n_items == 64

    def test_never_exceeds_corpus(self, trace, rng):
        s = sample_of(trace.corpus, rng, fraction=0.001, minimum=10_000)
        assert s.n_items == trace.corpus.n_items


class TestBuildSystem:
    def test_capacity_multiple(self, trace, rng):
        system = build_system(
            trace, 40, PlacementScheme.UNUSED_HASH_HOT, rng=rng,
            capacity_multiple=2.0,
        )
        expected = int(round(2.0 * trace.corpus.n_items / 40))
        node = next(system.network.nodes())
        assert node.capacity == expected

    def test_infinite_capacity_by_default(self, trace, rng):
        system = build_system(trace, 20, PlacementScheme.NONE, rng=rng)
        node = next(system.network.nodes())
        assert node.capacity is None

    def test_overrides_forwarded(self, trace, rng):
        system = build_system(
            trace, 20, PlacementScheme.NONE, rng=rng, directory_pointers=True
        )
        assert system.config.directory_pointers


class TestLabelsAndTimer:
    def test_labels_cover_all_schemes(self):
        assert set(SCHEME_LABELS) == set(PlacementScheme)
        assert SCHEME_LABELS[PlacementScheme.NONE] == "None"

    def test_timer_stamps_elapsed(self):
        rs = RowSet("t", ("a",))
        with timer(rs):
            sum(range(1000))
        assert rs.elapsed_s > 0
