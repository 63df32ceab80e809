"""Unit tests for the paper's closed-form cost models.

``repro.analysis`` holds the models the gate rows overlay on
measurements.  The paper's other analytic results — §3.5.2's
similarity-search cost, footnote 1's flood cost and footnote 2's
crossover — are written down here, where the tests pin them; nothing
outside the tests evaluates them.
"""

import math

import pytest

from repro.analysis import availability, expected_route_hops


def similarity_search_messages(
    k: int, c: float, n_nodes: int, digit_bits: int = 2
) -> float:
    """§3.5.2: (1 + k/c)·O(log N) messages to discover k similar items.

    ``c`` is per-node mean storage (items per node).  The model assumes
    matching bodies cluster c-per-node; uniform spread degrades toward
    ``(1 + k)·log N`` (see EXPERIMENTS.md F10b).
    """
    if k < 0 or c <= 0:
        raise ValueError("need k >= 0 and c > 0")
    log_n = expected_route_hops(n_nodes, digit_bits)
    return (1.0 + k / c) * log_n


def flood_messages(n_nodes: int, degree: int | None = None) -> int:
    """Footnote 1: idealised flood = N−1; real flood = N·d edge messages."""
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    if degree is None:
        return n_nodes - 1
    return n_nodes * degree


def crossover_k(n_nodes: int, c: float, digit_bits: int = 2) -> float:
    """The k at which Meteorograph's message cost meets the ideal flood's.

    Solves (1 + k/c)·log N = N − 1; footnote 2's "k ≪ N·c" win region
    is everything below this.
    """
    log_n = expected_route_hops(n_nodes, digit_bits)
    if log_n == 0:
        return 0.0
    return c * ((n_nodes - 1) / log_n - 1.0)


def model_error(measured: float, predicted: float) -> float:
    """Relative error |measured − predicted| / predicted (predicted > 0)."""
    if predicted <= 0:
        raise ValueError(f"predicted must be > 0, got {predicted}")
    return abs(measured - predicted) / predicted


class TestRouteHops:
    def test_log_base_radix(self):
        assert expected_route_hops(256, digit_bits=2) == pytest.approx(4.0)
        assert expected_route_hops(256, digit_bits=4) == pytest.approx(2.0)

    def test_paper_constant(self):
        # The paper quotes O(log N) = 6.91 at N = 10,000 — log₄ 10⁴ ≈ 6.64.
        assert expected_route_hops(10_000, digit_bits=2) == pytest.approx(6.64, abs=0.05)

    def test_single_node(self):
        assert expected_route_hops(1) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_route_hops(0)


class TestSimilarityMessages:
    def test_formula(self):
        # (1 + k/c)·log N
        got = similarity_search_messages(k=100, c=50, n_nodes=256, digit_bits=2)
        assert got == pytest.approx(3.0 * 4.0)

    def test_k_zero_is_route_only(self):
        assert similarity_search_messages(0, 10, 256) == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            similarity_search_messages(-1, 10, 256)
        with pytest.raises(ValueError):
            similarity_search_messages(1, 0, 256)


class TestFlood:
    def test_ideal(self):
        assert flood_messages(500) == 499

    def test_real(self):
        assert flood_messages(500, degree=4) == 2000

    def test_validation(self):
        with pytest.raises(ValueError):
            flood_messages(0)


class TestAvailability:
    def test_paper_cells(self):
        assert availability(0.5, 2) == pytest.approx(0.75)
        assert availability(0.5, 4) == pytest.approx(0.9375)
        assert availability(0.9, 8) == pytest.approx(1 - 0.9**8)

    def test_extremes(self):
        assert availability(0.0, 1) == 1.0
        assert availability(1.0, 8) == 0.0

    def test_monotone_in_replicas(self):
        vals = [availability(0.7, k) for k in (1, 2, 4, 8)]
        assert vals == sorted(vals)

    def test_validation(self):
        with pytest.raises(ValueError):
            availability(1.5, 2)
        with pytest.raises(ValueError):
            availability(0.5, 0)


class TestCrossover:
    def test_win_region_is_large(self):
        # Footnote 2: Meteorograph wins while k ≪ N·c; the crossover k
        # should be within the same order as N·c / log N.
        k = crossover_k(n_nodes=10_000, c=276)
        assert k > 100_000
        assert k == pytest.approx(276 * (9999 / math.log(10_000, 4) - 1), rel=1e-9)

    def test_single_node(self):
        assert crossover_k(1, 10) == 0.0


class TestModelError:
    def test_relative(self):
        assert model_error(11.0, 10.0) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            model_error(1.0, 0.0)
