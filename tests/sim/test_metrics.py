"""Unit tests for message/hop accounting."""

import numpy as np
import pytest

from repro.sim.metrics import HopHistogram, MetricSink


class TestMetricSink:
    def test_empty_sink(self):
        sink = MetricSink()
        assert sink.total == 0
        assert sink.count("route") == 0

    def test_charge_accumulates(self):
        sink = MetricSink()
        sink.charge("route")
        sink.charge("route", 3)
        sink.charge("publish", 2)
        assert sink.count("route") == 4
        assert sink.count("publish") == 2
        assert sink.total == 6

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            MetricSink().charge("route", -1)

    def test_snapshot_is_a_copy(self):
        sink = MetricSink()
        sink.charge("a")
        snap = sink.snapshot()
        sink.charge("a")
        assert snap == {"a": 1}
        assert sink.count("a") == 2

    def test_diff_reports_only_changes(self):
        sink = MetricSink()
        sink.charge("a", 2)
        sink.charge("b", 1)
        before = sink.snapshot()
        sink.charge("a", 3)
        sink.charge("c", 1)
        assert sink.diff(before) == {"a": 3, "c": 1}

    def test_diff_against_disjoint_snapshot(self):
        # A snapshot category the sink never charged must not appear in
        # the diff (and must not go negative).
        sink = MetricSink()
        sink.charge("route", 2)
        before = {"publish": 4}
        assert sink.diff(before) == {"route": 2}


class TestHopHistogram:
    def test_empty_raises(self):
        h = HopHistogram()
        with pytest.raises(ValueError):
            _ = h.mean
        with pytest.raises(ValueError):
            h.quantile(0.5)

    def test_negative_hops_rejected(self):
        with pytest.raises(ValueError):
            HopHistogram().add(-1)

    def test_mean_and_max(self):
        h = HopHistogram()
        h.extend([1, 2, 3, 2])
        assert h.mean == pytest.approx(2.0)
        assert h.max == 3
        assert len(h) == 4

    def test_quantiles(self):
        h = HopHistogram()
        h.extend([1] * 50 + [2] * 40 + [10] * 10)
        assert h.quantile(0.5) == 1
        assert h.quantile(0.9) == 2
        assert h.quantile(0.99) == 10
        assert h.quantile(1.0) == 10

    def test_quantile_extremes(self):
        h = HopHistogram()
        h.extend([2, 5, 9])
        # q=0 needs zero mass, satisfied by the smallest bin; q=1 needs
        # all mass, satisfied only by the largest.
        assert h.quantile(0.0) == 2
        assert h.quantile(1.0) == 9

    def test_quantile_extremes_single_bin(self):
        h = HopHistogram()
        h.add(4)
        assert h.quantile(0.0) == 4
        assert h.quantile(1.0) == 4

    def test_quantile_bounds_checked(self):
        h = HopHistogram()
        h.add(1)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_cdf_monotone_ends_at_one(self):
        h = HopHistogram()
        h.extend([3, 1, 1, 7, 3])
        hops, frac = h.cdf()
        assert list(hops) == [1, 3, 7]
        assert frac[-1] == pytest.approx(1.0)
        assert np.all(np.diff(frac) > 0)

    def test_empty_cdf(self):
        hops, frac = HopHistogram().cdf()
        assert hops.size == 0 and frac.size == 0

    def test_as_dict(self):
        h = HopHistogram()
        h.extend([2, 2, 5])
        assert h.as_dict() == {2: 2, 5: 1}
