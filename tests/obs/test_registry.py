"""Unit tests for the metrics registry, distributions, and profiler."""

import csv
import json

import pytest

from repro.obs import NULL_OBS, Observability, SimProfiler
from repro.obs.registry import (
    NULL_METRICS,
    Distribution,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.obs.registry import _RESERVOIR_CAP
from repro.sim.engine import Simulator


class TestDistribution:
    def test_streaming_moments(self):
        d = Distribution()
        for v in (1.0, 2.0, 3.0, 4.0):
            d.record(v)
        assert d.count == 4
        assert d.mean == pytest.approx(2.5)
        assert d.min == 1.0
        assert d.max == 4.0

    def test_quantiles_exact_before_thinning(self):
        d = Distribution()
        for v in range(101):
            d.record(float(v))
        assert d.quantile(0.0) == 0.0
        assert d.quantile(0.5) == 50.0
        assert d.quantile(1.0) == 100.0

    def test_quantile_range_validation(self):
        d = Distribution()
        d.record(1.0)
        with pytest.raises(ValueError):
            d.quantile(1.5)
        with pytest.raises(ValueError):
            Distribution().quantile(0.5)  # empty

    def test_reservoir_thins_deterministically(self):
        d = Distribution()
        n = _RESERVOIR_CAP * 3
        for v in range(n):
            d.record(float(v))
        # Exact stats survive thinning…
        assert d.count == n
        assert d.max == float(n - 1)
        # …and the reservoir stays bounded with a sane median.
        assert len(d._samples) < _RESERVOIR_CAP
        assert d.quantile(0.5) == pytest.approx(n / 2, rel=0.05)

    def test_as_dict_empty(self):
        assert Distribution().as_dict() == {"count": 0}


class TestMetricsRegistry:
    def test_counters(self):
        m = MetricsRegistry()
        m.counter("a")
        m.counter("a", 4)
        assert m.counters["a"] == 5

    def test_gauges_last_write_wins(self):
        m = MetricsRegistry()
        m.gauge("n", 10)
        m.gauge("n", 20)
        assert m.gauges["n"] == 20.0

    def test_observe_and_bucket(self):
        m = MetricsRegistry()
        m.observe("depth", 3)
        m.observe("depth", 5)
        m.bucket("inbox", 42)
        m.bucket("inbox", 42)
        m.bucket("inbox", 7)
        assert m.distributions["depth"].count == 2
        assert m.buckets["inbox"][42] == 2

    def test_timer_records_wall_and_cpu(self):
        m = MetricsRegistry()
        with m.timer("k"):
            sum(range(1000))
        stat = m.timers["k"]
        assert stat.wall.count == 1
        assert stat.cpu.count == 1
        assert stat.wall.min >= 0.0

    def test_record_timing_direct(self):
        m = MetricsRegistry()
        m.record_timing("k", 0.5, 0.25)
        assert m.timers["k"].wall.mean == pytest.approx(0.5)
        assert m.timers["k"].cpu.mean == pytest.approx(0.25)

    def test_snapshot_shape(self):
        m = MetricsRegistry()
        m.counter("c")
        m.gauge("g", 1)
        m.observe("d", 2.0)
        with m.timer("t"):
            pass
        m.bucket("bk", 5)
        snap = m.snapshot()
        assert snap["counters"] == {"c": 1}
        assert snap["gauges"] == {"g": 1.0}
        assert snap["distributions"]["d"]["count"] == 1
        assert snap["timers"]["t"]["wall_s"]["count"] == 1
        assert snap["buckets"]["bk"] == {"5": 1}

    def test_json_and_csv_export(self, tmp_path):
        m = MetricsRegistry()
        m.counter("c", 2)
        with m.timer("t"):
            pass
        jp = m.to_json(tmp_path / "m.json")
        assert json.loads(jp.read_text())["counters"]["c"] == 2
        cp = m.to_csv(tmp_path / "m.csv")
        rows = list(csv.reader(cp.open()))
        assert rows[0] == ["instrument", "name", "field", "value"]
        assert ["counter", "c", "count", "2"] in rows
        assert any(r[0] == "timer" and r[2] == "wall_s.count" for r in rows)

    def test_render_tables(self):
        m = MetricsRegistry()
        m.counter("net.sent.publish", 7)
        m.gauge("build.nodes", 80)
        m.observe("sim.queue_depth", 1.0)
        with m.timer("kernel.angles"):
            pass
        m.bucket("net.node_inbox", 123, 4)
        text = m.render_tables()
        assert "== counters ==" in text
        assert "net.sent.publish" in text
        assert "== timers (wall / cpu, ms) ==" in text
        assert "bucket: net.node_inbox" in text

    def test_render_tables_empty(self):
        assert MetricsRegistry().render_tables() == "(no metrics recorded)"


class TestNullRegistry:
    def test_disabled_flag(self):
        assert NULL_METRICS.enabled is False
        assert MetricsRegistry().enabled is True

    def test_all_operations_are_noops(self):
        m = NullMetricsRegistry()
        m.counter("c")
        m.gauge("g", 1)
        m.observe("d", 1.0)
        m.bucket("b", 1)
        with m.timer("t"):
            pass
        m.record_timing("t", 1.0)
        assert m.counters == {}
        assert m.snapshot() == {}
        assert m.render_tables() == "(observability disabled)"


class TestObservabilityBundle:
    def test_default_bundle_enabled(self):
        obs = Observability()
        assert obs.enabled
        assert obs.tracer.enabled
        assert obs.metrics.enabled

    def test_null_bundle_disabled(self):
        assert NULL_OBS.enabled is False

    def test_disabled_constructor(self):
        assert Observability.disabled().enabled is False


class TestSimProfiler:
    def test_attach_and_step_timing(self):
        obs = Observability()
        sim = Simulator()
        SimProfiler(obs.metrics).attach(sim)
        assert sim.profiler is not None
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda t=t: fired.append(t))
        sim.run()
        assert fired == [1.0, 2.0, 3.0]
        snap = obs.metrics.snapshot()
        assert snap["timers"]["sim.step"]["wall_s"]["count"] == 3
        assert snap["distributions"]["sim.queue_depth"]["count"] == 3
        # Queue depth is sampled *before* the callback pops run: the
        # first step sees 2 remaining events, the last sees 0.
        assert snap["distributions"]["sim.queue_depth"]["max"] == 2.0
        assert sim.profiler.events_profiled == 3

    def test_exception_still_recorded(self):
        obs = Observability()
        sim = Simulator()
        SimProfiler(obs.metrics).attach(sim)
        sim.schedule(1.0, lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            sim.run()
        assert obs.metrics.timers["sim.step"].wall.count == 1

    def test_unprofiled_simulator_unchanged(self):
        sim = Simulator()
        assert sim.profiler is None
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_fired == 1
